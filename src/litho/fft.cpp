#include "litho/fft.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numbers>

#include "trace/metrics.h"
#include "util/check.h"

namespace opckit::litho {

std::size_t next_pow2(std::size_t n) {
  // Beyond the top representable power of two the old loop shifted p
  // into 0 and spun forever.
  constexpr std::size_t kTop = std::size_t{1}
                               << (sizeof(std::size_t) * 8 - 1);
  OPCKIT_CHECK_MSG(n <= kTop, "next_pow2(" << n << ") overflows size_t");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

double fft_freq(std::size_t k, std::size_t n) {
  OPCKIT_CHECK_MSG(n > 0 && k < n,
                   "fft_freq bin " << k << " out of range for n=" << n);
  const auto nk = static_cast<double>(k);
  const auto nn = static_cast<double>(n);
  // k <= (n-1)/2, not k < n/2: identical for every even n, but keeps
  // the lone bin of n == 1 at DC (the old comparison mapped it to -1).
  return k <= (n - 1) / 2 ? nk / nn : nk / nn - 1.0;
}

std::vector<std::uint32_t> FftPlan::bit_reversal(std::size_t n) {
  std::vector<std::uint32_t> rev(n);
  // Same incremental carry walk the old per-call permutation used.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev[i] = static_cast<std::uint32_t>(j);
  }
  return rev;
}

std::vector<Complex> FftPlan::stage_twiddles(std::size_t n, bool inverse) {
  // One concatenated table of n-1 entries: stage `len` contributes
  // len/2 twiddles at offset len/2-1. Generated with the exact
  // multiplicative recurrence (w *= wlen) the old per-butterfly code
  // ran, so table-driven butterflies reproduce its results bit for
  // bit.
  std::vector<Complex> tw(n > 0 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const Complex wlen(std::cos(ang), std::sin(ang));
    Complex w(1.0, 0.0);
    Complex* stage = tw.data() + (len / 2 - 1);
    for (std::size_t k = 0; k < len / 2; ++k) {
      stage[k] = w;
      w *= wlen;
    }
  }
  return tw;
}

FftPlan::FftPlan(std::size_t n, FftKind kind) : n_(n), kind_(kind) {
  OPCKIT_CHECK_MSG(is_pow2(n), "FFT size " << n << " is not a power of two");
  OPCKIT_CHECK_MSG(n <= (std::size_t{1} << 31),
                   "FFT size " << n << " exceeds the planner's index range");
  rev_ = bit_reversal(n);
  tw_fwd_ = stage_twiddles(n, /*inverse=*/false);
  tw_inv_ = stage_twiddles(n, /*inverse=*/true);
  if (kind == FftKind::kReal && n >= 2) {
    const std::size_t half = n / 2;
    rev_half_ = bit_reversal(half);
    tw_fwd_half_ = stage_twiddles(half, /*inverse=*/false);
    tw_inv_half_ = stage_twiddles(half, /*inverse=*/true);
    split_.resize(half + 1);
    for (std::size_t k = 0; k <= half; ++k) {
      const double ang =
          -2.0 * std::numbers::pi * static_cast<double>(k) /
          static_cast<double>(n);
      split_[k] = Complex(std::cos(ang), std::sin(ang));
    }
  }
}

namespace {

constexpr std::size_t kLanes = FftPlan::kLanes;

/// Table-driven Cooley-Tukey core shared by the full-size and
/// half-size paths. Identical loop structure to the historic scalar
/// kernel; only the twiddles come from the plan instead of a serial
/// recurrence, which breaks the w *= wlen dependency chain.
void planned_fft(Complex* data, std::size_t n,
                 const std::uint32_t* rev, const Complex* tw) {
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const Complex* stage = tw + (len / 2 - 1);
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      Complex* lo = data + i;
      Complex* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        const Complex u = lo[k];
        const Complex v = hi[k] * stage[k];
        lo[k] = u + v;
        hi[k] = u - v;
      }
    }
  }
}

/// One planned_fft butterfly on kLanes vectors at once. The complex
/// product h·w is spelled out as the compiler lowers std::complex
/// multiplication, (hr·wr − hi·wi, hr·wi + hi·wr), so each lane rounds
/// exactly as planned_fft does; only the inf/NaN recovery call that the
/// complex operator adds (unreachable for finite data) is absent, and
/// the lane loop vectorizes.
inline void butterfly_lanes(double* __restrict lo_re,
                            double* __restrict lo_im,
                            double* __restrict hi_re,
                            double* __restrict hi_im, double wr,
                            double wi) {
  for (std::size_t j = 0; j < kLanes; ++j) {
    const double ur = lo_re[j];
    const double ui = lo_im[j];
    const double vr = hi_re[j] * wr - hi_im[j] * wi;
    const double vi = hi_re[j] * wi + hi_im[j] * wr;
    lo_re[j] = ur + vr;
    lo_im[j] = ui + vi;
    hi_re[j] = ur - vr;
    hi_im[j] = ui - vi;
  }
}

/// planned_fft over kLanes vectors in the FftPlan lane layout (element
/// i of lane j at re/im[i*kLanes + j]): the same permutation and the
/// same butterflies in the same order, every lane independent.
void planned_fft_lanes(double* re, double* im, std::size_t n,
                       const std::uint32_t* rev, const Complex* tw,
                       bool permute) {
  if (permute) {
    for (std::size_t i = 1; i < n; ++i) {
      const std::size_t j = rev[i];
      if (i < j) {
        std::swap_ranges(re + i * kLanes, re + (i + 1) * kLanes,
                         re + j * kLanes);
        std::swap_ranges(im + i * kLanes, im + (i + 1) * kLanes,
                         im + j * kLanes);
      }
    }
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const Complex* stage = tw + (len / 2 - 1);
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const std::size_t lo = (i + k) * kLanes;
        const std::size_t hi = lo + half * kLanes;
        butterfly_lanes(re + lo, im + lo, re + hi, im + hi,
                        stage[k].real(), stage[k].imag());
      }
    }
  }
}

/// forward_real's split for one bin in its operation order, with
/// zm = conj(zp) and w the split twiddle:
///   fe = 0.5·(zk + zm),  fo = (zk − zm)·(0 − 0.5i),  X = fe + w·fo.
/// The multiply by the constant (0, −0.5) is a full complex product
/// (a zero real part still takes part, for signed zeros).
inline void r2c_split(double zkr, double zki, double zpr, double zpi,
                      const Complex& w, double& xr, double& xi) {
  const double zmr = zpr;
  const double zmi = -zpi;
  const double fer = 0.5 * (zkr + zmr);
  const double fei = 0.5 * (zki + zmi);
  const double dr = zkr - zmr;
  const double di = zki - zmi;
  const double for_ = dr * 0.0 - di * -0.5;
  const double foi = dr * -0.5 + di * 0.0;
  xr = fer + (w.real() * for_ - w.imag() * foi);
  xi = fei + (w.real() * foi + w.imag() * for_);
}

/// inverse_real's split for one bin in its operation order, with
/// xm = conj(xp) and w the split twiddle:
///   fe2 = xk + xm,  fo2 = conj(w)·(xk − xm),  Z = fe2 + (0 + 1i)·fo2.
inline void c2r_split(double xkr, double xki, double xpr, double xpi,
                      const Complex& w, double& zr, double& zi) {
  const double xmr = xpr;
  const double xmi = -xpi;
  const double fe2r = xkr + xmr;
  const double fe2i = xki + xmi;
  const double dr = xkr - xmr;
  const double di = xki - xmi;
  const double cr = w.real();
  const double ci = -w.imag();
  const double fo2r = cr * dr - ci * di;
  const double fo2i = cr * di + ci * dr;
  zr = fe2r + (0.0 * fo2r - 1.0 * fo2i);
  zi = fe2i + (0.0 * fo2i + 1.0 * fo2r);
}

}  // namespace

void FftPlan::transform(Complex* data, FftDirection dir) const {
  planned_fft(data, n_, rev_.data(),
              dir == FftDirection::kForward ? tw_fwd_.data()
                                            : tw_inv_.data());
}

void FftPlan::transform_half(Complex* data, FftDirection dir) const {
  planned_fft(data, n_ / 2, rev_half_.data(),
              dir == FftDirection::kForward ? tw_fwd_half_.data()
                                            : tw_inv_half_.data());
}

void FftPlan::transform_lanes(double* re, double* im, FftDirection dir,
                              LaneOrder order) const {
  planned_fft_lanes(re, im, n_, rev_.data(),
                    dir == FftDirection::kForward ? tw_fwd_.data()
                                                  : tw_inv_.data(),
                    order == LaneOrder::kNatural);
}

void FftPlan::transform_half_lanes(double* re, double* im, FftDirection dir,
                                   LaneOrder order) const {
  planned_fft_lanes(re, im, n_ / 2, rev_half_.data(),
                    dir == FftDirection::kForward ? tw_fwd_half_.data()
                                                  : tw_inv_half_.data(),
                    order == LaneOrder::kNatural);
}

void FftPlan::forward_real(const double* in, Complex* out) const {
  OPCKIT_CHECK_MSG(kind_ == FftKind::kReal,
                   "forward_real needs a kReal plan (size " << n_ << ")");
  if (n_ == 1) {
    out[0] = Complex(in[0], 0.0);
    return;
  }
  const std::size_t half = n_ / 2;
  // Pack even/odd samples into one half-size complex transform:
  // z[j] = x[2j] + i*x[2j+1], Z = FFT_{n/2}(z). With Fe/Fo the FFTs of
  // the even/odd subsequences (both real, hence Hermitian):
  //   Fe[k] = (Z[k] + conj(Z[n/2-k])) / 2
  //   Fo[k] = (Z[k] - conj(Z[n/2-k])) / (2i)
  //   X[k]  = Fe[k] + e^{-2*pi*i*k/n} * Fo[k],  k in [0, n/2].
  std::vector<Complex> z(half);
  for (std::size_t j = 0; j < half; ++j) {
    z[j] = Complex(in[2 * j], in[2 * j + 1]);
  }
  transform_half(z.data(), FftDirection::kForward);
  for (std::size_t k = 0; k <= half; ++k) {
    const Complex zk = z[k % half];
    const Complex zm = std::conj(z[(half - k) % half]);
    const Complex fe = 0.5 * (zk + zm);
    const Complex fo = (zk - zm) * Complex(0.0, -0.5);
    out[k] = fe + split_[k] * fo;
  }
}

void FftPlan::inverse_real(const Complex* in, double* out) const {
  OPCKIT_CHECK_MSG(kind_ == FftKind::kReal,
                   "inverse_real needs a kReal plan (size " << n_ << ")");
  if (n_ == 1) {
    out[0] = in[0].real();
    return;
  }
  const std::size_t half = n_ / 2;
  // Invert the split: recover Z[k] (scaled by 2 so the unnormalized
  // half-size inverse yields n*x overall — callers divide by n, the
  // same convention as the complex path).
  //   2*Fe[k]          = X[k] + conj(X[n/2-k])
  //   2*e^{-..}*Fo[k]  = X[k] - conj(X[n/2-k])
  //   Z[k]             = Fe[k] + i*Fo[k]  (doubled here)
  std::vector<Complex> z(half);
  for (std::size_t k = 0; k < half; ++k) {
    const Complex xk = in[k];
    const Complex xm = std::conj(in[half - k]);
    const Complex fe2 = xk + xm;
    const Complex fo2 = std::conj(split_[k]) * (xk - xm);
    z[k] = fe2 + Complex(0.0, 1.0) * fo2;
  }
  transform_half(z.data(), FftDirection::kInverse);
  for (std::size_t j = 0; j < half; ++j) {
    out[2 * j] = z[j].real();
    out[2 * j + 1] = z[j].imag();
  }
}

void FftPlan::forward_real_lanes(const double* in, std::size_t stride,
                                 std::size_t count, double* re,
                                 double* im) const {
  OPCKIT_CHECK_MSG(kind_ == FftKind::kReal,
                   "forward_real needs a kReal plan (size " << n_ << ")");
  OPCKIT_CHECK(count <= kLanes);
  if (n_ == 1) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      re[l] = l < count ? in[l * stride] : 0.0;
      im[l] = 0.0;
    }
    return;
  }
  const std::size_t half = n_ / 2;
  // The forward_real pack, written straight into the bit-reversed slots
  // the half-size transform would permute it to.
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (l >= count) {
      for (std::size_t j = 0; j < half; ++j) {
        re[j * kLanes + l] = 0.0;
        im[j * kLanes + l] = 0.0;
      }
      continue;
    }
    const double* x = in + l * stride;
    for (std::size_t j = 0; j < half; ++j) {
      const std::size_t s = rev_half_[j] * kLanes + l;
      re[s] = x[2 * j];
      im[s] = x[2 * j + 1];
    }
  }
  transform_half_lanes(re, im, FftDirection::kForward,
                       LaneOrder::kBitReversed);
  // The split, in place. X[k] and X[half-k] read the same two
  // transformed values Z[k] and Z[(half-k) % half], so each pair is
  // computed from registers before either slot is overwritten; slot
  // `half` (past Z) receives X[half], which like X[0] reads Z[0] twice.
  for (std::size_t k = 0; k <= half / 2; ++k) {
    const std::size_t m = (half - k) % half;
    const std::size_t out_m = k == 0 ? half : m;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double zkr = re[k * kLanes + l], zki = im[k * kLanes + l];
      const double zmr = re[m * kLanes + l], zmi = im[m * kLanes + l];
      double xkr = 0.0, xki = 0.0, xmr = 0.0, xmi = 0.0;
      r2c_split(zkr, zki, zmr, zmi, split_[k], xkr, xki);
      if (out_m != k) r2c_split(zmr, zmi, zkr, zki, split_[out_m], xmr, xmi);
      re[k * kLanes + l] = xkr;
      im[k * kLanes + l] = xki;
      if (out_m != k) {
        re[out_m * kLanes + l] = xmr;
        im[out_m * kLanes + l] = xmi;
      }
    }
  }
}

void FftPlan::inverse_real_lanes(double* re, double* im, double* out,
                                 std::size_t stride,
                                 std::size_t count) const {
  OPCKIT_CHECK_MSG(kind_ == FftKind::kReal,
                   "inverse_real needs a kReal plan (size " << n_ << ")");
  OPCKIT_CHECK(count <= kLanes);
  if (n_ == 1) {
    for (std::size_t l = 0; l < count; ++l) out[l * stride] = re[l];
    return;
  }
  const std::size_t half = n_ / 2;
  // The inverse_real split, in place: Z[k] and Z[half-k] read the same
  // two bins X[k] and X[half-k], so each pair is computed before either
  // slot is overwritten. X[half] is read only by Z[0].
  for (std::size_t k = 0; k <= half / 2; ++k) {
    const std::size_t m = half - k;
    const bool pair = k != 0 && m != k;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double xkr = re[k * kLanes + l], xki = im[k * kLanes + l];
      const double xmr = re[m * kLanes + l], xmi = im[m * kLanes + l];
      double zkr = 0.0, zki = 0.0, zmr = 0.0, zmi = 0.0;
      c2r_split(xkr, xki, xmr, xmi, split_[k], zkr, zki);
      if (pair) c2r_split(xmr, xmi, xkr, xki, split_[m], zmr, zmi);
      re[k * kLanes + l] = zkr;
      im[k * kLanes + l] = zki;
      if (pair) {
        re[m * kLanes + l] = zmr;
        im[m * kLanes + l] = zmi;
      }
    }
  }
  transform_half_lanes(re, im, FftDirection::kInverse, LaneOrder::kNatural);
  for (std::size_t l = 0; l < count; ++l) {
    double* x = out + l * stride;
    for (std::size_t j = 0; j < half; ++j) {
      x[2 * j] = re[j * kLanes + l];
      x[2 * j + 1] = im[j * kLanes + l];
    }
  }
}

std::shared_ptr<const FftPlan> PlanCache::get(std::size_t n, FftKind kind) {
  return get_or_build({n, static_cast<int>(kind)}, [&] {
    const auto t0 = std::chrono::steady_clock::now();
    FftPlan plan(n, kind);
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    trace::metrics().counter(trace::metric::kLithoFftPlanBuilds).add();
    trace::metrics().gauge(trace::metric::kLithoFftPlanBuildMs).add(ms);
    return plan;
  });
}

Fft2d::Fft2d(std::size_t nx, std::size_t ny)
    : nx_(nx),
      ny_(ny),
      // Rows get a kReal plan so one cached object serves both the
      // complex and the r2c row passes; columns only ever transform
      // complex data.
      row_(PlanCache::instance().get(nx, FftKind::kReal)),
      col_(PlanCache::instance().get(ny, FftKind::kComplex)) {}

void Fft2d::row_pass(Complex* data, FftDirection dir) const {
  std::vector<double> re(nx_ * kLanes, 0.0), im(nx_ * kLanes, 0.0);
  for (std::size_t y0 = 0; y0 < ny_; y0 += kLanes) {
    const std::size_t b = std::min(kLanes, ny_ - y0);
    if (b < kLanes) {
      std::fill(re.begin(), re.end(), 0.0);
      std::fill(im.begin(), im.end(), 0.0);
    }
    // Transpose b rows into lanes, each element straight to its
    // bit-reversed slot.
    for (std::size_t l = 0; l < b; ++l) {
      const Complex* row = data + (y0 + l) * nx_;
      for (std::size_t i = 0; i < nx_; ++i) {
        const std::size_t s = row_->bit_reversed(i) * kLanes + l;
        re[s] = row[i].real();
        im[s] = row[i].imag();
      }
    }
    row_->transform_lanes(re.data(), im.data(), dir,
                          FftPlan::LaneOrder::kBitReversed);
    for (std::size_t l = 0; l < b; ++l) {
      Complex* row = data + (y0 + l) * nx_;
      for (std::size_t i = 0; i < nx_; ++i) {
        row[i] = Complex(re[i * kLanes + l], im[i * kLanes + l]);
      }
    }
  }
}

void Fft2d::column_pass(const Complex* src, std::size_t src_stride,
                        Complex* dst, std::size_t dst_stride,
                        std::size_t cols, FftDirection dir) const {
  // kLanes adjacent columns are one lane batch: row y of the block is a
  // contiguous strip of the source row, stored whole at the row's
  // bit-reversed slot.
  std::vector<double> re(ny_ * kLanes, 0.0), im(ny_ * kLanes, 0.0);
  for (std::size_t x0 = 0; x0 < cols; x0 += kLanes) {
    const std::size_t b = std::min(kLanes, cols - x0);
    if (b < kLanes) {
      std::fill(re.begin(), re.end(), 0.0);
      std::fill(im.begin(), im.end(), 0.0);
    }
    for (std::size_t y = 0; y < ny_; ++y) {
      const Complex* strip = src + y * src_stride + x0;
      const std::size_t s = col_->bit_reversed(y) * kLanes;
      for (std::size_t j = 0; j < b; ++j) {
        re[s + j] = strip[j].real();
        im[s + j] = strip[j].imag();
      }
    }
    col_->transform_lanes(re.data(), im.data(), dir,
                          FftPlan::LaneOrder::kBitReversed);
    for (std::size_t y = 0; y < ny_; ++y) {
      Complex* strip = dst + y * dst_stride + x0;
      for (std::size_t j = 0; j < b; ++j) {
        strip[j] = Complex(re[y * kLanes + j], im[y * kLanes + j]);
      }
    }
  }
}

void Fft2d::forward(std::vector<Complex>& data) const {
  OPCKIT_CHECK(data.size() == nx_ * ny_);
  trace::metrics().counter(trace::metric::kLithoFft2dTransforms).add();
  row_pass(data.data(), FftDirection::kForward);
  column_pass(data.data(), nx_, data.data(), nx_, nx_, FftDirection::kForward);
}

void Fft2d::inverse(std::vector<Complex>& data) const {
  OPCKIT_CHECK(data.size() == nx_ * ny_);
  trace::metrics().counter(trace::metric::kLithoFft2dTransforms).add();
  row_pass(data.data(), FftDirection::kInverse);
  column_pass(data.data(), nx_, data.data(), nx_, nx_, FftDirection::kInverse);
  const double inv = 1.0 / static_cast<double>(nx_ * ny_);
  for (auto& v : data) v *= inv;
}

void Fft2d::r2c_rows(
    const std::function<const double*(std::size_t, std::size_t)>& block,
    std::size_t cols, Complex* dst, std::size_t dst_stride) const {
  const std::size_t hx = nx_ / 2 + 1;
  std::vector<double> re(hx * kLanes), im(hx * kLanes);
  for (std::size_t y0 = 0; y0 < ny_; y0 += kLanes) {
    const std::size_t b = std::min(kLanes, ny_ - y0);
    row_->forward_real_lanes(block(y0, b), nx_, b, re.data(), im.data());
    for (std::size_t l = 0; l < b; ++l) {
      Complex* row = dst + (y0 + l) * dst_stride;
      for (std::size_t kx = 0; kx < cols; ++kx) {
        row[kx] = Complex(re[kx * kLanes + l], im[kx * kLanes + l]);
      }
    }
  }
}

void Fft2d::c2r_rows(const Complex* src, std::size_t stride, std::size_t cols,
                     std::vector<double>& out) const {
  out.resize(nx_ * ny_);
  const std::size_t hx = nx_ / 2 + 1;
  // The lane row c2r consumes its buffers, so bins past `cols` (and
  // the lanes of a partial block) are zeroed again for every block.
  std::vector<double> re(hx * kLanes, 0.0), im(hx * kLanes, 0.0);
  for (std::size_t y0 = 0; y0 < ny_; y0 += kLanes) {
    const std::size_t b = std::min(kLanes, ny_ - y0);
    if (b < kLanes || cols < hx) {
      std::fill(re.begin(), re.end(), 0.0);
      std::fill(im.begin(), im.end(), 0.0);
    }
    for (std::size_t l = 0; l < b; ++l) {
      const Complex* row = src + (y0 + l) * stride;
      for (std::size_t kx = 0; kx < cols; ++kx) {
        re[kx * kLanes + l] = row[kx].real();
        im[kx * kLanes + l] = row[kx].imag();
      }
    }
    row_->inverse_real_lanes(re.data(), im.data(), out.data() + y0 * nx_,
                             nx_, b);
  }
  const double inv = 1.0 / static_cast<double>(nx_ * ny_);
  for (auto& v : out) v *= inv;
}

void Fft2d::forward_real(std::span<const double> in,
                         std::vector<Complex>& out) const {
  OPCKIT_CHECK(in.size() == nx_ * ny_);
  trace::metrics().counter(trace::metric::kLithoFftR2cTransforms).add();
  out.resize(nx_ * ny_);
  const std::size_t hx = nx_ / 2 + 1;
  // r2c rows land in the kx <= nx/2 half of `out`; the column pass runs
  // there in place.
  r2c_rows([&](std::size_t y0, std::size_t) { return in.data() + y0 * nx_; },
           hx, out.data(), nx_);
  column_pass(out.data(), nx_, out.data(), nx_, hx, FftDirection::kForward);
  // Fill the rest from the 2-D Hermitian symmetry
  // F[nx-kx, ny-ky] = conj(F[kx, ky]); every source bin is in the
  // computed half (nx - kx < hx).
  for (std::size_t y = 0; y < ny_; ++y) {
    Complex* dst = out.data() + y * nx_;
    const Complex* mirror = out.data() + ((ny_ - y) % ny_) * nx_;
    for (std::size_t kx = hx; kx < nx_; ++kx) {
      dst[kx] = std::conj(mirror[nx_ - kx]);
    }
  }
}

void Fft2d::forward_real_columns(std::span<const double> in, std::size_t cols,
                                 std::vector<Complex>& out) const {
  OPCKIT_CHECK(in.size() == nx_ * ny_);
  forward_real_columns(
      [&](std::size_t y, double* row) {
        std::copy_n(in.data() + y * nx_, nx_, row);
      },
      cols, out);
}

void Fft2d::forward_real_columns(const RowSource& rows, std::size_t cols,
                                 std::vector<Complex>& out) const {
  OPCKIT_CHECK_MSG(cols >= 1 && cols <= nx_ / 2 + 1,
                   "r2c column bound " << cols << " out of range for nx="
                                       << nx_);
  trace::metrics().counter(trace::metric::kLithoFftR2cTransforms).add();
  out.resize(cols * ny_);
  std::vector<double> strip(kLanes * nx_);
  r2c_rows(
      [&](std::size_t y0, std::size_t b) {
        for (std::size_t l = 0; l < b; ++l) {
          rows(y0 + l, strip.data() + l * nx_);
        }
        return strip.data();
      },
      cols, out.data(), cols);
  column_pass(out.data(), cols, out.data(), cols, cols,
              FftDirection::kForward);
}

void Fft2d::inverse_real(std::span<const Complex> in,
                         std::vector<double>& out) const {
  OPCKIT_CHECK(in.size() == nx_ * ny_);
  trace::metrics().counter(trace::metric::kLithoFftC2rTransforms).add();
  const std::size_t hx = nx_ / 2 + 1;
  std::vector<Complex> half(hx * ny_);
  column_pass(in.data(), nx_, half.data(), hx, hx, FftDirection::kInverse);
  c2r_rows(half.data(), hx, hx, out);
}

void Fft2d::inverse_real_columns(std::span<Complex> in, std::size_t cols,
                                 std::vector<double>& out) const {
  OPCKIT_CHECK_MSG(cols >= 1 && cols <= nx_ / 2 + 1,
                   "c2r column bound " << cols << " out of range for nx="
                                       << nx_);
  OPCKIT_CHECK(in.size() == cols * ny_);
  trace::metrics().counter(trace::metric::kLithoFftC2rTransforms).add();
  // The columns past the bound are zero, and so is their transform:
  // skipping them is exact.
  column_pass(in.data(), cols, in.data(), cols, cols, FftDirection::kInverse);
  c2r_rows(in.data(), cols, cols, out);
}

SparseInverseBatch::SparseInverseBatch(
    const Fft2d& plan, std::span<const std::uint32_t> support)
    : plan_(plan), support_(support.begin(), support.end()) {
  const std::size_t nx = plan_.nx();
  const std::size_t n = nx * plan_.ny();
  constexpr std::uint32_t kNone = 0xffffffffu;
  std::vector<std::uint32_t> row_slot(plan_.ny(), kNone);
  row_lane_.reserve(support_.size());
  for (std::size_t j = 0; j < support_.size(); ++j) {
    const std::uint32_t idx = support_[j];
    OPCKIT_CHECK_MSG(idx < n, "support index " << idx << " out of frame");
    OPCKIT_CHECK_MSG(j == 0 || support_[j - 1] < idx,
                     "support indices must be strictly ascending");
    const std::size_t ky = idx / nx;
    const std::size_t kx = idx % nx;
    if (row_slot[ky] == kNone) {
      row_slot[ky] = static_cast<std::uint32_t>(rows_.size());
      rows_.push_back(static_cast<std::uint32_t>(ky));
    }
    // Touched row s is lane s % kLanes of lane group s / kLanes; its
    // bin kx goes straight to kx's bit-reversed slot.
    const std::size_t s = row_slot[ky];
    row_lane_.push_back((s / kLanes) * nx * kLanes +
                        plan_.row_plan().bit_reversed(kx) * kLanes +
                        s % kLanes);
  }
  col_slot_.reserve(rows_.size());
  for (const std::uint32_t ky : rows_) {
    col_slot_.push_back(plan_.col_plan().bit_reversed(ky) * kLanes);
  }
}

std::vector<Complex> SparseInverseBatch::gather(
    const Complex* spectrum) const {
  std::vector<Complex> values(support_.size());
  for (std::size_t j = 0; j < support_.size(); ++j) {
    values[j] = spectrum[support_[j]];
  }
  return values;
}

void SparseInverseBatch::run(std::span<const Complex> values,
                             std::span<const Member> members,
                             const Epilogue& epilogue) const {
  OPCKIT_CHECK(values.size() == support_.size());
  for (const Member& m : members) {
    OPCKIT_CHECK(m.factors.size() == support_.size());
  }
  const std::size_t nx = plan_.nx();
  const std::size_t ny = plan_.ny();
  const std::size_t nr = rows_.size();
  const std::size_t row_size = (nr + kLanes - 1) / kLanes * nx * kLanes;
  const FftPlan& row_plan = plan_.row_plan();
  const FftPlan& col_plan = plan_.col_plan();
  const std::size_t blocks = (nx + kLanes - 1) / kLanes;
  std::vector<double> rows_re, rows_im, re, im;  // reused by every member
  for (std::size_t m = 0; m < members.size(); ++m) {
    // Pruned row pass: only the touched rows exist, kLanes per lane
    // group, already bit-reversed. Rows without support transform to
    // exactly zero, so skipping them is bit-exact.
    rows_re.assign(row_size, 0.0);
    rows_im.assign(row_size, 0.0);
    const std::span<const Complex> factors = members[m].factors;
    for (std::size_t j = 0; j < support_.size(); ++j) {
      const Complex v = values[j] * factors[j];
      rows_re[row_lane_[j]] = v.real();
      rows_im[row_lane_[j]] = v.imag();
    }
    for (std::size_t g = 0; g < row_size; g += nx * kLanes) {
      row_plan.transform_lanes(rows_re.data() + g, rows_im.data() + g,
                               FftDirection::kInverse,
                               FftPlan::LaneOrder::kBitReversed);
    }

    // Column pass, one block of kLanes columns at a time: the block is
    // loaded from the touched rows only (into their bit-reversed slots;
    // every other slot is zero), transformed, and handed to the
    // epilogue, so each pixel adds the members in ascending order.
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      const std::size_t x0 = blk * kLanes;
      const std::size_t b = std::min(kLanes, nx - x0);
      re.assign(ny * kLanes, 0.0);
      im.assign(ny * kLanes, 0.0);
      const double* src_re = rows_re.data() + x0 * kLanes;
      const double* src_im = rows_im.data() + x0 * kLanes;
      for (std::size_t s = 0; s < nr; ++s) {
        // Row s, columns x0 + j: lane s % kLanes of its group's
        // elements x0 + j.
        const std::size_t at = (s / kLanes) * nx * kLanes + s % kLanes;
        double* dst_re = re.data() + col_slot_[s];
        double* dst_im = im.data() + col_slot_[s];
        for (std::size_t j = 0; j < b; ++j) {
          dst_re[j] = src_re[at + j * kLanes];
          dst_im[j] = src_im[at + j * kLanes];
        }
      }
      col_plan.transform_lanes(re.data(), im.data(), FftDirection::kInverse,
                               FftPlan::LaneOrder::kBitReversed);
      epilogue(m, x0, b, re.data(), im.data());
    }
  }
}

void SparseInverseBatch::accumulate_intensity(const Complex* spectrum,
                                              std::span<const Member> members,
                                              std::span<double> acc) const {
  accumulate_intensity(gather(spectrum), members, acc);
}

void SparseInverseBatch::accumulate_intensity(std::span<const Complex> values,
                                              std::span<const Member> members,
                                              std::span<double> acc) const {
  const std::size_t nx = plan_.nx();
  const std::size_t ny = plan_.ny();
  OPCKIT_CHECK(acc.size() == nx * ny);
  trace::metrics()
      .counter(trace::metric::kLithoFftBatchedTransforms)
      .add(members.size());
  trace::metrics()
      .counter(trace::metric::kLithoFftRowsPruned)
      .add(members.size() * rows_pruned());
  if (members.empty()) return;
  // Epilogue: acc += w·|v/(nx·ny)|², one member at a time in ascending
  // order — the complex image and the member's intensity are never
  // stored.
  const double inv = 1.0 / static_cast<double>(nx * ny);
  run(values, members,
      [&](std::size_t m, std::size_t x0, std::size_t b, const double* re,
          const double* im) {
        const double w = members[m].weight;
        for (std::size_t y = 0; y < ny; ++y) {
          double* dst = acc.data() + y * nx + x0;
          for (std::size_t j = 0; j < b; ++j) {
            const double vr = re[y * kLanes + j] * inv;
            const double vi = im[y * kLanes + j] * inv;
            dst[j] += w * (vr * vr + vi * vi);
          }
        }
      });
}

void SparseInverseBatch::inverse_mag2(const Complex* spectrum,
                                      std::span<const Complex> factors,
                                      std::vector<double>& out) const {
  out.assign(plan_.nx() * plan_.ny(), 0.0);
  const Member one{factors, 1.0};
  accumulate_intensity(spectrum, std::span<const Member>(&one, 1), out);
}

void SparseInverseBatch::inverse_field(const Complex* spectrum,
                                       std::span<const Complex> factors,
                                       std::vector<Complex>& out) const {
  const std::size_t nx = plan_.nx();
  const std::size_t ny = plan_.ny();
  out.resize(nx * ny);
  trace::metrics().counter(trace::metric::kLithoFftBatchedTransforms).add();
  trace::metrics()
      .counter(trace::metric::kLithoFftRowsPruned)
      .add(rows_pruned());
  // Same driver; the epilogue writes the normalized complex value
  // instead of fusing |·|².
  const double inv = 1.0 / static_cast<double>(nx * ny);
  const Member one{factors, 1.0};
  run(gather(spectrum), std::span<const Member>(&one, 1),
      [&](std::size_t, std::size_t x0, std::size_t b, const double* re,
          const double* im) {
        for (std::size_t y = 0; y < ny; ++y) {
          Complex* dst = out.data() + y * nx + x0;
          for (std::size_t j = 0; j < b; ++j) {
            dst[j] = Complex(re[y * kLanes + j] * inv,
                             im[y * kLanes + j] * inv);
          }
        }
      });
}

}  // namespace opckit::litho
