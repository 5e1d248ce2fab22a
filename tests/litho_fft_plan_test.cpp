/// Property suite for the planned FFT engine: bit-exact parity of the
/// planned complex path against the historic recurrence kernel, r2c/c2r
/// round trips and Hermitian invariants over random sizes and seeds,
/// SparseInverseBatch parity against the dense inverse, and PlanCache
/// reuse accounting under concurrent requests (the TSan target for the
/// jobs=8 flow's shared-plan access pattern). The lane-kernel section
/// pins every lane-batched pass to the scalar kernels bit for bit.
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "litho/fft.h"
#include "litho/image.h"
#include "litho/resist.h"
#include "trace/metrics.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace opckit::litho {
namespace {

/// Verbatim copy of the pre-plan scalar kernel (serial w *= wlen
/// recurrence). The planned complex path must reproduce it bit for bit
/// — that is the guarantee that lets the imaging engines switch to
/// plans without moving flow output.
void legacy_fft(std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                       static_cast<double>(len);
    const Complex wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (auto& v : data) v *= inv;
  }
}

std::vector<Complex> random_complex(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return v;
}

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

TEST(FftPlan, ComplexParityWithLegacyIsBitExact) {
  for (std::size_t n : {1u, 2u, 4u, 8u, 32u, 128u, 512u}) {
    for (std::uint64_t seed : {3u, 17u, 99u}) {
      const FftPlan plan(n, FftKind::kComplex);
      for (const bool inverse : {false, true}) {
        std::vector<Complex> planned = random_complex(n, seed);
        std::vector<Complex> legacy = planned;
        plan.transform(planned.data(), inverse ? FftDirection::kInverse
                                               : FftDirection::kForward);
        legacy_fft(legacy, inverse);
        if (inverse) {
          // FftPlan primitives are unnormalized; apply the same final
          // scaling the legacy kernel folds in.
          const double inv = 1.0 / static_cast<double>(n);
          for (auto& c : planned) c *= inv;
        }
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(planned[i].real(), legacy[i].real())
              << "n=" << n << " seed=" << seed << " bin " << i;
          EXPECT_EQ(planned[i].imag(), legacy[i].imag())
              << "n=" << n << " seed=" << seed << " bin " << i;
        }
      }
    }
  }
}

TEST(FftPlan, RealForwardMatchesComplexForward) {
  for (std::size_t n : {1u, 2u, 4u, 16u, 64u, 256u}) {
    for (std::uint64_t seed : {7u, 21u}) {
      const std::vector<double> x = random_real(n, seed);
      std::vector<Complex> ref(n);
      for (std::size_t i = 0; i < n; ++i) ref[i] = x[i];
      const FftPlan cplan(n, FftKind::kComplex);
      cplan.transform(ref.data(), FftDirection::kForward);

      const FftPlan rplan(n, FftKind::kReal);
      std::vector<Complex> half(n / 2 + 1);
      rplan.forward_real(x.data(), half.data());
      for (std::size_t k = 0; k <= n / 2; ++k) {
        EXPECT_NEAR(half[k].real(), ref[k].real(), 1e-12)
            << "n=" << n << " seed=" << seed << " bin " << k;
        EXPECT_NEAR(half[k].imag(), ref[k].imag(), 1e-12)
            << "n=" << n << " seed=" << seed << " bin " << k;
      }
    }
  }
}

TEST(FftPlan, RealRoundTripRecoversInput) {
  for (std::size_t n : {1u, 2u, 8u, 64u, 1024u}) {
    for (std::uint64_t seed : {1u, 13u, 42u}) {
      const std::vector<double> x = random_real(n, seed);
      const FftPlan plan(n, FftKind::kReal);
      std::vector<Complex> half(n / 2 + 1);
      std::vector<double> back(n);
      plan.forward_real(x.data(), half.data());
      plan.inverse_real(half.data(), back.data());
      const double inv = 1.0 / static_cast<double>(n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(back[i] * inv, x[i], 1e-12)
            << "n=" << n << " seed=" << seed << " sample " << i;
      }
    }
  }
}

TEST(FftPlan, RealPathRequiresRealPlan) {
  const FftPlan plan(8, FftKind::kComplex);
  std::vector<double> x(8, 1.0);
  std::vector<Complex> half(5);
  std::vector<double> back(8);
  EXPECT_THROW(plan.forward_real(x.data(), half.data()), util::CheckError);
  EXPECT_THROW(plan.inverse_real(half.data(), back.data()), util::CheckError);
}

TEST(FftPlan, RejectsNonPow2) {
  EXPECT_THROW(FftPlan(0, FftKind::kComplex), util::CheckError);
  EXPECT_THROW(FftPlan(12, FftKind::kComplex), util::CheckError);
  EXPECT_THROW(FftPlan(12, FftKind::kReal), util::CheckError);
}

TEST(FftPlan, DegenerateSizeOne) {
  const FftPlan plan(1, FftKind::kReal);
  Complex c{3.5, -1.0};
  plan.transform(&c, FftDirection::kForward);
  EXPECT_EQ(c, (Complex{3.5, -1.0}));  // length-1 transform is identity
  const double x = 2.25;
  Complex spec;
  plan.forward_real(&x, &spec);
  EXPECT_EQ(spec, (Complex{2.25, 0.0}));
  double back = 0.0;
  plan.inverse_real(&spec, &back);
  EXPECT_EQ(back, 2.25);
}

TEST(FftHelpers, NextPow2OverflowIsCheckedNotInfinite) {
  constexpr std::size_t kTop = std::size_t{1} << 63;
  EXPECT_EQ(next_pow2(kTop), kTop);
  EXPECT_EQ(next_pow2(kTop - 1), kTop);
  // The old loop shifted its accumulator into 0 and spun forever here.
  EXPECT_THROW(next_pow2(kTop + 1), util::CheckError);
}

TEST(FftHelpers, FreqRejectsOutOfRangeBin) {
  EXPECT_THROW(fft_freq(0, 0), util::CheckError);
  EXPECT_THROW(fft_freq(8, 8), util::CheckError);
  EXPECT_DOUBLE_EQ(fft_freq(0, 1), 0.0);
}

TEST(Fft2dPlan, ComplexRoundTripAndLegacyParity) {
  const std::size_t nx = 32, ny = 16;
  const Fft2d plan(nx, ny);
  std::vector<Complex> planned = random_complex(nx * ny, 77);
  std::vector<Complex> ref = planned;
  plan.forward(planned);
  // Legacy 2-D: rows then strided columns, same kernels.
  for (std::size_t y = 0; y < ny; ++y) {
    std::vector<Complex> row(ref.begin() + static_cast<std::ptrdiff_t>(y * nx),
                             ref.begin() +
                                 static_cast<std::ptrdiff_t>((y + 1) * nx));
    legacy_fft(row, false);
    std::copy(row.begin(), row.end(),
              ref.begin() + static_cast<std::ptrdiff_t>(y * nx));
  }
  for (std::size_t x = 0; x < nx; ++x) {
    std::vector<Complex> col(ny);
    for (std::size_t y = 0; y < ny; ++y) col[y] = ref[y * nx + x];
    legacy_fft(col, false);
    for (std::size_t y = 0; y < ny; ++y) ref[y * nx + x] = col[y];
  }
  for (std::size_t i = 0; i < planned.size(); ++i) {
    EXPECT_EQ(planned[i], ref[i]) << "bin " << i;
  }
  plan.inverse(planned);
  const std::vector<Complex> orig = random_complex(nx * ny, 77);
  for (std::size_t i = 0; i < planned.size(); ++i) {
    EXPECT_NEAR(planned[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(planned[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft2dPlan, RealForwardIsHermitianAndMatchesComplex) {
  for (const auto& [nx, ny] :
       {std::pair<std::size_t, std::size_t>{16, 16}, {32, 8}, {4, 64}}) {
    const std::vector<double> img = random_real(nx * ny, 31);
    const Fft2d plan(nx, ny);
    std::vector<Complex> spec;
    plan.forward_real(img, spec);

    std::vector<Complex> ref(nx * ny);
    for (std::size_t i = 0; i < ref.size(); ++i) ref[i] = img[i];
    plan.forward(ref);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(spec[i].real(), ref[i].real(), 1e-11) << "bin " << i;
      EXPECT_NEAR(spec[i].imag(), ref[i].imag(), 1e-11) << "bin " << i;
    }
    // Hermitian invariant over the FULL layout, mirror bins included:
    // F[-kx, -ky] = conj(F[kx, ky]) with wrap-around indexing.
    for (std::size_t ky = 0; ky < ny; ++ky) {
      for (std::size_t kx = 0; kx < nx; ++kx) {
        const Complex f = spec[ky * nx + kx];
        const Complex m =
            spec[((ny - ky) % ny) * nx + (nx - kx) % nx];
        EXPECT_NEAR(m.real(), f.real(), 1e-11);
        EXPECT_NEAR(m.imag(), -f.imag(), 1e-11);
      }
    }
  }
}

TEST(Fft2dPlan, RealRoundTripIgnoresStaleMirrorHalf) {
  const std::size_t nx = 32, ny = 32;
  const std::vector<double> img = random_real(nx * ny, 55);
  const Fft2d plan(nx, ny);
  std::vector<Complex> spec;
  plan.forward_real(img, spec);
  // inverse_real documents that only the kx <= nx/2 half is read:
  // clobber the mirror half to prove it.
  for (std::size_t ky = 0; ky < ny; ++ky) {
    for (std::size_t kx = nx / 2 + 1; kx < nx; ++kx) {
      spec[ky * nx + kx] = Complex{1e9, -1e9};
    }
  }
  std::vector<double> back;
  plan.inverse_real(spec, back);
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_NEAR(back[i], img[i], 1e-12) << "sample " << i;
  }
}

TEST(SparseBatch, MatchesDenseInverseBitExact) {
  const std::size_t nx = 32, ny = 32;
  const Fft2d plan(nx, ny);
  const std::vector<Complex> spectrum = random_complex(nx * ny, 123);

  // A pupil-like support: a disk of bins around DC (wrap-around), the
  // exact shape the imaging engines bind.
  std::vector<std::uint32_t> support;
  for (std::size_t ky = 0; ky < ny; ++ky) {
    const double fy = fft_freq(ky, ny);
    for (std::size_t kx = 0; kx < nx; ++kx) {
      const double fx = fft_freq(kx, nx);
      if (fx * fx + fy * fy <= 0.1) {
        support.push_back(static_cast<std::uint32_t>(ky * nx + kx));
      }
    }
  }
  ASSERT_FALSE(support.empty());
  util::Rng rng(9);
  std::vector<Complex> factors(support.size());
  for (auto& f : factors) f = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};

  const SparseInverseBatch batch(plan, support);
  EXPECT_EQ(batch.support_rows() + batch.rows_pruned(), ny);
  EXPECT_GT(batch.rows_pruned(), 0u);  // the disk must not touch all rows
  std::vector<double> pruned;
  batch.inverse_mag2(spectrum.data(), factors, pruned);

  // Dense reference: scatter into a full field, legacy normalized
  // inverse, then |.|^2 — the pre-plan engine's exact sequence.
  std::vector<Complex> field(nx * ny, Complex{0.0, 0.0});
  for (std::size_t j = 0; j < support.size(); ++j) {
    field[support[j]] = spectrum[support[j]] * factors[j];
  }
  plan.inverse(field);
  for (std::size_t i = 0; i < field.size(); ++i) {
    EXPECT_EQ(pruned[i], std::norm(field[i])) << "pixel " << i;
  }
}

TEST(SparseBatch, ValidatesSupportIndices) {
  const Fft2d plan(8, 8);
  const std::vector<std::uint32_t> out_of_range = {3, 64};
  EXPECT_THROW(SparseInverseBatch(plan, out_of_range), util::CheckError);
  const std::vector<std::uint32_t> not_ascending = {5, 5};
  EXPECT_THROW(SparseInverseBatch(plan, not_ascending), util::CheckError);
  const std::vector<std::uint32_t> descending = {9, 2};
  EXPECT_THROW(SparseInverseBatch(plan, descending), util::CheckError);
}

TEST(SparseBatch, InverseFieldMagnitudeMatchesInverseMag2) {
  // |inverse_field|² must be bit-identical to inverse_mag2: the ILT
  // adjoint consumes the complex fields, the imaging loop the fused
  // magnitudes, and both must describe the same image.
  const std::size_t nx = 32, ny = 16;
  const Fft2d plan(nx, ny);
  std::vector<std::uint32_t> support;
  for (std::uint32_t i = 0; i < nx * ny; i += 7) support.push_back(i);
  const SparseInverseBatch batch(plan, support);
  const auto spectrum = random_complex(nx * ny, 77);
  const auto factors = random_complex(support.size(), 78);

  std::vector<double> mag2;
  batch.inverse_mag2(spectrum.data(), factors, mag2);
  std::vector<Complex> field;
  batch.inverse_field(spectrum.data(), factors, field);
  ASSERT_EQ(field.size(), mag2.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    EXPECT_EQ(std::norm(field[i]), mag2[i]) << "pixel " << i;
  }

  // And the field itself matches the dense inverse of the masked
  // spectrum.
  std::vector<Complex> dense(nx * ny, Complex{0.0, 0.0});
  for (std::size_t j = 0; j < support.size(); ++j) {
    dense[support[j]] = spectrum[support[j]] * factors[j];
  }
  plan.inverse(dense);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(field[i].real(), dense[i].real()) << "pixel " << i;
    EXPECT_EQ(field[i].imag(), dense[i].imag()) << "pixel " << i;
  }
}

/// Dense-complex reference blur: full forward, transfer applied to
/// EVERY bin (mirror half included), full inverse. The production
/// r2c path (litho::gaussian_blur) touches only the kx <= nx/2 half
/// and leaves the mirror stale — the layout contract on
/// Fft2d::forward_real says that must not change the result.
Image blur_dense_reference(const Image& img, double sigma_nm) {
  const Frame& f = img.frame();
  std::vector<Complex> spec(f.nx * f.ny);
  for (std::size_t i = 0; i < spec.size(); ++i) spec[i] = img.values()[i];
  const Fft2d plan(f.nx, f.ny);
  plan.forward(spec);
  const double c =
      -2.0 * std::numbers::pi * std::numbers::pi * sigma_nm * sigma_nm;
  for (std::size_t ky = 0; ky < f.ny; ++ky) {
    const double fy = fft_freq(ky, f.ny) / f.pixel_nm;
    for (std::size_t kx = 0; kx < f.nx; ++kx) {
      const double fx = fft_freq(kx, f.nx) / f.pixel_nm;
      spec[ky * f.nx + kx] *= std::exp(c * (fx * fx + fy * fy));
    }
  }
  plan.inverse(spec);
  Image out(f);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    out.values()[i] = spec[i].real();
  }
  return out;
}

TEST(R2cLayoutContract, HalfSpectrumBlurMatchesDenseOnNonSquareFrames) {
  // Non-square on both orientations (nx > ny and nx < ny): a stride or
  // mirror-indexing mistake in the half-spectrum layout shows up only
  // when nx != ny.
  struct Shape { std::size_t nx, ny; };
  for (const Shape s : {Shape{64, 16}, Shape{16, 64}, Shape{32, 8}}) {
    Frame f;
    f.pixel_nm = 8.0;
    f.nx = s.nx;
    f.ny = s.ny;
    Image img(f);
    util::Rng rng(s.nx * 1000 + s.ny);
    for (auto& v : img.values()) v = rng.uniform(0, 1);
    for (const double sigma : {10.0, 25.0}) {
      const Image got = gaussian_blur(img, sigma);
      const Image want = blur_dense_reference(img, sigma);
      for (std::size_t i = 0; i < got.values().size(); ++i) {
        EXPECT_NEAR(got.values()[i], want.values()[i], 1e-12)
            << s.nx << "x" << s.ny << " sigma=" << sigma << " pixel " << i;
      }
    }
  }
}

// ---- lane kernels: every lane-batched pass against the scalar kernels --
//
// Bit patterns are compared (EXPECT_EQ on the raw 64 bits), so even a
// signed-zero difference fails. The scalar references are the legacy
// kernel above where its normalization matches, and otherwise the scalar
// FftPlan methods (themselves pinned to the legacy kernel by the tests
// above) composed exactly as the 2-D engine composed them before it
// moved to lanes.

constexpr std::size_t kL = FftPlan::kLanes;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_bits(const std::vector<Complex>& got,
                      const std::vector<Complex>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i].real()), bits(want[i].real())) << what << " @" << i;
    EXPECT_EQ(bits(got[i].imag()), bits(want[i].imag())) << what << " @" << i;
  }
}

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i]), bits(want[i])) << what << " @" << i;
  }
}

struct Shape {
  std::size_t nx, ny;
};

/// Frames with a side below kLanes, non-square frames, and r2c column
/// counts nx/2+1 that are not multiples of kLanes (3, 5, 129).
const std::vector<Shape> kLaneShapes = {
    {2, 4}, {4, 2}, {1, 8}, {8, 1}, {1, 1}, {4, 16}, {8, 4},
    {32, 16}, {16, 64}, {256, 8}, {64, 32}};

/// Scalar 2-D complex transform: rows, then columns, through
/// FftPlan::transform; the inverse scales by 1/(nx*ny) once at the end.
std::vector<Complex> scalar_2d(std::vector<Complex> data, std::size_t nx,
                               std::size_t ny, FftDirection dir) {
  const FftPlan rows(nx, FftKind::kComplex);
  const FftPlan cols(ny, FftKind::kComplex);
  for (std::size_t y = 0; y < ny; ++y) {
    rows.transform(data.data() + y * nx, dir);
  }
  std::vector<Complex> col(ny);
  for (std::size_t x = 0; x < nx; ++x) {
    for (std::size_t y = 0; y < ny; ++y) col[y] = data[y * nx + x];
    cols.transform(col.data(), dir);
    for (std::size_t y = 0; y < ny; ++y) data[y * nx + x] = col[y];
  }
  if (dir == FftDirection::kInverse) {
    const double inv = 1.0 / static_cast<double>(nx * ny);
    for (auto& v : data) v *= inv;
  }
  return data;
}

TEST(FftLanes, TransformMatchesLegacyPerLaneBitExact) {
  for (std::size_t n : {1u, 2u, 4u, 8u, 32u, 128u, 512u}) {
    const FftPlan plan(n, FftKind::kReal);
    for (const bool inverse : {false, true}) {
      for (const auto order :
           {FftPlan::LaneOrder::kNatural, FftPlan::LaneOrder::kBitReversed}) {
        std::vector<std::vector<Complex>> lanes(kL);
        std::vector<double> re(n * kL), im(n * kL);
        for (std::size_t l = 0; l < kL; ++l) {
          lanes[l] = random_complex(n, 1000 + 17 * l + n);
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t slot =
                order == FftPlan::LaneOrder::kNatural ? i
                                                      : plan.bit_reversed(i);
            re[slot * kL + l] = lanes[l][i].real();
            im[slot * kL + l] = lanes[l][i].imag();
          }
        }
        plan.transform_lanes(re.data(), im.data(),
                             inverse ? FftDirection::kInverse
                                     : FftDirection::kForward,
                             order);
        for (std::size_t l = 0; l < kL; ++l) {
          legacy_fft(lanes[l], inverse);
          std::vector<Complex> got(n);
          for (std::size_t i = 0; i < n; ++i) {
            got[i] = Complex(re[i * kL + l], im[i * kL + l]);
            // Same final scaling the legacy kernel folds in.
            if (inverse) got[i] *= 1.0 / static_cast<double>(n);
          }
          expect_same_bits(got, lanes[l], "lane transform");
        }
      }
    }
  }
}

TEST(FftLanes, RealLanesMatchScalarRealPathBitExact) {
  for (std::size_t n : {1u, 2u, 4u, 8u, 16u, 64u, 256u}) {
    const FftPlan plan(n, FftKind::kReal);
    const std::size_t bins = n / 2 + 1;
    const std::size_t stride = n + 3;  // rows need not be contiguous
    for (std::size_t count : {kL, std::size_t{3}, std::size_t{1}}) {
      const std::vector<double> in = random_real(stride * count, 40 + n);
      std::vector<double> re(bins * kL), im(bins * kL);
      plan.forward_real_lanes(in.data(), stride, count, re.data(), im.data());
      std::vector<Complex> want(bins);
      for (std::size_t l = 0; l < count; ++l) {
        plan.forward_real(in.data() + l * stride, want.data());
        std::vector<Complex> got(bins);
        for (std::size_t k = 0; k < bins; ++k) {
          got[k] = Complex(re[k * kL + l], im[k * kL + l]);
        }
        expect_same_bits(got, want, "r2c lane");
      }
      for (std::size_t l = count; l < kL; ++l) {
        for (std::size_t k = 0; k < bins; ++k) {
          EXPECT_EQ(re[k * kL + l], 0.0) << "idle lane " << l;
          EXPECT_EQ(im[k * kL + l], 0.0) << "idle lane " << l;
        }
      }

      // c2r on arbitrary (not necessarily Hermitian) half-spectra: the
      // scalar path's operations are defined for any input, and the
      // lanes must follow them exactly. Lanes past count are not written.
      const std::vector<Complex> spec = random_complex(bins * count, 80 + n);
      for (std::size_t l = 0; l < kL; ++l) {
        for (std::size_t k = 0; k < bins; ++k) {
          const Complex v = l < count ? spec[l * bins + k] : Complex{};
          re[k * kL + l] = v.real();
          im[k * kL + l] = v.imag();
        }
      }
      std::vector<double> out(stride * kL, -7.0);
      plan.inverse_real_lanes(re.data(), im.data(), out.data(), stride, count);
      for (std::size_t l = 0; l < count; ++l) {
        std::vector<double> ref(n);
        plan.inverse_real(spec.data() + l * bins, ref.data());
        const std::vector<double> got(
            out.begin() + static_cast<std::ptrdiff_t>(l * stride),
            out.begin() + static_cast<std::ptrdiff_t>(l * stride + n));
        expect_same_bits(got, ref, "c2r lane");
      }
      for (std::size_t i = count * stride; i < out.size(); ++i) {
        EXPECT_EQ(out[i], -7.0) << "c2r wrote past count at " << i;
      }
    }
  }
}

TEST(Fft2dLanes, ComplexPassesMatchLegacyRowsThenColumns) {
  for (const Shape sh : kLaneShapes) {
    const Fft2d plan(sh.nx, sh.ny);
    const std::vector<Complex> input =
        random_complex(sh.nx * sh.ny, 7 * sh.nx + sh.ny);

    // Forward is unnormalized: the legacy kernel is the reference.
    std::vector<Complex> want = input;
    std::vector<Complex> row(sh.nx);
    for (std::size_t y = 0; y < sh.ny; ++y) {
      for (std::size_t x = 0; x < sh.nx; ++x) row[x] = want[y * sh.nx + x];
      legacy_fft(row, false);
      for (std::size_t x = 0; x < sh.nx; ++x) want[y * sh.nx + x] = row[x];
    }
    for (std::size_t x = 0; x < sh.nx; ++x) {
      std::vector<Complex> col(sh.ny);
      for (std::size_t y = 0; y < sh.ny; ++y) col[y] = want[y * sh.nx + x];
      legacy_fft(col, false);
      for (std::size_t y = 0; y < sh.ny; ++y) want[y * sh.nx + x] = col[y];
    }
    std::vector<Complex> got = input;
    plan.forward(got);
    expect_same_bits(got, want, "Fft2d::forward");

    // Inverse normalizes once by 1/(nx*ny), which the per-transform
    // normalizing legacy kernel cannot express: scalar plans instead.
    got = input;
    plan.inverse(got);
    expect_same_bits(
        got, scalar_2d(input, sh.nx, sh.ny, FftDirection::kInverse),
        "Fft2d::inverse");
  }
}

TEST(Fft2dLanes, RealPassesMatchScalarRowsAndColumns) {
  for (const Shape sh : kLaneShapes) {
    const std::size_t nx = sh.nx, ny = sh.ny, hx = nx / 2 + 1;
    const Fft2d plan(nx, ny);
    const FftPlan rows(nx, FftKind::kReal);
    const FftPlan cols(ny, FftKind::kComplex);
    const std::vector<double> img = random_real(nx * ny, 3 * nx + ny);

    // r2c: scalar forward_real rows, scalar columns over kx <= nx/2,
    // Hermitian mirror for the rest.
    std::vector<Complex> half(hx * ny);
    for (std::size_t y = 0; y < ny; ++y) {
      rows.forward_real(img.data() + y * nx, half.data() + y * hx);
    }
    std::vector<Complex> col(ny);
    for (std::size_t x = 0; x < hx; ++x) {
      for (std::size_t y = 0; y < ny; ++y) col[y] = half[y * hx + x];
      cols.transform(col.data(), FftDirection::kForward);
      for (std::size_t y = 0; y < ny; ++y) half[y * hx + x] = col[y];
    }
    std::vector<Complex> want(nx * ny);
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t kx = 0; kx < nx; ++kx) {
        want[y * nx + kx] =
            kx < hx ? half[y * hx + kx]
                    : std::conj(half[((ny - y) % ny) * hx + nx - kx]);
      }
    }
    std::vector<Complex> spec;
    plan.forward_real(img, spec);
    expect_same_bits(spec, want, "Fft2d::forward_real");

    // c2r: scalar columns over kx <= nx/2, scalar inverse_real rows,
    // then 1/(nx*ny). Run it on a perturbed spectrum so the inverse is
    // exercised on data the forward did not just produce.
    for (auto& v : spec) v *= Complex(0.75, 0.25);
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < hx; ++x) half[y * hx + x] = spec[y * nx + x];
    }
    for (std::size_t x = 0; x < hx; ++x) {
      for (std::size_t y = 0; y < ny; ++y) col[y] = half[y * hx + x];
      cols.transform(col.data(), FftDirection::kInverse);
      for (std::size_t y = 0; y < ny; ++y) half[y * hx + x] = col[y];
    }
    std::vector<double> back_want(nx * ny);
    for (std::size_t y = 0; y < ny; ++y) {
      rows.inverse_real(half.data() + y * hx, back_want.data() + y * nx);
    }
    const double inv = 1.0 / static_cast<double>(nx * ny);
    for (auto& v : back_want) v *= inv;
    std::vector<double> back;
    plan.inverse_real(spec, back);
    expect_same_bits(back, back_want, "Fft2d::inverse_real");
  }
}

/// Supports for the sparse-batch parity: a wrap-around disk (touches
/// row 0), the Nyquist row ky = ny/2 plus row 0, more than kLanes
/// touched rows (several lane groups, the last one partial), and a
/// single bin.
std::vector<std::vector<std::uint32_t>> edge_supports(std::size_t nx,
                                                      std::size_t ny) {
  std::vector<std::vector<std::uint32_t>> out;
  std::vector<std::uint32_t> disk, nyquist, many, one;
  for (std::size_t ky = 0; ky < ny; ++ky) {
    const double fy = fft_freq(ky, ny);
    for (std::size_t kx = 0; kx < nx; ++kx) {
      const auto idx = static_cast<std::uint32_t>(ky * nx + kx);
      const double fx = fft_freq(kx, nx);
      if (fx * fx + fy * fy <= 0.1) disk.push_back(idx);
      if (ky == 0 || ky == ny / 2) nyquist.push_back(idx);
      if (ky % 2 == 0 && kx % 3 != 1) many.push_back(idx);
    }
  }
  one.push_back(static_cast<std::uint32_t>((ny / 2) * nx + nx / 2));
  for (auto* v : {&disk, &nyquist, &many, &one}) {
    if (!v->empty()) out.push_back(*v);
  }
  return out;
}

TEST(SparseBatchLanes, MatchesScalarDenseInverseOnEdgeSupports) {
  for (const Shape sh : kLaneShapes) {
    const Fft2d plan(sh.nx, sh.ny);
    const std::vector<Complex> spectrum =
        random_complex(sh.nx * sh.ny, 11 * sh.nx + sh.ny);
    for (const auto& support : edge_supports(sh.nx, sh.ny)) {
      const std::vector<Complex> factors =
          random_complex(support.size(), support.size());
      std::vector<Complex> field(sh.nx * sh.ny, Complex{0.0, 0.0});
      for (std::size_t j = 0; j < support.size(); ++j) {
        field[support[j]] = spectrum[support[j]] * factors[j];
      }
      const std::vector<Complex> dense =
          scalar_2d(field, sh.nx, sh.ny, FftDirection::kInverse);
      std::vector<double> dense_mag2(dense.size());
      for (std::size_t i = 0; i < dense.size(); ++i) {
        dense_mag2[i] = std::norm(dense[i]);
      }

      const SparseInverseBatch batch(plan, support);
      std::vector<double> mag2;
      batch.inverse_mag2(spectrum.data(), factors, mag2);
      expect_same_bits(mag2, dense_mag2, "inverse_mag2");
      std::vector<Complex> got_field;
      batch.inverse_field(spectrum.data(), factors, got_field);
      expect_same_bits(got_field, dense, "inverse_field");
    }
  }
}

TEST(SparseBatchLanes, FusedSumMatchesAscendingPerMemberSum) {
  const std::size_t nx = 64, ny = 32;
  const Fft2d plan(nx, ny);
  const std::vector<Complex> spectrum = random_complex(nx * ny, 501);
  const std::vector<std::uint32_t> support = edge_supports(nx, ny).front();
  constexpr std::size_t kMembers = 5;
  std::vector<std::vector<Complex>> factors;
  std::vector<SparseInverseBatch::Member> members;
  util::Rng rng(502);
  for (std::size_t k = 0; k < kMembers; ++k) {
    factors.push_back(random_complex(support.size(), 600 + k));
  }
  for (std::size_t k = 0; k < kMembers; ++k) {
    members.push_back({factors[k], rng.uniform(0.1, 2.0)});
  }
  const SparseInverseBatch batch(plan, support);

  // Reference: per-member inverse_mag2 frames added into a nonzero
  // starting image, pixel by pixel, in ascending member order.
  const std::vector<double> start = random_real(nx * ny, 503);
  std::vector<double> want = start;
  std::vector<double> mag2;
  for (const auto& m : members) {
    batch.inverse_mag2(spectrum.data(), m.factors, mag2);
    for (std::size_t i = 0; i < want.size(); ++i) want[i] += m.weight * mag2[i];
  }

  auto& batched =
      trace::metrics().counter(trace::metric::kLithoFftBatchedTransforms);
  auto& pruned =
      trace::metrics().counter(trace::metric::kLithoFftRowsPruned);
  const std::uint64_t batched0 = batched.value(), pruned0 = pruned.value();

  // From the main thread.
  std::vector<double> got = start;
  batch.accumulate_intensity(spectrum.data(), members, got);
  expect_same_bits(got, want, "fused sum (main thread)");
  // One batched transform per member, as kMembers inverse_mag2 calls count.
  EXPECT_EQ(batched.value() - batched0, kMembers);
  EXPECT_EQ(pruned.value() - pruned0, kMembers * batch.rows_pruned());

  // From inside a pool worker.
  std::vector<double> nested = start;
  util::ThreadPool pool(2);
  pool.parallel_for(2, [&](std::size_t i) {
    if (i == 0) batch.accumulate_intensity(spectrum.data(), members, nested);
  });
  expect_same_bits(nested, want, "fused sum (pool worker)");

  // No members: the image is untouched.
  std::vector<double> idle = start;
  batch.accumulate_intensity(spectrum.data(), {}, idle);
  expect_same_bits(idle, start, "fused sum (no members)");
}

// ---- column-bounded transforms: the band-limited imaging path's ------
// r2c and c2r, on non-square frames, with column bounds of 1, of fewer
// than kLanes (a partial lane block) and of nx/2+1.

std::vector<std::size_t> column_bounds(std::size_t nx) {
  const std::size_t hx = nx / 2 + 1;
  std::vector<std::size_t> out = {1};
  if (hx > 5) out.push_back(5);
  if (hx > 11) out.push_back(11);
  out.push_back(hx);
  return out;
}

const std::vector<Shape> kBoundedShapes = {
    {16, 64}, {64, 32}, {256, 8}, {32, 128}, {2, 4}};

TEST(Fft2dColumns, BoundedR2cMatchesForwardRealOnEveryComputedBin) {
  for (const Shape sh : kBoundedShapes) {
    const Fft2d plan(sh.nx, sh.ny);
    const std::vector<double> img = random_real(sh.nx * sh.ny, sh.nx + 7);
    std::vector<Complex> full;
    plan.forward_real(img, full);
    for (const std::size_t cols : column_bounds(sh.nx)) {
      std::vector<Complex> want(cols * sh.ny);
      for (std::size_t ky = 0; ky < sh.ny; ++ky) {
        for (std::size_t kx = 0; kx < cols; ++kx) {
          want[ky * cols + kx] = full[ky * sh.nx + kx];
        }
      }
      std::vector<Complex> got;
      plan.forward_real_columns(img, cols, got);
      expect_same_bits(got, want, "forward_real_columns");
      // The row-source form reads the same samples row by row.
      std::vector<Complex> rows_got;
      plan.forward_real_columns(
          [&](std::size_t y, double* row) {
            std::copy_n(img.data() + y * sh.nx, sh.nx, row);
          },
          cols, rows_got);
      expect_same_bits(rows_got, want, "forward_real_columns(rows)");
    }
  }
}

TEST(Fft2dColumns, BoundedC2rMatchesInverseRealOnSpectraZeroPastTheBound) {
  for (const Shape sh : kBoundedShapes) {
    const Fft2d plan(sh.nx, sh.ny);
    const std::vector<double> img = random_real(sh.nx * sh.ny, sh.ny + 3);
    std::vector<Complex> spec;
    plan.forward_real(img, spec);
    for (auto& v : spec) v *= Complex(0.75, 0.25);
    for (const std::size_t cols : column_bounds(sh.nx)) {
      // Zero past the bound in the independent half inverse_real reads.
      std::vector<Complex> full = spec;
      std::vector<Complex> block(cols * sh.ny);
      for (std::size_t ky = 0; ky < sh.ny; ++ky) {
        for (std::size_t kx = 0; kx <= sh.nx / 2; ++kx) {
          if (kx >= cols) full[ky * sh.nx + kx] = Complex{0.0, 0.0};
        }
        for (std::size_t kx = 0; kx < cols; ++kx) {
          block[ky * cols + kx] = full[ky * sh.nx + kx];
        }
      }
      std::vector<double> want, got;
      plan.inverse_real(full, want);
      plan.inverse_real_columns(block, cols, got);
      expect_same_bits(got, want, "inverse_real_columns");
    }
  }
}

TEST(Fft2dColumns, RejectsBoundsOutsideTheHalfSpectrum) {
  const Fft2d plan(16, 8);
  const std::vector<double> img(16 * 8, 0.0);
  std::vector<Complex> spec;
  EXPECT_THROW(plan.forward_real_columns(img, 0, spec), util::CheckError);
  EXPECT_THROW(plan.forward_real_columns(img, 10, spec), util::CheckError);
  std::vector<Complex> block(10 * 8);
  std::vector<double> out;
  EXPECT_THROW(plan.inverse_real_columns(block, 10, out), util::CheckError);
}

TEST(PlanCacheTest, BuildsOncePerKeyAndCountsHits) {
  PlanCache& cache = PlanCache::instance();
  cache.clear();
  const auto a = cache.get(64, FftKind::kComplex);
  const auto b = cache.get(64, FftKind::kComplex);
  EXPECT_EQ(a.get(), b.get());  // same immutable plan object
  const auto c = cache.get(64, FftKind::kReal);  // distinct key
  EXPECT_NE(a.get(), c.get());
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.builds, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, ConcurrentRequestsShareOneBuild) {
  // The jobs=8 flow pattern: many workers requesting the same frame
  // shape at once. Exactly one build may happen; everyone must get the
  // same plan and correct transforms. (TSan gate: tools/ci.sh runs
  // this suite under -L fft in the tsan job.)
  PlanCache& cache = PlanCache::instance();
  cache.clear();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 16;
  std::vector<std::thread> threads;
  std::vector<const FftPlan*> seen(kThreads, nullptr);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &seen, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        const auto plan = cache.get(256, FftKind::kReal);
        seen[t] = plan.get();
        std::vector<Complex> v(256, Complex{1.0, 0.0});
        plan->transform(v.data(), FftDirection::kForward);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.hits, kThreads * kIters - 1);
}

}  // namespace
}  // namespace opckit::litho
