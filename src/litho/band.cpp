#include "litho/band.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "litho/resist.h"
#include "util/check.h"

namespace opckit::litho {

namespace {

/// Signed frequency of bin \p k of a length-\p n axis, in fft_freq's
/// convention (bin n/2 is negative).
std::ptrdiff_t signed_bin(std::size_t k, std::size_t n) {
  return k <= (n - 1) / 2 ? static_cast<std::ptrdiff_t>(k)
                          : static_cast<std::ptrdiff_t>(k) -
                                static_cast<std::ptrdiff_t>(n);
}

/// Index of signed bin \p s on a length-\p n axis.
std::size_t wrap(std::ptrdiff_t s, std::size_t n) {
  return s >= 0 ? static_cast<std::size_t>(s)
                : static_cast<std::size_t>(s + static_cast<std::ptrdiff_t>(n));
}

std::size_t magnitude(std::ptrdiff_t s) {
  return static_cast<std::size_t>(s < 0 ? -s : s);
}

/// M = min(next_pow2(4K + 1), N): the smallest power of two with more
/// than 4K points, unless the frame itself is smaller.
std::size_t band_size(std::size_t k, std::size_t n) {
  return std::min(next_pow2(4 * k + 1), n);
}

}  // namespace

BandGrid::BandGrid(std::size_t nx, std::size_t ny, std::size_t kx,
                   std::size_t ky)
    : kx_(kx),
      ky_(ky),
      frame_(nx, ny),
      grid_(band_size(kx, nx), band_size(ky, ny)) {
  OPCKIT_CHECK_MSG(kx <= nx / 2 && ky <= ny / 2,
                   "band " << kx << 'x' << ky << " exceeds frame " << nx
                           << 'x' << ny);
}

BandGrid BandGrid::of_supports(
    std::size_t nx, std::size_t ny,
    std::span<const std::vector<std::uint32_t>> supports) {
  std::size_t kx = 0, ky = 0;
  for (const std::vector<std::uint32_t>& support : supports) {
    for (const std::uint32_t idx : support) {
      kx = std::max(kx, magnitude(signed_bin(idx % nx, nx)));
      ky = std::max(ky, magnitude(signed_bin(idx / nx, ny)));
    }
  }
  return BandGrid(nx, ny, kx, ky);
}

BandGrid BandGrid::full(std::size_t nx, std::size_t ny) {
  return BandGrid(nx, ny, nx / 2, ny / 2);
}

std::uint32_t BandGrid::grid_index(std::uint32_t index) const {
  const std::size_t nx = frame_.nx(), ny = frame_.ny();
  OPCKIT_CHECK_MSG(index < nx * ny, "bin " << index << " out of frame");
  const std::ptrdiff_t sx = signed_bin(index % nx, nx);
  const std::ptrdiff_t sy = signed_bin(index / nx, ny);
  OPCKIT_CHECK_MSG(magnitude(sx) <= kx_ && magnitude(sy) <= ky_,
                   "bin " << index << " outside the band " << kx_ << 'x'
                          << ky_);
  return static_cast<std::uint32_t>(wrap(sy, my()) * mx() + wrap(sx, mx()));
}

BandSpectrum::BandSpectrum(std::size_t nx, std::size_t ny, std::size_t cols,
                           std::vector<Complex> bins)
    : nx_(nx),
      ny_(ny),
      cols_(cols),
      x_bits_(std::countr_zero(nx)),
      bins_(std::move(bins)) {}

BandSpectrum BandGrid::mask_spectrum(const Image& coverage,
                                     double background_amplitude) const {
  const std::size_t nx = frame_.nx(), ny = frame_.ny();
  OPCKIT_CHECK(coverage.nx() == nx && coverage.ny() == ny);
  // The transmission is formed row by row as the r2c loads it, so no
  // frame-sized copy of it exists.
  const double* c = coverage.values().data();
  std::vector<Complex> bins;
  frame_.forward_real_columns(
      [&](std::size_t y, double* row) {
        const double* cov = c + y * nx;
        for (std::size_t i = 0; i < nx; ++i) {
          row[i] = cov[i] + (1.0 - cov[i]) * background_amplitude;
        }
      },
      kx_ + 1, bins);
  return BandSpectrum(nx, ny, kx_ + 1, std::move(bins));
}

Image BandGrid::frame_image(const Frame& frame, std::vector<double> intensity,
                            double sigma_nm) const {
  const std::size_t nx = frame_.nx(), ny = frame_.ny();
  const std::size_t mx = grid_.nx(), my = grid_.ny();
  OPCKIT_CHECK(frame.nx == nx && frame.ny == ny);
  OPCKIT_CHECK(intensity.size() == mx * my);
  OPCKIT_CHECK(sigma_nm >= 0.0);
  if (sigma_nm == 0.0 && fills_frame()) {
    return Image(frame, std::move(intensity));
  }
  // Columns of the frame image's half-spectrum: the intensity's 2Kx+1
  // on a band narrower than the frame, every one when it is the frame.
  const std::size_t hx = nx / 2 + 1;
  const std::size_t cols = mx == nx ? hx : 2 * kx_ + 1;
  std::vector<Complex> spec;
  grid_.forward_real_columns(intensity, cols, spec);

  const std::shared_ptr<const std::vector<double>> transfer =
      sigma_nm > 0.0 ? GaussianTransferCache::instance().get(
                           nx, ny, frame.pixel_nm, sigma_nm)
                     : nullptr;
  // DFT_N(I) = r·DFT_M(I) on every band bin; r is exactly 1 when the
  // band fills the frame, so the product below is then the blur's.
  const double r = static_cast<double>(mx * my) / static_cast<double>(nx * ny);
  std::vector<Complex> frame_spec;
  if (my < ny) frame_spec.assign(cols * ny, Complex{0.0, 0.0});
  for (std::size_t q = 0; q < my; ++q) {
    // Frame row of grid row q. On a band narrower than the frame, rows
    // past 2Ky carry only rounding and stay zero.
    std::size_t y = q;
    if (my < ny) {
      const std::ptrdiff_t s = signed_bin(q, my);
      if (magnitude(s) > 2 * ky_) continue;
      y = wrap(s, ny);
    }
    Complex* row = spec.data() + q * cols;
    const double* g = transfer ? transfer->data() + y * hx : nullptr;
    for (std::size_t kx = 0; kx < cols; ++kx) {
      row[kx] *= g ? g[kx] * r : r;
    }
    if (my < ny) std::copy_n(row, cols, frame_spec.data() + y * cols);
  }
  if (my < ny) spec.swap(frame_spec);
  frame_.inverse_real_columns(spec, cols, intensity);
  return Image(frame, std::move(intensity));
}

BandBatch::BandBatch(const BandGrid& band,
                     std::span<const std::uint32_t> support)
    : band_(band),
      support_(support.begin(), support.end()),
      batch_(band.grid_plan(), [&] {
        std::vector<std::uint32_t> grid(support.size());
        std::transform(support.begin(), support.end(), grid.begin(),
                       [&](std::uint32_t idx) { return band.grid_index(idx); });
        return grid;
      }()) {}

void BandBatch::accumulate_intensity(
    const BandSpectrum& spectrum,
    std::span<const SparseInverseBatch::Member> members,
    std::span<double> acc) const {
  OPCKIT_CHECK(acc.size() == band_.mx() * band_.my());
  OPCKIT_CHECK(spectrum.columns() == band_.kx() + 1);
  std::vector<Complex> values(support_.size());
  for (std::size_t j = 0; j < support_.size(); ++j) {
    values[j] = spectrum.at(support_[j]);
  }
  batch_.accumulate_intensity(values, members, acc);
}

}  // namespace opckit::litho
