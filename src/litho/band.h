/// \file band.h
/// Image formation on the alias-free band-limited grid, for every kernel
/// set (optics.h: Abbe's and SOCS's alike).
///
/// Every coherent field an image sums is IFFT(spectrum · φ), with φ
/// nonzero only on its kernel set's support. Let K (per axis) be the
/// largest |signed bin| of that support. The field then holds
/// frequencies |k| <= K, its intensity |field|² holds |k| <= 2K, and any
/// grid of more than 4K points per axis carries that intensity without
/// aliasing. The band grid
///
///     M = min(next_pow2(4K + 1), N)   per axis, N the frame size,
///
/// is therefore exact, not an approximation: the intensity's spectrum
/// on the M grid equals the frame's on every bin, up to the factor
/// r = Mx·My/(nx·ny) between the two inverse normalizations, and the
/// frame image is its band-limited interpolation. Image formation runs
/// in three layers:
///
///  1. Mask spectrum on the band (BandGrid::mask_spectrum): one frame
///     r2c whose column pass stops at kx = Kx
///     (Fft2d::forward_real_columns), held as (Kx+1) × ny bins. Bins
///     with kx < 0 are read through the Hermitian mirror.
///  2. Coherent sum on the M grid (BandBatch): a kernel set's support
///     re-indexed onto the M grid (each signed bin wraps mod M) with its
///     fused SparseInverseBatch, built once per kernel set and forming
///     Σ w·|field|² over the set's members on the M grid.
///  3. One back end (BandGrid::frame_image): r2c of the M-grid
///     intensity, times the Gaussian transfer at the same physical
///     frequencies and r, then one frame c2r whose column pass runs only
///     over the 2Kx+1 nonzero columns (Fft2d::inverse_real_columns).
///
/// When the band fills the frame (M = N) this is the full-frame
/// computation bit for bit: the r2c bins are forward_real's, the batch
/// is the frame's, and the back end is gaussian_blur (which runs on it),
/// or nothing at all for an aerial image.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "litho/fft.h"
#include "litho/image.h"

namespace opckit::litho {

class BandSpectrum;

/// The band of one frame: K and M per axis, with the planned transforms
/// of the frame and of the M grid.
class BandGrid {
 public:
  /// The band |signed kx| <= kx, |signed ky| <= ky of an nx × ny frame
  /// (powers of two; kx <= nx/2, ky <= ny/2).
  BandGrid(std::size_t nx, std::size_t ny, std::size_t kx, std::size_t ky);

  /// The smallest band holding every bin of every support (flat frame
  /// indices ky*nx + kx).
  static BandGrid of_supports(
      std::size_t nx, std::size_t ny,
      std::span<const std::vector<std::uint32_t>> supports);
  /// The whole frame as its own band (M = N).
  static BandGrid full(std::size_t nx, std::size_t ny);

  std::size_t kx() const { return kx_; }
  std::size_t ky() const { return ky_; }
  std::size_t mx() const { return grid_.nx(); }
  std::size_t my() const { return grid_.ny(); }
  bool fills_frame() const {
    return mx() == frame_.nx() && my() == frame_.ny();
  }
  const Fft2d& grid_plan() const { return grid_; }

  /// Flat M-grid index of frame bin \p index: each signed bin wraps
  /// mod M. Checked: the bin lies inside the band.
  std::uint32_t grid_index(std::uint32_t index) const;

  /// Layer 1: the spectrum of the mask transmission c + (1 − c)·t over
  /// \p coverage c (the frame's shape), t = \p background_amplitude.
  BandSpectrum mask_spectrum(const Image& coverage,
                             double background_amplitude) const;

  /// Layer 3: the frame image of \p intensity, an mx × my intensity on
  /// this band's grid, blurred by a Gaussian of \p sigma_nm (0: none).
  /// Returns the intensity itself when sigma_nm == 0 and the band fills
  /// the frame.
  Image frame_image(const Frame& frame, std::vector<double> intensity,
                    double sigma_nm) const;

 private:
  std::size_t kx_, ky_;
  Fft2d frame_;  ///< nx × ny
  Fft2d grid_;   ///< mx × my
};

/// Layer 1's result: columns kx <= Kx of the frame's r2c mask spectrum.
class BandSpectrum {
 public:
  /// Columns held: Kx + 1.
  std::size_t columns() const { return cols_; }

  /// The spectrum at frame bin \p index (ky*nx + kx) of the band; bins
  /// with kx < 0 read conj(F[-kx, -ky]).
  Complex at(std::uint32_t index) const {
    const std::size_t kx = index & (nx_ - 1);
    const std::size_t ky = index >> x_bits_;
    if (kx < cols_) return bins_[ky * cols_ + kx];
    return std::conj(bins_[((ny_ - ky) & (ny_ - 1)) * cols_ + (nx_ - kx)]);
  }

 private:
  friend class BandGrid;
  BandSpectrum(std::size_t nx, std::size_t ny, std::size_t cols,
               std::vector<Complex> bins);

  std::size_t nx_, ny_, cols_;
  int x_bits_;                ///< log2(nx)
  std::vector<Complex> bins_;  ///< cols × ny, bin (kx, ky) at ky*cols + kx
};

/// Layer 2: one support re-indexed onto a band's M grid, with its fused
/// sparse batch. The map is monotone (positive bins keep their index,
/// negative ones move from the top of the frame to the top of the M
/// grid), so the support stays ascending and factors aligned with the
/// frame support stay aligned with the batch.
class BandBatch {
 public:
  /// \p support: ascending flat frame indices, every bin inside
  /// \p band.
  BandBatch(const BandGrid& band, std::span<const std::uint32_t> support);

  const BandGrid& band() const { return band_; }

  /// acc[i] += Σ_k members[k].weight·|IFFT_M(field_k)(i)|² over the M
  /// grid (acc has mx·my entries), field_k = spectrum · factors_k on the
  /// support, in SparseInverseBatch::accumulate_intensity's order: one
  /// member at a time, so a dense Abbe set holds one member's row
  /// buffers however many members it has.
  void accumulate_intensity(
      const BandSpectrum& spectrum,
      std::span<const SparseInverseBatch::Member> members,
      std::span<double> acc) const;

 private:
  BandGrid band_;
  std::vector<std::uint32_t> support_;  ///< frame indices (spectrum reads)
  SparseInverseBatch batch_;            ///< the same bins on the M grid
};

}  // namespace opckit::litho
