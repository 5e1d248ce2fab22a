/// \file resist.h
/// Constant-threshold resist model with acid-diffusion blur.
///
/// The latent image is the aerial image convolved with a Gaussian of
/// standard deviation \p diffusion_nm (chemically-amplified resist acid
/// diffusion); resist develops wherever latent intensity × dose exceeds
/// the threshold. This is the model 2001-era production OPC engines were
/// calibrated with (VT / CTR models).
#pragma once

#include <cstddef>
#include <memory>
#include <tuple>
#include <vector>

#include "litho/cache.h"
#include "litho/image.h"

namespace opckit::litho {

/// Resist parameters. Dose is modeled multiplicatively: the effective
/// development condition is intensity >= threshold / dose.
struct ResistModel {
  double threshold = 0.30;
  double diffusion_nm = 25.0;

  /// Effective threshold at relative dose \p dose (1.0 = nominal).
  double threshold_at_dose(double dose) const { return threshold / dose; }
};

/// Process-wide cache of Gaussian transfer functions
/// exp(-2π²σ²|f|²) over the independent half-spectrum (kx <= nx/2) of
/// one frame shape, on the BuildOnceCache discipline (cache.h). A
/// process sees a handful of frame shapes and diffusion lengths.
class GaussianTransferCache
    : public BuildOnceCache<
          GaussianTransferCache,
          std::tuple<std::size_t, std::size_t, double, double>,
          std::vector<double>> {
 public:
  /// The transfer at bin (kx, ky), kx <= nx/2, is
  /// (*table)[ky * (nx/2 + 1) + kx], for frequencies
  /// fft_freq(k, n) / pixel_nm. sigma_nm > 0.
  std::shared_ptr<const std::vector<double>> get(std::size_t nx,
                                                 std::size_t ny,
                                                 double pixel_nm,
                                                 double sigma_nm);
};

/// Gaussian blur with standard deviation \p sigma_nm, computed in the
/// frequency domain (periodic boundaries — consistent with the imaging
/// engine's guard-band convention) with the transfer from
/// GaussianTransferCache. Frame dims must be powers of two.
/// sigma_nm == 0 returns the input unchanged.
Image gaussian_blur(const Image& img, double sigma_nm);

/// Latent image: aerial image after resist diffusion.
Image latent_image(const Image& aerial, const ResistModel& resist);

}  // namespace opckit::litho
