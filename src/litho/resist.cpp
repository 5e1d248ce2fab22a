#include "litho/resist.h"

#include <cmath>
#include <numbers>

#include "litho/band.h"
#include "litho/fft.h"
#include "util/check.h"

namespace opckit::litho {

std::shared_ptr<const std::vector<double>> GaussianTransferCache::get(
    std::size_t nx, std::size_t ny, double pixel_nm, double sigma_nm) {
  OPCKIT_CHECK(sigma_nm > 0.0 && pixel_nm > 0.0);
  return get_or_build({nx, ny, pixel_nm, sigma_nm}, [&] {
    const double c = -2.0 * std::numbers::pi * std::numbers::pi * sigma_nm *
                     sigma_nm;
    const std::size_t hx = nx / 2 + 1;
    std::vector<double> table(hx * ny);
    for (std::size_t ky = 0; ky < ny; ++ky) {
      const double fy = fft_freq(ky, ny) / pixel_nm;
      for (std::size_t kx = 0; kx < hx; ++kx) {
        const double fx = fft_freq(kx, nx) / pixel_nm;
        table[ky * hx + kx] = std::exp(c * (fx * fx + fy * fy));
      }
    }
    return table;
  });
}

Image gaussian_blur(const Image& img, double sigma_nm) {
  OPCKIT_CHECK(sigma_nm >= 0.0);
  if (sigma_nm == 0.0) return img;
  const Frame& f = img.frame();
  OPCKIT_CHECK(is_pow2(f.nx) && is_pow2(f.ny));
  // The image back end on the band that fills the frame: an r2c over
  // the independent half-spectrum, the transfer multiply, a c2r.
  return BandGrid::full(f.nx, f.ny).frame_image(f, img.values(), sigma_nm);
}

Image latent_image(const Image& aerial, const ResistModel& resist) {
  return gaussian_blur(aerial, resist.diffusion_nm);
}

}  // namespace opckit::litho
