#include "litho/resist.h"

#include <cmath>
#include <numbers>
#include <span>

#include "litho/fft.h"
#include "util/check.h"

namespace opckit::litho {

Image gaussian_blur(const Image& img, double sigma_nm) {
  OPCKIT_CHECK(sigma_nm >= 0.0);
  if (sigma_nm == 0.0) return img;
  const Frame& f = img.frame();
  OPCKIT_CHECK(is_pow2(f.nx) && is_pow2(f.ny));

  // Real image, real-symmetric transfer: go through the planned
  // r2c/c2r pair. Per the half-spectrum layout contract documented on
  // Fft2d::forward_real, the spectrum is a FULL row-stride array but
  // inverse_real reads only the kx <= nx/2 bins of each row — so the
  // transfer multiply below touches exactly that independent half and
  // deliberately leaves the mirror half stale. The transfer is a real
  // function of |f| (conjugate-symmetric), as the contract requires.
  const Fft2d fft2(f.nx, f.ny);
  std::vector<Complex> spec;
  fft2.forward_real(std::span<const double>(img.values()), spec);

  // Gaussian transfer function exp(-2 pi^2 sigma^2 |f|^2).
  const double c = -2.0 * std::numbers::pi * std::numbers::pi * sigma_nm *
                   sigma_nm;
  const std::size_t hx = f.nx / 2 + 1;
  for (std::size_t ky = 0; ky < f.ny; ++ky) {
    const double fy = fft_freq(ky, f.ny) / f.pixel_nm;
    for (std::size_t kx = 0; kx < hx; ++kx) {
      const double fx = fft_freq(kx, f.nx) / f.pixel_nm;
      spec[ky * f.nx + kx] *= std::exp(c * (fx * fx + fy * fy));
    }
  }

  Image out(f);
  fft2.inverse_real(spec, out.values());
  return out;
}

Image latent_image(const Image& aerial, const ResistModel& resist) {
  return gaussian_blur(aerial, resist.diffusion_nm);
}

}  // namespace opckit::litho
