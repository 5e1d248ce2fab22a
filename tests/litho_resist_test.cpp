#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "litho/fft.h"
#include "litho/resist.h"

namespace opckit::litho {
namespace {

Frame frame8(std::size_t n) {
  Frame f;
  f.pixel_nm = 8.0;
  f.nx = n;
  f.ny = n;
  return f;
}

TEST(ResistModel, DoseScalesThreshold) {
  ResistModel r;
  r.threshold = 0.3;
  EXPECT_DOUBLE_EQ(r.threshold_at_dose(1.0), 0.3);
  EXPECT_DOUBLE_EQ(r.threshold_at_dose(1.5), 0.2);
  EXPECT_DOUBLE_EQ(r.threshold_at_dose(0.5), 0.6);
}

TEST(GaussianBlur, ZeroSigmaIsIdentity) {
  Image img(frame8(16));
  img.at(5, 5) = 3.0;
  const Image out = gaussian_blur(img, 0.0);
  for (std::size_t i = 0; i < out.values().size(); ++i) {
    EXPECT_DOUBLE_EQ(out.values()[i], img.values()[i]);
  }
}

TEST(GaussianBlur, PreservesMean) {
  Image img(frame8(32));
  img.at(10, 12) = 1.0;
  img.at(20, 8) = 2.0;
  const Image out = gaussian_blur(img, 30.0);
  double before = 0, after = 0;
  for (double v : img.values()) before += v;
  for (double v : out.values()) after += v;
  EXPECT_NEAR(after, before, 1e-9);
}

TEST(GaussianBlur, SpreadsAndLowersPeak) {
  Image img(frame8(32));
  img.at(16, 16) = 1.0;
  const Image out = gaussian_blur(img, 20.0);
  EXPECT_LT(out.at(16, 16), 0.5);
  EXPECT_GT(out.at(18, 16), 0.0);
  // Symmetric spread.
  EXPECT_NEAR(out.at(18, 16), out.at(14, 16), 1e-12);
  EXPECT_NEAR(out.at(16, 18), out.at(16, 14), 1e-12);
}

TEST(GaussianBlur, MatchesAnalyticGaussianWidth) {
  // Blurring an impulse of weight 1 gives a discrete Gaussian whose
  // value at the center is ~ pixel_area / (2 pi sigma^2).
  const double sigma = 24.0;
  Image img(frame8(64));
  img.at(32, 32) = 1.0;
  const Image out = gaussian_blur(img, sigma);
  const double expected_peak =
      64.0 / (2.0 * 3.14159265358979 * sigma * sigma);
  EXPECT_NEAR(out.at(32, 32), expected_peak, expected_peak * 0.05);
}

TEST(GaussianBlur, UniformStaysUniform) {
  Image img(frame8(16), 0.7);
  const Image out = gaussian_blur(img, 25.0);
  for (double v : out.values()) EXPECT_NEAR(v, 0.7, 1e-9);
}

// The transfer is built once per (frame shape, pixel, σ) and holds, at
// every half-spectrum bin, the bits the per-call exp used to produce.
TEST(GaussianTransferCache, BuildsOncePerKeyWithTheExactTransfer) {
  GaussianTransferCache& cache = GaussianTransferCache::instance();
  cache.clear();
  const std::size_t nx = 16, ny = 8, hx = nx / 2 + 1;
  const auto a = cache.get(nx, ny, 8.0, 25.0);
  EXPECT_EQ(cache.get(nx, ny, 8.0, 25.0), a);
  EXPECT_NE(cache.get(nx, ny, 8.0, 30.0), a);
  EXPECT_NE(cache.get(nx, ny, 12.0, 25.0), a);
  EXPECT_EQ(cache.size(), 3u);
  ASSERT_EQ(a->size(), hx * ny);
  const double c = -2.0 * std::numbers::pi * std::numbers::pi * 25.0 * 25.0;
  for (std::size_t ky = 0; ky < ny; ++ky) {
    const double fy = fft_freq(ky, ny) / 8.0;
    for (std::size_t kx = 0; kx < hx; ++kx) {
      const double fx = fft_freq(kx, nx) / 8.0;
      EXPECT_EQ((*a)[ky * hx + kx], std::exp(c * (fx * fx + fy * fy)));
    }
  }
}

TEST(LatentImage, AppliesDiffusion) {
  ResistModel r;
  r.diffusion_nm = 20.0;
  Image aerial(frame8(32));
  aerial.at(16, 16) = 1.0;
  const Image lat = latent_image(aerial, r);
  EXPECT_LT(lat.at(16, 16), 1.0);
  EXPECT_GT(lat.at(17, 16), 0.0);
}

}  // namespace
}  // namespace opckit::litho
