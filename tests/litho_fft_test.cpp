#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "litho/fft.h"
#include "util/check.h"
#include "util/rng.h"

namespace opckit::litho {
namespace {

TEST(Fft, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(256));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(255));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(256), 256u);
  EXPECT_EQ(next_pow2(257), 512u);
}

TEST(Fft, RejectsNonPow2) {
  EXPECT_THROW(FftPlan(6, FftKind::kComplex), util::CheckError);
}

TEST(Fft, SizeOneIsIdentity) {
  const FftPlan plan(1, FftKind::kComplex);
  std::vector<Complex> v{Complex{1.5, -2.5}};
  plan.transform(v.data(), FftDirection::kForward);
  EXPECT_EQ(v[0], (Complex{1.5, -2.5}));
  plan.transform(v.data(), FftDirection::kInverse);  // 1/N = 1
  EXPECT_EQ(v[0], (Complex{1.5, -2.5}));
}

TEST(Fft, TwoDimensionalRejectsSizeMismatch) {
  std::vector<Complex> v(8);  // 8 elements cannot be a 4x4 frame
  EXPECT_THROW(Fft2d(4, 4).forward(v), util::CheckError);
  EXPECT_THROW(Fft2d(3, 4), util::CheckError);  // non-pow2 dims
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<Complex> v(16, Complex{0, 0});
  v[0] = 1.0;
  FftPlan(v.size(), FftKind::kComplex)
      .transform(v.data(), FftDirection::kForward);
  for (const auto& c : v) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, RoundTripRandom) {
  util::Rng rng(5);
  std::vector<Complex> v(128);
  for (auto& c : v) c = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto orig = v;
  const FftPlan plan(v.size(), FftKind::kComplex);
  plan.transform(v.data(), FftDirection::kForward);
  plan.transform(v.data(), FftDirection::kInverse);
  for (auto& c : v) c /= static_cast<double>(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(v[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, SingleToneLandsInCorrectBin) {
  const std::size_t n = 64;
  const std::size_t tone = 5;
  std::vector<Complex> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = 2.0 * std::numbers::pi * static_cast<double>(tone * i) /
                      static_cast<double>(n);
    v[i] = Complex{std::cos(ph), std::sin(ph)};
  }
  FftPlan(n, FftKind::kComplex).transform(v.data(), FftDirection::kForward);
  for (std::size_t k = 0; k < n; ++k) {
    const double mag = std::abs(v[k]);
    if (k == tone) {
      EXPECT_NEAR(mag, static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-9) << "bin " << k;
    }
  }
}

TEST(Fft, ParsevalHolds) {
  util::Rng rng(9);
  std::vector<Complex> v(256);
  double time_energy = 0;
  for (auto& c : v) {
    c = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    time_energy += std::norm(c);
  }
  FftPlan(v.size(), FftKind::kComplex)
      .transform(v.data(), FftDirection::kForward);
  double freq_energy = 0;
  for (const auto& c : v) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy, time_energy * 256.0, 1e-8);
}

TEST(Fft, TwoDimensionalRoundTrip) {
  util::Rng rng(11);
  const std::size_t nx = 32, ny = 16;
  std::vector<Complex> v(nx * ny);
  for (auto& c : v) c = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto orig = v;
  const Fft2d plan(nx, ny);
  plan.forward(v);
  plan.inverse(v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(v[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, TwoDimensionalDcTerm) {
  const std::size_t nx = 8, ny = 8;
  std::vector<Complex> v(nx * ny, Complex{2.0, 0.0});
  Fft2d(nx, ny).forward(v);
  EXPECT_NEAR(v[0].real(), 2.0 * nx * ny, 1e-10);
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT_NEAR(std::abs(v[i]), 0.0, 1e-10);
  }
}

TEST(Fft, FreqConvention) {
  EXPECT_DOUBLE_EQ(fft_freq(0, 8), 0.0);
  EXPECT_DOUBLE_EQ(fft_freq(1, 8), 0.125);
  EXPECT_DOUBLE_EQ(fft_freq(3, 8), 0.375);
  EXPECT_DOUBLE_EQ(fft_freq(4, 8), -0.5);
  EXPECT_DOUBLE_EQ(fft_freq(7, 8), -0.125);
}

}  // namespace
}  // namespace opckit::litho
