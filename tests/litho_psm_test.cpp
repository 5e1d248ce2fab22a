#include <cmath>

#include <gtest/gtest.h>

#include "litho/litho.h"

namespace opckit::litho {
namespace {

using geom::Rect;
using geom::Region;

OpticalSystem test_optics() {
  OpticalSystem sys;
  sys.source.grid = 5;
  return sys;
}

Frame test_frame(std::size_t n = 256) {
  Frame f;
  f.pixel_nm = 8.0;
  f.nx = n;
  f.ny = n;
  f.origin = {-static_cast<geom::Coord>(n) * 4,
              -static_cast<geom::Coord>(n) * 4};
  return f;
}

MaskModel att_psm() {
  MaskModel m;
  m.type = MaskType::kAttenuatedPsm;
  m.background_transmission = 0.06;
  return m;
}

/// The Abbe aerial image of \p mask under \p mask_model.
Image abbe_aerial(const Image& mask, const MaskModel& mask_model) {
  return form_image(
      *PupilCache::instance().get(test_optics(), mask.frame(), 0.0), mask,
      mask_model);
}

TEST(MaskModel, BackgroundAmplitude) {
  EXPECT_DOUBLE_EQ(MaskModel{}.background_amplitude(), 0.0);
  EXPECT_NEAR(att_psm().background_amplitude(), -std::sqrt(0.06), 1e-12);
}

TEST(AttPsm, ClearFieldStillOne) {
  const Frame f = test_frame(64);
  Image mask(f, 1.0);
  const Image img = abbe_aerial(mask, att_psm());
  for (double v : img.values()) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(AttPsm, DarkFieldLeaksBackgroundTransmission) {
  const Frame f = test_frame(64);
  Image mask(f, 0.0);
  const Image img = abbe_aerial(mask, att_psm());
  for (double v : img.values()) EXPECT_NEAR(v, 0.06, 1e-9);
}

TEST(AttPsm, SteepensEdgeSlopeAtDensePitch) {
  // The defining benefit: higher image log slope at the feature edge,
  // measured for each mask stack at its own calibrated threshold (the
  // PSM's dark fringe shifts the printing contour). High-sigma annular
  // illumination mutes the effect, so this is checked at the dense
  // anchor where it is robust.
  auto ils_of = [](MaskType type) {
    SimSpec spec;
    spec.optics.source.grid = 5;
    if (type == MaskType::kAttenuatedPsm) spec.mask = att_psm();
    calibrate_threshold(spec, 180, 360);
    std::vector<Rect> lines;
    for (int i = -3; i <= 3; ++i) {
      lines.emplace_back(i * 360 - 90, -2000, i * 360 + 90, 2000);
    }
    const Simulator sim(spec, Rect(-720, -600, 720, 600));
    const Image lat = sim.latent(Region::from_rects(lines));
    return image_log_slope(lat, {90, 0}, {1, 0}, 80.0, sim.threshold());
  };
  const double binary = ils_of(MaskType::kBinary);
  const double psm = ils_of(MaskType::kAttenuatedPsm);
  ASSERT_FALSE(std::isnan(binary));
  ASSERT_FALSE(std::isnan(psm));
  EXPECT_GT(psm, binary * 1.05);
}

TEST(AttPsm, SimulatorIntegration) {
  SimSpec spec;
  spec.optics.source.grid = 5;
  spec.mask = att_psm();
  const double thr = calibrate_threshold(spec, 180, 360);
  EXPECT_GT(thr, 0.05);
  EXPECT_LT(thr, 0.95);
  // Anchor prints on target with the PSM stack too.
  std::vector<Rect> lines;
  for (int i = -3; i <= 3; ++i) {
    lines.emplace_back(i * 360 - 90, -2000, i * 360 + 90, 2000);
  }
  const Simulator sim(spec, Rect(-720, -600, 720, 600));
  const Image lat = sim.latent(Region::from_rects(lines));
  EXPECT_NEAR(printed_cd(lat, {0, 0}, {1, 0}, 360.0, sim.threshold()),
              180.0, 1.5);
}

TEST(ImageLogSlope, AnalyticProfile) {
  // I(x) = 1/(1+(x/90)^4): at the 0.5 crossing (x=90),
  // ILS = |I'|/I = 4x^3/90^4 / (1/2) * ... = 2 * 4 * 90^3 / 90^4 = 8/90...
  // Derive: I' = -4x^3/90^4 * I^2; at x=90, I=0.5 -> I'/I = -4/90 * 0.5
  // = -1/45. ILS = 1/45 per nm.
  Frame f;
  f.pixel_nm = 4.0;
  f.nx = 256;
  f.ny = 32;
  f.origin = {-512, -64};
  Image img(f);
  for (std::size_t iy = 0; iy < f.ny; ++iy) {
    for (std::size_t ix = 0; ix < f.nx; ++ix) {
      const double r = f.center_x(ix) / 90.0;
      img.at(ix, iy) = 1.0 / (1.0 + r * r * r * r);
    }
  }
  const double ils = image_log_slope(img, {90, 0}, {1, 0}, 40.0, 0.5);
  EXPECT_NEAR(ils, 1.0 / 45.0, 0.002);
}

TEST(ImageLogSlope, NanWithoutContour) {
  Image img(test_frame(32), 1.0);
  EXPECT_TRUE(std::isnan(image_log_slope(img, {0, 0}, {1, 0}, 50.0, 0.5)));
}

}  // namespace
}  // namespace opckit::litho
