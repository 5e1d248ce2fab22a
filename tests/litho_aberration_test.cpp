#include <cmath>

#include <gtest/gtest.h>

#include "litho/litho.h"

namespace opckit::litho {
namespace {

using geom::Rect;
using geom::Region;

SimSpec base_spec() {
  SimSpec spec;
  spec.optics.source.grid = 5;
  return spec;
}

/// Printed-line center shift from symmetric edge probes.
double line_shift(const Image& lat, double threshold) {
  const double epe_r =
      edge_placement_error(lat, {90, 0}, {1, 0}, 80.0, threshold);
  const double epe_l =
      edge_placement_error(lat, {-90, 0}, {-1, 0}, 80.0, threshold);
  // A rigid +x shift overprints the right edge and underprints the left.
  return (epe_r - epe_l) / 2.0;
}

TEST(Aberrations, AnyDetectsNonZero) {
  Aberrations ab;
  EXPECT_FALSE(ab.any());
  ab.astig_nm = 5.0;
  EXPECT_TRUE(ab.any());
}

TEST(Aberrations, NoAberrationNoShift) {
  SimSpec spec = base_spec();
  calibrate_threshold(spec, 180, 360);
  const Simulator sim(spec, Rect(-500, -600, 500, 600));
  const Image lat = sim.latent(Region{Rect(-90, -2000, 90, 2000)});
  EXPECT_NEAR(line_shift(lat, sim.threshold()), 0.0, 0.3);
}

TEST(Aberrations, ComaShiftsThePattern) {
  // Coma pattern shift is strongest under moderately coherent
  // illumination (Z7 is tilt-balanced, and broad annular sources average
  // the residual away), so probe with a sigma-0.5 circular source.
  SimSpec spec = base_spec();
  spec.optics.source.shape = SourceShape::kCircular;
  spec.optics.source.sigma_outer = 0.5;
  calibrate_threshold(spec, 180, 360);
  spec.optics.aberrations.coma_x_nm = 20.0;
  const Simulator sim(spec, Rect(-500, -600, 500, 600));
  const Image lat = sim.latent(Region{Rect(-90, -2000, 90, 2000)});
  const double shift = line_shift(lat, sim.threshold());
  EXPECT_GT(std::abs(shift), 3.0) << "20nm coma must shift the line";
  // Opposite coma sign shifts the other way.
  spec.optics.aberrations.coma_x_nm = -20.0;
  const Simulator sim2(spec, Rect(-500, -600, 500, 600));
  const Image lat2 = sim2.latent(Region{Rect(-90, -2000, 90, 2000)});
  EXPECT_LT(line_shift(lat2, sim2.threshold()) * shift, 0.0);
}

TEST(Aberrations, ComaYDoesNotShiftVerticalLines) {
  SimSpec spec = base_spec();
  calibrate_threshold(spec, 180, 360);
  spec.optics.aberrations.coma_y_nm = 20.0;
  const Simulator sim(spec, Rect(-500, -600, 500, 600));
  const Image lat = sim.latent(Region{Rect(-90, -2000, 90, 2000)});
  EXPECT_NEAR(line_shift(lat, sim.threshold()), 0.0, 0.5);
}

TEST(Aberrations, AstigmatismSplitsBestFocusByOrientation) {
  SimSpec spec = base_spec();
  spec.optics.aberrations.astig_nm = 25.0;
  const geom::Rect window(-720, -720, 720, 720);
  const Simulator sim(spec, window);

  auto contrast = [&](bool vertical, double z) {
    std::vector<Rect> lines;
    for (int i = -3; i <= 3; ++i) {
      const geom::Coord c = i * 360;
      lines.push_back(vertical ? Rect(c - 90, -2000, c + 90, 2000)
                               : Rect(-2000, c - 90, 2000, c + 90));
    }
    const Image lat = sim.latent(Region::from_rects(lines), z);
    const double on = lat.sample(0, 0);
    const double off =
        vertical ? lat.sample(180, 0) : lat.sample(0, 180);
    return (on - off) / (on + off);
  };
  // Find the best focus (coarse) per orientation; astigmatism must split
  // them to opposite sides.
  auto best_focus = [&](bool vertical) {
    double best_z = 0, best_c = -1;
    for (double z = -400; z <= 400; z += 100) {
      const double c = contrast(vertical, z);
      if (c > best_c) {
        best_c = c;
        best_z = z;
      }
    }
    return best_z;
  };
  const double zv = best_focus(true);
  const double zh = best_focus(false);
  EXPECT_NE(zv, zh);
  EXPECT_GE(std::abs(zv - zh), 200.0);
}

TEST(Aberrations, AberratedClearFieldStillUniform) {
  // Phase-only pupil errors cannot modulate a uniform field.
  SimSpec spec = base_spec();
  spec.optics.aberrations = {15.0, -10.0, 20.0};
  const Frame frame{{0, 0}, 8.0, 64, 64};
  const Image img =
      form_image(*PupilCache::instance().get(spec.optics, frame, 0.0),
                 Image(frame, 1.0));
  for (double v : img.values()) EXPECT_NEAR(v, 1.0, 1e-9);
}

}  // namespace
}  // namespace opckit::litho
