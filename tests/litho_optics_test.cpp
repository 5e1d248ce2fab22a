#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "litho/optics.h"
#include "litho/raster.h"

namespace opckit::litho {
namespace {

using geom::Rect;
using geom::Region;

OpticalSystem test_optics() {
  OpticalSystem sys;
  sys.wavelength_nm = 248.0;
  sys.na = 0.68;
  sys.source.shape = SourceShape::kAnnular;
  sys.source.sigma_outer = 0.8;
  sys.source.sigma_inner = 0.5;
  sys.source.grid = 5;
  return sys;
}

Frame test_frame(std::size_t n = 256) {
  Frame f;
  f.pixel_nm = 8.0;
  f.nx = n;
  f.ny = n;
  f.origin = {-static_cast<geom::Coord>(n) * 4, -static_cast<geom::Coord>(n) * 4};
  return f;
}

/// The Abbe aerial image of \p mask at \p defocus_nm.
Image abbe_aerial(const Image& mask, double defocus_nm = 0.0) {
  return form_image(
      *PupilCache::instance().get(test_optics(), mask.frame(), defocus_nm),
      mask);
}

TEST(SourceSampling, CircularContainsCenter) {
  OpticalSystem sys = test_optics();
  sys.source.shape = SourceShape::kCircular;
  sys.source.sigma_outer = 0.6;
  sys.source.grid = 5;
  const auto pts = sample_source(sys);
  EXPECT_GT(pts.size(), 10u);
  double wsum = 0;
  for (const auto& p : pts) wsum += p.weight;
  EXPECT_NEAR(wsum, 1.0, 1e-12);
  // All points inside sigma_outer * NA / lambda.
  const double rmax = 0.6 * sys.na / sys.wavelength_nm;
  for (const auto& p : pts) {
    EXPECT_LE(std::hypot(p.fx, p.fy), rmax + 1e-12);
  }
}

TEST(SourceSampling, AnnularExcludesInner) {
  const OpticalSystem sys = test_optics();
  const auto pts = sample_source(sys);
  const double f_na = sys.na / sys.wavelength_nm;
  for (const auto& p : pts) {
    const double r = std::hypot(p.fx, p.fy) / f_na;
    EXPECT_GE(r, sys.source.sigma_inner - 1e-12);
    EXPECT_LE(r, sys.source.sigma_outer + 1e-12);
  }
}

TEST(SourceSampling, DegenerateSpecThrows) {
  OpticalSystem sys = test_optics();
  sys.source.grid = 1;  // single center point, excluded by the annulus
  EXPECT_THROW(sample_source(sys), util::CheckError);
}

// source_pupils skips the rows and columns whose fy² or fx² alone
// exceeds the pupil cutoff. Its scan must equal pupil_transmission
// called on every bin, bit for bit: on a non-square frame where the
// pupil sits far inside the spectrum, and on a coarse one that clips it.
TEST(SourcePupils, ScanEqualsEveryBinBitForBit) {
  struct Case {
    const char* name;
    OpticalSystem sys;
    double defocus_nm = 0.0;
  };
  std::vector<Case> cases(4, Case{"", test_optics()});
  cases[0].name = "annular, defocus and coma";
  cases[0].defocus_nm = 120.0;
  cases[0].sys.aberrations.coma_x_nm = 15.0;
  cases[0].sys.aberrations.coma_y_nm = -8.0;
  cases[1].name = "circular, astigmatism";
  cases[1].sys.source.shape = SourceShape::kCircular;
  cases[1].sys.source.sigma_outer = 0.6;
  cases[1].sys.aberrations.astig_nm = 20.0;
  cases[2].name = "dipole x, defocus";
  cases[2].sys.source.shape = SourceShape::kDipoleX;
  cases[2].defocus_nm = -90.0;
  cases[3].name = "dipole y";
  cases[3].sys.source.shape = SourceShape::kDipoleY;

  Frame fine;
  fine.pixel_nm = 8.0;
  fine.nx = 128;
  fine.ny = 256;
  Frame coarse;  // Nyquist 1/220 nm⁻¹: shifted pupils reach past it
  coarse.pixel_nm = 110.0;
  coarse.nx = 32;
  coarse.ny = 16;
  for (const Frame& frame : {fine, coarse}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + ", pixel " +
                   std::to_string(frame.pixel_nm));
      const SourcePupils got = source_pupils(c.sys, frame, c.defocus_nm);
      const std::vector<SourcePoint> source = sample_source(c.sys);
      ASSERT_EQ(got.source.size(), source.size());
      for (std::size_t s = 0; s < source.size(); ++s) {
        std::vector<std::uint32_t> support;
        std::vector<Complex> value;
        for (std::size_t ky = 0; ky < frame.ny; ++ky) {
          const double fy = fft_freq(ky, frame.ny) / frame.pixel_nm +
                            source[s].fy;
          for (std::size_t kx = 0; kx < frame.nx; ++kx) {
            const double fx = fft_freq(kx, frame.nx) / frame.pixel_nm +
                              source[s].fx;
            const Complex t = pupil_transmission(c.sys, fx, fy, c.defocus_nm);
            if (t == Complex{0.0, 0.0}) continue;
            support.push_back(
                static_cast<std::uint32_t>(ky * frame.nx + kx));
            value.push_back(t);
          }
        }
        ASSERT_FALSE(support.empty());
        EXPECT_EQ(got.support[s], support) << "source point " << s;
        ASSERT_EQ(got.value[s].size(), value.size());
        EXPECT_EQ(std::memcmp(got.value[s].data(), value.data(),
                              value.size() * sizeof(Complex)),
                  0)
            << "source point " << s;
      }
    }
  }
}

TEST(OpticalSystem, DerivedQuantities) {
  const OpticalSystem sys = test_optics();
  EXPECT_NEAR(sys.rayleigh_nm(), 0.61 * 248.0 / 0.68, 1e-9);
  EXPECT_NEAR(sys.k1(180.0), 180.0 * 0.68 / 248.0, 1e-9);
}

TEST(AbbeImager, ClearFieldNormalizesToOne) {
  const Frame f = test_frame(64);
  Image mask(f, 1.0);
  const Image img = abbe_aerial(mask);
  for (double v : img.values()) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(AbbeImager, DarkFieldIsZero) {
  const Frame f = test_frame(64);
  Image mask(f, 0.0);
  const Image img = abbe_aerial(mask);
  for (double v : img.values()) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(AbbeImager, LargeFeatureEdgeIntensityIsKnifeEdge) {
  // The image of a very large bright feature has ~0.25-0.4 intensity at
  // the geometric edge (knife-edge diffraction), approaching 1 deep inside
  // and 0 far outside.
  const Frame f = test_frame(512);
  const Region big{Rect(-1900, -2000, 0, 2000)};  // edge at x=0
  const Image img = abbe_aerial(rasterize(big, f));
  const double inside = img.sample(-1000, 0);
  const double at_edge = img.sample(0, 0);
  const double outside = img.sample(500, 0);
  EXPECT_NEAR(inside, 1.0, 0.08);
  EXPECT_GT(at_edge, 0.2);
  EXPECT_LT(at_edge, 0.45);
  EXPECT_LT(outside, 0.05);
}

TEST(AbbeImager, ImageInheritsMaskSymmetry) {
  const Frame f = test_frame(128);
  // Mask symmetric about x=0 (line centered at origin).
  const Region line{Rect(-90, -400, 90, 400)};
  const Image img = abbe_aerial(rasterize(line, f));
  for (double x : {40.0, 120.0, 200.0}) {
    EXPECT_NEAR(img.sample(x, 0), img.sample(-x, 0), 1e-9) << x;
  }
}

TEST(AbbeImager, DenseGratingShowsModulation) {
  const Frame f = test_frame(256);
  std::vector<geom::Rect> lines;
  for (int i = -3; i <= 3; ++i) {
    lines.emplace_back(i * 360 - 90, -800, i * 360 + 90, 800);
  }
  const Image img =
      abbe_aerial(rasterize(Region::from_rects(lines), f));
  const double on_line = img.sample(0, 0);
  const double on_space = img.sample(180, 0);
  EXPECT_GT(on_line, on_space + 0.2) << "no modulation through 360nm pitch";
}

TEST(AbbeImager, SubResolutionPitchLosesContrast) {
  // Pitch below lambda/(NA(1+sigma_out)) carries no first diffraction
  // order: the image is nearly flat (contrast collapse).
  const Frame f = test_frame(256);
  auto contrast_at_pitch = [&](geom::Coord pitch) {
    std::vector<geom::Rect> lines;
    for (int i = -8; i <= 8; ++i) {
      lines.emplace_back(i * pitch - pitch / 4, -800, i * pitch + pitch / 4,
                         800);
    }
    const Image img =
        abbe_aerial(rasterize(Region::from_rects(lines), f));
    const double on = img.sample(0, 0);
    const double off = img.sample(static_cast<double>(pitch) / 2, 0);
    return (on - off) / (on + off);
  };
  EXPECT_GT(contrast_at_pitch(360), 0.4);
  EXPECT_LT(contrast_at_pitch(160), 0.08);  // < cutoff pitch ~203nm
}

TEST(AbbeImager, DefocusDegradesContrast) {
  const Frame f = test_frame(256);
  std::vector<geom::Rect> lines;
  for (int i = -4; i <= 4; ++i) {
    lines.emplace_back(i * 360 - 90, -800, i * 360 + 90, 800);
  }
  const Image mask = rasterize(Region::from_rects(lines), f);
  auto contrast = [&](double z) {
    const Image img = abbe_aerial(mask, z);
    const double on = img.sample(0, 0);
    const double off = img.sample(180, 0);
    return (on - off) / (on + off);
  };
  const double c0 = contrast(0.0);
  const double c400 = contrast(400.0);
  EXPECT_GT(c0, c400 + 0.05) << "defocus must reduce contrast";
}

TEST(AbbeImager, DefocusIsSymmetric) {
  // Aberration-free scalar model: +z and -z give identical images.
  const Frame f = test_frame(128);
  const Region line{Rect(-90, -400, 90, 400)};
  const Image mask = rasterize(line, f);
  const Image plus = abbe_aerial(mask, 300.0);
  const Image minus = abbe_aerial(mask, -300.0);
  for (std::size_t i = 0; i < plus.values().size(); ++i) {
    EXPECT_NEAR(plus.values()[i], minus.values()[i], 1e-9);
  }
}

TEST(AbbeImager, RejectsWrongFrame) {
  const auto set = PupilCache::instance().get(test_optics(), test_frame(64),
                                             0.0);
  Image mask(test_frame(128));
  EXPECT_THROW(form_image(*set, mask), util::CheckError);
}

}  // namespace
}  // namespace opckit::litho
