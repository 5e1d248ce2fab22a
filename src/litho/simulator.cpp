#include "litho/simulator.h"

#include <cmath>
#include <limits>

#include "litho/fft.h"
#include "litho/metrology.h"
#include "litho/raster.h"
#include "trace/metrics.h"
#include "util/check.h"

namespace opckit::litho {

namespace {

Frame make_frame(const SimSpec& spec, const geom::Rect& window) {
  OPCKIT_CHECK(!window.is_empty());
  OPCKIT_CHECK(spec.pixel_nm > 0);
  OPCKIT_CHECK(spec.guard_nm >= 0);
  const geom::Rect padded = window.inflated(spec.guard_nm);
  const auto need_x = static_cast<std::size_t>(
      std::ceil(static_cast<double>(padded.width()) / spec.pixel_nm));
  const auto need_y = static_cast<std::size_t>(
      std::ceil(static_cast<double>(padded.height()) / spec.pixel_nm));
  Frame f;
  f.pixel_nm = spec.pixel_nm;
  f.nx = next_pow2(need_x);
  f.ny = next_pow2(need_y);
  // Center the padded window inside the (possibly larger) pow2 grid.
  const auto extra_x = static_cast<geom::Coord>(
      (static_cast<double>(f.nx) * spec.pixel_nm -
       static_cast<double>(padded.width())) /
      2.0);
  const auto extra_y = static_cast<geom::Coord>(
      (static_cast<double>(f.ny) * spec.pixel_nm -
       static_cast<double>(padded.height())) /
      2.0);
  f.origin = padded.lo - geom::Point{extra_x, extra_y};
  return f;
}

}  // namespace

Simulator::Simulator(const SimSpec& spec, const geom::Rect& window)
    : spec_(spec), window_(window), frame_(make_frame(spec, window)) {}

Image Simulator::image(const geom::Region& mask, double defocus_nm,
                       double diffusion_nm) const {
  trace::metrics().counter(trace::metric::kLithoAerialImages).add();
  const Image coverage = rasterize(mask, frame_);
  const std::shared_ptr<const KernelSet> set =
      kernel_set(spec_.imaging, spec_.optics, frame_, defocus_nm, spec_.mask,
                 SocsOptions{spec_.socs_epsilon});
  return form_image(*set, coverage, spec_.mask, diffusion_nm);
}

Image Simulator::aerial(const geom::Region& mask, double defocus_nm) const {
  return image(mask, defocus_nm, 0.0);
}

Image Simulator::latent(const geom::Region& mask, double defocus_nm) const {
  return image(mask, defocus_nm, spec_.resist.diffusion_nm);
}

Image Simulator::latent(std::span<const geom::Polygon> mask,
                        double defocus_nm) const {
  return latent(geom::Region::from_polygons(mask), defocus_nm);
}

geom::Region Simulator::printed(const Image& latent_img, double dose) const {
  OPCKIT_CHECK(latent_img.frame() == frame_);
  const double thr = threshold(dose);
  const auto px = static_cast<geom::Coord>(std::llround(frame_.pixel_nm));
  OPCKIT_CHECK_MSG(std::abs(frame_.pixel_nm - static_cast<double>(px)) < 1e-9,
                   "printed() requires integer pixel size");
  std::vector<geom::Rect> rects;
  for (std::size_t iy = 0; iy < frame_.ny; ++iy) {
    const geom::Coord y0 = frame_.origin.y + static_cast<geom::Coord>(iy) * px;
    std::size_t run_start = 0;
    bool in_run = false;
    for (std::size_t ix = 0; ix <= frame_.nx; ++ix) {
      const bool on = ix < frame_.nx && latent_img.at(ix, iy) >= thr;
      if (on && !in_run) {
        run_start = ix;
        in_run = true;
      } else if (!on && in_run) {
        rects.emplace_back(
            frame_.origin.x + static_cast<geom::Coord>(run_start) * px, y0,
            frame_.origin.x + static_cast<geom::Coord>(ix) * px, y0 + px);
        in_run = false;
      }
    }
  }
  return geom::Region::from_rects(rects).clipped(window_);
}

Image double_exposure_latent(const SimSpec& spec_a,
                             const geom::Region& mask_a,
                             const SimSpec& spec_b,
                             const geom::Region& mask_b,
                             const geom::Rect& window, double weight_a,
                             double weight_b, double defocus_nm) {
  OPCKIT_CHECK(spec_a.pixel_nm == spec_b.pixel_nm &&
               spec_a.guard_nm == spec_b.guard_nm);
  OPCKIT_CHECK(weight_a >= 0 && weight_b >= 0 &&
               weight_a + weight_b > 0);
  const Simulator sim_a(spec_a, window);
  const Simulator sim_b(spec_b, window);
  OPCKIT_CHECK(sim_a.frame() == sim_b.frame());
  const Image aerial_a = sim_a.aerial(mask_a, defocus_nm);
  const Image aerial_b = sim_b.aerial(mask_b, defocus_nm);
  Image sum(sim_a.frame());
  for (std::size_t i = 0; i < sum.values().size(); ++i) {
    sum.values()[i] = weight_a * aerial_a.values()[i] +
                      weight_b * aerial_b.values()[i];
  }
  return latent_image(sum, spec_a.resist);
}

double calibrate_threshold(SimSpec& spec, geom::Coord anchor_cd_nm,
                           geom::Coord anchor_pitch_nm) {
  OPCKIT_CHECK(anchor_cd_nm > 0 && anchor_pitch_nm >= anchor_cd_nm);
  // Build the anchor grating: 7 lines, generous length.
  const geom::Coord length = 4000;
  std::vector<geom::Rect> lines;
  for (int i = -3; i <= 3; ++i) {
    const geom::Coord cx = static_cast<geom::Coord>(i) * anchor_pitch_nm;
    lines.emplace_back(cx - anchor_cd_nm / 2, -length / 2,
                       cx + anchor_cd_nm / 2, length / 2);
  }
  const geom::Rect window(-2 * anchor_pitch_nm, -length / 4,
                          2 * anchor_pitch_nm, length / 4);
  const Simulator sim(spec, window);
  const Image img = sim.latent(geom::Region::from_rects(lines));

  // Monotone: higher threshold -> narrower printed line. Bisect. A NaN
  // probe is disambiguated by the center intensity: still above threshold
  // means the line merged with its neighbors (effectively infinitely
  // wide), below means it vanished (width zero).
  const double span = static_cast<double>(anchor_pitch_nm);
  const auto cd_at = [&](double thr) {
    const double cd = printed_cd(img, {0, 0}, {1, 0}, span, thr);
    if (!std::isnan(cd)) return cd;
    return img.sample(0, 0) >= thr
               ? std::numeric_limits<double>::infinity()
               : 0.0;
  };
  double lo = 0.05, hi = 0.95;
  const double target = static_cast<double>(anchor_cd_nm);
  OPCKIT_CHECK_MSG(cd_at(lo) > target,
                   "anchor cannot print wide enough at threshold " << lo);
  OPCKIT_CHECK_MSG(cd_at(hi) < target,
                   "anchor prints too wide even at threshold " << hi);
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (cd_at(mid) < target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  const double thr = 0.5 * (lo + hi);
  // Guard against degenerate "calibration" on a zero-contrast image (an
  // anchor beyond the optics' resolution): require real modulation and
  // that the anchor actually prints on target at the found threshold.
  const double modulation =
      img.sample(0, 0) -
      img.sample(static_cast<double>(anchor_pitch_nm) / 2.0, 0);
  OPCKIT_CHECK_MSG(modulation > 0.10,
                   "anchor grating has no printable contrast (modulation "
                       << modulation << ")");
  const double final_cd = cd_at(thr);
  OPCKIT_CHECK_MSG(std::abs(final_cd - target) <= 2.0,
                   "calibration failed to converge: cd " << final_cd
                                                         << " target "
                                                         << target);
  spec.resist.threshold = thr;
  return spec.resist.threshold;
}

}  // namespace opckit::litho
