#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "bench.h"
#include "core/fragment.h"
#include "core/model.h"
#include "layout/gdsii.h"
#include "litho/fft.h"
#include "litho/simulator.h"
#include "litho/socs.h"
#include "mrc/mrc.h"
#include "util/strings.h"

namespace opcbench {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

litho::SimSpec calibrated_socs_process(double epsilon, double pixel_nm) {
  litho::SimSpec s;
  s.pixel_nm = pixel_nm;
  s.optics.wavelength_nm = 248.0;
  s.optics.na = 0.68;
  s.optics.source.shape = litho::SourceShape::kAnnular;
  s.optics.source.sigma_outer = 0.8;
  s.optics.source.sigma_inner = 0.5;
  s.optics.source.grid = 21;
  s.imaging = litho::ImagingMode::kSocs;
  s.socs_epsilon = epsilon;
  litho::calibrate_threshold(s, 180, 360);
  return s;
}

void prime_imaging(const litho::SimSpec& sim, const geom::Rect& window) {
  const litho::Simulator s(sim, window);
  geom::Region probe(geom::Rect(window.lo, window.lo + geom::Point{180, 180}));
  (void)s.latent(probe);
}

void clear_imaging_caches() {
  litho::KernelCache::instance().clear();
  litho::PlanCache::instance().clear();
}

std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::uint64_t h = 1469598103934665603ULL;
  char buf[1 << 15];
  while (in) {
    in.read(buf, sizeof buf);
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<std::uint8_t>(buf[i])) * 1099511628211ULL;
    }
  }
  return h;
}

std::size_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::size_t>(in.tellg()) : 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Quality score_output(const Input& input, const std::string& out_path,
                     const opc::FlowSpec& spec,
                     const litho::SimSpec& metrology_sim) {
  const layout::Library lib = layout::read_gdsii_file(out_path);
  const std::vector<geom::Polygon> mask =
      lib.flatten(input.top, spec.output_layer);
  Quality q;
  for (const auto& p : mask) q.vertices += p.size();

  const mrc::MrcReport report = mrc::check_polygons(mask, mrc::mask_deck_180());
  q.mrc_violations = report.violations.size();
  for (const mrc::Violation& v : report.violations) {
    if (v.kind != mrc::CheckKind::kJog) ++q.mrc_errors;
  }

  const double probe = spec.opc.probe_range_nm;
  for (const Tile& site : input.score_sites) {
    const geom::Rect reach = site.window.inflated(spec.halo_nm);
    std::vector<geom::Polygon> near;
    for (const auto& p : mask) {
      if (!p.bbox().intersected(reach).is_empty()) near.push_back(p);
    }
    const std::vector<geom::Polygon> targets = opc::merge_targets(site.own);
    const auto frags =
        opc::fragment_polygons(targets, spec.opc.fragmentation);
    const auto epe = opc::measure_fragment_epe(targets, frags, near,
                                               metrology_sim, site.window,
                                               probe);
    double worst = 0.0;
    for (std::size_t i = 0; i < frags.size(); ++i) {
      if (frags[i].kind == opc::FragmentKind::kCorner) continue;
      const double e = std::isfinite(epe[i]) ? std::abs(epe[i]) : probe;
      worst = std::max(worst, e);
      q.sum_sq_epe += e * e;
      ++q.sites;
    }
    q.site_worst_epe_nm.push_back(worst);
  }
  return q;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::pair<double, double> tail_with_ten_beyond(std::vector<double> v) {
  if (v.empty()) return {0.0, 100.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) return {v.back(), 100.0};
  const std::size_t rank = n - 11;  // ten samples strictly above this one
  return {v[rank], 100.0 * static_cast<double>(rank + 1) /
                       static_cast<double>(n)};
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  return util::format_double(v);
}

}  // namespace opcbench
