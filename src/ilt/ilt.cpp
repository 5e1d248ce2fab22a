#include "ilt/ilt.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/edge.h"
#include "geometry/point.h"
#include "litho/fft.h"
#include "litho/raster.h"
#include "litho/resist.h"
#include "litho/socs.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/check.h"

namespace opckit::ilt {

using geom::Coord;
using geom::Point;
using geom::Polygon;
using geom::Rect;
using geom::Region;
using litho::Complex;

namespace {

void validate(const IltSpec& spec) {
  OPCKIT_CHECK(spec.max_iterations >= 1);
  OPCKIT_CHECK(spec.step > 0.0);
  OPCKIT_CHECK(spec.sigmoid_steepness > 0.0);
  OPCKIT_CHECK(spec.edge_weight >= 0.0);
  OPCKIT_CHECK(spec.edge_band_nm >= 0.0);
  OPCKIT_CHECK(spec.convergence_tol >= 0.0);
  OPCKIT_CHECK(spec.mask_threshold > 0.0 && spec.mask_threshold < 1.0);
  OPCKIT_CHECK(spec.min_width_nm > 0 && spec.min_space_nm > 0 &&
               spec.min_corner_nm > 0);
  OPCKIT_CHECK(spec.min_area_nm2 >= 0.0);
}

/// The frame the Simulator would image this window on (window plus
/// guard band, power-of-two dims) — ILT must optimize on exactly the
/// frame the production simulations use.
litho::Frame frame_for(const litho::SimSpec& sim, const Rect& window) {
  return litho::Simulator(sim, window).frame();
}

/// Round \p v up to a positive multiple of \p unit.
Coord round_up(Coord v, Coord unit) {
  return ((std::max<Coord>(v, 1) + unit - 1) / unit) * unit;
}

}  // namespace

double sigmoid(double x) {
  // Evaluate via the non-overflowing branch for either sign.
  if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

PixelProblem::PixelProblem(const std::vector<Polygon>& targets,
                           const litho::SimSpec& sim, const Rect& window,
                           const IltSpec& spec)
    : frame_(frame_for(sim, window)),
      window_(window),
      threshold_(sim.resist.threshold),
      steepness_(spec.sigmoid_steepness),
      diffusion_(sim.resist.diffusion_nm),
      t_bg_(sim.mask.background_amplitude()),
      fft2_(frame_.nx, frame_.ny),
      set_(litho::KernelCache::instance().get(
          sim.optics, frame_, 0.0, sim.mask,
          litho::SocsOptions{sim.socs_epsilon})),
      batch_(fft2_, set_->support) {
  validate(spec);
  OPCKIT_CHECK_MSG(threshold_ > 0.0,
                   "pixel ILT needs a calibrated resist threshold");
  const Region tgt = Region::from_polygons(targets);
  target_ = litho::rasterize(tgt, frame_).values();

  // Cost weight: pixels outside the window carry no cost (their print
  // is the neighbouring tiles' business), in-window pixels weigh 1,
  // and the band straddling target contours weighs 1 + edge_weight —
  // the pixel analogue of model OPC's per-fragment EPE sites.
  const auto band = static_cast<Coord>(std::lround(spec.edge_band_nm));
  std::vector<double> band_cov(target_.size(), 0.0);
  if (spec.edge_weight > 0.0 && band > 0 && !tgt.empty()) {
    const std::vector<double> outer =
        litho::rasterize(tgt.inflated(band), frame_).values();
    const std::vector<double> inner =
        litho::rasterize(tgt.inflated(-band), frame_).values();
    for (std::size_t i = 0; i < band_cov.size(); ++i) {
      band_cov[i] = std::max(0.0, outer[i] - inner[i]);
    }
  }
  weight_.assign(target_.size(), 0.0);
  free_.assign(target_.size(), 0);
  for (std::size_t iy = 0; iy < frame_.ny; ++iy) {
    for (std::size_t ix = 0; ix < frame_.nx; ++ix) {
      const std::size_t i = iy * frame_.nx + ix;
      const Point center(frame_.origin.x +
                             static_cast<Coord>(std::lround(
                                 (static_cast<double>(ix) + 0.5) *
                                 frame_.pixel_nm)),
                         frame_.origin.y +
                             static_cast<Coord>(std::lround(
                                 (static_cast<double>(iy) + 0.5) *
                                 frame_.pixel_nm)));
      if (!window_.contains_strict(center)) continue;
      free_[i] = 1;
      weight_[i] = 1.0 + spec.edge_weight * band_cov[i];
    }
  }
}

double PixelProblem::cost(const std::vector<double>& m) const {
  OPCKIT_CHECK(m.size() == target_.size());
  const std::size_t n = m.size();
  // Forward: transmission -> spectrum -> fused Σ λ_k·|IFFT|^2.
  std::vector<double> trans(n);
  for (std::size_t i = 0; i < n; ++i) {
    trans[i] = m[i] + (1.0 - m[i]) * t_bg_;
  }
  std::vector<Complex> spectrum;
  fft2_.forward_real(std::span<const double>(trans), spectrum);
  litho::Image intensity(frame_, 0.0);
  batch_.accumulate_intensity(spectrum.data(), litho::intensity_terms(*set_),
                              intensity.values());
  const litho::Image latent = litho::gaussian_blur(intensity, diffusion_);
  double c = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (weight_[i] == 0.0) continue;
    const double z =
        sigmoid(steepness_ * (latent.values()[i] - threshold_));
    const double r = z - target_[i];
    c += weight_[i] * r * r;
  }
  return c;
}

double PixelProblem::cost_and_gradient(const std::vector<double>& m,
                                       std::vector<double>& grad) const {
  OPCKIT_CHECK(m.size() == target_.size());
  const std::size_t n = m.size();
  std::vector<double> trans(n);
  for (std::size_t i = 0; i < n; ++i) {
    trans[i] = m[i] + (1.0 - m[i]) * t_bg_;
  }
  std::vector<Complex> spectrum;
  fft2_.forward_real(std::span<const double>(trans), spectrum);

  // Forward pass, keeping the coherent fields E_k — the adjoint needs
  // conj(E_k), not just the fused magnitudes.
  std::vector<std::vector<Complex>> fields(set_->kernels.size());
  litho::Image intensity(frame_, 0.0);
  for (std::size_t k = 0; k < set_->kernels.size(); ++k) {
    batch_.inverse_field(spectrum.data(), set_->kernels[k].value, fields[k]);
    double* acc = intensity.values().data();
    const double w = set_->kernels[k].weight;
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] += w * std::norm(fields[k][i]);
    }
  }
  const litho::Image latent = litho::gaussian_blur(intensity, diffusion_);

  // Cost and its gradient w.r.t. the latent image, through the sigmoid:
  // dC/dL = 2 w (z - T) * a * z * (1 - z).
  double c = 0.0;
  litho::Image g_latent(frame_, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (weight_[i] == 0.0) continue;
    const double z =
        sigmoid(steepness_ * (latent.values()[i] - threshold_));
    const double r = z - target_[i];
    c += weight_[i] * r * r;
    g_latent.values()[i] =
        2.0 * weight_[i] * r * steepness_ * z * (1.0 - z);
  }

  // Pull back through the resist blur (a real symmetric transfer is
  // self-adjoint) to the aerial intensity.
  const litho::Image g_int = litho::gaussian_blur(g_latent, diffusion_);

  // Adjoint of the SOCS sum: accumulate on the shared sparse support
  //   Q(f) = sum_k lambda_k * phi_k(f) * IFFT(gI . conj(E_k))(f),
  // then one dense forward FFT lands the gradient in pixel space:
  //   dC/dt(y) = 2 Re[FFT(Q)(y)].
  std::vector<Complex> work(n);
  std::vector<Complex> q(set_->support.size(), Complex{0.0, 0.0});
  for (std::size_t k = 0; k < set_->kernels.size(); ++k) {
    const double* gi = g_int.values().data();
    for (std::size_t i = 0; i < n; ++i) {
      work[i] = gi[i] * std::conj(fields[k][i]);
    }
    fft2_.inverse(work);
    const double w = set_->kernels[k].weight;
    const std::vector<Complex>& phi = set_->kernels[k].value;
    for (std::size_t j = 0; j < set_->support.size(); ++j) {
      q[j] += w * phi[j] * work[set_->support[j]];
    }
  }
  std::fill(work.begin(), work.end(), Complex{0.0, 0.0});
  for (std::size_t j = 0; j < set_->support.size(); ++j) {
    work[set_->support[j]] = q[j];
  }
  fft2_.forward(work);

  // Chain to the mask pixels: t = m + (1 - m) t_bg, dt/dm = 1 - t_bg.
  grad.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] = 2.0 * work[i].real() * (1.0 - t_bg_);
  }
  return c;
}

Region legalize_mask(const litho::Image& mask, const Rect& window,
                     const IltSpec& spec) {
  validate(spec);
  const litho::Frame& f = mask.frame();
  const auto px = static_cast<Coord>(std::lround(f.pixel_nm));
  OPCKIT_CHECK_MSG(px > 0 && static_cast<double>(px) == f.pixel_nm,
                   "legalization needs an integer pixel pitch");
  // Morphology radii snap UP to pixel multiples so every intermediate
  // coordinate stays on the pixel grid — that is what makes
  // legalize(rasterize(legalize(m))) exact.
  const Coord open_r = round_up((spec.min_width_nm + 1) / 2, px);
  const Coord close_r = round_up((spec.min_space_nm + 1) / 2, px);

  // Threshold: window pixels at or above mask_threshold. Frozen context
  // outside the window is never emitted — the tile contract is window
  // geometry only, same as model OPC.
  std::vector<Rect> cells;
  for (std::size_t iy = 0; iy < f.ny; ++iy) {
    for (std::size_t ix = 0; ix < f.nx; ++ix) {
      if (mask.values()[iy * f.nx + ix] < spec.mask_threshold) continue;
      const Rect cell(f.origin.x + static_cast<Coord>(ix) * px,
                      f.origin.y + static_cast<Coord>(iy) * px,
                      f.origin.x + static_cast<Coord>(ix + 1) * px,
                      f.origin.y + static_cast<Coord>(iy + 1) * px);
      if (window.contains(cell)) cells.push_back(cell);
    }
  }
  Region region = Region::from_rects(cells);

  // Repair loop: closing clears sub-min_space gaps and notches, opening
  // clears sub-min_width features, and facing convex corner pairs
  // closer than min_corner_nm (the MRC006 geometry: NE openers vs SW,
  // SE vs NW) are bridged with a block wide enough to survive the next
  // opening. Each pass can expose work for the others, so iterate to a
  // fixed point; the round cap is a backstop, not the common exit.
  constexpr int kMaxRounds = 16;
  int rounds = 0;
  for (; rounds < kMaxRounds; ++rounds) {
    const Region before = region;
    region = region.closed(close_r).opened(open_r);

    struct Corner {
      Point pt;
      Point diag;  ///< exterior-opening diagonal (unit components)
    };
    std::vector<Corner> corners;
    for (const Polygon& ring : region.polygons()) {
      const std::size_t nv = ring.size();
      for (std::size_t i = 0; i < nv; ++i) {
        const geom::Edge cur = ring.edge(i);
        const geom::Edge next = ring.edge((i + 1) % nv);
        if (geom::cross(cur.delta(), next.delta()) <= 0) continue;
        const auto unit = [](Point d) {
          return Point((d.x > 0) - (d.x < 0), (d.y > 0) - (d.y < 0));
        };
        corners.push_back({cur.b, unit(cur.delta()) - unit(next.delta())});
      }
    }
    std::vector<Rect> bridges;
    const auto bridge_pairs = [&](Point a_diag, Point b_diag, bool lower) {
      for (const Corner& a : corners) {
        if (a.diag != a_diag) continue;
        for (const Corner& b : corners) {
          if (b.diag != b_diag) continue;
          const Coord dx = b.pt.x - a.pt.x;
          const Coord dy = lower ? a.pt.y - b.pt.y : b.pt.y - a.pt.y;
          if (dx < 0 || dy < 0) continue;
          if (dx >= spec.min_corner_nm || dy >= spec.min_corner_nm) {
            continue;
          }
          const Rect span(std::min(a.pt.x, b.pt.x), std::min(a.pt.y, b.pt.y),
                          std::max(a.pt.x, b.pt.x),
                          std::max(a.pt.y, b.pt.y));
          bridges.push_back(
              span.inflated(open_r).intersected(window));
        }
      }
    };
    bridge_pairs(Point(1, 1), Point(-1, -1), /*lower=*/false);
    bridge_pairs(Point(1, -1), Point(-1, 1), /*lower=*/true);
    if (!bridges.empty()) {
      region = region.united(Region::from_rects(bridges));
    }
    if (region == before) break;
  }

  // Area floor: drop whole components, which cannot create new
  // violations between the survivors.
  if (spec.min_area_nm2 > 0.0) {
    std::vector<Region> keep;
    bool dropped = false;
    for (Region& comp : region.components()) {
      if (static_cast<double>(comp.area()) < spec.min_area_nm2) {
        dropped = true;
        continue;
      }
      keep.push_back(std::move(comp));
    }
    if (dropped) {
      Region merged;
      for (const Region& comp : keep) merged = merged.united(comp);
      region = std::move(merged);
    }
  }
  trace::metrics()
      .histogram(trace::metric::kIltLegalizeRounds)
      .observe(static_cast<double>(rounds));
  return region;
}

namespace {

/// Projected gradient descent + legalization, given a built problem.
IltResult run_pixelsolve(const PixelProblem& problem,
                         const std::vector<Polygon>& targets,
                         const Rect& window, const IltSpec& spec) {
  IltResult out;
  std::vector<double> m = problem.initial();
  std::vector<double> grad;
  double cost = problem.cost_and_gradient(m, grad);
  out.initial_cost = cost;
  double step = spec.step;

  std::vector<double> trial(m.size());
  // A single small-improvement step is not convergence: hard patterns
  // (tip-to-tip) put most of the cost in already-solved contour pixels,
  // so the global relative improvement is small while the hot spot is
  // still moving. Require a run of stalled iterations before stopping.
  constexpr int kStallLimit = 3;
  int stalled = 0;
  for (int it = 0; it < spec.max_iterations; ++it) {
    // L-inf normalize over the free pixels so `step` is in mask units.
    double gmax = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (problem.free_mask()[i]) gmax = std::max(gmax, std::abs(grad[i]));
    }
    if (gmax == 0.0) {
      out.converged = true;
      break;
    }

    // Deterministic backtracking: halve on a cost regression, keep the
    // shrunken step (the landscape only gets finer near a minimum).
    bool accepted = false;
    double trial_cost = 0.0;
    for (int bt = 0; bt < 5; ++bt) {
      const double scale = step / gmax;
      for (std::size_t i = 0; i < m.size(); ++i) {
        trial[i] = problem.free_mask()[i]
                       ? std::clamp(m[i] - scale * grad[i], 0.0, 1.0)
                       : m[i];
      }
      trial_cost = problem.cost(trial);
      if (trial_cost < cost) {
        accepted = true;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;

    m.swap(trial);
    ++out.iterations;
    const double improvement = (cost - trial_cost) / std::max(cost, 1e-30);
    cost = trial_cost;
    if (improvement < spec.convergence_tol) {
      if (++stalled >= kStallLimit) {
        out.converged = true;
        break;
      }
    } else {
      stalled = 0;
    }
    if (it + 1 < spec.max_iterations) {
      cost = problem.cost_and_gradient(m, grad);
    }
  }
  out.final_cost = cost;

  out.mask = litho::Image(problem.frame(), 0.0);
  std::copy(m.begin(), m.end(), out.mask.values().begin());

  const Region legal = legalize_mask(out.mask, window, spec);
  out.corrected = legal.polygons();
  for (const Polygon& p : targets) {
    const Polygon norm = p.normalized();
    if (!window.contains(norm.bbox())) out.corrected.push_back(norm);
  }
  return out;
}

}  // namespace

IltResult run_pixel_ilt(const std::vector<Polygon>& targets,
                        const litho::SimSpec& sim, const Rect& window,
                        const IltSpec& spec) {
  trace::Span span("ilt.tile");
  validate(spec);
  OPCKIT_CHECK(!window.is_empty());
  const PixelProblem problem(targets, sim, window, spec);
  IltResult out = run_pixelsolve(problem, targets, window, spec);

  trace::MetricsRegistry& reg = trace::metrics();
  reg.counter(trace::metric::kIltRuns).add(1);
  reg.histogram(trace::metric::kIltIterations)
      .observe(static_cast<double>(out.iterations));
  const double reduction =
      out.initial_cost > 0.0
          ? std::clamp(1.0 - out.final_cost / out.initial_cost, 0.0, 1.0)
          : 0.0;
  reg.histogram(trace::metric::kIltCostReduction).observe(reduction);
  return out;
}

}  // namespace opckit::ilt
