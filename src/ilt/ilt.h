/// \file ilt.h
/// Pixel-based inverse lithography (ILT): the third correction engine,
/// beside rule OPC (geometric tables) and model OPC (edge fragments +
/// feedback). Instead of moving the edges of the drawn shapes, ILT
/// treats the mask as a free pixel field over the simulation frame and
/// descends the gradient of an imaging cost — it can synthesize mask
/// topologies no edge mover reaches (hammerheads, holes, free-floating
/// assists), which is what the hardest patterns (tip-to-tip, dense
/// contacts, forbidden pitches) need once model OPC has converged to
/// its geometric floor.
///
/// The engine is differentiable end to end because imaging is SOCS:
///
///     I(x) = sum_k lambda_k * |IFFT(spectrum * phi_k)(x)|^2
///
/// is a smooth function of the pixel transmissions, the resist proxy is
/// a sigmoid of the diffused latent image, and the cost is a weighted
/// L2 distance between the predicted print and the rasterized target.
/// The adjoint reuses the planned FFT engine for every transform — the
/// forward mask spectrum goes through Fft2d::forward_real, the per-
/// kernel coherent fields through SparseInverseBatch::inverse_field
/// (the complex sibling of the fused-|.|^2 imaging path), and the
/// gradient assembles as
///
///     dC/dt(y) = 2 * Re[ FFT( sum_k lambda_k * phi_k
///                             . IFFT(gI . conj(E_k)) )(y) ]
///
/// with gI the cost gradient pulled back through the sigmoid and the
/// (self-adjoint) resist blur. One forward pass plus one adjoint pass
/// costs ~2 transforms per kernel — the same order as a simulation.
///
/// Optimization is projected gradient descent: pixels whose centers lie
/// inside the correction window are free in [0, 1]; everything outside
/// is frozen context (locked exactly like model OPC's out-of-window
/// fragments). The loop is serial and allocation-stable, so a tile's
/// result is a pure function of its inputs — the flow's jobs=1 vs
/// jobs=8 byte-identity contract holds for ILT tiles unchanged.
///
/// The continuous mask is not manufacturable; legalize_mask() snaps it
/// back to Manhattan polygons on the pixel grid and then repairs the
/// result against mask-rule floors (min width, min space/notch, facing
/// convex corners, min area) by iterating pixel-aligned morphological
/// closing/opening plus corner bridging to a fixed point. Every
/// coordinate stays on the pixel grid, so re-legalizing a legalized
/// mask is exact (idempotent) and the output survives the same MRC
/// signoff gate as the other engines.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geometry/polygon.h"
#include "geometry/rect.h"
#include "geometry/region.h"
#include "litho/fft.h"
#include "litho/image.h"
#include "litho/simulator.h"
#include "litho/socs.h"

namespace opckit::ilt {

/// Pixel-ILT knobs. Defaults are tuned for the 180 nm deck
/// (mrc::mask_deck_180) on the 8 nm simulation pixel: the legalizer
/// floors are pixel multiples at or above the deck values, so the
/// repaired output passes the signoff gate by construction.
struct IltSpec {
  /// Gradient-descent iteration cap.
  int max_iterations = 60;
  /// Initial step in mask units per iteration (the gradient is
  /// L-inf normalized). Halved on cost regressions (deterministic
  /// backtracking), never re-grown.
  double step = 0.4;
  /// Sigmoid steepness a in z = sigma(a * (latent - threshold)), in
  /// inverse clear-field-intensity units. Larger is closer to the hard
  /// resist threshold but propagates less gradient from far pixels.
  double sigmoid_steepness = 45.0;
  /// Extra cost weight multiplier inside the edge band (the EPE-
  /// weighted cost: print fidelity at target edges dominates).
  double edge_weight = 4.0;
  /// Half-width of the edge band around target contours, nm.
  double edge_band_nm = 24.0;
  /// Relative cost-improvement floor: an accepted step that improves
  /// the cost by less than this fraction ends the loop (converged).
  double convergence_tol = 1e-3;

  /// Legalization: coverage at or above this prints a mask pixel.
  double mask_threshold = 0.5;
  /// Legalized minimum feature width, nm (rounded up to an even pixel
  /// multiple; 64 covers the deck's 60).
  geom::Coord min_width_nm = 64;
  /// Legalized minimum gap, nm. Gaps below this are closed shut, which
  /// also clears every notch rule at or below it (80 covers both the
  /// deck's space 60 and notch 80).
  geom::Coord min_space_nm = 80;
  /// Facing convex corner-to-corner floor, nm (Chebyshev, the MRC006
  /// geometry). Closer pairs are bridged solid.
  geom::Coord min_corner_nm = 64;
  /// Connected components below this area are dropped, nm^2.
  double min_area_nm2 = 6400.0;
};

/// Result of one pixel-ILT tile.
struct IltResult {
  /// Legalized window geometry plus the locked context polygons
  /// (normalized, byte-identical to the input) — the same contract as
  /// ModelOpcResult::corrected.
  std::vector<geom::Polygon> corrected;
  int iterations = 0;       ///< accepted gradient steps
  double initial_cost = 0;  ///< cost of the drawn mask
  double final_cost = 0;    ///< cost of the final continuous mask
  bool converged = false;   ///< hit convergence_tol before the cap
  /// Final continuous pixel mask (pre-legalization), for introspection
  /// and the escalation bench.
  litho::Image mask;
};

/// Logistic sigmoid sigma(x) = 1 / (1 + exp(-x)). Exposed for the
/// monotonicity test; the resist proxy is sigma(a * (latent - thr)).
double sigmoid(double x);

/// The differentiable pixel-ILT objective over one simulation frame:
/// cost and adjoint gradient of the weighted print error as a function
/// of the full pixel mask. Exposed (rather than folded into
/// run_pixel_ilt) so the finite-difference test can probe the adjoint
/// directly. Immutable after construction; cost/cost_and_gradient are
/// const and reentrant.
class PixelProblem {
 public:
  /// \p targets: drawn polygons — window shapes to re-synthesize plus
  /// frozen context. \p sim must carry a calibrated resist threshold.
  PixelProblem(const std::vector<geom::Polygon>& targets,
               const litho::SimSpec& sim, const geom::Rect& window,
               const IltSpec& spec);

  const litho::Frame& frame() const { return frame_; }
  std::size_t size() const { return target_.size(); }
  /// Rasterized drawn coverage — the descent's starting point.
  const std::vector<double>& initial() const { return target_; }
  /// 1 where the pixel center is inside the window (optimizable).
  const std::vector<std::uint8_t>& free_mask() const { return free_; }

  /// Weighted print-error cost of mask \p m (values in [0, 1],
  /// size() entries). One forward simulation.
  double cost(const std::vector<double>& m) const;

  /// Cost plus the full unconstrained gradient dC/dm (the caller
  /// applies the free-pixel projection). ~2x the cost of cost().
  double cost_and_gradient(const std::vector<double>& m,
                           std::vector<double>& grad) const;

 private:
  litho::Frame frame_;
  geom::Rect window_;
  double threshold_;   ///< calibrated resist threshold
  double steepness_;   ///< sigmoid a
  double diffusion_;   ///< resist diffusion sigma, nm
  double t_bg_;        ///< mask background amplitude
  litho::Fft2d fft2_;
  std::shared_ptr<const litho::KernelSet> set_;
  litho::SparseInverseBatch batch_;
  std::vector<double> target_;  ///< rasterized drawn coverage
  std::vector<double> weight_;  ///< per-pixel cost weight (0 = ignored)
  std::vector<std::uint8_t> free_;
};

/// Snap a continuous pixel mask to Manhattan polygons and repair it
/// against the IltSpec floors: threshold at mask_threshold over the
/// window, then iterate pixel-aligned closing (gaps/notches below
/// min_space_nm), opening (features below min_width_nm) and facing-
/// corner bridging to a fixed point, then drop components below
/// min_area_nm2. All output coordinates lie on the frame's pixel grid
/// inside \p window; re-legalizing the rasterized result is exact.
geom::Region legalize_mask(const litho::Image& mask,
                           const geom::Rect& window, const IltSpec& spec);

/// Run pixel ILT on one tile: descend from the drawn coverage, then
/// legalize. Polygons fully inside \p window are re-synthesized; every
/// other polygon is locked context (returned unchanged, normalized).
/// Deterministic: serial descent, fixed reduction orders.
IltResult run_pixel_ilt(const std::vector<geom::Polygon>& targets,
                        const litho::SimSpec& sim, const geom::Rect& window,
                        const IltSpec& spec);

}  // namespace opckit::ilt
