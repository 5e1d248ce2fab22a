/// \file flow.h
/// Full-chip OPC flows over the layout database.
///
/// Two production strategies from the paper era, with opposite tradeoffs:
///
/// * **Cell-level OPC** corrects each distinct cell once, in isolation,
///   and lets the hierarchy replicate the correction. Cost scales with
///   distinct cells; the mask data keeps the hierarchy's compression. But
///   context across cell boundaries is invisible, so boundary edges are
///   corrected against the wrong optical environment.
/// * **Flat (placement-level) OPC** corrects every placement with its true
///   neighbours as context. Accurate everywhere, but cost scales with
///   placements and the output is flat — the hierarchy "explodes".
///
/// Experiment T6 quantifies both sides.
///
/// ## Execution model
///
/// Both flows run on one tiled driver. It takes a list of *work units*
/// (tiles): one per distinct cell with input-layer shapes in the cell
/// flow, in name order; one per placement in the flat flow, in
/// depth-first stack order. A unit holds its drawn input-layer shapes,
/// a window equal to their bounding box (shapes on other layers never
/// widen it), the region it owns, and its latest corrected mask. Each
/// pass runs four *phases* over the units:
///
///   A. **gather** (parallel)  — assemble each tile's simulation input
///      (own drawn shapes, plus in the flat flow the other units' latest
///      corrected masks within the halo) and its cache key; reads shared
///      immutable state only.
///   B. **resolve** (serial)   — look every tile up in the correction
///      cache, in unit order, so the choice of representative per
///      pattern class never depends on thread timing.
///   C. **solve** (parallel)   — the configured engine on the tiles that
///      missed; pure function of per-tile inputs.
///   D. **merge** (serial)     — account, keep the unit's own shapes,
///      store/replay cache solutions, again in unit order.
///
/// The cell flow runs one pass with no shared context; the flat flow runs
/// flat_context_passes with it, and widens the imaging guard to the halo.
/// After the last pass the driver writes the masks (each cell's output
/// layer, or the top cell's, flat) and runs the MRC gate, per cell or per
/// placement tile.
///
/// Because every parallel phase is read-only on shared state and every
/// ordering decision happens in a serial phase, the output is
/// **byte-identical to the serial flow at any `jobs` value** — the tier-1
/// determinism regression tests assert exactly this.
///
/// The correction cache (see correction_cache.h) replays fragment-move
/// solutions across geometrically identical tiles. Translation-exact
/// replay reproduces the fresh solve bit for bit, so enabling the cache
/// does not change output geometry either — only the work done.
///
/// The pattern library (FlowSpec::library_path, see pattern/library.h)
/// makes that reuse durable: solved classes are streamed to one file
/// from the serial merge phase and imported by the next run, so a
/// crashed run restarts from its last merged tile and an edited layout
/// (ECO) re-solves only tiles whose halo neighborhood changed — both
/// with output byte-identical to a from-scratch run. The same records
/// warm-start near matches (FlowSpec::library_budget), and the daemon
/// shares them across jobs (FlowSpec::library / library_sink).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/model.h"
#include "ilt/ilt.h"
#include "layout/library.h"
#include "mrc/mrc.h"
#include "pattern/library.h"
#include "trace/metrics.h"

namespace opckit::opc {

/// Which correction engine the flow's solve phase runs (FlowSpec::engine).
enum class CorrectionEngine {
  kModel,     ///< edge-fragment model OPC on every tile (default)
  kIlt,       ///< pixel inverse lithography on every tile
  kEscalate,  ///< model first; residual-EPE outliers re-solve through ILT
};

/// One progress event from a flow run (see FlowSpec::progress): which
/// phase just started or advanced, which flat context pass it belongs
/// to, and the merged-tile watermark. Events fire on the flow's serial
/// driver thread only, so a handler needs no locking against the flow.
struct FlowProgress {
  std::string_view phase;  ///< "gather"|"resolve"|"solve"|"merge"|"mrc"
  int pass = 0;            ///< flat context pass (0-based); cell flow: 0
  std::size_t tiles_done = 0;   ///< merged tiles so far in this pass
  std::size_t tiles_total = 0;  ///< tiles in this pass
};

/// The largest FlowSpec::jobs a flow accepts: jobs sizes a thread pool,
/// and kMaxJobs is far above any host's core count.
inline constexpr int kMaxJobs = 1024;

/// Flow configuration.
struct FlowSpec {
  ModelOpcSpec opc;
  litho::SimSpec sim;                 ///< must be calibrated
  geom::Coord halo_nm = 800;          ///< optical context margin
  layout::Layer input_layer{10, 0};
  layout::Layer output_layer{10, 1};
  /// Flat-flow context passes. Pass 1 corrects each placement against its
  /// DRAWN neighbours; but the final mask's neighbours are corrected, so
  /// the optical context each placement optimized for is stale (the
  /// tile-to-tile convergence problem). Pass 2 re-corrects against the
  /// pass-1 corrected context. Two passes converge for the move
  /// magnitudes this engine allows.
  int flat_context_passes = 2;
  /// Run the opclint pre-flight gate (library structure + geometry +
  /// model parameters) before correcting; error-severity findings abort
  /// the flow with util::InputError. Sub-wavelength masks built from
  /// invalid inputs fail silently, so flows verify before they correct.
  bool preflight = true;
  /// Worker threads for the parallel phases, in [0, kMaxJobs] (others
  /// throw util::InputError): 1 = serial in the calling thread (default),
  /// N > 1 = a pool of N workers owned by this run, 0 = one owned worker
  /// per hardware thread. A tile, images included, runs on one thread.
  /// Output geometry is identical for every value — see the
  /// execution-model notes above.
  int jobs = 1;
  /// Reuse fragment-move solutions across geometrically identical tiles
  /// (translation-exact matches only; see CorrectionCache). Replayed
  /// solutions are bit-identical to fresh solves, so this changes
  /// FlowStats (fewer opc_runs/simulations), never the output layer.
  bool cache = true;
  /// Post-OPC mask-rule signoff gate (see mrc/mrc.h). Empty (default) =
  /// gate off. When set, after the corrected output is written the
  /// scanline MRC engine sweeps it — per tile, in parallel, reusing the
  /// flow's executor and tile index — and the merged report lands in
  /// FlowStats::mrc. The edge-pair/boundary checks tile exactly (each
  /// is a local function of the geometry near its marker); the area
  /// check needs global connectivity, so it runs once over the whole
  /// mask. Signoff reads the output, never rewrites it, so the deck and
  /// action are excluded from flow_fingerprint().
  mrc::Deck mrc_deck;
  /// kFail (default): error-severity violations throw MrcGateError —
  /// after the output layer is written, so the rejected mask can be
  /// inspected. Jog findings (MRC005) are warning-severity and never
  /// block. kWarn: the report is kept in FlowStats only.
  mrc::Action mrc_action = mrc::Action::kFail;
  /// Path of the persistent pattern library (see pattern/library.h).
  /// Empty (default) = no library. An existing file is imported before
  /// correcting and its classes replay translation-exactly, so a run
  /// resumed after a crash is byte-identical to an uninterrupted one and
  /// an edited layout (ECO) re-solves only tiles whose halo neighborhood
  /// changed; a missing file is created. Every fresh solve is appended,
  /// with its warm-start seeds, from the serial merge phase, and with
  /// `library_budget` > 0 cache misses warm-start from the nearest
  /// solved pattern. A file written under another flow_fingerprint() is
  /// refused (STO001); delete the file to start fresh. Requires `cache`;
  /// excludes `library`. Not fingerprint-mixed: the path names a file,
  /// not a process setup (see flow_fingerprint()).
  std::string library_path;
  /// Feature-space distance budget for near-match retrieval (see
  /// pat::feature_distance). 0 (default) disables near matching: the
  /// library then provides exact replay and accumulation only. Warm
  /// starts change the solved mask within the EPE tolerance (the
  /// convergence test is unchanged), so the budget is fingerprint-mixed.
  double library_budget = 0.0;
  /// Which corrector the solve phase runs per tile. kModel (default) is
  /// the edge-fragment feedback solver. kIlt re-synthesizes every tile
  /// with the pixel inverse-lithography engine (ilt/ilt.h). kEscalate
  /// is the adaptive policy: run the model solver first and hand only
  /// the tiles whose residual worst-case EPE stays above
  /// ilt_escalation_epe_nm to ILT — cheap correction for the easy
  /// geometry, pixel inversion for the hard patterns. All three are
  /// fingerprint-mixed.
  CorrectionEngine engine = CorrectionEngine::kModel;
  /// kEscalate threshold, nm: a model-solved tile whose final
  /// max |EPE| exceeds this re-runs through the ILT engine.
  double ilt_escalation_epe_nm = 6.0;
  /// Pixel-ILT knobs for kIlt/kEscalate tiles (fingerprint-mixed).
  ilt::IltSpec ilt;

  // ---- Service hooks (src/service/) ------------------------------------
  // Reuse plumbing and observability only: none of these reach
  // flow_fingerprint().

  /// Cooperative cancellation: polled at every phase boundary and between
  /// merged tiles, on the driver thread; when it reads true the flow
  /// throws FlowAborted. Tiles already merged are durable under
  /// library_path (their records are appended as they merge), so a
  /// cancelled run resumes like a crashed one. Null (default) = never
  /// cancelled. An in-flight parallel phase finishes before the next
  /// poll — drain granularity is one phase, not one simulation.
  const std::atomic<bool>* cancel = nullptr;
  /// Progress events from the driver thread: one at each phase start and
  /// one per merged tile (see FlowProgress). Observability only.
  std::function<void(const FlowProgress&)> progress;
  /// The daemon's shared pattern library (an immutable clone_memory()
  /// snapshot), used like a `library_path` file minus the appends:
  /// imported for exact replay, and searched for near matches when
  /// library_budget > 0 — which is why that budget, not this pointer,
  /// reaches the fingerprint. The pointee must stay alive and unmodified
  /// for the whole run. Requires `cache`; excludes `library_path`.
  const pat::PatternLibrary* library = nullptr;
  /// Called from the serial merge phase with the record of every freshly
  /// solved pattern class — the record a `library_path` file appends —
  /// so the daemon can feed solves back into its shared library. Never
  /// invoked concurrently. Requires `cache`.
  std::function<void(const pat::LibraryRecord&)> library_sink;
};

/// Thrown when FlowSpec::cancel reads true at a poll — the same exit a
/// crash between merged tiles would take. The library file is valid
/// when it propagates.
class FlowAborted : public std::runtime_error {
 public:
  explicit FlowAborted(const std::string& what)
      : std::runtime_error(what) {}
};

/// Cost/coverage accounting of a flow run.
struct FlowStats {
  std::size_t opc_runs = 0;       ///< independent OPC problems solved
  std::size_t simulations = 0;    ///< total imaging iterations
  std::size_t corrected_polygons = 0;
  bool all_converged = true;
  std::size_t cache_hits = 0;       ///< tiles replayed from the cache
  std::size_t cache_misses = 0;     ///< tiles solved fresh (first sighting)
  std::size_t cache_conflicts = 0;  ///< hash/ownership collisions (solved fresh)
  /// Tiles replayed from entries imported from the library — the
  /// library_path file or the daemon's snapshot (a subset of cache_hits;
  /// in-run reuse of a class first solved this run does not count). The
  /// resume/ECO acceptance metric.
  std::size_t library_exact_hits = 0;
  /// Tiles solved fresh but warm-started from a near-match retrieval
  /// (library_budget > 0 and a solved pattern within the budget).
  std::size_t library_near_hits = 0;
  std::size_t library_entries_loaded = 0;    ///< records imported
  std::size_t library_entries_appended = 0;  ///< fresh solves filed
  /// Imaging iterations spent on warm-started tiles (a subset of
  /// `simulations`) — the numerator of the warm-start savings metric.
  std::size_t library_warm_iterations = 0;
  /// True when the library file ended in a torn record that was dropped
  /// and truncated (STO002) — the crash-recovery path, not an error.
  bool library_tail_recovered = false;
  /// Imaging iterations per work unit, in deterministic placement order
  /// (flat flow: placements × passes; cell flow: reachable cells with
  /// shapes, sorted by name). Cache-replayed tiles record 0.
  std::vector<std::size_t> tile_simulations;
  /// Worst final-iteration edge-placement errors over all freshly solved
  /// tiles (run/line-end sites): the max of max_abs_epe_nm and the max of
  /// rms_epe_nm. Deterministic — cache replays reuse the representative's
  /// solve, so they contribute through it, not separately. 0 when every
  /// tile replayed.
  double max_abs_epe_nm = 0.0;
  double worst_rms_epe_nm = 0.0;
  /// Tiles solved by the pixel-ILT engine this run (kIlt: every fresh
  /// solve; kEscalate: the escalated subset; kModel: 0).
  std::size_t ilt_tiles = 0;
  /// kEscalate only: tiles whose model solve exceeded
  /// ilt_escalation_epe_nm and were re-solved through ILT (equal to
  /// ilt_tiles under kEscalate; 0 otherwise).
  std::size_t ilt_escalated = 0;
  /// Accepted gradient-descent steps summed over ILT tiles (the ILT
  /// share of `simulations`).
  std::size_t ilt_iterations = 0;
  /// Everything the observability layer measured during this run: the
  /// per-run delta of the process-wide metrics registry (counters like
  /// litho.fft_batched_transforms, per-phase wall-time gauges, the
  /// per-tile simulation histogram). See trace/metrics.h for the full
  /// name table.
  trace::MetricsSnapshot metrics;
  /// Wall-clock of the whole flow in milliseconds. Observability only —
  /// like the phase gauges in `metrics`, not deterministic.
  double wall_ms = 0.0;
  /// True when the MRC signoff gate ran (FlowSpec::mrc_deck non-empty),
  /// even if the mask came back clean.
  bool mrc_checked = false;
  /// Merged signoff report, in the engine's canonical order — identical
  /// at any `jobs` value. Flat flow: chip coordinates, deduplicated.
  /// Cell flow: per-cell reports concatenated in sorted cell order
  /// (markers in each cell's local frame).
  mrc::MrcReport mrc;
  /// Violations attributed per checked tile, in the same deterministic
  /// tile order as tile_simulations (a straddling marker may count in
  /// more than one tile; the report above is deduplicated).
  std::vector<std::size_t> tile_mrc_violations;
};

/// Thrown when FlowSpec::mrc_action is kFail and the corrected mask
/// violates the signoff deck with error severity. The output layer IS
/// written before this propagates — signoff rejects a mask, it does not
/// destroy it — and the carried stats embed the full violation report
/// (stats().mrc) plus every metric the run produced.
class MrcGateError : public std::runtime_error {
 public:
  MrcGateError(const std::string& what, FlowStats stats)
      : std::runtime_error(what), stats_(std::move(stats)) {}
  const FlowStats& stats() const { return stats_; }
  const mrc::MrcReport& report() const { return stats_.mrc; }

 private:
  FlowStats stats_;
};

/// Fingerprint of everything a stored correction's validity depends on:
/// FNV-1a over the flow kind ("flat"/"cell") and the encoding of every
/// field core/flow_codec.h's field list marks mixed. Two specs with
/// equal fingerprints produce interchangeable corrections for the same
/// geometry; any difference must change the fingerprint so a stale
/// library is refused (STO001) instead of silently replayed. Job count,
/// cache, preflight, the MRC signoff deck/action and the service hooks
/// are excluded: they cannot change output geometry.
///
/// Library identity: library_budget is mixed, because it turns on the
/// warm starts that move the solver's trajectory; the library is not.
/// Its path names a file, not a process setup, and its records sit
/// behind its own header fingerprint — so a renamed library (or one
/// spelled `./a.ocl`) stays valid. Warm starts only move the starting
/// point; the convergence test holds.
std::uint64_t flow_fingerprint(const FlowSpec& spec,
                               std::string_view flow_kind);

/// Machine-readable FlowStats rendering (stable single-line JSON) for
/// the bench harness and CI: cache/library counters, worst EPEs, per-tile
/// simulation counts, wall_ms, and the embedded metrics snapshot.
/// Doubles render with util::format_double (shortest round-trip,
/// locale-independent — never ostream's 6-digit default, which truncates
/// wall_ms and EPE values). `opckit opc --stats json` prints exactly this.
std::string render_stats_json(const FlowStats& stats);

/// Hierarchy-preserving OPC: every distinct cell reachable from \p top
/// that has shapes on the input layer is corrected once, in isolation;
/// corrected shapes are written to the cell's output layer.
FlowStats run_cell_opc(layout::Library& lib, const std::string& top,
                       const FlowSpec& spec);

/// Flat OPC: every placement is corrected against its true neighborhood
/// (flattened context within the halo). The corrected mask is written,
/// flat, to the output layer of \p top.
FlowStats run_flat_opc(layout::Library& lib, const std::string& top,
                       const FlowSpec& spec);

}  // namespace opckit::opc
