#include "core/flow.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "core/correction_cache.h"
#include "lint/lint.h"
#include "pattern/feature.h"
#include "pattern/library.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace opckit::opc {

using geom::Polygon;
using geom::Rect;
using geom::Transform;
using layout::Cell;
using layout::CellRef;
using layout::Library;

namespace {

/// The message of both error gates, pre-flight lint and MRC signoff:
/// the error count, the offending codes and the first few findings, so
/// the failure is actionable without re-running `opckit lint`.
std::string error_summary(std::string_view gate,
                          const lint::LintReport& report) {
  std::set<std::string> error_codes;
  for (const lint::Diagnostic& d : report.findings()) {
    if (d.severity == lint::Severity::kError) error_codes.insert(d.code);
  }
  std::ostringstream os;
  os << gate << " found " << report.errors() << " error(s) [";
  bool first = true;
  for (const std::string& code : error_codes) {
    os << (first ? "" : " ") << code;
    first = false;
  }
  os << "]:";
  std::size_t shown = 0;
  for (const lint::Diagnostic& d : report.findings()) {
    if (d.severity != lint::Severity::kError) continue;
    os << (shown == 0 ? " " : "; ") << d.to_line();
    if (++shown == 3) break;
  }
  return os.str();
}

/// Runs the parallel phases under FlowSpec::jobs: 1 = inline in the
/// calling thread, anything else = a pool owned by this flow run (0: one
/// worker per hardware thread). A tile runs wholly on its worker, images
/// included. A flow run from inside another pool's job runs its tiles
/// inline per the ThreadPool protocol, so it never deadlocks either pool.
class TileExecutor {
 public:
  explicit TileExecutor(int jobs) {
    if (jobs != 1) {
      pool_ = std::make_unique<util::ThreadPool>(
          static_cast<std::size_t>(jobs));
    }
  }

  void run(std::size_t count, const std::function<void(std::size_t)>& fn) {
    if (pool_) {
      pool_->parallel_for(count, fn);
    } else {
      for (std::size_t i = 0; i < count; ++i) fn(i);
    }
  }

 private:
  std::unique_ptr<util::ThreadPool> pool_;
};

/// One work unit of the tiled driver, in the frame its mask is written
/// in: a distinct cell (cell flow) or a placement (flat flow).
struct WorkUnit {
  std::vector<Polygon> drawn;      ///< input-layer shapes
  Rect window = Rect::empty();     ///< bbox of `drawn`
  geom::Region own_region;         ///< area of `drawn`: what the unit owns
  std::vector<Polygon> corrected;  ///< latest corrected mask, own only
};

WorkUnit make_unit(std::vector<Polygon> drawn) {
  WorkUnit u;
  for (const auto& p : drawn) u.window = u.window.united(p.bbox());
  u.own_region = geom::Region::from_polygons(drawn);
  u.corrected = drawn;  // pass-0 context = drawn geometry
  u.drawn = std::move(drawn);
  return u;
}

/// Per-tile phase state of one pass: the simulation input assembled by
/// the gather phase, the cache decision from the resolve phase, and the
/// solver output from the solve phase.
struct TileWork {
  std::vector<Polygon> targets;     ///< own shapes + halo context
  CorrectionCache::Key key;         ///< valid when the cache is on
  CorrectionCache::Resolution res;  ///< valid when the cache is on
  bool replay = false;              ///< resolved to a cache replay
  ModelOpcResult result;            ///< valid when !replay
  /// Pattern-library near match: solve fresh but warm-start from these
  /// layout-frame seeds (set in the serial resolve phase, read-only in
  /// the parallel solve phase).
  bool warm = false;
  std::vector<pat::WarmSeed> seeds;
  /// Pixel-ILT engine state (FlowSpec::engine kIlt/kEscalate): whether
  /// this tile's final geometry came from ILT, whether the model solver
  /// ran first and handed it over (kEscalate), and the measured EPE of
  /// the legalized ILT mask (the model solver reports its own; ILT is
  /// measured explicitly so FlowStats compares like with like).
  bool ilt = false;
  bool escalated = false;
  ilt::IltResult ilt_result;
  double ilt_max_epe = 0.0;
  double ilt_rms_epe = 0.0;
};

/// Solve one tile with the configured engine — a pure function of the
/// tile inputs, so the parallel solve phase stays deterministic at any
/// jobs count. kModel: the fragment solver alone. kIlt: pixel ILT on
/// every tile. kEscalate (the adaptive policy): model first, then ILT
/// for tiles whose model solve diverged or left a worst-case EPE above
/// the escalation threshold. ILT tiles measure the EPE of their
/// legalized mask at the model solver's probe sites, so the flow-level
/// EPE stats stay comparable across engines.
void solve_tile_engine(const FlowSpec& spec, const litho::SimSpec& sim,
                       const Rect& window, const WarmStart* warm,
                       TileWork& t) {
  if (spec.engine != CorrectionEngine::kIlt) {
    t.result = run_model_opc(t.targets, sim, window, spec.opc, warm);
    if (spec.engine == CorrectionEngine::kModel) return;
    const bool hard =
        !t.result.converged ||
        (!t.result.history.empty() &&
         t.result.final_iteration().max_abs_epe_nm >
             spec.ilt_escalation_epe_nm);
    if (!hard) return;
    t.escalated = true;
  }
  t.ilt = true;
  t.ilt_result = ilt::run_pixel_ilt(t.targets, sim, window, spec.ilt);
  const auto frags = fragment_polygons(t.targets, spec.opc.fragmentation);
  const std::vector<double> epes =
      measure_fragment_epe(t.targets, frags, t.ilt_result.corrected, sim,
                           window, spec.opc.probe_range_nm);
  double sum_sq = 0.0;
  std::size_t finite = 0;
  for (double e : epes) {
    if (std::isnan(e)) continue;
    t.ilt_max_epe = std::max(t.ilt_max_epe, std::abs(e));
    sum_sq += e * e;
    ++finite;
  }
  t.ilt_rms_epe = finite ? std::sqrt(sum_sq / static_cast<double>(finite))
                         : 0.0;
  // An escalated tile keeps the better of the two answers: ILT on a
  // tight window (few free pixels) can come back worse than the model
  // result that triggered it, and escalation must never regress a tile.
  if (t.escalated && !t.result.history.empty() &&
      t.result.final_iteration().max_abs_epe_nm < t.ilt_max_epe) {
    t.ilt = false;
  }
}

/// The reuse side of a flow run: import the library (the library_path
/// file or the daemon's snapshot) for exact replay, retrieve near
/// matches for warm starts, and file fresh solves (with their seeds)
/// into the file and the sink. Constructed and used exclusively from the
/// flow's serial phases, so the TSan contract of the phases is
/// untouched.
class ReuseSession {
 public:
  ReuseSession(const FlowSpec& spec, std::string_view flow_kind,
               CorrectionCache& cache, FlowStats& stats)
      : budget_(spec.library_budget), sink_(spec.library_sink) {
    if (spec.library_path.empty() && spec.library == nullptr && !sink_) {
      return;
    }
    if (!spec.cache) {
      throw util::InputError(
          "pattern library: FlowSpec::library_path/library/library_sink "
          "require the correction cache (FlowSpec::cache) — library "
          "entries are cache entries");
    }
    if (!spec.library_path.empty() && spec.library != nullptr) {
      throw util::InputError(
          "pattern library: FlowSpec::library_path and library are "
          "exclusive — a run imports one library");
    }
    source_ = spec.library;
    if (!spec.library_path.empty()) {
      file_.emplace(pat::PatternLibrary::open(
          spec.library_path, flow_fingerprint(spec, flow_kind),
          /*sync_on_append=*/false));  // throws InputError with the STO line
      stats.library_tail_recovered = file_->tail_recovered();
      source_ = &*file_;
    }
    if (source_ == nullptr) return;
    for (std::size_t i = 0; i < source_->size(); ++i) {
      cache.import_entry(source_->record(i).tile);
    }
    stats.library_entries_loaded = source_->size();
    imported_ = cache.size();
  }

  /// Serial resolve phase, once per tile after the cache lookup: account
  /// library replays and attach warm-start seeds to cache misses that
  /// have a near match under the budget.
  void on_resolved(TileWork& t, FlowStats& stats) const {
    if (t.replay) {
      // Imports happen before any in-run reservation, so entries below
      // imported_ came from the library.
      if (t.res.entry < imported_) {
        ++stats.library_exact_hits;
        trace::metrics()
            .counter(trace::metric::kPatLibraryExactHits)
            .add();
      }
      return;
    }
    if (budget_ <= 0.0 || source_ == nullptr) return;
    const pat::PatternFeature query = pat::feature_of(t.key.window.rects);
    const std::optional<pat::NearMatch> near =
        source_->nearest(query, budget_);
    if (!near) return;
    // The retrieved seeds live in the matched entry's canonical frame;
    // similar patterns canonicalize into nearly aligned frames, so
    // mapping them through THIS tile's canonical transform puts each
    // seed close to the corresponding fragment site. Approximation is
    // fine — seeds are starting points, the convergence test still runs.
    const Transform from_canonical =
        CorrectionCache::canonical_transform(t.key).inverted();
    t.warm = true;
    t.seeds.reserve(source_->record(near->index).seeds.size());
    for (const pat::WarmSeed& s : source_->record(near->index).seeds) {
      t.seeds.push_back({from_canonical(s.site), s.offset});
    }
    ++stats.library_near_hits;
    trace::metrics().counter(trace::metric::kPatLibraryNearHits).add();
  }

  /// Serial merge phase, once per freshly solved tile (after
  /// cache.store()): file the solve with its warm-start seeds. ILT output
  /// carries no fragment offsets, so an ILT tile is filed without seeds —
  /// it replays, but never seeds a near match.
  void on_fresh_solve(const CorrectionCache& cache, const TileWork& t,
                      FlowStats& stats) {
    if (t.warm) {
      stats.library_warm_iterations += t.result.history.size();
      trace::metrics()
          .counter(trace::metric::kPatLibraryWarmIterations)
          .add(t.result.history.size());
    }
    if (!file_ && !sink_) return;
    pat::LibraryRecord rec;
    rec.tile = cache.export_entry(t.res.entry);
    if (!t.ilt) {
      const Transform to_canonical =
          CorrectionCache::canonical_transform(t.key);
      rec.seeds.reserve(t.result.seeds.size());
      for (const pat::WarmSeed& s : t.result.seeds) {
        rec.seeds.push_back({to_canonical(s.site), s.offset});
      }
    }
    if (file_ && file_->insert(rec)) ++stats.library_entries_appended;
    if (sink_) sink_(rec);
  }

 private:
  double budget_;
  const std::function<void(const pat::LibraryRecord&)>& sink_;
  std::optional<pat::PatternLibrary> file_;  ///< the library_path file
  const pat::PatternLibrary* source_ = nullptr;  ///< file_ or the snapshot
  /// Cache entries below this index were imported from source_.
  std::size_t imported_ = 0;
};

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// RAII guard for one flow phase: a trace span plus accumulation of the
/// phase's wall-clock into its flow.phase.*_ms gauge. Constructed and
/// destroyed on the flow's driver thread only; the parallel work inside
/// traces itself with per-tile spans.
class PhaseScope {
 public:
  PhaseScope(const char* span_name, const char* gauge_name)
      : span_(span_name),
        gauge_name_(gauge_name),
        t0_(std::chrono::steady_clock::now()) {}
  ~PhaseScope() { trace::metrics().gauge(gauge_name_).add(elapsed_ms(t0_)); }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  trace::Span span_;
  const char* gauge_name_;
  std::chrono::steady_clock::time_point t0_;
};

/// Driver-thread dispatch for the FlowSpec::cancel / FlowSpec::progress
/// hooks. Every call happens on the flow's serial driver thread, between
/// phases or between merged tiles, so handlers never race the flow.
class JobHooks {
 public:
  explicit JobHooks(const FlowSpec& spec) : spec_(spec) {}

  /// Phase boundary: poll cancellation, then announce the phase.
  void phase(std::string_view name, int pass, std::size_t total) {
    check_cancel();
    if (spec_.progress) spec_.progress({name, pass, 0, total});
  }

  /// One merged tile (progress only; the merge loop polls cancel at the
  /// top of each iteration so a cancelled run never half-merges a tile).
  void tile_merged(int pass, std::size_t done, std::size_t total) {
    if (spec_.progress) spec_.progress({"merge", pass, done, total});
  }

  void check_cancel() const {
    if (spec_.cancel && spec_.cancel->load(std::memory_order_relaxed)) {
      throw FlowAborted("flow cancelled by FlowSpec::cancel");
    }
  }

 private:
  const FlowSpec& spec_;
};

/// FlowSpec::mrc_deck split for the tiled signoff gate. Every
/// edge-pair/boundary check is a local function of the geometry within
/// the largest rule distance of its marker, so it tiles exactly; the
/// connected-component area check does not, so it runs once globally.
struct MrcDeckSplit {
  mrc::Deck edge;
  mrc::Deck area;
  geom::Coord rule_max = 0;  ///< largest edge-deck rule distance
};

MrcDeckSplit split_mrc_deck(const mrc::Deck& deck) {
  MrcDeckSplit split;
  for (const mrc::Check& c : deck) {
    if (c.kind == mrc::CheckKind::kArea) {
      split.area.push_back(c);
    } else {
      split.edge.push_back(c);
      split.rule_max = std::max(split.rule_max, c.value);
    }
  }
  return split;
}

/// Fold one tile's violation count into the accounting (serial, tile
/// order — the histogram observation order matches tile_simulations).
void account_mrc_tile(std::size_t violations, FlowStats& stats) {
  stats.tile_mrc_violations.push_back(violations);
  trace::metrics().counter(trace::metric::kMrcTilesChecked).add(1);
  trace::metrics()
      .histogram(trace::metric::kMrcTileViolations)
      .observe(static_cast<double>(violations));
}

/// Seal the merged report: canonical order, counters, stats flags.
void finish_mrc_report(std::vector<mrc::Violation> merged, bool dedup,
                       FlowStats& stats) {
  if (dedup) mrc::sort_and_dedup(merged);
  stats.mrc.violations = std::move(merged);
  stats.mrc_checked = true;
  trace::metrics()
      .counter(trace::metric::kMrcViolations)
      .add(stats.mrc.violations.size());
}

/// Cell-flow signoff: cells are corrected in isolation, so they are
/// signed off the same way — one gate tile per cell, full deck (a cell
/// is its own connectivity universe here, so the area check tiles too).
void signoff_cells(const FlowSpec& spec, const std::vector<WorkUnit>& units,
                   TileExecutor& exec, FlowStats& stats) {
  std::vector<mrc::MrcReport> reports(units.size());
  exec.run(units.size(), [&](std::size_t i) {
    trace::Span span("flow.mrc.tile", static_cast<std::int64_t>(i));
    reports[i] = mrc::check_polygons(units[i].corrected, spec.mrc_deck);
  });
  std::vector<mrc::Violation> merged;
  for (std::size_t i = 0; i < units.size(); ++i) {
    account_mrc_tile(reports[i].violations.size(), stats);
    for (mrc::Violation& v : reports[i].violations) {
      merged.push_back(std::move(v));
    }
  }
  // Concatenated in sorted cell order, NOT deduplicated: two cells
  // with identical local geometry are distinct masks.
  finish_mrc_report(std::move(merged), /*dedup=*/false, stats);
}

/// Flat-flow signoff: sweep the written output per placement tile, in
/// parallel, against the frozen corrected pool. A tile's window is its
/// corrected extent, not its drawn window: corrected edges can move
/// outward and the kept zones must cover every marker. Each tile checks
/// the un-clipped polygons within `2 * rule_max` of its window and keeps
/// the violations whose marker touches the window inflated by
/// `rule_max` — every polygon a kept marker depends on is inside the
/// query zone, so a kept violation is exact, and every violation on the
/// mask falls inside at least one tile's kept zone. Straddling markers
/// surface from several tiles and collapse in sort_and_dedup. The area
/// deck runs once over the whole pool (global connectivity).
void signoff_flat(const FlowSpec& spec, const std::vector<WorkUnit>& units,
                  TileExecutor& exec, FlowStats& stats) {
  const MrcDeckSplit deck = split_mrc_deck(spec.mrc_deck);
  std::vector<Polygon> pool;
  std::vector<Rect> windows;
  windows.reserve(units.size());
  Rect chip_box = geom::Rect::empty();
  for (const WorkUnit& u : units) {
    Rect w = geom::Rect::empty();
    for (const auto& p : u.corrected) {
      w = w.united(p.bbox());
      pool.push_back(p);
    }
    windows.push_back(w);
    chip_box = chip_box.united(w);
  }
  if (chip_box.is_empty()) {
    finish_mrc_report({}, /*dedup=*/true, stats);
    return;
  }
  const geom::Coord margin = 2 * deck.rule_max;
  geom::TileIndex index(chip_box.inflated(margin + 256), 2048);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    index.insert(i, pool[i].bbox());
  }

  std::vector<mrc::Violation> merged;
  std::vector<std::vector<mrc::Violation>> per_tile(windows.size());
  exec.run(windows.size(), [&](std::size_t i) {
    trace::Span span("flow.mrc.tile", static_cast<std::int64_t>(i));
    const Rect window = windows[i];
    if (window.is_empty() || deck.edge.empty()) return;
    std::vector<Polygon> local;
    for (std::size_t id : index.query(window.inflated(margin))) {
      local.push_back(pool[id]);
    }
    mrc::MrcReport report = mrc::check_polygons(local, deck.edge);
    const Rect keep = window.inflated(deck.rule_max);
    for (mrc::Violation& v : report.violations) {
      if (v.marker.touches(keep)) per_tile[i].push_back(std::move(v));
    }
  });
  for (std::size_t i = 0; i < windows.size(); ++i) {
    account_mrc_tile(per_tile[i].size(), stats);
    for (mrc::Violation& v : per_tile[i]) merged.push_back(std::move(v));
  }

  if (!deck.area.empty()) {
    mrc::MrcReport area =
        mrc::check_mask(geom::Region::from_polygons(pool), deck.area);
    for (mrc::Violation& v : area.violations) merged.push_back(std::move(v));
  }
  finish_mrc_report(std::move(merged), /*dedup=*/true, stats);
}

/// What sets the cell and flat flows apart; run_tiled does the rest.
struct TiledFlow {
  const char* span;       ///< the flow's trace span
  std::string_view kind;  ///< flow kind of flow_fingerprint()
  /// Each unit's gather sees the other units' latest corrected masks
  /// within the halo (flat flow) or nothing but its own shapes (cell
  /// flow).
  bool shared_context;
  int passes;
  litho::SimSpec sim;  ///< imaging spec of the solve phase
  /// The work units, in the order every serial phase follows.
  std::function<std::vector<WorkUnit>()> enumerate;
  /// Writes the final masks to the output layer.
  std::function<void(const std::vector<WorkUnit>&)> write;
  /// MRC signoff of the written masks; runs only with a deck.
  void (*signoff)(const FlowSpec&, const std::vector<WorkUnit>&,
                  TileExecutor&, FlowStats&);
};

/// The tiled full-chip driver of both flows (see the execution model in
/// flow.h): the run envelope around `passes` rounds of phases A-D over
/// the flow's work units, then the write and the signoff gate.
FlowStats run_tiled(Library& lib, const FlowSpec& spec,
                    const TiledFlow& flow) {
  if (spec.jobs < 0 || spec.jobs > kMaxJobs) {  // before any pool exists
    throw util::InputError("jobs " + std::to_string(spec.jobs) +
                           " is outside [0, " + std::to_string(kMaxJobs) + "]");
  }
  const auto t0 = std::chrono::steady_clock::now();
  const trace::MetricsSnapshot before = trace::metrics().snapshot();
  trace::Span flow_span(flow.span);
  // Static-analysis gate before any correction: library structure and
  // geometry plus the model-parameter bands. Sub-wavelength masks built
  // from invalid inputs fail silently, so error findings abort here.
  if (spec.preflight) {
    lint::LintOptions options;
    options.grid_nm = spec.opc.grid_nm;
    lint::LintReport report = lint::lint_library(lib, options);
    report.merge(lint::lint_sim_spec(spec.sim, options));
    report.merge(lint::lint_opc_spec(spec.opc, options));
    if (!report.clean()) {
      throw util::InputError(error_summary("pre-flight lint", report));
    }
  }
  lib.validate();
  FlowStats stats;
  std::vector<WorkUnit> units = flow.enumerate();

  CorrectionCache cache;
  ReuseSession library(spec, flow.kind, cache, stats);
  TileExecutor exec(spec.jobs);
  JobHooks hooks(spec);

  Rect extent = geom::Rect::empty();  // the chip: union of unit windows
  for (const WorkUnit& u : units) extent = extent.united(u.window);

  for (int pass = 0; pass < flow.passes; ++pass) {
    // Shared context pool for this pass: every unit's latest mask state.
    // Frozen before the phases start, so gathers are read-only.
    std::vector<Polygon> pool;
    std::optional<geom::TileIndex> pool_index;
    if (flow.shared_context && !units.empty()) {
      for (const WorkUnit& u : units) {
        pool.insert(pool.end(), u.corrected.begin(), u.corrected.end());
      }
      pool_index.emplace(extent.inflated(spec.halo_nm + 256), 2048);
      for (std::size_t i = 0; i < pool.size(); ++i) {
        pool_index->insert(i, pool[i].bbox());
      }
    }

    std::vector<TileWork> tiles(units.size());

    // Phase A — gather (parallel): own DRAWN shapes (design intent never
    // goes stale) plus any shared context within the halo.
    {
      hooks.phase("gather", pass, units.size());
      PhaseScope phase("flow.gather", trace::metric::kFlowPhaseGatherMs);
      exec.run(units.size(), [&](std::size_t i) {
        trace::Span span("flow.gather.tile", static_cast<std::int64_t>(i));
        const WorkUnit& u = units[i];
        TileWork& t = tiles[i];
        t.targets = u.drawn;
        if (pool_index) {
          for (std::size_t id :
               pool_index->query(u.window.inflated(spec.halo_nm))) {
            const Polygon& cand = pool[id];
            // Skip our own shapes: anything overlapping our drawn area
            // is ours (moves are far smaller than placement spacing).
            if (!u.own_region.intersected(geom::Region(cand.normalized()))
                     .empty()) {
              continue;
            }
            t.targets.push_back(cand);
          }
        }
        if (spec.cache) {
          t.key = CorrectionCache::make_key(t.targets, u.own_region,
                                            u.window);
        }
      });
    }

    // Phase B — resolve (serial, unit order): the choice of
    // representative per pattern class is a pure function of the
    // layout, and the library's near-match retrievals inherit the same
    // determinism.
    {
      hooks.phase("resolve", pass, units.size());
      PhaseScope phase("flow.resolve", trace::metric::kFlowPhaseResolveMs);
      if (spec.cache) {
        for (TileWork& t : tiles) {
          t.res = cache.resolve(t.key);
          t.replay = t.res.outcome == CacheOutcome::kHit;
          library.on_resolved(t, stats);
        }
      }
    }

    // Phase C — solve (parallel; a pure function of the per-tile inputs,
    // warm seeds included — they were fixed serially).
    {
      hooks.phase("solve", pass, units.size());
      PhaseScope phase("flow.solve", trace::metric::kFlowPhaseSolveMs);
      exec.run(units.size(), [&](std::size_t i) {
        TileWork& t = tiles[i];
        if (t.replay) return;
        trace::Span span("flow.solve.tile", static_cast<std::int64_t>(i));
        WarmStart warm;
        if (t.warm) warm.seeds = t.seeds;
        solve_tile_engine(spec, flow.sim, units[i].window,
                          t.warm ? &warm : nullptr, t);
      });
    }

    // Phase D — merge (serial, unit order): account, keep the unit's own
    // shapes, store/replay. A replay's representative always precedes it
    // in this order (resolve handed out entries in the same order), so
    // every store lands before the fetch that needs it.
    {
      hooks.phase("merge", pass, units.size());
      PhaseScope phase("flow.merge", trace::metric::kFlowPhaseMergeMs);
      for (std::size_t i = 0; i < units.size(); ++i) {
        hooks.check_cancel();
        WorkUnit& u = units[i];
        TileWork& t = tiles[i];
        if (t.replay) {
          u.corrected = cache.fetch(t.res.entry, t.key);
          stats.tile_simulations.push_back(0);
        } else {
          // The tile's simulation budget: model iterations (0 under kIlt)
          // plus the ILT descent steps (0 unless ILT ran). An escalated
          // tile that kept the model answer still spent its descent.
          const auto ilt_iterations =
              static_cast<std::size_t>(t.ilt_result.iterations);
          const std::size_t sims = t.result.history.size() + ilt_iterations;
          ++stats.opc_runs;
          stats.simulations += sims;
          stats.tile_simulations.push_back(sims);
          u.corrected.clear();
          if (t.ilt) {
            stats.all_converged =
                stats.all_converged && t.ilt_result.converged;
            stats.max_abs_epe_nm =
                std::max(stats.max_abs_epe_nm, t.ilt_max_epe);
            stats.worst_rms_epe_nm =
                std::max(stats.worst_rms_epe_nm, t.ilt_rms_epe);
            ++stats.ilt_tiles;
            stats.ilt_iterations += ilt_iterations;
            // ILT can synthesize free-floating assists that overlap no
            // drawn shape, so "ours" is everything inside the window
            // (the legalizer clips to it); the locked context
            // passthrough sits outside and drops here.
            for (const auto& p : t.ilt_result.corrected) {
              if (u.window.contains(p.bbox())) u.corrected.push_back(p);
            }
          } else {
            stats.all_converged = stats.all_converged && t.result.converged;
            if (!t.result.history.empty()) {
              const OpcIteration& last = t.result.final_iteration();
              stats.max_abs_epe_nm =
                  std::max(stats.max_abs_epe_nm, last.max_abs_epe_nm);
              stats.worst_rms_epe_nm =
                  std::max(stats.worst_rms_epe_nm, last.rms_epe_nm);
            }
            for (const auto& p : t.result.corrected) {
              if (!u.own_region.intersected(geom::Region(p)).empty()) {
                u.corrected.push_back(p);
              }
            }
          }
          // ilt_escalated counts attempts, ilt_tiles counts ILT outputs.
          if (t.escalated) {
            ++stats.ilt_escalated;
            trace::metrics().counter(trace::metric::kIltEscalations).add(1);
          }
          if (spec.cache) {
            cache.store(t.res.entry, t.key, u.corrected);
            library.on_fresh_solve(cache, t, stats);
          }
        }
        hooks.tile_merged(pass, i + 1, units.size());
      }
    }
  }

  for (const WorkUnit& u : units) {
    stats.corrected_polygons += u.corrected.size();
  }
  flow.write(units);

  // Phase E — MRC signoff (parallel, read-only on the written output).
  if (!spec.mrc_deck.empty()) {
    hooks.phase("mrc", flow.passes - 1, units.size());
    PhaseScope phase("flow.mrc", trace::metric::kFlowPhaseMrcMs);
    flow.signoff(spec, units, exec, stats);
  }

  const CorrectionCacheStats& cs = cache.stats();
  stats.cache_hits = cs.hits;
  stats.cache_misses = cs.misses;
  stats.cache_conflicts = cs.conflicts;

  // Publish the flow-level counters and the per-tile simulation
  // histogram, then embed this run's registry delta (which also picked
  // up the litho/cache/store counters incremented along the way).
  trace::MetricsRegistry& reg = trace::metrics();
  reg.counter(trace::metric::kFlowTilesMerged)
      .add(stats.tile_simulations.size());
  reg.counter(trace::metric::kFlowOpcRuns).add(stats.opc_runs);
  reg.counter(trace::metric::kFlowSimulations).add(stats.simulations);
  reg.counter(trace::metric::kFlowCorrectedPolygons)
      .add(stats.corrected_polygons);
  trace::HistogramMetric& hist =
      reg.histogram(trace::metric::kFlowTileSimulations);
  for (std::size_t n : stats.tile_simulations) {
    hist.observe(static_cast<double>(n));
  }
  stats.metrics = trace::MetricsSnapshot::delta(before, reg.snapshot());
  stats.wall_ms = elapsed_ms(t0);

  // kFail rejects error-severity findings only (MRC005 jogs warn), after
  // the output is written and the stats are sealed.
  if (stats.mrc_checked && spec.mrc_action == mrc::Action::kFail) {
    const lint::LintReport lint = mrc::to_lint_report(stats.mrc);
    if (!lint.clean()) {
      throw MrcGateError(error_summary("MRC signoff gate", lint),
                         std::move(stats));
    }
  }
  return stats;
}

}  // namespace

std::string render_stats_json(const FlowStats& stats) {
  // Doubles go through util::format_double: the stream's default 6
  // significant digits silently truncated wall_ms and the EPE fields,
  // and the stream is locale-sensitive (a user locale with ',' decimal
  // points produces invalid JSON).
  std::ostringstream os;
  os << "{\"opc_runs\":" << stats.opc_runs
     << ",\"simulations\":" << stats.simulations
     << ",\"corrected_polygons\":" << stats.corrected_polygons
     << ",\"all_converged\":" << (stats.all_converged ? "true" : "false")
     << ",\"max_abs_epe_nm\":" << util::format_double(stats.max_abs_epe_nm)
     << ",\"worst_rms_epe_nm\":"
     << util::format_double(stats.worst_rms_epe_nm)
     << ",\"cache\":{\"hits\":" << stats.cache_hits
     << ",\"misses\":" << stats.cache_misses
     << ",\"conflicts\":" << stats.cache_conflicts << "}"
     << ",\"library\":{\"exact_hits\":" << stats.library_exact_hits
     << ",\"near_hits\":" << stats.library_near_hits
     << ",\"entries_loaded\":" << stats.library_entries_loaded
     << ",\"entries_appended\":" << stats.library_entries_appended
     << ",\"warm_iterations\":" << stats.library_warm_iterations
     << ",\"tail_recovered\":"
     << (stats.library_tail_recovered ? "true" : "false") << "}"
     << ",\"ilt\":{\"tiles\":" << stats.ilt_tiles
     << ",\"escalated\":" << stats.ilt_escalated
     << ",\"iterations\":" << stats.ilt_iterations << "}"
     << ",\"tile_simulations\":[";
  for (std::size_t i = 0; i < stats.tile_simulations.size(); ++i) {
    os << (i ? "," : "") << stats.tile_simulations[i];
  }
  os << "],\"mrc\":{\"checked\":" << (stats.mrc_checked ? "true" : "false")
     << ",\"violations\":" << stats.mrc.violations.size() << ",\"by_rule\":{";
  std::map<std::string, std::size_t> by_rule;
  for (const mrc::Violation& v : stats.mrc.violations) ++by_rule[v.rule];
  bool first_rule = true;
  for (const auto& [rule, n] : by_rule) {
    os << (first_rule ? "" : ",") << "\"" << rule << "\":" << n;
    first_rule = false;
  }
  os << "},\"tile_violations\":[";
  for (std::size_t i = 0; i < stats.tile_mrc_violations.size(); ++i) {
    os << (i ? "," : "") << stats.tile_mrc_violations[i];
  }
  os << "]},\"wall_ms\":" << util::format_double(stats.wall_ms)
     << ",\"metrics\":" << trace::render_metrics_json(stats.metrics) << "}";
  return os.str();
}

FlowStats run_cell_opc(Library& lib, const std::string& top,
                       const FlowSpec& spec) {
  std::vector<std::string> cells;  // the cell of each work unit
  const auto enumerate = [&] {
    // Distinct reachable cells with input-layer shapes, in sorted name
    // order.
    std::set<std::string> reachable;
    std::vector<std::string> queue{top};
    while (!queue.empty()) {
      const std::string name = queue.back();
      queue.pop_back();
      if (!reachable.insert(name).second) continue;
      for (const auto& ref : lib.at(name).refs()) queue.push_back(ref.child);
    }
    std::vector<WorkUnit> units;
    for (const std::string& name : reachable) {
      const auto shapes = lib.at(name).shapes(spec.input_layer);
      if (shapes.empty()) continue;
      cells.push_back(name);
      units.push_back(
          make_unit(std::vector<Polygon>(shapes.begin(), shapes.end())));
    }
    return units;
  };
  const auto write = [&](const std::vector<WorkUnit>& units) {
    for (std::size_t i = 0; i < units.size(); ++i) {
      Cell& cell = lib.cell(cells[i]);
      cell.clear_layer(spec.output_layer);
      cell.add_polygons(spec.output_layer, units[i].corrected);
    }
  };
  return run_tiled(lib, spec,
                   {.span = "flow.cell",
                    .kind = "cell",
                    .shared_context = false,
                    .passes = 1,
                    .sim = spec.sim,
                    .enumerate = enumerate,
                    .write = write,
                    .signoff = signoff_cells});
}

FlowStats run_flat_opc(Library& lib, const std::string& top,
                       const FlowSpec& spec) {
  const auto enumerate = [&] {
    // Placements (cell instances with input-layer shapes), depth first
    // in stack order.
    std::vector<WorkUnit> units;
    std::vector<std::pair<std::string, Transform>> stack{{top, Transform{}}};
    while (!stack.empty()) {
      auto [name, t] = stack.back();
      stack.pop_back();
      const Cell& cell = lib.at(name);
      const auto shapes = cell.shapes(spec.input_layer);
      if (!shapes.empty()) {
        std::vector<Polygon> drawn;
        drawn.reserve(shapes.size());
        for (const auto& s : shapes) drawn.push_back(t(s));
        units.push_back(make_unit(std::move(drawn)));
      }
      for (const auto& ref : cell.refs()) {
        for (int r = 0; r < ref.rows; ++r) {
          for (int c = 0; c < ref.columns; ++c) {
            stack.emplace_back(ref.child, t * ref.element_transform(c, r));
          }
        }
      }
    }
    return units;
  };
  const auto write = [&](const std::vector<WorkUnit>& units) {
    Cell& out = lib.cell(top);
    out.clear_layer(spec.output_layer);
    for (const WorkUnit& u : units) {
      out.add_polygons(spec.output_layer, u.corrected);
    }
  };
  // The imaging frame must cover the whole context halo, or context
  // shapes near the frame edge enter the simulation clipped and the
  // "true context" promise silently degrades.
  litho::SimSpec sim = spec.sim;
  sim.guard_nm = std::max(spec.sim.guard_nm, spec.halo_nm);
  return run_tiled(lib, spec,
                   {.span = "flow.flat",
                    .kind = "flat",
                    .shared_context = true,
                    .passes = std::max(1, spec.flat_context_passes),
                    .sim = sim,
                    .enumerate = enumerate,
                    .write = write,
                    .signoff = signoff_flat});
}

}  // namespace opckit::opc
