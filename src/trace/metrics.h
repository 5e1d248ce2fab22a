/// \file metrics.h
/// The opckit metrics registry: named counters, gauges, and histograms.
///
/// One process-wide registry (`trace::metrics()`) unifies what used to be
/// ad-hoc FlowStats fields scattered across the flow driver, the
/// correction cache, the persistent store, and the litho simulator. Every
/// metric is declared ONCE in the compiled table returned by
/// `all_metrics()` — instruments look their metric up by name (checked
/// against the table, so a typo throws at first use instead of silently
/// minting a new series), docs/METRICS.md is generated from the same
/// table (`opckit metrics --format md`, drift-checked by tools/ci.sh),
/// and the `--stats json` snapshot embeds exactly these names.
///
/// Thread safety: counters and gauges are single relaxed atomics and
/// histogram bins are per-bin atomics, so instruments may increment from
/// worker threads with no locking — the TSan job covers the traced
/// jobs=8 flow. Values are process-cumulative; callers that want
/// per-run numbers take a snapshot() before and after and subtract
/// (`MetricsSnapshot::delta`), which is what the flow driver does.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace opckit::trace {

/// What a named metric measures.
enum class MetricKind {
  kCounter,    ///< monotone event count (u64, relaxed atomic add)
  kGauge,      ///< accumulating double (wall-time totals, sums)
  kHistogram,  ///< binned sample distribution with under/overflow slots
};

/// Printable name ("counter", "gauge", "histogram").
const char* to_string(MetricKind kind);

/// One row of the compiled metric registry.
struct MetricInfo {
  const char* name;
  MetricKind kind;
  const char* help;
  /// Histogram shape (ignored for counters/gauges): [lo, hi] split into
  /// `bins` equal-width bins, boundary rules per util::histogram_bin.
  double lo = 0.0;
  double hi = 1.0;
  std::size_t bins = 1;
};

/// The compiled registry: every metric the tree can emit, in stable
/// order. docs/METRICS.md mirrors this table (ci.sh drift check).
std::span<const MetricInfo> all_metrics();

/// Canonical metric names. Instruments use these constants — never a
/// string literal — so a rename cannot leave a stale emitter behind.
namespace metric {
inline constexpr const char* kFlowTilesMerged = "flow.tiles_merged";
inline constexpr const char* kFlowOpcRuns = "flow.opc_runs";
inline constexpr const char* kFlowSimulations = "flow.simulations";
inline constexpr const char* kFlowCorrectedPolygons =
    "flow.corrected_polygons";
inline constexpr const char* kFlowPhaseGatherMs = "flow.phase.gather_ms";
inline constexpr const char* kFlowPhaseResolveMs = "flow.phase.resolve_ms";
inline constexpr const char* kFlowPhaseSolveMs = "flow.phase.solve_ms";
inline constexpr const char* kFlowPhaseMergeMs = "flow.phase.merge_ms";
inline constexpr const char* kFlowTileSimulations = "flow.tile_simulations";
inline constexpr const char* kCacheHits = "cache.hits";
inline constexpr const char* kCacheMisses = "cache.misses";
inline constexpr const char* kCacheConflicts = "cache.conflicts";
inline constexpr const char* kStoreRecordsAppended = "store.records_appended";
inline constexpr const char* kStoreRecordsLoaded = "store.records_loaded";
inline constexpr const char* kStoreRecordsSynced = "store.records_synced";
inline constexpr const char* kStoreRecoveredTailBytes =
    "store.recovered_tail_bytes";
inline constexpr const char* kLithoAerialImages = "litho.aerial_images";
inline constexpr const char* kLithoFft2dTransforms = "litho.fft2d_transforms";
inline constexpr const char* kLithoFftPlanBuilds = "litho.fft_plan_builds";
inline constexpr const char* kLithoFftPlanHits = "litho.fft_plan_hits";
inline constexpr const char* kLithoFftPlanBuildMs = "litho.fft_plan_build_ms";
inline constexpr const char* kLithoFftR2cTransforms =
    "litho.fft_r2c_transforms";
inline constexpr const char* kLithoFftC2rTransforms =
    "litho.fft_c2r_transforms";
inline constexpr const char* kLithoFftBatchedTransforms =
    "litho.fft_batched_transforms";
inline constexpr const char* kLithoFftRowsPruned = "litho.fft_rows_pruned";
inline constexpr const char* kLithoRasterCells = "litho.raster_cells";
inline constexpr const char* kLithoSocsKernelSetsBuilt =
    "litho.socs_kernel_sets_built";
inline constexpr const char* kLithoSocsKernelsBuilt =
    "litho.socs_kernels_built";
inline constexpr const char* kLithoSocsCacheHits = "litho.socs_cache_hits";
inline constexpr const char* kLithoSocsEnergyCaptured =
    "litho.socs_energy_captured";
inline constexpr const char* kMrcViolations = "mrc.violations";
inline constexpr const char* kMrcTilesChecked = "mrc.tiles_checked";
inline constexpr const char* kMrcTileViolations = "mrc.tile_violations";
inline constexpr const char* kFlowPhaseMrcMs = "flow.phase.mrc_ms";
// Service-daemon (opcd) series — see src/service/server.h for when each
// fires along the admission/run/drain path.
inline constexpr const char* kSvcJobsSubmitted = "svc.jobs_submitted";
inline constexpr const char* kSvcJobsAccepted = "svc.jobs_accepted";
inline constexpr const char* kSvcJobsRejected = "svc.jobs_rejected";
inline constexpr const char* kSvcJobsCompleted = "svc.jobs_completed";
inline constexpr const char* kSvcJobsFailed = "svc.jobs_failed";
inline constexpr const char* kSvcQueueDepth = "svc.queue_depth";
inline constexpr const char* kSvcJobsInflight = "svc.jobs_inflight";
inline constexpr const char* kSvcJobLatencyMs = "svc.job_latency_ms";
inline constexpr const char* kSvcProtocolErrors = "svc.protocol_errors";
inline constexpr const char* kSvcCacheHits = "svc.cache_hits";
inline constexpr const char* kSvcCacheLookups = "svc.cache_lookups";
// Pattern-library reuse series — see the flow's ReuseSession for when
// each fires; the file's own loads and appends count under store.*.
inline constexpr const char* kPatLibraryExactHits = "pat.library_exact_hits";
inline constexpr const char* kPatLibraryNearHits = "pat.library_near_hits";
inline constexpr const char* kPatLibraryWarmIterations =
    "pat.library_warm_iterations";
// Pixel-ILT (third correction engine) series — see ilt/ilt.h for the
// engine and core/flow.h for when escalation fires.
inline constexpr const char* kIltRuns = "ilt.runs";
inline constexpr const char* kIltEscalations = "ilt.escalations";
inline constexpr const char* kIltIterations = "ilt.iterations";
inline constexpr const char* kIltCostReduction = "ilt.cost_reduction";
inline constexpr const char* kIltLegalizeRounds = "ilt.legalize_rounds";
}  // namespace metric

/// Monotone event counter. add() is a relaxed atomic increment — safe
/// and cheap from any thread, including the parallel flow phases.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Accumulating double (e.g. per-phase wall-time totals). add() uses a
/// CAS loop so concurrent adds never lose an update.
class Gauge {
 public:
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Value snapshot of one histogram metric.
struct HistogramSnapshot {
  double lo = 0.0, hi = 0.0;
  std::vector<std::uint64_t> bins;
  std::uint64_t underflow = 0;  ///< samples < lo
  std::uint64_t overflow = 0;   ///< samples > hi
  std::uint64_t nan_count = 0;  ///< NaN samples

  std::uint64_t total() const;
  /// Exact quantile over the slotted counts, delegating to
  /// util::histogram_quantile (uniform-within-bin interpolation,
  /// under/overflow clamped to lo/hi, NaN excluded). t9 reports its
  /// p50/p99 job latency through this, straight off svc.job_latency_ms.
  double quantile(double p) const;
  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Fixed-shape histogram with per-bin atomic counts. Binning follows
/// util::histogram_bin: x == hi lands in the last bin, out-of-range and
/// NaN samples land in explicit underflow/overflow/nan slots.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t bins);

  void observe(double x);
  HistogramSnapshot snapshot() const;

 private:
  double lo_, hi_;
  std::vector<std::atomic<std::uint64_t>> bins_;
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> nan_{0};
};

/// Point-in-time value snapshot of the whole registry. Keys are metric
/// names; maps keep them sorted so renderings are deterministic.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Per-interval view: after - before, element-wise. Both snapshots
  /// must come from the same registry (same metric set and shapes).
  static MetricsSnapshot delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// The live registry: every metric of all_metrics(), pre-constructed so
/// lookups never allocate and returned references are stable forever.
class MetricsRegistry {
 public:
  MetricsRegistry();

  /// Look up a metric by name. The name must exist in all_metrics() with
  /// the matching kind — anything else is a programming error
  /// (util::CheckError), not a silent new series.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  HistogramMetric& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>>
      histograms_;
};

/// The process-wide registry (lazily constructed, never destroyed before
/// use — function-local static).
MetricsRegistry& metrics();

/// Stable single-line JSON rendering of a snapshot:
/// {"counters":{...},"gauges":{...},"histograms":{...}}. Doubles use
/// util::format_double (shortest round-trip, locale-independent).
std::string render_metrics_json(const MetricsSnapshot& snapshot);

/// Markdown table of the compiled registry — the source of truth for
/// docs/METRICS.md (`opckit metrics --format md`; ci.sh drift check).
std::string render_metrics_markdown();

}  // namespace opckit::trace
