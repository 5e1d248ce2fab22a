#include "trace/metrics.h"

#include <array>
#include <sstream>

#include "util/check.h"
#include "util/stats.h"
#include "util/strings.h"

namespace opckit::trace {

namespace {

constexpr std::array kMetricTable = {
    MetricInfo{metric::kFlowTilesMerged, MetricKind::kCounter,
               "tiles that completed the serial merge phase"},
    MetricInfo{metric::kFlowOpcRuns, MetricKind::kCounter,
               "independent OPC problems solved fresh (replays excluded)"},
    MetricInfo{metric::kFlowSimulations, MetricKind::kCounter,
               "imaging iterations across all freshly solved tiles"},
    MetricInfo{metric::kFlowCorrectedPolygons, MetricKind::kCounter,
               "corrected polygons written to the output layer"},
    MetricInfo{metric::kFlowPhaseGatherMs, MetricKind::kGauge,
               "wall-clock in the parallel gather phase (all passes)"},
    MetricInfo{metric::kFlowPhaseResolveMs, MetricKind::kGauge,
               "wall-clock in the serial cache-resolve phase (all passes)"},
    MetricInfo{metric::kFlowPhaseSolveMs, MetricKind::kGauge,
               "wall-clock in the parallel solve phase (all passes)"},
    MetricInfo{metric::kFlowPhaseMergeMs, MetricKind::kGauge,
               "wall-clock in the serial merge phase (all passes)"},
    MetricInfo{metric::kFlowTileSimulations, MetricKind::kHistogram,
               "imaging iterations per merged tile (0 = cache replay)",
               0.0, 64.0, 16},
    MetricInfo{metric::kCacheHits, MetricKind::kCounter,
               "correction-cache translation-exact replays"},
    MetricInfo{metric::kCacheMisses, MetricKind::kCounter,
               "correction-cache first sightings (solved fresh)"},
    MetricInfo{metric::kCacheConflicts, MetricKind::kCounter,
               "correction-cache collisions/ownership mismatches"},
    MetricInfo{metric::kStoreRecordsAppended, MetricKind::kCounter,
               "records appended to a pattern-library file or daemon shelf"},
    MetricInfo{metric::kStoreRecordsLoaded, MetricKind::kCounter,
               "records loaded from a pattern-library file or daemon shelf"},
    MetricInfo{metric::kStoreRecordsSynced, MetricKind::kCounter,
               "appended records fsynced before returning (daemon shelves)"},
    MetricInfo{metric::kStoreRecoveredTailBytes, MetricKind::kCounter,
               "torn-tail bytes dropped by library crash recovery (STO002)"},
    MetricInfo{metric::kLithoAerialImages, MetricKind::kCounter,
               "aerial images computed (Abbe or SOCS imaging engine)"},
    MetricInfo{metric::kLithoFft2dTransforms, MetricKind::kCounter,
               "dense complex 2D transforms (kernel synthesis, shims)"},
    MetricInfo{metric::kLithoFftPlanBuilds, MetricKind::kCounter,
               "FFT plans built by the process PlanCache (first touch)"},
    MetricInfo{metric::kLithoFftPlanHits, MetricKind::kCounter,
               "plan requests served from the process PlanCache"},
    MetricInfo{metric::kLithoFftPlanBuildMs, MetricKind::kGauge,
               "wall-clock spent building FFT plans (tables + permutations)"},
    MetricInfo{metric::kLithoFftR2cTransforms, MetricKind::kCounter,
               "real-to-complex 2D forward transforms (mask spectra, blur)"},
    MetricInfo{metric::kLithoFftC2rTransforms, MetricKind::kCounter,
               "complex-to-real 2D inverse transforms (resist diffusion)"},
    MetricInfo{metric::kLithoFftBatchedTransforms, MetricKind::kCounter,
               "fused sparse inverse + magnitude^2 transforms (imaging loop)"},
    MetricInfo{metric::kLithoFftRowsPruned, MetricKind::kCounter,
               "zero frequency rows skipped by batched sparse inverses"},
    MetricInfo{metric::kLithoRasterCells, MetricKind::kCounter,
               "pixel cells written by the mask rasterizer"},
    MetricInfo{metric::kLithoSocsKernelSetsBuilt, MetricKind::kCounter,
               "SOCS kernel sets built (Gram + Jacobi eigensolves run)"},
    MetricInfo{metric::kLithoSocsKernelsBuilt, MetricKind::kCounter,
               "coherent kernels synthesized across all built sets"},
    MetricInfo{metric::kLithoSocsCacheHits, MetricKind::kCounter,
               "kernel-set requests served from the process KernelCache"},
    MetricInfo{metric::kLithoSocsEnergyCaptured, MetricKind::kGauge,
               "sum over built sets of the captured source-energy fraction"},
    MetricInfo{metric::kMrcViolations, MetricKind::kCounter,
               "mask-rule violations found by the post-OPC MRC gate"},
    MetricInfo{metric::kMrcTilesChecked, MetricKind::kCounter,
               "tiles swept by the scanline MRC engine in the flow gate"},
    MetricInfo{metric::kMrcTileViolations, MetricKind::kHistogram,
               "MRC violations attributed per checked tile",
               0.0, 64.0, 16},
    MetricInfo{metric::kFlowPhaseMrcMs, MetricKind::kGauge,
               "wall-clock in the parallel MRC signoff phase"},
    MetricInfo{metric::kSvcJobsSubmitted, MetricKind::kCounter,
               "job submissions received by the service daemon"},
    MetricInfo{metric::kSvcJobsAccepted, MetricKind::kCounter,
               "submissions admitted to the daemon's priority queue"},
    MetricInfo{metric::kSvcJobsRejected, MetricKind::kCounter,
               "submissions refused (queue full, draining, or bad job)"},
    MetricInfo{metric::kSvcJobsCompleted, MetricKind::kCounter,
               "daemon jobs that finished and returned ok stats"},
    MetricInfo{metric::kSvcJobsFailed, MetricKind::kCounter,
               "daemon jobs that finished with an error result"},
    MetricInfo{metric::kSvcQueueDepth, MetricKind::kGauge,
               "jobs currently waiting in the daemon's admission queue"},
    MetricInfo{metric::kSvcJobsInflight, MetricKind::kGauge,
               "jobs currently executing on the daemon's pool"},
    MetricInfo{metric::kSvcJobLatencyMs, MetricKind::kHistogram,
               "per-job wall-clock from admission to result frame",
               0.0, 20000.0, 200},
    MetricInfo{metric::kSvcProtocolErrors, MetricKind::kCounter,
               "malformed frames rejected by the daemon's wire decoder"},
    MetricInfo{metric::kSvcCacheHits, MetricKind::kCounter,
               "correction/kernel/plan cache hits summed across daemon jobs"},
    MetricInfo{metric::kSvcCacheLookups, MetricKind::kCounter,
               "correction/kernel/plan cache lookups across daemon jobs"},
    MetricInfo{metric::kPatLibraryExactHits, MetricKind::kCounter,
               "tiles replayed exactly from a library file or daemon shelf"},
    MetricInfo{metric::kPatLibraryNearHits, MetricKind::kCounter,
               "tiles warm-started from a near-match library retrieval"},
    MetricInfo{metric::kPatLibraryWarmIterations, MetricKind::kCounter,
               "imaging iterations spent on warm-started tiles"},
    MetricInfo{metric::kIltRuns, MetricKind::kCounter,
               "tiles corrected by the pixel-ILT engine"},
    MetricInfo{metric::kIltEscalations, MetricKind::kCounter,
               "model-OPC tiles escalated to pixel ILT by residual EPE"},
    MetricInfo{metric::kIltIterations, MetricKind::kHistogram,
               "accepted gradient-descent steps per ILT tile",
               0.0, 128.0, 32},
    MetricInfo{metric::kIltCostReduction, MetricKind::kHistogram,
               "fractional print-error cost reduction per ILT tile",
               0.0, 1.0, 20},
    MetricInfo{metric::kIltLegalizeRounds, MetricKind::kHistogram,
               "repair rounds needed to legalize an ILT mask",
               0.0, 16.0, 16},
};

}  // namespace

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

std::span<const MetricInfo> all_metrics() { return kMetricTable; }

std::uint64_t HistogramSnapshot::total() const {
  std::uint64_t t = underflow + overflow + nan_count;
  for (std::uint64_t b : bins) t += b;
  return t;
}

double HistogramSnapshot::quantile(double p) const {
  return util::histogram_quantile(lo, hi, bins, underflow, overflow, p);
}

HistogramMetric::HistogramMetric(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins) {
  OPCKIT_CHECK(hi > lo);
  OPCKIT_CHECK(bins > 0);
}

void HistogramMetric::observe(double x) {
  const int bin = util::histogram_bin(lo_, hi_, bins_.size(), x);
  switch (bin) {
    case util::kHistogramUnderflow:
      underflow_.fetch_add(1, std::memory_order_relaxed);
      return;
    case util::kHistogramOverflow:
      overflow_.fetch_add(1, std::memory_order_relaxed);
      return;
    case util::kHistogramNan:
      nan_.fetch_add(1, std::memory_order_relaxed);
      return;
    default:
      bins_[static_cast<std::size_t>(bin)].fetch_add(
          1, std::memory_order_relaxed);
  }
}

HistogramSnapshot HistogramMetric::snapshot() const {
  HistogramSnapshot s;
  s.lo = lo_;
  s.hi = hi_;
  s.bins.reserve(bins_.size());
  for (const auto& b : bins_) {
    s.bins.push_back(b.load(std::memory_order_relaxed));
  }
  s.underflow = underflow_.load(std::memory_order_relaxed);
  s.overflow = overflow_.load(std::memory_order_relaxed);
  s.nan_count = nan_.load(std::memory_order_relaxed);
  return s;
}

MetricsSnapshot MetricsSnapshot::delta(const MetricsSnapshot& before,
                                       const MetricsSnapshot& after) {
  MetricsSnapshot d;
  for (const auto& [name, v] : after.counters) {
    const auto it = before.counters.find(name);
    d.counters[name] = v - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, v] : after.gauges) {
    const auto it = before.gauges.find(name);
    d.gauges[name] = v - (it == before.gauges.end() ? 0.0 : it->second);
  }
  for (const auto& [name, v] : after.histograms) {
    HistogramSnapshot h = v;
    const auto it = before.histograms.find(name);
    if (it != before.histograms.end()) {
      OPCKIT_CHECK(it->second.bins.size() == h.bins.size());
      for (std::size_t i = 0; i < h.bins.size(); ++i) {
        h.bins[i] -= it->second.bins[i];
      }
      h.underflow -= it->second.underflow;
      h.overflow -= it->second.overflow;
      h.nan_count -= it->second.nan_count;
    }
    d.histograms[name] = std::move(h);
  }
  return d;
}

MetricsRegistry::MetricsRegistry() {
  for (const MetricInfo& info : all_metrics()) {
    switch (info.kind) {
      case MetricKind::kCounter:
        counters_.emplace(info.name, std::make_unique<Counter>());
        break;
      case MetricKind::kGauge:
        gauges_.emplace(info.name, std::make_unique<Gauge>());
        break;
      case MetricKind::kHistogram:
        histograms_.emplace(info.name, std::make_unique<HistogramMetric>(
                                           info.lo, info.hi, info.bins));
        break;
    }
  }
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  OPCKIT_CHECK_MSG(it != counters_.end(),
                   "no counter named '" << name
                                        << "' in the compiled registry");
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  OPCKIT_CHECK_MSG(it != gauges_.end(),
                   "no gauge named '" << name << "' in the compiled registry");
  return *it->second;
}

HistogramMetric& MetricsRegistry::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  OPCKIT_CHECK_MSG(it != histograms_.end(),
                   "no histogram named '" << name
                                          << "' in the compiled registry");
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    s.histograms[name] = h->snapshot();
  }
  return s;
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

std::string render_metrics_json(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snapshot.counters) {
    os << (first ? "" : ",") << '"' << name << "\":" << v;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : snapshot.gauges) {
    os << (first ? "" : ",") << '"' << name
       << "\":" << util::format_double(v);
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    os << (first ? "" : ",") << '"' << name
       << "\":{\"lo\":" << util::format_double(h.lo)
       << ",\"hi\":" << util::format_double(h.hi) << ",\"bins\":[";
    for (std::size_t i = 0; i < h.bins.size(); ++i) {
      os << (i ? "," : "") << h.bins[i];
    }
    os << "],\"underflow\":" << h.underflow << ",\"overflow\":" << h.overflow
       << ",\"nan\":" << h.nan_count << '}';
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string render_metrics_markdown() {
  std::ostringstream os;
  os << "# opckit metric registry\n\n"
     << "Generated by `opckit metrics --format md` from the compiled\n"
     << "registry (`src/trace/metrics.cpp`); tools/ci.sh fails on drift.\n"
     << "See docs/ARCHITECTURE.md (\"Observability\") for how these are\n"
     << "collected and where they surface (`--stats json`, T3 bench).\n\n"
     << "| metric | kind | meaning |\n|---|---|---|\n";
  for (const MetricInfo& info : all_metrics()) {
    os << "| `" << info.name << "` | " << to_string(info.kind) << " | "
       << info.help;
    if (info.kind == MetricKind::kHistogram) {
      os << " (range [" << util::format_double(info.lo) << ", "
         << util::format_double(info.hi) << "], " << info.bins << " bins)";
    }
    os << " |\n";
  }
  return os.str();
}

}  // namespace opckit::trace
