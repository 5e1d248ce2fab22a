/// Unit tests for the metrics registry (trace/metrics.h).
///
/// The registry is process-global and cumulative, so every assertion on
/// live metric values works in deltas — other tests in this binary (and
/// the flows they run) may bump the same counters.
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "trace/metrics.h"
#include "util/check.h"

namespace opckit::trace {
namespace {

TEST(Metrics, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, GaugeAccumulatesDoubles) {
  Gauge g;
  g.add(1.5);
  g.add(2.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.75);
}

TEST(Metrics, CounterIsThreadSafe) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 80000u);
}

TEST(Metrics, GaugeIsThreadSafe) {
  // The CAS loop must not lose concurrent adds the way a plain
  // load/add/store would.
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 10000; ++i) g.add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), 80000.0);
}

TEST(Metrics, HistogramBoundaryAndSlotSemantics) {
  HistogramMetric h(0.0, 64.0, 16);
  h.observe(0.0);    // first bin
  h.observe(64.0);   // x == hi: LAST bin, matching util::histogram_bin
  h.observe(std::nextafter(64.0, 0.0));  // still last bin
  h.observe(-1.0);   // underflow slot
  h.observe(65.0);   // overflow slot
  h.observe(std::numeric_limits<double>::quiet_NaN());  // nan slot
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.bins.size(), 16u);
  EXPECT_EQ(s.bins.front(), 1u);
  EXPECT_EQ(s.bins.back(), 2u);
  EXPECT_EQ(s.underflow, 1u);
  EXPECT_EQ(s.overflow, 1u);
  EXPECT_EQ(s.nan_count, 1u);
  EXPECT_EQ(s.total(), 6u);
}

TEST(Metrics, RegistryServesEveryCompiledMetric) {
  MetricsRegistry& reg = metrics();
  for (const MetricInfo& info : all_metrics()) {
    switch (info.kind) {
      case MetricKind::kCounter:
        reg.counter(info.name);  // throws on a broken registry
        break;
      case MetricKind::kGauge:
        reg.gauge(info.name);
        break;
      case MetricKind::kHistogram:
        reg.histogram(info.name);
        break;
    }
  }
  const MetricsSnapshot s = reg.snapshot();
  std::size_t named = s.counters.size() + s.gauges.size() +
                      s.histograms.size();
  EXPECT_EQ(named, all_metrics().size());
}

TEST(Metrics, UnknownNameOrWrongKindThrows) {
  MetricsRegistry& reg = metrics();
  EXPECT_THROW(reg.counter("no.such.metric"), util::CheckError);
  // Declared kinds are enforced: a gauge name is not a counter.
  EXPECT_THROW(reg.counter(metric::kFlowPhaseSolveMs), util::CheckError);
  EXPECT_THROW(reg.histogram(metric::kCacheHits), util::CheckError);
}

TEST(Metrics, LookupReturnsStableReference) {
  Counter& a = metrics().counter(metric::kCacheHits);
  Counter& b = metrics().counter(metric::kCacheHits);
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, SnapshotDeltaIsolatesAnInterval) {
  MetricsRegistry& reg = metrics();
  const MetricsSnapshot before = reg.snapshot();
  reg.counter(metric::kCacheMisses).add(3);
  reg.gauge(metric::kFlowPhaseMergeMs).add(2.5);
  reg.histogram(metric::kFlowTileSimulations).observe(5.0);
  const MetricsSnapshot d = MetricsSnapshot::delta(before, reg.snapshot());
  EXPECT_EQ(d.counters.at(metric::kCacheMisses), 3u);
  EXPECT_EQ(d.counters.at(metric::kCacheHits), 0u);
  EXPECT_DOUBLE_EQ(d.gauges.at(metric::kFlowPhaseMergeMs), 2.5);
  EXPECT_EQ(d.histograms.at(metric::kFlowTileSimulations).total(), 1u);
}

TEST(Metrics, JsonRenderingIsStableAndLocaleFree) {
  MetricsSnapshot s;
  s.counters["a.count"] = 7;
  s.gauges["b.ms"] = 1.5;
  HistogramSnapshot h;
  h.lo = 0.0;
  h.hi = 4.0;
  h.bins = {1, 0};
  h.overflow = 2;
  s.histograms["c.hist"] = h;
  EXPECT_EQ(render_metrics_json(s),
            "{\"counters\":{\"a.count\":7},"
            "\"gauges\":{\"b.ms\":1.5},"
            "\"histograms\":{\"c.hist\":{\"lo\":0,\"hi\":4,\"bins\":[1,0],"
            "\"underflow\":0,\"overflow\":2,\"nan\":0}}}");
}

TEST(Metrics, MarkdownListsEveryMetricName) {
  const std::string md = render_metrics_markdown();
  for (const MetricInfo& info : all_metrics()) {
    EXPECT_NE(md.find(std::string("`").append(info.name).append("`")),
              std::string::npos)
        << info.name;
  }
}

}  // namespace
}  // namespace opckit::trace
