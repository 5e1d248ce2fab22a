/// Flow-level observability tests: trace output of real tiled flows,
/// the tracing on/off output-identity guarantee, and the metrics
/// snapshot embedded in FlowStats.
///
/// Named TraceFlow* so tools/ci.sh can select them (with ThreadPool and
/// FlowParallel) for the thread-sanitizer job — the traced jobs=8 flow
/// exercises the per-thread span buffers under real contention.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/flow.h"
#include "layout/generators.h"
#include "trace/trace.h"

namespace opckit::opc {
namespace {

using layout::Library;

FlowSpec fast_flow() {
  FlowSpec spec;
  spec.sim.optics.source.grid = 5;
  litho::calibrate_threshold(spec.sim, 180, 360);
  spec.opc.max_iterations = 3;
  spec.input_layer = layout::layers::kPoly;
  spec.output_layer = layout::layers::kPolyOpc;
  return spec;
}

/// Two-placement chip with context coupling (pitch below the halo).
Library two_tile_chip() {
  Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  layout::make_chip(lib, "top", "leaf", 2, 1, {1400, 1800});
  return lib;
}

std::vector<geom::Polygon> output_polys(const Library& lib,
                                        const std::string& cell,
                                        const FlowSpec& spec) {
  const auto shapes = lib.at(cell).shapes(spec.output_layer);
  return {shapes.begin(), shapes.end()};
}

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(TraceFlow, TwoTileFlowEmitsBalancedSpanTaxonomy) {
  FlowSpec spec = fast_flow();
  spec.jobs = 2;
  Library lib = two_tile_chip();

  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.start();
  run_flat_opc(lib, "top", spec);
  tracer.stop();
  const std::string json = tracer.to_json();

  // The trace_event envelope chrome://tracing expects.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));

  // The documented span taxonomy, all present: the flow envelope, the
  // four phases, and per-tile spans on the parallel phases.
  for (const char* name :
       {"flow.flat", "flow.gather", "flow.resolve", "flow.solve",
        "flow.merge", "flow.gather.tile", "flow.solve.tile"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
  // 2 placements x 2 context passes, every tile begun exactly once.
  EXPECT_EQ(count_occurrences(json, "\"name\":\"flow.gather.tile\",\"cat\":"
                                    "\"opckit\",\"ph\":\"B\""),
            4u);
}

TEST(TraceFlow, OutputByteIdenticalTracingOnOrOff) {
  FlowSpec spec = fast_flow();
  Library ref_lib = two_tile_chip();
  spec.jobs = 1;
  const FlowStats ref_stats = run_flat_opc(ref_lib, "top", spec);
  const auto ref = output_polys(ref_lib, "top", spec);
  ASSERT_FALSE(ref.empty());

  for (int jobs : {1, 2, 8}) {
    spec.jobs = jobs;
    Library lib = two_tile_chip();
    trace::Tracer::instance().start();
    const FlowStats stats = run_flat_opc(lib, "top", spec);
    trace::Tracer::instance().stop();
    EXPECT_EQ(output_polys(lib, "top", spec), ref) << "jobs=" << jobs;
    EXPECT_EQ(stats.opc_runs, ref_stats.opc_runs) << "jobs=" << jobs;
    EXPECT_EQ(stats.tile_simulations, ref_stats.tile_simulations)
        << "jobs=" << jobs;
  }
}

TEST(TraceFlow, TracedJobs8FlowKeepsPerThreadBuffersClean) {
  // The TSan target: eight workers emitting gather/solve tile spans into
  // per-thread buffers while the driver thread runs the phase scopes,
  // then a serial merge reads everything back for rendering.
  FlowSpec spec = fast_flow();
  spec.jobs = 8;
  Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  layout::make_chip(lib, "top", "leaf", 4, 2, {1400, 1800});

  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.start();
  run_flat_opc(lib, "top", spec);
  tracer.stop();
  EXPECT_EQ(count_occurrences(tracer.to_json(), "\"ph\":\"B\""),
            count_occurrences(tracer.to_json(), "\"ph\":\"E\""));
  EXPECT_GT(tracer.event_count(), 0u);
}

TEST(TraceFlow, UntracedFlowHotPathDoesNotAllocateInTracer) {
  trace::Tracer& tracer = trace::Tracer::instance();
  ASSERT_FALSE(tracer.enabled());
  const std::size_t allocs = tracer.debug_allocations();
  FlowSpec spec = fast_flow();
  spec.jobs = 2;
  Library lib = two_tile_chip();
  run_flat_opc(lib, "top", spec);
  // Every span the flow constructed was a no-op: no buffer registration,
  // no event storage.
  EXPECT_EQ(tracer.debug_allocations(), allocs);
}

TEST(TraceFlow, FlowStatsEmbedTheRunsMetricsDelta) {
  FlowSpec spec = fast_flow();
  spec.jobs = 2;
  Library lib = two_tile_chip();
  const FlowStats stats = run_flat_opc(lib, "top", spec);

  const auto& c = stats.metrics.counters;
  EXPECT_EQ(c.at(trace::metric::kFlowOpcRuns), stats.opc_runs);
  EXPECT_EQ(c.at(trace::metric::kFlowSimulations), stats.simulations);
  EXPECT_EQ(c.at(trace::metric::kFlowCorrectedPolygons),
            stats.corrected_polygons);
  EXPECT_EQ(c.at(trace::metric::kFlowTilesMerged),
            stats.tile_simulations.size());
  EXPECT_EQ(c.at(trace::metric::kCacheHits), stats.cache_hits);
  EXPECT_EQ(c.at(trace::metric::kCacheMisses), stats.cache_misses);
  // The litho instruments fired: every fresh solve images its tile.
  // Each latent image runs the mask spectrum's r2c, the imaging
  // inverses as fused sparse batches, and the band back end's r2c and
  // c2r — the dense complex counter (litho.fft2d_transforms) stays 0 in
  // a flow. The plans live in the cached kernel and pupil sets, so a
  // flow whose sets are cached looks up none.
  const std::uint64_t images = c.at(trace::metric::kLithoAerialImages);
  EXPECT_GT(images, 0u);
  EXPECT_EQ(c.at(trace::metric::kLithoFftR2cTransforms), 2 * images);
  EXPECT_EQ(c.at(trace::metric::kLithoFftC2rTransforms), images);
  EXPECT_GT(c.at(trace::metric::kLithoFftBatchedTransforms), 0u);
  EXPECT_GT(c.at(trace::metric::kLithoRasterCells), 0u);
  // Phase wall-times were measured (gather/solve did real work).
  EXPECT_GT(stats.metrics.gauges.at(trace::metric::kFlowPhaseSolveMs), 0.0);
  // The per-tile histogram saw exactly the merged tiles.
  EXPECT_EQ(stats.metrics.histograms.at(trace::metric::kFlowTileSimulations)
                .total(),
            stats.tile_simulations.size());
}

TEST(TraceFlow, CellFlowEmitsItsOwnEnvelopeSpan) {
  FlowSpec spec = fast_flow();
  spec.jobs = 2;
  Library lib = two_tile_chip();
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.start();
  run_cell_opc(lib, "top", spec);
  tracer.stop();
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"name\":\"flow.cell\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"flow.flat\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
}

}  // namespace
}  // namespace opckit::opc
