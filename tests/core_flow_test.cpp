#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "core/flow.h"
#include "layout/generators.h"
#include "trace/metrics.h"
#include "util/check.h"

namespace opckit::opc {
namespace {

using layout::Library;

FlowSpec fast_flow() {
  FlowSpec spec;
  spec.sim.optics.source.grid = 5;
  litho::calibrate_threshold(spec.sim, 180, 360);
  spec.opc.max_iterations = 6;
  spec.input_layer = layout::layers::kPoly;
  spec.output_layer = layout::layers::kPolyOpc;
  return spec;
}

Library small_chip(int cols, int rows) {
  Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  // A small, cheap-to-simulate cell: two short lines.
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  layout::make_chip(lib, "top", "leaf", cols, rows, {1400, 1800});
  return lib;
}

TEST(Flow, CellOpcWritesOutputLayerOncePerCell) {
  Library lib = small_chip(3, 2);
  const FlowSpec spec = fast_flow();
  const FlowStats stats = run_cell_opc(lib, "top", spec);
  EXPECT_EQ(stats.opc_runs, 1u);  // one distinct cell with shapes
  EXPECT_GT(stats.simulations, 0u);
  EXPECT_GE(lib.at("leaf").shapes(spec.output_layer).size(), 2u);
  EXPECT_TRUE(lib.at("top").shapes(spec.output_layer).empty());
  // Output layer flattens to placements x corrected shapes.
  const auto flat = lib.flatten("top", spec.output_layer);
  EXPECT_EQ(flat.size(),
            6 * lib.at("leaf").shapes(spec.output_layer).size());
}

TEST(Flow, FlatOpcRunsPerPlacementAndPass) {
  Library lib = small_chip(2, 2);
  FlowSpec spec = fast_flow();
  spec.flat_context_passes = 1;
  const FlowStats one_pass = run_flat_opc(lib, "top", spec);
  EXPECT_EQ(one_pass.opc_runs, 4u);
  EXPECT_EQ(one_pass.corrected_polygons, 8u);
  EXPECT_EQ(lib.at("top").shapes(spec.output_layer).size(), 8u);

  Library lib3 = small_chip(2, 2);
  spec.flat_context_passes = 2;
  const FlowStats two_pass = run_flat_opc(lib3, "top", spec);
  EXPECT_EQ(two_pass.opc_runs, 8u);
  EXPECT_EQ(two_pass.corrected_polygons, 8u);

  // Flat output costs more simulations than the cell-level flow.
  Library lib2 = small_chip(2, 2);
  const FlowStats cell_stats = run_cell_opc(lib2, "top", spec);
  EXPECT_GT(one_pass.simulations, cell_stats.simulations);
}

TEST(Flow, FlatOpcCorrectionsLandAtPlacements) {
  Library lib = small_chip(2, 1);
  const FlowSpec spec = fast_flow();
  run_flat_opc(lib, "top", spec);
  geom::Rect box = geom::Rect::empty();
  for (const auto& p : lib.at("top").shapes(spec.output_layer)) {
    box = box.united(p.bbox());
  }
  // Both placements covered (second at x offset 1400).
  EXPECT_LE(box.lo.x, 10);
  EXPECT_GE(box.hi.x, 1400 + 700);
}

TEST(Flow, RerunReplacesOutputLayer) {
  Library lib = small_chip(1, 1);
  const FlowSpec spec = fast_flow();
  run_cell_opc(lib, "top", spec);
  const std::size_t n1 = lib.at("leaf").shapes(spec.output_layer).size();
  run_cell_opc(lib, "top", spec);
  EXPECT_EQ(lib.at("leaf").shapes(spec.output_layer).size(), n1);
}

// FlowDriver: both flows run on one tiled driver. These cases pin where
// the two flows used to differ; tools/ci.sh runs the suite under TSan.

TEST(FlowDriver, ShapesOnOtherLayersDoNotChangeOutput) {
  // A metal-1 bar below the poly must not widen the cell's window (and
  // with it the simulation frame): the unit window is the bbox of the
  // input-layer shapes.
  auto with_metal = [] {
    Library lib = small_chip(2, 1);
    lib.cell("leaf").add_rect(layout::layers::kMetal1,
                              geom::Rect(0, -3000, 720, -2800));
    return lib;
  };
  FlowSpec spec = fast_flow();
  for (const int jobs : {1, 4}) {
    spec.jobs = jobs;
    Library plain = small_chip(2, 1);
    Library metal = with_metal();
    run_cell_opc(plain, "top", spec);
    run_cell_opc(metal, "top", spec);
    const auto want = plain.at("leaf").shapes(spec.output_layer);
    const auto got = metal.at("leaf").shapes(spec.output_layer);
    ASSERT_FALSE(want.empty());
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << "jobs=" << jobs;
  }
  // The flat flow always took its windows from the input layer alone.
  spec.flat_context_passes = 1;
  Library plain = small_chip(2, 1);
  Library metal = with_metal();
  run_flat_opc(plain, "top", spec);
  run_flat_opc(metal, "top", spec);
  const auto want = plain.at("top").shapes(spec.output_layer);
  const auto got = metal.at("top").shapes(spec.output_layer);
  ASSERT_FALSE(want.empty());
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()));
}

TEST(FlowDriver, ChipWithoutInputShapesStillRunsTheWholeFlow) {
  // Only metal-1 below the top, and a stale mask on the top's output
  // layer from some earlier run.
  Library lib("chip");
  lib.cell("leaf").add_rect(layout::layers::kMetal1,
                            geom::Rect(0, 0, 180, 1200));
  layout::make_chip(lib, "top", "leaf", 2, 1, {1400, 1800});
  FlowSpec spec = fast_flow();
  lib.cell("top").add_rect(spec.output_layer, geom::Rect(0, 0, 100, 100));
  spec.mrc_deck = mrc::mask_deck_180();
  for (const int jobs : {1, 4}) {
    spec.jobs = jobs;
    for (const bool flat : {false, true}) {
      const FlowStats stats = flat ? run_flat_opc(lib, "top", spec)
                                   : run_cell_opc(lib, "top", spec);
      const char* flow = flat ? "flat" : "cell";
      EXPECT_EQ(stats.opc_runs, 0u) << flow;
      EXPECT_GT(stats.wall_ms, 0.0) << flow;
      EXPECT_EQ(stats.metrics.counters.count(trace::metric::kFlowTilesMerged),
                1u)
          << flow;
      EXPECT_TRUE(stats.mrc_checked) << flow;
      EXPECT_TRUE(stats.mrc.violations.empty()) << flow;
    }
    // The flat flow owns the top's output layer: the stale mask is gone.
    EXPECT_TRUE(lib.at("top").shapes(spec.output_layer).empty());
    lib.cell("top").add_rect(spec.output_layer, geom::Rect(0, 0, 100, 100));
  }
}

/// The message of the util::InputError \p run throws, or "" if it
/// throws none.
template <typename Run>
std::string input_error(Run run) {
  try {
    run();
  } catch (const util::InputError& e) {
    return e.what();
  }
  return "";
}

TEST(FlowDriver, JobsOutsideTheBoundAreRefused) {
  // jobs sizes a pool owned by the run, so both flows refuse a value
  // outside [0, kMaxJobs] before anything else.
  FlowSpec spec = fast_flow();
  spec.jobs = -1;
  for (const bool flat : {false, true}) {
    Library lib = small_chip(1, 1);
    const std::string what = input_error([&] {
      flat ? run_flat_opc(lib, "top", spec) : run_cell_opc(lib, "top", spec);
    });
    EXPECT_NE(what.find("jobs -1 is outside [0, 1024]"), std::string::npos)
        << (flat ? "flat: " : "cell: ") << what;
  }
  // Values too large to start a pool for are tried on a library without
  // the named top cell, which the flows refuse as well once past the
  // bound: the bound must come first, and no pool may ever be built
  // from such a value.
  spec.preflight = false;
  for (const int jobs : {kMaxJobs + 1, std::numeric_limits<int>::max()}) {
    spec.jobs = jobs;
    for (const bool flat : {false, true}) {
      Library lib = small_chip(1, 1);
      const std::string what = input_error([&] {
        flat ? run_flat_opc(lib, "no_such_top", spec)
             : run_cell_opc(lib, "no_such_top", spec);
      });
      EXPECT_NE(what.find("jobs " + std::to_string(jobs) + " is outside"),
                std::string::npos)
          << (flat ? "flat: " : "cell: ") << what;
    }
  }
}

}  // namespace
}  // namespace opckit::opc
