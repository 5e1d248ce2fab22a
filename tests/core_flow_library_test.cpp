/// Dispatch-policy tests for the persistent pattern library
/// (FlowSpec::library_path / library_budget): exact hits replay
/// byte-identically at any jobs value, near hits warm-start the solver,
/// misses solve cold and accumulate, and the daemon hooks (shared
/// snapshot + sink) mirror the file-backed path. Runs under ASan/UBSan
/// and TSan in CI (label `pat`).
#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "core/flow.h"
#include "layout/generators.h"
#include "pattern/library.h"
#include "util/check.h"

namespace opckit::opc {
namespace {

using layout::Library;

FlowSpec fast_flow() {
  FlowSpec spec;
  spec.sim.optics.source.grid = 5;
  litho::calibrate_threshold(spec.sim, 180, 360);
  spec.opc.max_iterations = 2;
  spec.input_layer = layout::layers::kPoly;
  spec.output_layer = layout::layers::kPolyOpc;
  return spec;
}

/// 4×4 identical isolated placements (pitch 4000 > halo 800): one
/// pattern class, 16 tiles. \p widen jitters the second bar so every
/// window misses exact lookup but stays feature-near the unjittered
/// class.
Library iso_chip(geom::Coord widen = 0) {
  Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly,
                geom::Rect(540, 0, 720 + widen, 1200));
  layout::make_chip(lib, "top", "leaf", 4, 4, {4000, 4000});
  return lib;
}

/// Context-coupled chip (pitch below the halo): windows see neighbours,
/// so the two flat context passes produce distinct pattern classes.
Library dense_chip(geom::Coord widen = 0) {
  Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly,
                geom::Rect(540, 0, 720 + widen, 1200));
  layout::make_chip(lib, "top", "leaf", 2, 2, {1400, 1800});
  return lib;
}

std::vector<geom::Polygon> output_polys(const Library& lib,
                                        const std::string& cell,
                                        const FlowSpec& spec) {
  const auto shapes = lib.at(cell).shapes(spec.output_layer);
  return {shapes.begin(), shapes.end()};
}

std::string lib_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

TEST(FlowLibrary, LibraryRequiresCache) {
  FlowSpec spec = fast_flow();
  spec.library_path = lib_path("flowlib_nocache.ocl");
  spec.cache = false;
  Library lib = iso_chip();
  EXPECT_THROW(run_flat_opc(lib, "top", spec), util::InputError);
}

TEST(FlowLibrary, ExactHitReplaysByteIdenticalAtAnyJobs) {
  FlowSpec spec = fast_flow();
  spec.library_path = lib_path("flowlib_replay.ocl");

  // Cold run: one pattern class solved, inserted with its seeds.
  Library cold = iso_chip();
  const FlowStats first = run_flat_opc(cold, "top", spec);
  EXPECT_EQ(first.opc_runs, 1u);
  EXPECT_EQ(first.library_entries_loaded, 0u);
  EXPECT_EQ(first.library_entries_appended, 1u);
  EXPECT_EQ(first.library_exact_hits, 0u);  // nothing was imported
  const auto ref_out = output_polys(cold, "top", spec);
  ASSERT_FALSE(ref_out.empty());

  // Warm runs: every tile replays from the imported entry, byte for
  // byte, at any jobs value. Nothing new is appended, so the runs are
  // independent.
  for (int jobs : {1, 8}) {
    FlowSpec warm = spec;
    warm.jobs = jobs;
    Library lib = iso_chip();
    const FlowStats s = run_flat_opc(lib, "top", warm);
    EXPECT_EQ(s.opc_runs, 0u) << "jobs=" << jobs;
    EXPECT_EQ(s.library_entries_loaded, 1u) << "jobs=" << jobs;
    EXPECT_EQ(s.library_exact_hits, 32u) << "jobs=" << jobs;  // 16 x 2 passes
    EXPECT_EQ(s.library_entries_appended, 0u) << "jobs=" << jobs;
    EXPECT_EQ(s.library_near_hits, 0u) << "jobs=" << jobs;
    EXPECT_EQ(output_polys(lib, "top", warm), ref_out) << "jobs=" << jobs;
  }
}

TEST(FlowLibrary, CellFlowReplaysFromLibrary) {
  FlowSpec spec = fast_flow();
  spec.library_path = lib_path("flowlib_cell.ocl");

  Library cold = iso_chip();
  const FlowStats first = run_cell_opc(cold, "top", spec);
  EXPECT_EQ(first.opc_runs, 1u);  // one distinct leaf cell
  EXPECT_EQ(first.library_entries_appended, 1u);
  const auto ref_leaf = output_polys(cold, "leaf", spec);
  ASSERT_FALSE(ref_leaf.empty());

  Library warm = iso_chip();
  const FlowStats second = run_cell_opc(warm, "top", spec);
  EXPECT_EQ(second.opc_runs, 0u);
  EXPECT_EQ(second.library_exact_hits, 1u);
  EXPECT_EQ(output_polys(warm, "leaf", spec), ref_leaf);
}

TEST(FlowLibrary, NearMatchWarmStartsJitteredPattern) {
  FlowSpec spec = fast_flow();
  spec.opc.max_iterations = 6;  // room for warm starts to converge early
  spec.library_path = lib_path("flowlib_near.ocl");
  spec.library_budget = 0.75;

  // Seed the library from the unjittered chip. An empty library can
  // produce no near hits.
  Library cold = iso_chip();
  const FlowStats first = run_flat_opc(cold, "top", spec);
  EXPECT_EQ(first.library_near_hits, 0u);
  EXPECT_EQ(first.library_entries_appended, 1u);

  // A 4nm edit misses exact lookup everywhere but retrieves the solved
  // class as a warm start; the solve still runs to convergence, so its
  // fresh solution accumulates alongside the seed entry.
  Library warm = iso_chip(4);
  const FlowStats second = run_flat_opc(warm, "top", spec);
  EXPECT_EQ(second.library_exact_hits, 0u);
  EXPECT_EQ(second.library_near_hits, 1u);  // one fresh solve, warm-started
  EXPECT_GT(second.library_warm_iterations, 0u);
  EXPECT_LE(second.library_warm_iterations, second.simulations);
  EXPECT_EQ(second.opc_runs, 1u);
  EXPECT_EQ(second.library_entries_loaded, 1u);
  EXPECT_EQ(second.library_entries_appended, 1u);
  ASSERT_FALSE(output_polys(warm, "top", spec).empty());
}

TEST(FlowLibrary, WarmStartDoesNotCostIterations) {
  // The warm-started solve of a jittered pattern must never iterate
  // more than the cold solve of the same pattern (the t11 bench
  // measures the actual savings; this pins the direction).
  FlowSpec cold_spec = fast_flow();
  cold_spec.opc.max_iterations = 6;
  Library cold = iso_chip(4);
  const FlowStats cold_stats = run_flat_opc(cold, "top", cold_spec);

  FlowSpec warm_spec = cold_spec;
  warm_spec.library_path = lib_path("flowlib_savings.ocl");
  warm_spec.library_budget = 0.75;
  Library seed = iso_chip();
  run_flat_opc(seed, "top", warm_spec);
  Library warm = iso_chip(4);
  const FlowStats warm_stats = run_flat_opc(warm, "top", warm_spec);
  EXPECT_EQ(warm_stats.library_near_hits, 1u);
  EXPECT_LE(warm_stats.library_warm_iterations, cold_stats.simulations);
}

TEST(FlowLibrary, ZeroBudgetAccumulatesWithoutNearMatching) {
  FlowSpec spec = fast_flow();
  spec.library_path = lib_path("flowlib_zero.ocl");
  ASSERT_EQ(spec.library_budget, 0.0);  // default: near matching off

  Library cold = iso_chip();
  run_flat_opc(cold, "top", spec);
  Library jit = iso_chip(4);
  const FlowStats s = run_flat_opc(jit, "top", spec);
  EXPECT_EQ(s.library_near_hits, 0u);
  EXPECT_EQ(s.library_warm_iterations, 0u);
  EXPECT_EQ(s.opc_runs, 1u);               // solved cold
  EXPECT_EQ(s.library_entries_appended, 1u);

  // Both classes persisted under the flow fingerprint — the library is
  // reopenable outside the flow with exactly that key.
  auto lib = pat::PatternLibrary::open(spec.library_path,
                                       flow_fingerprint(spec, "flat"));
  EXPECT_EQ(lib.size(), 2u);
}

TEST(FlowLibrary, TightBudgetFindsNoNearMatch) {
  FlowSpec spec = fast_flow();
  spec.library_path = lib_path("flowlib_tight.ocl");
  spec.library_budget = 1e-9;

  Library cold = iso_chip();
  run_flat_opc(cold, "top", spec);
  Library jit = iso_chip(4);
  const FlowStats s = run_flat_opc(jit, "top", spec);
  EXPECT_EQ(s.library_near_hits, 0u);  // jitter distance exceeds budget
  EXPECT_EQ(s.opc_runs, 1u);
}

TEST(FlowLibrary, WarmStartedFlowIsDeterministicAcrossJobs) {
  FlowSpec spec = fast_flow();
  spec.opc.max_iterations = 4;
  spec.library_path = lib_path("flowlib_jobs.ocl");
  spec.library_budget = 0.75;

  // Seed with the context-coupled chip: several distinct classes.
  Library cold = dense_chip();
  const FlowStats seed_stats = run_flat_opc(cold, "top", spec);
  ASSERT_GT(seed_stats.library_entries_appended, 1u);
  // Stash the seeded library; warm runs append, so each jobs value must
  // start from identical bytes.
  const std::string stash = lib_path("flowlib_jobs.stash");
  std::filesystem::copy_file(spec.library_path, stash);

  std::vector<geom::Polygon> ref_out;
  FlowStats ref_stats;
  for (int jobs : {1, 8}) {
    std::filesystem::copy_file(
        stash, spec.library_path,
        std::filesystem::copy_options::overwrite_existing);
    FlowSpec run = spec;
    run.jobs = jobs;
    Library lib = dense_chip(4);
    const FlowStats s = run_flat_opc(lib, "top", run);
    if (jobs == 1) {
      ref_out = output_polys(lib, "top", run);
      ref_stats = s;
      EXPECT_GT(s.library_near_hits, 0u);
    } else {
      EXPECT_EQ(output_polys(lib, "top", run), ref_out);
      EXPECT_EQ(s.library_near_hits, ref_stats.library_near_hits);
      EXPECT_EQ(s.library_exact_hits, ref_stats.library_exact_hits);
      EXPECT_EQ(s.library_entries_appended,
                ref_stats.library_entries_appended);
      EXPECT_EQ(s.opc_runs, ref_stats.opc_runs);
      EXPECT_EQ(s.simulations, ref_stats.simulations);
    }
  }
}

TEST(FlowLibrary, SharedSnapshotAndSinkMirrorTheFilePath) {
  // The daemon hooks: a sink accumulates fresh solves into a shared
  // in-memory library, and a later job warm-starts from its snapshot —
  // no file involved.
  pat::PatternLibrary shared;
  FlowSpec cold = fast_flow();
  cold.library_sink = [&shared](const pat::LibraryRecord& rec) {
    shared.insert(rec);
  };
  Library lib = iso_chip();
  const FlowStats first = run_flat_opc(lib, "top", cold);
  EXPECT_EQ(shared.size(), 1u);
  // Sink-only runs touch no file: nothing loaded or appended.
  EXPECT_EQ(first.library_entries_loaded, 0u);
  EXPECT_EQ(first.library_entries_appended, 0u);
  ASSERT_FALSE(shared.record(0).seeds.empty());

  FlowSpec warm = fast_flow();
  warm.opc.max_iterations = 6;
  warm.library = &shared;
  warm.library_budget = 0.75;
  Library jit = iso_chip(4);
  const FlowStats s = run_flat_opc(jit, "top", warm);
  EXPECT_EQ(s.library_near_hits, 1u);
  EXPECT_GT(s.library_warm_iterations, 0u);
  EXPECT_EQ(s.library_entries_loaded, 0u);
  EXPECT_EQ(s.library_entries_appended, 0u);
}

TEST(FlowLibrary, TornLibraryTailRecoversAndResolves) {
  FlowSpec spec = fast_flow();
  spec.library_path = lib_path("flowlib_torn.ocl");
  Library cold = iso_chip();
  run_flat_opc(cold, "top", spec);

  // Tear the single record: the flow recovers (crash contract, not an
  // error), reports it, and simply re-solves what was lost.
  const auto size = std::filesystem::file_size(spec.library_path);
  std::filesystem::resize_file(spec.library_path, size - 3);
  Library again = iso_chip();
  const FlowStats s = run_flat_opc(again, "top", spec);
  EXPECT_TRUE(s.library_tail_recovered);
  EXPECT_EQ(s.library_entries_loaded, 0u);
  EXPECT_EQ(s.opc_runs, 1u);
  EXPECT_EQ(s.library_entries_appended, 1u);
  EXPECT_EQ(output_polys(again, "top", spec),
            output_polys(cold, "top", spec));
}

}  // namespace
}  // namespace opckit::opc
