/// Crash-recovery, resume, and incremental-ECO regression tests for the
/// persistent correction store (FlowSpec::store_path / resume).
///
/// Named FlowResume* so tools/ci.sh can select them (with the
/// ThreadPool/FlowParallel tests) for the thread-sanitizer job; carried
/// by the `store`-labelled test target so the ASan job gates on them.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>

#include "core/flow.h"
#include "layout/generators.h"
#include "store/result_store.h"
#include "util/check.h"

namespace opckit::opc {
namespace {

using layout::Library;

FlowSpec fast_flow() {
  FlowSpec spec;
  spec.sim.optics.source.grid = 5;
  litho::calibrate_threshold(spec.sim, 180, 360);
  spec.opc.max_iterations = 2;  // replay correctness is iteration-agnostic
  spec.input_layer = layout::layers::kPoly;
  spec.output_layer = layout::layers::kPolyOpc;
  return spec;
}

/// Context-coupled chip: pitch below the halo, every window unique-ish.
Library dense_chip(int cols, int rows) {
  Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  layout::make_chip(lib, "top", "leaf", cols, rows, {1400, 1800});
  return lib;
}

/// The T3 4×4 repeated-placement chip, built from 16 individual SREFs so
/// a single placement can be retargeted (an AREF cannot be partially
/// edited). Placement \p eco, if non-negative, references an edited leaf
/// whose second bar is 40nm wider — the "1-cell ECO".  Pitch 4000 keeps
/// every placement outside its neighbours' 800nm halo, so an unedited
/// placement's optical neighborhood is unchanged by the edit.
Library sref_chip(int eco = -1) {
  Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  if (eco >= 0) {
    layout::Cell& edited = lib.cell("leaf_eco");
    edited.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
    edited.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 760, 1200));
  }
  layout::Cell& top = lib.cell("top");
  for (int i = 0; i < 16; ++i) {
    layout::CellRef ref;
    ref.child = i == eco ? "leaf_eco" : "leaf";
    ref.transform =
        geom::Transform(geom::Point{(i % 4) * 4000, (i / 4) * 4000});
    top.add_ref(std::move(ref));
  }
  return lib;
}

std::vector<geom::Polygon> output_polys(const Library& lib,
                                        const std::string& cell,
                                        const FlowSpec& spec) {
  const auto shapes = lib.at(cell).shapes(spec.output_layer);
  return {shapes.begin(), shapes.end()};
}

std::string store_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

/// Models a crash once \p tiles tiles have merged: a progress handler
/// counts merged tiles across passes (FlowProgress::tiles_done restarts
/// each pass) and raises \p flag, which the flow's cancel hook polls
/// before it merges the next tile — so the store holds exactly the
/// records of the \p tiles merged tiles when FlowAborted propagates.
void crash_after(FlowSpec& spec, std::size_t tiles, std::atomic<bool>& flag) {
  flag = false;
  spec.cancel = &flag;
  spec.progress = [&flag, tiles, merged = std::size_t{0}](
                      const FlowProgress& p) mutable {
    if (p.phase == "merge" && p.tiles_done > 0 && ++merged == tiles) {
      flag = true;
    }
  };
}

TEST(FlowResume, FlatCrashThenResumeIsByteIdentical) {
  FlowSpec spec = fast_flow();

  // Uninterrupted reference run (no store).
  Library ref_lib = dense_chip(2, 2);
  const FlowStats ref = run_flat_opc(ref_lib, "top", spec);
  const auto ref_out = output_polys(ref_lib, "top", spec);
  ASSERT_FALSE(ref_out.empty());
  ASSERT_EQ(ref.opc_runs, 8u);  // 4 context-coupled placements x 2 passes

  // Per job count: "crash" after 3 merged tiles with the store attached,
  // then restart with resume — byte-identical output, only the unsolved
  // tiles re-run.
  spec.store_path = store_path("flow_crash_flat.ocs");
  for (int jobs : {1, 8}) {
    spec.jobs = jobs;
    std::filesystem::remove(spec.store_path);
    {
      FlowSpec crash = spec;
      std::atomic<bool> flag;
      crash_after(crash, 3, flag);
      Library lib = dense_chip(2, 2);
      EXPECT_THROW(run_flat_opc(lib, "top", crash), FlowAborted);
    }
    FlowSpec resume = spec;
    resume.resume = true;
    Library lib = dense_chip(2, 2);
    const FlowStats s = run_flat_opc(lib, "top", resume);
    EXPECT_EQ(output_polys(lib, "top", resume), ref_out) << "jobs=" << jobs;
    EXPECT_EQ(s.store_entries_loaded, 3u) << "jobs=" << jobs;
    EXPECT_EQ(s.store_hits, 3u) << "jobs=" << jobs;
    EXPECT_EQ(s.opc_runs, 5u) << "jobs=" << jobs;
  }
}

TEST(FlowResume, CellCrashThenResumeIsByteIdentical) {
  FlowSpec spec = fast_flow();

  // Two distinct leaf cells so the cell flow has two tiles to solve.
  auto build = [] {
    Library lib = dense_chip(2, 2);
    layout::Cell& other = lib.cell("leaf2");
    other.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 240, 900));
    layout::CellRef ref;
    ref.child = "leaf2";
    ref.transform = geom::Transform(geom::Point{20000, 0});
    lib.cell("top").add_ref(std::move(ref));
    return lib;
  };

  Library ref_lib = build();
  const FlowStats ref = run_cell_opc(ref_lib, "top", spec);
  ASSERT_EQ(ref.opc_runs, 2u);
  const auto ref_leaf = output_polys(ref_lib, "leaf", spec);
  const auto ref_leaf2 = output_polys(ref_lib, "leaf2", spec);
  ASSERT_FALSE(ref_leaf.empty());

  spec.store_path = store_path("flow_crash_cell.ocs");
  for (int jobs : {1, 8}) {
    spec.jobs = jobs;
    std::filesystem::remove(spec.store_path);
    {
      FlowSpec crash = spec;
      std::atomic<bool> flag;
      crash_after(crash, 1, flag);
      Library lib = build();
      EXPECT_THROW(run_cell_opc(lib, "top", crash), FlowAborted);
    }
    FlowSpec resume = spec;
    resume.resume = true;
    Library lib = build();
    const FlowStats s = run_cell_opc(lib, "top", resume);
    EXPECT_EQ(output_polys(lib, "leaf", resume), ref_leaf)
        << "jobs=" << jobs;
    EXPECT_EQ(output_polys(lib, "leaf2", resume), ref_leaf2)
        << "jobs=" << jobs;
    EXPECT_EQ(s.store_entries_loaded, 1u) << "jobs=" << jobs;
    EXPECT_EQ(s.store_hits, 1u) << "jobs=" << jobs;
    EXPECT_EQ(s.opc_runs, 1u) << "jobs=" << jobs;
  }
}

TEST(FlowResume, WarmStoreReplaysWholeChip) {
  FlowSpec spec = fast_flow();
  spec.store_path = store_path("flow_warm.ocs");

  Library cold = sref_chip();
  const FlowStats first = run_flat_opc(cold, "top", spec);
  EXPECT_EQ(first.opc_runs, 1u);  // 16 identical isolated placements
  EXPECT_EQ(first.store_entries_appended, 1u);
  EXPECT_EQ(first.store_hits, 0u);  // nothing was preloaded

  spec.resume = true;
  Library warm = sref_chip();
  const FlowStats second = run_flat_opc(warm, "top", spec);
  EXPECT_EQ(second.opc_runs, 0u);
  EXPECT_EQ(second.store_entries_loaded, 1u);
  EXPECT_EQ(second.store_entries_appended, 0u);
  EXPECT_EQ(second.store_hits, 32u);  // 16 placements x 2 passes
  EXPECT_EQ(output_polys(warm, "top", spec), output_polys(cold, "top", spec));
}

TEST(FlowResume, EcoResolvesOnlyEditedPlacement) {
  FlowSpec spec = fast_flow();
  spec.store_path = store_path("flow_eco.ocs");

  // Base tapeout run on the unedited chip, store attached.
  Library base = sref_chip();
  const FlowStats base_stats = run_flat_opc(base, "top", spec);
  ASSERT_EQ(base_stats.opc_runs, 1u);

  // ECO: placement 5 swapped for an edited leaf. Resume against the base
  // store — only the edited placement's tiles miss.
  spec.resume = true;
  Library eco = sref_chip(5);
  const FlowStats eco_stats = run_flat_opc(eco, "top", spec);
  EXPECT_EQ(eco_stats.store_entries_loaded, 1u);
  EXPECT_EQ(eco_stats.store_hits, 30u);  // >= 30 of 32 tiles replayed
  EXPECT_EQ(eco_stats.opc_runs, 1u);    // one fresh solve for the edit
  EXPECT_EQ(eco_stats.store_entries_appended, 1u);

  // The incremental result must match a from-scratch run on the edited
  // layout, byte for byte.
  FlowSpec scratch = fast_flow();
  Library full = sref_chip(5);
  run_flat_opc(full, "top", scratch);
  EXPECT_EQ(output_polys(eco, "top", spec),
            output_polys(full, "top", scratch));
}

TEST(FlowResume, StoreResumesUnderARenamedLibraryOrNone) {
  // The library's path is not part of the flow identity, so a store
  // written under library "a" resumes under "b" and with no library.
  FlowSpec spec = fast_flow();
  spec.store_path = store_path("flow_libname.ocs");
  const std::string a = store_path("flow_libname_a.ocl");
  const std::string b = store_path("flow_libname_b.ocl");
  spec.library_path = a;
  Library cold = sref_chip();
  const FlowStats first = run_flat_opc(cold, "top", spec);
  ASSERT_EQ(first.store_entries_appended, 1u);
  const auto ref = output_polys(cold, "top", spec);

  std::filesystem::rename(a, b);
  spec.resume = true;
  for (const std::string& library : {b, std::string()}) {
    FlowSpec run = spec;
    run.library_path = library;
    Library warm = sref_chip();
    const FlowStats s = run_flat_opc(warm, "top", run);
    EXPECT_EQ(s.store_entries_loaded, 1u) << "library '" << library << "'";
    EXPECT_EQ(s.store_hits, 32u) << "library '" << library << "'";
    EXPECT_EQ(s.opc_runs, 0u) << "library '" << library << "'";
    EXPECT_EQ(output_polys(warm, "top", run), ref)
        << "library '" << library << "'";
  }
}

TEST(FlowResume, FingerprintMismatchIsRefused) {
  FlowSpec spec = fast_flow();
  spec.store_path = store_path("flow_fpmismatch.ocs");
  store::ResultStore::create(spec.store_path, 0xDEADBEEFULL);
  spec.resume = true;
  Library lib = sref_chip();
  try {
    run_flat_opc(lib, "top", spec);
    FAIL() << "stale store was not refused";
  } catch (const util::InputError& e) {
    EXPECT_NE(std::string(e.what()).find("STO001"), std::string::npos)
        << e.what();
  }
}

TEST(FlowResume, StoreRequiresCache) {
  FlowSpec spec = fast_flow();
  spec.store_path = store_path("flow_nocache.ocs");
  spec.cache = false;
  Library lib = sref_chip();
  EXPECT_THROW(run_flat_opc(lib, "top", spec), util::InputError);
}

TEST(FlowResume, FaultInjectionWorksWithoutStore) {
  FlowSpec spec = fast_flow();
  std::atomic<bool> flag;
  crash_after(spec, 1, flag);
  Library lib = sref_chip();
  EXPECT_THROW(run_flat_opc(lib, "top", spec), FlowAborted);
}

TEST(FlowResume, FingerprintCoversFlowKindAndKnobs) {
  const FlowSpec a = fast_flow();
  FlowSpec b = fast_flow();
  EXPECT_EQ(flow_fingerprint(a, "flat"), flow_fingerprint(b, "flat"));
  EXPECT_NE(flow_fingerprint(a, "flat"), flow_fingerprint(a, "cell"));
  b.opc.gain += 0.1;
  EXPECT_NE(flow_fingerprint(a, "flat"), flow_fingerprint(b, "flat"));
  b = fast_flow();
  b.sim.resist.threshold += 1e-6;
  EXPECT_NE(flow_fingerprint(a, "flat"), flow_fingerprint(b, "flat"));
  b = fast_flow();
  b.halo_nm += 1;
  EXPECT_NE(flow_fingerprint(a, "flat"), flow_fingerprint(b, "flat"));
  // Execution-only knobs are excluded: they cannot change the output.
  b = fast_flow();
  b.jobs = 8;
  b.store_path = "elsewhere.ocs";
  b.resume = true;
  EXPECT_EQ(flow_fingerprint(a, "flat"), flow_fingerprint(b, "flat"));
  // The library's path is excluded too: it names a file, not a process
  // setup, so a renamed library keeps its records.
  b = fast_flow();
  b.library_path = "patterns.ocl";
  EXPECT_EQ(flow_fingerprint(a, "flat"), flow_fingerprint(b, "flat"));
  // The budget IS mixed: near-match warm starts move the solver
  // trajectory, so the corrected mask depends on it.
  b = fast_flow();
  b.library_budget = 0.25;
  EXPECT_NE(flow_fingerprint(a, "flat"), flow_fingerprint(b, "flat"));
}

TEST(FlowResume, StatsJsonRendersAllCounters) {
  FlowStats stats;
  stats.opc_runs = 2;
  stats.simulations = 9;
  stats.corrected_polygons = 4;
  stats.all_converged = false;
  stats.cache_hits = 30;
  stats.cache_misses = 1;
  stats.cache_conflicts = 1;
  stats.store_hits = 30;
  stats.store_entries_loaded = 1;
  stats.store_entries_appended = 2;
  stats.store_tail_recovered = true;
  stats.library_exact_hits = 3;
  stats.library_near_hits = 2;
  stats.library_entries_loaded = 5;
  stats.library_entries_appended = 1;
  stats.library_warm_iterations = 7;
  stats.ilt_tiles = 2;
  stats.ilt_escalated = 1;
  stats.ilt_iterations = 12;
  stats.tile_simulations = {4, 0, 5};
  stats.max_abs_epe_nm = 1.75;
  // A value the old default-precision stream would have truncated to
  // "7.10986" — format_double must round-trip every digit.
  stats.worst_rms_epe_nm = 7.109864439;
  stats.wall_ms = 12.5;
  stats.metrics.counters["cache.hits"] = 30;
  stats.metrics.gauges["flow.phase.solve_ms"] = 10.25;
  EXPECT_EQ(render_stats_json(stats),
            "{\"opc_runs\":2,\"simulations\":9,\"corrected_polygons\":4,"
            "\"all_converged\":false,"
            "\"max_abs_epe_nm\":1.75,"
            "\"worst_rms_epe_nm\":7.109864439,"
            "\"cache\":{\"hits\":30,\"misses\":1,\"conflicts\":1},"
            "\"store\":{\"hits\":30,\"entries_loaded\":1,"
            "\"entries_appended\":2,\"tail_recovered\":true},"
            "\"library\":{\"exact_hits\":3,\"near_hits\":2,"
            "\"entries_loaded\":5,\"entries_appended\":1,"
            "\"warm_iterations\":7,\"tail_recovered\":false},"
            "\"ilt\":{\"tiles\":2,\"escalated\":1,\"iterations\":12},"
            "\"tile_simulations\":[4,0,5],"
            "\"mrc\":{\"checked\":false,\"violations\":0,"
            "\"by_rule\":{},\"tile_violations\":[]},"
            "\"wall_ms\":12.5,"
            "\"metrics\":{\"counters\":{\"cache.hits\":30},"
            "\"gauges\":{\"flow.phase.solve_ms\":10.25},"
            "\"histograms\":{}}}");
}

TEST(FlowResume, StatsJsonDoublesRoundTripAtFullPrecision) {
  // Regression for the double-emission bug: the default ostream
  // precision (6 significant digits) truncated wall_ms — a run of
  // 123456.789 ms rendered as "123457", losing sub-ms resolution and
  // breaking bench comparisons. format_double keeps every digit.
  FlowStats stats;
  stats.wall_ms = 123456.789;
  EXPECT_NE(render_stats_json(stats).find("\"wall_ms\":123456.789"),
            std::string::npos);
  stats.wall_ms = 0.30000000000000004;  // classic non-representable sum
  EXPECT_NE(
      render_stats_json(stats).find("\"wall_ms\":0.30000000000000004"),
      std::string::npos);
}

}  // namespace
}  // namespace opckit::opc
