/// Crash-recovery, resume, and incremental-ECO regression tests for the
/// persistent pattern library (FlowSpec::library_path): a rerun over the
/// same file resumes.
///
/// Named FlowResume* so tools/ci.sh can select them (with the
/// ThreadPool/FlowParallel tests) for the thread-sanitizer job; carried
/// by the `store`-labelled test target so the ASan job gates on them.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "core/flow.h"
#include "layout/gdsii.h"
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

std::string library_file(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

/// Models a crash once \p tiles tiles have merged: a progress handler
/// counts merged tiles across passes (FlowProgress::tiles_done restarts
/// each pass) and raises \p flag, which the flow's cancel hook polls
/// before it merges the next tile — so the library holds exactly the
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

  // Uninterrupted reference run (no library).
  Library ref_lib = dense_chip(2, 2);
  const FlowStats ref = run_flat_opc(ref_lib, "top", spec);
  const auto ref_out = output_polys(ref_lib, "top", spec);
  ASSERT_FALSE(ref_out.empty());
  ASSERT_EQ(ref.opc_runs, 8u);  // 4 context-coupled placements x 2 passes

  // Per job count: "crash" after 3 merged tiles with the library
  // attached, then rerun over it — byte-identical output, only the
  // unsolved tiles re-run.
  spec.library_path = library_file("flow_crash_flat.ocl");
  for (int jobs : {1, 8}) {
    spec.jobs = jobs;
    std::filesystem::remove(spec.library_path);
    {
      FlowSpec crash = spec;
      std::atomic<bool> flag;
      crash_after(crash, 3, flag);
      Library lib = dense_chip(2, 2);
      EXPECT_THROW(run_flat_opc(lib, "top", crash), FlowAborted);
    }
    Library lib = dense_chip(2, 2);
    const FlowStats s = run_flat_opc(lib, "top", spec);
    EXPECT_EQ(output_polys(lib, "top", spec), ref_out) << "jobs=" << jobs;
    EXPECT_EQ(s.library_entries_loaded, 3u) << "jobs=" << jobs;
    EXPECT_EQ(s.library_exact_hits, 3u) << "jobs=" << jobs;
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

  spec.library_path = library_file("flow_crash_cell.ocl");
  for (int jobs : {1, 8}) {
    spec.jobs = jobs;
    std::filesystem::remove(spec.library_path);
    {
      FlowSpec crash = spec;
      std::atomic<bool> flag;
      crash_after(crash, 1, flag);
      Library lib = build();
      EXPECT_THROW(run_cell_opc(lib, "top", crash), FlowAborted);
    }
    Library lib = build();
    const FlowStats s = run_cell_opc(lib, "top", spec);
    EXPECT_EQ(output_polys(lib, "leaf", spec), ref_leaf) << "jobs=" << jobs;
    EXPECT_EQ(output_polys(lib, "leaf2", spec), ref_leaf2)
        << "jobs=" << jobs;
    EXPECT_EQ(s.library_entries_loaded, 1u) << "jobs=" << jobs;
    EXPECT_EQ(s.library_exact_hits, 1u) << "jobs=" << jobs;
    EXPECT_EQ(s.opc_runs, 1u) << "jobs=" << jobs;
  }
}

TEST(FlowResume, WarmStoreReplaysWholeChip) {
  FlowSpec spec = fast_flow();
  spec.library_path = library_file("flow_warm.ocl");

  Library cold = sref_chip();
  const FlowStats first = run_flat_opc(cold, "top", spec);
  EXPECT_EQ(first.opc_runs, 1u);  // 16 identical isolated placements
  EXPECT_EQ(first.library_entries_appended, 1u);
  EXPECT_EQ(first.library_exact_hits, 0u);  // nothing was imported

  Library warm = sref_chip();
  const FlowStats second = run_flat_opc(warm, "top", spec);
  EXPECT_EQ(second.opc_runs, 0u);
  EXPECT_EQ(second.library_entries_loaded, 1u);
  EXPECT_EQ(second.library_entries_appended, 0u);
  EXPECT_EQ(second.library_exact_hits, 32u);  // 16 placements x 2 passes
  EXPECT_EQ(output_polys(warm, "top", spec), output_polys(cold, "top", spec));
}

TEST(FlowResume, EcoResolvesOnlyEditedPlacement) {
  FlowSpec spec = fast_flow();
  spec.library_path = library_file("flow_eco.ocl");

  // Base tapeout run on the unedited chip, library attached.
  Library base = sref_chip();
  const FlowStats base_stats = run_flat_opc(base, "top", spec);
  ASSERT_EQ(base_stats.opc_runs, 1u);

  // ECO: placement 5 swapped for an edited leaf. Rerun over the base
  // library — only the edited placement's tiles miss.
  Library eco = sref_chip(5);
  const FlowStats eco_stats = run_flat_opc(eco, "top", spec);
  EXPECT_EQ(eco_stats.library_entries_loaded, 1u);
  EXPECT_EQ(eco_stats.library_exact_hits, 30u);  // >= 30 of 32 replayed
  EXPECT_EQ(eco_stats.opc_runs, 1u);    // one fresh solve for the edit
  EXPECT_EQ(eco_stats.library_entries_appended, 1u);

  // The incremental result must match a from-scratch run on the edited
  // layout, byte for byte.
  FlowSpec scratch = fast_flow();
  Library full = sref_chip(5);
  run_flat_opc(full, "top", scratch);
  EXPECT_EQ(output_polys(eco, "top", spec),
            output_polys(full, "top", scratch));
}

TEST(FlowResume, StoreResumesUnderARenamedLibraryOrNone) {
  // The library's path is not part of the flow identity, so a library
  // written as "a" resumes as "b"; a run with no library at all solves
  // afresh to the same output.
  FlowSpec spec = fast_flow();
  const std::string a = library_file("flow_libname_a.ocl");
  const std::string b = library_file("flow_libname_b.ocl");
  spec.library_path = a;
  Library cold = sref_chip();
  const FlowStats first = run_flat_opc(cold, "top", spec);
  ASSERT_EQ(first.library_entries_appended, 1u);
  const auto ref = output_polys(cold, "top", spec);

  std::filesystem::rename(a, b);
  for (const std::string& library : {b, std::string()}) {
    FlowSpec run = spec;
    run.library_path = library;
    const bool replays = !library.empty();
    Library warm = sref_chip();
    const FlowStats s = run_flat_opc(warm, "top", run);
    EXPECT_EQ(s.library_entries_loaded, replays ? 1u : 0u)
        << "library '" << library << "'";
    EXPECT_EQ(s.library_exact_hits, replays ? 32u : 0u)
        << "library '" << library << "'";
    EXPECT_EQ(s.opc_runs, replays ? 0u : 1u) << "library '" << library << "'";
    EXPECT_EQ(output_polys(warm, "top", run), ref)
        << "library '" << library << "'";
  }
}

TEST(FlowResume, EscalateCellRerunReplaysIltTiles) {
  // ILT tiles are filed without warm-start seeds, but they replay like
  // any other tile: the rerun solves nothing, not even what ILT won.
  FlowSpec spec = fast_flow();
  spec.engine = CorrectionEngine::kEscalate;
  spec.opc.max_iterations = 1;  // a rough model answer: ILT wins tiles
  spec.ilt.max_iterations = 8;
  spec.ilt_escalation_epe_nm = 0.0;  // every capped model solve escalates
  spec.library_path = library_file("flow_escalate.ocl");
  const auto build = [] {
    Library lib("chip");
    layout::Cell& t2t = lib.cell("tip2tip");
    t2t.add_rect(layout::layers::kPoly, geom::Rect(360, 0, 540, 540));
    t2t.add_rect(layout::layers::kPoly, geom::Rect(360, 800, 540, 1340));
    t2t.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1340));
    t2t.add_rect(layout::layers::kPoly, geom::Rect(720, 0, 900, 1340));
    layout::add_contact_array(lib.cell("contacts"), layout::layers::kPoly,
                              220, 440, 2, 2);
    layout::Cell& top = lib.cell("top");
    geom::Coord x = 0;
    for (const char* child : {"tip2tip", "contacts"}) {
      layout::CellRef ref;
      ref.child = child;
      ref.transform = geom::Transform(geom::Point{x, 0});
      top.add_ref(std::move(ref));
      x += 4000;
    }
    return lib;
  };
  const auto gds = [](const Library& lib, const std::string& name) {
    const std::string path = library_file(name);
    layout::write_gdsii_file(lib, path);
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };

  Library cold = build();
  const FlowStats first = run_cell_opc(cold, "top", spec);
  ASSERT_GT(first.ilt_tiles, 0u);
  EXPECT_EQ(first.library_entries_appended, first.opc_runs);

  Library warm = build();
  const FlowStats second = run_cell_opc(warm, "top", spec);
  EXPECT_EQ(second.opc_runs, 0u);
  EXPECT_EQ(second.ilt_tiles, 0u);
  EXPECT_EQ(second.library_exact_hits, first.opc_runs);
  EXPECT_EQ(gds(warm, "flow_escalate_warm.gds"),
            gds(cold, "flow_escalate_cold.gds"));
}

TEST(FlowResume, FingerprintMismatchIsRefused) {
  FlowSpec spec = fast_flow();
  spec.library_path = library_file("flow_fpmismatch.ocl");
  store::ResultStore::create(spec.library_path, 0xDEADBEEFULL);
  Library lib = sref_chip();
  try {
    run_flat_opc(lib, "top", spec);
    FAIL() << "stale library was not refused";
  } catch (const util::InputError& e) {
    EXPECT_NE(std::string(e.what()).find("STO001"), std::string::npos)
        << e.what();
  }
}

TEST(FlowResume, StoreRequiresCache) {
  FlowSpec spec = fast_flow();
  spec.library_path = library_file("flow_nocache.ocl");
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
  stats.library_exact_hits = 3;
  stats.library_near_hits = 2;
  stats.library_entries_loaded = 5;
  stats.library_entries_appended = 1;
  stats.library_warm_iterations = 7;
  stats.library_tail_recovered = true;
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
            "\"library\":{\"exact_hits\":3,\"near_hits\":2,"
            "\"entries_loaded\":5,\"entries_appended\":1,"
            "\"warm_iterations\":7,\"tail_recovered\":true},"
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
