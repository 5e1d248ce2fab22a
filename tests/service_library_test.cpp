/// CorrectionLibrary + FlowSpec service-hook tests: cross-run sharing,
/// dedup, durable reload, and the library/library_sink/cancel/progress
/// plumbing the daemon builds on (src/service/library.h, core/flow.h).
#include <gtest/gtest.h>

#include <filesystem>

#include "core/flow.h"
#include "layout/generators.h"
#include "service/library.h"

namespace opckit::svc {
namespace {

using layout::Library;

opc::FlowSpec fast_flow() {
  opc::FlowSpec spec;
  spec.sim.optics.source.grid = 5;
  litho::calibrate_threshold(spec.sim, 180, 360);
  spec.opc.max_iterations = 2;
  spec.input_layer = layout::layers::kPoly;
  spec.output_layer = layout::layers::kPolyOpc;
  return spec;
}

/// Repeated-placement chip: pitch far above the halo, so every placement
/// is one pattern class and replay coverage is total.
Library sparse_chip(int cols = 3, int rows = 3) {
  Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  layout::make_chip(lib, "top", "leaf", cols, rows, {4000, 4000});
  return lib;
}

std::vector<geom::Polygon> output_polys(const Library& lib,
                                        const opc::FlowSpec& spec) {
  const auto shapes = lib.at("top").shapes(spec.output_layer);
  return {shapes.begin(), shapes.end()};
}

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

pat::LibraryRecord sample_record(geom::Coord x) {
  pat::LibraryRecord rec;
  rec.tile.window_rects.push_back(geom::Rect(x, 0, x + 180, 1200));
  rec.tile.own_rects = rec.tile.window_rects;
  rec.tile.frame = geom::Rect(x - 800, -800, x + 980, 2000);
  rec.tile.solution.push_back(
      geom::Polygon(geom::Rect(x, 0, x + 182, 1200)));
  rec.seeds = {{geom::Point{x, 600}, 2}};
  return rec;
}

TEST(ServiceLibrary, SnapshotOfFreshFingerprintIsEmpty) {
  CorrectionLibrary lib({});
  EXPECT_EQ(lib.snapshot(42).size(), 0u);
  EXPECT_EQ(lib.size(42), 0u);
}

TEST(ServiceLibrary, AddDeduplicatesByFullRecordEquality) {
  CorrectionLibrary lib({});
  lib.add(1, sample_record(0));
  lib.add(1, sample_record(0));  // identical: dropped
  EXPECT_EQ(lib.size(1), 1u);
  lib.add(1, sample_record(500));  // different geometry: kept
  EXPECT_EQ(lib.size(1), 2u);
  // Same geometry, different solution: NOT equal, kept (first match
  // still wins at resolve time — import order decides).
  pat::LibraryRecord variant = sample_record(0);
  variant.tile.solution.clear();
  lib.add(1, variant);
  EXPECT_EQ(lib.size(1), 3u);
}

TEST(ServiceLibrary, ShelvesAreIndependentPerFingerprint) {
  CorrectionLibrary lib({});
  lib.add(1, sample_record(0));
  lib.add(2, sample_record(0));
  EXPECT_EQ(lib.size(1), 1u);
  EXPECT_EQ(lib.size(2), 1u);
  EXPECT_EQ(lib.snapshot(3).size(), 0u);
}

TEST(ServiceLibrary, DurableShelfReloadsAcrossInstances) {
  const std::string dir = temp_dir("svc_lib_reload");
  {
    CorrectionLibrary lib({dir, /*sync_on_append=*/true});
    lib.add(7, sample_record(0));
    lib.add(7, sample_record(500));
    EXPECT_TRUE(std::filesystem::exists(lib.path_for(7)));
  }
  // A second instance over the same directory — the daemon-restart path.
  CorrectionLibrary lib2({dir, true});
  const pat::PatternLibrary shelf = lib2.snapshot(7);
  ASSERT_EQ(shelf.size(), 2u);
  EXPECT_EQ(shelf.record(0), sample_record(0));
  EXPECT_EQ(shelf.record(1), sample_record(500));
  // Dedup survives the reload: re-adding a loaded record is a no-op.
  lib2.add(7, sample_record(0));
  EXPECT_EQ(lib2.size(7), 2u);
}

TEST(ServiceLibrary, MemoryOnlyModeWritesNoFiles) {
  CorrectionLibrary lib({});
  lib.add(1, sample_record(0));
  EXPECT_EQ(lib.path_for(1), "");
}

TEST(ServiceLibrary, FingerprintKeyedFileNames) {
  CorrectionLibrary lib({"/some/dir", true});
  EXPECT_EQ(lib.path_for(0xDEADBEEF),
            "/some/dir/00000000deadbeef.ocl");
  // The benchmark's second name for the one shelf file.
  EXPECT_EQ(lib.pattern_path_for(0xDEADBEEF), lib.path_for(0xDEADBEEF));
}

// ---- FlowSpec service hooks -------------------------------------------

TEST(ServiceLibrary, SnapshotAndSinkRoundTripThroughFlow) {
  const opc::FlowSpec base = fast_flow();
  const std::uint64_t fp = opc::flow_fingerprint(base, "flat");
  CorrectionLibrary shared({});

  // First run: everything solves fresh; every class lands in the library
  // via library_sink.
  Library chip1 = sparse_chip();
  opc::FlowSpec first = base;
  first.library_sink = [&](const pat::LibraryRecord& rec) {
    shared.add(fp, rec);
  };
  const opc::FlowStats stats1 = opc::run_flat_opc(chip1, "top", first);
  EXPECT_GT(stats1.opc_runs, 0u);
  EXPECT_GT(shared.size(fp), 0u);

  // Second run, fresh process state: the snapshot replays every tile —
  // zero solves — and the output is byte-identical.
  Library chip2 = sparse_chip();
  opc::FlowSpec second = base;
  const pat::PatternLibrary shelf = shared.snapshot(fp);
  second.library = &shelf;
  const opc::FlowStats stats2 = opc::run_flat_opc(chip2, "top", second);
  EXPECT_EQ(stats2.opc_runs, 0u);
  EXPECT_EQ(stats2.library_entries_loaded, shelf.size());
  EXPECT_GT(stats2.library_exact_hits, 0u);
  EXPECT_EQ(output_polys(chip1, base), output_polys(chip2, base));
}

TEST(ServiceLibrary, SnapshotRequiresCache) {
  Library chip = sparse_chip(1, 1);
  opc::FlowSpec spec = fast_flow();
  spec.cache = false;
  pat::PatternLibrary shelf;
  shelf.insert(sample_record(0));
  spec.library = &shelf;
  EXPECT_THROW(opc::run_flat_opc(chip, "top", spec), util::InputError);
}

TEST(ServiceLibrary, PreSetCancelAbortsBeforeAnyWork) {
  Library chip = sparse_chip(1, 1);
  opc::FlowSpec spec = fast_flow();
  const std::atomic<bool> cancel{true};
  spec.cancel = &cancel;
  EXPECT_THROW(opc::run_flat_opc(chip, "top", spec), opc::FlowAborted);
  EXPECT_TRUE(output_polys(chip, spec).empty());
}

TEST(ServiceLibrary, ProgressEventsCoverEveryPhaseInOrder) {
  Library chip = sparse_chip(2, 2);
  opc::FlowSpec spec = fast_flow();
  std::vector<opc::FlowProgress> events;
  spec.progress = [&](const opc::FlowProgress& p) { events.push_back(p); };
  opc::run_flat_opc(chip, "top", spec);

  ASSERT_FALSE(events.empty());
  auto count_phase_starts = [&](std::string_view phase) {
    std::size_t n = 0;
    for (const auto& e : events) {
      if (e.phase == phase && e.tiles_done == 0) ++n;
    }
    return n;
  };
  // Two context passes: each phase starts once per pass.
  EXPECT_EQ(count_phase_starts("gather"), 2u);
  EXPECT_EQ(count_phase_starts("resolve"), 2u);
  EXPECT_EQ(count_phase_starts("solve"), 2u);
  EXPECT_EQ(count_phase_starts("merge"), 2u);
  // The merge watermark reaches tiles_total in the final pass.
  const auto& last = events.back();
  EXPECT_EQ(last.phase, "merge");
  EXPECT_EQ(last.pass, 1);
  EXPECT_EQ(last.tiles_done, last.tiles_total);
  EXPECT_EQ(last.tiles_total, 4u);
}

TEST(ServiceLibrary, ProgressIsObservabilityOnly) {
  // Same run with and without a progress handler: identical output and
  // identical work accounting.
  Library with = sparse_chip();
  Library without = sparse_chip();
  opc::FlowSpec spec = fast_flow();
  const opc::FlowStats plain = opc::run_flat_opc(without, "top", spec);
  std::size_t events = 0;
  spec.progress = [&](const opc::FlowProgress&) { ++events; };
  const opc::FlowStats observed = opc::run_flat_opc(with, "top", spec);
  EXPECT_GT(events, 0u);
  EXPECT_EQ(plain.opc_runs, observed.opc_runs);
  EXPECT_EQ(output_polys(with, spec), output_polys(without, spec));
}

}  // namespace
}  // namespace opckit::svc
