/// Pattern-library tests: insert/dedup, deterministic nearest-match
/// retrieval and detached clones. The file it opens is the one reuse
/// format, whose round trips and corrupt-file corpus live in
/// store_result_store_test.cpp. Runs under ASan/UBSan and TSan in CI
/// (label `pat`).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "pattern/library.h"

namespace opckit::pat {
namespace {

constexpr std::uint64_t kFp = 0xfeed'beef'0bad'f00dULL;

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

/// A library record whose window geometry (hence feature vector) is
/// controlled by \p widen and whose payload identity by \p salt.
LibraryRecord sample_record(geom::Coord widen = 0, int salt = 0) {
  LibraryRecord rec;
  rec.tile.window_rects = {geom::Rect(0, 0, 180, 1200),
                           geom::Rect(540, 0, 720 + widen, 1200)};
  rec.tile.own_rects = {geom::Rect(0, 0, 180, 1200)};
  rec.tile.frame = geom::Rect(-800, -800, 1520, 2000);
  rec.tile.orientation = geom::Orientation::kR90;
  rec.tile.solution = {
      geom::Polygon(geom::Rect(-4, -12, 184 + salt, 1212))};
  rec.seeds = {{geom::Point{90, 0}, 4 + salt},
               {geom::Point{90, 1200}, -6}};
  return rec;
}

TEST(PatternLibrary, MemoryOnlyInsertAndRetrieve) {
  PatternLibrary lib;
  EXPECT_TRUE(lib.insert(sample_record(0)));
  EXPECT_TRUE(lib.insert(sample_record(40)));
  ASSERT_EQ(lib.size(), 2u);
  EXPECT_EQ(lib.record(0), sample_record(0));
  const auto near =
      lib.nearest(feature_of(sample_record(4).tile.window_rects), 0.5);
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(near->index, 0u);  // 4nm jitter is closest to the 0nm entry
  EXPECT_GT(near->distance, 0.0);
}

TEST(PatternLibrary, InsertDedupsByTileFirstWins) {
  PatternLibrary lib;
  LibraryRecord first = sample_record(0);
  EXPECT_TRUE(lib.insert(first));
  // Same tile with different seeds is the same pattern class: dropped,
  // the first inserted seeds win.
  LibraryRecord again = sample_record(0);
  again.seeds = {{geom::Point{0, 0}, 99}};
  EXPECT_FALSE(lib.insert(again));
  ASSERT_EQ(lib.size(), 1u);
  EXPECT_EQ(lib.record(0).seeds, first.seeds);
  // A different solution is a different tile — kept.
  EXPECT_TRUE(lib.insert(sample_record(0, /*salt=*/7)));
  EXPECT_EQ(lib.size(), 2u);
}

TEST(PatternLibrary, NearestIsDeterministicAndTieBreaksBySmallestIndex) {
  PatternLibrary lib;
  // Two entries with identical window geometry (identical features) but
  // distinct payloads: an exact-feature query ties; index 0 must win.
  EXPECT_TRUE(lib.insert(sample_record(0, 0)));
  EXPECT_TRUE(lib.insert(sample_record(0, 7)));
  EXPECT_TRUE(lib.insert(sample_record(400)));
  const PatternFeature query =
      feature_of(sample_record(0).tile.window_rects);
  const auto near = lib.nearest(query, 1.0);
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(near->index, 0u);
  EXPECT_EQ(near->distance, 0.0);
}

TEST(PatternLibrary, NearestHonorsBudget) {
  PatternLibrary lib;
  EXPECT_TRUE(lib.insert(sample_record(0)));
  const PatternFeature query =
      feature_of(sample_record(40).tile.window_rects);
  const double d = feature_distance(
      query, feature_of(sample_record(0).tile.window_rects));
  ASSERT_GT(d, 0.0);
  EXPECT_TRUE(lib.nearest(query, d).has_value());       // inclusive
  EXPECT_FALSE(lib.nearest(query, d * 0.5).has_value());
  EXPECT_FALSE(lib.nearest(query, -1.0).has_value());   // negative: off
  EXPECT_FALSE(PatternLibrary().nearest(query, 1e9).has_value());
}

TEST(PatternLibrary, NearestSkipsSeedlessRecords) {
  // An ILT solve is filed without seeds: it replays, but a warm start
  // needs seeds, so retrieval never returns it — not even as an exact
  // feature match. A seeded entry further away still wins.
  PatternLibrary lib;
  LibraryRecord seedless = sample_record(0);
  seedless.seeds.clear();
  EXPECT_TRUE(lib.insert(seedless));
  EXPECT_TRUE(lib.insert(sample_record(40)));
  const PatternFeature query =
      feature_of(sample_record(0).tile.window_rects);
  const auto near = lib.nearest(query, 1e9);
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(near->index, 1u);
  EXPECT_GT(near->distance, 0.0);
  PatternLibrary only_seedless;
  EXPECT_TRUE(only_seedless.insert(seedless));
  EXPECT_FALSE(only_seedless.nearest(query, 1e9).has_value());
}

TEST(PatternLibrary, CloneMemoryIsDetachedFromFile) {
  const std::string path = temp_path("lib_clone.ocl");
  auto lib = PatternLibrary::open(path, kFp);
  EXPECT_TRUE(lib.insert(sample_record(0)));

  PatternLibrary clone = lib.clone_memory();
  ASSERT_EQ(clone.size(), 1u);
  EXPECT_EQ(clone.record(0), sample_record(0));
  const std::uint64_t before = std::filesystem::file_size(path);
  // Inserting into the clone must not write through to the file...
  EXPECT_TRUE(clone.insert(sample_record(40)));
  EXPECT_EQ(std::filesystem::file_size(path), before);
  // ...and the original's later inserts don't appear in the clone.
  EXPECT_TRUE(lib.insert(sample_record(80)));
  EXPECT_EQ(clone.size(), 2u);
  EXPECT_EQ(lib.size(), 2u);
  // The clone's index still retrieves.
  EXPECT_TRUE(clone
                  .nearest(feature_of(sample_record(44).tile.window_rects),
                           0.5)
                  .has_value());
}

}  // namespace
}  // namespace opckit::pat
