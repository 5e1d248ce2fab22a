#include <gtest/gtest.h>

#include <string>

#include "layout/library.h"
#include "util/check.h"

namespace opckit::layout {
namespace {

using geom::Orientation;
using geom::Point;
using geom::Rect;
using geom::Transform;

Library two_level_library() {
  Library lib("test");
  Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layers::kPoly, Rect(0, 0, 10, 10));
  Cell& top = lib.cell("top");
  top.add_rect(layers::kPoly, Rect(100, 100, 110, 110));
  CellRef ref;
  ref.child = "leaf";
  ref.transform.displacement = {50, 0};
  top.add_ref(ref);
  return lib;
}

TEST(Library, CellCreationAndLookup) {
  Library lib("l");
  lib.cell("a").add_rect(layers::kPoly, Rect(0, 0, 1, 1));
  EXPECT_TRUE(lib.has_cell("a"));
  EXPECT_FALSE(lib.has_cell("b"));
  EXPECT_EQ(lib.at("a").polygon_count(), 1u);
  EXPECT_THROW(lib.at("b"), util::InputError);
  EXPECT_EQ(lib.size(), 1u);
}

TEST(Library, CellIsIdempotent) {
  Library lib("l");
  lib.cell("a").add_rect(layers::kPoly, Rect(0, 0, 1, 1));
  lib.cell("a").add_rect(layers::kPoly, Rect(2, 2, 3, 3));
  EXPECT_EQ(lib.size(), 1u);
  EXPECT_EQ(lib.at("a").polygon_count(), 2u);
}

TEST(Library, TopCells) {
  Library lib = two_level_library();
  const auto tops = lib.top_cells();
  ASSERT_EQ(tops.size(), 1u);
  EXPECT_EQ(tops[0], "top");
}

TEST(Library, ValidatePassesOnGoodHierarchy) {
  Library lib = two_level_library();
  EXPECT_NO_THROW(lib.validate());
}

TEST(Library, ValidateCatchesUnresolvedRef) {
  Library lib("l");
  CellRef ref;
  ref.child = "ghost";
  lib.cell("top").add_ref(ref);
  EXPECT_THROW(lib.validate(), util::InputError);
}

TEST(Library, ValidateCatchesCycle) {
  Library lib("l");
  CellRef to_b, to_a;
  to_b.child = "b";
  to_a.child = "a";
  lib.cell("a").add_ref(to_b);
  lib.cell("b").add_ref(to_a);
  EXPECT_THROW(lib.validate(), util::InputError);
}

TEST(Library, FlattenAppliesTransforms) {
  Library lib = two_level_library();
  const auto flat = lib.flatten("top", layers::kPoly);
  ASSERT_EQ(flat.size(), 2u);
  // One shape at (100,100), one leaf shape translated by (50,0).
  geom::Rect all = geom::Rect::empty();
  for (const auto& p : flat) all = all.united(p.bbox());
  EXPECT_EQ(all, Rect(50, 0, 110, 110));
}

TEST(Library, FlattenWithRotatedRef) {
  Library lib("l");
  lib.cell("leaf").add_rect(layers::kPoly, Rect(0, 0, 10, 4));
  CellRef ref;
  ref.child = "leaf";
  ref.transform = Transform(Orientation::kR90, {0, 0});
  lib.cell("top").add_ref(ref);
  const auto flat = lib.flatten("top", layers::kPoly);
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat[0].bbox(), Rect(-4, 0, 0, 10));
}

TEST(Library, FlattenArrayExpandsAllPlacements) {
  Library lib("l");
  lib.cell("leaf").add_rect(layers::kPoly, Rect(0, 0, 10, 10));
  CellRef ref;
  ref.child = "leaf";
  ref.columns = 3;
  ref.rows = 2;
  ref.column_step = {100, 0};
  ref.row_step = {0, 200};
  lib.cell("top").add_ref(ref);
  const auto flat = lib.flatten("top", layers::kPoly);
  EXPECT_EQ(flat.size(), 6u);
  EXPECT_EQ(lib.bbox("top"), Rect(0, 0, 210, 210));
}

TEST(Library, FlattenNestedTwoLevels) {
  Library lib("l");
  lib.cell("leaf").add_rect(layers::kPoly, Rect(0, 0, 10, 10));
  CellRef r1;
  r1.child = "leaf";
  r1.transform.displacement = {100, 0};
  lib.cell("mid").add_ref(r1);
  CellRef r2;
  r2.child = "mid";
  r2.transform.displacement = {0, 1000};
  lib.cell("top").add_ref(r2);
  const auto flat = lib.flatten("top", layers::kPoly);
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat[0].bbox(), Rect(100, 1000, 110, 1010));
}

TEST(Library, FlattenAllGroupsByLayer) {
  Library lib = two_level_library();
  lib.cell("leaf").add_rect(layers::kMetal1, Rect(0, 0, 5, 5));
  const auto all = lib.flatten_all("top");
  EXPECT_EQ(all.at(layers::kPoly).size(), 2u);
  EXPECT_EQ(all.at(layers::kMetal1).size(), 1u);
}

TEST(Library, StatsCountsHierarchy) {
  Library lib("l");
  lib.cell("leaf").add_rect(layers::kPoly, Rect(0, 0, 10, 10));
  CellRef ref;
  ref.child = "leaf";
  ref.columns = 4;
  ref.rows = 4;
  ref.column_step = {20, 0};
  ref.row_step = {0, 20};
  lib.cell("top").add_ref(ref);
  const HierarchyStats s = lib.stats("top");
  EXPECT_EQ(s.distinct_cells, 2u);
  EXPECT_EQ(s.placements, 16);
  EXPECT_EQ(s.local_polygons, 1u);
  EXPECT_EQ(s.flat_polygons, 16);
  EXPECT_EQ(s.local_vertices, 4u);
  EXPECT_EQ(s.flat_vertices, 64);
  EXPECT_EQ(s.depth, 1);
  EXPECT_DOUBLE_EQ(s.hierarchy_leverage(), 16.0);
}

TEST(Library, StatsDepthOfChain) {
  Library lib("l");
  lib.cell("c0").add_rect(layers::kPoly, Rect(0, 0, 1, 1));
  const auto name = [](int i) {
    return std::string("c").append(std::to_string(i));
  };
  for (int i = 1; i <= 3; ++i) {
    CellRef ref;
    ref.child = name(i - 1);
    lib.cell(name(i)).add_ref(ref);
  }
  EXPECT_EQ(lib.stats("c3").depth, 3);
  EXPECT_EQ(lib.stats("c0").depth, 0);
}

}  // namespace
}  // namespace opckit::layout
