#include <cmath>

#include <gtest/gtest.h>

#include "layout/generators.h"
#include "pattern/catalog.h"
#include "util/check.h"

namespace opckit::pat {
namespace {

using geom::Polygon;
using geom::Rect;

std::vector<Polygon> grating_polys(int lines, geom::Coord pitch) {
  std::vector<Polygon> out;
  for (int i = 0; i < lines; ++i) {
    out.emplace_back(Rect(i * pitch, 0, i * pitch + 180, 4000));
  }
  return out;
}

TEST(Catalog, GratingHasFewClasses) {
  // A periodic grating produces only a handful of distinct corner
  // patterns (interior vs. boundary lines, top vs. bottom corners fold
  // together under D4).
  WindowSpec spec;
  spec.radius = 400;
  const PatternCatalog cat = build_catalog(grating_polys(12, 360), spec);
  EXPECT_GT(cat.total(), 40u);
  EXPECT_LE(cat.classes(), 8u);
  EXPECT_GT(cat.classes(), 1u);
}

TEST(Catalog, TopKCoverageMonotone) {
  WindowSpec spec;
  spec.radius = 400;
  util::Rng rng(3);
  layout::Cell cell("rb");
  layout::RandomBlockSpec rb;
  rb.width = 8000;
  rb.height = 8000;
  layout::add_random_block(cell, layout::layers::kMetal1, rb, rng);
  const auto shapes = cell.shapes(layout::layers::kMetal1);
  const PatternCatalog cat = build_catalog(
      std::vector<Polygon>(shapes.begin(), shapes.end()), spec);
  ASSERT_GT(cat.classes(), 5u);
  double prev = 0;
  for (std::size_t k = 1; k <= cat.classes(); ++k) {
    const double c = cat.coverage_top_k(k);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(cat.coverage_top_k(cat.classes()), 1.0, 1e-12);
  // classes_for_coverage is consistent with coverage_top_k.
  const std::size_t k90 = cat.classes_for_coverage(0.9);
  EXPECT_GE(cat.coverage_top_k(k90), 0.9);
  if (k90 > 1) {
    EXPECT_LT(cat.coverage_top_k(k90 - 1), 0.9);
  }
}

TEST(Catalog, RankedIsDescendingAndDeterministic) {
  WindowSpec spec;
  spec.radius = 300;
  const PatternCatalog cat = build_catalog(grating_polys(10, 360), spec);
  const auto r1 = cat.ranked();
  const auto r2 = cat.ranked();
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].pattern.hash, r2[i].pattern.hash);
    if (i > 0) {
      EXPECT_LE(r1[i].count, r1[i - 1].count);
    }
  }
}

TEST(Catalog, MergeAddsCounts) {
  WindowSpec spec;
  spec.radius = 300;
  PatternCatalog a = build_catalog(grating_polys(6, 360), spec);
  const PatternCatalog b = build_catalog(grating_polys(6, 360), spec);
  const std::size_t total = a.total();
  a.merge(b);
  EXPECT_EQ(a.total(), 2 * total);
  EXPECT_EQ(a.classes(), b.classes());  // same pattern population
}

TEST(Catalog, SetAlgebra) {
  WindowSpec spec;
  spec.radius = 300;
  const PatternCatalog dense = build_catalog(grating_polys(8, 360), spec);
  const PatternCatalog sparse = build_catalog(grating_polys(8, 1400), spec);
  const PatternCatalog common = dense.intersected(sparse);
  const PatternCatalog only_dense = dense.subtracted(sparse);
  EXPECT_EQ(common.classes() + only_dense.classes(), dense.classes());
  for (const auto& [hash, cls] : only_dense.by_hash()) {
    EXPECT_FALSE(sparse.contains(hash));
  }
}

TEST(Catalog, KlDivergenceSeparatesStyles) {
  WindowSpec spec;
  spec.radius = 400;
  const PatternCatalog a = build_catalog(grating_polys(10, 360), spec);
  const PatternCatalog b = build_catalog(grating_polys(10, 1400), spec);
  EXPECT_NEAR(catalog_kl_divergence(a, a), 0.0, 1e-12);
  EXPECT_GT(catalog_kl_divergence(a, b), 0.1);
}

TEST(Catalog, BuildRecordsWindowSpec) {
  WindowSpec spec;
  spec.radius = 300;
  const PatternCatalog cat = build_catalog(grating_polys(4, 360), spec);
  ASSERT_TRUE(cat.window_spec().has_value());
  EXPECT_EQ(*cat.window_spec(), spec);
}

TEST(Catalog, MergeRejectsMismatchedWindowSpec) {
  // Regression: merging catalogs extracted under different window specs
  // used to be accepted silently, though their classes were clipped at
  // different radii and could never have compared equal.
  WindowSpec s300;
  s300.radius = 300;
  WindowSpec s400;
  s400.radius = 400;
  PatternCatalog a = build_catalog(grating_polys(4, 360), s300);
  const PatternCatalog b = build_catalog(grating_polys(4, 360), s400);
  const std::size_t before = a.total();
  EXPECT_THROW(a.merge(b), util::InputError);
  EXPECT_EQ(a.total(), before);  // nothing half-merged
}

TEST(Catalog, MergeAllowsSpeclessSide) {
  // Hand-assembled catalogs (and v1 PDB files) carry no spec; merging
  // them stays allowed for backward compatibility.
  WindowSpec spec;
  spec.radius = 300;
  PatternCatalog a = build_catalog(grating_polys(4, 360), spec);
  PatternCatalog legacy;
  legacy.add(extract_windows(grating_polys(2, 360), spec));
  ASSERT_FALSE(legacy.window_spec().has_value());
  const std::size_t before = a.total();
  a.merge(legacy);
  EXPECT_EQ(a.total(), before + legacy.total());
}

TEST(Catalog, KlDivergenceEmptyAndDisjointStayPinned) {
  // Two empty catalogs: no classes, no disagreement.
  EXPECT_EQ(catalog_kl_divergence(PatternCatalog{}, PatternCatalog{}), 0.0);
  // (Near-)disjoint class populations: the Laplace smoothing over the
  // union keeps the divergence finite where the unsmoothed definition
  // would be +infinity.
  WindowSpec spec;
  spec.radius = 300;
  const PatternCatalog lines = build_catalog(grating_polys(6, 360), spec);
  const PatternCatalog square =
      build_catalog({Polygon{Rect(0, 0, 2000, 2000)}}, spec);
  const double d = catalog_kl_divergence(lines, square);
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_GT(d, 0.0);
}

TEST(Catalog, FirstAnchorIsRecorded) {
  WindowSpec spec;
  spec.radius = 300;
  const PatternCatalog cat = build_catalog(grating_polys(4, 360), spec);
  for (const auto& [hash, cls] : cat.by_hash()) {
    EXPECT_GT(cls.count, 0u);
  }
}

}  // namespace
}  // namespace opckit::pat
