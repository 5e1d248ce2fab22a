#include <gtest/gtest.h>

#include "core/correction_cache.h"

namespace opckit::opc {
namespace {

using geom::Point;
using geom::Polygon;
using geom::Rect;
using geom::Region;

/// Two bars of different widths: asymmetric under D4, so a mirrored copy
/// is a genuine frame change and not a disguised translation.
std::vector<Polygon> bars(Point at) {
  return {Polygon(Rect(at.x, at.y, at.x + 180, at.y + 1200)),
          Polygon(Rect(at.x + 540, at.y, at.x + 900, at.y + 1200))};
}

CorrectionCache::Key key_at(Point at) {
  const auto targets = bars(at);
  const Region own = Region::from_polygons(targets);
  return CorrectionCache::make_key(targets, own, own.bbox());
}

TEST(CorrectionCache, TranslatedWindowHitsAndReplaysExactly) {
  CorrectionCache cache;
  const auto k0 = key_at({0, 0});
  const auto r0 = cache.resolve(k0);
  EXPECT_EQ(r0.outcome, CacheOutcome::kMiss);

  // "Solution": the drawn bars with their left edges pulled out 2 nm.
  const std::vector<Polygon> sol = {
      Polygon(Rect(-2, 0, 180, 1200)), Polygon(Rect(538, 0, 900, 1200))};
  cache.store(r0.entry, k0, sol);

  const auto k1 = key_at({10000, 5000});
  const auto r1 = cache.resolve(k1);
  ASSERT_EQ(r1.outcome, CacheOutcome::kHit);
  const auto replay = cache.fetch(r1.entry, k1);
  ASSERT_EQ(replay.size(), sol.size());
  for (std::size_t i = 0; i < sol.size(); ++i) {
    EXPECT_EQ(Region(replay[i].normalized()),
              Region(sol[i].translated({10000, 5000}).normalized()));
  }
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CorrectionCache, D4FrameChangeIsAMiss) {
  // The window mirrored about the y-axis (swapping the unequal bars)
  // canonicalizes to the same form through a different witness
  // orientation. (An x-axis mirror would be a disguised translation:
  // both bars span the same y range.)
  const auto targets = bars({0, 0});
  std::vector<Polygon> mirrored;
  const geom::Transform mirror(geom::Orientation::kMXR180, {0, 0});
  for (const Polygon& p : targets) mirrored.push_back(mirror(p));
  const Region own_m = Region::from_polygons(mirrored);
  const auto k_m = CorrectionCache::make_key(mirrored, own_m, own_m.bbox());
  const auto k0 = key_at({0, 0});
  ASSERT_EQ(k_m.window, k0.window);
  ASSERT_NE(k_m.orientation, k0.orientation);

  // A D4 frame change is NOT a hit; the mirrored window gets its own
  // entry (and later translated copies of it hit).
  CorrectionCache cache;
  cache.store(cache.resolve(k0).entry, k0, targets);
  EXPECT_EQ(cache.resolve(k_m).outcome, CacheOutcome::kMiss);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CorrectionCache, DifferentOwnershipSplitConflicts) {
  const auto targets = bars({0, 0});
  const Region all = Region::from_polygons(targets);
  const Region first_only(targets[0].normalized());
  const Rect frame = all.bbox();

  CorrectionCache cache;
  const auto k_all = CorrectionCache::make_key(targets, all, frame);
  cache.resolve(k_all);
  const auto k_first = CorrectionCache::make_key(targets, first_only, frame);
  EXPECT_EQ(cache.resolve(k_first).outcome, CacheOutcome::kConflict);
  // The conflicting split got its own entry: a repeat now hits it.
  EXPECT_EQ(cache.resolve(k_first).outcome, CacheOutcome::kHit);
  EXPECT_EQ(cache.stats().conflicts, 1u);
}

TEST(CorrectionCache, DifferentSimulationFrameConflicts) {
  const auto targets = bars({0, 0});
  const Region own = Region::from_polygons(targets);
  const Rect frame = own.bbox();

  CorrectionCache cache;
  cache.resolve(CorrectionCache::make_key(targets, own, frame));
  // Same geometry imaged in a wider frame is a different problem: the
  // raster grid hangs off the frame, so reuse would not be byte-exact.
  const auto k_wide =
      CorrectionCache::make_key(targets, own, frame.inflated(64));
  EXPECT_EQ(cache.resolve(k_wide).outcome, CacheOutcome::kConflict);
}

TEST(CorrectionCache, StatsAccountEveryResolve) {
  CorrectionCache cache;
  cache.store(cache.resolve(key_at({0, 0})).entry, key_at({0, 0}),
              bars({0, 0}));
  cache.resolve(key_at({5000, 0}));
  cache.resolve(key_at({0, 7000}));
  const CorrectionCacheStats& s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.total(), 3u);
}

}  // namespace
}  // namespace opckit::opc
