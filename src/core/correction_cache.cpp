#include "core/correction_cache.h"

#include "trace/metrics.h"
#include "util/check.h"

namespace opckit::opc {

using geom::Point;
using geom::Polygon;
using geom::Rect;
using geom::Region;
using geom::Transform;

const char* to_string(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kConflict:
      return "conflict";
  }
  return "?";
}

Transform CorrectionCache::canonical_transform(const Key& key) {
  return Transform(key.orientation, {0, 0}) * Transform(-key.anchor);
}

CorrectionCache::Key CorrectionCache::make_key(
    const std::vector<Polygon>& targets, const Region& own_region,
    const Rect& frame) {
  Key key;
  // Anchor at the window's bbox center: canonicalization orients about
  // the origin, so only a centered window maps onto its own D4 copies
  // (pattern windows are extracted centered for the same reason). Any
  // rigid anchor would do for translation matching; the center keeps a
  // D4 copy a miss rather than a conflict, and the canonical frame of
  // every persisted record hangs off it. The midpoint truncation is a
  // pure function of the local geometry, so translated copies always
  // agree on it.
  const Rect b = Region::from_polygons(targets).bbox();
  key.anchor = Point{(b.lo.x + b.hi.x) / 2, (b.lo.y + b.hi.y) / 2};
  const Region local =
      Region::from_polygons(targets).translated(-key.anchor);
  pat::OrientedCanonical canon = pat::canonicalize_oriented(local);
  key.orientation = canon.orientation;
  key.window = std::move(canon.pattern);
  key.own_canonical =
      pat::oriented(own_region.translated(-key.anchor), key.orientation)
          .rects();
  key.frame =
      Transform(key.orientation, {0, 0})(frame.translated(-key.anchor));
  return key;
}

CorrectionCache::Resolution CorrectionCache::resolve(const Key& key) {
  auto bucket = by_hash_.find(key.window.hash);
  if (bucket != by_hash_.end()) {
    bool mismatch = false;
    bool d4_match = false;
    for (std::size_t idx : bucket->second) {
      const store::TileRecord& e = entries_[idx].record;
      if (e.window_rects != key.window.rects ||
          e.own_rects != key.own_canonical || e.frame != key.frame) {
        // Same canonical hash, different geometry (collision), a
        // different target/context ownership split, or a different
        // simulation frame (the raster grid hangs off it): unusable.
        mismatch = true;
        continue;
      }
      // Exact canonical match. Pure translations of one another reach
      // the same canonical form through the same witness orientation
      // (canonicalize_oriented is deterministic on identical local
      // geometry), so an equal witness means translation-exact reuse;
      // a different witness means the windows differ by a genuine D4
      // frame change, which is never replayed — an exact hit later in
      // the bucket is still taken.
      if (key.orientation == e.orientation) {
        ++stats_.hits;
        trace::metrics().counter(trace::metric::kCacheHits).add();
        return {CacheOutcome::kHit, idx};
      }
      d4_match = true;
    }
    // A D4-only match is a miss, not a conflict: the geometry is this
    // class's, seen through another frame.
    if (mismatch && !d4_match) {
      ++stats_.conflicts;
      trace::metrics().counter(trace::metric::kCacheConflicts).add();
      return {CacheOutcome::kConflict, reserve(key)};
    }
  }
  ++stats_.misses;
  trace::metrics().counter(trace::metric::kCacheMisses).add();
  return {CacheOutcome::kMiss, reserve(key)};
}

void CorrectionCache::store(std::size_t entry, const Key& key,
                            const std::vector<Polygon>& corrected) {
  OPCKIT_CHECK(entry < entries_.size());
  Entry& e = entries_[entry];
  OPCKIT_DCHECK(e.record.window_rects == key.window.rects);
  const Transform t = canonical_transform(key);
  e.record.solution.clear();
  e.record.solution.reserve(corrected.size());
  for (const Polygon& p : corrected) e.record.solution.push_back(t(p));
  e.solved = true;
}

std::vector<Polygon> CorrectionCache::fetch(std::size_t entry,
                                            const Key& key) const {
  OPCKIT_CHECK(entry < entries_.size());
  const Entry& e = entries_[entry];
  OPCKIT_CHECK_MSG(e.solved, "fetch before the representative stored");
  const Transform t = canonical_transform(key).inverted();
  std::vector<Polygon> out;
  out.reserve(e.record.solution.size());
  for (const Polygon& p : e.record.solution) out.push_back(t(p));
  return out;
}

const store::TileRecord& CorrectionCache::export_entry(
    std::size_t entry) const {
  OPCKIT_CHECK(entry < entries_.size());
  OPCKIT_CHECK_MSG(entries_[entry].solved,
                   "export of an unsolved cache entry");
  return entries_[entry].record;
}

std::size_t CorrectionCache::import_entry(const store::TileRecord& record) {
  entries_.push_back({record, /*solved=*/true});
  const std::size_t idx = entries_.size() - 1;
  by_hash_[pat::hash_rects(record.window_rects)].push_back(idx);
  return idx;
}

std::size_t CorrectionCache::reserve(const Key& key) {
  store::TileRecord rec;
  rec.window_rects = key.window.rects;
  rec.own_rects = key.own_canonical;
  rec.frame = key.frame;
  rec.orientation = key.orientation;
  entries_.push_back({std::move(rec), /*solved=*/false});
  const std::size_t idx = entries_.size() - 1;
  by_hash_[key.window.hash].push_back(idx);
  return idx;
}

}  // namespace opckit::opc
