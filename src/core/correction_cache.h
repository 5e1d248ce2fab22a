/// \file correction_cache.h
/// Pattern-keyed reuse of fragment-move solutions across correction
/// windows.
///
/// Full-chip layouts repeat themselves: the same cell placed thousands of
/// times, the same routing motif stamped across a block. Model-based OPC
/// is a pure function of the correction window's geometry (targets +
/// optical context) — so when two windows are geometrically identical,
/// re-simulating the second is pure waste. The cache canonicalizes each
/// window with the pattern-catalog machinery (`pat::canonicalize_oriented`,
/// the D4 canonical form) and replays the stored fragment-move solution
/// through the frame change instead. This is the reuse idea the
/// pattern-reuse OPC literature (AdaOPC and descendants) exploits,
/// restricted here to *exact* geometric matches so replayed solutions are
/// indistinguishable from recomputed ones.
///
/// Match policy (per lookup):
///  * **hit** — window and ownership geometry identical to a stored entry
///    up to pure translation. The replayed solution is byte-identical to a
///    fresh solve: integer-nm translation shifts the raster frame without
///    changing any sampled value (all arithmetic stays exact in doubles).
///  * **conflict** — the canonical hash matches a stored entry but the
///    geometry differs (hash collision), or the optical window matches
///    while the target/context ownership split does not. Counted, then
///    solved fresh: correctness is never traded for a hit.
///  * **miss** — no entry with this canonical hash, or only entries that
///    match through a non-trivial D4 frame change (a rotated or mirrored
///    window: replay through it is exact only up to float round-off, and
///    only for rotationally symmetric illumination); solved fresh and
///    stored.
///
/// Threading contract: the cache is NOT internally synchronized. The flow
/// driver resolves all lookups in a single serial, placement-ordered phase
/// between the parallel gather and solve phases (see flow.cpp), which both
/// avoids locking and makes the representative choice — hence the output
/// — independent of thread count.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "geometry/geometry.h"
#include "pattern/canonical.h"
#include "store/result_store.h"

namespace opckit::opc {

/// How one window resolved against the cache.
enum class CacheOutcome { kMiss, kHit, kConflict };

/// Printable name ("miss", "hit", "conflict").
const char* to_string(CacheOutcome outcome);

/// Lookup accounting (one increment per resolve()).
struct CorrectionCacheStats {
  std::size_t hits = 0;       ///< translation-exact reuses
  std::size_t misses = 0;     ///< first sighting of a window class
  std::size_t conflicts = 0;  ///< collisions / ownership mismatches

  std::size_t total() const { return hits + misses + conflicts; }
};

/// A cache of solved correction windows keyed by canonical geometry.
class CorrectionCache {
 public:
  /// The cache identity of one correction window. Built once per tile in
  /// the parallel gather phase (make_key is pure and thread-safe).
  struct Key {
    pat::CanonicalPattern window;            ///< canonical full-window form
    std::vector<geom::Rect> own_canonical;   ///< own targets, canonical frame
    geom::Rect frame = geom::Rect::empty();  ///< simulation frame, canonical
    geom::Orientation orientation =          ///< local -> canonical witness
        geom::Orientation::kR0;
    geom::Point anchor;  ///< local-frame origin: window bbox center (layout coords)
  };

  /// Build the key for a window: \p targets is the full simulation input
  /// (own shapes + optical context) in layout coordinates, \p own_region
  /// the area belonging to this tile (whose corrections the tile keeps),
  /// and \p frame the simulation frame passed to run_model_opc (the
  /// raster grid hangs off it, so it is part of cache identity). The
  /// local-frame anchor is derived internally (window bbox center, so D4
  /// matching orients about the window center).
  static Key make_key(const std::vector<geom::Polygon>& targets,
                      const geom::Region& own_region,
                      const geom::Rect& frame);

  /// Result of resolve(): the outcome plus the entry to reuse (for hits)
  /// or to store into after solving (for misses/conflicts).
  struct Resolution {
    CacheOutcome outcome = CacheOutcome::kMiss;
    std::size_t entry = 0;
  };

  /// Resolve a key: either find a reusable entry or reserve a fresh one.
  /// Serial-phase only (not thread-safe). A hit may point at an entry
  /// whose solution is not stored yet — the driver guarantees the
  /// representative (earlier in placement order) stores before any
  /// replay fetches.
  Resolution resolve(const Key& key);

  /// Store the solved correction for a reserved entry: \p corrected are
  /// the tile's own corrected polygons in layout coordinates; they are
  /// re-expressed in the canonical frame via \p key. Serial-phase only.
  void store(std::size_t entry, const Key& key,
             const std::vector<geom::Polygon>& corrected);

  /// Replay a stored solution into \p key's frame (layout coordinates).
  /// For translation hits this is an exact integer translation of the
  /// representative's polygons, vertex for vertex.
  std::vector<geom::Polygon> fetch(std::size_t entry, const Key& key) const;

  const CorrectionCacheStats& stats() const { return stats_; }
  /// Number of distinct window classes seen (solved or reserved).
  std::size_t size() const { return entries_.size(); }

  /// Export a *solved* entry as a persistable record (canonical-frame
  /// geometry and solution, verbatim). The record carries no layout
  /// coordinates, so it replays into any placement of the class.
  store::TileRecord export_entry(std::size_t entry) const;

  /// Import a persisted record as a solved entry, recomputing the
  /// canonical hash from its window rects (`pat::hash_rects`) — a stored
  /// hash is never trusted. Returns the new entry index. Imported entries
  /// participate in resolve() exactly like in-run representatives: a tile
  /// whose key matches replays translation-exactly; anything else
  /// (collision, ownership, frame, witness mismatch) stays conflict-safe.
  std::size_t import_entry(const store::TileRecord& record);

  /// The rigid map from \p key's layout frame into its canonical frame
  /// (translate the anchor to the origin, then apply the witness
  /// orientation). Its inverse maps canonical-frame data — stored
  /// solutions, pattern-library warm seeds — back into the layout.
  static geom::Transform canonical_transform(const Key& key);

 private:
  struct Entry {
    std::vector<geom::Rect> window_rects;  ///< canonical window geometry
    std::vector<geom::Rect> own_rects;     ///< canonical ownership split
    geom::Rect frame = geom::Rect::empty();///< canonical simulation frame
    geom::Orientation orientation =        ///< representative's witness
        geom::Orientation::kR0;
    std::vector<geom::Polygon> solution;   ///< corrected own, canonical frame
    bool solved = false;
  };

  /// Append a fresh entry for \p key and return its index.
  std::size_t reserve(const Key& key);

  CorrectionCacheStats stats_;
  std::vector<Entry> entries_;
  /// hash -> entry indices in insertion order (deterministic scan).
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_hash_;
};

}  // namespace opckit::opc
