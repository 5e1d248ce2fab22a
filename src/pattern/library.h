/// \file library.h
/// The persistent cross-run pattern library: solved (pattern → correction)
/// entries with near-match retrieval.
///
/// The run-local CorrectionCache answers "have I solved *exactly* this
/// window before" (up to translation and, opt-in, D4). The library extends
/// reuse across runs and across *similar* patterns:
///
///  - every entry carries the exact-replay payload (a store::TileRecord,
///    importable into the CorrectionCache) plus the solved per-fragment
///    warm-start seeds (canonical-frame sites and final normal offsets);
///  - a feature-space index (feature.h) retrieves the nearest solved
///    pattern under a caller-set distance budget, pruned by the triangle
///    inequality on cached L2 norms — deterministic, ties broken by
///    insertion order;
///  - the on-disk format is the `.ocs` store's record framing
///    (store/record_file.h) under its own magic: fingerprinted header,
///    length-prefixed CRC32 records, torn-tail recovery on load, refusal
///    on real corruption.
///
/// Thread safety: none. The flow touches the library only from its serial
/// phases; the daemon serializes access under the CorrectionLibrary mutex
/// and hands jobs immutable clones.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pattern/feature.h"
#include "store/record_file.h"
#include "store/result_store.h"

namespace opckit::pat {

/// One warm-start seed: a fragment evaluation site and the solved offset
/// along the fragment's outward normal. The offset is a signed scalar in
/// the normal direction, so it is invariant under the D4 frame maps the
/// library stores entries in.
struct WarmSeed {
  geom::Point site;
  geom::Coord offset = 0;

  friend bool operator==(const WarmSeed&, const WarmSeed&) = default;
};

/// One library entry: the exact-replay tile record (canonical frame, as
/// the correction store persists it) plus its warm-start seeds in the same
/// canonical frame.
struct LibraryRecord {
  store::TileRecord tile;
  std::vector<WarmSeed> seeds;

  friend bool operator==(const LibraryRecord&, const LibraryRecord&) = default;
};

/// A retrieval result: which entry, and how far in feature space.
struct NearMatch {
  std::size_t index = 0;
  double distance = 0.0;
};

/// What loading an existing library file found.
struct LibraryLoadInfo {
  std::size_t records_loaded = 0;
  bool tail_recovered = false;
};

/// The pattern library. Default-constructed instances are memory-only;
/// open() attaches a file that every insert() appends to. Move-only (it
/// may own an append file handle); clone_memory() produces a detached,
/// copy-safe snapshot for concurrent readers.
class PatternLibrary {
 public:
  /// Open a file-backed library: load \p path if it exists (verifying the
  /// magic, version, and \p fingerprint; recovering a torn tail) or
  /// create it. Throws util::InputError on I/O failure or corruption.
  static PatternLibrary open(const std::string& path,
                             std::uint64_t fingerprint,
                             bool sync_on_append = true);

  /// Insert an entry; appends to the attached file when file-backed.
  /// Duplicates (tile identical to an existing entry) are dropped;
  /// returns true when the entry was actually inserted.
  bool insert(const LibraryRecord& rec);

  std::size_t size() const { return records_.size(); }
  const LibraryRecord& record(std::size_t i) const { return records_[i]; }
  const PatternFeature& feature(std::size_t i) const { return features_[i]; }

  /// Nearest entry whose feature distance to \p query is <= \p budget,
  /// or nullopt. Deterministic: exact distance comparison, ties broken
  /// toward the smallest entry index.
  std::optional<NearMatch> nearest(const PatternFeature& query,
                                   double budget) const;

  /// What open() found on disk (zeros for memory-only libraries).
  const LibraryLoadInfo& load_info() const { return load_info_; }

  /// Detached memory-only copy of all entries and the index (no file
  /// handle) — safe to share read-only across threads.
  PatternLibrary clone_memory() const;

 private:
  std::vector<LibraryRecord> records_;
  std::vector<PatternFeature> features_;
  /// (norm, index), sorted by norm then index — the pruned scan order.
  std::vector<std::pair<double, std::size_t>> by_norm_;
  /// Window-rect hashes as a dedup prefilter (same discipline as the
  /// daemon's CorrectionLibrary).
  std::vector<std::uint64_t> window_hashes_;
  LibraryLoadInfo load_info_;
  std::optional<store::RecordWriter> writer_;  ///< file-backed only
};

}  // namespace opckit::pat
