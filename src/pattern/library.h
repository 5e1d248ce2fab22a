/// \file library.h
/// The persistent cross-run pattern library: solved (pattern → correction)
/// entries with exact replay and near-match retrieval.
///
/// The run-local CorrectionCache answers "have I solved *exactly* this
/// window before" (up to translation). The library extends reuse across
/// runs and across *similar* patterns:
///
///  - every entry is a store::LibraryRecord: the exact-replay payload (a
///    store::TileRecord, importable into the CorrectionCache) plus the
///    solved per-fragment warm-start seeds (canonical-frame sites and
///    final normal offsets);
///  - a feature-space index (feature.h) retrieves the nearest seeded
///    entry under a caller-set distance budget, pruned by the triangle
///    inequality on cached L2 norms — deterministic, ties broken by
///    insertion order. Entries without seeds (ILT solves) replay but are
///    never retrieved;
///  - the file is the one reuse format (store/result_store.h):
///    fingerprinted header, length-prefixed CRC32 records, torn-tail
///    recovery on load, refusal on real corruption.
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
#include "store/result_store.h"

namespace opckit::pat {

using store::LibraryRecord;
using store::WarmSeed;

/// A retrieval result: which entry, and how far in feature space.
struct NearMatch {
  std::size_t index = 0;
  double distance = 0.0;
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

  /// Nearest seeded entry whose feature distance to \p query is <=
  /// \p budget, or nullopt. Deterministic: exact distance comparison,
  /// ties broken toward the smallest entry index.
  std::optional<NearMatch> nearest(const PatternFeature& query,
                                   double budget) const;

  /// True when open() found the file ending in a torn record, which it
  /// dropped and truncated (STO002) — crash recovery, not an error.
  bool tail_recovered() const { return tail_recovered_; }

  /// Detached memory-only copy of all entries and the index (no file
  /// handle) — safe to share read-only across threads.
  PatternLibrary clone_memory() const;

 private:
  /// Append \p rec to the entries and, when it has seeds, to the index.
  void add(LibraryRecord rec, std::uint64_t window_hash);

  std::vector<LibraryRecord> records_;
  std::vector<PatternFeature> features_;
  /// (norm, index) of the seeded entries, sorted by norm then index —
  /// the pruned scan order.
  std::vector<std::pair<double, std::size_t>> by_norm_;
  /// Window-rect hashes as a dedup prefilter.
  std::vector<std::uint64_t> window_hashes_;
  bool tail_recovered_ = false;
  std::optional<store::ResultStore> file_;  ///< file-backed only
};

}  // namespace opckit::pat
