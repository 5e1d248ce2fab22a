/// \file result_store.h
/// The reuse file: crash-safe on-disk records of solved OPC pattern
/// classes, the one persistent format behind the flows' pattern library
/// (`--library`, pattern/library.h) and the daemon's shelves
/// (service/library.h).
///
/// The paper's adoption story is operational — full-chip model OPC is
/// orders of magnitude more expensive per area than rule OPC (T3), so a
/// tapeout run that dies at tile 900/1000 and restarts from zero, or a
/// one-cell ECO that forces a full-chip re-correction, is exactly the
/// flow cost it warns about. This file makes the in-process correction
/// cache (core/correction_cache.h) durable: every freshly solved pattern
/// class is streamed to an append-only file as its tile merges, and a
/// later run — a resume after a crash, or an ECO re-correction of an
/// edited layout — imports the file and replays every tile whose
/// D4-canonical optical neighborhood is unchanged. Tiles whose halo
/// context changed simply miss the imported entries and are re-solved;
/// invalidation is key-exact, never heuristic.
///
/// ## File format (version 1, little-endian)
///
/// ```
/// header  (24 bytes)
///   u8[8]  magic "OPCKITL1"
///   u32    version (1)
///   u64    fingerprint   — hash of every process knob replay depends on
///                          (optical model, OPC recipe, flow shape); see
///                          opc::flow_fingerprint. A file written under
///                          one setup must refuse replay under another.
///   u32    crc32 of the 20 bytes above
/// record  (repeated)
///   u32    payload length L
///   u8[L]  payload        — a LibraryRecord: the TileRecord as a u32
///                           length + its bytes (layout in the .cpp),
///                           then a u32 seed count and per seed the
///                           site (i64 x, i64 y) and the i64 offset
///   u32    crc32(payload)
/// ```
///
/// ## Integrity contract
///
/// * A *torn tail* (file ends inside a record: a crash mid-write) is
///   recovered on load: the partial record is dropped, the valid prefix
///   is kept, and append_to() truncates the file back to it (STO002,
///   warning). Losing the last record re-solves one tile.
/// * Any *complete* record whose CRC or structure does not verify is
///   corruption, not a torn write: the load refuses (STO004). Same for a
///   malformed header (STO003) and a fingerprint mismatch (STO001) — a
///   file is never silently replayed into the wrong process setup.
/// * Load-or-refuse is deterministic and allocation-bounded: the length
///   of every record is checked against the bytes actually present
///   before its payload is touched, so a corrupt file can never crash or
///   OOM the loader (the corpus tests run under ASan/UBSan).
///
/// Records append strictly from the serial merge phase of the flow
/// driver, or under the daemon's library mutex — a handle is never
/// touched by a parallel phase, so the TSan job stays clean.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "geometry/polygon.h"
#include "geometry/rect.h"
#include "geometry/transform.h"
#include "lint/diagnostic.h"

namespace opckit::store {

/// One solved pattern class as the correction cache keys and replays it:
/// the canonical-frame identity (window geometry, ownership split,
/// simulation frame, witness orientation) plus the solved correction
/// polygons in the same canonical frame. The correction cache keeps its
/// entries as these records — see opc::CorrectionCache::export_entry /
/// import_entry.
struct TileRecord {
  std::vector<geom::Rect> window_rects;  ///< canonical window geometry
  std::vector<geom::Rect> own_rects;     ///< canonical ownership split
  geom::Rect frame = geom::Rect::empty();///< canonical simulation frame
  geom::Orientation orientation =        ///< representative's witness
      geom::Orientation::kR0;
  std::vector<geom::Polygon> solution;   ///< corrected own, canonical frame

  friend bool operator==(const TileRecord&, const TileRecord&) = default;
};

/// One warm-start seed: a fragment evaluation site and the solved offset
/// along the fragment's outward normal. The offset is a signed scalar in
/// the normal direction, so it is invariant under the D4 frame maps the
/// records are stored in.
struct WarmSeed {
  geom::Point site;
  geom::Coord offset = 0;

  friend bool operator==(const WarmSeed&, const WarmSeed&) = default;
};

/// One persisted record: the exact-replay tile plus its warm-start seeds
/// in the same canonical frame. A tile solved by pixel ILT carries no
/// fragment offsets, so its record has no seeds: it replays, but never
/// seeds a near match.
struct LibraryRecord {
  TileRecord tile;
  std::vector<WarmSeed> seeds;

  friend bool operator==(const LibraryRecord&, const LibraryRecord&) = default;
};

/// Result of loading a reuse file.
struct LoadResult {
  std::vector<LibraryRecord> records;  ///< every whole, verified record
  /// True when the file ended inside a record (torn write); the partial
  /// tail was dropped and valid_bytes points at the last whole record.
  bool tail_recovered = false;
  /// Byte length of the verified prefix (header + whole records). Pass
  /// to append_to() so new records land after the last good one.
  std::uint64_t valid_bytes = 0;
};

/// Reads and writes the reuse file. load() parses a whole file; an
/// append handle comes from create() (fresh file) or append_to() (extend
/// a loaded file), and append() writes one record. Move-only.
///
/// Each record is one unbuffered write() (a crash can tear at most the
/// record in flight), and \p sync_on_append upgrades that to write() +
/// fsync(). The upgrade is opt-in and OFF by default — batch flows are
/// served by the torn-tail contract (a crash re-solves one tile) and
/// per-record fsync is a large constant cost, but the service daemon's
/// durability claim ("results already merged survive a daemon crash")
/// needs the data on the platter, not in the page cache, before the
/// result frame is acknowledged to the client.
class ResultStore {
 public:
  /// Create (truncate) \p path and write a version-1 header carrying
  /// \p fingerprint. Throws util::InputError on I/O failure.
  static ResultStore create(const std::string& path,
                            std::uint64_t fingerprint,
                            bool sync_on_append = false);

  /// Open \p path for appending after a successful load(): the file is
  /// first truncated to \p valid_bytes so a recovered torn tail can never
  /// precede fresh records. Throws util::InputError on I/O failure.
  static ResultStore append_to(const std::string& path,
                               std::uint64_t valid_bytes,
                               bool sync_on_append = false);

  /// Parse and verify \p path against \p expected_fingerprint, reading
  /// it with one sized read.
  /// Refusals (unreadable file, malformed header, fingerprint mismatch,
  /// corrupt record) throw util::InputError whose message carries the
  /// STO diagnostic line; a recovered torn tail only warns. When
  /// \p report is non-null every diagnostic is also appended to it
  /// (STO001..STO004).
  static LoadResult load(const std::string& path,
                         std::uint64_t expected_fingerprint,
                         lint::LintReport* report = nullptr);

  /// Serialize, frame, write and (when syncing) fsync one record.
  /// Throws util::InputError on I/O failure.
  void append(const LibraryRecord& record);

  const std::string& path() const { return path_; }
  /// Records appended through this handle.
  std::size_t appended() const { return appended_; }
  /// fsync-after-append policy this handle was opened with.
  bool sync_on_append() const { return sync_on_append_; }
  /// fsync() calls issued: equals appended() when sync_on_append is on
  /// (the header rides the first record's sync — fsync flushes the whole
  /// file), 0 when it is off.
  std::size_t synced() const { return synced_; }

  ResultStore(ResultStore&& other) noexcept;
  ResultStore& operator=(ResultStore&& other) noexcept;
  ~ResultStore();

 private:
  ResultStore(std::string path, int fd, bool sync_on_append)
      : path_(std::move(path)), fd_(fd), sync_on_append_(sync_on_append) {}

  std::string path_;
  int fd_ = -1;
  bool sync_on_append_ = false;
  std::size_t appended_ = 0;
  std::size_t synced_ = 0;
};

}  // namespace opckit::store
