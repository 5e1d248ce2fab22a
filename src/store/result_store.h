/// \file result_store.h
/// The persistent correction store: crash-safe on-disk reuse of solved
/// OPC pattern classes across runs, crashes, and layout revisions.
///
/// The paper's adoption story is operational — full-chip model OPC is
/// orders of magnitude more expensive per area than rule OPC (T3), so a
/// tapeout run that dies at tile 900/1000 and restarts from zero, or a
/// one-cell ECO that forces a full-chip re-correction, is exactly the
/// flow cost it warns about. The store makes the in-process correction
/// cache (core/correction_cache.h) durable: every freshly solved pattern
/// class is streamed to an append-only file as its tile completes, and a
/// later run — a resume after a crash, or an ECO re-correction of an
/// edited layout — preloads the file and replays every tile whose
/// D4-canonical optical neighborhood is unchanged. Tiles whose halo
/// context changed simply miss the preloaded entries and are re-solved;
/// invalidation is key-exact, never heuristic.
///
/// ## File format
///
/// The shared record framing of record_file.h under the magic
/// "OPCKITS1": a fingerprinted header, then one length + CRC framed
/// record per solved pattern class (a TileRecord, canonical frame; the
/// payload layout is in the .cpp), with the framing's torn-tail recovery
/// and refusal contract (STO001..STO004). Records append strictly after
/// the serial merge phase of the flow driver and are flushed per record
/// — the writer is never touched by a parallel phase, so the TSan job
/// stays clean.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/polygon.h"
#include "geometry/rect.h"
#include "geometry/transform.h"
#include "lint/diagnostic.h"
#include "store/record_file.h"

namespace opckit::store {

/// One persisted pattern class: the canonical-frame identity the
/// correction cache keys on (window geometry, ownership split, simulation
/// frame, witness orientation) plus the solved correction polygons in the
/// same canonical frame. Field-for-field the cache's Entry — see
/// opc::CorrectionCache::export_entry / import_entry.
struct TileRecord {
  std::vector<geom::Rect> window_rects;  ///< canonical window geometry
  std::vector<geom::Rect> own_rects;     ///< canonical ownership split
  geom::Rect frame = geom::Rect::empty();///< canonical simulation frame
  geom::Orientation orientation =        ///< representative's witness
      geom::Orientation::kR0;
  std::vector<geom::Polygon> solution;   ///< corrected own, canonical frame

  friend bool operator==(const TileRecord&, const TileRecord&) = default;
};

/// Result of loading a store file.
struct LoadResult {
  std::vector<TileRecord> records;  ///< every whole, verified record
  /// True when the file ended inside a record (torn write); the partial
  /// tail was dropped and valid_bytes points at the last whole record.
  bool tail_recovered = false;
  /// Byte length of the verified prefix (header + whole records). Pass
  /// to append_to() so new records land after the last good one.
  std::uint64_t valid_bytes = 0;
};

/// Append handle on a correction-store file. Obtain via create() (fresh
/// file) or append_to() (extend a loaded file); append() writes and
/// flushes one record. Move-only.
///
/// Each record is one unbuffered write() (see RecordWriter), and
/// \p sync_on_append upgrades that to write() + fsync(). The upgrade is
/// opt-in and OFF by default — batch flows are served by the torn-tail
/// contract (a crash re-solves one tile) and per-record fsync is a large
/// constant cost, but the service daemon's durability claim ("results
/// already merged survive a daemon crash") needs the data on the
/// platter, not in the page cache, before the result frame is
/// acknowledged to the client.
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

  /// Parse and verify \p path against \p expected_fingerprint.
  /// Refusals (malformed header, fingerprint mismatch, corrupt record)
  /// throw util::InputError whose message carries the STO diagnostic
  /// line; a recovered torn tail only warns. When \p report is non-null
  /// every diagnostic is also appended to it (STO001..STO004).
  static LoadResult load(const std::string& path,
                         std::uint64_t expected_fingerprint,
                         lint::LintReport* report = nullptr);

  /// Serialize, CRC, append, and flush one record.
  /// Throws util::InputError on I/O failure.
  void append(const TileRecord& record);

  const std::string& path() const { return writer_.path(); }
  /// Records appended through this handle.
  std::size_t appended() const { return appended_; }
  /// fsync-after-append policy this handle was opened with.
  bool sync_on_append() const { return writer_.sync_on_append(); }
  /// fsync() calls issued: equals appended() when sync_on_append is on
  /// (the header rides the first record's sync — fsync flushes the whole
  /// file), 0 when it is off. Exposed so tests can assert the flag is
  /// honored without instrumenting the kernel.
  std::size_t synced() const { return writer_.synced(); }

 private:
  explicit ResultStore(RecordWriter writer) : writer_(std::move(writer)) {}

  RecordWriter writer_;
  std::size_t appended_ = 0;
};

namespace store_detail {
/// Append one record's payload byte layout to \p w. Exposed so other
/// persistence layers (the pattern library) can embed the record layout
/// under their own framing.
void write_record(ByteWriter& w, const TileRecord& record);
/// Read one record (the inverse of write_record). A truncated field or a
/// count past the bytes present fails through \p r's handler; the
/// caller checks for trailing bytes (ByteReader::finish).
void read_record(ByteReader& r, TileRecord& rec);
}  // namespace store_detail

}  // namespace opckit::store
