/// \file record_file.h
/// The record framing shared by the persistent file formats — the
/// correction store (`.ocs`, result_store.h) and the pattern library
/// (`.ocl`, pattern/library.h). A format is its magic plus its record
/// payload encoding; the framing, the integrity contract and the writer
/// live here once.
///
/// ## Framing (version 1, little-endian)
///
/// ```
/// header  (24 bytes)
///   u8[8]  magic         — names the format ("OPCKITS1", "OPCKITL1")
///   u32    version (1)
///   u64    fingerprint   — hash of every process knob replay depends on
///                          (optical model, OPC recipe, flow shape); see
///                          opc::flow_fingerprint. A file written under
///                          one setup must refuse replay under another.
///   u32    crc32 of the 20 bytes above
/// record  (repeated)
///   u32    payload length L
///   u8[L]  payload        — the format's record encoding
///   u32    crc32(payload)
/// ```
///
/// ## Integrity contract
///
/// * A *torn tail* (file ends inside a record: a crash mid-write) is
///   recovered on load: the partial record is dropped, the valid prefix
///   is kept, and RecordWriter::append_to() truncates the file back to
///   it (STO002, warning). Losing the last record re-solves one tile.
/// * Any *complete* record whose CRC or structure does not verify is
///   corruption, not a torn write: the load refuses (STO004). Same for a
///   malformed header (STO003) and a fingerprint mismatch (STO001) — a
///   file is never silently replayed into the wrong process setup.
/// * Load-or-refuse is deterministic and allocation-bounded: the length
///   of every record is checked against the bytes actually present
///   before its payload is touched, so a corrupt file can never crash or
///   OOM the loader (the corpus tests run under ASan/UBSan).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "lint/diagnostic.h"

namespace opckit::store {

/// One file format on the shared framing.
struct RecordFormat {
  std::array<std::uint8_t, 8> magic;
  const char* name;    ///< prefixes every message: "correction store"
  const char* remedy;  ///< how to rebuild a refused file
};

/// What load_records() found, besides the payloads it handed out.
struct FramedLoad {
  std::size_t records = 0;  ///< whole, verified records
  /// True when the file ended inside a record (torn write); the partial
  /// tail was dropped and valid_bytes points at the last whole record.
  bool tail_recovered = false;
  std::uint64_t tail_bytes = 0;  ///< bytes of the dropped tail
  /// Byte length of the verified prefix (header + whole records). Pass
  /// to RecordWriter::append_to() so new records land after the last
  /// good one.
  std::uint64_t valid_bytes = 0;
};

/// Parse \p path as a \p format file written under \p fingerprint and
/// hand every whole record's verified payload to \p decode, in file
/// order; \p decode returns false on a structurally malformed payload.
/// Refusals (unreadable file, malformed header, fingerprint mismatch,
/// corrupt record) throw util::InputError whose message carries the STO
/// diagnostic line; a recovered torn tail only warns. When \p report is
/// non-null every diagnostic is also appended to it (STO001..STO004).
FramedLoad load_records(
    const std::string& path, const RecordFormat& format,
    std::uint64_t fingerprint, lint::LintReport* report,
    const std::function<bool(const std::uint8_t*, std::size_t)>& decode);

/// Append handle on a framed file: each record is one unbuffered write()
/// (a crash can tear at most the record in flight), and
/// \p sync_on_append upgrades that to write() + fsync(). Move-only.
class RecordWriter {
 public:
  /// Create (truncate) \p path and write the header. Throws
  /// util::InputError on I/O failure.
  static RecordWriter create(const std::string& path,
                             const RecordFormat& format,
                             std::uint64_t fingerprint, bool sync_on_append);

  /// Open \p path for appending after a successful load_records(): the
  /// file is first truncated to \p valid_bytes so a recovered torn tail
  /// can never precede fresh records. Throws util::InputError on I/O
  /// failure.
  static RecordWriter append_to(const std::string& path,
                                const RecordFormat& format,
                                std::uint64_t valid_bytes,
                                bool sync_on_append);

  /// Frame, write, and (when syncing) fsync one record payload. Throws
  /// util::InputError on I/O failure.
  void append(const std::vector<std::uint8_t>& payload);

  const std::string& path() const { return path_; }
  bool sync_on_append() const { return sync_on_append_; }
  /// fsync() calls issued (the header rides the first record's sync —
  /// fsync flushes the whole file).
  std::size_t synced() const { return synced_; }

  RecordWriter(RecordWriter&& other) noexcept;
  RecordWriter& operator=(RecordWriter&& other) noexcept;
  ~RecordWriter();

 private:
  RecordWriter(std::string path, const char* name, int fd,
               bool sync_on_append)
      : path_(std::move(path)),
        name_(name),
        fd_(fd),
        sync_on_append_(sync_on_append) {}

  std::string path_;
  const char* name_;  ///< RecordFormat::name, for messages
  int fd_ = -1;
  bool sync_on_append_ = false;
  std::size_t synced_ = 0;
};

namespace store_detail {
/// CRC-32 (IEEE 802.3, reflected) over a byte range; exposed for the
/// corrupt-file corpus tests, which must forge valid checksums, and for
/// the daemon's wire frames.
std::uint32_t crc32(const void* data, std::size_t size);

/// Explicit little-endian fields, for the framing and every record
/// payload encoding. The getters read bytes the caller has
/// bounds-checked.
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
std::uint32_t get_u32(const std::uint8_t* p);
std::uint64_t get_u64(const std::uint8_t* p);
}  // namespace store_detail

}  // namespace opckit::store
