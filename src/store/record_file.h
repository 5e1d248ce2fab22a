/// \file record_file.h
/// The record framing shared by the persistent file formats — the
/// correction store (`.ocs`, result_store.h) and the pattern library
/// (`.ocl`, pattern/library.h). A format is its magic plus its record
/// payload encoding; the framing, the integrity contract and the writer
/// live here once, and so does the little-endian ByteReader/ByteWriter
/// that the record payloads, the daemon's wire messages and the FlowSpec
/// codec read and write through.
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
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/diagnostic.h"

namespace opckit::store {
namespace store_detail {
/// CRC-32 (IEEE 802.3, reflected) over a byte range; exposed for the
/// corrupt-file corpus tests, which must forge valid checksums, and for
/// the daemon's wire frames.
std::uint32_t crc32(const void* data, std::size_t size);

/// Little-endian encoder for the framing, the `.ocs`/`.ocl` record
/// payloads, the daemon's wire messages and the FlowSpec codec.
/// ByteReader reads what it writes.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { put<2>(v); }
  void u32(std::uint32_t v) { put<4>(v); }
  void u64(std::uint64_t v) { put<8>(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// A double as its IEEE-754 bit pattern.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Bytes as they are, no length.
  void raw(std::span<const std::uint8_t> b) {
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }
  /// A u32 length, then the bytes.
  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b);
  }
  void str(std::string_view s) {
    blob({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  void reserve(std::size_t n) { bytes_.reserve(n); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() && { return std::move(bytes_); }

 private:
  template <int N>
  void put(std::uint64_t v) {
    for (int i = 0; i < N; ++i)
      bytes_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
  }

  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian decoder over untrusted bytes. Every read
/// checks the bytes left before touching them; a fault goes to the
/// caller's `fail` handler, which throws the caller's refusal type (the
/// codec's util::InputError, the wire's ProtocolError, the framing's
/// STO004). So a corrupt count or length can never drive an
/// out-of-range read or an unbounded allocation.
class ByteReader {
 public:
  /// Throws; \p what names the fault ("truncated buffer reading u32").
  using Fail = void (*)(const std::string& what);

  ByteReader(std::span<const std::uint8_t> bytes, Fail on_fault)
      : bytes_(bytes), fail_(on_fault) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint8_t u8() { return static_cast<std::uint8_t>(get<1>("byte")); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get<2>("u16")); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get<4>("u32")); }
  std::uint64_t u64() { return get<8>("u64"); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// The next \p n bytes, as they are.
  std::span<const std::uint8_t> bytes(std::size_t n, const char* what);
  /// A u32 length, then that many bytes (ByteWriter::blob).
  std::span<const std::uint8_t> blob() { return bytes(u32(), "blob body"); }
  /// A u32 length of at most \p max_bytes, then the string's bytes.
  std::string str(std::uint32_t max_bytes);

  /// Fails unless \p n more bytes remain: pre-checks a decoded count
  /// before anything is allocated for it.
  void need(std::uint64_t n, const char* what) {
    if (remaining() < n) truncated(what);
  }
  /// Fails on bytes left over after a well-formed \p what.
  void finish(const char* what);
  /// A reader over \p bytes that fails through the same handler.
  ByteReader nested(std::span<const std::uint8_t> bytes) const {
    return ByteReader(bytes, fail_);
  }
  [[noreturn]] void fail(const std::string& what) const;

 private:
  // Inline with a constant width, so each read compiles to one load.
  template <std::size_t N>
  std::uint64_t get(const char* what) {
    need(N, what);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < N; ++i)
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += N;
    return v;
  }
  [[noreturn]] void truncated(const char* what) const;

  std::span<const std::uint8_t> bytes_;
  Fail fail_;
  std::size_t pos_ = 0;
};
}  // namespace store_detail

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
/// hand a reader over every whole record's verified payload to
/// \p decode, in file order. \p decode must consume the whole payload;
/// a read past its end, a ByteReader::fail() or bytes left over refuse
/// the file as structurally malformed (STO004).
/// Refusals (unreadable file, malformed header, fingerprint mismatch,
/// corrupt record) throw util::InputError whose message carries the STO
/// diagnostic line; a recovered torn tail only warns. When \p report is
/// non-null every diagnostic is also appended to it (STO001..STO004).
FramedLoad load_records(
    const std::string& path, const RecordFormat& format,
    std::uint64_t fingerprint, lint::LintReport* report,
    const std::function<void(store_detail::ByteReader&)>& decode);

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
  void append(std::span<const std::uint8_t> payload);

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

}  // namespace opckit::store
