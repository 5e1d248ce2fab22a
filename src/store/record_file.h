/// \file record_file.h
/// The little-endian byte codec that the reuse file (result_store.h),
/// the daemon's wire messages and the FlowSpec codec read and write
/// through, plus the CRC-32 that checks the file's header and records
/// and the wire's frames.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace opckit::store {
namespace store_detail {
/// CRC-32 (IEEE 802.3, reflected) over a byte range; exposed for the
/// corrupt-file corpus tests, which must forge valid checksums, and for
/// the daemon's wire frames.
std::uint32_t crc32(const void* data, std::size_t size);

/// Little-endian encoder for the reuse file's framing and records, the
/// daemon's wire messages and the FlowSpec codec. ByteReader reads what
/// it writes.
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
/// codec's util::InputError, the wire's ProtocolError, the reuse file's
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
}  // namespace opckit::store
