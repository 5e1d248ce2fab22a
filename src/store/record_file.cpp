#include "store/record_file.h"

#include <array>
#include <exception>

namespace opckit::store::store_detail {

std::uint32_t crc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void ByteReader::fail(const std::string& what) const {
  fail_(what);
  std::terminate();  // a Fail handler must throw
}

void ByteReader::truncated(const char* what) const {
  fail(std::string("truncated buffer reading ") + what);
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n,
                                                const char* what) {
  need(n, what);
  const std::span<const std::uint8_t> out = bytes_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string ByteReader::str(std::uint32_t max_bytes) {
  const std::uint32_t n = u32();
  if (n > max_bytes) fail("string length exceeds the limit");
  const std::span<const std::uint8_t> b = bytes(n, "string body");
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

void ByteReader::finish(const char* what) {
  if (remaining() != 0)
    fail(std::to_string(remaining()) + " trailing bytes after a well-formed " +
         what);
}

}  // namespace opckit::store::store_detail
