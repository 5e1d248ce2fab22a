#include "store/record_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <exception>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace opckit::store {
namespace {

using store_detail::ByteReader;
using store_detail::ByteWriter;

constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 4;

lint::Diagnostic make_diag(std::string_view code, std::string message) {
  lint::Diagnostic d;
  d.code = std::string(code);
  const lint::CodeInfo* info = lint::find_code(code);
  OPCKIT_CHECK_MSG(info != nullptr, "unregistered store code " << code);
  d.severity = info->default_severity;
  d.message = std::move(message);
  return d;
}

[[noreturn]] void refuse(const RecordFormat& format, lint::LintReport* report,
                         std::string_view code, const std::string& message) {
  lint::Diagnostic d = make_diag(code, message);
  std::string line = d.to_line();
  if (report) report->add(std::move(d));
  throw util::InputError(std::string(format.name) + ": " + line);
}

/// A record payload that fails to decode; load_records() turns it into
/// the STO004 refusal, which names the record.
struct MalformedPayload {};

void malformed_payload(const std::string& /*what*/) {
  throw MalformedPayload{};
}

// ---- POSIX writer plumbing (EINTR-safe) -------------------------------

int open_writer_fd(const std::string& path, const char* name, int flags) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), flags, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0)
    throw util::InputError(std::string(name) + ": cannot open '" + path +
                           "' for writing: " + std::strerror(errno));
  return fd;
}

void write_all_fd(int fd, const std::uint8_t* data, std::size_t size,
                  const std::string& path, const char* name) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw util::InputError(std::string(name) + ": write failed on '" +
                             path + "': " + std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

}  // namespace

namespace store_detail {

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

}  // namespace store_detail

FramedLoad load_records(
    const std::string& path, const RecordFormat& format,
    std::uint64_t fingerprint, lint::LintReport* report,
    const std::function<void(ByteReader&)>& decode) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw util::InputError(std::string(format.name) + ": cannot open '" +
                           path + "'");
  const std::vector<std::uint8_t> file(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  const std::span<const std::uint8_t> bytes(file);

  // ---- header ----
  const std::string magic(format.magic.begin(), format.magic.end());
  if (bytes.size() < kHeaderSize)
    refuse(format, report, "STO003",
           "'" + path + "' is too short to hold a " + format.name +
               " header (" + std::to_string(bytes.size()) + " bytes)");
  if (!std::equal(format.magic.begin(), format.magic.end(), bytes.begin()))
    refuse(format, report, "STO003",
           "'" + path + "' does not start with the " + magic + " magic");
  ByteReader header(bytes.subspan(8, kHeaderSize - 8), malformed_payload);
  const std::uint32_t version = header.u32();
  const std::uint64_t file_fingerprint = header.u64();
  if (store_detail::crc32(bytes.data(), kHeaderSize - 4) != header.u32())
    refuse(format, report, "STO003", "'" + path + "' header checksum mismatch");
  if (version != kVersion)
    refuse(format, report, "STO003",
           "'" + path + "' has " + format.name + " version " +
               std::to_string(version) + "; this build reads version " +
               std::to_string(kVersion));
  if (file_fingerprint != fingerprint) {
    std::ostringstream os;
    os << "'" << path << "' was written under a different process setup ("
       << format.name << " fingerprint " << std::hex << file_fingerprint
       << ", expected " << fingerprint << std::dec
       << "); refusing to replay — " << format.remedy;
    refuse(format, report, "STO001", os.str());
  }

  // ---- records ----
  FramedLoad result;
  ByteReader records(bytes.subspan(kHeaderSize), malformed_payload);
  result.valid_bytes = kHeaderSize;
  while (records.remaining() > 0) {
    const std::size_t rem = records.remaining();
    const std::uint64_t len = rem < 4 ? 0 : records.u32();
    // A length that runs past EOF is an interrupted write, not
    // corruption — the CRC that would vouch for it was never written.
    if (rem < 4 || len + 8 > rem) {
      result.tail_recovered = true;
      result.tail_bytes = rem;
      lint::Diagnostic d = make_diag(
          "STO002", "'" + path + "' ends inside a record (torn write); "
                        "dropped " +
                        std::to_string(rem) + " tail bytes, kept " +
                        std::to_string(result.records) + " whole records");
      if (report) report->add(std::move(d));
      break;
    }
    const std::span<const std::uint8_t> payload =
        records.bytes(static_cast<std::size_t>(len), "record payload");
    if (store_detail::crc32(payload.data(), payload.size()) != records.u32())
      refuse(format, report, "STO004",
             "'" + path + "' record " + std::to_string(result.records) +
                 " fails its checksum; the " + format.name +
                 " is corrupt — " + format.remedy);
    try {
      ByteReader record(payload, malformed_payload);
      decode(record);
      record.finish("record");
    } catch (const MalformedPayload&) {
      refuse(format, report, "STO004",
             "'" + path + "' record " + std::to_string(result.records) +
                 " is structurally malformed despite a valid checksum; "
                 "the " +
                 format.name + " is corrupt — " + format.remedy);
    }
    ++result.records;
    result.valid_bytes = bytes.size() - records.remaining();
  }
  return result;
}

RecordWriter::RecordWriter(RecordWriter&& other) noexcept
    : path_(std::move(other.path_)),
      name_(other.name_),
      fd_(std::exchange(other.fd_, -1)),
      sync_on_append_(other.sync_on_append_),
      synced_(other.synced_) {}

RecordWriter& RecordWriter::operator=(RecordWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    name_ = other.name_;
    fd_ = std::exchange(other.fd_, -1);
    sync_on_append_ = other.sync_on_append_;
    synced_ = other.synced_;
  }
  return *this;
}

RecordWriter::~RecordWriter() {
  if (fd_ >= 0) ::close(fd_);
}

RecordWriter RecordWriter::create(const std::string& path,
                                  const RecordFormat& format,
                                  std::uint64_t fingerprint,
                                  bool sync_on_append) {
  ByteWriter header;
  header.raw(format.magic);
  header.u32(kVersion);
  header.u64(fingerprint);
  header.u32(store_detail::crc32(header.bytes().data(), header.bytes().size()));
  OPCKIT_DCHECK(header.bytes().size() == kHeaderSize);

  RecordWriter writer(
      path, format.name,
      open_writer_fd(path, format.name,
                     O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC),
      sync_on_append);
  // The header is not fsynced here even in sync mode: fsync flushes the
  // whole file, so the first record's sync covers it, and an empty file
  // that vanishes in a crash costs nothing to recreate.
  write_all_fd(writer.fd_, header.bytes().data(), header.bytes().size(), path,
               format.name);
  return writer;
}

RecordWriter RecordWriter::append_to(const std::string& path,
                                     const RecordFormat& format,
                                     std::uint64_t valid_bytes,
                                     bool sync_on_append) {
  // Drop any recovered torn tail before appending: new records must land
  // directly after the last whole one.
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec)
    throw util::InputError(std::string(format.name) + ": cannot truncate '" +
                           path + "' to its valid prefix: " + ec.message());
  return RecordWriter(
      path, format.name,
      open_writer_fd(path, format.name, O_WRONLY | O_APPEND | O_CLOEXEC),
      sync_on_append);
}

void RecordWriter::append(std::span<const std::uint8_t> payload) {
  ByteWriter framed;
  framed.reserve(payload.size() + 8);
  framed.blob(payload);
  framed.u32(store_detail::crc32(payload.data(), payload.size()));
  // One unbuffered write per record: a crash costs at most the record
  // being written, which the next load recovers as a torn tail.
  write_all_fd(fd_, framed.bytes().data(), framed.bytes().size(), path_,
               name_);
  if (sync_on_append_) {
    if (::fsync(fd_) != 0)
      throw util::InputError(std::string(name_) + ": fsync failed on '" +
                             path_ + "': " + std::strerror(errno));
    ++synced_;
  }
}

}  // namespace opckit::store
