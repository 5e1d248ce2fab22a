#include "store/record_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace opckit::store {
namespace {

using store_detail::get_u32;
using store_detail::put_u32;

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

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

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

}  // namespace store_detail

FramedLoad load_records(
    const std::string& path, const RecordFormat& format,
    std::uint64_t fingerprint, lint::LintReport* report,
    const std::function<bool(const std::uint8_t*, std::size_t)>& decode) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw util::InputError(std::string(format.name) + ": cannot open '" +
                           path + "'");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  in.close();

  // ---- header ----
  const std::string magic(format.magic.begin(), format.magic.end());
  if (bytes.size() < kHeaderSize)
    refuse(format, report, "STO003",
           "'" + path + "' is too short to hold a " + format.name +
               " header (" + std::to_string(bytes.size()) + " bytes)");
  if (!std::equal(format.magic.begin(), format.magic.end(), bytes.begin()))
    refuse(format, report, "STO003",
           "'" + path + "' does not start with the " + magic + " magic");
  const auto version = get_u32(bytes.data() + 8);
  const std::uint64_t file_fingerprint =
      store_detail::get_u64(bytes.data() + 12);
  if (store_detail::crc32(bytes.data(), kHeaderSize - 4) !=
      get_u32(bytes.data() + 20))
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
  std::size_t pos = kHeaderSize;
  result.valid_bytes = pos;
  while (pos < bytes.size()) {
    const std::size_t rem = bytes.size() - pos;
    std::uint32_t len = 0;
    bool torn = rem < 4;
    if (!torn) {
      len = get_u32(bytes.data() + pos);
      // A length that runs past EOF is an interrupted write, not
      // corruption — the CRC that would vouch for it was never written.
      torn = static_cast<std::uint64_t>(len) + 8 > rem;
    }
    if (torn) {
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
    const std::uint8_t* payload = bytes.data() + pos + 4;
    if (store_detail::crc32(payload, len) != get_u32(payload + len))
      refuse(format, report, "STO004",
             "'" + path + "' record " + std::to_string(result.records) +
                 " fails its checksum; the " + format.name +
                 " is corrupt — " + format.remedy);
    if (!decode(payload, len))
      refuse(format, report, "STO004",
             "'" + path + "' record " + std::to_string(result.records) +
                 " is structurally malformed despite a valid checksum; "
                 "the " +
                 format.name + " is corrupt — " + format.remedy);
    ++result.records;
    pos += 4 + static_cast<std::size_t>(len) + 4;
    result.valid_bytes = pos;
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
  std::vector<std::uint8_t> header;
  header.insert(header.end(), format.magic.begin(), format.magic.end());
  put_u32(header, kVersion);
  store_detail::put_u64(header, fingerprint);
  put_u32(header, store_detail::crc32(header.data(), header.size()));
  OPCKIT_DCHECK(header.size() == kHeaderSize);

  RecordWriter writer(
      path, format.name,
      open_writer_fd(path, format.name,
                     O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC),
      sync_on_append);
  // The header is not fsynced here even in sync mode: fsync flushes the
  // whole file, so the first record's sync covers it, and an empty file
  // that vanishes in a crash costs nothing to recreate.
  write_all_fd(writer.fd_, header.data(), header.size(), path, format.name);
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

void RecordWriter::append(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> framed;
  framed.reserve(payload.size() + 8);
  put_u32(framed, static_cast<std::uint32_t>(payload.size()));
  framed.insert(framed.end(), payload.begin(), payload.end());
  put_u32(framed, store_detail::crc32(payload.data(), payload.size()));
  // One unbuffered write per record: a crash costs at most the record
  // being written, which the next load recovers as a torn tail.
  write_all_fd(fd_, framed.data(), framed.size(), path_, name_);
  if (sync_on_append_) {
    if (::fsync(fd_) != 0)
      throw util::InputError(std::string(name_) + ": fsync failed on '" +
                             path_ + "': " + std::strerror(errno));
    ++synced_;
  }
}

}  // namespace opckit::store
