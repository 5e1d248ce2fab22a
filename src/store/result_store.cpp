#include "store/result_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "store/record_file.h"
#include "trace/metrics.h"
#include "util/check.h"

namespace opckit::store {
namespace {

using store_detail::ByteReader;
using store_detail::ByteWriter;

constexpr std::array<std::uint8_t, 8> kMagic{'O', 'P', 'C', 'K',
                                             'I', 'T', 'L', '1'};
constexpr const char* kName = "pattern library";  ///< prefixes messages
constexpr const char* kRemedy = "delete it to rebuild it";
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 4;
constexpr std::size_t kRectBytes = 4 * 8;
constexpr std::size_t kPointBytes = 2 * 8;
constexpr std::size_t kSeedBytes = 3 * 8;

lint::Diagnostic make_diag(std::string_view code, std::string message) {
  lint::Diagnostic d;
  d.code = std::string(code);
  const lint::CodeInfo* info = lint::find_code(code);
  OPCKIT_CHECK_MSG(info != nullptr, "unregistered store code " << code);
  d.severity = info->default_severity;
  d.message = std::move(message);
  return d;
}

[[noreturn]] void refuse(lint::LintReport* report, std::string_view code,
                         const std::string& message) {
  lint::Diagnostic d = make_diag(code, message);
  std::string line = d.to_line();
  if (report) report->add(std::move(d));
  throw util::InputError(std::string(kName) + ": " + line);
}

/// A record payload that fails to decode; load() turns it into the
/// STO004 refusal, which names the record.
struct MalformedPayload {};

void malformed_payload(const std::string& /*what*/) {
  throw MalformedPayload{};
}

// ---- record payload ------------------------------------------------------

void write_rect(ByteWriter& w, const geom::Rect& r) {
  w.i64(r.lo.x);
  w.i64(r.lo.y);
  w.i64(r.hi.x);
  w.i64(r.hi.y);
}

geom::Rect read_rect(ByteReader& r) {
  geom::Rect rect;
  rect.lo.x = r.i64();
  rect.lo.y = r.i64();
  rect.hi.x = r.i64();
  rect.hi.y = r.i64();
  return rect;
}

void write_rects(ByteWriter& w, const std::vector<geom::Rect>& rects) {
  w.u32(static_cast<std::uint32_t>(rects.size()));
  for (const geom::Rect& r : rects) write_rect(w, r);
}

std::vector<geom::Rect> read_rects(ByteReader& r) {
  const std::uint32_t n = r.u32();
  r.need(std::uint64_t{n} * kRectBytes, "rects");
  std::vector<geom::Rect> rects(n);
  for (geom::Rect& rect : rects) rect = read_rect(r);
  return rects;
}

void write_tile(ByteWriter& w, const TileRecord& record) {
  w.u8(static_cast<std::uint8_t>(record.orientation));
  write_rect(w, record.frame);
  write_rects(w, record.window_rects);
  write_rects(w, record.own_rects);
  w.u32(static_cast<std::uint32_t>(record.solution.size()));
  for (const auto& poly : record.solution) {
    w.u32(static_cast<std::uint32_t>(poly.ring().size()));
    for (const auto& v : poly.ring()) {
      w.i64(v.x);
      w.i64(v.y);
    }
  }
}

void read_tile(ByteReader& r, TileRecord& rec) {
  const std::uint8_t orient = r.u8();
  if (orient >= geom::kOrientationCount) r.fail("orientation out of range");
  rec.orientation = static_cast<geom::Orientation>(orient);
  rec.frame = read_rect(r);
  rec.window_rects = read_rects(r);
  rec.own_rects = read_rects(r);
  const std::uint32_t n_polys = r.u32();
  // Each polygon costs at least a vertex count: a corrupt count cannot
  // allocate unboundedly.
  r.need(std::uint64_t{n_polys} * 4, "polygons");
  rec.solution.reserve(n_polys);
  for (std::uint32_t p = 0; p < n_polys; ++p) {
    const std::uint32_t n_verts = r.u32();
    r.need(std::uint64_t{n_verts} * kPointBytes, "vertices");
    std::vector<geom::Point> ring(n_verts);
    for (geom::Point& v : ring) {
      v.x = r.i64();
      v.y = r.i64();
    }
    rec.solution.emplace_back(std::move(ring));
  }
}

/// A record's payload: the tile as a counted blob, then the counted
/// warm seeds.
std::vector<std::uint8_t> encode_record(const LibraryRecord& rec) {
  ByteWriter tile;
  write_tile(tile, rec.tile);
  ByteWriter w;
  w.reserve(4 + tile.bytes().size() + 4 + rec.seeds.size() * kSeedBytes);
  w.blob(tile.bytes());
  w.u32(static_cast<std::uint32_t>(rec.seeds.size()));
  for (const WarmSeed& s : rec.seeds) {
    w.i64(s.site.x);
    w.i64(s.site.y);
    w.i64(s.offset);
  }
  return std::move(w).take();
}

void decode_record(ByteReader& r, LibraryRecord& rec) {
  ByteReader tile = r.nested(r.blob());
  read_tile(tile, rec.tile);
  tile.finish("tile record");
  const std::uint32_t n_seeds = r.u32();
  r.need(std::uint64_t{n_seeds} * kSeedBytes, "warm seeds");
  rec.seeds.resize(n_seeds);
  for (WarmSeed& s : rec.seeds) {
    s.site.x = r.i64();
    s.site.y = r.i64();
    s.offset = r.i64();
  }
}

// ---- file I/O (the writes are EINTR-safe POSIX calls) --------------------

/// The whole file, read with one sized read: the loader runs on every
/// --library open and on every daemon shelf's first touch.
std::vector<std::uint8_t> read_file(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in)
    throw util::InputError(std::string(kName) + ": cannot open '" + path +
                           "'");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));  // shrank since?
  return bytes;
}

int open_writer_fd(const std::string& path, int flags) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), flags, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0)
    throw util::InputError(std::string(kName) + ": cannot open '" + path +
                           "' for writing: " + std::strerror(errno));
  return fd;
}

void write_all_fd(int fd, const std::uint8_t* data, std::size_t size,
                  const std::string& path) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw util::InputError(std::string(kName) + ": write failed on '" +
                             path + "': " + std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

}  // namespace

LoadResult ResultStore::load(const std::string& path,
                             std::uint64_t expected_fingerprint,
                             lint::LintReport* report) {
  const std::vector<std::uint8_t> file = read_file(path);
  const std::span<const std::uint8_t> bytes(file);

  // ---- header ----
  if (bytes.size() < kHeaderSize)
    refuse(report, "STO003",
           "'" + path + "' is too short to hold a " + kName + " header (" +
               std::to_string(bytes.size()) + " bytes)");
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin()))
    refuse(report, "STO003",
           "'" + path + "' does not start with the " +
               std::string(kMagic.begin(), kMagic.end()) + " magic");
  ByteReader header(bytes.subspan(8, kHeaderSize - 8), malformed_payload);
  const std::uint32_t version = header.u32();
  const std::uint64_t file_fingerprint = header.u64();
  if (store_detail::crc32(bytes.data(), kHeaderSize - 4) != header.u32())
    refuse(report, "STO003", "'" + path + "' header checksum mismatch");
  if (version != kVersion)
    refuse(report, "STO003",
           "'" + path + "' has " + kName + " version " +
               std::to_string(version) + "; this build reads version " +
               std::to_string(kVersion));
  if (file_fingerprint != expected_fingerprint) {
    std::ostringstream os;
    os << "'" << path << "' was written under a different process setup ("
       << kName << " fingerprint " << std::hex << file_fingerprint
       << ", expected " << expected_fingerprint << std::dec
       << "); refusing to replay — " << kRemedy;
    refuse(report, "STO001", os.str());
  }

  // ---- records ----
  LoadResult result;
  ByteReader records(bytes.subspan(kHeaderSize), malformed_payload);
  result.valid_bytes = kHeaderSize;
  while (records.remaining() > 0) {
    const std::size_t rem = records.remaining();
    const std::uint64_t len = rem < 4 ? 0 : records.u32();
    // A length that runs past EOF is an interrupted write, not
    // corruption — the CRC that would vouch for it was never written.
    if (rem < 4 || len + 8 > rem) {
      result.tail_recovered = true;
      lint::Diagnostic d = make_diag(
          "STO002", "'" + path + "' ends inside a record (torn write); "
                        "dropped " +
                        std::to_string(rem) + " tail bytes, kept " +
                        std::to_string(result.records.size()) +
                        " whole records");
      if (report) report->add(std::move(d));
      trace::metrics()
          .counter(trace::metric::kStoreRecoveredTailBytes)
          .add(rem);
      break;
    }
    const std::span<const std::uint8_t> payload =
        records.bytes(static_cast<std::size_t>(len), "record payload");
    const std::string index = std::to_string(result.records.size());
    if (store_detail::crc32(payload.data(), payload.size()) != records.u32())
      refuse(report, "STO004",
             "'" + path + "' record " + index + " fails its checksum; the " +
                 kName + " is corrupt — " + kRemedy);
    try {
      ByteReader record(payload, malformed_payload);
      decode_record(record, result.records.emplace_back());
      record.finish("record");
    } catch (const MalformedPayload&) {
      refuse(report, "STO004",
             "'" + path + "' record " + index +
                 " is structurally malformed despite a valid checksum; "
                 "the " +
                 kName + " is corrupt — " + kRemedy);
    }
    result.valid_bytes = bytes.size() - records.remaining();
  }
  trace::metrics()
      .counter(trace::metric::kStoreRecordsLoaded)
      .add(result.records.size());
  return result;
}

ResultStore::ResultStore(ResultStore&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      sync_on_append_(other.sync_on_append_),
      appended_(other.appended_),
      synced_(other.synced_) {}

ResultStore& ResultStore::operator=(ResultStore&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    sync_on_append_ = other.sync_on_append_;
    appended_ = other.appended_;
    synced_ = other.synced_;
  }
  return *this;
}

ResultStore::~ResultStore() {
  if (fd_ >= 0) ::close(fd_);
}

ResultStore ResultStore::create(const std::string& path,
                                std::uint64_t fingerprint,
                                bool sync_on_append) {
  ByteWriter header;
  header.raw(kMagic);
  header.u32(kVersion);
  header.u64(fingerprint);
  header.u32(store_detail::crc32(header.bytes().data(), header.bytes().size()));
  OPCKIT_DCHECK(header.bytes().size() == kHeaderSize);

  ResultStore store(
      path, open_writer_fd(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC),
      sync_on_append);
  // The header is not fsynced here even in sync mode: fsync flushes the
  // whole file, so the first record's sync covers it, and an empty file
  // that vanishes in a crash costs nothing to recreate.
  write_all_fd(store.fd_, header.bytes().data(), header.bytes().size(), path);
  return store;
}

ResultStore ResultStore::append_to(const std::string& path,
                                   std::uint64_t valid_bytes,
                                   bool sync_on_append) {
  // Drop any recovered torn tail before appending: new records must land
  // directly after the last whole one.
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec)
    throw util::InputError(std::string(kName) + ": cannot truncate '" +
                           path + "' to its valid prefix: " + ec.message());
  return ResultStore(
      path, open_writer_fd(path, O_WRONLY | O_APPEND | O_CLOEXEC),
      sync_on_append);
}

void ResultStore::append(const LibraryRecord& record) {
  const std::vector<std::uint8_t> payload = encode_record(record);
  ByteWriter framed;
  framed.reserve(payload.size() + 8);
  framed.blob(payload);
  framed.u32(store_detail::crc32(payload.data(), payload.size()));
  // One unbuffered write per record: a crash costs at most the record
  // being written, which the next load recovers as a torn tail.
  write_all_fd(fd_, framed.bytes().data(), framed.bytes().size(), path_);
  ++appended_;
  trace::metrics().counter(trace::metric::kStoreRecordsAppended).add();
  if (sync_on_append_) {
    if (::fsync(fd_) != 0)
      throw util::InputError(std::string(kName) + ": fsync failed on '" +
                             path_ + "': " + std::strerror(errno));
    ++synced_;
    trace::metrics().counter(trace::metric::kStoreRecordsSynced).add();
  }
}

}  // namespace opckit::store
