#include "store/result_store.h"

#include <utility>

#include "trace/metrics.h"

namespace opckit::store {
namespace {

constexpr RecordFormat kFormat{{'O', 'P', 'C', 'K', 'I', 'T', 'S', '1'},
                               "correction store",
                               "rerun without --resume to rebuild it"};
constexpr std::size_t kRectBytes = 4 * 8;
constexpr std::size_t kPointBytes = 2 * 8;

using store_detail::put_u32;

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  store_detail::put_u64(out, static_cast<std::uint64_t>(v));
}

void put_rect(std::vector<std::uint8_t>& out, const geom::Rect& r) {
  put_i64(out, r.lo.x);
  put_i64(out, r.lo.y);
  put_i64(out, r.hi.x);
  put_i64(out, r.hi.y);
}

/// Bounds-checked cursor over an in-memory byte range. Every accessor
/// reports failure instead of reading past the end, so corrupt counts
/// can never drive an out-of-range access.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t pos() const { return pos_; }

  bool read_u32(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = store_detail::get_u32(data_ + pos_);
    pos_ += 4;
    return true;
  }

  bool read_i64(std::int64_t& v) {
    if (remaining() < 8) return false;
    v = static_cast<std::int64_t>(store_detail::get_u64(data_ + pos_));
    pos_ += 8;
    return true;
  }

  bool read_u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = data_[pos_++];
    return true;
  }

  bool read_rect(geom::Rect& r) {
    return read_i64(r.lo.x) && read_i64(r.lo.y) && read_i64(r.hi.x) &&
           read_i64(r.hi.y);
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

namespace store_detail {

bool decode_record(const std::uint8_t* data, std::size_t size,
                   TileRecord& rec) {
  Reader r(data, size);
  std::uint8_t orient = 0;
  if (!r.read_u8(orient) || orient >= geom::kOrientationCount) return false;
  rec.orientation = static_cast<geom::Orientation>(orient);
  if (!r.read_rect(rec.frame)) return false;

  auto read_rects = [&r](std::vector<geom::Rect>& out) {
    std::uint32_t n = 0;
    if (!r.read_u32(n)) return false;
    if (r.remaining() < static_cast<std::uint64_t>(n) * kRectBytes)
      return false;
    out.resize(n);
    for (auto& rect : out)
      if (!r.read_rect(rect)) return false;
    return true;
  };
  if (!read_rects(rec.window_rects)) return false;
  if (!read_rects(rec.own_rects)) return false;

  std::uint32_t n_polys = 0;
  if (!r.read_u32(n_polys)) return false;
  // Each polygon costs at least a vertex count; cheap pre-check before
  // the resize so a corrupt count cannot allocate unboundedly.
  if (r.remaining() < static_cast<std::uint64_t>(n_polys) * 4) return false;
  rec.solution.clear();
  rec.solution.reserve(n_polys);
  for (std::uint32_t p = 0; p < n_polys; ++p) {
    std::uint32_t n_verts = 0;
    if (!r.read_u32(n_verts)) return false;
    if (r.remaining() < static_cast<std::uint64_t>(n_verts) * kPointBytes)
      return false;
    std::vector<geom::Point> ring(n_verts);
    for (auto& v : ring)
      if (!r.read_i64(v.x) || !r.read_i64(v.y)) return false;
    rec.solution.emplace_back(std::move(ring));
  }
  // Trailing bytes after a well-formed record are corruption too.
  return r.remaining() == 0;
}

std::vector<std::uint8_t> encode_record(const TileRecord& record) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(record.orientation));
  put_rect(out, record.frame);
  put_u32(out, static_cast<std::uint32_t>(record.window_rects.size()));
  for (const auto& r : record.window_rects) put_rect(out, r);
  put_u32(out, static_cast<std::uint32_t>(record.own_rects.size()));
  for (const auto& r : record.own_rects) put_rect(out, r);
  put_u32(out, static_cast<std::uint32_t>(record.solution.size()));
  for (const auto& poly : record.solution) {
    put_u32(out, static_cast<std::uint32_t>(poly.ring().size()));
    for (const auto& v : poly.ring()) {
      put_i64(out, v.x);
      put_i64(out, v.y);
    }
  }
  return out;
}

}  // namespace store_detail

ResultStore ResultStore::create(const std::string& path,
                                std::uint64_t fingerprint,
                                bool sync_on_append) {
  return ResultStore(
      RecordWriter::create(path, kFormat, fingerprint, sync_on_append));
}

ResultStore ResultStore::append_to(const std::string& path,
                                   std::uint64_t valid_bytes,
                                   bool sync_on_append) {
  return ResultStore(
      RecordWriter::append_to(path, kFormat, valid_bytes, sync_on_append));
}

LoadResult ResultStore::load(const std::string& path,
                             std::uint64_t expected_fingerprint,
                             lint::LintReport* report) {
  LoadResult result;
  const FramedLoad framed = load_records(
      path, kFormat, expected_fingerprint, report,
      [&result](const std::uint8_t* data, std::size_t size) {
        TileRecord rec;
        if (!store_detail::decode_record(data, size, rec)) return false;
        result.records.push_back(std::move(rec));
        return true;
      });
  result.tail_recovered = framed.tail_recovered;
  result.valid_bytes = framed.valid_bytes;
  if (framed.tail_recovered) {
    trace::metrics()
        .counter(trace::metric::kStoreRecoveredTailBytes)
        .add(framed.tail_bytes);
  }
  trace::metrics()
      .counter(trace::metric::kStoreRecordsLoaded)
      .add(result.records.size());
  return result;
}

void ResultStore::append(const TileRecord& record) {
  writer_.append(store_detail::encode_record(record));
  ++appended_;
  trace::metrics().counter(trace::metric::kStoreRecordsAppended).add();
}

}  // namespace opckit::store
