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

using store_detail::ByteReader;
using store_detail::ByteWriter;

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

}  // namespace

namespace store_detail {

void read_record(ByteReader& r, TileRecord& rec) {
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
  rec.solution.clear();
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

void write_record(ByteWriter& w, const TileRecord& record) {
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
      [&result](ByteReader& r) {
        store_detail::read_record(r, result.records.emplace_back());
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
  ByteWriter w;
  store_detail::write_record(w, record);
  writer_.append(w.bytes());
  ++appended_;
  trace::metrics().counter(trace::metric::kStoreRecordsAppended).add();
}

}  // namespace opckit::store
