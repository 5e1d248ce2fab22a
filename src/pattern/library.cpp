#include "pattern/library.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "pattern/canonical.h"

namespace opckit::pat {
namespace {

// The `.ocs` record framing under the library's own magic; each record
// frames a TileRecord payload plus its warm seeds.
constexpr store::RecordFormat kFormat{{'O', 'P', 'C', 'K', 'I', 'T', 'L', '1'},
                                      "pattern library",
                                      "delete it to rebuild it"};
constexpr std::size_t kSeedBytes = 3 * 8;

using store::store_detail::ByteReader;
using store::store_detail::ByteWriter;

/// A library record's payload: the TileRecord payload as a counted blob,
/// then the counted warm seeds.
std::vector<std::uint8_t> encode_library_record(const LibraryRecord& rec) {
  ByteWriter tile;
  store::store_detail::write_record(tile, rec.tile);
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

void read_library_record(ByteReader& r, LibraryRecord& rec) {
  ByteReader tile = r.nested(r.blob());
  store::store_detail::read_record(tile, rec.tile);
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

}  // namespace

PatternLibrary PatternLibrary::open(const std::string& path,
                                    std::uint64_t fingerprint,
                                    bool sync_on_append) {
  PatternLibrary lib;
  if (!std::filesystem::exists(path)) {
    // Fresh library: write the header now so a crash before the first
    // insert leaves a valid (empty) file.
    lib.writer_.emplace(store::RecordWriter::create(path, kFormat, fingerprint,
                                                    sync_on_append));
    return lib;
  }
  const store::FramedLoad loaded = store::load_records(
      path, kFormat, fingerprint, /*report=*/nullptr,
      [&lib](ByteReader& r) {
        LibraryRecord rec;
        read_library_record(r, rec);
        // Rebuild the index from geometry; features and hashes are
        // derived data and are never trusted from disk.
        const std::size_t idx = lib.records_.size();
        lib.features_.push_back(feature_of(rec.tile.window_rects));
        lib.window_hashes_.push_back(hash_rects(rec.tile.window_rects));
        const auto key = std::make_pair(lib.features_.back().norm, idx);
        lib.by_norm_.insert(
            std::upper_bound(lib.by_norm_.begin(), lib.by_norm_.end(), key),
            key);
        lib.records_.push_back(std::move(rec));
      });
  lib.load_info_.records_loaded = loaded.records;
  lib.load_info_.tail_recovered = loaded.tail_recovered;
  lib.writer_.emplace(store::RecordWriter::append_to(
      path, kFormat, loaded.valid_bytes, sync_on_append));
  return lib;
}

bool PatternLibrary::insert(const LibraryRecord& rec) {
  const std::uint64_t wh = hash_rects(rec.tile.window_rects);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (window_hashes_[i] == wh && records_[i].tile == rec.tile) return false;
  }
  const std::size_t idx = records_.size();
  features_.push_back(feature_of(rec.tile.window_rects));
  window_hashes_.push_back(wh);
  const auto key = std::make_pair(features_.back().norm, idx);
  by_norm_.insert(std::upper_bound(by_norm_.begin(), by_norm_.end(), key),
                  key);
  records_.push_back(rec);
  if (writer_) writer_->append(encode_library_record(rec));
  return true;
}

std::optional<NearMatch> PatternLibrary::nearest(const PatternFeature& query,
                                                 double budget) const {
  if (budget < 0.0 || by_norm_.empty()) return std::nullopt;
  // ||a|| - ||b|| <= ||a - b||: only entries whose norm lies within
  // `budget` of the query norm can possibly match — scan just that band.
  const auto lo = std::lower_bound(
      by_norm_.begin(), by_norm_.end(),
      std::make_pair(query.norm - budget, std::size_t{0}));
  std::optional<NearMatch> best;
  for (auto it = lo; it != by_norm_.end() && it->first <= query.norm + budget;
       ++it) {
    const double d = feature_distance(query, features_[it->second]);
    if (d > budget) continue;
    if (!best || d < best->distance ||
        (d == best->distance && it->second < best->index)) {
      best = NearMatch{it->second, d};
    }
  }
  return best;
}

PatternLibrary PatternLibrary::clone_memory() const {
  PatternLibrary copy;
  copy.records_ = records_;
  copy.features_ = features_;
  copy.by_norm_ = by_norm_;
  copy.window_hashes_ = window_hashes_;
  copy.load_info_ = load_info_;
  return copy;
}

}  // namespace opckit::pat
