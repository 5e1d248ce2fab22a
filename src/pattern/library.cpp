#include "pattern/library.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "pattern/canonical.h"

namespace opckit::pat {

PatternLibrary PatternLibrary::open(const std::string& path,
                                    std::uint64_t fingerprint,
                                    bool sync_on_append) {
  PatternLibrary lib;
  if (!std::filesystem::exists(path)) {
    // Fresh library: write the header now so a crash before the first
    // insert leaves a valid (empty) file.
    lib.file_.emplace(
        store::ResultStore::create(path, fingerprint, sync_on_append));
    return lib;
  }
  store::LoadResult loaded = store::ResultStore::load(path, fingerprint);
  // Rebuild the index from geometry; features and hashes are derived
  // data and are never trusted from disk.
  for (LibraryRecord& rec : loaded.records) {
    const std::uint64_t wh = hash_rects(rec.tile.window_rects);
    lib.add(std::move(rec), wh);
  }
  lib.tail_recovered_ = loaded.tail_recovered;
  lib.file_.emplace(store::ResultStore::append_to(path, loaded.valid_bytes,
                                                  sync_on_append));
  return lib;
}

void PatternLibrary::add(LibraryRecord rec, std::uint64_t window_hash) {
  const std::size_t idx = records_.size();
  features_.push_back(feature_of(rec.tile.window_rects));
  window_hashes_.push_back(window_hash);
  if (!rec.seeds.empty()) {
    const auto key = std::make_pair(features_.back().norm, idx);
    by_norm_.insert(std::upper_bound(by_norm_.begin(), by_norm_.end(), key),
                    key);
  }
  records_.push_back(std::move(rec));
}

bool PatternLibrary::insert(const LibraryRecord& rec) {
  const std::uint64_t wh = hash_rects(rec.tile.window_rects);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (window_hashes_[i] == wh && records_[i].tile == rec.tile) return false;
  }
  add(rec, wh);
  if (file_) file_->append(rec);
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
  copy.tail_recovered_ = tail_recovered_;
  return copy;
}

}  // namespace opckit::pat
