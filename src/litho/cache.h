/// \file cache.h
/// The one discipline of the process-wide litho caches (FFT plans,
/// Gaussian transfers, Abbe and SOCS kernel sets): build under the lock
/// on first touch, never evict, count builds and hits.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "trace/metrics.h"

namespace opckit::litho {

/// A process-wide map from Key to an immutable shared Value. The first
/// request for a key builds its value under the lock, so peers touching
/// the same key wait for the one build instead of duplicating it; every
/// later request is a map lookup returning the same entry. Never evicts
/// (a process sees a handful of distinct keys at most). Thread-safe.
///
/// Derived is the named cache: it owns the process-wide instance() and
/// spells get() in its own terms over get_or_build().
template <class Derived, class Key, class Value>
class BuildOnceCache {
 public:
  struct Stats {
    std::uint64_t builds = 0;
    std::uint64_t hits = 0;
  };

  /// The process-wide instance.
  static Derived& instance() {
    static Derived cache;
    return cache;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }
  /// Drop all entries and reset stats (test hook).
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    stats_ = Stats{};
  }

 protected:
  /// \p hit_metric: the trace counter each hit adds to (nullptr: none).
  explicit BuildOnceCache(const char* hit_metric = nullptr)
      : hit_metric_(hit_metric) {}

  /// The entry of \p key; on first touch, build() returns its Value.
  template <class Build>
  std::shared_ptr<const Value> get_or_build(const Key& key, Build&& build) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      if (hit_metric_ != nullptr) trace::metrics().counter(hit_metric_).add();
      return it->second;
    }
    auto entry = std::make_shared<const Value>(build());
    ++stats_.builds;
    entries_.emplace(key, entry);
    return entry;
  }

 private:
  const char* hit_metric_;
  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const Value>> entries_;
  Stats stats_;
};

}  // namespace opckit::litho
