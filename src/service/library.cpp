#include "service/library.h"

#include <filesystem>
#include <utility>

namespace opckit::svc {
namespace {

std::string fingerprint_hex(std::uint64_t fingerprint) {
  // Fixed-width lowercase hex: stable names, trivially greppable against
  // `opckit opc --stats` fingerprint output.
  static const char* kHex = "0123456789abcdef";
  std::string name(16, '0');
  for (int i = 15; i >= 0; --i) {
    name[static_cast<std::size_t>(i)] = kHex[fingerprint & 0xF];
    fingerprint >>= 4;
  }
  return name;
}

}  // namespace

std::string CorrectionLibrary::path_for(std::uint64_t fingerprint) const {
  if (opts_.dir.empty()) return {};
  return (std::filesystem::path(opts_.dir) /
          (fingerprint_hex(fingerprint) + ".ocl"))
      .string();
}

pat::PatternLibrary& CorrectionLibrary::shelf_locked(
    std::uint64_t fingerprint) {
  auto it = shelves_.find(fingerprint);
  if (it != shelves_.end()) return it->second;
  if (opts_.dir.empty()) return shelves_[fingerprint];
  // Daemon restart / crash resume: open() adopts whatever the
  // predecessor persisted (torn tails recover per the file's contract)
  // and keeps appending after the last valid record.
  std::filesystem::create_directories(opts_.dir);
  return shelves_
      .emplace(fingerprint,
               pat::PatternLibrary::open(path_for(fingerprint), fingerprint,
                                         opts_.sync_on_append))
      .first->second;
}

pat::PatternLibrary CorrectionLibrary::snapshot(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  return shelf_locked(fingerprint).clone_memory();
}

void CorrectionLibrary::add(std::uint64_t fingerprint,
                            const pat::LibraryRecord& rec) {
  std::lock_guard<std::mutex> lock(mutex_);
  shelf_locked(fingerprint).insert(rec);
}

std::size_t CorrectionLibrary::size(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  return shelf_locked(fingerprint).size();
}

}  // namespace opckit::svc
