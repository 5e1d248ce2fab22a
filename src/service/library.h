/// \file library.h
/// The daemon's shared pattern library: the cross-job, cross-client
/// reuse layer that makes opcd more than a socket wrapper.
///
/// A single-process flow only reuses corrections within its own
/// CorrectionCache (and, with a library file, across its own restarts).
/// The daemon instead keeps one shelf of solved pattern classes per flow
/// fingerprint — a pat::PatternLibrary — feeds a snapshot of it into
/// every job as FlowSpec::library, and collects every fresh solve back
/// through FlowSpec::library_sink — so the thousandth request for a
/// repetitive layout family replays almost everything, regardless of
/// which client submitted the first, and a job with library_budget > 0
/// warm-starts its misses from the nearest solved pattern.
///
/// ## Why snapshots, not a shared cache
///
/// CorrectionCache is deliberately not thread-safe (the flow resolves in
/// a serial phase). Two concurrent jobs therefore each get a COPY of the
/// shelf at admission time and their own private cache. Records solved
/// by job A while job B runs simply miss B's snapshot and are re-solved
/// — a bounded duplication cost, never a correctness issue, because
/// replay is translation-exact: importing more or fewer records cannot
/// change any job's output bytes. add() deduplicates by tile equality,
/// so the shelf converges to one record per pattern class.
///
/// ## Durability and crash resume
///
/// With a directory configured, each shelf is backed by one file,
/// `<dir>/<fingerprint-hex>.ocl` — the pattern library's own format
/// (store/result_store.h), fsynced per append so a record acknowledged
/// to any client survives a daemon crash. Each fresh solve costs one
/// deduplicated append and one fsync. The first job under a fingerprint
/// loads the existing file (torn tails recover per the file's contract),
/// which is exactly the daemon restart path: a new opcd over the same
/// library directory replays everything its predecessor solved,
/// byte-identical to an uninterrupted process. Fingerprint-keyed file
/// names make cross-setup replay structurally impossible, on top of the
/// file's own STO001 gate.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "pattern/library.h"

namespace opckit::svc {

/// Process-wide library of solved pattern classes, sharded by flow
/// fingerprint. All methods are thread-safe (one mutex — shelf work is
/// memory-bound copying, orders of magnitude cheaper than one solve).
class CorrectionLibrary {
 public:
  struct Options {
    /// Directory for the per-fingerprint .ocl files. Empty = memory-only
    /// (no durability, no crash resume) — tests and throwaway servers.
    std::string dir;
    /// fsync per appended record (the daemon default). See
    /// store::ResultStore::sync_on_append.
    bool sync_on_append = true;
  };

  explicit CorrectionLibrary(Options opts) : opts_(std::move(opts)) {}

  /// Immutable clone of the shelf for \p fingerprint, loading its .ocl
  /// file on first touch (the crash-resume path). The clone is the
  /// caller's to keep alive for the duration of a run (FlowSpec::library
  /// points at it).
  pat::PatternLibrary snapshot(std::uint64_t fingerprint);
  /// snapshot(); kept only until the benchmark, which still calls it by
  /// this name, drops it.
  pat::PatternLibrary pattern_snapshot(std::uint64_t fingerprint) {
    return snapshot(fingerprint);
  }

  /// Insert one freshly solved record (exact-replay tile + warm-start
  /// seeds): deduplicated by tile equality, appended (and fsynced, per
  /// Options) to the shelf's file. Safe from concurrent jobs' merge
  /// phases.
  void add(std::uint64_t fingerprint, const pat::LibraryRecord& rec);

  /// Records currently shelved for \p fingerprint (loads on first touch).
  std::size_t size(std::uint64_t fingerprint);

  /// The backing .ocl file for \p fingerprint; empty when memory-only.
  std::string path_for(std::uint64_t fingerprint) const;
  /// path_for(); kept only until the benchmark, which still calls it by
  /// this name, drops it.
  std::string pattern_path_for(std::uint64_t fingerprint) const {
    return path_for(fingerprint);
  }

 private:
  /// Get-or-load the shelf. Caller holds mutex_.
  pat::PatternLibrary& shelf_locked(std::uint64_t fingerprint);

  Options opts_;
  std::mutex mutex_;
  std::map<std::uint64_t, pat::PatternLibrary> shelves_;
};

}  // namespace opckit::svc
