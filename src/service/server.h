/// \file server.h
/// opcd — the long-running OPC service daemon.
///
/// A single process owns every process-wide hot cache (SOCS kernel sets,
/// FFT plans, the shared CorrectionLibrary) and runs OPC jobs submitted
/// over a unix-domain or loopback-TCP socket, so repeated jobs pay the
/// setup cost once instead of per `opckit opc` invocation. Each job runs
/// the exact same run_flat_opc / run_cell_opc entry points as the CLI —
/// the daemon only adds admission, scheduling, and reuse around them, so
/// a job's output GDSII is byte-identical to the equivalent
/// single-process run (experiment T9 asserts this).
///
/// ## Threads and admission
///
/// * One **accept thread** poll-loops on the listener and spawns one
///   **connection thread** per client; each connection thread blocks in
///   read_frame and handles Submit/Ping/Shutdown messages.
/// * Submissions enter a bounded **admission queue** (max_queue), keyed
///   by (priority, arrival order); a full queue rejects with kQueueFull —
///   backpressure is explicit and typed, never an unbounded buffer. The
///   pump starts the queue's head while a util::ThreadPool worker is
///   free, so every waiting job stays in the queue, where a drain can
///   reject it. Each job runs on its worker with spec.jobs = 1: daemon
///   concurrency is one job per worker, side by side.
///
/// ## Shutdown
///
/// request_shutdown(kDrain) — the SIGTERM path — atomically flips the
/// daemon into draining: queued-but-not-started jobs are rejected with
/// kDraining, new submissions are rejected on arrival, and in-flight
/// jobs run to completion; every record they solved is already fsynced
/// in the library, so nothing acknowledged is lost. kAbort additionally
/// raises each running job's FlowSpec::cancel flag — the flow stops at
/// its next phase boundary with FlowAborted and the client gets a
/// failed ResultMsg. stop() then joins everything. A daemon that
/// crashes instead of draining restarts cleanly: the library directory
/// replays its .ocl shelves (torn tails recover per the file's contract)
/// and re-submitted jobs produce byte-identical output.
///
/// ## Metrics
///
/// The admission/run path drives the svc.* series (docs/METRICS.md):
/// jobs_submitted/accepted/rejected at admission; queue_depth and
/// jobs_inflight as +/- gauges; jobs_completed/jobs_failed and the
/// job_latency_ms histogram (admission to result frame) at completion;
/// cache_hits/cache_lookups aggregated from each job's FlowStats so the
/// daemon's cross-job reuse ratio is one division away; protocol_errors
/// for malformed frames.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/library.h"
#include "service/protocol.h"
#include "service/socket.h"
#include "util/thread_pool.h"

namespace opckit::svc {

struct ServerOptions {
  /// Unix-domain socket path. Non-empty = listen here (the default
  /// transport; file permissions are the access control).
  std::string unix_path;
  /// Listen on loopback TCP instead (port 0 = ephemeral; see tcp_port()
  /// after start()). Exactly one of unix_path / use_tcp must be chosen.
  bool use_tcp = false;
  std::uint16_t tcp_port = 0;
  /// Worker threads in the job pool (0 = hardware concurrency).
  int workers = 0;
  /// Admission queue bound: submissions beyond this many waiting jobs
  /// are rejected with kQueueFull.
  std::size_t max_queue = 64;
  /// Shared correction library config (directory = durable).
  CorrectionLibrary::Options library;
  /// Test instrumentation: called on the pool worker with the job id the
  /// moment a dequeued job starts, before any work. A blocking hook
  /// holds the job's worker (admission and queueing continue
  /// normally), which lets tests pin scheduler states that are otherwise
  /// races against job runtime. Never set in production.
  std::function<void(std::uint64_t)> job_start_hook;
};

/// The daemon. Construct, start(), then either wait_shutdown_requested()
/// in a signal loop (what `opckit serve` does) or drive it from tests;
/// stop() (or the destructor) drains and joins everything.
class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the listener, start the pool and the accept thread. Throws
  /// util::InputError when the endpoint cannot be bound.
  void start();

  /// Drain and tear down: reject queued jobs, wait for in-flight jobs,
  /// close every connection, join all threads. Idempotent. Must be
  /// called from the owning thread (not a connection handler) — protocol
  /// shutdown requests go through request_shutdown() instead.
  void stop();

  /// Flip into draining (reject queued + new jobs; kAbort also cancels
  /// running jobs) and wake wait_shutdown_requested(). Safe from any
  /// thread, including connection handlers and signal-watcher loops.
  void request_shutdown(ShutdownMode mode);

  /// Block until request_shutdown() was called or \p timeout_ms elapsed;
  /// returns true when shutdown was requested. The `opckit serve` main
  /// loop alternates this with checking its SIGTERM flag.
  bool wait_shutdown_requested(int timeout_ms);

  /// The bound TCP port (after start(), when use_tcp).
  std::uint16_t tcp_port() const { return bound_port_; }

  /// The shared cross-job correction library (tests inspect shelf sizes).
  CorrectionLibrary& library() { return library_; }

 private:
  /// One client connection: the socket, its reader thread, and a
  /// write-side mutex so job threads (progress/result frames) and the
  /// reader thread (acks/errors) interleave at frame granularity.
  struct Connection {
    std::unique_ptr<FdStream> stream;
    std::thread thread;
    std::mutex write_mutex;
    std::atomic<bool> dead{false};  ///< write failed; drop further frames
    std::atomic<bool> done{false};  ///< reader thread finished (reapable)

    /// Frame + send, serialized; send failures mark the connection dead
    /// and are swallowed (a vanished client must not kill its job).
    void send(MsgType type, const std::vector<std::uint8_t>& payload);
  };

  /// One admitted job.
  struct Job {
    std::uint64_t id = 0;
    SubmitMsg msg;
    std::shared_ptr<Connection> conn;
    std::atomic<bool> cancel{false};
    std::chrono::steady_clock::time_point admitted;
  };

  void accept_loop();
  void serve_connection(const std::shared_ptr<Connection>& conn);
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const Frame& frame);
  void admit(const std::shared_ptr<Connection>& conn, SubmitMsg msg);
  /// Move queued jobs onto the pool while a worker is free. Caller holds
  /// mutex_.
  void pump_locked();
  void run_job(const std::shared_ptr<Job>& job);
  void reap_connections_locked();

  ServerOptions opts_;
  CorrectionLibrary library_;
  std::unique_ptr<util::ThreadPool> pool_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::mutex mutex_;
  std::condition_variable cv_;           ///< running_ drained
  std::condition_variable shutdown_cv_;  ///< request_shutdown() arrived
  bool draining_ = false;
  bool shutdown_requested_ = false;
  std::uint64_t next_job_id_ = 0;
  std::uint64_t queue_seq_ = 0;
  /// Admission queue: (-priority, arrival seq) -> job. begin() is the
  /// next job to run — highest priority, FIFO within a priority.
  std::map<std::pair<long long, std::uint64_t>, std::shared_ptr<Job>>
      pending_;
  std::vector<std::shared_ptr<Job>> running_;
  std::vector<std::shared_ptr<Connection>> connections_;
};

}  // namespace opckit::svc
