#include "service/server.h"

#include <unistd.h>

#include <exception>
#include <optional>

#include "layout/gdsii.h"
#include "layout/library.h"
#include "trace/metrics.h"
#include "util/check.h"

namespace opckit::svc {

namespace {

/// Forward one FlowProgress event as a kProgress frame. Phase starts
/// always ship; per-tile merge ticks are throttled (every 32nd plus the
/// final one) so a many-tile merge is not dominated by socket writes.
bool should_send_progress(const opc::FlowProgress& p) {
  if (p.tiles_done == 0 || p.tiles_done == p.tiles_total) return true;
  return p.tiles_done % 32 == 0;
}

}  // namespace

void Server::Connection::send(MsgType type,
                              const std::vector<std::uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(write_mutex);
  if (dead.load(std::memory_order_relaxed)) return;
  try {
    write_frame(*stream, type, payload);
  } catch (const std::exception&) {
    // The client vanished. Its job still runs to completion (results are
    // durable in the library), we just stop talking to it.
    dead.store(true, std::memory_order_relaxed);
  }
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), library_(opts_.library) {}

Server::~Server() { stop(); }

void Server::start() {
  OPCKIT_CHECK_MSG(!started_, "Server::start() called twice");
  OPCKIT_CHECK_MSG(opts_.use_tcp != !opts_.unix_path.empty(),
                   "ServerOptions: choose exactly one of unix_path / use_tcp");
  if (opts_.use_tcp) {
    listen_fd_ = listen_tcp(opts_.tcp_port, &bound_port_);
  } else {
    listen_fd_ = listen_unix(opts_.unix_path);
  }
  pool_ = std::make_unique<util::ThreadPool>(
      opts_.workers < 0 ? 1 : static_cast<std::size_t>(opts_.workers));
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = accept_with_timeout(listen_fd_, 200);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      reap_connections_locked();
    }
    if (fd < 0) continue;  // timeout or EINTR: re-check stopping_
    auto conn = std::make_shared<Connection>();
    conn->stream = std::make_unique<FdStream>(fd);
    conn->thread = std::thread([this, conn] { serve_connection(conn); });
    std::lock_guard<std::mutex> lock(mutex_);
    connections_.push_back(conn);
  }
}

void Server::reap_connections_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::serve_connection(const std::shared_ptr<Connection>& conn) {
  auto& protocol_errors =
      trace::metrics().counter(trace::metric::kSvcProtocolErrors);
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = read_frame(*conn->stream);
    } catch (const ProtocolError& e) {
      // Framing fault: the byte stream is unparseable past this point, so
      // report and hang up. Resynchronization is impossible by design —
      // scanning for the next magic would mistake payload bytes for
      // frames.
      protocol_errors.add();
      conn->send(MsgType::kError,
                 encode_error({static_cast<std::uint16_t>(e.fault()),
                               e.what()}));
      break;
    } catch (const std::exception&) {
      break;  // socket error — peer is gone
    }
    if (!frame) break;  // clean EOF at a frame boundary

    try {
      handle_frame(conn, *frame);
    } catch (const ProtocolError& e) {
      // Payload fault: the frame itself was intact (CRC passed), so the
      // stream stays synchronized — report and keep serving.
      protocol_errors.add();
      conn->send(MsgType::kError,
                 encode_error({static_cast<std::uint16_t>(e.fault()),
                               e.what()}));
    } catch (const std::exception& e) {
      conn->send(MsgType::kError, encode_error({kErrorCodeServer, e.what()}));
    }
  }
  conn->done.store(true, std::memory_order_release);
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          const Frame& frame) {
  switch (frame.type) {
    case MsgType::kSubmit:
      trace::metrics().counter(trace::metric::kSvcJobsSubmitted).add();
      admit(conn, decode_submit(frame.payload));
      return;
    case MsgType::kPing:
      conn->send(MsgType::kPong, frame.payload);
      return;
    case MsgType::kShutdown: {
      const ShutdownMsg msg = decode_shutdown(frame.payload);
      conn->send(MsgType::kShutdownAck, {});
      request_shutdown(msg.mode);
      return;
    }
    default:
      // Structurally valid but not a client->server message.
      conn->send(MsgType::kError,
                 encode_error({kErrorCodeServer,
                               "unexpected message type from client"}));
      return;
  }
}

void Server::admit(const std::shared_ptr<Connection>& conn, SubmitMsg msg) {
  auto& m = trace::metrics();
  if (msg.in_path.empty() || msg.out_path.empty()) {
    m.counter(trace::metric::kSvcJobsRejected).add();
    RejectedMsg rej;
    rej.reason = RejectReason::kBadJob;
    rej.message = "submit requires input and output paths";
    conn->send(MsgType::kRejected, encode_rejected(rej));
    return;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_) {
    m.counter(trace::metric::kSvcJobsRejected).add();
    RejectedMsg rej;
    rej.reason = RejectReason::kDraining;
    rej.message = "daemon is draining";
    conn->send(MsgType::kRejected, encode_rejected(rej));
    return;
  }
  if (pending_.size() >= opts_.max_queue) {
    m.counter(trace::metric::kSvcJobsRejected).add();
    RejectedMsg rej;
    rej.reason = RejectReason::kQueueFull;
    rej.message = "admission queue is full (max_queue = " +
                  std::to_string(opts_.max_queue) + ")";
    conn->send(MsgType::kRejected, encode_rejected(rej));
    return;
  }

  auto job = std::make_shared<Job>();
  job->id = ++next_job_id_;
  job->msg = std::move(msg);
  job->conn = conn;
  job->admitted = std::chrono::steady_clock::now();
  pending_.emplace(
      std::make_pair(-static_cast<long long>(job->msg.priority), queue_seq_++),
      job);
  m.counter(trace::metric::kSvcJobsAccepted).add();
  m.gauge(trace::metric::kSvcQueueDepth).add(1.0);

  AcceptedMsg acc;
  acc.job_id = job->id;
  acc.queue_depth = static_cast<std::uint32_t>(pending_.size());
  conn->send(MsgType::kAccepted, encode_accepted(acc));
  pump_locked();
}

void Server::pump_locked() {
  while (!draining_ && running_.size() < pool_->size() &&
         !pending_.empty()) {
    auto it = pending_.begin();
    std::shared_ptr<Job> job = it->second;
    pending_.erase(it);
    trace::metrics().gauge(trace::metric::kSvcQueueDepth).add(-1.0);
    running_.push_back(job);
    pool_->submit([this, job] { run_job(job); });
  }
}

void Server::run_job(const std::shared_ptr<Job>& job) {
  // No locks held here: a blocking hook must not stall admission.
  if (opts_.job_start_hook) opts_.job_start_hook(job->id);
  auto& m = trace::metrics();
  m.gauge(trace::metric::kSvcJobsInflight).add(1.0);

  ResultMsg result;
  result.job_id = job->id;
  try {
    layout::Library lib = layout::read_gdsii_file(job->msg.in_path);
    std::string top = job->msg.top;
    if (top.empty()) {
      const std::vector<std::string> tops = lib.top_cells();
      if (tops.size() != 1) {
        throw util::InputError(
            "submit: no top cell named and the library has " +
            std::to_string(tops.size()) + " top cells");
      }
      top = tops.front();
    }

    opc::FlowSpec spec = job->msg.spec;
    // The job already has this worker to itself; a pool of its own would
    // only idle, since parallel_for runs inline on a pool worker.
    spec.jobs = 1;
    const char* kind = job->msg.flow == 1 ? "cell" : "flat";

    // The daemon owns durability through the shared library, never
    // through a per-job library file — two concurrent jobs with equal
    // fingerprints must not append to one file from two caches. The wire
    // carries no host-local field (core/flow_codec.h), so a decoded spec
    // names no library file to begin with.
    const std::uint64_t fp = opc::flow_fingerprint(spec, kind);

    pat::PatternLibrary shelf;
    if (spec.cache) {
      shelf = library_.snapshot(fp);
      if (shelf.size() > 0) spec.library = &shelf;
      spec.library_sink = [this, fp](const pat::LibraryRecord& rec) {
        library_.add(fp, rec);
      };
    }
    spec.cancel = &job->cancel;
    spec.progress = [&job](const opc::FlowProgress& p) {
      if (!should_send_progress(p)) return;
      ProgressMsg msg;
      msg.job_id = job->id;
      msg.pass = p.pass;
      msg.phase = std::string(p.phase);
      msg.tiles_done = p.tiles_done;
      msg.tiles_total = p.tiles_total;
      job->conn->send(MsgType::kProgress, encode_progress(msg));
    };

    opc::FlowStats stats;
    try {
      stats = job->msg.flow == 1 ? opc::run_cell_opc(lib, top, spec)
                                 : opc::run_flat_opc(lib, top, spec);
    } catch (const opc::MrcGateError&) {
      // Signoff rejects a mask, it does not destroy it: persist the
      // corrected-but-violating output for inspection, then fail the job.
      layout::write_gdsii_file(lib, job->msg.out_path);
      throw;
    }
    layout::write_gdsii_file(lib, job->msg.out_path);

    result.ok = true;
    result.payload = opc::render_stats_json(stats);

    const std::uint64_t hits = stats.cache_hits;
    const std::uint64_t lookups =
        stats.cache_hits + stats.cache_misses + stats.cache_conflicts;
    m.counter(trace::metric::kSvcCacheHits).add(hits);
    m.counter(trace::metric::kSvcCacheLookups).add(lookups);
    m.counter(trace::metric::kSvcJobsCompleted).add();
  } catch (const std::exception& e) {
    result.ok = false;
    result.payload = e.what();
    m.counter(trace::metric::kSvcJobsFailed).add();
  }

  const double latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - job->admitted)
          .count();
  m.histogram(trace::metric::kSvcJobLatencyMs).observe(latency_ms);
  m.gauge(trace::metric::kSvcJobsInflight).add(-1.0);

  job->conn->send(MsgType::kResult, encode_result(result));

  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = running_.begin(); it != running_.end(); ++it) {
    if (it->get() == job.get()) {
      running_.erase(it);
      break;
    }
  }
  pump_locked();
  cv_.notify_all();
}

void Server::request_shutdown(ShutdownMode mode) {
  std::vector<std::shared_ptr<Job>> rejected;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    shutdown_requested_ = true;
    for (auto& [key, job] : pending_) rejected.push_back(job);
    pending_.clear();
    if (!rejected.empty()) {
      trace::metrics()
          .gauge(trace::metric::kSvcQueueDepth)
          .add(-static_cast<double>(rejected.size()));
    }
    if (mode == ShutdownMode::kAbort) {
      for (auto& job : running_) {
        job->cancel.store(true, std::memory_order_relaxed);
      }
    }
    shutdown_cv_.notify_all();
  }
  for (auto& job : rejected) {
    trace::metrics().counter(trace::metric::kSvcJobsRejected).add();
    RejectedMsg rej;
    rej.job_id = job->id;
    rej.reason = RejectReason::kDraining;
    rej.message = "daemon is draining; job was queued but not started";
    job->conn->send(MsgType::kRejected, encode_rejected(rej));
  }
}

bool Server::wait_shutdown_requested(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  return shutdown_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [this] { return shutdown_requested_; });
}

void Server::stop() {
  if (!started_) return;
  started_ = false;

  // Reject everything still queued, then stop accepting.
  request_shutdown(ShutdownMode::kDrain);
  stopping_.store(true, std::memory_order_relaxed);
  accept_thread_.join();

  // Drain: in-flight jobs run to completion (or to their cancel poll).
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return running_.empty(); });
  }

  // Wake connection readers blocked in recv and join them.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conns.swap(connections_);
  }
  for (auto& conn : conns) {
    conn->stream->shutdown_both();
    conn->thread.join();
  }

  pool_.reset();
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (!opts_.use_tcp) ::unlink(opts_.unix_path.c_str());
}

}  // namespace opckit::svc
