/// End-to-end opcd daemon tests (src/service/server.h): lifecycle,
/// concurrent clients, admission backpressure, drain/abort shutdown,
/// crash resume through the library directory, and protocol-error
/// survival — all over real unix-domain (and loopback-TCP) sockets.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/flow.h"
#include "layout/gdsii.h"
#include "layout/generators.h"
#include "service/client.h"
#include "service/server.h"
#include "service/socket.h"
#include "trace/metrics.h"

namespace opckit::svc {
namespace {

using layout::Library;

opc::FlowSpec fast_flow() {
  // Calibrated once and cached: calibrate_threshold runs a real
  // simulation, and several tests here rely on back-to-back submissions
  // landing faster than a job completes — a ~100ms spec rebuild between
  // two submits would let the queue drain and break the timing they
  // probe (admission backpressure, priority ordering).
  static const opc::FlowSpec cached = [] {
    opc::FlowSpec spec;
    spec.sim.optics.source.grid = 5;
    litho::calibrate_threshold(spec.sim, 180, 360);
    spec.opc.max_iterations = 2;
    spec.input_layer = layout::layers::kPoly;
    spec.output_layer = layout::layers::kPolyOpc;
    return spec;
  }();
  return cached;
}

/// Fresh temp path: any stale file from a previous run is removed.
std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  return path;
}

/// Write a repeated-placement chip to a GDSII file and return its path.
/// The default pitch keeps placements outside each other's halo (one
/// pattern class); a pitch below the halo couples them.
std::string make_input_gds(const std::string& name, int cols = 2,
                           int rows = 2, geom::Point pitch = {4000, 4000}) {
  Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  layout::make_chip(lib, "top", "leaf", cols, rows, pitch);
  const std::string path = temp_path(name);
  layout::write_gdsii_file(lib, path);
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The GDSII bytes of the flat flow run directly on \p in.
std::string direct_gds(const std::string& in, const std::string& name) {
  Library lib = layout::read_gdsii_file(in);
  opc::run_flat_opc(lib, "top", fast_flow());
  const std::string out = temp_path(name);
  layout::write_gdsii_file(lib, out);
  return read_file(out);
}

SubmitMsg make_submit(const std::string& in, const std::string& out,
                      int priority = 0) {
  SubmitMsg msg;
  msg.priority = priority;
  msg.flow = 0;  // flat
  msg.in_path = in;
  msg.out_path = out;
  msg.spec = fast_flow();
  return msg;
}

/// A running daemon on a fresh unix socket + the means to talk to it.
/// With \p hold_jobs every job waits in ServerOptions::job_start_hook
/// until release_jobs(), so a test can keep a job in flight while it
/// queues, drains or aborts around it; wait_held() returns once a job
/// holds its worker. The fixture releases them before it stops the
/// daemon, so a failed assertion cannot leave stop() waiting on a held
/// job.
struct DaemonFixture {
  explicit DaemonFixture(const std::string& name, ServerOptions opts = {},
                         bool hold_jobs = false) {
    socket_path = temp_path(name + ".sock");
    opts.unix_path = socket_path;
    if (hold_jobs) {
      opts.job_start_hook = [this](std::uint64_t) {
        std::unique_lock<std::mutex> lk(hold_mutex);
        ++held;
        hold_cv.notify_all();
        hold_cv.wait(lk, [this] { return released; });
      };
    }
    server = std::make_unique<Server>(std::move(opts));
    server->start();
  }
  ~DaemonFixture() { release_jobs(); }

  void release_jobs() {
    {
      std::lock_guard<std::mutex> lk(hold_mutex);
      released = true;
    }
    hold_cv.notify_all();
  }

  void wait_held() {
    std::unique_lock<std::mutex> lk(hold_mutex);
    hold_cv.wait(lk, [this] { return held > 0; });
  }

  Client client() { return Client(connect_unix(socket_path)); }

  std::mutex hold_mutex;
  std::condition_variable hold_cv;
  int held = 0;
  bool released = false;
  std::unique_ptr<Server> server;  // stops before the hold state goes
  std::string socket_path;
};

/// Skip progress frames until the terminal kResult and return it.
ResultMsg await_result(Stream& s) {
  for (;;) {
    auto f = read_frame(s);
    if (!f.has_value()) {
      ADD_FAILURE() << "stream closed before a result frame";
      return {};
    }
    if (f->type == MsgType::kResult) return decode_result(f->payload);
    EXPECT_EQ(f->type, MsgType::kProgress);
  }
}

TEST(ServiceDaemon, PingPong) {
  DaemonFixture d("svc_ping");
  Client c = d.client();
  EXPECT_NO_THROW(c.ping());
  d.server->stop();
}

TEST(ServiceDaemon, SubmitRunsJobByteIdenticalToDirectRun) {
  DaemonFixture d("svc_basic");
  const std::string in = make_input_gds("svc_basic_in.gds");
  const std::string daemon_out = temp_path("svc_basic_daemon.gds");

  Client c = d.client();
  const auto outcome = c.run_job(make_submit(in, daemon_out));
  ASSERT_TRUE(outcome.accepted);
  EXPECT_GT(outcome.ack.job_id, 0u);
  ASSERT_TRUE(outcome.result.ok) << outcome.result.payload;
  EXPECT_NE(outcome.result.payload.find("\"opc_runs\""),
            std::string::npos);

  // Progress streamed from inside the flow.
  bool saw_solve = false;
  for (const auto& p : outcome.progress) {
    if (p.phase == "solve") saw_solve = true;
  }
  EXPECT_TRUE(saw_solve);

  // The daemon's output must be byte-identical to the same flow run
  // directly in this process — the T9 acceptance criterion.
  EXPECT_EQ(read_file(daemon_out), direct_gds(in, "svc_basic_direct.gds"));
  d.server->stop();
}

TEST(ServiceDaemon, SecondIdenticalJobReplaysFromHotLibrary) {
  DaemonFixture d("svc_hot");
  const std::string in = make_input_gds("svc_hot_in.gds");
  const std::string out1 = temp_path("svc_hot_out1.gds");
  const std::string out2 = temp_path("svc_hot_out2.gds");
  Client c = d.client();

  const auto first = c.run_job(make_submit(in, out1));
  ASSERT_TRUE(first.accepted);
  ASSERT_TRUE(first.result.ok) << first.result.payload;
  EXPECT_EQ(first.result.payload.find("\"opc_runs\":0"),
            std::string::npos);

  const auto second = c.run_job(make_submit(in, out2));
  ASSERT_TRUE(second.result.ok) << second.result.payload;
  // Everything replays from the shared correction library: zero solves,
  // same output bytes.
  EXPECT_NE(second.result.payload.find("\"opc_runs\":0"),
            std::string::npos);
  EXPECT_EQ(read_file(out1), read_file(out2));
  d.server->stop();
}

TEST(ServiceDaemon, ConcurrentClientsAllComplete) {
  ServerOptions opts;
  opts.workers = 4;
  DaemonFixture d("svc_conc", std::move(opts));
  const std::string in = make_input_gds("svc_conc_in.gds");

  constexpr int kClients = 4;
  std::vector<std::string> outs;
  for (int i = 0; i < kClients; ++i) {
    outs.push_back(temp_path("svc_conc_out" + std::to_string(i) + ".gds"));
  }
  std::vector<Client::Outcome> outcomes(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c = d.client();
      outcomes[static_cast<std::size_t>(i)] =
          c.run_job(make_submit(in, outs[static_cast<std::size_t>(i)]));
    });
  }
  for (auto& t : threads) t.join();

  const std::string expect = read_file(outs[0]);
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(outcomes[static_cast<std::size_t>(i)].accepted);
    ASSERT_TRUE(outcomes[static_cast<std::size_t>(i)].result.ok)
        << outcomes[static_cast<std::size_t>(i)].result.payload;
    EXPECT_EQ(read_file(outs[static_cast<std::size_t>(i)]), expect);
  }
  d.server->stop();
}

TEST(ServiceDaemon, FullQueueRejectsWithTypedError) {
  ServerOptions opts;
  opts.workers = 1;
  opts.max_queue = 1;
  // Job 1 is held in flight until job 3 has bounced: were it to finish
  // first, job 2 would start and free the queue slot for job 3.
  DaemonFixture d("svc_queue", std::move(opts), /*hold_jobs=*/true);
  const std::string in = make_input_gds("svc_queue_in.gds", 3, 3);

  // Drive the wire directly so submissions can overlap: job 1 starts
  // running, job 2 occupies the single queue slot, job 3 must bounce.
  auto s1 = connect_unix(d.socket_path);
  auto s2 = connect_unix(d.socket_path);
  auto s3 = connect_unix(d.socket_path);
  write_frame(*s1, MsgType::kSubmit,
              encode_submit(make_submit(in, temp_path("svc_q1.gds"))));
  auto f1 = read_frame(*s1);
  ASSERT_TRUE(f1 && f1->type == MsgType::kAccepted);

  write_frame(*s2, MsgType::kSubmit,
              encode_submit(make_submit(in, temp_path("svc_q2.gds"))));
  auto f2 = read_frame(*s2);
  ASSERT_TRUE(f2 && f2->type == MsgType::kAccepted);

  write_frame(*s3, MsgType::kSubmit,
              encode_submit(make_submit(in, temp_path("svc_q3.gds"))));
  auto f3 = read_frame(*s3);
  ASSERT_TRUE(f3.has_value());
  ASSERT_EQ(f3->type, MsgType::kRejected);
  EXPECT_EQ(decode_rejected(f3->payload).reason, RejectReason::kQueueFull);

  // The accepted jobs still finish normally.
  d.release_jobs();
  EXPECT_TRUE(await_result(*s1).ok);
  EXPECT_TRUE(await_result(*s2).ok);
  d.server->stop();
}

TEST(ServiceDaemon, DrainFinishesInflightAndRejectsQueued) {
  ServerOptions opts;
  opts.workers = 1;
  // Job 1 is held in flight until the drain has rejected job 2: were it
  // to finish first, job 2 would start instead.
  DaemonFixture d("svc_drain", std::move(opts), /*hold_jobs=*/true);
  const std::string in = make_input_gds("svc_drain_in.gds", 3, 3);
  const std::string out1 = temp_path("svc_d1.gds");

  auto s1 = connect_unix(d.socket_path);
  auto s2 = connect_unix(d.socket_path);
  write_frame(*s1, MsgType::kSubmit,
              encode_submit(make_submit(in, out1)));
  auto a1 = read_frame(*s1);
  ASSERT_TRUE(a1 && a1->type == MsgType::kAccepted);
  write_frame(*s2, MsgType::kSubmit,
              encode_submit(make_submit(in, temp_path("svc_d2.gds"))));
  auto a2 = read_frame(*s2);
  ASSERT_TRUE(a2 && a2->type == MsgType::kAccepted);

  // Drain: in-flight job 1 finishes; queued job 2 gets a typed
  // rejection; a fresh submission is refused on arrival. The daemon
  // acknowledges before it starts draining, so the shutdown flag is
  // checked once job 2's rejection, which the drain sends, is in hand.
  Client ctl = d.client();
  ctl.shutdown_server(ShutdownMode::kDrain);

  auto f = read_frame(*s2);
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->type, MsgType::kRejected);
  EXPECT_EQ(decode_rejected(f->payload).reason, RejectReason::kDraining);
  EXPECT_TRUE(d.server->wait_shutdown_requested(0));
  d.release_jobs();
  EXPECT_TRUE(await_result(*s1).ok);

  Client late = d.client();
  const auto refused =
      late.run_job(make_submit(in, temp_path("svc_d3.gds")));
  ASSERT_FALSE(refused.accepted);
  EXPECT_EQ(refused.rejected.reason, RejectReason::kDraining);

  d.server->stop();
  // The drained job's output survived the shutdown.
  EXPECT_TRUE(std::filesystem::exists(out1));
}

TEST(ServiceDaemon, AbortCancelsInflightJob) {
  ServerOptions opts;
  opts.workers = 1;
  // The job is held on its worker until the abort has flagged it: were
  // it to finish first (it takes a few ms), nothing would be cancelled.
  DaemonFixture d("svc_abort", std::move(opts), /*hold_jobs=*/true);
  const std::string in = make_input_gds("svc_abort_in.gds", 4, 4);

  auto s1 = connect_unix(d.socket_path);
  write_frame(*s1, MsgType::kSubmit,
              encode_submit(make_submit(in, temp_path("svc_a1.gds"))));
  auto ack = read_frame(*s1);
  ASSERT_TRUE(ack && ack->type == MsgType::kAccepted);
  // The job is in flight once it holds its worker.
  d.wait_held();

  // The daemon acknowledges before it acts on the request; once the
  // shutdown flag is up, the running job's cancel flag is set too (both
  // under the server's lock), and only then is the job let go.
  Client ctl = d.client();
  ctl.shutdown_server(ShutdownMode::kAbort);
  ASSERT_TRUE(d.server->wait_shutdown_requested(10000));
  d.release_jobs();

  const ResultMsg result = await_result(*s1);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.payload.find("cancel"), std::string::npos)
      << result.payload;
  d.server->stop();
}

TEST(ServiceDaemon, CrashResumeReplaysFromLibraryDirByteIdentical) {
  const std::string dir = temp_path("svc_resume_lib");
  const std::string in = make_input_gds("svc_resume_in.gds");
  const std::string out1 = temp_path("svc_r1.gds");
  const std::string out2 = temp_path("svc_r2.gds");

  {
    ServerOptions opts;
    opts.library.dir = dir;
    DaemonFixture d("svc_resume1", std::move(opts));
    Client c = d.client();
    const auto out = c.run_job(make_submit(in, out1));
    ASSERT_TRUE(out.result.ok) << out.result.payload;
    d.server->stop();
  }

  // "Crashed" daemon replaced by a fresh process over the same library
  // directory: the shelf reloads from its fsynced .ocl file and the
  // whole job replays — zero solves, byte-identical output.
  ServerOptions opts;
  opts.library.dir = dir;
  DaemonFixture d2("svc_resume2", std::move(opts));
  Client c2 = d2.client();
  const auto r2 = c2.run_job(make_submit(in, out2));
  ASSERT_TRUE(r2.result.ok) << r2.result.payload;
  EXPECT_NE(r2.result.payload.find("\"opc_runs\":0"), std::string::npos);
  EXPECT_EQ(read_file(out1), read_file(out2));
  d2.server->stop();
}

std::size_t json_count(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key << " in " << json;
  return at == std::string::npos
             ? 0
             : std::stoul(json.substr(at + key.size() + 3));
}

TEST(ServiceDaemon, OneShelfFileAndOneSyncedAppendPerFreshSolve) {
  const std::string dir = temp_path("svc_one_shelf");
  // Placements inside each other's halo: several distinct classes.
  const std::string in =
      make_input_gds("svc_one_shelf_in.gds", 2, 2, {1400, 1800});
  ServerOptions opts;
  opts.library.dir = dir;
  DaemonFixture d("svc_one_shelf", std::move(opts));
  Client c = d.client();
  const trace::MetricsSnapshot before = trace::metrics().snapshot();
  const auto out =
      c.run_job(make_submit(in, temp_path("svc_one_shelf_out.gds")));
  ASSERT_TRUE(out.result.ok) << out.result.payload;
  const trace::MetricsSnapshot delta =
      trace::MetricsSnapshot::delta(before, trace::metrics().snapshot());
  const std::size_t solves = json_count(out.result.payload, "opc_runs");
  ASSERT_GT(solves, 1u);

  // One file for the fingerprint, holding every fresh solve...
  const std::uint64_t fp = opc::flow_fingerprint(fast_flow(), "flat");
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    files.push_back(e.path().string());
  }
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], d.server->library().path_for(fp));
  EXPECT_EQ(d.server->library().size(fp), solves);
  // ...each written with one append and one fsync.
  EXPECT_EQ(delta.counters.at(trace::metric::kStoreRecordsAppended), solves);
  EXPECT_EQ(delta.counters.at(trace::metric::kStoreRecordsSynced), solves);
  d.server->stop();
}

TEST(ServiceDaemon, ShelfWrittenBeforeTheReuseMergeReplays) {
  // tests/data/daemon_flat_shelf.ocl is the shelf a daemon kept for this
  // job before the reuse layers were merged into one file. Placed under
  // its fingerprint, it replays the whole job: zero solves, output
  // byte-identical to the direct run, and the file itself unchanged.
  const std::string dir = temp_path("svc_old_shelf");
  const std::string in = make_input_gds("svc_old_shelf_in.gds");
  const std::string out = temp_path("svc_old_shelf_out.gds");
  const std::string fixture =
      std::string(OPCKIT_TEST_DATA_DIR) + "/daemon_flat_shelf.ocl";
  const std::uint64_t fp = opc::flow_fingerprint(fast_flow(), "flat");
  const std::string shelf = CorrectionLibrary({dir}).path_for(fp);
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(fixture, shelf);

  ServerOptions opts;
  opts.library.dir = dir;
  DaemonFixture d("svc_old_shelf", std::move(opts));
  Client c = d.client();
  const auto r = c.run_job(make_submit(in, out));
  ASSERT_TRUE(r.result.ok) << r.result.payload;
  EXPECT_EQ(json_count(r.result.payload, "opc_runs"), 0u);
  d.server->stop();
  EXPECT_EQ(read_file(out), direct_gds(in, "svc_old_shelf_direct.gds"));
  EXPECT_EQ(read_file(shelf), read_file(fixture));
}

TEST(ServiceDaemon, GarbageBytesEarnTypedErrorAndDaemonSurvives) {
  DaemonFixture d("svc_garbage");

  auto s = connect_unix(d.socket_path);
  // Exactly one header's worth of garbage: the daemon consumes it all
  // before hanging up, so the close is a clean FIN — more garbage would
  // leave unread bytes and turn the close into an RST that can race
  // ahead of the kError frame.
  const char garbage[] = "NOT-A-FRAME!";
  static_assert(sizeof garbage - 1 == kFrameHeaderSize);
  write_all(*s, garbage, sizeof garbage - 1);
  auto reply = read_frame(*s);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kError);
  const ErrorMsg err = decode_error(reply->payload);
  EXPECT_EQ(err.code, static_cast<std::uint16_t>(WireFault::kBadMagic));
  // The daemon hung up on the unparseable stream...
  EXPECT_FALSE(read_frame(*s).has_value());

  // ...but is fully alive for the next client.
  Client c = d.client();
  EXPECT_NO_THROW(c.ping());
  d.server->stop();
}

TEST(ServiceDaemon, BadJobFailsCleanlyAndDaemonSurvives) {
  DaemonFixture d("svc_badjob");
  Client c = d.client();
  const auto outcome = c.run_job(
      make_submit("/nonexistent/input.gds", temp_path("svc_bad_out.gds")));
  ASSERT_TRUE(outcome.accepted);  // path existence is a job-time failure
  EXPECT_FALSE(outcome.result.ok);
  EXPECT_FALSE(outcome.result.payload.empty());
  EXPECT_NO_THROW(c.ping());
  d.server->stop();
}

TEST(ServiceDaemon, TcpTransportWorks) {
  ServerOptions opts;
  opts.use_tcp = true;  // port 0 = ephemeral
  Server server(std::move(opts));
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  const std::string in = make_input_gds("svc_tcp_in.gds");
  Client c(connect_tcp(server.tcp_port()));
  c.ping();
  const auto outcome =
      c.run_job(make_submit(in, temp_path("svc_tcp_out.gds")));
  ASSERT_TRUE(outcome.accepted);
  EXPECT_TRUE(outcome.result.ok) << outcome.result.payload;
  server.stop();
}

TEST(ServiceDaemon, PriorityOrdersQueuedJobs) {
  // Deterministic scheduler probe: job_start_hook blocks the first job
  // on its worker thread, holding the single inflight slot while the
  // low- then high-priority contenders queue behind it. Only once both
  // kAccepted frames are in hand is the gate released, so the queue
  // drains with both jobs present — the recorded start order, not a
  // wall-clock race against job runtime, is the witness that priority
  // won. (The hook also makes the test immune to sanitizer slowdown.)
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::uint64_t> start_order;
  bool released = false;
  ServerOptions opts;
  opts.workers = 1;
  opts.job_start_hook = [&](std::uint64_t id) {
    std::unique_lock<std::mutex> lk(m);
    start_order.push_back(id);
    cv.notify_all();
    cv.wait(lk, [&] { return released; });
  };
  DaemonFixture d("svc_prio", std::move(opts));
  const std::string in = make_input_gds("svc_prio_in.gds");
  const std::string out_lo = temp_path("svc_plo.gds");

  auto s0 = connect_unix(d.socket_path);
  auto lo = connect_unix(d.socket_path);
  auto hi = connect_unix(d.socket_path);
  write_frame(*s0, MsgType::kSubmit,
              encode_submit(make_submit(in, temp_path("svc_p0.gds"), 0)));
  auto a0 = read_frame(*s0);
  ASSERT_TRUE(a0 && a0->type == MsgType::kAccepted);
  {
    // Wait until job 0 actually occupies the slot before queueing the
    // contenders (admission acks before the worker dequeues).
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return !start_order.empty(); });
  }
  write_frame(*lo, MsgType::kSubmit,
              encode_submit(make_submit(in, out_lo, -5)));
  auto alo = read_frame(*lo);
  ASSERT_TRUE(alo && alo->type == MsgType::kAccepted);
  write_frame(*hi, MsgType::kSubmit,
              encode_submit(make_submit(in, temp_path("svc_phi.gds"), 5)));
  auto ahi = read_frame(*hi);
  ASSERT_TRUE(ahi && ahi->type == MsgType::kAccepted);
  {
    std::lock_guard<std::mutex> lk(m);
    released = true;
  }
  cv.notify_all();

  EXPECT_TRUE(await_result(*s0).ok);
  EXPECT_TRUE(await_result(*hi).ok);
  EXPECT_TRUE(await_result(*lo).ok);
  EXPECT_TRUE(std::filesystem::exists(out_lo));

  std::vector<std::uint64_t> order;
  {
    std::lock_guard<std::mutex> lk(m);
    order = start_order;
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], decode_accepted(a0->payload).job_id);
  // Priority +5 starts before -5 despite being submitted after it.
  EXPECT_EQ(order[1], decode_accepted(ahi->payload).job_id);
  EXPECT_EQ(order[2], decode_accepted(alo->payload).job_id);
  d.server->stop();
}

}  // namespace
}  // namespace opckit::svc
