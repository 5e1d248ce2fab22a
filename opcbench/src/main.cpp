/// opcbench — the OPC benchmark driver.
///
///   opcbench --workload <flat_cold|daemon_eco|cell_escalate> --seed N
///            --seconds S --trace <0|1> --work-dir DIR [--commit ID]
///
/// Generates the workload's inputs from the seed, times set-up several
/// times, runs closed-loop jobs for S seconds, checks every output and
/// prints one JSON result object as the last line of standard output
/// (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
/// A report line starting with "# " precedes it with the build, the
/// run's identity and the figures the result object leaves out.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "trace/tracer.h"

namespace opcbench {
namespace {

constexpr int kSetupRuns = 3;

/// What the report keeps of one job.
struct JobRecord {
  std::size_t input = 0;
  bool ok = false;
  double latency_ms = 0.0;
  double wait_ms = 0.0;  ///< latency not spent inside the flow itself
};

/// One measured closed-loop phase.
struct Phase {
  std::vector<JobRecord> jobs;
  double wall_s = 0.0;
  std::size_t failed = 0;
  /// First output per input (kept on disk for scoring) and its hash.
  std::map<std::size_t, std::pair<std::string, std::uint64_t>> first;
  std::string sample_stats_json;  ///< one job's stats rendering
};

/// Run the closed loop in rounds over the schedule: each client takes
/// the next slot, runs it, and repeats. The first round always completes
/// (so the scored input set never depends on speed); later rounds run
/// until \p seconds have passed. Every output is checked against the
/// first output of the same input.
Phase run_phase(Workload& w, double seconds, const std::string& tag,
                const std::string& dir) {
  Phase ph;
  const auto& schedule = w.schedule();
  const bool restart = w.restart_each_round();
  std::mutex mu;
  const auto t0 = Clock::now();
  const auto time_up = [&] { return ms_since(t0) >= seconds * 1000.0; };
  if (!restart) w.begin_phase();
  for (std::size_t round = 0; round == 0 || !time_up(); ++round) {
    if (restart) w.begin_phase();
    const auto r0 = Clock::now();
    std::atomic<std::size_t> next{0};
    const auto client_loop = [&](std::size_t c) {
      for (;;) {
        const std::size_t slot = next.fetch_add(1);
        if (slot >= schedule.size()) return;
        if (!restart && round > 0 && time_up()) return;
        const std::size_t input = schedule[slot];
        // Each client reuses one output file; an input's first output
        // is moved aside for scoring and the anchor comparison.
        const std::string out =
            dir + "/job_" + tag + "_" + std::to_string(c) + ".gds";
        JobResult r;
        {
          trace::Span span("bench.job", static_cast<std::int64_t>(input));
          r = w.run_job(c, w.inputs()[input], out);
        }
        const std::uint64_t hash = r.ok ? file_hash(out) : 0;
        std::lock_guard<std::mutex> lock(mu);
        bool consistent = true;
        if (r.ok) {
          const std::string keep = dir + "/first_" + tag + "_" +
                                   std::to_string(input) + ".gds";
          auto [it, fresh] = ph.first.try_emplace(input, keep, hash);
          if (fresh) std::filesystem::rename(out, keep);
          consistent = it->second.second == hash;
        }
        if (ph.sample_stats_json.empty()) ph.sample_stats_json = r.stats_json;
        if (!r.ok || !consistent) {
          ++ph.failed;
          std::cerr << "opcbench: " << w.inputs()[input].name << " failed: "
                    << (r.ok ? "output differs from an earlier run of the "
                               "same input"
                             : r.error)
                    << '\n';
        }
        ph.jobs.push_back({input, r.ok && consistent, r.latency_ms,
                           r.latency_ms - r.flow_wall_ms});
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < w.clients(); ++c) {
      threads.emplace_back(client_loop, c);
    }
    for (auto& t : threads) t.join();
    ph.wall_s += ms_since(r0) / 1000.0;
    if (restart) w.end_phase();
  }
  if (!restart) w.end_phase();
  return ph;
}

std::vector<double> latencies_s(const Phase& ph) {
  std::vector<double> v;
  for (const JobRecord& r : ph.jobs) {
    if (r.ok) v.push_back(r.latency_ms / 1000.0);
  }
  return v;
}

int usage(const std::string& why) {
  std::cerr << "opcbench: " << why
            << "\nusage: opcbench --workload flat_cold|daemon_eco|"
               "cell_escalate --seed N --seconds S --trace 0|1 --work-dir DIR"
               " [--commit ID]\n";
  return 2;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string render_metrics(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? "," : "") << "\"" << ms[i].name << "\":{\"value\":"
       << num(ms[i].value) << ",\"unit\":\"" << ms[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

/// Unit of a per-layer metric, from its name.
std::string layer_unit(const std::string& name) {
  const auto ends = [&](const char* s) {
    const std::string t(s);
    return name.size() >= t.size() &&
           name.compare(name.size() - t.size(), t.size(), t) == 0;
  };
  if (ends("_us_per_query") || ends("_us")) return "us";
  if (ends("_ms") || ends("_ms_per_call") || ends("_ms_per_solve")) return "ms";
  if (ends("_ratio") || ends("_share") || ends("cost_reduction")) return "ratio";
  if (ends("_bytes")) return "bytes";
  if (name == "core.iters_per_solve" || name == "litho.socs_kernels" ||
      name == "ilt.iterations" ||
      name == "pattern.warm_iters_per_solve" ||
      name == "store.records_loaded" || name == "service.jobs_rejected") {
    return "count";
  }
  return "count/job";
}

}  // namespace
}  // namespace opcbench

int main(int argc, char** argv) {
  using namespace opcbench;
  Options opt;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage("arguments come in --flag value pairs");
  for (const char* need : {"--workload", "--seed", "--seconds", "--trace",
                           "--work-dir"}) {
    if (!args.count(need)) return usage(std::string("missing ") + need);
  }
  opt.workload = args["--workload"];
  opt.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  opt.seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  opt.trace = args["--trace"] == "1";
  opt.work_dir = args["--work-dir"];
  opt.commit = args.count("--commit") ? args["--commit"] : "unknown";
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

#ifndef NDEBUG
  std::cerr << "opcbench: refusing to time an assertion-enabled build "
               "(NDEBUG is not defined; configure with "
               "-DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#endif

  std::unique_ptr<Workload> w = make_workload(opt.workload);
  if (!w) return usage("unknown workload '" + opt.workload + "'");
  std::filesystem::create_directories(opt.work_dir);

  try {
    w->prepare(opt);
    std::vector<double> setups;
    for (int i = 0; i < kSetupRuns; ++i) {
      const auto t0 = Clock::now();
      w->setup();
      setups.push_back(ms_since(t0) / 1000.0);
    }

    std::size_t attempted = 0;
    std::size_t failed = 0;
    const auto account = [&](const Phase& ph) {
      attempted += ph.jobs.size();
      failed += ph.failed;
    };

    // Untraced phase: the whole run, or the first half of a traced run.
    const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    const Phase main_phase = run_phase(*w, untraced_s, "a", opt.work_dir);
    account(main_phase);

    const trace::MetricsSnapshot before_anchor = trace::metrics().snapshot();
    const std::string anchor_out = opt.work_dir + "/anchor.gds";
    const JobResult anchor = w->run_anchor(w->inputs().front(), anchor_out);
    const trace::MetricsSnapshot anchor_delta = trace::MetricsSnapshot::delta(
        before_anchor, trace::metrics().snapshot());
    ++attempted;
    const auto first0 = main_phase.first.find(0);
    const bool anchor_identical =
        anchor.ok && first0 != main_phase.first.end() &&
        file_hash(anchor_out) == first0->second.second;
    if (!anchor_identical) {
      ++failed;
      std::cerr << "opcbench: daemon-vs-direct anchor "
                << (anchor.ok ? "output differs" : "failed: " + anchor.error)
                << '\n';
    }

    std::ostringstream report;
    report << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
           << ",\"commit\":\"" << opt.commit << "\",\"build_type\":\""
           << OPCBENCH_BUILD_TYPE << "\",\"ndebug\":true,\"nproc\":"
           << std::thread::hardware_concurrency()
           << ",\"seconds\":" << num(opt.seconds)
           << ",\"inputs\":" << w->inputs().size()
           << ",\"anchor_identical\":" << (anchor_identical ? "true" : "false");

    std::vector<Metric> metrics;
    const std::vector<double> lat = latencies_s(main_phase);
    const double p50 = median(lat);
    if (!opt.trace) {
      const auto [tail, tail_pct] = tail_with_ten_beyond(lat);
      double area = 0.0;
      for (const JobRecord& r : main_phase.jobs) {
        if (r.ok) area += w->inputs()[r.input].area_um2;
      }
      // Metrology on the first output of every input: the mean over the
      // scored placements of each one's worst edge (the single worst edge
      // of a run swings too much across seeds to bound), RMS over every
      // probe site, per-output means of data volume and errors.
      std::vector<Quality> qualities;
      for (const auto& [idx, first] : main_phase.first) {
        qualities.push_back(score_output(w->inputs()[idx], first.first,
                                         w->spec(), w->metrology_sim()));
      }
      std::vector<double> worst;
      double sum_sq = 0.0, sites = 0.0, vertices = 0.0, errors = 0.0;
      std::size_t violations = 0;
      for (const Quality& q : qualities) {
        worst.insert(worst.end(), q.site_worst_epe_nm.begin(),
                     q.site_worst_epe_nm.end());
        sum_sq += q.sum_sq_epe;
        sites += static_cast<double>(q.sites);
        vertices += static_cast<double>(q.vertices);
        errors += static_cast<double>(q.mrc_errors);
        violations += q.mrc_violations;
      }
      const double outputs = static_cast<double>(qualities.size());
      const double rms = sites > 0 ? std::sqrt(sum_sq / sites) : 0.0;
      metrics = {
          {"setup_s", median(setups), "s"},
          {"job_s_p50", p50, "s"},
          {"job_s_tail", tail, "s"},
          {"chip_um2_per_s", area / main_phase.wall_s, "um2/s"},
          {"max_epe_nm", mean(worst), "nm"},
          {"rms_epe_nm", rms, "nm"},
          {"mask_vertices", vertices / outputs, "count"},
          {"mrc_errors", errors / outputs, "count"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
      };
      report << ",\"jobs\":" << lat.size() << ",\"job_s_tail_percentile\":"
             << num(tail_pct) << ",\"job_s_tail_samples_beyond\":"
             << (lat.size() >= 11 ? 10 : 0)
             << ",\"failed_ratio\":"
             << num(static_cast<double>(failed) /
                    static_cast<double>(attempted))
             << ",\"worst_epe_nm\":"
             << num(quantile(worst, 1.0))
             << ",\"site_worst_epe_p90_nm\":" << num(quantile(worst, 0.9))
             << ",\"mrc_errors_total\":" << num(errors)
             << ",\"mrc_violations_total\":" << violations
             << ",\"scored_inputs\":" << qualities.size()
             << ",\"scored_sites\":" << num(sites);
      std::map<std::string, std::vector<double>> by_kind;
      for (const JobRecord& r : main_phase.jobs) {
        if (r.ok) {
          by_kind[w->inputs()[r.input].kind].push_back(r.latency_ms / 1000.0);
        }
      }
      report << ",\"job_s_p50_by_kind\":{";
      bool first = true;
      for (const auto& [kind, v] : by_kind) {
        report << (first ? "" : ",") << "\"" << kind << "\":" << num(median(v));
        first = false;
      }
      report << "}";
    } else {
      // Traced phase over the second half, from the same starting state.
      trace::Tracer::instance().start();
      const trace::MetricsSnapshot before = trace::metrics().snapshot();
      const Phase traced = run_phase(*w, opt.seconds / 2, "b", opt.work_dir);
      const trace::MetricsSnapshot delta =
          trace::MetricsSnapshot::delta(before, trace::metrics().snapshot());
      account(traced);
      const std::vector<double> traced_lat = latencies_s(traced);

      if (traced.first.empty()) {
        throw std::runtime_error("no job of the traced phase succeeded");
      }
      LayerMetrics layers;
      probe_layers(*w, delta, traced.jobs.size(),
                   traced.first.begin()->second.first,
                   traced.sample_stats_json, opt.work_dir, layers);
      trace::Tracer::instance().stop();
      const std::string trace_json = trace::Tracer::instance().to_json();
      trace::Tracer::instance().write_json(opt.work_dir + "/trace.json");
      const SpanTable spans = span_self_times(trace_json);

      // Service numbers come from the traced daemon jobs when the
      // workload runs through the daemon, else from the anchor job.
      std::vector<double> waits;
      const trace::MetricsSnapshot& svc =
          delta.counters.at(trace::metric::kSvcCacheLookups) > 0 ? delta
                                                                 : anchor_delta;
      if (&svc == &delta) {
        for (const JobRecord& r : traced.jobs) waits.push_back(r.wait_ms);
      } else {
        waits.push_back(anchor.latency_ms - anchor.flow_wall_ms);
      }
      const double n = static_cast<double>(traced.jobs.size());
      layers["service.queue_wait_ms"] = median(waits);
      const auto lookups = static_cast<double>(
          svc.counters.at(trace::metric::kSvcCacheLookups));
      layers["service.cache_hit_ratio"] =
          lookups > 0 ? static_cast<double>(svc.counters.at(
                            trace::metric::kSvcCacheHits)) /
                            lookups
                      : 0.0;
      layers["service.jobs_rejected"] = static_cast<double>(
          delta.counters.at(trace::metric::kSvcJobsRejected) +
          anchor_delta.counters.at(trace::metric::kSvcJobsRejected));
      layers["trace.overhead_ratio"] = median(traced_lat) / p50;

      // Solve-phase attribution: per-call layer times × the phase's call
      // counts, over the solve tiles' summed span time (threads add up).
      const auto span_ms = [&](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.total_ms;
      };
      const double solve_tile_ms = span_ms("flow.solve.tile") / n;
      const double aerial_n = layers["litho.aerial_images"];
      const double blur_n = layers["litho.fft_c2r"];
      const double attributed =
          layers["litho.raster_ms_per_call"] * aerial_n +
          layers["litho.fft_r2c_ms_per_call"] *
              std::max(0.0, layers["litho.fft_r2c"] - blur_n) +
          layers["litho.sparse_inverse_ms_per_call"] *
              layers["litho.fft_batched"] +
          layers["litho.resist_blur_ms_per_call"] * blur_n +
          std::max(0.0, layers["litho.metrology_ms_per_call"] -
                            layers["litho.aerial_ms_per_call"] -
                            layers["litho.resist_blur_ms_per_call"]) *
              aerial_n;
      layers["litho.solve_attributed_share"] =
          solve_tile_ms > 0 ? attributed / solve_tile_ms : 0.0;
      layers["core.flow.solve_tile_ms"] = solve_tile_ms;

      for (const auto& [name, value] : layers) {
        metrics.push_back({name, value, layer_unit(name)});
      }
      report << ",\"traced_jobs\":" << traced.jobs.size()
             << ",\"untraced_jobs\":" << main_phase.jobs.size()
             << ",\"solve_attributed_base_ms_per_job\":" << num(solve_tile_ms)
             << ",\"spans\":{";
      bool first = true;
      for (const auto& [name, t] : spans) {
        report << (first ? "" : ",") << "\"" << name << "\":{\"count\":"
               << t.count << ",\"total_ms\":" << num(t.total_ms)
               << ",\"self_ms\":" << num(t.self_ms) << "}";
        first = false;
      }
      report << "}";
    }
    report << "}";
    std::cout << "# " << report.str() << "\n";
    std::cout << "{\"correct\":" << (failed == 0 ? "true" : "false")
              << ",\"attempted\":" << attempted << ",\"failed\":" << failed
              << ",\"metrics\":" << render_metrics(metrics) << "}"
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "opcbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
