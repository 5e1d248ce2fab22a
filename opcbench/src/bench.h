/// \file bench.h
/// Shared types of the OPC benchmark driver (see ../README.md).
///
/// A workload turns a seed into a pool of input chips (GDSII files plus
/// the drawn intent the benchmark scores against), knows how to set
/// itself up (calibration, kernels, daemon boot, shelf load) and how to
/// run one job: one chip taken from its input file to a corrected,
/// written mask. The driver in main.cpp owns the closed loop, the
/// timing, the output checks and the report.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/flow.h"
#include "geometry/geometry.h"
#include "trace/metrics.h"

namespace opcbench {

using namespace opckit;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0);

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory for inputs/outputs
  std::string commit;    ///< source identity supplied by the runner
};

/// One correction tile as the flow sees it: own shapes, optical context
/// within the halo, and the window being corrected. Used by the
/// per-layer probes and by the benchmark's own metrology.
struct Tile {
  std::vector<geom::Polygon> own;      ///< drawn shapes being corrected
  std::vector<geom::Polygon> context;  ///< drawn neighbours within the halo
  geom::Rect window = geom::Rect::empty();
};

/// One generated input chip.
struct Input {
  std::string name;
  std::string gds_path;
  std::string top = "top";
  std::uint8_t flow = 0;   ///< 0 = flat, 1 = cell
  double area_um2 = 0.0;   ///< drawn chip bounding-box area
  /// Placements scored by the benchmark's metrology (one per distinct
  /// optical situation; identical isolated placements are scored once).
  std::vector<Tile> score_sites;
  std::string kind;  ///< workload-defined job kind (report only)
};

/// What one job produced.
struct JobResult {
  bool ok = false;
  std::string error;
  double latency_ms = 0.0;   ///< client-side steady-clock job time
  double flow_wall_ms = 0.0; ///< the flow's own wall_ms
  std::string out_path;
  std::string stats_json;    ///< render_stats_json of the run
};

/// The durable shelf files (.ocs records, .ocl pattern index) a daemon
/// wrote for the workload's flow fingerprint.
struct LibraryFiles {
  std::string ocs;
  std::string ocl;
  std::uint64_t fingerprint = 0;
};

/// Quality of one output mask under the benchmark's own metrology.
struct Quality {
  std::vector<double> site_worst_epe_nm;  ///< worst |EPE| per scored site
  double sum_sq_epe = 0.0;
  std::size_t sites = 0;
  std::size_t vertices = 0;
  std::size_t mrc_errors = 0;
  std::size_t mrc_violations = 0;  ///< all severities
};

/// Per-layer numbers gathered by a traced run. Keys are the metric
/// names of BENCHMARK.json's per_layer list.
using LayerMetrics = std::map<std::string, double>;

/// A benchmark workload. The defaults describe a direct workload: one
/// caller running the flow in-process, anchored against a daemon.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate the seeded input pool and write it to disk (untimed).
  virtual void prepare(const Options& opt) = 0;
  /// One timed set-up: everything a cold process pays before its first
  /// job. Called several times; the last call leaves the workload ready.
  virtual void setup() = 0;
  /// Re-arm stateful reuse layers before a round of the schedule (the
  /// daemon workload restores its warm library and reboots the daemon).
  virtual void begin_phase() {}
  virtual void end_phase() {}
  /// True: every round of the schedule starts from begin_phase(), so
  /// all rounds serve the same stream from the same state. False: one
  /// begin_phase() per measured phase and the loop may stop mid-round.
  virtual bool restart_each_round() const { return false; }
  /// Run one job on \p input from closed-loop client \p client
  /// (default: the flow in-process).
  virtual JobResult run_job(std::size_t client, const Input& input,
                            const std::string& out_path);
  /// Concurrent closed-loop callers.
  virtual std::size_t clients() const { return 1; }
  /// Byte-identity anchor: run \p input through the other path (default:
  /// a short-lived daemon; the daemon workload runs the direct flow) and
  /// write it to \p out_path.
  virtual JobResult run_anchor(const Input& input,
                               const std::string& out_path);
  /// Shelf files of the workload's daemon (for the direct workloads the
  /// anchor daemon's, valid after run_anchor).
  virtual const LibraryFiles& library_files() const { return files_; }

  /// Order in which the callers draw inputs (indices into inputs()).
  const std::vector<std::size_t>& schedule() const { return schedule_; }
  const std::vector<Input>& inputs() const { return inputs_; }
  /// The flow spec jobs run with.
  const opc::FlowSpec& spec() const { return spec_; }
  /// The imaging spec the flow simulates tiles with (the flat flow widens
  /// the guard band to the halo), used by metrology and the probes.
  litho::SimSpec metrology_sim() const;

 protected:
  std::string dir_;
  opc::FlowSpec spec_;
  std::vector<Input> inputs_;
  std::vector<std::size_t> schedule_;
  mutable LibraryFiles files_;
};

std::unique_ptr<Workload> make_workload(const std::string& name);

// ---- common.cpp -------------------------------------------------------

/// The imaging process every workload calibrates: KrF 248 nm, NA 0.68,
/// annular 0.5/0.8 on a dense (grid 21) source, SOCS imaging at
/// relative-eigenvalue cutoff \p epsilon on a \p pixel_nm raster, resist
/// threshold anchored on 180 nm lines at 360 nm pitch.
litho::SimSpec calibrated_socs_process(double epsilon, double pixel_nm);

/// Build the kernel set and FFT plans for the frame \p window maps to
/// (what the first simulation of a cold process would pay).
void prime_imaging(const litho::SimSpec& sim, const geom::Rect& window);

/// Drop every process-wide imaging cache (kernel sets, FFT plans).
void clear_imaging_caches();

std::uint64_t file_hash(const std::string& path);
std::size_t file_size(const std::string& path);
double peak_rss_mb();

/// Score \p lib's output layer against the drawn intent at every
/// scoring site of \p input: fragment the drawn shapes, probe each
/// run/line-end site on the simulated output (corners excluded, a lost
/// edge counts as the full probe range), count output vertices and
/// mask_deck_180 violations (errors = every rule but the warning-level
/// jog rule).
Quality score_output(const Input& input, const std::string& out_path,
                     const opc::FlowSpec& spec,
                     const litho::SimSpec& metrology_sim);

/// Mean, median and linearly interpolated quantile \p q in [0, 1] of a
/// sample.
double mean(const std::vector<double>& v);
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);
/// The highest-ranked sample with at least ten samples above it, and the
/// percentile that rank corresponds to. Returns {max, 100} when fewer
/// than eleven samples exist.
std::pair<double, double> tail_with_ten_beyond(std::vector<double> v);

/// Fixed-precision-free JSON number rendering.
std::string num(double v);

// ---- probes.cpp -------------------------------------------------------

/// Self time per span name (span duration minus the time covered by its
/// direct children on the same thread) from a Chrome trace JSON string.
struct SpanTotals {
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::size_t count = 0;
};
using SpanTable = std::map<std::string, SpanTotals>;
SpanTable span_self_times(const std::string& json);

/// Time each layer's public entry points on tiles of the workload (each
/// call inside a benchmark-side span) and derive the per-layer metrics
/// from \p delta, the registry delta of the traced phase, which ran
/// \p jobs jobs. \p sample_output / \p sample_stats_json are one job's
/// output GDSII and stats rendering.
void probe_layers(const Workload& w, const trace::MetricsSnapshot& delta,
                  std::size_t jobs, const std::string& sample_output,
                  const std::string& sample_stats_json,
                  const std::string& work_dir, LayerMetrics& out);

}  // namespace opcbench
