/// T3 — OPC runtime scaling (google-benchmark).
///
/// The operational cost the paper warned design teams about: rule OPC is
/// geometry-bound and scales near-linearly with shape count; model OPC
/// pays an imaging simulation per iteration and is orders of magnitude
/// slower per area. Benchmarked on pseudo-random routed blocks of growing
/// area, plus pattern-catalog extraction as the analysis-side workload.
///
/// The flat-flow sweeps probe the two production levers on top of the
/// per-window cost: thread count (BM_FlatFlowJobs, x-axis = FlowSpec::jobs,
/// wall-clock via UseRealTime; speedup = t(1)/t(N), expect >= 2.5x at 4
/// jobs on >= 4 hardware threads) and pattern reuse (BM_FlatFlowCache,
/// x-axis = cache on/off on a chip of repeated placements; the hit_rate
/// counter reports the fraction of windows replayed). BM_FlatFlowImaging
/// probes the third lever, the imaging engine itself: Abbe reference vs
/// SOCS kernel compression on a production-dense source (solve_ms is the
/// number to compare). Output geometry is byte-identical across every
/// point of the jobs/cache sweeps — that is the flow driver's determinism
/// guarantee, asserted by tests/core_flow_parallel_test.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/opc.h"
#include "layout/layout.h"
#include "litho/litho.h"
#include "pattern/pattern.h"

namespace {

using namespace opckit;

std::vector<geom::Polygon> random_block(geom::Coord side,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  layout::Cell cell("rb");
  layout::RandomBlockSpec spec;
  spec.width = side;
  spec.height = side;
  layout::add_random_block(cell, layout::layers::kMetal1, spec, rng);
  const auto shapes = cell.shapes(layout::layers::kMetal1);
  return {shapes.begin(), shapes.end()};
}

const litho::SimSpec& process() {
  static const litho::SimSpec spec = [] {
    litho::SimSpec s;
    s.optics.source.grid = 5;
    litho::calibrate_threshold(s, 180, 360);
    return s;
  }();
  return spec;
}

void BM_RuleOpc(benchmark::State& state) {
  const auto side = static_cast<geom::Coord>(state.range(0));
  const auto target = random_block(side, 42);
  const opc::RuleDeck deck = opc::default_rule_deck_180();
  for (auto _ : state) {
    benchmark::DoNotOptimize(opc::apply_rule_opc(target, deck));
  }
  state.counters["polygons"] = static_cast<double>(target.size());
  state.SetComplexityN(state.range(0) * state.range(0));
}
BENCHMARK(BM_RuleOpc)->Arg(6000)->Arg(12000)->Arg(24000)->Arg(48000)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_ModelOpc(benchmark::State& state) {
  const auto side = static_cast<geom::Coord>(state.range(0));
  const auto target = random_block(side, 42);
  opc::ModelOpcSpec mspec;
  mspec.max_iterations = 4;  // fixed iteration count isolates scaling
  mspec.epe_tolerance_nm = 0.0;
  const geom::Rect window(0, 0, side, side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opc::run_model_opc(target, process(), window, mspec));
  }
  state.counters["polygons"] = static_cast<double>(target.size());
  state.SetComplexityN(state.range(0) * state.range(0));
}
BENCHMARK(BM_ModelOpc)->Arg(2400)->Arg(3600)->Arg(4800)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->Complexity(benchmark::oN);

void BM_LithoSimulation(benchmark::State& state) {
  const auto side = static_cast<geom::Coord>(state.range(0));
  const auto target = random_block(side, 42);
  const litho::Simulator sim(process(), geom::Rect(0, 0, side, side));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.latent(target));
  }
  state.SetComplexityN(state.range(0) * state.range(0));
}
BENCHMARK(BM_LithoSimulation)->Arg(2400)->Arg(4800)->Arg(9600)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oNLogN);

void BM_PatternCatalog(benchmark::State& state) {
  const auto side = static_cast<geom::Coord>(state.range(0));
  const auto target = random_block(side, 42);
  pat::WindowSpec spec;
  spec.radius = 400;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pat::build_catalog(target, spec));
  }
  state.counters["polygons"] = static_cast<double>(target.size());
  state.SetComplexityN(state.range(0) * state.range(0));
}
BENCHMARK(BM_PatternCatalog)->Arg(6000)->Arg(12000)->Arg(24000)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_GdsiiRoundTrip(benchmark::State& state) {
  const auto side = static_cast<geom::Coord>(state.range(0));
  util::Rng rng(42);
  layout::Library lib("bench");
  layout::Cell& cell = lib.cell("rb");
  layout::RandomBlockSpec spec;
  spec.width = side;
  spec.height = side;
  layout::add_random_block(cell, layout::layers::kMetal1, spec, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout::gdsii_byte_size(lib));
  }
  state.SetComplexityN(state.range(0) * state.range(0));
}
BENCHMARK(BM_GdsiiRoundTrip)->Arg(12000)->Arg(24000)->Arg(48000)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

/// A chip of repeated two-bar leaf placements for the flow sweeps.
layout::Library flow_chip(int cols, int rows, geom::Point pitch) {
  layout::Library lib("bench");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  layout::make_chip(lib, "top", "leaf", cols, rows, pitch);
  return lib;
}

opc::FlowSpec flow_spec() {
  opc::FlowSpec spec;
  spec.sim = process();
  spec.opc.max_iterations = 4;  // fixed iteration count isolates scaling
  spec.opc.epe_tolerance_nm = 0.0;
  // Zero tolerance is deliberately out-of-band (MOD007), so skip the
  // pre-flight gate the production flow would run.
  spec.preflight = false;
  spec.input_layer = layout::layers::kPoly;
  spec.output_layer = layout::layers::kPolyOpc;
  return spec;
}

/// Thread sweep: same chip, jobs = 1/2/4/8, cache off so every placement
/// pays its full simulation cost. Pitch below the halo couples neighbours,
/// the realistic (and cache-hostile) regime.
void BM_FlatFlowJobs(benchmark::State& state) {
  layout::Library lib = flow_chip(4, 4, {1400, 1800});
  opc::FlowSpec spec = flow_spec();
  spec.jobs = static_cast<int>(state.range(0));
  spec.cache = false;
  std::size_t opc_runs = 0;
  opc::FlowStats stats;
  for (auto _ : state) {
    stats = opc::run_flat_opc(lib, "top", spec);
    opc_runs = stats.opc_runs;
    benchmark::DoNotOptimize(stats);
  }
  state.counters["jobs"] = static_cast<double>(spec.jobs);
  state.counters["opc_runs"] = static_cast<double>(opc_runs);
  // Per-phase wall-time breakdown from the flow's embedded metrics
  // snapshot (last iteration): shows WHERE the thread sweep buys time —
  // gather/solve parallelize, resolve/merge stay serial (Amdahl floor).
  const auto& gauges = stats.metrics.gauges;
  state.counters["gather_ms"] =
      gauges.at(trace::metric::kFlowPhaseGatherMs);
  state.counters["resolve_ms"] =
      gauges.at(trace::metric::kFlowPhaseResolveMs);
  state.counters["solve_ms"] = gauges.at(trace::metric::kFlowPhaseSolveMs);
  state.counters["merge_ms"] = gauges.at(trace::metric::kFlowPhaseMergeMs);
}
BENCHMARK(BM_FlatFlowJobs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

/// Cache sweep: placements isolated (pitch > halo) so every window is a
/// translated copy — the repeated-pattern regime AdaOPC exploits. Arg 0 =
/// cache off (seed behavior), Arg 1 = cache on (one solve, rest replay).
void BM_FlatFlowCache(benchmark::State& state) {
  layout::Library lib = flow_chip(4, 4, {4000, 4000});
  opc::FlowSpec spec = flow_spec();
  spec.jobs = 1;
  spec.cache = state.range(0) != 0;
  opc::FlowStats stats;
  for (auto _ : state) {
    stats = opc::run_flat_opc(lib, "top", spec);
    benchmark::DoNotOptimize(stats);
  }
  state.counters["opc_runs"] = static_cast<double>(stats.opc_runs);
  state.counters["cache_hits"] = static_cast<double>(stats.cache_hits);
  const double total = static_cast<double>(stats.tile_simulations.size());
  state.counters["hit_rate"] =
      total == 0.0 ? 0.0 : static_cast<double>(stats.cache_hits) / total;
}
BENCHMARK(BM_FlatFlowCache)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

/// A production-dense illumination (grid 21, ~212 source points) —
/// the regime where SOCS pays: the kept-kernel count saturates toward
/// the continuous-TCC spectrum (~48 at ε = 1e-3) while the Abbe cost
/// keeps growing with the point count. Each spec calibrates under its
/// own engine, as the production flow would.
const litho::SimSpec& dense_process(bool socs) {
  static const litho::SimSpec abbe = [] {
    litho::SimSpec s;
    s.optics.source.grid = 21;
    litho::calibrate_threshold(s, 180, 360);
    return s;
  }();
  static const litho::SimSpec kernelized = [] {
    litho::SimSpec s = abbe;
    s.imaging = litho::ImagingMode::kSocs;
    s.socs_epsilon = 1e-3;  // the production speed setting
    litho::calibrate_threshold(s, 180, 360);
    return s;
  }();
  return socs ? kernelized : abbe;
}

/// Imaging sweep: the same jobs=1 flat flow driven by the Abbe
/// reference (Arg 0) versus SOCS kernel imaging (Arg 1) on the dense
/// source. The solve phase pays one IFFT per source point under Abbe
/// and one per kept kernel under SOCS; kernel eigensolves are one-time
/// costs shared through the process-wide KernelCache and are included
/// in the measured run (cache cleared up front; the kernel_* counters
/// report sets built, kernels kept, and cache hits).
void BM_FlatFlowImaging(benchmark::State& state) {
  const bool socs = state.range(0) != 0;
  layout::Library lib = flow_chip(2, 2, {1400, 1800});
  opc::FlowSpec spec = flow_spec();
  spec.sim = dense_process(socs);
  spec.jobs = 1;
  spec.cache = false;
  litho::KernelCache::instance().clear();
  opc::FlowStats stats;
  for (auto _ : state) {
    stats = opc::run_flat_opc(lib, "top", spec);
    benchmark::DoNotOptimize(stats);
  }
  state.counters["solve_ms"] =
      stats.metrics.gauges.at(trace::metric::kFlowPhaseSolveMs);
  const auto counter = [&](const char* name) {
    const auto it = stats.metrics.counters.find(name);
    return it == stats.metrics.counters.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  state.counters["kernel_sets"] =
      counter(trace::metric::kLithoSocsKernelSetsBuilt);
  state.counters["kernels"] = counter(trace::metric::kLithoSocsKernelsBuilt);
  state.counters["kernel_hits"] =
      counter(trace::metric::kLithoSocsCacheHits);
  // FFT-engine breakdown: where the solve-phase transforms went.
  // plan_builds counts first-touch table constructions and plan_hits
  // later PlanCache lookups (both few: the cached kernel and pupil sets
  // hold their band's plans), fft_batched is the fused sparse
  // inverse+|.|^2 hot path on the band grid (one per kernel or source
  // point per simulation), fft_r2c the mask-spectrum and band-intensity
  // forwards, fft_c2r the frame inverses, and rows_pruned the zero
  // frequency rows the sparse batches skipped.
  state.counters["plan_builds"] = counter(trace::metric::kLithoFftPlanBuilds);
  state.counters["plan_hits"] = counter(trace::metric::kLithoFftPlanHits);
  state.counters["plan_build_ms"] =
      stats.metrics.gauges.count(trace::metric::kLithoFftPlanBuildMs)
          ? stats.metrics.gauges.at(trace::metric::kLithoFftPlanBuildMs)
          : 0.0;
  state.counters["fft_r2c"] = counter(trace::metric::kLithoFftR2cTransforms);
  state.counters["fft_c2r"] = counter(trace::metric::kLithoFftC2rTransforms);
  state.counters["fft_batched"] =
      counter(trace::metric::kLithoFftBatchedTransforms);
  state.counters["fft2d"] = counter(trace::metric::kLithoFft2dTransforms);
  state.counters["rows_pruned"] = counter(trace::metric::kLithoFftRowsPruned);
}
BENCHMARK(BM_FlatFlowImaging)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

/// The repeated-placement chip of the cache sweep, rebuilt from 16
/// individual SREFs so a single placement can be retargeted for the ECO
/// point (an AREF cannot be partially edited). Placement \p eco, if
/// non-negative, references a leaf whose second bar is 40nm wider. Pitch
/// 4000 keeps every placement outside its neighbours' halo, so unedited
/// placements keep their stored optical neighborhood.
layout::Library sref_chip(int eco = -1) {
  layout::Library lib("bench");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  if (eco >= 0) {
    layout::Cell& edited = lib.cell("leaf_eco");
    edited.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
    edited.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 760, 1200));
  }
  layout::Cell& top = lib.cell("top");
  for (int i = 0; i < 16; ++i) {
    layout::CellRef ref;
    ref.child = i == eco ? "leaf_eco" : "leaf";
    ref.transform =
        geom::Transform(geom::Point{(i % 4) * 4000, (i / 4) * 4000});
    top.add_ref(std::move(ref));
  }
  return lib;
}

/// Store sweep: the persistent pattern library across process restarts.
/// Arg 0 = cold run (library written, the one window class solved
/// fresh), Arg 1 = warm resume on the unchanged chip (every window
/// replayed from the library, zero simulations), Arg 2 = incremental ECO
/// resume after widening one bar in 1 of the 16 placements (only the
/// edited placement re-solves; store_hits counts the windows replayed
/// from disk).
void BM_FlatFlowStore(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const std::string path =
      (std::filesystem::temp_directory_path() / "t3_store.ocl").string();
  opc::FlowSpec spec = flow_spec();
  spec.jobs = 1;
  spec.library_path = path;
  std::filesystem::remove(path);
  if (mode != 0) {
    // Warm/ECO resume from a library populated by an untimed cold run.
    layout::Library base = sref_chip();
    opc::run_flat_opc(base, "top", spec);
  }
  opc::FlowStats stats;
  for (auto _ : state) {
    layout::Library lib = sref_chip(mode == 2 ? 5 : -1);
    stats = opc::run_flat_opc(lib, "top", spec);
    benchmark::DoNotOptimize(stats);
  }
  std::filesystem::remove(path);
  state.counters["opc_runs"] = static_cast<double>(stats.opc_runs);
  state.counters["store_hits"] =
      static_cast<double>(stats.library_exact_hits);
  state.counters["appended"] =
      static_cast<double>(stats.library_entries_appended);
}
BENCHMARK(BM_FlatFlowStore)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond)->Iterations(1)->UseRealTime();

}  // namespace

/// Like BENCHMARK_MAIN(), but the machine-readable report is on by
/// default: without an explicit --benchmark_out, results are written to
/// BENCH_t3.json (JSON format) next to the console report, so the CI
/// bench job always leaves a trendable artifact behind.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  static std::string out_flag = "--benchmark_out=BENCH_t3.json";
  static std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
