/// Per-layer probes: each layer's public entry points timed on tiles of
/// the workload itself, plus the counts the program's metric registry
/// recorded during the traced phase.
#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "bench.h"
#include "core/correction_cache.h"
#include "core/fragment.h"
#include "core/model.h"
#include "ilt/ilt.h"
#include "layout/gdsii.h"
#include "litho/fft.h"
#include "litho/raster.h"
#include "litho/resist.h"
#include "litho/simulator.h"
#include "litho/socs.h"
#include "mrc/mrc.h"
#include "pattern/feature.h"
#include "pattern/library.h"
#include "service/protocol.h"
#include "store/result_store.h"
#include "trace/tracer.h"

namespace opcbench {
namespace {

/// Median wall time of one call of \p fn, in ms: at least \p min_reps
/// calls and at least \p min_ms of total work.
double time_ms(const std::function<void()>& fn, int min_reps = 3,
               double min_ms = 40.0) {
  std::vector<double> samples;
  double total = 0.0;
  while (static_cast<int>(samples.size()) < min_reps || total < min_ms) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(ms_since(t0));
    total += samples.back();
    if (samples.size() >= 2000) break;
  }
  return median(samples);
}

double counter(const trace::MetricsSnapshot& d, const char* name) {
  const auto it = d.counters.find(name);
  return it == d.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double gauge(const trace::MetricsSnapshot& d, const char* name) {
  const auto it = d.gauges.find(name);
  return it == d.gauges.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<geom::Polygon> tile_targets(const Tile& t) {
  std::vector<geom::Polygon> all = t.own;
  all.insert(all.end(), t.context.begin(), t.context.end());
  return all;
}

}  // namespace

SpanTable span_self_times(const std::string& json) {
  struct Open {
    std::string name;
    double start_us;
    double child_us = 0.0;
  };
  std::map<int, std::vector<Open>> stacks;
  SpanTable table;
  std::istringstream in(json);
  std::string line;
  const auto field = [&](const std::string& key) -> std::string {
    const std::string k = "\"" + key + "\":";
    const std::size_t at = line.find(k);
    if (at == std::string::npos) return {};
    std::size_t b = at + k.size();
    if (line[b] == '"') {
      const std::size_t e = line.find('"', b + 1);
      return line.substr(b + 1, e - b - 1);
    }
    const std::size_t e = line.find_first_of(",}", b);
    return line.substr(b, e - b);
  };
  while (std::getline(in, line)) {
    const std::string ph = field("ph");
    if (ph != "B" && ph != "E") continue;
    const int tid = std::atoi(field("tid").c_str());
    const double ts = std::strtod(field("ts").c_str(), nullptr);
    std::vector<Open>& stack = stacks[tid];
    if (ph == "B") {
      stack.push_back({field("name"), ts});
      continue;
    }
    if (stack.empty()) continue;
    const Open span = stack.back();
    stack.pop_back();
    const double dur = ts - span.start_us;
    SpanTotals& t = table[span.name];
    t.total_ms += dur / 1000.0;
    t.self_ms += std::max(0.0, dur - span.child_us) / 1000.0;
    ++t.count;
    if (!stack.empty()) stack.back().child_us += dur;
  }
  return table;
}

void probe_layers(const Workload& w, const trace::MetricsSnapshot& d,
                  std::size_t jobs, const std::string& sample_output,
                  const std::string& sample_stats_json,
                  const std::string& work_dir, LayerMetrics& out) {
  namespace m = trace::metric;
  const double n = static_cast<double>(std::max<std::size_t>(1, jobs));
  const opc::FlowSpec& spec = w.spec();
  const litho::SimSpec sim = w.metrology_sim();
  const Input& input = w.inputs().front();
  const Tile& tile = input.score_sites.front();
  const std::vector<geom::Polygon> targets = tile_targets(tile);
  const geom::Region region = geom::Region::from_polygons(targets);

  // ---- core: flow phases and counts from the registry --------------------
  const double tiles = counter(d, m::kFlowTilesMerged);
  const double solves = counter(d, m::kFlowOpcRuns);
  const double sims = counter(d, m::kFlowSimulations);
  out["core.flow.gather_ms"] = gauge(d, m::kFlowPhaseGatherMs) / n;
  out["core.flow.resolve_ms"] = gauge(d, m::kFlowPhaseResolveMs) / n;
  out["core.flow.solve_ms"] = gauge(d, m::kFlowPhaseSolveMs) / n;
  out["core.flow.merge_ms"] = gauge(d, m::kFlowPhaseMergeMs) / n;
  out["core.flow.mrc_ms"] = gauge(d, m::kFlowPhaseMrcMs) / n;
  out["core.tiles"] = tiles / n;
  out["core.solves"] = solves / n;
  out["core.simulations"] = sims / n;
  out["core.iters_per_solve"] = ratio(sims, solves);
  out["core.cache_hit_ratio"] = ratio(counter(d, m::kCacheHits), tiles);
  {
    trace::Span span("bench.probe.core.model_opc");
    out["core.model_opc_ms_per_solve"] = time_ms(
        [&] { (void)opc::run_model_opc(targets, sim, tile.window, spec.opc); },
        1, 0.0);
  }

  // ---- litho: one call of each imaging stage at the workload's frame ----
  const litho::Simulator simulator(sim, tile.window);
  const litho::Frame& frame = simulator.frame();
  const litho::Fft2d fft(frame.nx, frame.ny);
  litho::Image mask_img(frame);
  litho::rasterize(region, mask_img);
  std::vector<litho::Complex> spectrum;
  fft.forward_real(mask_img.values(), spectrum);
  {
    trace::Span span("bench.probe.litho.kernel_build");
    litho::KernelCache::instance().clear();
    const auto t0 = Clock::now();
    (void)litho::KernelCache::instance().get(
        sim.optics, frame, 0.0, sim.mask,
        litho::SocsOptions{sim.socs_epsilon});
    out["litho.kernel_build_ms"] = ms_since(t0);
  }
  const auto set = litho::KernelCache::instance().get(
      sim.optics, frame, 0.0, sim.mask, litho::SocsOptions{sim.socs_epsilon});
  out["litho.socs_kernels"] = static_cast<double>(set->kernels.size());
  const litho::SparseInverseBatch batch(fft, set->support);
  {
    trace::Span span("bench.probe.litho.raster");
    out["litho.raster_ms_per_call"] =
        time_ms([&] { (void)litho::rasterize(region, frame); });
  }
  {
    trace::Span span("bench.probe.litho.fft_r2c");
    std::vector<litho::Complex> tmp;
    out["litho.fft_r2c_ms_per_call"] =
        time_ms([&] { fft.forward_real(mask_img.values(), tmp); });
  }
  {
    trace::Span span("bench.probe.litho.sparse_inverse");
    std::vector<double> tmp;
    out["litho.sparse_inverse_ms_per_call"] = time_ms([&] {
      batch.inverse_mag2(spectrum.data(), set->kernels.front().value, tmp);
    });
  }
  {
    trace::Span span("bench.probe.litho.resist_blur");
    out["litho.resist_blur_ms_per_call"] = time_ms(
        [&] { (void)litho::gaussian_blur(mask_img, sim.resist.diffusion_nm); });
  }
  {
    trace::Span span("bench.probe.litho.aerial");
    out["litho.aerial_ms_per_call"] =
        time_ms([&] { (void)simulator.aerial(region); });
  }
  const std::vector<geom::Polygon> own = opc::merge_targets(tile.own);
  const auto frags = opc::fragment_polygons(own, spec.opc.fragmentation);
  {
    trace::Span span("bench.probe.litho.metrology");
    out["litho.metrology_ms_per_call"] = time_ms([&] {
      (void)opc::measure_fragment_epe(own, frags, targets, sim, tile.window,
                                      spec.opc.probe_range_nm);
    });
  }
  const double batched = counter(d, m::kLithoFftBatchedTransforms);
  out["litho.aerial_images"] = counter(d, m::kLithoAerialImages) / n;
  out["litho.fft_batched"] = batched / n;
  out["litho.fft_r2c"] = counter(d, m::kLithoFftR2cTransforms) / n;
  out["litho.fft_c2r"] = counter(d, m::kLithoFftC2rTransforms) / n;
  out["litho.rows_pruned_ratio"] =
      ratio(counter(d, m::kLithoFftRowsPruned),
            batched * static_cast<double>(frame.ny));

  // ---- ilt: adjoint gradient and legalization on the same tile ----------
  {
    const ilt::PixelProblem problem(targets, sim, tile.window, spec.ilt);
    std::vector<double> grad;
    {
      trace::Span span("bench.probe.ilt.gradient");
      out["ilt.gradient_ms_per_call"] = time_ms(
          [&] { (void)problem.cost_and_gradient(problem.initial(), grad); });
    }
    litho::Image coverage(problem.frame());
    coverage.values() = problem.initial();
    trace::Span span("bench.probe.ilt.legalize");
    out["ilt.legalize_ms_per_call"] = time_ms(
        [&] { (void)ilt::legalize_mask(coverage, tile.window, spec.ilt); });
  }
  out["ilt.tiles"] = counter(d, m::kIltRuns) / n;
  out["ilt.escalation_ratio"] = ratio(counter(d, m::kIltEscalations), solves);
  // Per-ILT-run medians from the registry's histograms.
  const auto hist_median = [&](const char* name) {
    const auto it = d.histograms.find(name);
    return it != d.histograms.end() && it->second.total() > 0
               ? it->second.quantile(0.5)
               : 0.0;
  };
  out["ilt.iterations"] = hist_median(m::kIltIterations);
  out["ilt.cost_reduction"] = hist_median(m::kIltCostReduction);

  // ---- pattern + store: the daemon's shelf files -------------------------
  const double near_hits = counter(d, m::kPatLibraryNearHits);
  out["pattern.exact_hits"] = counter(d, m::kPatLibraryExactHits) / n;
  out["pattern.near_hits"] = near_hits / n;
  out["pattern.warm_iters_per_solve"] =
      ratio(counter(d, m::kPatLibraryWarmIterations), near_hits);
  out["store.records_appended"] = counter(d, m::kStoreRecordsAppended) / n;
  const LibraryFiles& files = w.library_files();
  {
    trace::Span span("bench.probe.store.load");
    std::size_t records = 0;
    out["store.load_ms"] = time_ms([&] {
      records = store::ResultStore::load(files.ocs, files.fingerprint)
                    .records.size();
    });
    out["store.records_loaded"] = static_cast<double>(records);
  }
  {
    std::vector<pat::PatternFeature> queries;
    for (const Input& in : w.inputs()) {
      for (const Tile& t : in.score_sites) {
        const auto key = opc::CorrectionCache::make_key(
            tile_targets(t), geom::Region::from_polygons(t.own), t.window);
        queries.push_back(pat::feature_of(key.window.rects));
      }
    }
    pat::PatternLibrary lib;
    {
      trace::Span span("bench.probe.pattern.load");
      out["pattern.library_load_ms"] = time_ms([&] {
        lib = pat::PatternLibrary::open(files.ocl, files.fingerprint,
                                        /*sync_on_append=*/false);
      });
    }
    trace::Span span("bench.probe.pattern.nearest");
    const double budget = spec.library_budget > 0.0 ? spec.library_budget : 0.1;
    out["pattern.nearest_us_per_query"] =
        1000.0 * time_ms([&] {
          for (const auto& q : queries) (void)lib.nearest(q, budget);
        }) / static_cast<double>(queries.size());
  }

  // ---- service: wire protocol round trip of a real submit/result pair ---
  {
    svc::SubmitMsg submit;
    submit.in_path = input.gds_path;
    submit.out_path = sample_output;
    submit.spec = spec;
    svc::ResultMsg result;
    result.ok = true;
    result.payload = sample_stats_json;
    trace::Span span("bench.probe.service.frame");
    out["service.frame_us"] = 1000.0 * time_ms([&] {
      (void)svc::decode_submit(svc::encode_submit(submit));
      (void)svc::decode_result(svc::encode_result(result));
    });
  }

  // ---- mrc + layout on the sample output ---------------------------------
  out["mrc.violations"] = counter(d, m::kMrcViolations) / n;
  {
    layout::Library lib;
    {
      trace::Span span("bench.probe.layout.gds_read");
      out["layout.gds_read_ms"] =
          time_ms([&] { lib = layout::read_gdsii_file(sample_output); });
    }
    std::vector<geom::Polygon> mask;
    {
      trace::Span span("bench.probe.layout.flatten");
      out["layout.flatten_ms"] = time_ms(
          [&] { mask = lib.flatten(input.top, spec.output_layer); });
    }
    {
      trace::Span span("bench.probe.layout.gds_write");
      const std::string path = work_dir + "/probe_write.gds";
      out["layout.gds_write_ms"] =
          time_ms([&] { layout::write_gdsii_file(lib, path); });
    }
    out["layout.gds_bytes"] = static_cast<double>(file_size(sample_output));
    trace::Span span("bench.probe.mrc.check");
    const mrc::Deck deck = mrc::mask_deck_180();
    out["mrc.check_ms"] =
        time_ms([&] { (void)mrc::check_polygons(mask, deck); });
  }
}

}  // namespace opcbench
