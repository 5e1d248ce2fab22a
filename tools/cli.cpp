#include "cli.h"

#include <algorithm>
#include <csignal>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "core/opc.h"
#include "core/deck_io.h"
#include "drc/drc.h"
#include "layout/layout.h"
#include "lint/lint.h"
#include "litho/litho.h"
#include "mrc/mrc.h"
#include "pattern/pattern.h"
#include "service/client.h"
#include "service/server.h"
#include "service/socket.h"
#include "trace/trace.h"
#include "util/strings.h"
#include "util/table.h"

namespace opckit::cli {

namespace {

/// True if the space-separated option list \p list names \p key.
bool lists(const std::string& list, const std::string& key) {
  return key.find(' ') == std::string::npos &&
         (' ' + list + ' ').find(' ' + key + ' ') != std::string::npos;
}

/// Minimal option parser: --key value pairs plus boolean --flags. Only
/// the options named in \p known (space-separated) are accepted, so a
/// mistyped or retired option is refused by name instead of silently
/// ignored.
class Options {
 public:
  Options(const std::vector<std::string>& args, std::size_t begin,
          const std::string& known) {
    for (std::size_t i = begin; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (!util::starts_with(a, "--")) {
        throw util::InputError("unexpected argument: " + a);
      }
      const std::string key = a.substr(2);
      if (!lists(known, key)) {
        throw util::InputError("unknown option --" + key + " for opckit " +
                               args[0]);
      }
      if (i + 1 < args.size() && !util::starts_with(args[i + 1], "--")) {
        values_[key] = args[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  /// The options given, in name order.
  std::vector<std::string> names() const {
    std::vector<std::string> keys;
    for (const auto& [key, value] : values_) keys.push_back(key);
    return keys;
  }

  std::string require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) {
      throw util::InputError("missing required option --" + key);
    }
    return it->second;
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() || it->second.empty() ? fallback
                                                     : it->second;
  }

  long long get_int(const std::string& key, long long fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) return fallback;
    try {
      std::size_t used = 0;
      const long long v = std::stoll(it->second, &used);
      if (used != it->second.size()) throw std::invalid_argument(key);
      return v;
    } catch (const std::exception&) {
      throw util::InputError("--" + key + " expects an integer, got: " +
                             it->second);
    }
  }

  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) return fallback;
    try {
      std::size_t used = 0;
      const double v = std::stod(it->second, &used);
      if (used != it->second.size()) throw std::invalid_argument(key);
      return v;
    } catch (const std::exception&) {
      throw util::InputError("--" + key + " expects a number, got: " +
                             it->second);
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

layout::Layer parse_layer(const std::string& spec) {
  const auto parts = util::split(spec, '/');
  if (parts.size() != 2) {
    throw util::InputError("layer must be LAYER/DATATYPE, got: " + spec);
  }
  return layout::Layer{static_cast<std::uint16_t>(std::stoi(parts[0])),
                       static_cast<std::uint16_t>(std::stoi(parts[1]))};
}

std::string pick_cell(const layout::Library& lib, const Options& opts) {
  if (opts.has("cell")) return opts.require("cell");
  const auto tops = lib.top_cells();
  if (tops.size() != 1) {
    throw util::InputError(
        "library has " + std::to_string(tops.size()) +
        " top cells; pick one with --cell");
  }
  return tops.front();
}

int cmd_stats(const Options& opts, std::ostream& out) {
  const layout::Library lib = layout::read_gdsii_file(opts.require("in"));
  lib.validate();
  const std::string top = pick_cell(lib, opts);
  const layout::HierarchyStats s = lib.stats(top);

  util::Table t({"metric", "value"});
  t.add_row(std::string("library"), lib.name());
  t.add_row(std::string("top_cell"), top);
  t.add_row(std::string("distinct_cells"), s.distinct_cells);
  t.add_row(std::string("placements"), static_cast<long long>(s.placements));
  t.add_row(std::string("stored_polygons"), s.local_polygons);
  t.add_row(std::string("stored_vertices"), s.local_vertices);
  t.add_row(std::string("flat_polygons"),
            static_cast<long long>(s.flat_polygons));
  t.add_row(std::string("flat_vertices"),
            static_cast<long long>(s.flat_vertices));
  t.add_row(std::string("hierarchy_depth"),
            static_cast<long long>(s.depth));
  t.add_row(std::string("hierarchy_leverage"), s.hierarchy_leverage());
  t.add_row(std::string("gdsii_bytes"), layout::gdsii_byte_size(lib));
  out << t.to_text("opckit stats");
  return 0;
}

int cmd_drc(const Options& opts, std::ostream& out) {
  const layout::Library lib = layout::read_gdsii_file(opts.require("in"));
  const std::string top = pick_cell(lib, opts);
  const layout::Layer layer = parse_layer(opts.require("layer"));
  const auto polys = lib.flatten(top, layer);
  const geom::Region region = geom::Region::from_polygons(polys);

  std::vector<drc::Rule> deck;
  const long long w = opts.get_int("min-width", 0);
  const long long s = opts.get_int("min-space", 0);
  if (w > 0) {
    deck.push_back({drc::RuleKind::kMinWidth,
                    "width." + std::to_string(w), w});
  }
  if (s > 0) {
    deck.push_back({drc::RuleKind::kMinSpace,
                    "space." + std::to_string(s), s});
  }
  if (deck.empty()) {
    throw util::InputError("give at least one of --min-width / --min-space");
  }
  const drc::DrcReport report = drc::run_deck(region, deck);

  util::Table t({"rule", "violations"});
  for (const auto& rule : deck) {
    t.add_row(rule.name, report.count(rule.name));
  }
  out << t.to_text("opckit drc (" + std::to_string(polys.size()) +
                   " polygons)");
  for (const auto& v : report.violations) {
    out << "  " << v.rule << " at " << v.bbox << '\n';
  }
  return report.clean() ? 0 : 1;
}

/// Build an MRC deck from CLI options: --deck FILE (the literal
/// "default" = the built-in 180nm mask deck) or one --min-* flag per
/// check kind. Empty when neither is given.
mrc::Deck mrc_deck_from_options(const Options& opts, const char* deck_key) {
  if (opts.has(deck_key)) {
    const std::string path = opts.require(deck_key);
    return path == "default" ? mrc::mask_deck_180()
                             : mrc::read_deck_file(path);
  }
  mrc::Deck deck;
  const auto add = [&](const char* key, mrc::CheckKind kind) {
    const long long v = opts.get_int(key, 0);
    if (v > 0) {
      deck.push_back({kind,
                      std::string("mrc.") + mrc::to_string(kind) + "." +
                          std::to_string(v),
                      static_cast<geom::Coord>(v)});
    }
  };
  add("min-width", mrc::CheckKind::kWidth);
  add("min-space", mrc::CheckKind::kSpace);
  add("min-edge", mrc::CheckKind::kEdgeLength);
  add("min-notch", mrc::CheckKind::kNotch);
  add("min-jog", mrc::CheckKind::kJog);
  add("min-corner", mrc::CheckKind::kCorner);
  add("min-area", mrc::CheckKind::kArea);
  return deck;
}

int cmd_mrc(const Options& opts, std::ostream& out) {
  const layout::Library lib = layout::read_gdsii_file(opts.require("in"));
  const std::string top = pick_cell(lib, opts);
  const layout::Layer layer = parse_layer(opts.require("layer"));
  const auto polys = lib.flatten(top, layer);
  const mrc::Deck deck = mrc_deck_from_options(opts, "deck");
  if (deck.empty()) {
    throw util::InputError(
        "give --deck FILE (or --deck default) or at least one --min-* "
        "rule");
  }
  const mrc::MrcReport report = mrc::check_polygons(polys, deck);

  util::Table t({"rule", "code", "violations"});
  for (const auto& check : deck) {
    t.add_row(check.name, std::string(mrc::lint_code(check.kind)),
              report.count(check.name));
  }
  out << t.to_text("opckit mrc (" + std::to_string(polys.size()) +
                   " polygons)");
  for (const auto& v : report.violations) {
    out << "  " << v.rule << ' ' << mrc::lint_code(v.kind) << " at "
        << v.marker << ": measured " << v.distance << " between " << v.e1
        << " and " << v.e2 << '\n';
  }
  // Exit like the flow gate: error-severity findings fail; jog
  // (MRC005) warnings alone are advisory.
  return mrc::to_lint_report(report).clean() ? 0 : 1;
}

/// Part of build_flow_spec: parse --engine and the --ilt-* knobs into
/// the spec.
void apply_engine_options(const Options& opts, opc::FlowSpec& spec) {
  const std::string engine = opts.get("engine", "model");
  if (engine == "model") {
    spec.engine = opc::CorrectionEngine::kModel;
  } else if (engine == "ilt") {
    spec.engine = opc::CorrectionEngine::kIlt;
  } else if (engine == "escalate") {
    spec.engine = opc::CorrectionEngine::kEscalate;
  } else {
    throw util::InputError("unknown --engine (use model, ilt or escalate): " +
                           engine);
  }
  if (spec.engine == opc::CorrectionEngine::kModel) {
    for (const char* key : {"ilt-iterations", "ilt-step", "ilt-steepness",
                            "ilt-edge-weight", "ilt-edge-band",
                            "ilt-escalate-epe"}) {
      if (opts.has(key)) {
        throw util::InputError(std::string("--") + key +
                               " requires --engine ilt|escalate");
      }
    }
    return;
  }
  spec.ilt.max_iterations =
      static_cast<int>(opts.get_int("ilt-iterations", spec.ilt.max_iterations));
  if (spec.ilt.max_iterations < 1) {
    throw util::InputError("--ilt-iterations must be >= 1");
  }
  spec.ilt.step = opts.get_double("ilt-step", spec.ilt.step);
  spec.ilt.sigmoid_steepness =
      opts.get_double("ilt-steepness", spec.ilt.sigmoid_steepness);
  spec.ilt.edge_weight =
      opts.get_double("ilt-edge-weight", spec.ilt.edge_weight);
  spec.ilt.edge_band_nm =
      opts.get_double("ilt-edge-band", spec.ilt.edge_band_nm);
  if (!(spec.ilt.step > 0.0) || !(spec.ilt.sigmoid_steepness > 0.0) ||
      !(spec.ilt.edge_weight >= 0.0) || !(spec.ilt.edge_band_nm >= 0.0)) {
    throw util::InputError("--ilt-step/--ilt-steepness must be > 0 and "
                           "--ilt-edge-weight/--ilt-edge-band >= 0");
  }
  if (opts.has("ilt-escalate-epe") &&
      spec.engine != opc::CorrectionEngine::kEscalate) {
    throw util::InputError("--ilt-escalate-epe requires --engine escalate");
  }
  spec.ilt_escalation_epe_nm =
      opts.get_double("ilt-escalate-epe", spec.ilt_escalation_epe_nm);
  if (!(spec.ilt_escalation_epe_nm >= 0.0)) {
    throw util::InputError("--ilt-escalate-epe must be >= 0");
  }
}

/// The process of --imaging/--socs-epsilon, its resist threshold
/// calibrated at --anchor-cd/--anchor-pitch. The imaging engine is set
/// first, so calibration and the production runs use the same engine.
litho::SimSpec calibrated_process(const Options& opts) {
  const std::string imaging = opts.get("imaging", "abbe");
  if (imaging != "abbe" && imaging != "socs") {
    throw util::InputError("unknown --imaging (use abbe or socs): " +
                           imaging);
  }
  litho::SimSpec sim;
  sim.imaging = imaging == "socs" ? litho::ImagingMode::kSocs
                                  : litho::ImagingMode::kAbbe;
  sim.socs_epsilon = opts.get_double("socs-epsilon", sim.socs_epsilon);
  litho::calibrate_threshold(
      sim, static_cast<geom::Coord>(opts.get_int("anchor-cd", 180)),
      static_cast<geom::Coord>(opts.get_int("anchor-pitch", 360)));
  return sim;
}

/// Integer option \p key (\p fallback when absent), refused outside
/// [lo, hi] before the caller narrows it, so a value past the narrow
/// type cannot wrap into range: a --jobs past int sizing a pool, a
/// --tcp past 65535 naming another port, a --max-queue of -1 becoming
/// an unbounded queue.
long long bounded_int(const Options& opts, const std::string& key,
                      long long fallback, long long lo, long long hi) {
  const long long v = opts.get_int(key, fallback);
  if (v < lo || v > hi) {
    throw util::InputError("--" + key + " " + std::to_string(v) +
                           " is outside [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + "]");
  }
  return v;
}

/// --jobs as a worker count (opc's flows and serve).
int jobs_option(const Options& opts, long long fallback) {
  return static_cast<int>(
      bounded_int(opts, "jobs", fallback, 0, opc::kMaxJobs));
}

/// --tcp as a loopback port (serve and the client commands).
std::uint16_t tcp_option(const Options& opts) {
  return static_cast<std::uint16_t>(bounded_int(
      opts, "tcp", 0, 0, std::numeric_limits<std::uint16_t>::max()));
}

/// The options build_flow_spec() reads; opc and submit both take them.
constexpr const char* kFlowSpecOptions =
    "layer no-cache imaging socs-epsilon anchor-cd anchor-pitch engine "
    "ilt-iterations ilt-step ilt-steepness ilt-edge-weight ilt-edge-band "
    "ilt-escalate-epe library-budget mrc-deck mrc-action";

/// The FlowSpec of `opc --flow flat|cell` and of `submit`, validated the
/// same way for both, so a daemon job and a single-process run of the
/// same options share one spec — one fingerprint, byte-identical output.
/// The library file (--library) and the worker count (--jobs) are
/// cmd_opc's to add; the daemon owns both for submit.
opc::FlowSpec build_flow_spec(const Options& opts) {
  const std::string mrc_action = opts.get("mrc-action", "fail");
  if (mrc_action != "fail" && mrc_action != "warn") {
    throw util::InputError("unknown --mrc-action (use fail or warn): " +
                           mrc_action);
  }
  if (opts.has("mrc-action") && !opts.has("mrc-deck")) {
    throw util::InputError("--mrc-action requires --mrc-deck FILE|default");
  }
  opc::FlowSpec spec;
  spec.sim = calibrated_process(opts);
  spec.input_layer = parse_layer(opts.require("layer"));
  spec.output_layer = layout::Layer{
      spec.input_layer.layer,
      static_cast<std::uint16_t>(spec.input_layer.datatype + 1)};
  spec.cache = !opts.has("no-cache");
  apply_engine_options(opts, spec);
  // The near-match budget is fingerprint-mixed, so it rides with the
  // spec; the library file is --library (opc) or the daemon's.
  spec.library_budget = opts.get_double("library-budget", 0.0);
  if (!(spec.library_budget >= 0.0)) {
    throw util::InputError("--library-budget must be >= 0");
  }
  if (opts.has("mrc-deck")) {
    const std::string deck = opts.require("mrc-deck");
    spec.mrc_deck = deck == "default" ? mrc::mask_deck_180()
                                      : mrc::read_deck_file(deck);
    spec.mrc_action =
        mrc_action == "warn" ? mrc::Action::kWarn : mrc::Action::kFail;
  }
  return spec;
}

/// The options every `opckit opc` run reads.
constexpr const char* kOpcOptions = "in out cell layer mode flow";

/// The options each way of running `opckit opc` reads beyond
/// kOpcOptions: the one table its refusals and its accepted options
/// come from.
const std::vector<std::pair<std::string, std::string>>& opc_ways() {
  static const std::vector<std::pair<std::string, std::string>> ways = {
      {"--flow direct --mode rule", "deck srafs"},
      {"--flow direct --mode model",
       "imaging socs-epsilon anchor-cd anchor-pitch srafs"},
      {"--flow flat|cell",
       "jobs library stats stats-out trace " + std::string(kFlowSpecOptions)},
  };
  return ways;
}

/// Refuse each option of \p opts that the way \p current of running
/// `opckit opc` does not read, naming the ways that do.
void refuse_other_ways(const Options& opts, const std::string& current) {
  for (const std::string& key : opts.names()) {
    if (lists(kOpcOptions, key)) continue;
    std::string takers;
    bool taken = false;
    for (const auto& [way, options] : opc_ways()) {
      if (!lists(options, key)) continue;
      taken = taken || way == current;
      takers += (takers.empty() ? "" : " or ") + way;
    }
    if (!taken) throw util::InputError("--" + key + " requires " + takers);
  }
}

int cmd_opc(const Options& opts, std::ostream& out) {
  const std::string mode = opts.get("mode", "model");
  const std::string flow = opts.get("flow", "direct");
  if (flow != "direct" && flow != "flat" && flow != "cell") {
    throw util::InputError("unknown --flow (use direct, flat or cell): " +
                           flow);
  }
  if (mode != "rule" && mode != "model") {
    throw util::InputError("unknown --mode (use rule or model): " + mode);
  }
  if (flow != "direct" && mode != "model") {
    throw util::InputError("--flow flat|cell requires --mode model");
  }
  refuse_other_ways(opts, flow == "direct" ? "--flow direct --mode " + mode
                                           : "--flow flat|cell");
  if (opts.has("library-budget") && !opts.has("library")) {
    throw util::InputError("--library-budget requires --library FILE");
  }
  if (opts.has("stats") && opts.get("stats", "") != "json") {
    throw util::InputError("unknown --stats format (use json): " +
                           opts.get("stats", ""));
  }

  // The full-chip flows (--flow flat|cell): placement-aware correction on
  // the parallel tiled driver, with the pattern-reuse cache on unless
  // --no-cache. run_*_opc runs its own pre-flight gate (library + model
  // parameters), so no separate lint pass is needed here.
  if (flow != "direct") {
    opc::FlowSpec spec = build_flow_spec(opts);
    spec.jobs = jobs_option(opts, 1);
    if (opts.has("library")) spec.library_path = opts.require("library");
    layout::Library lib = layout::read_gdsii_file(opts.require("in"));
    const std::string top = pick_cell(lib, opts);
    const bool tracing = opts.has("trace");
    if (tracing) trace::Tracer::instance().start();
    opc::FlowStats stats;
    bool mrc_failed = false;
    std::string mrc_failure;
    try {
      stats = flow == "flat" ? opc::run_flat_opc(lib, top, spec)
                             : opc::run_cell_opc(lib, top, spec);
    } catch (const opc::MrcGateError& e) {
      // The gate rejects the mask AFTER the output layer is written, so
      // the normal reporting/output path below still runs — only the
      // exit code and the violation listing change.
      mrc_failed = true;
      mrc_failure = e.what();
      stats = e.stats();
    } catch (...) {
      // Leave the process-wide tracer off for whoever catches this.
      if (tracing) trace::Tracer::instance().stop();
      throw;
    }
    if (tracing) {
      trace::Tracer::instance().stop();
      trace::Tracer::instance().write_json(opts.require("trace"));
    }
    if (opts.has("stats-out")) {
      std::ofstream stats_file(opts.require("stats-out"));
      if (!stats_file) {
        throw util::InputError("cannot write --stats-out file: " +
                               opts.require("stats-out"));
      }
      stats_file << opc::render_stats_json(stats) << '\n';
    }
    if (opts.has("stats")) {
      // Machine-readable mode: the JSON blob is the whole report.
      out << opc::render_stats_json(stats) << '\n';
    } else {
      out << flow << " flow: " << stats.opc_runs << " OPC runs, "
          << stats.simulations << " simulations, "
          << stats.corrected_polygons << " corrected polygons, "
          << (stats.all_converged ? "converged" : "residual error left")
          << '\n';
      if (spec.cache) {
        out << "cache: " << stats.cache_hits << " hit(s), "
            << stats.cache_misses << " miss(es), " << stats.cache_conflicts
            << " conflict(s)\n";
      }
      if (!spec.library_path.empty()) {
        out << "library: " << stats.library_exact_hits
            << " exact replay(s), " << stats.library_near_hits
            << " warm start(s) from " << stats.library_entries_loaded
            << " loaded entr(ies), " << stats.library_entries_appended
            << " appended"
            << (stats.library_tail_recovered ? ", torn tail recovered" : "")
            << '\n';
      }
      if (stats.mrc_checked) {
        out << "mrc: " << stats.mrc.violations.size()
            << " violation(s) across " << stats.tile_mrc_violations.size()
            << " checked tile(s)"
            << (spec.mrc_action == mrc::Action::kWarn ? " (warn)" : "")
            << '\n';
      }
      out << "wall clock: " << stats.wall_ms << " ms ("
          << (spec.jobs == 0 ? std::string("all")
                             : std::to_string(spec.jobs))
          << " job(s))\n";
    }
    if (tracing && !opts.has("stats")) {
      out << "wrote trace to " << opts.require("trace")
          << " (load in chrome://tracing or https://ui.perfetto.dev)\n";
    }
    layout::write_gdsii_file(lib, opts.require("out"));
    if (!opts.has("stats")) {
      out << "wrote " << opts.require("out") << " (corrected shapes on "
          << spec.output_layer << ")\n";
    }
    if (mrc_failed) {
      if (!opts.has("stats")) {
        out << lint::render_text(mrc::to_lint_report(stats.mrc),
                                 "mrc signoff");
        out << "error: " << mrc_failure << '\n';
      }
      return 1;
    }
    return 0;
  }

  layout::Library lib = layout::read_gdsii_file(opts.require("in"));
  const std::string top = pick_cell(lib, opts);
  const layout::Layer in_layer = parse_layer(opts.require("layer"));
  const layout::Layer out_layer{in_layer.layer,
                                static_cast<std::uint16_t>(
                                    in_layer.datatype + 1)};

  // Direct mode corrects the flattened layer as one window. It bypasses
  // the flow driver, so it must refuse invalid inputs itself (a reduced
  // gate: library structure/geometry only) instead of letting them die on
  // an internal invariant check mid-correction.
  const lint::LintReport report = lint::lint_library(lib);
  if (!report.clean()) {
    throw util::InputError("pre-flight lint failed (run `opckit lint`):\n" +
                           lint::render_text(report, "opc pre-flight"));
  }

  const auto polys = lib.flatten(top, in_layer);
  if (polys.empty()) {
    throw util::InputError("no shapes on the input layer");
  }
  geom::Rect window = geom::Rect::empty();
  for (const auto& p : polys) window = window.united(p.bbox());

  std::vector<geom::Polygon> corrected;
  if (mode == "rule") {
    const opc::RuleDeck deck =
        opts.has("deck") ? opc::read_rule_deck_file(opts.require("deck"))
                         : opc::default_rule_deck_180();
    corrected = opc::apply_rule_opc(polys, deck).corrected;
    out << "rule OPC: " << corrected.size() << " corrected polygons\n";
  } else {
    const litho::SimSpec process = calibrated_process(opts);
    opc::ModelOpcSpec spec;
    const auto r = opc::run_model_opc(polys, process, window, spec);
    corrected = r.corrected;
    out << "model OPC: " << r.history.size() << " iterations, final RMS "
        << r.final_iteration().rms_epe_nm << " nm, "
        << (r.converged ? "converged" : "residual error left") << '\n';
  }

  if (opts.has("srafs")) {
    const auto srafs = opc::insert_srafs(corrected, {});
    out << "SRAF: " << srafs.kept << " bars inserted\n";
    corrected.insert(corrected.end(), srafs.bars.begin(), srafs.bars.end());
  }

  layout::Cell& cell = lib.cell(top);
  cell.clear_layer(out_layer);
  for (const auto& p : corrected) cell.add_polygon(out_layer, p);
  layout::write_gdsii_file(lib, opts.require("out"));
  out << "wrote " << opts.require("out") << " (corrected shapes on "
      << out_layer << ")\n";
  return 0;
}

int cmd_lint(const Options& opts, std::ostream& out) {
  if (opts.has("codes")) {
    const std::string format = opts.get("format", "text");
    if (format == "md") {
      // Source of truth for docs/LINT_CODES.md (tools/ci.sh drift check).
      out << lint::render_codes_markdown();
      return 0;
    }
    if (format != "text") {
      throw util::InputError("unknown --format for --codes (use text or md): " +
                             format);
    }
    util::Table t({"code", "severity", "title", "remedy"});
    for (const lint::CodeInfo& info : lint::all_codes()) {
      t.add_row(std::string(info.code),
                std::string(lint::to_string(info.default_severity)),
                std::string(info.title), std::string(info.remedy));
    }
    out << t.to_text("opclint diagnostic codes");
    return 0;
  }

  lint::LintOptions options;
  options.grid_nm = static_cast<geom::Coord>(opts.get_int("grid", 1));
  options.min_feature_nm =
      static_cast<geom::Coord>(opts.get_int("min-feature", 180));

  lint::LintReport report;
  std::string scope;
  if (opts.has("in")) {
    const layout::Library lib = layout::read_gdsii_file(opts.require("in"));
    report.merge(lint::lint_library(lib, options));
    scope = opts.require("in");
  }
  if (opts.has("deck")) {
    const opc::RuleDeck deck = opc::read_rule_deck_file(opts.require("deck"));
    report.merge(lint::lint_rule_deck(deck, options));
    scope += (scope.empty() ? "" : " + ") + opts.require("deck");
  }
  if (opts.has("model")) {
    litho::SimSpec sim;
    sim.optics.na = opts.get_double("na", sim.optics.na);
    sim.optics.wavelength_nm =
        opts.get_double("wavelength", sim.optics.wavelength_nm);
    sim.optics.source.sigma_outer =
        opts.get_double("sigma-outer", sim.optics.source.sigma_outer);
    sim.optics.source.sigma_inner =
        opts.get_double("sigma-inner", sim.optics.source.sigma_inner);
    sim.pixel_nm = opts.get_double("pixel", sim.pixel_nm);
    report.merge(lint::lint_sim_spec(sim, options));
    report.merge(lint::lint_opc_spec(opc::ModelOpcSpec{}, options));
    scope += (scope.empty() ? "" : " + ") + std::string("model");
  }
  if (scope.empty()) {
    throw util::InputError(
        "nothing to lint: give --in and/or --deck and/or --model "
        "(or --codes to list diagnostics)");
  }

  const std::string format = opts.get("format", "text");
  if (format == "csv") {
    out << lint::render_csv(report);
  } else if (format == "text") {
    out << lint::render_text(report, "opckit lint (" + scope + ")");
  } else {
    throw util::InputError("unknown --format (use text or csv): " + format);
  }
  return report.clean() ? 0 : 1;
}

int cmd_patterns(const Options& opts, std::ostream& out) {
  const layout::Library lib = layout::read_gdsii_file(opts.require("in"));
  const std::string top = pick_cell(lib, opts);
  const layout::Layer layer = parse_layer(opts.require("layer"));
  const auto polys = lib.flatten(top, layer);

  pat::WindowSpec spec;
  spec.radius = static_cast<geom::Coord>(opts.get_int("radius", 400));
  const pat::PatternCatalog cat = pat::build_catalog(polys, spec);
  const auto top_k = static_cast<std::size_t>(opts.get_int("top", 10));

  util::Table t({"rank", "count", "share_pct", "example_anchor"});
  const auto ranked = cat.ranked();
  for (std::size_t i = 0; i < std::min(top_k, ranked.size()); ++i) {
    std::ostringstream anchor;
    anchor << ranked[i].first_anchor;
    t.add_row(i + 1, ranked[i].count,
              100.0 * static_cast<double>(ranked[i].count) /
                  static_cast<double>(cat.total()),
              anchor.str());
  }
  out << t.to_text("opckit patterns (radius " +
                   std::to_string(spec.radius) + "nm)");
  out << cat.classes() << " classes over " << cat.total()
      << " windows; 90% coverage needs " << cat.classes_for_coverage(0.9)
      << " classes\n";
  return 0;
}

/// The observability registry: every metric this binary can emit, from
/// the same compiled table the instruments read (trace/metrics.h). The
/// md rendering IS docs/METRICS.md — tools/ci.sh diffs the two so the
/// doc cannot drift from the code.
int cmd_metrics(const Options& opts, std::ostream& out) {
  const std::string format = opts.get("format", "text");
  if (format == "md") {
    out << trace::render_metrics_markdown();
    return 0;
  }
  if (format != "text") {
    throw util::InputError("unknown --format (use text or md): " + format);
  }
  util::Table t({"metric", "kind", "meaning"});
  for (const trace::MetricInfo& info : trace::all_metrics()) {
    t.add_row(std::string(info.name), std::string(to_string(info.kind)),
              std::string(info.help));
  }
  out << t.to_text("opckit metrics");
  return 0;
}

// ---- service daemon commands (serve / submit / shutdown) ---------------

/// SIGTERM/SIGINT flag for `opckit serve`. sig_atomic_t + no locking is
/// all a signal handler may touch; the serve loop polls it between
/// bounded waits.
volatile std::sig_atomic_t g_serve_signal = 0;

void serve_signal_handler(int) { g_serve_signal = 1; }

/// Shared endpoint selection for the service commands: --socket PATH
/// (unix-domain) or --tcp PORT (loopback).
std::unique_ptr<svc::FdStream> connect_endpoint(const Options& opts) {
  if (opts.has("socket")) return svc::connect_unix(opts.require("socket"));
  if (opts.has("tcp")) return svc::connect_tcp(tcp_option(opts));
  throw util::InputError("give --socket PATH or --tcp PORT");
}

int cmd_serve(const Options& opts, std::ostream& out) {
  svc::ServerOptions sopts;
  sopts.workers = jobs_option(opts, 0);
  sopts.max_queue = static_cast<std::size_t>(bounded_int(
      opts, "max-queue", 64, 1, std::numeric_limits<long long>::max()));
  if (opts.has("socket")) {
    sopts.unix_path = opts.require("socket");
  } else if (opts.has("tcp")) {
    sopts.use_tcp = true;
    sopts.tcp_port = tcp_option(opts);
  } else {
    throw util::InputError("give --socket PATH or --tcp PORT");
  }
  sopts.library.dir = opts.get("library", "");

  svc::Server server(std::move(sopts));
  server.start();
  if (opts.has("tcp")) {
    out << "opcd listening on 127.0.0.1:" << server.tcp_port() << '\n';
  } else {
    out << "opcd listening on " << opts.require("socket") << '\n';
  }
  out.flush();

  g_serve_signal = 0;
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);
  // The daemon loop: wake every 200 ms to poll the signal flag; a
  // protocol kShutdown wakes the wait directly. Either way the daemon
  // drains — in-flight jobs finish, queued jobs get typed rejections.
  for (;;) {
    if (g_serve_signal) {
      server.request_shutdown(svc::ShutdownMode::kDrain);
      break;
    }
    if (server.wait_shutdown_requested(200)) break;
  }
  server.stop();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);

  const auto snapshot = trace::metrics().snapshot();
  out << "opcd drained: " << snapshot.counters.at("svc.jobs_completed")
      << " completed, " << snapshot.counters.at("svc.jobs_failed")
      << " failed, " << snapshot.counters.at("svc.jobs_rejected")
      << " rejected\n";
  return 0;
}

int cmd_submit(const Options& opts, std::ostream& out) {
  const std::string flow = opts.get("flow", "flat");
  if (flow != "flat" && flow != "cell") {
    throw util::InputError("unknown --flow (use flat or cell): " + flow);
  }
  if (opts.has("stats") && opts.get("stats", "") != "json") {
    throw util::InputError("unknown --stats format (use json): " +
                           opts.get("stats", ""));
  }

  svc::SubmitMsg msg;
  msg.priority = static_cast<std::int32_t>(bounded_int(
      opts, "priority", 0, std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max()));
  msg.flow = flow == "cell" ? 1 : 0;
  msg.in_path = opts.require("in");
  msg.out_path = opts.require("out");
  if (opts.has("cell")) msg.top = opts.require("cell");
  msg.spec = build_flow_spec(opts);

  svc::Client client(connect_endpoint(opts));
  const bool show_progress = opts.has("progress");
  const svc::Client::Outcome outcome =
      client.run_job(msg, [&](const svc::ProgressMsg& p) {
        if (!show_progress) return;
        out << "job " << p.job_id << ": " << p.phase << " pass " << p.pass
            << " (" << p.tiles_done << '/' << p.tiles_total << ")\n";
        out.flush();
      });

  if (!outcome.accepted) {
    out << "rejected (" << svc::to_string(outcome.rejected.reason)
        << "): " << outcome.rejected.message << '\n';
    return 1;
  }
  if (!outcome.result.ok) {
    out << "job " << outcome.ack.job_id
        << " failed: " << outcome.result.payload << '\n';
    return 1;
  }
  if (opts.has("stats")) {
    out << outcome.result.payload << '\n';
  } else {
    out << "job " << outcome.ack.job_id << " done; daemon wrote "
        << msg.out_path << '\n';
  }
  return 0;
}

int cmd_shutdown(const Options& opts, std::ostream& out) {
  svc::Client client(connect_endpoint(opts));
  const svc::ShutdownMode mode = opts.has("abort")
                                     ? svc::ShutdownMode::kAbort
                                     : svc::ShutdownMode::kDrain;
  client.shutdown_server(mode);
  out << "opcd acknowledged "
      << (mode == svc::ShutdownMode::kAbort ? "abort" : "drain")
      << " shutdown\n";
  return 0;
}

void usage(std::ostream& err) {
  err << "usage: opckit "
         "<stats|drc|mrc|lint|opc|patterns|metrics|serve|submit|shutdown> "
         "[options]\n"
         "  stats     --in a.gds [--cell NAME]\n"
         "  drc       --in a.gds --layer L/D --min-width N --min-space N\n"
         "  mrc       --in a.gds --layer L/D [--deck FILE|default]\n"
         "            [--min-width N] [--min-space N] [--min-edge N]\n"
         "            [--min-notch N] [--min-jog N] [--min-corner N]\n"
         "            [--min-area N]\n"
         "            (scanline mask-rule signoff with edge witnesses;\n"
         "             exit 1 on error-severity violations)\n"
         "  lint      [--in a.gds] [--deck FILE] [--model] [--grid N]\n"
         "            [--min-feature N] [--format text|csv]\n"
         "            [--codes [--format text|md]]\n"
         "            [--na F] [--wavelength F] [--sigma-outer F]\n"
         "            [--sigma-inner F] [--pixel F]\n"
         "  opc       --in a.gds --out b.gds --layer L/D [--mode rule|model]\n"
         "            [--flow direct|flat|cell] [--jobs N] [--no-cache]\n"
         "            [--library f.ocl [--library-budget F]]\n"
         "            (cross-run pattern library: crash-safe resume and\n"
         "             incremental ECO — exact classes replay; budget > 0\n"
         "             warm-starts near matches — fewer iterations, same\n"
         "             EPE tolerance. Delete the file to start fresh)\n"
         "            [--stats json] [--stats-out FILE] [--trace FILE]\n"
         "            (--trace writes a chrome://tracing span timeline\n"
         "             of the flow phases and per-tile work)\n"
         "            [--imaging abbe|socs] [--socs-epsilon F]\n"
         "            (socs: SOCS kernel imaging — a few FFTs per image\n"
         "             instead of one per source point, within ε)\n"
         "            [--engine model|ilt|escalate]\n"
         "            [--ilt-iterations N] [--ilt-step F]\n"
         "            [--ilt-steepness F] [--ilt-edge-weight F]\n"
         "            [--ilt-edge-band F] [--ilt-escalate-epe F]\n"
         "            (pixel-based inverse lithography: ilt re-synthesizes\n"
         "             every tile, escalate runs model OPC first and\n"
         "             re-solves only tiles whose residual EPE exceeds\n"
         "             --ilt-escalate-epe; output is Manhattan-legalized\n"
         "             so MRC signoff still applies)\n"
         "            [--mrc-deck FILE|default] [--mrc-action fail|warn]\n"
         "            (post-OPC mask-rule signoff gate; fail = exit 1\n"
         "             with the violation listing, output still written)\n"
         "            [--deck FILE]\n"
         "            [--srafs] [--anchor-cd N] [--anchor-pitch N]\n"
         "            (inputs are lint pre-flighted; errors abort, see\n"
         "             `opckit lint --codes`. --deck is --mode rule's;\n"
         "             --srafs is direct mode's; --imaging,\n"
         "             --socs-epsilon and --anchor-* are --mode model's\n"
         "             and the flows'; the rest are the flows'. An option\n"
         "             another way reads is refused)\n"
         "  patterns  --in a.gds --layer L/D [--radius N] [--top K]\n"
         "  metrics   [--format text|md] (the compiled metric registry)\n"
         "  serve     --socket PATH | --tcp PORT [--jobs N] [--max-queue N]\n"
         "            [--library DIR]\n"
         "            (opcd: long-running OPC daemon; keeps kernel/plan/\n"
         "             correction caches hot across jobs, drains on\n"
         "             SIGTERM. --jobs workers each run one job at a\n"
         "             time. --library makes solved patterns durable\n"
         "             and crash-resumable)\n"
         "  submit    --socket PATH | --tcp PORT --in a.gds --out b.gds\n"
         "            --layer L/D [--flow flat|cell] [--priority N]\n"
         "            [--no-cache] [--imaging abbe|socs]\n"
         "            [--socs-epsilon F] [--mrc-deck FILE|default]\n"
         "            [--mrc-action fail|warn] [--anchor-cd N]\n"
         "            [--anchor-pitch N] [--stats json] [--progress]\n"
         "            [--library-budget F] (near-match warm starts from\n"
         "             the daemon's shared pattern library)\n"
         "            [--engine model|ilt|escalate] [--ilt-iterations N]\n"
         "            [--ilt-step F] [--ilt-steepness F]\n"
         "            [--ilt-edge-weight F] [--ilt-edge-band F]\n"
         "            [--ilt-escalate-epe F]\n"
         "            (paths are daemon-local; output is byte-identical\n"
         "             to the same `opckit opc` run)\n"
         "  shutdown  --socket PATH | --tcp PORT [--abort]\n"
         "            (drain: in-flight jobs finish, queued jobs are\n"
         "             rejected; --abort cancels at phase boundaries)\n";
}

/// One subcommand: its handler and every option it reads.
struct Command {
  const char* name;
  int (*run)(const Options&, std::ostream&);
  std::string options;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"stats", cmd_stats, "in cell"},
      {"drc", cmd_drc, "in cell layer min-width min-space"},
      {"mrc", cmd_mrc,
       "in cell layer deck min-width min-space min-edge min-notch min-jog "
       "min-corner min-area"},
      {"lint", cmd_lint,
       "in deck model codes format grid min-feature na wavelength "
       "sigma-outer sigma-inner pixel"},
      {"opc", cmd_opc,
       [] {
         std::string all = kOpcOptions;
         for (const auto& way : opc_ways()) all += ' ' + way.second;
         return all;
       }()},
      {"patterns", cmd_patterns, "in cell layer radius top"},
      {"metrics", cmd_metrics, "format"},
      {"serve", cmd_serve, "socket tcp jobs max-queue library"},
      {"submit", cmd_submit,
       "socket tcp in out cell flow priority stats progress " +
           std::string(kFlowSpecOptions)},
      {"shutdown", cmd_shutdown, "socket tcp abort"},
  };
  return table;
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty()) {
    usage(err);
    return 2;
  }
  try {
    const auto it =
        std::find_if(commands().begin(), commands().end(),
                     [&](const Command& c) { return args[0] == c.name; });
    if (it == commands().end()) {
      err << "unknown command: " << args[0] << '\n';
      usage(err);
      return 2;
    }
    return it->run(Options(args, 1, it->options), out);
  } catch (const util::InputError& e) {
    err << "error: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    err << "fatal: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace opckit::cli
