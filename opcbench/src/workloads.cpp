/// The three benchmark workloads. Every input is generated from the
/// run's seed; the program under test only ever sees the GDSII files.
#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/correction_cache.h"
#include "layout/gdsii.h"
#include "layout/generators.h"
#include "mrc/mrc.h"
#include "pattern/feature.h"
#include "service/client.h"
#include "service/server.h"
#include "service/socket.h"
#include "util/rng.h"

namespace opcbench {
namespace {

namespace fs = std::filesystem;
using geom::Coord;
using geom::Point;
using geom::Polygon;
using geom::Rect;

/// SOCS truncation shared by every workload: the dense source keeps the
/// production kernel structure, the cutoff keeps a job short enough that
/// one run sees enough jobs for a tail percentile.
constexpr double kSocsEpsilon = 1e-2;
/// Raster pixel of every workload: coarser than the 8 nm default but far
/// below the optics' 50 nm Nyquist pixel, so a cell of up to ~1.47 um,
/// guard band included, images on a 256 x 256 frame.
constexpr double kPixelNm = 12.0;
/// Model-OPC iteration cap of the flat and daemon workloads (the default
/// recipe has 14; random blocks do not converge before either cap).
constexpr int kOpcIterations = 8;

std::size_t hw_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// One placement of a leaf cell in a generated chip.
struct Placement {
  std::string cell;
  Point at;
};

/// Write a flat list of SREF placements under "top" and derive the
/// per-placement tiles (own shapes + drawn context within \p halo).
std::vector<Tile> place_and_tile(layout::Library& lib,
                                 const std::vector<Placement>& placements,
                                 const layout::Layer& layer, Coord halo) {
  layout::Cell& top = lib.cell("top");
  std::vector<Tile> tiles;
  for (const Placement& pl : placements) {
    layout::CellRef ref;
    ref.child = pl.cell;
    ref.transform = geom::Transform(pl.at);
    top.add_ref(std::move(ref));
    Tile t;
    for (const auto& s : lib.at(pl.cell).shapes(layer)) {
      Polygon p = geom::Transform(pl.at)(s);
      t.window = t.window.united(p.bbox());
      t.own.push_back(std::move(p));
    }
    tiles.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const Rect reach = tiles[i].window.inflated(halo);
    for (std::size_t j = 0; j < tiles.size(); ++j) {
      if (j == i) continue;
      for (const auto& p : tiles[j].own) {
        if (p.bbox().overlaps(reach)) tiles[i].context.push_back(p);
      }
    }
  }
  return tiles;
}

double chip_area_um2(const std::vector<Tile>& tiles) {
  Rect box = Rect::empty();
  for (const Tile& t : tiles) box = box.united(t.window);
  return static_cast<double>(box.width()) * static_cast<double>(box.height()) *
         1e-6;
}

opc::FlowSpec base_spec(const layout::Layer& in, const layout::Layer& out) {
  opc::FlowSpec spec;
  spec.input_layer = in;
  spec.output_layer = out;
  spec.opc.max_iterations = kOpcIterations;
  spec.mrc_deck = mrc::mask_deck_180();
  spec.mrc_action = mrc::Action::kWarn;
  spec.cache = true;
  return spec;
}

/// Direct (in-process) flow job: read the chip, correct it, write it.
JobResult run_direct(const Input& input, const opc::FlowSpec& spec,
                     const std::string& out_path) {
  JobResult r;
  r.out_path = out_path;
  const auto t0 = Clock::now();
  try {
    layout::Library lib = layout::read_gdsii_file(input.gds_path);
    const opc::FlowStats stats =
        input.flow == 1 ? opc::run_cell_opc(lib, input.top, spec)
                        : opc::run_flat_opc(lib, input.top, spec);
    layout::write_gdsii_file(lib, out_path);
    r.flow_wall_ms = stats.wall_ms;
    r.stats_json = opc::render_stats_json(stats);
    r.ok = true;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.latency_ms = ms_since(t0);
  return r;
}

double payload_wall_ms(const std::string& payload) {
  const std::string key = "\"wall_ms\":";
  const std::size_t at = payload.rfind(key);
  return at == std::string::npos
             ? 0.0
             : std::strtod(payload.c_str() + at + key.size(), nullptr);
}

/// Submit one job over \p client and time it from the caller's side.
JobResult run_daemon(svc::Client& client, const Input& input,
                     const opc::FlowSpec& spec, const std::string& out_path) {
  svc::SubmitMsg msg;
  msg.flow = input.flow;
  msg.in_path = input.gds_path;
  msg.out_path = out_path;
  msg.top = input.top;
  msg.spec = spec;
  JobResult r;
  r.out_path = out_path;
  const auto t0 = Clock::now();
  try {
    const svc::Client::Outcome out = client.run_job(msg);
    r.latency_ms = ms_since(t0);
    if (!out.accepted) {
      r.error = "rejected: " + out.rejected.message;
    } else if (!out.result.ok) {
      r.error = out.result.payload;
    } else {
      r.ok = true;
      r.flow_wall_ms = payload_wall_ms(out.result.payload);
      r.stats_json = out.result.payload;
    }
  } catch (const std::exception& e) {
    r.latency_ms = ms_since(t0);
    r.error = e.what();
  }
  return r;
}

/// The daemon's shelf key for jobs submitted with \p spec.
std::uint64_t shelf_fingerprint(const opc::FlowSpec& spec, std::uint8_t flow) {
  opc::FlowSpec s = spec;
  s.library_path.clear();
  return opc::flow_fingerprint(s, flow == 1 ? "cell" : "flat");
}

/// A short-lived in-process daemon over a fresh library directory, for
/// the daemon-vs-direct anchor of the direct workloads. Leaves the
/// shelf files it wrote in \p files for the store/pattern probes.
JobResult anchor_through_daemon(const Input& input, const opc::FlowSpec& spec,
                                const std::string& dir,
                                const std::string& out_path,
                                LibraryFiles& files) {
  svc::ServerOptions opts;
  opts.unix_path = dir + "/anchor.sock";
  opts.workers = 1;
  opts.library.dir = dir + "/anchor_library";
  fs::remove_all(opts.library.dir);
  svc::Server server(std::move(opts));
  server.start();
  JobResult r;
  {
    svc::Client client(svc::connect_unix(dir + "/anchor.sock"));
    r = run_daemon(client, input, spec, out_path);
  }
  files.fingerprint = shelf_fingerprint(spec, input.flow);
  files.ocs = server.library().path_for(files.fingerprint);
  files.ocl = server.library().pattern_path_for(files.fingerprint);
  server.stop();
  return r;
}

std::vector<std::size_t> shuffled(std::vector<std::size_t> v,
                                  util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
  return v;
}

// ---- flat_cold ---------------------------------------------------------

/// Flat flow over chips of distinct random-block cells placed closer
/// than the halo, so every placement sees live neighbours: imaging and
/// the model loop do the work, every reuse layer misses.
class FlatCold final : public Workload {
 public:
  static constexpr int kChips = 24;  // 96 scored placements per run
  static constexpr int kCells = 4;  // distinct cells, placed 2 x 2
  static constexpr Coord kCell = 1400;
  static constexpr Coord kPitch = 1500;  // 100 nm gaps, inside the halo

  void prepare(const Options& opt) override {
    dir_ = opt.work_dir;
    spec_ = base_spec(layout::layers::kMetal1, layout::layers::kMetal1Opc);
    spec_.jobs = static_cast<int>(std::min<std::size_t>(kCells, hw_threads()));
    util::Rng rng(opt.seed);
    for (int c = 0; c < kChips; ++c) {
      layout::Library lib("flat_cold");
      std::vector<Placement> pls;
      for (int k = 0; k < kCells; ++k) {
        const std::string name = "rb" + std::to_string(k);
        layout::Cell& cell = lib.cell(name);
        layout::RandomBlockSpec rs;
        rs.width = kCell;
        rs.height = kCell;
        rs.min_segment = 500;
        rs.max_segment = 1000;
        layout::add_random_block(cell, layout::layers::kMetal1, rs, rng);
        pls.push_back({name, Point{(k % 2) * kPitch, (k / 2) * kPitch}});
      }
      Input in;
      in.name = "chip" + std::to_string(c);
      in.kind = "cold";
      in.score_sites =
          place_and_tile(lib, pls, layout::layers::kMetal1, spec_.halo_nm);
      in.area_um2 = chip_area_um2(in.score_sites);
      in.gds_path = dir_ + "/" + in.name + ".gds";
      layout::write_gdsii_file(lib, in.gds_path);
      inputs_.push_back(std::move(in));
    }
    for (std::size_t i = 0; i < inputs_.size(); ++i) schedule_.push_back(i);
  }

  void setup() override {
    clear_imaging_caches();
    spec_.sim = calibrated_socs_process(kSocsEpsilon, kPixelNm);
    prime_imaging(metrology_sim(), inputs_.front().score_sites.front().window);
  }

};

// ---- daemon_eco --------------------------------------------------------

/// A leaf of three parallel bars up to \p span long over a strap
/// (distinct per seed draw): the daemon workload's repeated cell and the
/// cell workload's easy logic. \p widen_bar / \p widen make the one-bar
/// ECO edit; a non-null \p jitter moves every bar end by up to
/// \p jitter_nm.
void add_bar_leaf(layout::Cell& cell, const layout::Layer& layer,
                  util::Rng& rng, Coord span, int widen_bar = -1,
                  Coord widen = 0, util::Rng* jitter = nullptr,
                  Coord jitter_nm = 0) {
  Coord x = 0;
  for (int b = 0; b < 3; ++b) {
    const Coord len = rng.uniform_int(span / 2, span);
    Coord lo = rng.uniform_int(0, span - len);
    Coord hi = lo + len;
    if (jitter != nullptr) {
      lo += jitter->uniform_int(-jitter_nm, jitter_nm);
      hi += jitter->uniform_int(-jitter_nm, jitter_nm);
    }
    const Coord w = 180 + (b == widen_bar ? widen : 0);
    cell.add_rect(layer, Rect(x, lo, x + w, hi));
    x += 180 + rng.uniform_int(240, 300);
  }
  cell.add_rect(layer, Rect(0, -460, rng.uniform_int(500, 900), -280));
}

/// In-process opcd over a durable library directory. Two closed-loop
/// clients submit repeated-placement chips: exact resubmits of solved
/// chips, one-placement ECO edits and few-nm jittered variants that
/// warm-start from near matches. Every round restarts the daemon from
/// the same warm library, so every round serves the same stream. The
/// reuse layers do the work; litho solves one warm-started tile per
/// variant.
class DaemonEco final : public Workload {
 public:
  static constexpr int kBases = 12;
  static constexpr int kGrid = 4;        // 4 x 4 placements per chip
  static constexpr Coord kPitch = 3000;  // isolated: > leaf + 2 halo
  static constexpr double kBudget = 0.1;
  static constexpr Coord kSpan = 900;  // leaf bar length range

  ~DaemonEco() override { end_phase(); }

  void prepare(const Options& opt) override {
    dir_ = opt.work_dir;
    spec_ = base_spec(layout::layers::kPoly, layout::layers::kPolyOpc);
    spec_.jobs = 1;
    spec_.library_budget = kBudget;
    util::Rng rng(opt.seed);

    // Candidate leaves: every base, then per base one ECO edit (one bar
    // widened) and one jittered copy (every bar end moved by <= 6 nm).
    struct Leaf {
      std::string name, kind;
      int base;
      int bar = -1;
      Coord widen = 0;
      std::uint64_t jitter = 0;
      int slot = -1;  // the edited placement of an ECO chip
      pat::PatternFeature feature{};
    };
    std::vector<std::uint64_t> leaf_seeds;
    std::vector<Leaf> cands;
    for (int k = 0; k < kBases; ++k) {
      leaf_seeds.push_back(rng.next_u64());
      cands.push_back({"base" + std::to_string(k), "exact", k});
    }
    for (int k = 0; k < kBases; ++k) {
      Leaf eco{"eco" + std::to_string(k), "eco", k};
      eco.bar = static_cast<int>(rng.uniform_int(0, 2));
      eco.widen = rng.uniform_int(20, 40);
      eco.slot = static_cast<int>(rng.uniform_int(0, kGrid * kGrid - 1));
      cands.push_back(eco);
      Leaf jit{"jitter" + std::to_string(k), "jitter", k};
      jit.jitter = rng.next_u64() | 1;
      cands.push_back(jit);
    }
    const auto draw = [&](layout::Cell& cell, const Leaf& l) {
      util::Rng r(leaf_seeds[static_cast<std::size_t>(l.base)]);
      util::Rng jit(l.jitter);
      add_bar_leaf(cell, spec_.input_layer, r, kSpan, l.bar, l.widen,
                   l.jitter != 0 ? &jit : nullptr, 6);
    };
    // Which solved pattern a warm start retrieves must never depend on
    // job timing, so keep a leaf only if nothing kept before it but its
    // own base lies within the retrieval budget.
    std::vector<Leaf> kept;
    for (Leaf& l : cands) {
      layout::Library tmp("feature");
      draw(tmp.cell("leaf"), l);
      const auto shapes = tmp.at("leaf").shapes(spec_.input_layer);
      const std::vector<Polygon> own(shapes.begin(), shapes.end());
      Rect box = Rect::empty();
      for (const auto& p : own) box = box.united(p.bbox());
      l.feature = pat::feature_of(
          opc::CorrectionCache::make_key(own, geom::Region::from_polygons(own),
                                         box)
              .window.rects);
      const bool clear = std::all_of(kept.begin(), kept.end(), [&](const Leaf& o) {
        const bool own_base = o.kind == "exact" && o.base == l.base;
        return own_base || pat::feature_distance(o.feature, l.feature) > kBudget;
      });
      if (clear) kept.push_back(l);
    }

    for (const Leaf& l : kept) {
      layout::Library lib("daemon_eco");
      draw(lib.cell("leaf"), Leaf{"", "", l.base});
      if (l.kind != "exact") draw(lib.cell("leaf_v"), l);
      std::vector<Placement> pls;
      for (int i = 0; i < kGrid * kGrid; ++i) {
        const bool odd = l.kind == "jitter" || i == l.slot;
        pls.push_back({odd ? "leaf_v" : "leaf",
                       Point{(i % kGrid) * kPitch, (i / kGrid) * kPitch}});
      }
      Input in;
      in.name = l.name;
      in.kind = l.kind;
      const std::vector<Tile> tiles =
          place_and_tile(lib, pls, spec_.input_layer, spec_.halo_nm);
      in.area_um2 = chip_area_um2(tiles);
      // Placements are isolated, so equal leaves score identically:
      // keep one site per distinct leaf.
      for (std::size_t i = 0; i < pls.size(); ++i) {
        const bool seen = std::any_of(
            pls.begin(), pls.begin() + static_cast<std::ptrdiff_t>(i),
            [&](const Placement& p) { return p.cell == pls[i].cell; });
        if (!seen) in.score_sites.push_back(tiles[i]);
      }
      in.gds_path = dir_ + "/" + l.name + ".gds";
      layout::write_gdsii_file(lib, in.gds_path);
      if (l.kind == "exact") ++bases_;
      inputs_.push_back(std::move(in));
    }

    // One round: every kept input once, in seeded order. Bases come back
    // as exact resubmits (replays); variants are warm-started solves.
    std::vector<std::size_t> order(inputs_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    schedule_ = shuffled(std::move(order), rng);

    // Solve every base chip once into the durable library (untimed);
    // every measured phase starts from a copy of it.
    spec_.sim = calibrated_socs_process(kSocsEpsilon, kPixelNm);
    warm_dir_ = dir_ + "/library_warm";
    fs::remove_all(warm_dir_);
    boot(warm_dir_);
    for (std::size_t k = 0; k < bases_; ++k) {
      const JobResult r = run_daemon(*clients_[0], inputs_[k], spec_,
                                     dir_ + "/warm" + std::to_string(k) +
                                         ".gds");
      if (!r.ok) throw std::runtime_error("daemon_eco warm-up: " + r.error);
    }
    end_phase();
  }

  void setup() override {
    clear_imaging_caches();
    spec_.sim = calibrated_socs_process(kSocsEpsilon, kPixelNm);
    prime_imaging(metrology_sim(), inputs_.front().score_sites.front().window);
    begin_phase();
  }

  void begin_phase() override {
    end_phase();
    const std::string live = dir_ + "/library_live";
    fs::remove_all(live);
    fs::copy(warm_dir_, live, fs::copy_options::recursive);
    boot(live);
  }

  void end_phase() override {
    clients_.clear();
    if (server_) server_->stop();
    server_.reset();
  }

  JobResult run_job(std::size_t client, const Input& input,
                    const std::string& out_path) override {
    return run_daemon(*clients_[client], input, spec_, out_path);
  }

  /// The direct flow on a base chip, whose daemon output is a replay of
  /// a cold solve and so must match byte for byte.
  JobResult run_anchor(const Input& input,
                       const std::string& out_path) override {
    return run_direct(input, spec_, out_path);
  }

  /// The shelf files of the last round's library (left on disk until
  /// the next round starts).
  const LibraryFiles& library_files() const override {
    const svc::CorrectionLibrary live({dir_ + "/library_live"});
    files_.fingerprint = shelf_fingerprint(spec_, 0);
    files_.ocs = live.path_for(files_.fingerprint);
    files_.ocl = live.pattern_path_for(files_.fingerprint);
    return files_;
  }

  bool restart_each_round() const override { return true; }
  std::size_t clients() const override { return 2; }

 private:
  /// Boot the daemon over \p library_dir, load both shelves (.ocs
  /// records, .ocl pattern index) and connect the clients.
  void boot(const std::string& library_dir) {
    svc::ServerOptions opts;
    opts.unix_path = dir_ + "/opcd.sock";
    opts.workers = 2;
    opts.library.dir = library_dir;
    server_ = std::make_unique<svc::Server>(std::move(opts));
    server_->start();
    const std::uint64_t fp = shelf_fingerprint(spec_, 0);
    (void)server_->library().snapshot(fp);
    (void)server_->library().pattern_snapshot(fp);
    for (std::size_t c = 0; c < clients(); ++c) {
      clients_.push_back(std::make_unique<svc::Client>(
          svc::connect_unix(dir_ + "/opcd.sock")));
    }
  }

  std::string warm_dir_;
  std::size_t bases_ = 0;  ///< inputs_[0, bases_) are the base chips
  std::unique_ptr<svc::Server> server_;
  std::vector<std::unique_ptr<svc::Client>> clients_;
};

// ---- cell_escalate -----------------------------------------------------

/// Cell flow over a hierarchical chip that mixes hard cells (a tip-to-tip
/// pair, a contact array, a forbidden-pitch grating) with an easy bar cell,
/// under the escalate engine: model OPC everywhere, pixel ILT where the
/// model floor stays above the escalation threshold.
class CellEscalate final : public Workload {
 public:
  static constexpr int kChips = 16;  // 64 scored cells per run
  static constexpr Coord kPitch = 4000;

  void prepare(const Options& opt) override {
    dir_ = opt.work_dir;
    spec_ = base_spec(layout::layers::kPoly, layout::layers::kPolyOpc);
    spec_.engine = opc::CorrectionEngine::kEscalate;
    spec_.opc.max_iterations = opc::ModelOpcSpec{}.max_iterations;
    spec_.ilt.max_iterations = 6;
    spec_.jobs = static_cast<int>(std::min<std::size_t>(4, hw_threads()));
    const layout::Layer layer = spec_.input_layer;
    util::Rng rng(opt.seed);
    for (int c = 0; c < kChips; ++c) {
      layout::Library lib("cell_escalate");
      {
        // Tip-to-tip: two line ends facing across a gap, flanked by
        // full-height neighbours at 360 nm pitch.
        layout::Cell& t2t = lib.cell("tip2tip");
        const Coord gap = rng.uniform_int(22, 30) * 10;
        const Coord len = rng.uniform_int(50, 58) * 10;
        const Coord h = 2 * len + gap;
        t2t.add_rect(layer, Rect(360, 0, 540, len));
        t2t.add_rect(layer, Rect(360, len + gap, 540, h));
        t2t.add_rect(layer, Rect(0, 0, 180, h));
        t2t.add_rect(layer, Rect(720, 0, 900, h));
      }
      {
        const Coord size = rng.uniform_int(20, 24) * 10;
        const Coord pitch = size + rng.uniform_int(20, 25) * 10;
        layout::add_contact_array(lib.cell("contacts"), layer, size, pitch,
                                  3, 3);
      }
      {
        layout::GratingSpec g;
        g.pitch = 560;
        g.lines = 3;
        g.length = rng.uniform_int(100, 140) * 10;
        layout::add_grating(lib.cell("fpitch"), layer, g);
      }
      add_bar_leaf(lib.cell("logic"), layer, rng, 900);
      const std::vector<std::string> cells = {"tip2tip", "contacts", "fpitch",
                                              "logic"};
      std::vector<Placement> pls;
      // Each cell placed twice: the hierarchy repeats, the cell flow
      // corrects each distinct cell once.
      for (std::size_t i = 0; i < 2 * cells.size(); ++i) {
        pls.push_back({cells[i % cells.size()],
                       Point{static_cast<Coord>(i % 4) * kPitch,
                             static_cast<Coord>(i / 4) * kPitch}});
      }
      Input in;
      in.name = "chip" + std::to_string(c);
      in.kind = "escalate";
      in.flow = 1;
      std::vector<Tile> tiles = place_and_tile(lib, pls, layer, spec_.halo_nm);
      in.area_um2 = chip_area_um2(tiles);
      tiles.resize(cells.size());  // one scoring site per distinct cell
      in.score_sites = std::move(tiles);
      in.gds_path = dir_ + "/" + in.name + ".gds";
      layout::write_gdsii_file(lib, in.gds_path);
      inputs_.push_back(std::move(in));
    }
    for (std::size_t i = 0; i < inputs_.size(); ++i) schedule_.push_back(i);
  }

  void setup() override {
    clear_imaging_caches();
    spec_.sim = calibrated_socs_process(kSocsEpsilon, kPixelNm);
    for (const Tile& t : inputs_.front().score_sites) {
      prime_imaging(spec_.sim, t.window);
    }
  }

};

}  // namespace

JobResult Workload::run_job(std::size_t, const Input& input,
                            const std::string& out_path) {
  return run_direct(input, spec_, out_path);
}

JobResult Workload::run_anchor(const Input& input,
                               const std::string& out_path) {
  return anchor_through_daemon(input, spec_, dir_, out_path, files_);
}

litho::SimSpec Workload::metrology_sim() const {
  litho::SimSpec s = spec_.sim;
  if (inputs_.empty() || inputs_.front().flow == 0) {
    s.guard_nm = std::max(s.guard_nm, spec_.halo_nm);
  }
  return s;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "flat_cold") return std::make_unique<FlatCold>();
  if (name == "daemon_eco") return std::make_unique<DaemonEco>();
  if (name == "cell_escalate") return std::make_unique<CellEscalate>();
  return nullptr;
}

}  // namespace opcbench
