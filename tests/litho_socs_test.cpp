/// Kernel-set imaging suite: Abbe-vs-SOCS aerial parity across process
/// corners, relative-eigenvalue truncation and dense-source
/// compression, the build-once caches of both sets, and the determinism
/// of the one image routine over either set.
///
/// Labelled `socs` (tests/CMakeLists.txt) so tools/ci.sh can gate the
/// ASan and TSan jobs on this suite explicitly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <future>
#include <latch>
#include <thread>

#include "core/flow.h"
#include "core/model.h"
#include "layout/generators.h"
#include "litho/litho.h"
#include "trace/metrics.h"
#include "util/thread_pool.h"

namespace opckit::litho {
namespace {

Frame test_frame(std::size_t n = 128) {
  Frame f;
  f.origin = {-512, -512};
  f.pixel_nm = 8.0;
  f.nx = n;
  f.ny = n;
  return f;
}

OpticalSystem test_optics() {
  OpticalSystem sys;
  sys.source.grid = 5;  // ~12 points: fast, still genuinely extended
  return sys;
}

/// A mask with 1-D and 2-D content: two vertical lines and a contact.
Image test_mask(const Frame& frame) {
  const std::vector<geom::Rect> rects = {geom::Rect(-90, -400, 90, 400),
                                         geom::Rect(270, -400, 430, 400),
                                         geom::Rect(-350, -150, -200, 0)};
  return rasterize(geom::Region::from_rects(rects), frame);
}

/// The aerial image of \p mask through the \p mode kernel set (SOCS at
/// ε = 1e-4).
Image aerial(ImagingMode mode, const OpticalSystem& sys, const Image& mask,
             double defocus_nm = 0.0, const MaskModel& mask_model = {}) {
  return form_image(
      *kernel_set(mode, sys, mask.frame(), defocus_nm, mask_model), mask,
      mask_model);
}

/// \p fn's image, computed on a worker of a \p workers-thread pool. (A
/// parallel_for of one iteration would run it on the calling thread
/// instead.)
Image on_pool_worker(std::size_t workers, const std::function<Image()>& fn) {
  std::promise<Image> result;  // outlives the pool, which joins the job
  util::ThreadPool pool(workers);
  pool.submit([&] {
    try {
      result.set_value(fn());
    } catch (...) {
      result.set_exception(std::current_exception());
    }
  });
  return result.get_future().get();
}

double max_abs_diff(const Image& a, const Image& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    m = std::max(m, std::abs(a.values()[i] - b.values()[i]));
  }
  return m;
}

struct ProcessCorner {
  const char* name;
  OpticalSystem sys;
  double defocus_nm = 0.0;
  MaskModel mask;
};

ProcessCorner corner(const char* name) {
  ProcessCorner c;
  c.name = name;
  c.sys = test_optics();
  return c;
}

std::vector<ProcessCorner> process_corners() {
  std::vector<ProcessCorner> corners;
  corners.push_back(corner("annular_nominal"));
  {
    ProcessCorner c = corner("circular");
    c.sys.source.shape = SourceShape::kCircular;
    c.sys.source.sigma_outer = 0.60;
    corners.push_back(c);
  }
  {
    ProcessCorner c = corner("dipole_x");
    c.sys.source.shape = SourceShape::kDipoleX;
    corners.push_back(c);
  }
  {
    ProcessCorner c = corner("defocus");
    c.defocus_nm = 150.0;
    corners.push_back(c);
  }
  {
    ProcessCorner c = corner("coma");
    c.sys.aberrations.coma_x_nm = 20.0;
    c.sys.aberrations.coma_y_nm = -12.0;
    corners.push_back(c);
  }
  {
    ProcessCorner c = corner("astig_defocus");
    c.sys.aberrations.astig_nm = 15.0;
    c.defocus_nm = -100.0;
    corners.push_back(c);
  }
  {
    ProcessCorner c = corner("att_psm");
    c.mask.type = MaskType::kAttenuatedPsm;
    corners.push_back(c);
  }
  {
    ProcessCorner c = corner("psm_defocus_aberrated");
    c.mask.type = MaskType::kAttenuatedPsm;
    c.defocus_nm = 120.0;
    c.sys.aberrations.coma_y_nm = 10.0;
    corners.push_back(c);
  }
  return corners;
}

// Acceptance criterion: max aerial-intensity deviation vs Abbe <= 1e-3
// at ε = 1e-4, across source shapes, defocus, aberrations, and PSM.
TEST(Socs, MatchesAbbeAcrossProcessCorners) {
  const Frame frame = test_frame();
  const Image mask = test_mask(frame);
  for (const ProcessCorner& c : process_corners()) {
    KernelCache::instance().clear();
    const Image ref =
        aerial(ImagingMode::kAbbe, c.sys, mask, c.defocus_nm, c.mask);
    const Image img =
        aerial(ImagingMode::kSocs, c.sys, mask, c.defocus_nm, c.mask);
    EXPECT_LE(max_abs_diff(ref, img), 1e-3) << c.name;
  }
}

TEST(Socs, ClearFieldNormalizesToOne) {
  const Frame frame = test_frame(64);
  KernelCache::instance().clear();
  const Image img =
      aerial(ImagingMode::kSocs, test_optics(), Image(frame, 1.0));
  for (double v : img.values()) EXPECT_NEAR(v, 1.0, 1e-3);
}

// Truncation is a relative-eigenvalue cutoff (keep λ_k ≥ ε·λ_max), so
// the kept count tracks the continuous-TCC spectrum and SATURATES as
// the source grid densifies while |S| keeps growing — that gap is the
// whole speedup. (A captured-energy criterion would keep nearly all
// |S| eigenpairs at tight tolerances: the discrete spectrum's tail is
// flat, each coarsely-sampled source point carrying its own sliver.)
TEST(Socs, KernelSetCompressesDenseSource) {
  const Frame frame = test_frame();
  OpticalSystem dense = test_optics();
  dense.source.grid = 21;  // ~212 points — production-dense sampling
  const KernelSet set =
      build_socs_kernels(dense, frame, 0.0, SocsOptions{1e-3});
  EXPECT_EQ(set.source_points, sample_source(dense).size());
  EXPECT_GT(set.energy_captured, 0.97);
  EXPECT_LE(set.energy_captured, 1.0 + 1e-12);
  ASSERT_GE(set.kernels.size(), 1u);
  EXPECT_LT(set.kernels.size(), set.source_points / 3)
      << "dense-source kernel count should sit far below |S|";
  // Every kept weight clears the relative cutoff, descending, and each
  // kernel is unit-normalized (||φ_k||² = 1).
  const double lambda_max = set.kernels.front().weight;
  for (std::size_t k = 0; k < set.kernels.size(); ++k) {
    const Kernel& ker = set.kernels[k];
    EXPECT_GE(ker.weight, 1e-3 * lambda_max);
    if (k > 0) {
      EXPECT_LE(ker.weight, set.kernels[k - 1].weight);
    }
    double norm2 = 0.0;
    for (const Complex& v : ker.value) norm2 += std::norm(v);
    EXPECT_NEAR(norm2, 1.0, 1e-9);
  }
  // Saturation: nearly doubling the source density must not come close
  // to doubling the kernel count.
  OpticalSystem sparser = test_optics();
  sparser.source.grid = 15;
  const KernelSet half =
      build_socs_kernels(sparser, frame, 0.0, SocsOptions{1e-3});
  ASSERT_GE(set.source_points, half.source_points * 9 / 5);
  EXPECT_LE(set.kernels.size(), half.kernels.size() + 8);
}

/// FNV-1a over the bits of \p set: its support, energy_captured, and
/// every member's weight and values, in member order.
std::uint64_t kernel_set_hash(const KernelSet& set) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  };
  mix(set.support.data(), set.support.size() * sizeof(std::uint32_t));
  mix(&set.energy_captured, sizeof set.energy_captured);
  for (const Kernel& k : set.kernels) {
    mix(&k.weight, sizeof k.weight);
    mix(k.value.data(), k.value.size() * sizeof(Complex));
  }
  return h;
}

// The kernel builds are deterministic to the bit: these constants were
// recorded with GCC 12 at default x86-64 flags (no FMA, no contraction),
// like GoldenOutput's. A build change that moves any of them changes
// every image formed through the set.
TEST(Socs, KernelSetBitsArePinned) {
  Frame bench_frame;  // opcbench's work frame
  bench_frame.pixel_nm = 12.0;
  bench_frame.nx = 256;
  bench_frame.ny = 256;
  OpticalSystem dense;
  dense.source.grid = 21;
  EXPECT_EQ(kernel_set_hash(build_socs_kernels(dense, bench_frame, 0.0,
                                               SocsOptions{1e-2})),
            0xe8e105d92076cd8bULL)
      << "SOCS, opcbench's set";

  OpticalSystem coma = test_optics();
  coma.source.grid = 7;
  coma.aberrations.coma_x_nm = 15.0;
  EXPECT_EQ(kernel_set_hash(build_socs_kernels(coma, test_frame(), 120.0,
                                               SocsOptions{1e-3})),
            0x416d1070671f20ceULL)
      << "SOCS, defocus and coma";

  OpticalSystem dipole = test_optics();
  dipole.source.shape = SourceShape::kDipoleX;
  EXPECT_EQ(kernel_set_hash(build_socs_kernels(dipole, test_frame(), 0.0,
                                               SocsOptions{1e-3})),
            0xe54d3e9563ef9510ULL)
      << "SOCS, dipole";

  EXPECT_EQ(kernel_set_hash(build_abbe_kernels(dense, bench_frame, 80.0)),
            0xc162cf505fc40f43ULL)
      << "Abbe, dense source with defocus";
}

// The kept kernels are orthonormal: ⟨φ_j, φ_k⟩ = δ_jk over the support.
// The norms are checked above; the cross products catch a rotation
// applied on the wrong side of the eigenvector matrix. In focus the
// Gram is real, so the defocused set also catches a rotation of the
// eigenvectors by w where it takes w̄.
TEST(Socs, DenseKernelsAreOrthonormal) {
  OpticalSystem dense = test_optics();
  dense.source.grid = 21;
  for (double defocus_nm : {0.0, 120.0}) {
    const KernelSet set = build_socs_kernels(dense, test_frame(), defocus_nm,
                                             SocsOptions{1e-3});
    ASSERT_GE(set.kernels.size(), 2u);
    for (std::size_t j = 0; j < set.kernels.size(); ++j) {
      for (std::size_t k = j + 1; k < set.kernels.size(); ++k) {
        Complex dot{0.0, 0.0};
        for (std::size_t i = 0; i < set.support.size(); ++i) {
          dot += std::conj(set.kernels[j].value[i]) * set.kernels[k].value[i];
        }
        EXPECT_LT(std::abs(dot), 1e-10)
            << "defocus " << defocus_nm << ", kernels " << j << ", " << k;
      }
    }
  }
}

TEST(Socs, TighterEpsilonKeepsMoreKernels) {
  const Frame frame = test_frame();
  OpticalSystem sys = test_optics();
  sys.source.grid = 9;
  const KernelSet coarse =
      build_socs_kernels(sys, frame, 0.0, SocsOptions{1e-2});
  const KernelSet fine =
      build_socs_kernels(sys, frame, 0.0, SocsOptions{1e-6});
  EXPECT_LT(coarse.kernels.size(), fine.kernels.size());
  EXPECT_GE(fine.energy_captured, coarse.energy_captured);
}

TEST(Socs, KernelCacheReusesSetsAcrossImagersAndDefocus) {
  const Frame frame = test_frame(64);
  const OpticalSystem sys = test_optics();
  const Image mask = test_mask(frame);
  KernelCache::instance().clear();
  const auto before = trace::metrics().snapshot();

  aerial(ImagingMode::kSocs, sys, mask);
  aerial(ImagingMode::kSocs, sys, mask);         // hit
  aerial(ImagingMode::kSocs, sys, mask);         // hit (process-wide)
  aerial(ImagingMode::kSocs, sys, mask, 150.0);  // new defocus -> new set
  Frame shifted = frame;
  shifted.origin = {1000, -3000};  // origin is NOT part of the key
  const std::vector<geom::Rect> far_rects = {
      geom::Rect(1100, -2900, 1300, -2500)};
  aerial(ImagingMode::kSocs, sys,
         rasterize(geom::Region::from_rects(far_rects), shifted));  // hit

  const KernelCache::Stats stats = KernelCache::instance().stats();
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(KernelCache::instance().size(), 2u);

  const auto delta =
      trace::MetricsSnapshot::delta(before, trace::metrics().snapshot());
  EXPECT_EQ(delta.counters.at(trace::metric::kLithoSocsKernelSetsBuilt), 2u);
  EXPECT_EQ(delta.counters.at(trace::metric::kLithoSocsCacheHits), 3u);
  EXPECT_GE(delta.counters.at(trace::metric::kLithoSocsKernelsBuilt), 2u);
  EXPECT_GE(delta.gauges.at(trace::metric::kLithoSocsEnergyCaptured),
            2.0 * 0.99);
}

// The Abbe sets are built once per (optics, frame shape, defocus) and
// shared by every image and every Simulator; neither the frame origin
// nor the mask model is part of the key.
TEST(Socs, PupilCacheSharesEntriesAcrossImagers) {
  const Frame frame = test_frame(64);
  const OpticalSystem sys = test_optics();
  const Image mask = test_mask(frame);
  PupilCache& cache = PupilCache::instance();
  cache.clear();
  const auto entry = cache.get(sys, frame, 0.0);
  EXPECT_EQ(entry->kernels.size(), sample_source(sys).size());
  const Image ref = form_image(*entry, mask);
  MaskModel psm;
  psm.type = MaskType::kAttenuatedPsm;
  EXPECT_EQ(kernel_set(ImagingMode::kAbbe, sys, frame, 0.0, psm), entry);
  EXPECT_EQ(aerial(ImagingMode::kAbbe, sys, mask).values(), ref.values());
  Frame shifted = frame;
  shifted.origin = {1000, -3000};
  EXPECT_EQ(cache.get(sys, shifted, 0.0), entry);
  EXPECT_EQ(cache.size(), 1u);
  (void)aerial(ImagingMode::kAbbe, sys, mask, 150.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().hits, 3u);

  // Two Simulators over same-size windows share one set.
  cache.clear();
  SimSpec spec;
  spec.optics = sys;
  const geom::Rect window(0, 0, 400, 400);
  const geom::Region line{geom::Rect(100, 0, 280, 400)};
  (void)Simulator(spec, window).aerial(line);
  (void)Simulator(spec, window.translated({5000, 0}))
      .aerial(line.translated({5000, 0}));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().builds, 1u);
}

// The shared BuildOnceCache discipline (cache.h): first touches of one
// key racing from several threads build it once and all get the same
// entry, and clear() drops the entries and resets the stats.
TEST(Socs, BuildOnceCacheBuildsAConcurrentFirstTouchOnce) {
  const Frame frame = test_frame(64);
  const OpticalSystem sys = test_optics();
  PupilCache& cache = PupilCache::instance();
  cache.clear();
  constexpr std::size_t kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const KernelSet>> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[t] = cache.get(sys, frame, 0.0);
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().hits, kThreads - 1);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().builds, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_NE(cache.get(sys, frame, 0.0), seen[0]);  // rebuilt
  EXPECT_EQ(cache.stats().builds, 1u);
}

// An image forms on its caller's thread; its contract is bit-identical
// output whether that is the main thread or a worker of a pool of any
// size.
TEST(Socs, AbbeChunkedReductionDeterministicAcrossThreadCounts) {
  const Frame frame = test_frame();
  OpticalSystem sys = test_optics();
  sys.source.grid = 7;  // a denser source than test_optics()'s
  const Image mask = test_mask(frame);
  const Image ref = aerial(ImagingMode::kAbbe, sys, mask, 80.0);
  for (std::size_t workers : {1u, 2u, 8u}) {
    const Image img = on_pool_worker(
        workers, [&] { return aerial(ImagingMode::kAbbe, sys, mask, 80.0); });
    EXPECT_EQ(img.values(), ref.values()) << "workers=" << workers;
  }
}

TEST(Socs, SocsImageDeterministicAcrossThreadCounts) {
  const Frame frame = test_frame();
  const OpticalSystem sys = test_optics();
  const Image mask = test_mask(frame);
  KernelCache::instance().clear();
  const Image ref = aerial(ImagingMode::kSocs, sys, mask);
  for (std::size_t workers : {2u, 8u}) {
    const Image img = on_pool_worker(
        workers, [&] { return aerial(ImagingMode::kSocs, sys, mask); });
    EXPECT_EQ(img.values(), ref.values()) << "workers=" << workers;
  }
}

// Acceptance criterion: model OPC driven by SOCS converges to the same
// corrections as the Abbe reference within 0.5 nm of EPE.
TEST(Socs, ModelOpcEpeMatchesAbbeWithinHalfNanometer) {
  const std::vector<geom::Polygon> targets = {
      geom::Polygon(geom::Rect(-90, -600, 90, 600)),
      geom::Polygon(geom::Rect(270, -600, 430, 200))};
  const geom::Rect window(-600, -800, 900, 800);
  opc::ModelOpcSpec opc_spec;
  opc_spec.max_iterations = 6;

  litho::SimSpec abbe;
  abbe.optics.source.grid = 5;
  calibrate_threshold(abbe, 180, 360);
  litho::SimSpec socs = abbe;
  socs.imaging = ImagingMode::kSocs;
  calibrate_threshold(socs, 180, 360);  // calibrate under its own engine
  EXPECT_NEAR(abbe.resist.threshold, socs.resist.threshold, 1e-3);

  const auto ra = opc::run_model_opc(targets, abbe, window, opc_spec);
  const auto rs = opc::run_model_opc(targets, socs, window, opc_spec);
  EXPECT_NEAR(ra.final_iteration().rms_epe_nm,
              rs.final_iteration().rms_epe_nm, 0.5);
  EXPECT_NEAR(ra.final_iteration().max_abs_epe_nm,
              rs.final_iteration().max_abs_epe_nm, 0.5);
}

}  // namespace
}  // namespace opckit::litho

namespace opckit::opc {
namespace {

litho::SimSpec socs_sim() {
  litho::SimSpec sim;
  sim.optics.source.grid = 5;
  sim.imaging = litho::ImagingMode::kSocs;
  litho::calibrate_threshold(sim, 180, 360);
  return sim;
}

layout::Library socs_chip(int cols, int rows) {
  layout::Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  layout::make_chip(lib, "top", "leaf", cols, rows, {1400, 1800});
  return lib;
}

// The flow-level face of the determinism contract: a SOCS flat flow is
// byte-identical at jobs 1 and 8 (kernel sets shared across workers).
TEST(SocsFlow, FlatOutputIdenticalAcrossJobCounts) {
  FlowSpec spec;
  spec.sim = socs_sim();
  spec.opc.max_iterations = 3;
  spec.input_layer = layout::layers::kPoly;
  spec.output_layer = layout::layers::kPolyOpc;
  spec.cache = false;

  spec.jobs = 1;
  layout::Library serial = socs_chip(2, 2);
  run_flat_opc(serial, "top", spec);
  const auto ref_span = serial.at("top").shapes(spec.output_layer);
  const std::vector<geom::Polygon> ref(ref_span.begin(), ref_span.end());
  ASSERT_FALSE(ref.empty());

  spec.jobs = 8;
  layout::Library parallel = socs_chip(2, 2);
  run_flat_opc(parallel, "top", spec);
  const auto got_span = parallel.at("top").shapes(spec.output_layer);
  EXPECT_EQ(std::vector<geom::Polygon>(got_span.begin(), got_span.end()),
            ref);
}

TEST(SocsFlow, FingerprintChangesIffImagingKnobsChange) {
  FlowSpec base;
  const std::uint64_t fp = flow_fingerprint(base, "flat");
  EXPECT_EQ(flow_fingerprint(base, "flat"), fp);

  FlowSpec socs = base;
  socs.sim.imaging = litho::ImagingMode::kSocs;
  EXPECT_NE(flow_fingerprint(socs, "flat"), fp);

  FlowSpec eps = base;
  eps.sim.socs_epsilon = 1e-3;
  EXPECT_NE(flow_fingerprint(eps, "flat"), fp);
  EXPECT_NE(flow_fingerprint(eps, "flat"), flow_fingerprint(socs, "flat"));

  // Non-imaging, non-output-affecting knobs still leave it unchanged.
  FlowSpec jobs = base;
  jobs.jobs = 8;
  EXPECT_EQ(flow_fingerprint(jobs, "flat"), fp);
}

}  // namespace
}  // namespace opckit::opc
