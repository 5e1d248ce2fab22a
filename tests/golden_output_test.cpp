/// Golden output hashes: the FNV-1a of the GDSII stream written by a
/// small SOCS flat flow (at jobs 1 and 4) and by a small escalate cell
/// flow (model OPC, then pixel ILT on the tiles it leaves behind). The
/// constants were recorded before the imaging transforms moved from
/// scalar std::complex butterflies to the lane-batched kernels, so a
/// pass here proves that rewrite moved no output byte.
///
/// Two more cases pin the merge phase's cache replays, which the first
/// two never reach (the flat case runs without the cache, and the
/// escalate chip has no two cells of equal geometry): a model-engine
/// cell flow over two cells with identical shapes, and a cached flat
/// flow over placements far enough apart that each sees no context.
/// Their constants were recorded before the cell and flat flows moved
/// onto one tiled driver.
///
/// The last case runs the SOCS flat case's chip and settings under the
/// Abbe engine, so Abbe flow output is pinned too. Its constant was
/// recorded before image formation moved onto the band-limited grid.
///
/// The constants are tied to the CI toolchain: GCC 12 with the default
/// x86-64 flags (no -march, no FMA contraction). Another compiler or
/// target may round differently and legitimately move them. They change
/// only in a change that means to move flow output, and that change says
/// so in CHANGES.md.
///
/// Labelled `socs` with the rest of socs_test (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/flow.h"
#include "layout/gdsii.h"
#include "layout/generators.h"
#include "litho/litho.h"

namespace opckit::opc {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t gds_hash(const layout::Library& lib) {
  std::ostringstream os(std::ios::binary);
  layout::write_gdsii(lib, os);
  return fnv1a(os.str());
}

litho::SimSpec golden_sim() {
  litho::SimSpec sim;
  sim.optics.source.grid = 5;
  sim.imaging = litho::ImagingMode::kSocs;
  sim.socs_epsilon = 1e-3;
  litho::calibrate_threshold(sim, 180, 360);
  return sim;
}

/// An array of one leaf mixing 1-D and 2-D content (two lines, a
/// line-end pair and a contact).
layout::Library leaf_array(const std::string& name, int cols, int rows,
                           const geom::Point& spacing) {
  layout::Library lib(name);
  layout::Cell& leaf = lib.cell("leaf");
  const layout::Layer layer = layout::layers::kPoly;
  leaf.add_rect(layer, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layer, geom::Rect(360, 0, 540, 520));
  leaf.add_rect(layer, geom::Rect(360, 780, 540, 1200));
  leaf.add_rect(layer, geom::Rect(720, 0, 900, 1200));
  leaf.add_rect(layer, geom::Rect(1100, 500, 1320, 720));
  layout::make_chip(lib, "top", "leaf", cols, rows, spacing);
  return lib;
}

/// A 2x2 leaf array close enough that neighbours couple inside the halo.
layout::Library flat_chip() {
  return leaf_array("golden_flat", 2, 2, {1500, 1400});
}

/// Two distinct hard cells, each placed twice: a tip-to-tip pair between
/// full-height neighbours and a 2x2 contact array.
layout::Library escalate_chip() {
  layout::Library lib("golden_escalate");
  const layout::Layer layer = layout::layers::kPoly;
  layout::Cell& t2t = lib.cell("tip2tip");
  t2t.add_rect(layer, geom::Rect(360, 0, 540, 540));
  t2t.add_rect(layer, geom::Rect(360, 800, 540, 1340));
  t2t.add_rect(layer, geom::Rect(0, 0, 180, 1340));
  t2t.add_rect(layer, geom::Rect(720, 0, 900, 1340));
  layout::add_contact_array(lib.cell("contacts"), layer, 220, 440, 2, 2);
  layout::Cell& top = lib.cell("top");
  const char* cells[] = {"tip2tip", "contacts", "tip2tip", "contacts"};
  for (int i = 0; i < 4; ++i) {
    layout::CellRef ref;
    ref.child = cells[i];
    ref.transform = geom::Transform(geom::Point{i * 4000, 0});
    top.add_ref(ref);
  }
  return lib;
}

/// Two cells with the same poly shapes under different names, plus one
/// distinct cell, each placed once: the second twin replays the first.
layout::Library twin_cell_chip() {
  layout::Library lib("golden_twins");
  const layout::Layer layer = layout::layers::kPoly;
  for (const char* name : {"twin_a", "twin_b"}) {
    layout::Cell& twin = lib.cell(name);
    twin.add_rect(layer, geom::Rect(0, 0, 180, 1200));
    twin.add_rect(layer, geom::Rect(400, 0, 580, 560));
    twin.add_rect(layer, geom::Rect(400, 820, 580, 1200));
  }
  layout::Cell& odd = lib.cell("odd");
  odd.add_rect(layer, geom::Rect(0, 0, 180, 1200));
  odd.add_rect(layer, geom::Rect(480, 0, 660, 1200));
  layout::Cell& top = lib.cell("top");
  const char* cells[] = {"twin_a", "odd", "twin_b"};
  for (int i = 0; i < 3; ++i) {
    layout::CellRef ref;
    ref.child = cells[i];
    ref.transform = geom::Transform(geom::Point{i * 3000, 0});
    top.add_ref(ref);
  }
  return lib;
}

/// A 3x2 leaf array at a pitch that leaves every placement alone inside
/// its halo, so all but the first replay.
layout::Library isolated_chip() {
  return leaf_array("golden_isolated", 3, 2, {4000, 4000});
}

FlowSpec base_spec() {
  FlowSpec spec;
  spec.sim = golden_sim();
  spec.input_layer = layout::layers::kPoly;
  spec.output_layer = layout::layers::kPolyOpc;
  return spec;
}

// Recorded with the scalar std::complex transform kernels.
constexpr std::uint64_t kFlatSocsHash = 0xb817c0a497cef143ull;
constexpr std::uint64_t kEscalateCellHash = 0xb2c5d0abffca604dull;
// Recorded with separate cell and flat flow drivers.
constexpr std::uint64_t kTwinCellHash = 0x191a34736f757b13ull;
constexpr std::uint64_t kIsolatedFlatHash = 0x2239690ba13e5089ull;
// Recorded with every image formed on the full frame grid.
constexpr std::uint64_t kAbbeFlatHash = 0xb817c0a497cef143ull;

TEST(GoldenOutput, SocsFlatFlowGdsHashAtJobs1And4) {
  FlowSpec spec = base_spec();
  spec.opc.max_iterations = 4;
  spec.cache = false;
  for (const int jobs : {1, 4}) {
    spec.jobs = jobs;
    layout::Library lib = flat_chip();
    const FlowStats stats = run_flat_opc(lib, "top", spec);
    EXPECT_GT(stats.simulations, 0u);
    EXPECT_EQ(gds_hash(lib), kFlatSocsHash)
        << "jobs=" << jobs << " hash=0x" << std::hex << gds_hash(lib);
  }
}

TEST(GoldenOutput, EscalateCellFlowGdsHash) {
  FlowSpec spec = base_spec();
  spec.engine = CorrectionEngine::kEscalate;
  spec.opc.max_iterations = 3;
  spec.ilt.max_iterations = 4;
  spec.ilt_escalation_epe_nm = 0.0;  // every capped model solve escalates
  layout::Library lib = escalate_chip();
  const FlowStats stats = run_cell_opc(lib, "top", spec);
  EXPECT_GT(stats.ilt_escalated, 0u);
  EXPECT_EQ(gds_hash(lib), kEscalateCellHash)
      << "hash=0x" << std::hex << gds_hash(lib);
}

TEST(GoldenOutput, ModelCellFlowWithTwinCellsGdsHash) {
  FlowSpec spec = base_spec();
  spec.opc.max_iterations = 4;
  layout::Library lib = twin_cell_chip();
  const FlowStats stats = run_cell_opc(lib, "top", spec);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.opc_runs, 2u);
  EXPECT_EQ(gds_hash(lib), kTwinCellHash)
      << "hash=0x" << std::hex << gds_hash(lib);
}

TEST(GoldenOutput, CachedFlatFlowWithIsolatedPlacementsGdsHash) {
  FlowSpec spec = base_spec();
  spec.opc.max_iterations = 4;
  layout::Library lib = isolated_chip();
  const FlowStats stats = run_flat_opc(lib, "top", spec);
  // Six placements over two passes, one fresh solve.
  EXPECT_EQ(stats.opc_runs, 1u);
  EXPECT_EQ(stats.cache_hits, 11u);
  EXPECT_EQ(gds_hash(lib), kIsolatedFlatHash)
      << "hash=0x" << std::hex << gds_hash(lib);
}

TEST(GoldenOutput, AbbeFlatFlowGdsHash) {
  FlowSpec spec = base_spec();
  spec.sim.imaging = litho::ImagingMode::kAbbe;
  spec.opc.max_iterations = 4;
  spec.cache = false;
  spec.jobs = 1;
  layout::Library lib = flat_chip();
  const FlowStats stats = run_flat_opc(lib, "top", spec);
  EXPECT_GT(stats.simulations, 0u);
  EXPECT_EQ(gds_hash(lib), kAbbeFlatHash)
      << "hash=0x" << std::hex << gds_hash(lib);
}

}  // namespace
}  // namespace opckit::opc
