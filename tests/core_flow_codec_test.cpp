/// The FlowSpec field list (core/flow_codec.h) and what is derived from
/// it: every property here walks the list, so a field added to it is
/// covered without a test edit.
///
/// * a mixed field moves flow_fingerprint() for both flow kinds, an
///   unmixed one never does;
/// * every field on the wire survives encode -> decode, re-encodes byte
///   for byte and keeps its fingerprint; a local field stays off it;
/// * every enum at its count and every bounded field out of its bound is
///   refused at decode, naming the field;
/// * changing a carried-but-unmixed knob (or the library path) leaves a
///   small flat flow's GDSII output unchanged.
///
/// In service_test (label `service`), beside the wire-protocol corpus,
/// so the ASan and TSan `-L service` gates run it.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/flow_codec.h"
#include "layout/gdsii.h"
#include "layout/generators.h"
#include "litho/litho.h"
#include "mrc/mrc.h"
#include "pattern/library.h"
#include "util/check.h"

namespace opckit::opc {
namespace {

// ---- walking the list -------------------------------------------------

struct FieldRef {
  std::string name;
  FieldRole role = FieldRole::kLocal;
};

std::vector<FieldRef> field_list() {
  std::vector<FieldRef> out;
  FlowSpec spec;
  visit_flow_fields(spec, [&out](auto role, const char* name, auto&,
                                 FieldBound) {
    out.push_back({name, decltype(role)::value});
  });
  return out;
}

// One visible change per C++ type, inside every decode bound.
void nudge(double& v) { v += 0.125 * std::max(1.0, std::abs(v)); }
void nudge(int& v) { ++v; }
void nudge(geom::Coord& v) { ++v; }
void nudge(std::uint16_t& v) { ++v; }
void nudge(bool& v) { v = !v; }
void nudge(std::string& v) { v += "x"; }
void nudge(mrc::Deck& deck) {
  deck.push_back({mrc::CheckKind::kSpace, "mrc.space.90", 90});
}
template <typename E>
  requires std::is_enum_v<E>
void nudge(E& v) {
  v = static_cast<E>((static_cast<int>(v) + 1) % enum_count(E{}));
}
template <typename T>
void nudge(const T*& p) {
  static const T instance{};
  p = &instance;
}
template <typename Sig>
void nudge(std::function<Sig>& f) {
  f = [](const auto&...) {};
}

/// \p base with field \p k of the list nudged, and nothing else.
FlowSpec with_nudged(const FlowSpec& base, std::size_t k) {
  FlowSpec spec = base;
  std::size_t index = 0;
  visit_flow_fields(spec, [&](auto, const char*, auto& field, FieldBound) {
    if (index++ == k) nudge(field);
  });
  return spec;
}

FlowSpec decode(const std::vector<std::uint8_t>& bytes) {
  return decode_flow_spec(bytes.data(), bytes.size());
}

TEST(FlowFieldList, NamesEachFieldOnce) {
  const std::vector<FieldRef> fields = field_list();
  std::set<std::string> names;
  for (const FieldRef& f : fields) {
    EXPECT_TRUE(names.insert(f.name).second) << f.name << " listed twice";
  }
  // The library's path and the store knobs are host-local: off the wire
  // and out of the identity.
  for (const FieldRef& f : fields) {
    if (f.name == "library_path" || f.name == "store_path" ||
        f.name == "resume") {
      EXPECT_EQ(f.role, FieldRole::kLocal) << f.name;
    }
    if (f.name == "library_budget") {
      EXPECT_EQ(f.role, FieldRole::kMixed);
    }
  }
}

TEST(FlowFieldList, MixedFieldsMoveTheFingerprintForBothKinds) {
  const FlowSpec base;
  const std::vector<FieldRef> fields = field_list();
  std::size_t mixed = 0;
  for (std::size_t k = 0; k < fields.size(); ++k) {
    if (fields[k].role != FieldRole::kMixed) continue;
    ++mixed;
    const FlowSpec spec = with_nudged(base, k);
    for (const char* kind : {"flat", "cell"}) {
      EXPECT_NE(flow_fingerprint(spec, kind), flow_fingerprint(base, kind))
          << fields[k].name << " (" << kind << ")";
    }
  }
  EXPECT_GT(mixed, 0u);
  EXPECT_NE(flow_fingerprint(base, "flat"), flow_fingerprint(base, "cell"));
}

TEST(FlowFieldList, UnmixedFieldsLeaveTheFingerprint) {
  const FlowSpec base;
  const std::vector<FieldRef> fields = field_list();
  for (std::size_t k = 0; k < fields.size(); ++k) {
    if (fields[k].role == FieldRole::kMixed) continue;
    const FlowSpec spec = with_nudged(base, k);
    for (const char* kind : {"flat", "cell"}) {
      EXPECT_EQ(flow_fingerprint(spec, kind), flow_fingerprint(base, kind))
          << fields[k].name << " (" << kind << ")";
    }
  }
}

TEST(FlowFieldList, EveryWireFieldRoundTripsAndLocalOnesStayOff) {
  const FlowSpec base;
  const std::vector<std::uint8_t> base_bytes = encode_flow_spec(base);
  ASSERT_EQ(encode_flow_spec(decode(base_bytes)), base_bytes);
  const std::vector<FieldRef> fields = field_list();
  for (std::size_t k = 0; k < fields.size(); ++k) {
    const FlowSpec spec = with_nudged(base, k);
    const std::vector<std::uint8_t> bytes = encode_flow_spec(spec);
    if (fields[k].role == FieldRole::kLocal) {
      EXPECT_EQ(bytes, base_bytes) << fields[k].name << " reached the wire";
      continue;
    }
    EXPECT_NE(bytes, base_bytes) << fields[k].name << " is not on the wire";
    const FlowSpec back = decode(bytes);
    EXPECT_EQ(encode_flow_spec(back), bytes) << fields[k].name;
    for (const char* kind : {"flat", "cell"}) {
      EXPECT_EQ(flow_fingerprint(back, kind), flow_fingerprint(spec, kind))
          << fields[k].name << " (" << kind << ")";
    }
  }
}

// ---- decode refusals, per field ---------------------------------------

/// Values of a field of type T that decode must refuse under \p bound.
template <typename T>
std::vector<T> refused_values(FieldBound bound) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  if constexpr (std::is_enum_v<T>) {
    return {static_cast<T>(enum_count(T{}))};
  } else if constexpr (std::is_floating_point_v<T>) {
    switch (bound) {
      case FieldBound::kNonNegative: return {-1.0, nan};
      case FieldBound::kPositive: return {0.0, -1.0, nan};
      case FieldBound::kOpenUnit: return {0.0, 1.0, nan};
      default: return {};
    }
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    const auto v = [](long long x) { return static_cast<T>(x); };
    switch (bound) {
      case FieldBound::kNonNegative: return {v(-1)};
      case FieldBound::kPositive: return {v(0), v(-1)};
      case FieldBound::kJobs:
        return {v(-1), v(kMaxJobs + 1), v(std::numeric_limits<int>::max())};
      default: return {};
    }
  } else {
    return {};
  }
}

/// Decodes \p spec's encoding and expects a refusal that names \p field.
void expect_refused(const FlowSpec& spec, const std::string& field) {
  const std::vector<std::uint8_t> bytes = encode_flow_spec(spec);
  try {
    decode(bytes);
    ADD_FAILURE() << field << ": out-of-range value decoded";
  } catch (const util::InputError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("flow spec codec: ", 0), 0u) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  }
}

TEST(FlowCodec, RefusesEveryEnumAtItsCountAndEveryBoundedFieldOutside) {
  const std::vector<FieldRef> fields = field_list();
  std::set<std::string> refused;
  for (std::size_t k = 0; k < fields.size(); ++k) {
    for (std::size_t variant = 0;; ++variant) {
      FlowSpec spec;
      bool set = false;
      std::size_t index = 0;
      visit_flow_fields(spec, [&](auto role, const char*, auto& field,
                                  FieldBound bound) {
        using T = std::remove_reference_t<decltype(field)>;
        if (index++ != k || decltype(role)::value == FieldRole::kLocal) {
          return;
        }
        const std::vector<T> values = refused_values<T>(bound);
        if (variant < values.size()) {
          field = values[variant];
          set = true;
        }
      });
      if (!set) break;
      expect_refused(spec, fields[k].name);
      refused.insert(fields[k].name);
    }
  }
  const std::set<std::string> expected = {
      "sim.optics.source.shape", "sim.mask.type", "sim.imaging",
      "engine", "mrc_action", "library_budget", "ilt_escalation_epe_nm",
      "ilt.max_iterations", "ilt.step", "ilt.sigmoid_steepness",
      "ilt.edge_weight", "ilt.edge_band_nm", "ilt.convergence_tol",
      "ilt.mask_threshold", "ilt.min_width_nm", "ilt.min_space_nm",
      "ilt.min_corner_nm", "ilt.min_area_nm2", "jobs"};
  EXPECT_EQ(refused, expected);
}

TEST(FlowCodec, RefusesAnMrcCheckKindAtItsCount) {
  FlowSpec spec;
  spec.mrc_deck.push_back(
      {static_cast<mrc::CheckKind>(enum_count(mrc::CheckKind{})),
       "mrc.bogus", 10});
  expect_refused(spec, "mrc_deck.kind");
}

TEST(FlowCodec, JobsDecodeUpToTheLimitOnly) {
  // Decode only: nothing here builds a pool at a hostile size.
  FlowSpec spec;
  for (int jobs : {0, 1, kMaxJobs}) {
    spec.jobs = jobs;
    EXPECT_EQ(decode(encode_flow_spec(spec)).jobs, jobs);
  }
  for (int jobs : {kMaxJobs + 1, std::numeric_limits<int>::max(), -1}) {
    spec.jobs = jobs;
    expect_refused(spec, "jobs");
  }
}

TEST(FlowCodec, RefusesTruncationAndTrailingBytes) {
  const std::vector<std::uint8_t> bytes = encode_flow_spec(FlowSpec{});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(decode_flow_spec(bytes.data(), len), util::InputError)
        << "prefix " << len;
  }
  std::vector<std::uint8_t> longer = bytes;
  longer.push_back(0);
  EXPECT_THROW(decode(longer), util::InputError);
}

// ---- output invariance under unmixed knobs ----------------------------

std::uint64_t gds_hash(const layout::Library& lib) {
  std::ostringstream os(std::ios::binary);
  layout::write_gdsii(lib, os);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : os.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Two context-coupled placements of a two-bar leaf.
std::uint64_t flat_flow_hash(const FlowSpec& spec) {
  layout::Library lib("chip");
  layout::Cell& leaf = lib.cell("leaf");
  leaf.add_rect(layout::layers::kPoly, geom::Rect(0, 0, 180, 1200));
  leaf.add_rect(layout::layers::kPoly, geom::Rect(540, 0, 720, 1200));
  layout::make_chip(lib, "top", "leaf", 2, 1, {1400, 1800});
  run_flat_opc(lib, "top", spec);
  return gds_hash(lib);
}

TEST(FlowFieldList, CarriedKnobsAndTheLibraryPathLeaveTheOutput) {
  // The carried fields this test changes; a field added to the carried
  // section must be added here too.
  std::set<std::string> carried;
  for (const FieldRef& f : field_list()) {
    if (f.role == FieldRole::kCarried) carried.insert(f.name);
  }
  EXPECT_EQ(carried, (std::set<std::string>{"preflight", "jobs", "cache",
                                            "mrc_deck", "mrc_action"}));

  FlowSpec base;
  base.sim.optics.source.grid = 5;
  litho::calibrate_threshold(base.sim, 180, 360);
  base.opc.max_iterations = 2;
  base.input_layer = layout::layers::kPoly;
  base.output_layer = layout::layers::kPolyOpc;
  const std::uint64_t ref = flat_flow_hash(base);

  FlowSpec jobs = base;
  jobs.jobs = 4;
  EXPECT_EQ(flat_flow_hash(jobs), ref) << "jobs 1 -> 4";
  FlowSpec no_cache = base;
  no_cache.cache = false;
  EXPECT_EQ(flat_flow_hash(no_cache), ref) << "cache off";
  FlowSpec no_preflight = base;
  no_preflight.preflight = false;
  EXPECT_EQ(flat_flow_hash(no_preflight), ref) << "preflight off";
  FlowSpec signoff = base;
  signoff.mrc_deck = mrc::mask_deck_180();
  signoff.mrc_action = mrc::Action::kWarn;
  EXPECT_EQ(flat_flow_hash(signoff), ref) << "MRC deck under kWarn";
  FlowSpec library = base;
  library.library_path = ::testing::TempDir() + "/codec_invariance.ocl";
  std::filesystem::remove(library.library_path);
  ASSERT_EQ(library.library_budget, 0.0);
  EXPECT_EQ(flat_flow_hash(library), ref) << "library_path at budget 0";
  std::filesystem::remove(library.library_path);
}

}  // namespace
}  // namespace opckit::opc
