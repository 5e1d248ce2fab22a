/// \file flow_codec.h
/// The FlowSpec field list, and what is derived from it: the versioned
/// binary codec that ships jobs to the service daemon (src/service/),
/// and the job identity flow_fingerprint() (core/flow.h).
///
/// visit_flow_fields() names every member of FlowSpec and of the structs
/// nested in it, once, with its role (FieldRole): *mixed* fields are on
/// the wire and in the identity (optical model, resist, mask stack, OPC
/// recipe, fragmentation, halo, layers, pass count, engine and ILT
/// knobs, library_budget); *carried* fields are on the wire only (jobs,
/// cache, preflight, the MRC signoff deck and action); *local* fields
/// are neither (library_path and the service hooks belong to the
/// executing process). Member-count static_asserts below
/// the list fail the build when FlowSpec, or a struct nested in it,
/// gains a member the list does not name.
///
/// Wire layout (version 4, little-endian): u16 version, the mixed
/// fields in list order, then the carried ones. double goes as its
/// IEEE-754 bits, int as u32, geom::Coord as i64, std::uint16_t as u16,
/// bool and enums as a range-checked u8, the MRC deck as a u32 count of
/// {u8 kind, i64 value, counted name}. Decoding is bounds-checked
/// (store::store_detail::ByteReader) and checks each field's FieldBound:
/// a malformed spec throws util::InputError ("flow spec codec: …")
/// before anything out of range is read or allocated.
///
/// flow_fingerprint(spec, kind) is FNV-1a over the flow kind and the
/// mixed section of this encoding, so no field reaches the identity
/// without reaching the wire. decode(encode(spec)) re-encodes byte for
/// byte and keeps the fingerprint (tests/core_flow_codec_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/flow.h"

namespace opckit::opc {

/// Decode limits: an MRC deck longer than kMaxDeckChecks, or a `jobs`
/// outside [0, kMaxJobs] (core/flow.h), is refused, so a bad frame fails
/// at decode rather than at the flow.
inline constexpr std::uint32_t kMaxDeckChecks = 100000;

/// How a FlowSpec field takes part in the wire form and the identity.
enum class FieldRole {
  kMixed,    ///< on the wire and in flow_fingerprint()
  kCarried,  ///< on the wire only
  kLocal,    ///< neither: owned by the executing process
};

/// The role as a type, so a visitor can skip local fields at compile
/// time (their types — hooks, pointers — have no wire form).
template <FieldRole R>
using Role = std::integral_constant<FieldRole, R>;

/// What decode_flow_spec() accepts for a numeric field.
enum class FieldBound {
  kAny,          ///< every value of the type
  kNonNegative,  ///< >= 0; NaN refused
  kPositive,     ///< > 0; NaN refused
  kOpenUnit,     ///< in (0, 1); NaN refused
  kJobs,         ///< in [0, kMaxJobs]
};

/// Enumerator count of each enum-typed field: decode accepts the values
/// 0 .. count-1. An enum field without an overload does not compile.
constexpr std::uint8_t enum_count(litho::SourceShape) { return 4; }
constexpr std::uint8_t enum_count(litho::MaskType) { return 2; }
constexpr std::uint8_t enum_count(litho::ImagingMode) { return 2; }
constexpr std::uint8_t enum_count(mrc::CheckKind) { return 7; }
constexpr std::uint8_t enum_count(mrc::Action) { return 2; }
constexpr std::uint8_t enum_count(CorrectionEngine) { return 3; }

/// The FlowSpec field list. Calls
/// `visit(Role<R>{}, name, field, bound)` once per field of \p s, in
/// wire order; \p Spec is FlowSpec or const FlowSpec.
template <typename Spec, typename Visit>
void visit_flow_fields(Spec& s, Visit&& visit) {
  const auto mixed = [&](const char* name, auto& field,
                         FieldBound bound = FieldBound::kAny) {
    visit(Role<FieldRole::kMixed>{}, name, field, bound);
  };
  const auto carried = [&](const char* name, auto& field,
                           FieldBound bound = FieldBound::kAny) {
    visit(Role<FieldRole::kCarried>{}, name, field, bound);
  };
  const auto local = [&](const char* name, auto& field) {
    visit(Role<FieldRole::kLocal>{}, name, field, FieldBound::kAny);
  };
  using enum FieldBound;

  auto& frag = s.opc.fragmentation;
  mixed("opc.fragmentation.target_length", frag.target_length);
  mixed("opc.fragmentation.corner_length", frag.corner_length);
  mixed("opc.fragmentation.min_length", frag.min_length);
  mixed("opc.fragmentation.line_end_max", frag.line_end_max);
  mixed("opc.max_iterations", s.opc.max_iterations);
  mixed("opc.gain", s.opc.gain);
  mixed("opc.max_move_per_iter", s.opc.max_move_per_iter);
  mixed("opc.max_total_offset", s.opc.max_total_offset);
  mixed("opc.epe_tolerance_nm", s.opc.epe_tolerance_nm);
  mixed("opc.probe_range_nm", s.opc.probe_range_nm);
  mixed("opc.grid_nm", s.opc.grid_nm);
  mixed("opc.min_mask_space_nm", s.opc.min_mask_space_nm);
  mixed("opc.min_tip_gap_nm", s.opc.min_tip_gap_nm);
  mixed("opc.corner_gain_scale", s.opc.corner_gain_scale);
  mixed("opc.corner_max_offset", s.opc.corner_max_offset);

  auto& optics = s.sim.optics;
  mixed("sim.optics.wavelength_nm", optics.wavelength_nm);
  mixed("sim.optics.na", optics.na);
  mixed("sim.optics.source.shape", optics.source.shape);
  mixed("sim.optics.source.sigma_outer", optics.source.sigma_outer);
  mixed("sim.optics.source.sigma_inner", optics.source.sigma_inner);
  mixed("sim.optics.source.pole_center", optics.source.pole_center);
  mixed("sim.optics.source.pole_radius", optics.source.pole_radius);
  mixed("sim.optics.source.grid", optics.source.grid);
  mixed("sim.optics.aberrations.coma_x_nm", optics.aberrations.coma_x_nm);
  mixed("sim.optics.aberrations.coma_y_nm", optics.aberrations.coma_y_nm);
  mixed("sim.optics.aberrations.astig_nm", optics.aberrations.astig_nm);
  mixed("sim.mask.type", s.sim.mask.type);
  mixed("sim.mask.background_transmission",
        s.sim.mask.background_transmission);
  mixed("sim.resist.threshold", s.sim.resist.threshold);
  mixed("sim.resist.diffusion_nm", s.sim.resist.diffusion_nm);
  mixed("sim.pixel_nm", s.sim.pixel_nm);
  mixed("sim.guard_nm", s.sim.guard_nm);
  mixed("sim.imaging", s.sim.imaging);
  mixed("sim.socs_epsilon", s.sim.socs_epsilon);

  mixed("halo_nm", s.halo_nm);
  mixed("input_layer.layer", s.input_layer.layer);
  mixed("input_layer.datatype", s.input_layer.datatype);
  mixed("output_layer.layer", s.output_layer.layer);
  mixed("output_layer.datatype", s.output_layer.datatype);
  mixed("flat_context_passes", s.flat_context_passes);
  // Warm starts move the solver's trajectory, so the budget that turns
  // them on is mixed; the library they come from is not (see
  // flow_fingerprint()).
  mixed("library_budget", s.library_budget, kNonNegative);
  mixed("engine", s.engine);
  mixed("ilt_escalation_epe_nm", s.ilt_escalation_epe_nm, kNonNegative);
  mixed("ilt.max_iterations", s.ilt.max_iterations, kPositive);
  mixed("ilt.step", s.ilt.step, kPositive);
  mixed("ilt.sigmoid_steepness", s.ilt.sigmoid_steepness, kPositive);
  mixed("ilt.edge_weight", s.ilt.edge_weight, kNonNegative);
  mixed("ilt.edge_band_nm", s.ilt.edge_band_nm, kNonNegative);
  mixed("ilt.convergence_tol", s.ilt.convergence_tol, kNonNegative);
  mixed("ilt.mask_threshold", s.ilt.mask_threshold, kOpenUnit);
  mixed("ilt.min_width_nm", s.ilt.min_width_nm, kPositive);
  mixed("ilt.min_space_nm", s.ilt.min_space_nm, kPositive);
  mixed("ilt.min_corner_nm", s.ilt.min_corner_nm, kPositive);
  mixed("ilt.min_area_nm2", s.ilt.min_area_nm2, kNonNegative);

  carried("preflight", s.preflight);
  carried("jobs", s.jobs, kJobs);
  carried("cache", s.cache);
  carried("mrc_deck", s.mrc_deck);
  carried("mrc_action", s.mrc_action);

  local("library_path", s.library_path);
  local("cancel", s.cancel);
  local("progress", s.progress);
  local("library", s.library);
  local("library_sink", s.library_sink);
}

namespace flow_fields_detail {
/// Converts to any member type, so `T{AnyMember{}...}` compiles for
/// exactly as many initializers as the aggregate T has members.
struct AnyMember {
  template <typename T>
  operator T() const;  // NOLINT(google-explicit-constructor): unevaluated
};

template <typename T, typename... Members>
consteval std::size_t member_count() {
  if constexpr (requires { T{Members{}..., AnyMember{}}; }) {
    return member_count<T, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

// A member added to FlowSpec, or to a struct nested in it, needs an
// entry in visit_flow_fields() (an MRC check member, in the deck codec);
// then update its count here.
static_assert(member_count<FlowSpec>() == 20);
static_assert(member_count<ModelOpcSpec>() == 12);
static_assert(member_count<FragmentationSpec>() == 4);
static_assert(member_count<litho::SimSpec>() == 7);
static_assert(member_count<litho::OpticalSystem>() == 4);
static_assert(member_count<litho::SourceSpec>() == 6);
static_assert(member_count<litho::Aberrations>() == 3);
static_assert(member_count<litho::MaskModel>() == 2);
static_assert(member_count<litho::ResistModel>() == 2);
static_assert(member_count<layout::Layer>() == 2);
static_assert(member_count<ilt::IltSpec>() == 11);
static_assert(member_count<mrc::Check>() == 3);
}  // namespace flow_fields_detail

/// Serialize \p spec's mixed and carried fields (see file comment).
std::vector<std::uint8_t> encode_flow_spec(const FlowSpec& spec);

/// Parse an encoded spec; local fields keep their defaults. Throws
/// util::InputError on any malformation: unknown version, an enum or a
/// bounded field out of range, truncated buffer, trailing bytes.
FlowSpec decode_flow_spec(const std::uint8_t* data, std::size_t size);

}  // namespace opckit::opc
