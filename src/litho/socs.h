/// \file socs.h
/// Sum-of-Coherent-Systems (SOCS) kernel imaging.
///
/// The Abbe kernel set (optics.h) has one member per source point —
/// dozens to hundreds of 2-D FFTs per image. SOCS compresses the same
/// partially coherent system into a handful of coherent kernels: stack
/// the source-weighted shifted pupils a_s(f) = sqrt(w_s)·P(f + f_s)
/// (the Abbe set's members, defocus and aberrations included), form
/// the |S|×|S| Hermitian Gram matrix G_st = <a_s, a_t>, and
/// eigendecompose it. Each eigenpair (λ_k, v_k) yields one coherent
/// kernel φ_k(f) = Σ_s v_k[s]·a_s(f) / sqrt(λ_k), and the aerial image
/// becomes
///
///     I(x) = Σ_k λ_k · |IFFT(spectrum · φ_k)(x)|²
///
/// — exact at full rank, and formed by the same form_image as Abbe's.
/// Truncation keeps every eigenpair with
/// λ_k ≥ ε·λ_max (a relative-eigenvalue cutoff, the classical SOCS
/// criterion). Empirically the maximum intensity deviation from the
/// Abbe image is of order ε in clear-field-normalized units: the
/// dropped modes are mutually incoherent and each contributes at most
/// ~λ_k/λ_max relative intensity anywhere in the frame.
///
/// A raw captured-energy criterion ("keep until Σλ ≥ (1−ε)·trace") is
/// deliberately NOT used: the discrete Gram's spectrum has a long flat
/// tail — each coarsely-sampled source point carries an independent
/// sliver of energy — so demanding 99.99 % energy keeps nearly all |S|
/// eigenpairs and compresses nothing, even though those tail modes are
/// oscillatory and contribute ~1e-4 of peak intensity. The relative
/// cutoff tracks image error, not bookkeeping energy; the achieved
/// energy fraction is still reported per set for observability.
///
/// Compression pays off when the source is sampled densely relative to
/// the frame's optical degrees of freedom: the kept-kernel count
/// saturates toward the continuous-TCC spectrum while the Abbe cost
/// keeps growing with |S| (measured sweeps in docs/EXPERIMENTS.md).
///
/// A build scans the Abbe set's shifted pupils (source_pupils), forms
/// the Gram matrix and runs an O(|S|³)-per-sweep Jacobi eigensolve of
/// it, nearly all of the build's time for a dense source (docs/PERF.md,
/// "SOCS kernel build").
/// A set is fully determined by (OpticalSystem, frame dims/pixel,
/// defocus, MaskModel, ε) — notably NOT by the frame origin — so a
/// process-wide KernelCache shares sets across tiles, OPC iterations,
/// and flow runs.
/// Everything here is deterministic: fixed sweep order in the
/// eigensolver, stable eigenvalue ordering, fixed-order image reduction.
#pragma once

#include <memory>
#include <tuple>

#include "litho/cache.h"
#include "litho/image.h"
#include "litho/optics.h"

namespace opckit::litho {

/// Which kernel set a Simulator images through. Abbe's is the reference
/// (one member per source point, exact); SOCS's is the production
/// hot-path approximation, opt-in per SimSpec.
enum class ImagingMode { kAbbe, kSocs };

/// SOCS truncation policy.
struct SocsOptions {
  /// Relative eigenvalue cutoff: keep every eigenpair with
  /// λ_k ≥ epsilon·λ_max. Maps ≈ one-to-one onto the maximum aerial-
  /// intensity deviation from the exact (Abbe) image, in clear-field
  /// units — ε = 1e-3 measures within ~1e-3 of Abbe while keeping
  /// roughly a quarter of a dense source's eigenpairs; ε = 1e-4 is
  /// near-exact with mild compression.
  double epsilon = 1e-4;
};

/// Build the SOCS kernel set from scratch (no cache): the kept
/// eigen-kernels φ_k with weights λ_k, in descending λ, on the union of
/// the shifted pupil supports (the Abbe set's support). Exposed for
/// tests; the imaging path goes through KernelCache. Frame dims must be
/// powers of two. Deterministic.
KernelSet build_socs_kernels(const OpticalSystem& sys, const Frame& frame,
                             double defocus_nm, const SocsOptions& opts);

/// Process-wide SOCS kernel-set cache, shared across tiles and OPC
/// iterations (one Simulator per flow worker, all hitting the same
/// optics/frame-shape key), on the BuildOnceCache discipline (cache.h):
/// entries are immutable shared_ptrs, so readers never block on a set
/// once it is built.
class KernelCache
    : public BuildOnceCache<KernelCache,
                            std::tuple<PupilKey,     // optics, frame, defocus
                                       int, double,  // mask model
                                       double>,      // ε
                            KernelSet> {
 public:
  KernelCache() : BuildOnceCache(trace::metric::kLithoSocsCacheHits) {}

  /// Return the kernel set for the given process key, building (and
  /// recording trace metrics) on first touch. The frame origin does not
  /// participate in the key: kernels live in frequency space and are
  /// translation-invariant.
  std::shared_ptr<const KernelSet> get(const OpticalSystem& sys,
                                       const Frame& frame, double defocus_nm,
                                       const MaskModel& mask,
                                       const SocsOptions& opts);
};

/// The kernel set of imaging \p mode for (sys, frame shape, defocus):
/// the Abbe set from PupilCache, or the SOCS set of \p mask and \p opts
/// from KernelCache.
std::shared_ptr<const KernelSet> kernel_set(ImagingMode mode,
                                            const OpticalSystem& sys,
                                            const Frame& frame,
                                            double defocus_nm,
                                            const MaskModel& mask = {},
                                            const SocsOptions& opts = {});

}  // namespace opckit::litho
