/// \file socs.h
/// Sum-of-Coherent-Systems (SOCS) kernel imaging.
///
/// The Abbe engine pays one 2-D FFT per source point — dozens to
/// hundreds per image. SOCS compresses the same partially coherent
/// system into a handful of coherent kernels: stack the source-weighted
/// shifted pupils a_s(f) = sqrt(w_s)·P(f + f_s) (the exact per-source
/// factors AbbeImager applies, defocus and aberrations included), form
/// the |S|×|S| Hermitian Gram matrix G_st = <a_s, a_t>, and
/// eigendecompose it. Each eigenpair (λ_k, v_k) yields one coherent
/// kernel φ_k(f) = Σ_s v_k[s]·a_s(f) / sqrt(λ_k), and the aerial image
/// becomes
///
///     I(x) = Σ_k λ_k · |IFFT(spectrum · φ_k)(x)|²
///
/// — exact at full rank. Truncation keeps every eigenpair with
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
/// Kernel sets are expensive to build (Gram + Jacobi eigensolve) and
/// fully determined by (OpticalSystem, frame dims/pixel, defocus,
/// MaskModel, ε) — notably NOT by the frame origin — so a process-wide
/// KernelCache shares them across tiles, OPC iterations, and flow runs,
/// the same lifecycle shape as opc::CorrectionCache. Everything here is
/// deterministic: fixed sweep order in the eigensolver, stable
/// eigenvalue ordering, fixed-order image reduction.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "litho/band.h"
#include "litho/fft.h"
#include "litho/image.h"
#include "litho/optics.h"

namespace opckit::litho {

/// Which imaging engine a Simulator uses. Abbe is the reference
/// (source-point integration, exact); SOCS is the production hot-path
/// approximation, opt-in per SimSpec.
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

/// One coherent kernel: eigenvalue weight plus the kernel values over
/// the set's shared sparse support (SocsKernelSet::support).
struct SocsKernel {
  double weight = 0.0;         ///< eigenvalue λ_k
  std::vector<Complex> value;  ///< normalized φ_k, aligned with support
};

/// A full kernel set for one (optics, frame geometry, defocus, ε) key.
/// All kernels share one support — the union of the shifted pupil
/// supports — which is exactly what lets the imaging loop run as one
/// SparseInverseBatch: one plan, one pruning structure, |kernels|
/// same-size transforms.
struct SocsKernelSet {
  std::vector<SocsKernel> kernels;
  std::vector<std::uint32_t> support;  ///< flat frame indices (ky*nx+kx)
  double energy_captured = 0.0;   ///< Σ kept λ / trace(G), in [0, 1]
  std::size_t source_points = 0;  ///< |S| the set was compressed from
  /// The support re-indexed onto its band grid (band.h), built with the
  /// set: the batch every SocsImager image runs.
  std::optional<BandBatch> band;
};

/// The set's kernels as the terms of
/// SparseInverseBatch::accumulate_intensity over set.support: factors
/// φ_k, weight λ_k, in kernel order. The spans view \p set.
std::vector<SparseInverseBatch::Member> intensity_terms(
    const SocsKernelSet& set);

/// Build a kernel set from scratch (no cache). Exposed for tests; the
/// imaging path goes through KernelCache. Frame dims must be powers of
/// two. Deterministic.
SocsKernelSet build_socs_kernels(const OpticalSystem& sys, const Frame& frame,
                                 double defocus_nm, const SocsOptions& opts);

/// Process-wide kernel-set cache, shared across tiles and OPC
/// iterations (one Simulator per flow worker, all hitting the same
/// optics/frame-shape key). Thread-safe; entries are immutable
/// shared_ptrs so readers never block a concurrent build of a different
/// key's set. Never evicts — a process sees a handful of distinct
/// process keys at most.
class KernelCache {
 public:
  struct Stats {
    std::uint64_t sets_built = 0;
    std::uint64_t hits = 0;
  };

  /// The process-wide instance.
  static KernelCache& instance();

  /// Return the kernel set for the given process key, building (and
  /// recording trace metrics) on first touch. The frame origin does not
  /// participate in the key: kernels live in frequency space and are
  /// translation-invariant.
  std::shared_ptr<const SocsKernelSet> get(const OpticalSystem& sys,
                                           const Frame& frame,
                                           double defocus_nm,
                                           const MaskModel& mask,
                                           const SocsOptions& opts);

  Stats stats() const;
  std::size_t size() const;
  /// Drop all entries and reset stats (test hook).
  void clear();

 private:
  using Key = std::tuple<PupilKey,     // optics, frame shape, defocus
                         int, double,  // mask model
                         double>;      // ε

  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const SocsKernelSet>> sets_;
  Stats stats_;
};

/// SOCS imaging engine bound to a pixel frame — the drop-in fast
/// counterpart of AbbeImager (same frame contract: power-of-two dims,
/// periodic boundaries, caller-provided guard band). Kernel sets come
/// from the process-wide KernelCache, and images are formed on the
/// set's band grid (band.h).
///
/// Thread safety: immutable after construction; aerial_image touches
/// only the (internally locked) KernelCache plus locals, so distinct
/// threads may share one instance.
class SocsImager {
 public:
  SocsImager(const OpticalSystem& sys, const Frame& frame,
             const SocsOptions& opts = {});

  const OpticalSystem& system() const { return sys_; }
  const Frame& frame() const { return frame_; }
  const SocsOptions& options() const { return opts_; }

  /// Aerial image of \p mask (coverage image on the same frame) — same
  /// contract as AbbeImager::aerial_image, within ε in intensity.
  /// Multi-threaded over kernels; bit-deterministic (fixed reduction
  /// order). The mask spectrum is computed on the set's band and the
  /// per-kernel IFFTs run as one sparse batch on its M grid.
  Image aerial_image(const Image& mask, double defocus_nm = 0.0,
                     const MaskModel& mask_model = {}) const;

  /// The aerial image blurred by the resist's Gaussian diffusion of
  /// \p diffusion_nm (0: the aerial image), formed on the same band.
  Image latent_image(const Image& mask, double diffusion_nm,
                     double defocus_nm = 0.0,
                     const MaskModel& mask_model = {}) const;

 private:
  OpticalSystem sys_;
  Frame frame_;
  SocsOptions opts_;
};

}  // namespace opckit::litho
