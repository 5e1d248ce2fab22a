/// \file optics.h
/// Partially coherent projection imaging by Abbe source-point integration.
///
/// Model: scalar, paraxial, aberration-free projection optics with a
/// binary circular pupil of numerical aperture NA at wavelength λ, and an
/// extended incoherent source (circular or annular, parameterized by the
/// partial-coherence factors σ). The aerial image is the source-weighted
/// average of coherent images, each formed by shifting the pupil by the
/// source point's spatial frequency (Abbe's method — exact for Koehler
/// illumination, no TCC truncation error). Defocus enters as the paraxial
/// pupil phase exp(-iπλz|f|²).
///
/// Mask convention: the transmission function is the area coverage of the
/// drawn/mask polygons (features transmit, background dark), so printed
/// resist regions are where intensity exceeds the resist threshold. Clear
/// field (all-transmitting mask) normalizes to intensity 1.0.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "geometry/rect.h"
#include "litho/band.h"
#include "litho/fft.h"
#include "litho/image.h"

namespace opckit::litho {

/// Illumination source shapes. Dipoles put two poles on one axis: a
/// kDipoleX source (poles at ±σ_center on the x-axis) maximizes contrast
/// for vertical (y-running) lines and destroys it for horizontal ones —
/// the asymmetry double-dipole lithography (DDL) exploits by splitting
/// the layout into two exposures.
enum class SourceShape { kCircular, kAnnular, kDipoleX, kDipoleY };

/// Mask technologies. Binary chrome-on-glass transmits 1 inside features
/// and 0 outside; attenuated (embedded) phase-shift masks replace chrome
/// with a weakly transmitting 180°-phase film, which sharpens the image
/// edge slope — the RET companion to OPC in this era.
enum class MaskType { kBinary, kAttenuatedPsm };

/// Mask-stack description.
struct MaskModel {
  MaskType type = MaskType::kBinary;
  /// Intensity transmission of the attenuated background (typically 6%).
  double background_transmission = 0.06;

  /// Complex background amplitude: 0 for binary, -sqrt(T) for att-PSM
  /// (the 180° phase shows up as the negative sign).
  double background_amplitude() const;
};

/// Extended-source description in partial-coherence units (σ = source
/// radius as a fraction of the pupil NA).
struct SourceSpec {
  SourceShape shape = SourceShape::kAnnular;
  double sigma_outer = 0.80;
  double sigma_inner = 0.50;  ///< ignored for kCircular / dipoles
  /// Dipole parameters: pole centers sit at ±pole_center on the dipole
  /// axis, each pole a disc of radius pole_radius (σ units).
  double pole_center = 0.65;
  double pole_radius = 0.20;
  /// Source is sampled on a grid x grid Cartesian raster over the outer
  /// square; points outside the shape are dropped. 7 gives ~30-40 points,
  /// converged for the feature scales in this library.
  int grid = 7;
};

/// Low-order Zernike aberrations of the projection pupil, as wavefront
/// error in nm evaluated on the normalized pupil radius ρ = |f|·λ/NA.
/// Coma shifts patterns (overlay-like error that OPC cannot anticipate);
/// astigmatism splits best focus between the two line orientations.
struct Aberrations {
  double coma_x_nm = 0.0;  ///< Z7-like: (3ρ³ − 2ρ)·cosθ
  double coma_y_nm = 0.0;  ///< Z8-like: (3ρ³ − 2ρ)·sinθ
  double astig_nm = 0.0;   ///< Z5-like: ρ²·cos2θ (0°/90° astigmatism)

  bool any() const {
    return coma_x_nm != 0.0 || coma_y_nm != 0.0 || astig_nm != 0.0;
  }
};

/// The projection system.
struct OpticalSystem {
  double wavelength_nm = 248.0;  ///< KrF
  double na = 0.68;
  SourceSpec source;
  Aberrations aberrations;

  /// Rayleigh resolution 0.61 λ/NA in nm.
  double rayleigh_nm() const { return 0.61 * wavelength_nm / na; }
  /// k1 factor of a feature of size \p cd_nm.
  double k1(double cd_nm) const { return cd_nm * na / wavelength_nm; }
};

/// One source sample: spatial-frequency offset in 1/nm plus quadrature
/// weight (uniform here; kept explicit for future apodized sources).
struct SourcePoint {
  double fx = 0.0;
  double fy = 0.0;
  double weight = 1.0;
};

/// Sample the source of \p sys into discrete points. Deterministic;
/// total weight normalized to 1. Throws if no point falls inside the
/// source shape (degenerate spec).
std::vector<SourcePoint> sample_source(const OpticalSystem& sys);

/// Complex pupil transmission at absolute spatial frequency (fx, fy) in
/// 1/nm — the caller applies any source-point shift before calling.
/// Zero outside the NA cutoff; inside, a unit-magnitude phase factor
/// combining the paraxial defocus term exp(-iπλz|f|²) with the Zernike
/// aberration phases of sys.aberrations. This is the single pupil model
/// shared by the Abbe and SOCS imaging engines; keeping one definition
/// guarantees the engines agree on the physics bit-for-bit.
Complex pupil_transmission(const OpticalSystem& sys, double fx, double fy,
                           double defocus_nm);

/// What the frequency-domain tables of an imaging engine depend on: the
/// optical system, the frame's shape and pixel (not its origin — the
/// tables live in frequency space and are translation-invariant) and
/// the defocus. A tuple, so it orders lexicographically (a defaulted
/// <=> over double members would yield std::partial_ordering).
using PupilKey = std::tuple<double, double,                      // λ, NA
                            int, double, double, double, double, int,  // source
                            double, double, double,              // aberrations
                            std::uint64_t, std::uint64_t, double,  // frame shape
                            double>;                             // defocus

PupilKey pupil_key(const OpticalSystem& sys, const Frame& frame,
                   double defocus_nm);

/// The sampled source of an optical system and, per source point s, its
/// shifted pupil P(f + f_s) on one frame: the frame bins (ky*nx + kx,
/// ascending) inside the shifted NA cutoff and the pupil transmission
/// there: the Abbe engine's per-source factors.
struct SourcePupils {
  std::vector<SourcePoint> source;                ///< sample_source(sys)
  std::vector<std::vector<std::uint32_t>> support;  ///< per source point
  std::vector<std::vector<Complex>> value;  ///< aligned with support
};

/// Evaluate pupil_transmission on every frame bin for every source
/// point. Frame dims must be powers of two. Deterministic.
SourcePupils source_pupils(const OpticalSystem& sys, const Frame& frame,
                           double defocus_nm);

/// What AbbeImager needs per PupilKey: the source pupils, the band of
/// all their supports (band.h), and each support re-indexed onto it.
struct AbbePupils {
  AbbePupils(const OpticalSystem& sys, const Frame& frame,
             double defocus_nm);

  SourcePupils pupils;
  BandGrid band;
  std::vector<BandBatch> batches;  ///< per source point
};

/// Process-wide cache of AbbePupils per PupilKey, shared across images,
/// tiles and flows — the KernelCache discipline: the first request for
/// a key builds it under the lock, every later request returns the same
/// immutable entry. Never evicts (a process sees a handful of distinct
/// keys at most).
class PupilCache {
 public:
  /// The process-wide instance.
  static PupilCache& instance();

  std::shared_ptr<const AbbePupils> get(const OpticalSystem& sys,
                                        const Frame& frame,
                                        double defocus_nm);

  std::size_t size() const;
  /// Drop all entries (test hook).
  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<PupilKey, std::shared_ptr<const AbbePupils>> sets_;
};

namespace detail {

/// Deterministic chunked reduction: acc[i] += Σ_u weight(u)·frame_u[i],
/// where frame_u is produced by compute(u, out) into a caller-invisible
/// scratch buffer of size \p n (compute must overwrite every element).
/// Units are computed in parallel (util::global_pool) but accumulated
/// serially in ascending unit order, chunked so at most a fixed small
/// number of frames is resident at once — O(chunk·n) peak instead of
/// the O(units·n) of materialize-everything, with a summation order
/// identical to it, so results are bit-identical at any thread count.
/// The Abbe engine's reduction: its source points have distinct
/// supports. SOCS kernels share one support, so SocsImager (and the
/// ILT cost) fuse the sum into SparseInverseBatch::accumulate_intensity
/// instead, with the same per-pixel order and no per-unit frames.
void weighted_intensity_sum(
    std::size_t units, std::size_t n,
    const std::function<void(std::size_t, std::vector<double>&)>& compute,
    const std::function<double(std::size_t)>& weight,
    std::vector<double>& acc);

}  // namespace detail

/// Abbe imaging engine bound to a pixel frame. The frame's dimensions
/// must be powers of two (the Simulator facade arranges this) and the
/// physics assumes periodic boundary conditions — callers must pad their
/// window with a guard band of at least the optical interaction range.
/// The per-source pupils come from the process-wide PupilCache, and
/// images are formed on their band grid (band.h).
class AbbeImager {
 public:
  AbbeImager(const OpticalSystem& sys, const Frame& frame);

  const OpticalSystem& system() const { return sys_; }
  const Frame& frame() const { return frame_; }

  /// Compute the aerial image of \p mask (coverage image on the same
  /// frame: 1 = feature, 0 = background) at \p defocus_nm, for the given
  /// mask technology. Coverage c maps to the complex transmission
  /// c + (1-c) * background_amplitude. Multi-threaded over source points;
  /// bit-deterministic (fixed summation order). The mask spectrum is
  /// computed on the pupils' band; each source point's coherent image
  /// runs as a sparse fused inverse over its shifted-pupil support on
  /// the band's M grid (rows without pupil bins are skipped exactly).
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
};

}  // namespace opckit::litho
