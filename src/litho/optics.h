/// \file optics.h
/// Partially coherent projection imaging: the optical system, its
/// kernel sets, and the one routine that forms every image.
///
/// Model: scalar, paraxial, aberration-free projection optics with a
/// binary circular pupil of numerical aperture NA at wavelength λ, and an
/// extended incoherent source (circular or annular, parameterized by the
/// partial-coherence factors σ). Defocus enters as the paraxial pupil
/// phase exp(-iπλz|f|²). Every image is a weighted sum of coherent
/// images over a kernel set,
///
///     I(x) = Σ_k w_k · |IFFT(spectrum · φ_k)(x)|²,
///
/// and the two imaging modes differ only in how the set is built. Abbe's
/// (build_abbe_kernels, the reference) has one member per source point:
/// φ_s is the pupil shifted by the source point's spatial frequency and
/// w_s its weight — exact for Koehler illumination, no TCC truncation
/// error. SOCS's (socs.h) compresses the same sum into a few
/// eigen-kernels. form_image runs either set.
///
/// Mask convention: the transmission function is the area coverage of the
/// drawn/mask polygons (features transmit, background dark), so printed
/// resist regions are where intensity exceeds the resist threshold. Clear
/// field (all-transmitting mask) normalizes to intensity 1.0.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "geometry/rect.h"
#include "litho/band.h"
#include "litho/cache.h"
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
/// the Abbe and SOCS kernel sets are built from; keeping one definition
/// guarantees the two agree on the physics bit-for-bit.
Complex pupil_transmission(const OpticalSystem& sys, double fx, double fy,
                           double defocus_nm);

/// What a kernel set depends on besides the mask model and the SOCS ε:
/// the optical system, the frame's shape and pixel (not its origin —
/// the set lives in frequency space and is translation-invariant) and
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
/// there. The one pupil scan behind both kernel sets: the Abbe set's
/// members and, scaled by sqrt(w_s), the SOCS Gram's vectors.
struct SourcePupils {
  std::vector<SourcePoint> source;                ///< sample_source(sys)
  std::vector<std::vector<std::uint32_t>> support;  ///< per source point
  std::vector<std::vector<Complex>> value;  ///< aligned with support
};

/// Evaluate pupil_transmission for every source point on every frame
/// bin that can lie inside the pupil (rows and columns whose fy² or fx²
/// alone exceeds the cutoff are skipped). Frame dims must be powers of
/// two. Deterministic.
SourcePupils source_pupils(const OpticalSystem& sys, const Frame& frame,
                           double defocus_nm);

/// One member of a kernel set: its weight w_k and its factors φ_k over
/// the set's support.
struct Kernel {
  double weight = 0.0;
  std::vector<Complex> value;  ///< aligned with KernelSet::support
};

/// The members of one image sum Σ_k w_k·|IFFT(spectrum·φ_k)|². All
/// members share one support, so the whole sum runs as one BandBatch:
/// one plan, one pruning structure, |kernels| same-size transforms.
struct KernelSet {
  std::vector<Kernel> kernels;
  std::vector<std::uint32_t> support;  ///< flat frame indices (ky*nx+kx)
  double energy_captured = 0.0;   ///< Σ kept w / Σ w before truncation
  std::size_t source_points = 0;  ///< |S| the set was built from
  /// The support re-indexed onto its band grid (band.h), built with the
  /// set: the batch every image through the set runs.
  std::optional<BandBatch> band;
};

/// The set's members as the terms of
/// SparseInverseBatch::accumulate_intensity over set.support: factors
/// φ_k, weight w_k, in member order. The spans view \p set.
std::vector<SparseInverseBatch::Member> intensity_terms(const KernelSet& set);

/// The Abbe kernel set, from the source_pupils scan: the support is the
/// union of the per-source supports, and member s is source point s —
/// its pupil transmission on that support (zero off its own) with the
/// source weight. Frame dims must be powers of two. Deterministic.
KernelSet build_abbe_kernels(const OpticalSystem& sys, const Frame& frame,
                             double defocus_nm);

/// Process-wide cache of Abbe kernel sets per PupilKey, on the
/// BuildOnceCache discipline (cache.h), shared across images, tiles and
/// flows. The frame origin and the mask model are not part of the key.
class PupilCache
    : public BuildOnceCache<PupilCache, PupilKey, KernelSet> {
 public:
  std::shared_ptr<const KernelSet> get(const OpticalSystem& sys,
                                       const Frame& frame,
                                       double defocus_nm);
};

/// The image of \p mask (coverage image on the set's frame shape: 1 =
/// feature, 0 = background; coverage c maps to the complex transmission
/// c + (1-c)·background_amplitude) through \p set, blurred by the
/// resist's Gaussian diffusion of \p diffusion_nm (0: the aerial image).
/// The three layers of band.h: the mask spectrum on the set's band, the
/// fused sum over its members on the band's M grid, the frame image.
/// The frame's dimensions are powers of two and the physics assumes
/// periodic boundary conditions — callers pad their window with a guard
/// band of at least the optical interaction range. Bit-deterministic at
/// any thread count.
Image form_image(const KernelSet& set, const Image& mask,
                 const MaskModel& mask_model = {}, double diffusion_nm = 0.0);

}  // namespace opckit::litho
