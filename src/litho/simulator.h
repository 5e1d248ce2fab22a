/// \file simulator.h
/// High-level lithography simulation facade.
///
/// Bundles optics + resist + grid policy behind the interface the OPC
/// engine and experiments consume: geometry in, latent image / printed
/// region / metrology probes out. The simulation window is padded with a
/// guard band (optical interaction range) and rounded to power-of-two
/// pixel dimensions so the FFT's periodic boundary never touches the
/// region of interest.
///
/// Thread safety: a constructed Simulator is immutable through its const
/// interface — aerial/latent/printed touch no mutable or static state
/// beyond the internally locked process caches, so distinct threads may
/// share one instance or build their own (the tiled flow driver in
/// core/flow.cpp runs one run_model_opc per worker, each constructing
/// its own Simulator). set_threshold is the one mutator; calibrate
/// before sharing. aerial() and latent() ask for the kernel set of
/// spec.imaging (Abbe's from PupilCache, SOCS's from KernelCache; each
/// built once per key and shared, as are the Gaussian transfers) and
/// form every image through form_image on the set's band-limited grid
/// (band.h). Every image forms on the calling thread, members in a
/// fixed order, so results are bit-identical on any thread; the flow
/// runs images in parallel only by running tiles in parallel.
#pragma once

#include <span>

#include "geometry/geometry.h"
#include "litho/optics.h"
#include "litho/resist.h"
#include "litho/socs.h"

namespace opckit::litho {

/// Full process description: optics, mask technology, resist, and
/// discretization policy.
struct SimSpec {
  OpticalSystem optics;
  MaskModel mask;              ///< binary (default) or attenuated PSM
  ResistModel resist;
  double pixel_nm = 8.0;       ///< raster pixel (integer nm recommended)
  geom::Coord guard_nm = 800;  ///< padding beyond the window of interest
  /// Kernel set: kAbbe (reference, one FFT per source point) or kSocs
  /// (kernel compression, one FFT per kept eigen-kernel — within
  /// socs_epsilon in intensity, several times faster on dense sources).
  ImagingMode imaging = ImagingMode::kAbbe;
  /// SOCS relative-eigenvalue truncation ε (keep λ_k ≥ ε·λ_max; ≈ the
  /// max intensity deviation vs Abbe). Output-affecting; ignored by
  /// kAbbe. 1e-4 is near-exact; 1e-3 is the production speed setting.
  double socs_epsilon = 1e-4;
};

/// A simulation context bound to a physical window of interest.
class Simulator {
 public:
  /// Create a simulator whose frame covers \p window plus the guard band.
  Simulator(const SimSpec& spec, const geom::Rect& window);

  const SimSpec& spec() const { return spec_; }
  const Frame& frame() const { return frame_; }
  const geom::Rect& window() const { return window_; }

  /// Resist development threshold at relative dose \p dose.
  double threshold(double dose = 1.0) const {
    return spec_.resist.threshold_at_dose(dose);
  }
  /// Replace the resist threshold (used by calibration).
  void set_threshold(double t) { spec_.resist.threshold = t; }

  /// Aerial image (before resist diffusion) of a mask region.
  Image aerial(const geom::Region& mask, double defocus_nm = 0.0) const;
  /// Latent image (aerial image + resist diffusion) of a mask region.
  Image latent(const geom::Region& mask, double defocus_nm = 0.0) const;
  /// Convenience overload for polygon lists.
  Image latent(std::span<const geom::Polygon> mask,
               double defocus_nm = 0.0) const;

  /// Resist contour as a pixel-quantized region (clipped to the window).
  geom::Region printed(const Image& latent_img, double dose = 1.0) const;

 private:
  /// The image of \p mask through the kernel set of spec.imaging,
  /// blurred by a Gaussian of \p diffusion_nm (0: the aerial image).
  Image image(const geom::Region& mask, double defocus_nm,
              double diffusion_nm) const;

  SimSpec spec_;
  geom::Rect window_;
  Frame frame_;
};

/// Double-exposure latent image: the resist integrates the dose of two
/// exposures — each with its own optics and mask — before developing
/// (the double-dipole-lithography model: one exposure per orientation).
/// Both specs must share pixel size and guard band; resist parameters are
/// taken from \p spec_a. Weights are the dose split (default 50/50).
Image double_exposure_latent(const SimSpec& spec_a,
                             const geom::Region& mask_a,
                             const SimSpec& spec_b,
                             const geom::Region& mask_b,
                             const geom::Rect& window,
                             double weight_a = 0.5, double weight_b = 0.5,
                             double defocus_nm = 0.0);

/// Calibrate \p spec's resist threshold so that the center line of a dense
/// grating (width \p anchor_cd_nm at pitch \p anchor_pitch_nm) prints at
/// exactly its drawn width at nominal focus/dose. This is the standard
/// "anchor feature" calibration every OPC model starts from. Returns the
/// calibrated threshold (also written into \p spec).
double calibrate_threshold(SimSpec& spec, geom::Coord anchor_cd_nm,
                           geom::Coord anchor_pitch_nm);

}  // namespace opckit::litho
