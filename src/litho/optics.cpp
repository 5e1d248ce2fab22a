#include "litho/optics.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "litho/fft.h"
#include "util/check.h"

namespace opckit::litho {

double MaskModel::background_amplitude() const {
  if (type == MaskType::kBinary) return 0.0;
  OPCKIT_CHECK(background_transmission >= 0.0 &&
               background_transmission < 1.0);
  return -std::sqrt(background_transmission);
}

std::vector<SourcePoint> sample_source(const OpticalSystem& sys) {
  const SourceSpec& src = sys.source;
  OPCKIT_CHECK(src.grid >= 1);
  const bool dipole = src.shape == SourceShape::kDipoleX ||
                      src.shape == SourceShape::kDipoleY;
  const double r_out =
      dipole ? src.pole_center + src.pole_radius : src.sigma_outer;
  OPCKIT_CHECK(r_out > 0.0 && r_out <= 1.0);
  const double r_in =
      src.shape == SourceShape::kAnnular ? src.sigma_inner : 0.0;
  OPCKIT_CHECK(r_in >= 0.0 && r_in < r_out);
  const double f_na = sys.na / sys.wavelength_nm;  // pupil radius in 1/nm

  const auto inside = [&](double u, double v) {
    switch (src.shape) {
      case SourceShape::kCircular:
        return std::hypot(u, v) <= r_out;
      case SourceShape::kAnnular: {
        const double r = std::hypot(u, v);
        return r <= r_out && r >= r_in;
      }
      case SourceShape::kDipoleX:
        return std::hypot(u - src.pole_center, v) <= src.pole_radius ||
               std::hypot(u + src.pole_center, v) <= src.pole_radius;
      case SourceShape::kDipoleY:
        return std::hypot(u, v - src.pole_center) <= src.pole_radius ||
               std::hypot(u, v + src.pole_center) <= src.pole_radius;
    }
    return false;
  };

  std::vector<SourcePoint> pts;
  const int n = src.grid;
  // Dipoles need a finer raster than disc sources to land enough points
  // inside the small poles; scale the raster so the pole diameter spans
  // at least ~3 cells.
  // std::ceil, not a truncating cast: 3·r_out/radius = 10.2 must mean
  // 11 cells, or small poles land under the 3-cells-across guarantee.
  const int eff_n =
      dipole ? std::max<int>(n, static_cast<int>(std::ceil(
                                    3.0 * r_out / src.pole_radius))) : n;
  for (int j = 0; j < eff_n; ++j) {
    for (int i = 0; i < eff_n; ++i) {
      // Cell centers of an eff_n x eff_n raster over [-r_out, r_out]^2.
      const double u =
          eff_n == 1 ? 0.0
                     : -r_out + (2.0 * r_out) *
                                    (static_cast<double>(i) + 0.5) /
                                    static_cast<double>(eff_n);
      const double v =
          eff_n == 1 ? 0.0
                     : -r_out + (2.0 * r_out) *
                                    (static_cast<double>(j) + 0.5) /
                                    static_cast<double>(eff_n);
      if (!inside(u, v)) continue;
      pts.push_back({u * f_na, v * f_na, 1.0});
    }
  }
  OPCKIT_CHECK_MSG(!pts.empty(), "source sampling produced no points");
  const double w = 1.0 / static_cast<double>(pts.size());
  for (auto& p : pts) p.weight = w;
  return pts;
}

Complex pupil_transmission(const OpticalSystem& sys, double fx, double fy,
                           double defocus_nm) {
  const double f_cut = sys.na / sys.wavelength_nm;
  const double f_cut2 = f_cut * f_cut;
  const double f2 = fx * fx + fy * fy;
  if (f2 > f_cut2) return Complex{0.0, 0.0};  // outside pupil
  const double defocus_phase_scale =
      -std::numbers::pi * sys.wavelength_nm * defocus_nm;
  double phase = defocus_phase_scale * f2;
  const Aberrations& ab = sys.aberrations;
  if (ab.any()) {
    // Normalized pupil coordinates: u = cosθ·ρ, v = sinθ·ρ.
    const double wf_to_phase = 2.0 * std::numbers::pi / sys.wavelength_nm;
    const double u = fx / f_cut;
    const double v = fy / f_cut;
    const double rho2 = u * u + v * v;
    const double coma_radial = 3.0 * rho2 - 2.0;  // (3ρ³-2ρ)/ρ
    const double wavefront_nm =
        ab.coma_x_nm * coma_radial * u +
        ab.coma_y_nm * coma_radial * v +
        ab.astig_nm * (u * u - v * v);  // ρ²cos2θ
    phase += wf_to_phase * wavefront_nm;
  }
  return Complex{std::cos(phase), std::sin(phase)};
}

PupilKey pupil_key(const OpticalSystem& sys, const Frame& frame,
                   double defocus_nm) {
  return {sys.wavelength_nm,
          sys.na,
          static_cast<int>(sys.source.shape),
          sys.source.sigma_outer,
          sys.source.sigma_inner,
          sys.source.pole_center,
          sys.source.pole_radius,
          sys.source.grid,
          sys.aberrations.coma_x_nm,
          sys.aberrations.coma_y_nm,
          sys.aberrations.astig_nm,
          static_cast<std::uint64_t>(frame.nx),
          static_cast<std::uint64_t>(frame.ny),
          frame.pixel_nm,
          defocus_nm};
}

SourcePupils source_pupils(const OpticalSystem& sys, const Frame& frame,
                           double defocus_nm) {
  OPCKIT_CHECK_MSG(is_pow2(frame.nx) && is_pow2(frame.ny),
                   "frame dims must be powers of two, got "
                       << frame.nx << 'x' << frame.ny);
  std::vector<double> freq_x(frame.nx), freq_y(frame.ny);
  for (std::size_t k = 0; k < frame.nx; ++k) {
    freq_x[k] = fft_freq(k, frame.nx) / frame.pixel_nm;
  }
  for (std::size_t k = 0; k < frame.ny; ++k) {
    freq_y[k] = fft_freq(k, frame.ny) / frame.pixel_nm;
  }
  // pupil_transmission's cutoff. A bin whose fx² or fy² alone exceeds
  // it is outside the pupil (fx*fx + fy*fy rounds to at least either
  // square), so those rows and columns are skipped without a call.
  const double f_cut = sys.na / sys.wavelength_nm;
  const double f_cut2 = f_cut * f_cut;
  SourcePupils p;
  p.source = sample_source(sys);
  p.support.resize(p.source.size());
  p.value.resize(p.source.size());
  for (std::size_t s = 0; s < p.source.size(); ++s) {
    const SourcePoint& sp = p.source[s];
    for (std::size_t ky = 0; ky < frame.ny; ++ky) {
      const double fy = freq_y[ky] + sp.fy;
      if (fy * fy > f_cut2) continue;
      for (std::size_t kx = 0; kx < frame.nx; ++kx) {
        const double fx = freq_x[kx] + sp.fx;
        if (fx * fx > f_cut2) continue;
        const Complex t = pupil_transmission(sys, fx, fy, defocus_nm);
        if (t == Complex{0.0, 0.0}) continue;  // outside pupil
        p.support[s].push_back(static_cast<std::uint32_t>(ky * frame.nx + kx));
        p.value[s].push_back(t);
      }
    }
  }
  return p;
}

std::vector<SparseInverseBatch::Member> intensity_terms(const KernelSet& set) {
  std::vector<SparseInverseBatch::Member> terms;
  terms.reserve(set.kernels.size());
  for (const Kernel& k : set.kernels) terms.push_back({k.value, k.weight});
  return terms;
}

KernelSet build_abbe_kernels(const OpticalSystem& sys, const Frame& frame,
                             double defocus_nm) {
  const SourcePupils pupils = source_pupils(sys, frame, defocus_nm);
  KernelSet set;
  for (const std::vector<std::uint32_t>& support : pupils.support) {
    set.support.insert(set.support.end(), support.begin(), support.end());
  }
  std::sort(set.support.begin(), set.support.end());
  set.support.erase(std::unique(set.support.begin(), set.support.end()),
                    set.support.end());
  set.kernels.reserve(pupils.source.size());
  for (std::size_t s = 0; s < pupils.source.size(); ++s) {
    Kernel member{pupils.source[s].weight,
                  std::vector<Complex>(set.support.size())};
    // Both supports ascend, so each bin lies past the one before it.
    auto at = set.support.begin();
    for (std::size_t j = 0; j < pupils.support[s].size(); ++j) {
      at = std::lower_bound(at, set.support.end(), pupils.support[s][j]);
      member.value[static_cast<std::size_t>(at - set.support.begin())] =
          pupils.value[s][j];
    }
    set.kernels.push_back(std::move(member));
  }
  set.energy_captured = 1.0;
  set.source_points = pupils.source.size();
  set.band.emplace(
      BandGrid::of_supports(frame.nx, frame.ny, {&set.support, 1}),
      set.support);
  return set;
}

std::shared_ptr<const KernelSet> PupilCache::get(const OpticalSystem& sys,
                                                 const Frame& frame,
                                                 double defocus_nm) {
  return get_or_build(pupil_key(sys, frame, defocus_nm), [&] {
    return build_abbe_kernels(sys, frame, defocus_nm);
  });
}

Image form_image(const KernelSet& set, const Image& mask,
                 const MaskModel& mask_model, double diffusion_nm) {
  const BandBatch& batch = *set.band;
  const BandGrid& band = batch.band();
  const BandSpectrum spectrum =
      band.mask_spectrum(mask, mask_model.background_amplitude());
  std::vector<double> intensity(band.mx() * band.my(), 0.0);
  batch.accumulate_intensity(spectrum, intensity_terms(set), intensity);
  return band.frame_image(mask.frame(), std::move(intensity), diffusion_nm);
}

}  // namespace opckit::litho
