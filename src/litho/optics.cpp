#include "litho/optics.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "litho/fft.h"
#include "util/check.h"
#include "util/thread_pool.h"

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
  SourcePupils p;
  p.source = sample_source(sys);
  p.support.resize(p.source.size());
  p.value.resize(p.source.size());
  for (std::size_t s = 0; s < p.source.size(); ++s) {
    const SourcePoint& sp = p.source[s];
    for (std::size_t ky = 0; ky < frame.ny; ++ky) {
      const double fy = freq_y[ky] + sp.fy;
      for (std::size_t kx = 0; kx < frame.nx; ++kx) {
        const double fx = freq_x[kx] + sp.fx;
        const Complex t = pupil_transmission(sys, fx, fy, defocus_nm);
        if (t == Complex{0.0, 0.0}) continue;  // outside pupil
        p.support[s].push_back(static_cast<std::uint32_t>(ky * frame.nx + kx));
        p.value[s].push_back(t);
      }
    }
  }
  return p;
}

AbbePupils::AbbePupils(const OpticalSystem& sys, const Frame& frame,
                       double defocus_nm)
    : pupils(source_pupils(sys, frame, defocus_nm)),
      band(BandGrid::of_supports(frame.nx, frame.ny, pupils.support)) {
  batches.reserve(pupils.support.size());
  for (const std::vector<std::uint32_t>& support : pupils.support) {
    batches.emplace_back(band, support);
  }
}

PupilCache& PupilCache::instance() {
  static PupilCache cache;
  return cache;
}

std::shared_ptr<const AbbePupils> PupilCache::get(const OpticalSystem& sys,
                                                  const Frame& frame,
                                                  double defocus_nm) {
  const PupilKey key = pupil_key(sys, frame, defocus_nm);
  // Build under the lock, as KernelCache does: a first touch blocks
  // peers for the one-time pupil scan instead of letting them
  // duplicate it; every later touch is a map lookup.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sets_.find(key);
  if (it != sets_.end()) return it->second;
  auto set = std::make_shared<const AbbePupils>(sys, frame, defocus_nm);
  sets_.emplace(key, set);
  return set;
}

std::size_t PupilCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sets_.size();
}

void PupilCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  sets_.clear();
}

namespace detail {

void weighted_intensity_sum(
    std::size_t units, std::size_t n,
    const std::function<void(std::size_t, std::vector<double>&)>& compute,
    const std::function<double(std::size_t)>& weight,
    std::vector<double>& acc) {
  OPCKIT_CHECK(acc.size() == n);
  // At most kChunk per-unit frames resident at once; accumulation runs
  // in ascending unit order within and across chunks — the same order
  // as an all-at-once reduction, so results are bit-identical at any
  // thread count while peak memory stays O(kChunk·n).
  constexpr std::size_t kChunk = 16;
  std::vector<std::vector<double>> scratch(std::min(kChunk, units));
  for (auto& buf : scratch) buf.resize(n);
  for (std::size_t base = 0; base < units; base += kChunk) {
    const std::size_t m = std::min(kChunk, units - base);
    util::global_pool().parallel_for(
        m, [&](std::size_t j) { compute(base + j, scratch[j]); });
    for (std::size_t j = 0; j < m; ++j) {
      const double w = weight(base + j);
      const std::vector<double>& img = scratch[j];
      for (std::size_t i = 0; i < n; ++i) acc[i] += w * img[i];
    }
  }
}

}  // namespace detail

AbbeImager::AbbeImager(const OpticalSystem& sys, const Frame& frame)
    : sys_(sys), frame_(frame) {
  OPCKIT_CHECK_MSG(is_pow2(frame.nx) && is_pow2(frame.ny),
                   "frame dims must be powers of two, got "
                       << frame.nx << 'x' << frame.ny);
  (void)sample_source(sys);  // reject a degenerate source up front
}

Image AbbeImager::aerial_image(const Image& mask, double defocus_nm,
                               const MaskModel& mask_model) const {
  return latent_image(mask, 0.0, defocus_nm, mask_model);
}

Image AbbeImager::latent_image(const Image& mask, double diffusion_nm,
                               double defocus_nm,
                               const MaskModel& mask_model) const {
  OPCKIT_CHECK(mask.frame() == frame_);
  // Per-source shifted-pupil supports and transmissions depend only on
  // geometry, not the mask, so they come from the PupilCache with each
  // support already re-indexed onto the band's M grid.
  const std::shared_ptr<const AbbePupils> entry =
      PupilCache::instance().get(sys_, frame_, defocus_nm);
  const BandGrid& band = entry->band;
  const BandSpectrum spectrum =
      band.mask_spectrum(mask, mask_model.background_amplitude());

  // One coherent intensity per source point on the M grid, reduced in
  // fixed order by the chunked helper: deterministic regardless of
  // thread count, and peak memory bounded by the chunk size instead of
  // |S|. Rows with no pupil bins are skipped exactly, and |·|² plus the
  // inverse normalization are fused into the column epilogue.
  const SourcePupils& pupils = entry->pupils;
  const std::size_t n = band.mx() * band.my();
  std::vector<double> intensity(n, 0.0);
  detail::weighted_intensity_sum(
      pupils.source.size(), n,
      [&](std::size_t si, std::vector<double>& out) {
        std::fill(out.begin(), out.end(), 0.0);
        const SparseInverseBatch::Member one{pupils.value[si], 1.0};
        entry->batches[si].accumulate_intensity(
            spectrum, std::span<const SparseInverseBatch::Member>(&one, 1),
            out);
      },
      [&](std::size_t si) { return pupils.source[si].weight; }, intensity);
  return band.frame_image(frame_, std::move(intensity), diffusion_nm);
}

}  // namespace opckit::litho
