/// Parity suite for image formation on the band-limited grid
/// (litho/band.h): aerial and latent images through both kernel sets
/// against a full-frame reference built from the public primitives —
/// the r2c mask spectrum, a full-frame SparseInverseBatch sum, then
/// gaussian_blur — across the SOCS process corners, on a non-square
/// frame whose band grid differs per axis, and on a coarse-pixel frame
/// whose band fills the frame, where the two must agree bit for bit.
/// The Abbe set's image must also equal, bit for bit, the per-source
/// band reduction it replaced (one BandBatch per source point).
///
/// Labelled `socs` with the rest of socs_test (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <future>
#include <span>
#include <vector>

#include "litho/litho.h"
#include "util/thread_pool.h"

namespace opckit::litho {
namespace {

Frame frame_of(std::size_t nx, std::size_t ny, double pixel_nm) {
  Frame f;
  f.origin = {-512, -512};
  f.pixel_nm = pixel_nm;
  f.nx = nx;
  f.ny = ny;
  return f;
}

OpticalSystem test_optics() {
  OpticalSystem sys;
  sys.source.grid = 5;
  return sys;
}

/// Two vertical lines and a contact, as in the SOCS suite.
Image test_mask(const Frame& frame) {
  const std::vector<geom::Rect> rects = {geom::Rect(-90, -400, 90, 400),
                                         geom::Rect(270, -400, 430, 400),
                                         geom::Rect(-350, -150, -200, 0)};
  return rasterize(geom::Region::from_rects(rects), frame);
}

std::vector<double> transmission(const Image& mask, const MaskModel& mm) {
  const double t_bg = mm.background_amplitude();
  std::vector<double> trans(mask.values().size());
  for (std::size_t i = 0; i < trans.size(); ++i) {
    const double c = mask.values()[i];
    trans[i] = c + (1.0 - c) * t_bg;
  }
  return trans;
}

/// The full-frame SOCS image: r2c spectrum, one full-frame fused batch
/// over the set's support, then the resist blur.
Image socs_reference(const OpticalSystem& sys, const Image& mask,
                     double defocus_nm, const MaskModel& mm,
                     double diffusion_nm) {
  const Frame& f = mask.frame();
  const KernelSet set =
      build_socs_kernels(sys, f, defocus_nm, SocsOptions{1e-4});
  const Fft2d fft(f.nx, f.ny);
  std::vector<Complex> spectrum;
  fft.forward_real(transmission(mask, mm), spectrum);
  const SparseInverseBatch batch(fft, set.support);
  Image intensity(f, 0.0);
  batch.accumulate_intensity(spectrum.data(), intensity_terms(set),
                             intensity.values());
  return gaussian_blur(intensity, diffusion_nm);
}

/// The full-frame Abbe image: one full-frame batch per source point,
/// summed in ascending order, then the resist blur.
Image abbe_reference(const OpticalSystem& sys, const Image& mask,
                     double defocus_nm, const MaskModel& mm,
                     double diffusion_nm) {
  const Frame& f = mask.frame();
  const SourcePupils pupils = source_pupils(sys, f, defocus_nm);
  const Fft2d fft(f.nx, f.ny);
  std::vector<Complex> spectrum;
  fft.forward_real(transmission(mask, mm), spectrum);
  Image intensity(f, 0.0);
  std::vector<double> one;
  for (std::size_t s = 0; s < pupils.source.size(); ++s) {
    const SparseInverseBatch batch(fft, pupils.support[s]);
    batch.inverse_mag2(spectrum.data(), pupils.value[s], one);
    const double w = pupils.source[s].weight;
    for (std::size_t i = 0; i < one.size(); ++i) {
      intensity.values()[i] += w * one[i];
    }
  }
  return gaussian_blur(intensity, diffusion_nm);
}

/// The Abbe image as the per-source band reduction formed it: the band
/// of every source support, one BandBatch per source point, each
/// coherent intensity added in ascending source order, then the back
/// end.
Image abbe_per_source_band(const OpticalSystem& sys, const Image& mask,
                           double defocus_nm, const MaskModel& mm,
                           double diffusion_nm) {
  const Frame& f = mask.frame();
  const SourcePupils pupils = source_pupils(sys, f, defocus_nm);
  const BandGrid band = BandGrid::of_supports(f.nx, f.ny, pupils.support);
  const BandSpectrum spectrum =
      band.mask_spectrum(mask, mm.background_amplitude());
  const std::size_t n = band.mx() * band.my();
  std::vector<double> intensity(n, 0.0), one(n);
  for (std::size_t s = 0; s < pupils.source.size(); ++s) {
    const BandBatch batch(band, pupils.support[s]);
    std::fill(one.begin(), one.end(), 0.0);
    const SparseInverseBatch::Member member{pupils.value[s], 1.0};
    batch.accumulate_intensity(spectrum, {&member, 1}, one);
    const double w = pupils.source[s].weight;
    for (std::size_t i = 0; i < n; ++i) intensity[i] += w * one[i];
  }
  return band.frame_image(f, std::move(intensity), diffusion_nm);
}

/// The image of \p mask through the \p mode kernel set (SOCS at
/// ε = 1e-4), blurred by \p sigma.
Image image(ImagingMode mode, const OpticalSystem& sys, const Image& mask,
            double sigma, double defocus_nm = 0.0,
            const MaskModel& mm = {}) {
  return form_image(*kernel_set(mode, sys, mask.frame(), defocus_nm, mm),
                    mask, mm, sigma);
}

/// \p fn's image, computed on a worker of a \p workers-thread pool. (A
/// parallel_for of one iteration would run it on the calling thread
/// instead.)
Image on_pool_worker(std::size_t workers, const std::function<Image()>& fn) {
  std::promise<Image> result;  // outlives the pool, which joins the job
  util::ThreadPool pool(workers);
  pool.submit([&] {
    try {
      result.set_value(fn());
    } catch (...) {
      result.set_exception(std::current_exception());
    }
  });
  return result.get_future().get();
}

/// max|a − b| over the frame, relative to the reference's peak.
double relative_error(const Image& got, const Image& ref) {
  double diff = 0.0, peak = 0.0;
  for (std::size_t i = 0; i < ref.values().size(); ++i) {
    diff = std::max(diff, std::abs(got.values()[i] - ref.values()[i]));
    peak = std::max(peak, std::abs(ref.values()[i]));
  }
  return diff / peak;
}

void expect_same_bits(const Image& got, const Image& ref, const char* what) {
  ASSERT_EQ(got.values().size(), ref.values().size()) << what;
  for (std::size_t i = 0; i < ref.values().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values()[i]),
              std::bit_cast<std::uint64_t>(ref.values()[i]))
        << what << " @" << i;
  }
}

struct Corner {
  const char* name = "";
  OpticalSystem sys;
  double defocus_nm = 0.0;
  MaskModel mask;
};

Corner corner(const char* name) {
  Corner c;
  c.name = name;
  c.sys = test_optics();
  return c;
}

/// The process corners of the SOCS parity suite (litho_socs_test.cpp).
std::vector<Corner> process_corners() {
  std::vector<Corner> corners;
  corners.push_back(corner("annular_nominal"));
  {
    Corner c = corner("circular");
    c.sys.source.shape = SourceShape::kCircular;
    c.sys.source.sigma_outer = 0.60;
    corners.push_back(c);
  }
  {
    Corner c = corner("dipole_x");
    c.sys.source.shape = SourceShape::kDipoleX;
    corners.push_back(c);
  }
  {
    Corner c = corner("defocus");
    c.defocus_nm = 150.0;
    corners.push_back(c);
  }
  {
    Corner c = corner("coma");
    c.sys.aberrations.coma_x_nm = 20.0;
    c.sys.aberrations.coma_y_nm = -12.0;
    corners.push_back(c);
  }
  {
    Corner c = corner("astig_defocus");
    c.sys.aberrations.astig_nm = 15.0;
    c.defocus_nm = -100.0;
    corners.push_back(c);
  }
  {
    Corner c = corner("att_psm");
    c.mask.type = MaskType::kAttenuatedPsm;
    corners.push_back(c);
  }
  {
    Corner c = corner("psm_defocus_aberrated");
    c.mask.type = MaskType::kAttenuatedPsm;
    c.defocus_nm = 120.0;
    c.sys.aberrations.coma_y_nm = 10.0;
    corners.push_back(c);
  }
  return corners;
}

constexpr double kDiffusionNm = 25.0;

TEST(BandGrid, SizeIsNextPow2AboveFourKCappedAtTheFrame) {
  // flat_cold's 256² frame (K = 14) and the 8 nm / 512² default (K = 19).
  EXPECT_EQ(BandGrid(256, 256, 14, 14).mx(), 64u);
  EXPECT_EQ(BandGrid(512, 512, 19, 19).my(), 128u);
  // 4K + 1 on a power of two still needs the next one: 4·4 + 1 = 17.
  EXPECT_EQ(BandGrid(256, 256, 4, 4).mx(), 32u);
  EXPECT_EQ(BandGrid(256, 256, 3, 3).mx(), 16u);
  EXPECT_EQ(BandGrid(256, 256, 0, 0).mx(), 1u);
  // Capped at the frame: then the band fills it.
  EXPECT_TRUE(BandGrid(64, 64, 10, 10).fills_frame());
  EXPECT_TRUE(BandGrid::full(64, 16).fills_frame());
  EXPECT_FALSE(BandGrid(256, 64, 10, 10).fills_frame());
  EXPECT_EQ(BandGrid(256, 64, 10, 10).my(), 64u);
}

TEST(BandGrid, SupportBoundUsesSignedBinsAndWrapsModM) {
  const std::size_t nx = 64, ny = 32;
  // Signed bins (+3, 0), (-5, +2) and (0, -4).
  const std::vector<std::vector<std::uint32_t>> supports = {
      {3}, {2 * 64 + 59}, {28 * 64}};
  const BandGrid band = BandGrid::of_supports(nx, ny, supports);
  EXPECT_EQ(band.kx(), 5u);
  EXPECT_EQ(band.ky(), 4u);
  EXPECT_EQ(band.mx(), 32u);
  EXPECT_EQ(band.my(), 32u);
  EXPECT_EQ(band.grid_index(3), 3u);
  EXPECT_EQ(band.grid_index(2 * 64 + 59), 2u * 32 + 27);
  EXPECT_EQ(band.grid_index(28 * 64), 28u * 32);
  EXPECT_THROW((void)band.grid_index(2 * 64 + 6), util::CheckError);
}

// Acceptance: within 1e-13 of the full-frame path, relative to the
// peak, at every corner, for both kernel sets, aerial and latent; and
// the Abbe set bit-identical to the per-source band reduction. The
// 128² frame's band grid is 32² here.
TEST(BandParity, BothEnginesMatchFullFrameAtEveryProcessCorner) {
  const Frame frame = frame_of(128, 128, 8.0);
  const Image mask = test_mask(frame);
  for (const Corner& c : process_corners()) {
    KernelCache::instance().clear();
    const BandBatch& band = *KernelCache::instance()
                                 .get(c.sys, frame, c.defocus_nm, c.mask,
                                      SocsOptions{1e-4})
                                 ->band;
    EXPECT_FALSE(band.band().fills_frame()) << c.name;
    for (const double sigma : {0.0, kDiffusionNm}) {
      const Image socs_ref =
          socs_reference(c.sys, mask, c.defocus_nm, c.mask, sigma);
      const Image abbe_ref =
          abbe_reference(c.sys, mask, c.defocus_nm, c.mask, sigma);
      const Image abbe =
          image(ImagingMode::kAbbe, c.sys, mask, sigma, c.defocus_nm, c.mask);
      EXPECT_LE(relative_error(image(ImagingMode::kSocs, c.sys, mask, sigma,
                                     c.defocus_nm, c.mask),
                               socs_ref),
                1e-13)
          << c.name << " socs sigma=" << sigma;
      EXPECT_LE(relative_error(abbe, abbe_ref), 1e-13)
          << c.name << " abbe sigma=" << sigma;
      expect_same_bits(abbe,
                       abbe_per_source_band(c.sys, mask, c.defocus_nm, c.mask,
                                            sigma),
                       c.name);
    }
  }
}

// A production-dense source (grid 21, 212 points) on flat_cold's frame
// (256² at 12 nm, a 64² band): the Abbe set is still the per-source band
// reduction bit for bit, aerial and latent. Not one more input of the
// corner loop above, which also builds a SOCS set and two full-frame
// references per input: at 212 points that would add a 212 × 212
// eigensolve to every run.
TEST(BandParity, DenseAbbeSetIsThePerSourceReductionBitForBit) {
  const Frame frame = frame_of(256, 256, 12.0);
  const Image mask = test_mask(frame);
  OpticalSystem sys = test_optics();
  sys.source.grid = 21;
  ASSERT_GT(sample_source(sys).size(), 200u);
  for (const double sigma : {0.0, kDiffusionNm}) {
    expect_same_bits(image(ImagingMode::kAbbe, sys, mask, sigma),
                     abbe_per_source_band(sys, mask, 0.0, {}, sigma),
                     "grid 21");
  }
}

// A 256 × 64 frame: the band is 64 × 16, so each axis wraps on its own
// M and the back end spreads rows onto a taller frame than the grid.
TEST(BandParity, NonSquareFrameWithDifferentGridPerAxis) {
  const Frame frame = frame_of(256, 64, 8.0);
  const Image mask = test_mask(frame);
  const OpticalSystem sys = test_optics();
  KernelCache::instance().clear();
  const BandGrid& band =
      KernelCache::instance().get(sys, frame, 0.0, {}, SocsOptions{1e-4})
          ->band->band();
  EXPECT_EQ(band.mx(), 64u);
  EXPECT_EQ(band.my(), 16u);
  for (const double sigma : {0.0, kDiffusionNm}) {
    EXPECT_LE(relative_error(image(ImagingMode::kSocs, sys, mask, sigma),
                             socs_reference(sys, mask, 0.0, {}, sigma)),
              1e-13)
        << "socs sigma=" << sigma;
    EXPECT_LE(relative_error(image(ImagingMode::kAbbe, sys, mask, sigma),
                             abbe_reference(sys, mask, 0.0, {}, sigma)),
              1e-13)
        << "abbe sigma=" << sigma;
  }
}

// At 32 nm pixels the 64² frame's band needs 4K+1 > 32 points per
// axis at every corner but the x dipole (whose poles barely reach along
// y): there the band fills the frame, and the band path is the
// full-frame path bit for bit.
TEST(BandParity, BandFillingTheFrameIsBitIdentical) {
  const Frame frame = frame_of(64, 64, 32.0);
  const Image mask = test_mask(frame);
  std::size_t filled = 0;
  for (const Corner& c : process_corners()) {
    KernelCache::instance().clear();
    if (!KernelCache::instance()
             .get(c.sys, frame, c.defocus_nm, c.mask, SocsOptions{1e-4})
             ->band->band()
             .fills_frame()) {
      EXPECT_EQ(c.sys.source.shape, SourceShape::kDipoleX) << c.name;
      continue;
    }
    ++filled;
    for (const double sigma : {0.0, kDiffusionNm}) {
      expect_same_bits(image(ImagingMode::kSocs, c.sys, mask, sigma,
                             c.defocus_nm, c.mask),
                       socs_reference(c.sys, mask, c.defocus_nm, c.mask,
                                      sigma),
                       c.name);
      expect_same_bits(image(ImagingMode::kAbbe, c.sys, mask, sigma,
                             c.defocus_nm, c.mask),
                       abbe_reference(c.sys, mask, c.defocus_nm, c.mask,
                                      sigma),
                       c.name);
    }
  }
  EXPECT_EQ(filled, process_corners().size() - 1);
}

// The latent of both kernel sets is bit-identical whether it forms on
// a pool worker (1, 2 or 8 workers) or on the main thread.
TEST(BandParity, LatentIdenticalAcrossWorkerCounts) {
  const Frame frame = frame_of(128, 128, 8.0);
  const Image mask = test_mask(frame);
  OpticalSystem sys = test_optics();
  sys.source.grid = 7;  // a denser source than test_optics()'s
  KernelCache::instance().clear();
  const Image socs_ref = image(ImagingMode::kSocs, sys, mask, kDiffusionNm);
  const Image abbe_ref = image(ImagingMode::kAbbe, sys, mask, kDiffusionNm);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    const Image s_img = on_pool_worker(workers, [&] {
      return image(ImagingMode::kSocs, sys, mask, kDiffusionNm);
    });
    const Image a_img = on_pool_worker(workers, [&] {
      return image(ImagingMode::kAbbe, sys, mask, kDiffusionNm);
    });
    EXPECT_EQ(s_img.values(), socs_ref.values()) << "workers=" << workers;
    EXPECT_EQ(a_img.values(), abbe_ref.values()) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace opckit::litho
