/// \file fft.h
/// Planned radix-2 FFT engine (1D and 2D), self-contained.
///
/// The imaging engines spend >99.9 % of flow wall-clock in 2-D
/// transforms (T3), so the engine is built around *plans*: an FftPlan
/// precomputes the bit-reversal permutation and per-stage twiddle
/// tables for one size once, and every subsequent transform of that
/// size is pure table-driven butterflies. Plans are immutable after
/// construction and shared process-wide through PlanCache (the
/// BuildOnceCache discipline of cache.h): one build per (size,
/// kind) per process, every later transform — any tile, any OPC
/// iteration, any flow — reuses it.
///
/// Three transform tiers, fastest path last:
///
///  1. Complex 1-D/2-D (`FftPlan::transform`, `Fft2d::forward/inverse`)
///     — the drop-in replacement for the old scalar kernel. The
///     twiddle tables are generated with the exact multiplicative
///     recurrence the old per-butterfly code used, so planned complex
///     transforms are BIT-IDENTICAL to the pre-plan implementation:
///     flow output cannot move by switching to plans.
///  2. Real-to-complex forward / complex-to-real inverse
///     (`forward_real`/`inverse_real`) — mask transmission is real, so
///     its spectrum is Hermitian (F[-k] = conj(F[k])) and only half of
///     it is independent. The r2c path packs even/odd samples into a
///     half-size complex transform plus an O(n) split pass (~2x on the
///     mask-spectrum forward), computes columns only for kx <= nx/2,
///     and mirrors the remaining half. Numerically equivalent to the
///     complex path within ~1e-15 relative (the parity suite pins
///     1e-12), not bit-identical. The column-bounded variants
///     (`forward_real_columns`/`inverse_real_columns`) run the column
///     pass over the first `cols` columns only and hold the spectrum as
///     a packed cols × ny block, for band-limited images (band.h): the
///     bounded r2c computes exactly forward_real's bins there and fills
///     no mirror, and the bounded c2r is inverse_real of a spectrum
///     that is zero past the bound, both bit for bit.
///  3. Batched sparse inverse (`SparseInverseBatch`) — the imaging
///     hot loop Σ w·|IFFT(spectrum·φ)|² over a kernel set (SOCS
///     eigen-kernels or Abbe shifted pupils) transforms fields that
///     are nonzero only on the set's support, a small disk of
///     frequency bins. All batch members share one plan and one
///     support, so the row/column pruning structure is computed once:
///     rows with no support bins are skipped outright (their transform
///     is exactly zero — skipping is bit-exact, not approximate), and
///     the |·|² + 1/(nx·ny) normalization and the weighted sum over
///     members are fused into the column epilogue, so neither the
///     complex image nor any per-member intensity frame is stored.
///     The fused result is bit-identical to
///     transform-then-normalize-then-|·|² of the pre-plan engine
///     followed by an ascending weighted sum (same operations, same
///     order, zero rows dropped exactly). Every image runs it on its
///     kernel set's band M grid, with the spectrum given at the support,
///     on the calling thread, one member at a time through one reused
///     pair of row buffers.
///
/// Every 2-D pass above runs on the lane kernel
/// (`FftPlan::transform_lanes`): kLanes = 8 vectors transformed in
/// lockstep over split re/im arrays with the lane index innermost, so
/// the butterfly's inner loop is eight independent, identical scalar
/// computations the compiler vectorizes. Column passes read contiguous
/// row strips straight into lanes; row passes transpose eight rows in.
/// The lane kernel performs, per element, the real-arithmetic
/// expansion of exactly the operations `FftPlan::transform` (and the
/// r2c/c2r pack and split) perform through std::complex, in the same
/// order, with the same tables; lanes never interact. Each lane is
/// therefore bit-identical to the scalar path, and so is every 2-D
/// result built from them.
///
/// Sizes are powers of two. Convention: forward is unnormalized,
/// inverse divides by N (1D) or Nx*Ny (2D), so ifft(fft(x)) == x; the
/// unnormalized FftPlan primitives document their own scaling.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "litho/cache.h"

namespace opckit::litho {

using Complex = std::complex<double>;

/// True if \p n is a power of two (and nonzero).
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Smallest power of two >= n. Checked: \p n must be representable,
/// i.e. n <= 2^63 on 64-bit size_t (the old version hung in an
/// infinite shift-overflow loop beyond that).
std::size_t next_pow2(std::size_t n);

/// Frequency (cycles per sample) of FFT bin \p k in a length-\p n
/// transform, using the standard wrap-around convention: bins [0, n/2)
/// map to [0, 0.5) and bins [n/2, n) map to [-0.5, 0). Checked:
/// n > 0 and k < n.
double fft_freq(std::size_t k, std::size_t n);

/// Transform direction. Plans hold twiddle tables for both, so one
/// cached plan serves the forward/inverse pairing every consumer does.
enum class FftDirection { kForward, kInverse };

/// What a plan is specialized for. kComplex carries the bit-reversal
/// and per-stage twiddles for complex transforms of size n; kReal is a
/// superset that additionally carries the half-size tables and split
/// twiddles the r2c/c2r paths need.
enum class FftKind { kComplex, kReal };

/// Precomputed transform schedule for one 1-D size: bit-reversal
/// permutation plus per-stage twiddle tables for both directions
/// (and, for kReal, the half-size sub-plan and split twiddles).
/// Immutable after construction; all methods are const and
/// thread-safe. Size must be a power of two.
class FftPlan {
 public:
  FftPlan(std::size_t n, FftKind kind);

  std::size_t size() const { return n_; }
  FftKind kind() const { return kind_; }

  /// Unnormalized in-place complex transform (caller divides by n for
  /// the inverse). Bit-identical to the pre-plan scalar kernel: the
  /// twiddle tables are built with the same multiplicative recurrence
  /// and the butterflies run in the same order.
  void transform(Complex* data, FftDirection dir) const;

  /// Vectors per lane batch of transform_lanes and the r2c/c2r lane
  /// variants.
  static constexpr std::size_t kLanes = 8;

  /// Where transform_lanes finds its input elements.
  enum class LaneOrder {
    kNatural,      ///< element i at slot i; the permutation runs first
    kBitReversed,  ///< element i already at slot bit_reversed(i)
  };

  /// Unnormalized in-place transform of kLanes vectors of size() at
  /// once, over split real/imaginary arrays with the lane innermost:
  /// element i of lane j is re[i*kLanes + j] / im[i*kLanes + j] (each
  /// array holds size()*kLanes doubles). Every lane is bit-identical to
  /// transform() on that vector: the butterflies are the real-arithmetic
  /// expansion of transform()'s complex operations, in the same order,
  /// over the same tables. With kBitReversed the caller has already
  /// stored its input permuted (cheapest when it gathers anyway, and
  /// free for inputs that are mostly zero), and the permutation pass is
  /// skipped.
  void transform_lanes(double* re, double* im, FftDirection dir,
                       LaneOrder order = LaneOrder::kNatural) const;

  /// Slot of element \p i after the bit-reversal permutation.
  std::uint32_t bit_reversed(std::size_t i) const { return rev_[i]; }

  /// r2c forward: n real samples -> the n/2+1 independent bins of the
  /// Hermitian spectrum (out[k] = F[k] for k in [0, n/2]).
  /// Unnormalized, matches transform(kForward) within rounding.
  /// Requires kind() == kReal.
  void forward_real(const double* in, Complex* out) const;

  /// c2r inverse of a Hermitian half-spectrum: n/2+1 complex bins ->
  /// n real samples. Unnormalized (divide by n to invert
  /// forward_real). The conjugate-mirror bins are implied, never read.
  /// Requires kind() == kReal.
  void inverse_real(const Complex* in, double* out) const;

  /// forward_real of up to kLanes real vectors at once. Lane l reads
  /// its size() samples from in + l*stride for l < count; lanes at or
  /// past count are zero. Bins [0, n/2] of lane l land in re/im[k*kLanes
  /// + l], so each array holds (n/2+1)*kLanes doubles. The even/odd
  /// pack, the half-size transform and the split run per lane in
  /// forward_real's operation order: each lane is bit-identical to it.
  /// Requires kind() == kReal.
  void forward_real_lanes(const double* in, std::size_t stride,
                          std::size_t count, double* re, double* im) const;

  /// inverse_real of up to kLanes half-spectra at once: bins [0, n/2]
  /// of lane l at re/im[k*kLanes + l] (the arrays are consumed as
  /// scratch); lane l's size() samples are written to out + l*stride
  /// for l < count. Unnormalized like inverse_real, and bit-identical
  /// to it per lane. Requires kind() == kReal.
  void inverse_real_lanes(double* re, double* im, double* out,
                          std::size_t stride, std::size_t count) const;

 private:
  /// Complex transform of size n_/2 using the half-size tables.
  void transform_half(Complex* data, FftDirection dir) const;
  /// Lane transform of size n_/2 using the half-size tables.
  void transform_half_lanes(double* re, double* im, FftDirection dir,
                            LaneOrder order) const;

  static std::vector<std::uint32_t> bit_reversal(std::size_t n);
  static std::vector<Complex> stage_twiddles(std::size_t n, bool inverse);

  std::size_t n_;
  FftKind kind_;
  std::vector<std::uint32_t> rev_;        ///< bit-reversal for size n
  std::vector<Complex> tw_fwd_, tw_inv_;  ///< stage tables, concatenated
  // kReal extras: the half-size sub-plan (r2c runs a complex n/2
  // transform on packed even/odd samples) and the split twiddles
  // e^{-2*pi*i*k/n}, k in [0, n/2].
  std::vector<std::uint32_t> rev_half_;
  std::vector<Complex> tw_fwd_half_, tw_inv_half_;
  std::vector<Complex> split_;
};

/// Process-wide plan cache keyed on (size, kind), on the BuildOnceCache
/// discipline (cache.h): the first request for a key builds (and
/// records `litho.fft_plan_*` metrics), every later request returns the
/// same immutable plan. A plan is a few KB.
class PlanCache
    : public BuildOnceCache<PlanCache, std::pair<std::size_t, int>, FftPlan> {
 public:
  PlanCache() : BuildOnceCache(trace::metric::kLithoFftPlanHits) {}

  /// Return the plan for (n, kind), building on first touch. A kReal
  /// plan also serves complex transforms of the same size, but the two
  /// kinds are distinct cache keys: callers that never touch the real
  /// path don't pay for its tables.
  std::shared_ptr<const FftPlan> get(std::size_t n, FftKind kind);
};

/// Planned 2-D transform engine bound to one (nx, ny) shape: holds the
/// row/column plans from the PlanCache and runs every pass on the lane
/// kernel — column passes load kLanes adjacent columns as contiguous
/// row strips, row passes transpose kLanes rows into lanes. Immutable
/// after construction; methods are const and thread-safe (per-call
/// scratch). Both dims must be powers of two.
class Fft2d {
 public:
  Fft2d(std::size_t nx, std::size_t ny);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  const FftPlan& row_plan() const { return *row_; }
  const FftPlan& col_plan() const { return *col_; }

  /// In-place complex 2-D transform of a row-major nx*ny array.
  /// Forward is unnormalized; inverse divides by nx*ny. Bit-identical
  /// to the pre-plan 2-D transform.
  void forward(std::vector<Complex>& data) const;
  void inverse(std::vector<Complex>& data) const;

  /// r2c 2-D forward: real row-major image -> the FULL nx*ny complex
  /// spectrum (rows via r2c, columns only for kx <= nx/2, remaining
  /// bins filled by the Hermitian mirror F[-kx,-ky] = conj(F[kx,ky])).
  /// ~2x the complex forward; equivalent within ~1e-15 relative.
  ///
  /// ## Half-spectrum layout contract (r2c round trips)
  ///
  /// The output is a FULL row-stride array: bin (kx, ky) lives at
  /// out[ky * nx + kx] for every kx in [0, nx), NOT a packed
  /// (nx/2+1)-stride half array. At return the whole array is valid,
  /// including the kx > nx/2 mirror half. The round-trip contract is
  /// asymmetric on purpose:
  ///
  ///  - inverse_real reads ONLY the independent half, kx <= nx/2 of
  ///    every row (full row stride). A caller that filters the spectrum
  ///    between forward_real and inverse_real therefore only needs to
  ///    touch bins with kx <= nx/2 — the mirror half may go STALE
  ///    (hold pre-filter values) without affecting the result.
  ///  - any consumer that reads the full layout (dense complex
  ///    inverses, kernel-support gathers at kx > nx/2) must either
  ///    apply its filter to both halves or re-mirror after filtering:
  ///    the layout itself does not re-synchronize.
  ///
  /// Filters applied to the kx <= nx/2 half must be conjugate-symmetric
  /// (real transfer functions of |f| qualify) for the implied mask to
  /// stay Hermitian; inverse_real assumes Hermitian input and returns
  /// the real part's image regardless.
  void forward_real(std::span<const double> in,
                    std::vector<Complex>& out) const;

  /// c2r 2-D inverse of a Hermitian spectrum in full layout: only the
  /// kx <= nx/2 half of each row is read (the mirror half may be stale
  /// — see the layout contract on forward_real), output is the real
  /// image with 1/(nx*ny) normalization applied.
  void inverse_real(std::span<const Complex> in,
                    std::vector<double>& out) const;

  /// Writes row y of a real image, its nx samples, to `row`.
  using RowSource = std::function<void(std::size_t y, double* row)>;

  /// Column-bounded r2c: the first \p cols columns of forward_real's
  /// spectrum (1 <= cols <= nx/2+1), as a packed cols × ny block — bin
  /// (kx, ky) at out[ky * cols + kx], bit-identical to forward_real's.
  /// Every row still runs its r2c, but the column pass runs over \p cols
  /// columns only and no mirror bin is filled: a band-limited consumer
  /// reads bins with kx < 0 through the Hermitian mirror
  /// F[-kx, -ky] = conj(F[kx, ky]).
  void forward_real_columns(std::span<const double> in, std::size_t cols,
                            std::vector<Complex>& out) const;
  /// The same, over the image whose rows \p rows writes: a caller that
  /// maps its samples (mask coverage to transmission) does so row by
  /// row instead of through a frame-sized copy.
  void forward_real_columns(const RowSource& rows, std::size_t cols,
                            std::vector<Complex>& out) const;

  /// Column-bounded c2r: inverse_real of a Hermitian spectrum that is
  /// zero at every kx >= cols (1 <= cols <= nx/2+1), given as its packed
  /// cols × ny block (bin (kx, ky) at in[ky * cols + kx]; consumed as
  /// scratch). The column pass runs over \p cols columns only; the
  /// result is bit-identical to inverse_real of the full layout.
  void inverse_real_columns(std::span<Complex> in, std::size_t cols,
                            std::vector<double>& out) const;

 private:
  /// Lane row pass: complex transform of every row of the row-major
  /// nx-wide \p data, in place.
  void row_pass(Complex* data, FftDirection dir) const;
  /// Lane column pass over columns [0, cols) of the ny-row array at
  /// \p src (row stride src_stride), written to \p dst (row stride
  /// dst_stride); src == dst transforms in place.
  void column_pass(const Complex* src, std::size_t src_stride, Complex* dst,
                   std::size_t dst_stride, std::size_t cols,
                   FftDirection dir) const;
  /// Row r2c of every row, kLanes rows at a time: \p block(y0, b)
  /// returns rows y0 .. y0+b-1 as b contiguous nx-sample rows; bins
  /// [0, cols) of row y land at dst + y * dst_stride.
  void r2c_rows(const std::function<const double*(std::size_t, std::size_t)>&
                    block,
                std::size_t cols, Complex* dst, std::size_t dst_stride) const;
  /// Row c2r of every row: bins [0, cols) of row y at src + y * stride,
  /// the rest of the nx/2+1 zero; out gets the 1/(nx*ny)-normalized
  /// real image.
  void c2r_rows(const Complex* src, std::size_t stride, std::size_t cols,
                std::vector<double>& out) const;

  std::size_t nx_, ny_;
  std::shared_ptr<const FftPlan> row_;  ///< kReal (serves complex + r2c)
  std::shared_ptr<const FftPlan> col_;  ///< kComplex
};

/// A batch of same-size inverse transforms sharing one plan and one
/// sparse frequency support — the per-member IFFTs of the image sum
/// Σ w_k·|IFFT(spectrum·φ_k)|² over a kernel set (optics.h). Binding
/// the support once lets every member reuse the pruning structure:
///
///  - rows with no support bins are never transformed (their row FFT
///    is identically zero — exact, not approximate); the touched rows
///    are scattered straight into their bit-reversed slots of lane row
///    buffers, kLanes rows per lane group, so the row transforms skip
///    the permutation pass;
///  - the column pass loads each block of kLanes columns from those
///    buffers into the bit-reversed slots of the touched rows only (the
///    skipped rows are zero), again without a permutation pass;
///  - the inverse normalization, |·|² and the weighted sum over members
///    are fused into the column epilogue, writing the real intensity
///    directly — the complex image is never materialized.
///
/// The result is bit-identical to the unpruned inverse + normalize +
/// |·|² sequence of the pre-plan engine (and, for accumulate_intensity,
/// to summing those images in ascending member order). Thread-safe:
/// each call uses its own scratch and runs on the calling thread.
class SparseInverseBatch {
 public:
  /// One term of a weighted intensity sum: the member's per-support-bin
  /// factors and its weight.
  struct Member {
    std::span<const Complex> factors;
    double weight = 1.0;
  };

  /// \p support: ascending flat frame indices (ky*nx + kx) of the bins
  /// that may be nonzero in every batch member.
  SparseInverseBatch(const Fft2d& plan,
                     std::span<const std::uint32_t> support);

  /// Distinct frequency rows covered by the support (the rows the
  /// pruned row pass actually transforms).
  std::size_t support_rows() const { return rows_.size(); }
  /// Rows skipped per transform relative to the dense pass.
  std::size_t rows_pruned() const { return plan_.ny() - rows_.size(); }

  /// acc[i] += Σ_k members[k].weight·|IFFT(field_k)(i)|² over the full
  /// frame, where field_k[support[j]] = spectrum[support[j]] *
  /// members[k].factors[j] and zero elsewhere; the inverse carries the
  /// 1/(nx*ny) normalization. Per pixel the members are added in
  /// ascending k, one `acc += w·|v|²` each — the order of an ascending
  /// weighted sum of inverse_mag2 frames, so the result is
  /// bit-identical to it; no per-member frame is stored. \p spectrum
  /// points at a full nx*ny layout; every factors span aligns with the
  /// support; \p acc has nx*ny entries.
  void accumulate_intensity(const Complex* spectrum,
                            std::span<const Member> members,
                            std::span<double> acc) const;
  /// The same sum over a spectrum given at the support only:
  /// \p values[j] is the spectrum at support[j].
  void accumulate_intensity(std::span<const Complex> values,
                            std::span<const Member> members,
                            std::span<double> acc) const;

  /// Compute out[i] = |IFFT(field)(i)|² over the full frame, where
  /// field[support[j]] = spectrum[support[j]] * factors[j] and zero
  /// elsewhere; the inverse carries the 1/(nx*ny) normalization.
  /// \p spectrum points at a full nx*ny layout; \p factors aligns with
  /// the support; \p out is resized to nx*ny. The one-member,
  /// unit-weight accumulate_intensity into zeros (0.0 + 1.0·x == x).
  void inverse_mag2(const Complex* spectrum,
                    std::span<const Complex> factors,
                    std::vector<double>& out) const;

  /// Same pruned inverse, but materializing the normalized COMPLEX
  /// field: out[i] = IFFT(field)(i) with field as in inverse_mag2.
  /// The ILT adjoint needs the per-kernel coherent fields E_k (not just
  /// |E_k|²) to form conj(E_k)·∂C/∂I, so this skips the fused |·|²
  /// epilogue. |out[i]|² is bit-identical to inverse_mag2's out[i].
  void inverse_field(const Complex* spectrum,
                     std::span<const Complex> factors,
                     std::vector<Complex>& out) const;

 private:
  /// Column epilogue: (member, first column x0, columns in the block,
  /// transformed column lanes re, im) — lane j of element y is pixel
  /// (x0 + j, y), not yet normalized.
  using Epilogue = std::function<void(std::size_t, std::size_t, std::size_t,
                                      const double*, const double*)>;

  /// The spectrum at each support bin, in support order.
  std::vector<Complex> gather(const Complex* spectrum) const;

  /// Per member in ascending order: the row pass into one pair of lane
  /// row buffers, then the column pass block by block, handing each
  /// transformed block to \p epilogue. \p values[j] is the spectrum at
  /// support bin j.
  void run(std::span<const Complex> values, std::span<const Member> members,
           const Epilogue& epilogue) const;

  Fft2d plan_;
  std::vector<std::uint32_t> support_;     ///< ascending flat indices
  std::vector<std::uint32_t> rows_;        ///< distinct ky values, ascending
  std::vector<std::size_t> row_lane_;  ///< per support bin: lane row slot
  std::vector<std::size_t> col_slot_;  ///< per touched row: column slot
};

}  // namespace opckit::litho
