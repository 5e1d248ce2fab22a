#include "litho/socs.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "trace/metrics.h"
#include "util/check.h"

namespace opckit::litho {

namespace {

/// Inner product <a, b> = Σ_f conj(a(f))·b(f) of two sparse pupils,
/// each a (support, value) pair with ascending support (two-pointer
/// merge).
Complex sparse_dot(const std::vector<std::uint32_t>& a_index,
                   const std::vector<Complex>& a_value,
                   const std::vector<std::uint32_t>& b_index,
                   const std::vector<Complex>& b_value) {
  Complex acc{0.0, 0.0};
  std::size_t i = 0, j = 0;
  while (i < a_index.size() && j < b_index.size()) {
    if (a_index[i] < b_index[j]) {
      ++i;
    } else if (a_index[i] > b_index[j]) {
      ++j;
    } else {
      acc += std::conj(a_value[i]) * b_value[j];
      ++i;
      ++j;
    }
  }
  return acc;
}

/// Cyclic complex Hermitian Jacobi eigensolver on the n×n matrix \p a,
/// flat and row-major: diagonalizes it in place (eigenvalues end up on
/// the diagonal) and accumulates the unitary similarity V (V^H A V = Λ)
/// into \p vt, transposed, so row k of \p vt is eigenvector k.
/// Deterministic: fixed (p, q) sweep order, convergence test on the
/// relative off-diagonal norm. O(n³) per sweep with n = |S| (212 for a
/// production-dense source): most of a SOCS build. The layout puts the
/// row pass over A and both passes over V on contiguous memory. Both
/// triangles are rotated, since rounding does not keep A exactly
/// Hermitian. The complex products are spelled out (re = ar·br − ai·bi,
/// im = ar·bi + ai·br): std::complex's bits for finite operands, without
/// its NaN-recovery branch, so the loops stay flat inlined or not.
void jacobi_hermitian(std::size_t n, std::vector<Complex>& a,
                      std::vector<Complex>& vt) {
  vt.assign(n * n, Complex{0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i) vt[i * n + i] = Complex{1.0, 0.0};
  if (n < 2) return;

  for (int sweep = 0; sweep < 64; ++sweep) {
    double off2 = 0.0, diag2 = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      diag2 += std::norm(a[p * n + p]);
      for (std::size_t q = p + 1; q < n; ++q) off2 += std::norm(a[p * n + q]);
    }
    if (off2 <= 1e-28 * (diag2 + off2)) break;
    const double skip2 = 1e-32 * (diag2 + off2) / static_cast<double>(n * n);

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double r = std::abs(a[p * n + q]);
        if (r * r <= skip2) continue;
        // Unitary plane rotation in the (p, q) plane zeroing a_pq:
        // with w = a_pq/|a_pq|, τ = (a_pp − a_qq)/(2|a_pq|),
        // t = sign(τ)/(|τ| + sqrt(τ²+1)), c = 1/sqrt(t²+1), s = t·c,
        // U has columns u_p = (c, s·w̄), u_q = (−s, c·w̄).
        const Complex w = a[p * n + q] / r;
        const double tau =
            (a[p * n + p].real() - a[q * n + q].real()) / (2.0 * r);
        const double t = tau >= 0.0
                             ? 1.0 / (tau + std::sqrt(tau * tau + 1.0))
                             : 1.0 / (tau - std::sqrt(tau * tau + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        const Complex cwc = c * std::conj(w);  // c·w̄
        const Complex swc = s * std::conj(w);  // s·w̄
        const Complex cw = c * w;
        const Complex sw = s * w;
        // (x, y) ← (x·c + y·u, −x·s + y·v) on one pair of entries.
        const auto rotate = [c, s](Complex& x, Complex& y, Complex u,
                                   Complex v) {
          const double xr = x.real(), xi = x.imag();
          const double yr = y.real(), yi = y.imag();
          x = {xr * c + (yr * u.real() - yi * u.imag()),
               xi * c + (yr * u.imag() + yi * u.real())};
          y = {-xr * s + (yr * v.real() - yi * v.imag()),
               -xi * s + (yr * v.imag() + yi * v.real())};
        };
        // A ← A·U (columns p, q of every row)...
        for (std::size_t i = 0; i < n; ++i) {
          rotate(a[i * n + p], a[i * n + q], swc, cwc);
        }
        // ...then A ← U^H·A (rows p, q of every column).
        for (std::size_t i = 0; i < n; ++i) {
          rotate(a[p * n + i], a[q * n + i], sw, cw);
        }
        // V ← V·U accumulates the eigenvectors (rows p, q of V^T).
        for (std::size_t i = 0; i < n; ++i) {
          rotate(vt[p * n + i], vt[q * n + i], swc, cwc);
        }
      }
    }
  }
}

}  // namespace

KernelSet build_socs_kernels(const OpticalSystem& sys, const Frame& frame,
                             double defocus_nm, const SocsOptions& opts) {
  OPCKIT_CHECK(opts.epsilon > 0.0 && opts.epsilon < 1.0);

  // The shifted pupils a_s = sqrt(w_s)·P(f + f_s): the Abbe set's scan
  // (which checks the frame dims), each source's values scaled in place.
  SourcePupils pupils = source_pupils(sys, frame, defocus_nm);
  const std::size_t S = pupils.source.size();
  for (std::size_t s = 0; s < S; ++s) {
    const double amp = std::sqrt(pupils.source[s].weight);
    for (Complex& t : pupils.value[s]) t = amp * t;
  }

  // Hermitian Gram matrix G_st = <a_s, a_t>, flat and row-major; fill
  // the upper triangle and mirror (Hermitian by construction up to
  // rounding; the mirror makes it exact).
  const auto dot = [&](std::size_t s, std::size_t t) {
    return sparse_dot(pupils.support[s], pupils.value[s], pupils.support[t],
                      pupils.value[t]);
  };
  std::vector<Complex> g(S * S);
  for (std::size_t s = 0; s < S; ++s) {
    g[s * S + s] = Complex{dot(s, s).real(), 0.0};
    for (std::size_t t = s + 1; t < S; ++t) {
      const Complex d = dot(s, t);
      g[s * S + t] = d;
      g[t * S + s] = std::conj(d);
    }
  }
  double total_energy = 0.0;  // trace(G) = Σ_s w_s·‖P_s‖²
  for (std::size_t s = 0; s < S; ++s) total_energy += g[s * S + s].real();
  OPCKIT_CHECK_MSG(total_energy > 0.0,
                   "source energy vanished — no pupil support on the grid");

  std::vector<Complex> vt;  // row k: eigenvector k
  jacobi_hermitian(S, g, vt);
  const auto eigenvalue = [&](std::size_t k) { return g[k * S + k].real(); };

  // Rank eigenpairs by eigenvalue, descending; stable index tie-break
  // keeps the ordering deterministic under degenerate eigenvalues.
  std::vector<std::size_t> order(S);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t i, std::size_t j) {
                     return eigenvalue(i) > eigenvalue(j);
                   });

  // Keep every eigenpair above the relative cutoff λ ≥ ε·λ_max. (Not a
  // captured-energy criterion: the discrete spectrum's flat tail would
  // force k ≈ |S| at tight tolerances; see the header.)
  const double lambda_max = eigenvalue(order.front());
  OPCKIT_CHECK_MSG(lambda_max > 0.0, "no positive eigenvalues in SOCS Gram");
  const double lambda_floor = opts.epsilon * lambda_max;
  std::vector<std::size_t> kept;
  double captured = 0.0;
  for (std::size_t k : order) {
    if (eigenvalue(k) < lambda_floor) break;
    kept.push_back(k);
    captured += eigenvalue(k);
  }

  // Union support of all shifted pupils, ascending: the scatter target
  // for kernel synthesis and the stored sparse support of every kernel.
  KernelSet set;
  for (const std::vector<std::uint32_t>& support : pupils.support) {
    set.support.insert(set.support.end(), support.begin(), support.end());
  }
  std::sort(set.support.begin(), set.support.end());
  set.support.erase(std::unique(set.support.begin(), set.support.end()),
                    set.support.end());

  std::vector<Complex> scratch(frame.nx * frame.ny, Complex{0.0, 0.0});
  set.source_points = S;
  set.energy_captured = captured / total_energy;
  set.kernels.reserve(kept.size());
  for (std::size_t k : kept) {
    // ψ_k(f) = Σ_s v_k[s]·a_s(f); ‖ψ_k‖² = λ_k, so the stored kernel
    // is φ_k = ψ_k/sqrt(λ_k) with weight λ_k.
    for (std::size_t s = 0; s < S; ++s) {
      const Complex coef = vt[k * S + s];
      for (std::size_t j = 0; j < pupils.support[s].size(); ++j) {
        scratch[pupils.support[s][j]] += coef * pupils.value[s][j];
      }
    }
    Kernel ker;
    ker.weight = eigenvalue(k);
    const double inv_norm = 1.0 / std::sqrt(ker.weight);
    ker.value.reserve(set.support.size());
    for (std::uint32_t idx : set.support) {
      ker.value.push_back(inv_norm * scratch[idx]);
      scratch[idx] = Complex{0.0, 0.0};
    }
    set.kernels.push_back(std::move(ker));
  }
  set.band.emplace(
      BandGrid::of_supports(frame.nx, frame.ny, {&set.support, 1}),
      set.support);
  return set;
}

std::shared_ptr<const KernelSet> KernelCache::get(const OpticalSystem& sys,
                                                  const Frame& frame,
                                                  double defocus_nm,
                                                  const MaskModel& mask,
                                                  const SocsOptions& opts) {
  return get_or_build(
      {pupil_key(sys, frame, defocus_nm), static_cast<int>(mask.type),
       mask.background_transmission, opts.epsilon},
      [&] {
        KernelSet set = build_socs_kernels(sys, frame, defocus_nm, opts);
        trace::metrics()
            .counter(trace::metric::kLithoSocsKernelSetsBuilt)
            .add();
        trace::metrics()
            .counter(trace::metric::kLithoSocsKernelsBuilt)
            .add(set.kernels.size());
        trace::metrics()
            .gauge(trace::metric::kLithoSocsEnergyCaptured)
            .add(set.energy_captured);
        return set;
      });
}

std::shared_ptr<const KernelSet> kernel_set(ImagingMode mode,
                                            const OpticalSystem& sys,
                                            const Frame& frame,
                                            double defocus_nm,
                                            const MaskModel& mask,
                                            const SocsOptions& opts) {
  if (mode == ImagingMode::kSocs) {
    return KernelCache::instance().get(sys, frame, defocus_nm, mask, opts);
  }
  return PupilCache::instance().get(sys, frame, defocus_nm);
}

}  // namespace opckit::litho
