#include "litho/socs.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "trace/metrics.h"
#include "util/check.h"

namespace opckit::litho {

namespace {

/// One shifted pupil a_s(f) = sqrt(w_s)·P(f + f_s) in sparse form:
/// parallel arrays of flat frame indices (ascending) and values.
struct SparsePupil {
  std::vector<std::uint32_t> index;
  std::vector<Complex> value;
};

std::vector<SparsePupil> shifted_pupils(
    const OpticalSystem& sys, const Frame& frame, double defocus_nm,
    const std::vector<SourcePoint>& source) {
  std::vector<double> freq_x(frame.nx), freq_y(frame.ny);
  for (std::size_t k = 0; k < frame.nx; ++k) {
    freq_x[k] = fft_freq(k, frame.nx) / frame.pixel_nm;
  }
  for (std::size_t k = 0; k < frame.ny; ++k) {
    freq_y[k] = fft_freq(k, frame.ny) / frame.pixel_nm;
  }
  std::vector<SparsePupil> pupils(source.size());
  for (std::size_t s = 0; s < source.size(); ++s) {
    const SourcePoint& sp = source[s];
    const double amp = std::sqrt(sp.weight);
    SparsePupil& p = pupils[s];
    for (std::size_t ky = 0; ky < frame.ny; ++ky) {
      const double fy = freq_y[ky] + sp.fy;
      for (std::size_t kx = 0; kx < frame.nx; ++kx) {
        const double fx = freq_x[kx] + sp.fx;
        const Complex t = pupil_transmission(sys, fx, fy, defocus_nm);
        if (t == Complex{0.0, 0.0}) continue;
        p.index.push_back(static_cast<std::uint32_t>(ky * frame.nx + kx));
        p.value.push_back(amp * t);
      }
    }
  }
  return pupils;
}

/// Inner product <a, b> = Σ_f conj(a(f))·b(f) over the sparse supports
/// (both index lists ascending — two-pointer merge).
Complex sparse_dot(const SparsePupil& a, const SparsePupil& b) {
  Complex acc{0.0, 0.0};
  std::size_t i = 0, j = 0;
  while (i < a.index.size() && j < b.index.size()) {
    if (a.index[i] < b.index[j]) {
      ++i;
    } else if (a.index[i] > b.index[j]) {
      ++j;
    } else {
      acc += std::conj(a.value[i]) * b.value[j];
      ++i;
      ++j;
    }
  }
  return acc;
}

/// Cyclic complex Hermitian Jacobi eigensolver: diagonalizes \p a in
/// place (eigenvalues end up on the diagonal) and accumulates the
/// unitary similarity into \p v (columns become eigenvectors, V^H A V =
/// Λ). Deterministic: fixed (p, q) sweep order, convergence test on the
/// relative off-diagonal norm. O(n³) per sweep; the Gram matrices here
/// are tens-by-tens, so cost is microseconds against the FFTs it saves.
void jacobi_hermitian(std::vector<std::vector<Complex>>& a,
                      std::vector<std::vector<Complex>>& v) {
  const std::size_t n = a.size();
  v.assign(n, std::vector<Complex>(n, Complex{0.0, 0.0}));
  for (std::size_t i = 0; i < n; ++i) v[i][i] = Complex{1.0, 0.0};
  if (n < 2) return;

  for (int sweep = 0; sweep < 64; ++sweep) {
    double off2 = 0.0, diag2 = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      diag2 += std::norm(a[p][p]);
      for (std::size_t q = p + 1; q < n; ++q) off2 += std::norm(a[p][q]);
    }
    if (off2 <= 1e-28 * (diag2 + off2)) break;
    const double skip2 = 1e-32 * (diag2 + off2) / static_cast<double>(n * n);

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double r = std::abs(a[p][q]);
        if (r * r <= skip2) continue;
        // Unitary plane rotation in the (p, q) plane zeroing a[p][q]:
        // with w = a[p][q]/|a[p][q]|, τ = (a_pp − a_qq)/(2|a_pq|),
        // t = sign(τ)/(|τ| + sqrt(τ²+1)), c = 1/sqrt(t²+1), s = t·c,
        // U has columns u_p = (c, s·w̄), u_q = (−s, c·w̄).
        const Complex w = a[p][q] / r;
        const double tau = (a[p][p].real() - a[q][q].real()) / (2.0 * r);
        const double t = tau >= 0.0
                             ? 1.0 / (tau + std::sqrt(tau * tau + 1.0))
                             : 1.0 / (tau - std::sqrt(tau * tau + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        const Complex cwc = c * std::conj(w);  // c·w̄
        const Complex swc = s * std::conj(w);  // s·w̄
        const Complex cw = c * w;
        const Complex sw = s * w;
        // A ← A·U (columns p, q of every row)...
        for (std::size_t i = 0; i < n; ++i) {
          const Complex ap = a[i][p], aq = a[i][q];
          a[i][p] = ap * c + aq * swc;
          a[i][q] = -ap * s + aq * cwc;
        }
        // ...then A ← U^H·A (rows p, q of every column).
        for (std::size_t i = 0; i < n; ++i) {
          const Complex ap = a[p][i], aq = a[q][i];
          a[p][i] = c * ap + sw * aq;
          a[q][i] = -s * ap + cw * aq;
        }
        // V ← V·U accumulates the eigenvector columns.
        for (std::size_t i = 0; i < n; ++i) {
          const Complex vp = v[i][p], vq = v[i][q];
          v[i][p] = vp * c + vq * swc;
          v[i][q] = -vp * s + vq * cwc;
        }
      }
    }
  }
}

}  // namespace

KernelSet build_socs_kernels(const OpticalSystem& sys, const Frame& frame,
                             double defocus_nm, const SocsOptions& opts) {
  OPCKIT_CHECK_MSG(is_pow2(frame.nx) && is_pow2(frame.ny),
                   "frame dims must be powers of two, got "
                       << frame.nx << 'x' << frame.ny);
  OPCKIT_CHECK(opts.epsilon > 0.0 && opts.epsilon < 1.0);

  const std::vector<SourcePoint> source = sample_source(sys);
  const std::size_t S = source.size();
  const std::vector<SparsePupil> pupils =
      shifted_pupils(sys, frame, defocus_nm, source);

  // Hermitian Gram matrix G_st = <a_s, a_t>; fill the upper triangle and
  // mirror (Hermitian by construction up to rounding; the mirror makes
  // it exact).
  std::vector<std::vector<Complex>> g(S, std::vector<Complex>(S));
  for (std::size_t s = 0; s < S; ++s) {
    g[s][s] = Complex{sparse_dot(pupils[s], pupils[s]).real(), 0.0};
    for (std::size_t t = s + 1; t < S; ++t) {
      const Complex d = sparse_dot(pupils[s], pupils[t]);
      g[s][t] = d;
      g[t][s] = std::conj(d);
    }
  }
  double total_energy = 0.0;  // trace(G) = Σ_s w_s·‖P_s‖²
  for (std::size_t s = 0; s < S; ++s) total_energy += g[s][s].real();
  OPCKIT_CHECK_MSG(total_energy > 0.0,
                   "source energy vanished — no pupil support on the grid");

  std::vector<std::vector<Complex>> v;
  jacobi_hermitian(g, v);

  // Rank eigenpairs by eigenvalue, descending; stable index tie-break
  // keeps the ordering deterministic under degenerate eigenvalues.
  std::vector<std::size_t> order(S);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t i, std::size_t j) {
                     return g[i][i].real() > g[j][j].real();
                   });

  // Keep every eigenpair above the relative cutoff λ ≥ ε·λ_max. (Not a
  // captured-energy criterion: the discrete spectrum's flat tail would
  // force k ≈ |S| at tight tolerances; see the header.)
  const double lambda_max = g[order.front()][order.front()].real();
  OPCKIT_CHECK_MSG(lambda_max > 0.0, "no positive eigenvalues in SOCS Gram");
  const double lambda_floor = opts.epsilon * lambda_max;
  std::vector<std::size_t> kept;
  double captured = 0.0;
  for (std::size_t k : order) {
    const double lambda = g[k][k].real();
    if (lambda < lambda_floor) break;
    kept.push_back(k);
    captured += lambda;
  }

  // Union support of all shifted pupils, ascending: the scatter target
  // for kernel synthesis and the stored sparse support of every kernel.
  std::vector<std::uint32_t> support;
  for (const SparsePupil& p : pupils) {
    support.insert(support.end(), p.index.begin(), p.index.end());
  }
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());

  const std::size_t n = frame.nx * frame.ny;
  std::vector<Complex> scratch(n, Complex{0.0, 0.0});
  KernelSet set;
  set.source_points = S;
  set.energy_captured = captured / total_energy;
  set.support = std::move(support);
  set.kernels.reserve(kept.size());
  for (std::size_t k : kept) {
    // ψ_k(f) = Σ_s v[s][k]·a_s(f); ‖ψ_k‖² = λ_k, so the stored kernel
    // is φ_k = ψ_k/sqrt(λ_k) with weight λ_k.
    for (std::size_t s = 0; s < S; ++s) {
      const Complex coef = v[s][k];
      const SparsePupil& p = pupils[s];
      for (std::size_t j = 0; j < p.index.size(); ++j) {
        scratch[p.index[j]] += coef * p.value[j];
      }
    }
    Kernel ker;
    ker.weight = g[k][k].real();
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
