// Non-unitary kernels: measure, measure-all (sampling), reset.
//
// These run inside the same single simulation kernel as the unitary gates
// (so a circuit with mid-circuit measurement still executes in one launch)
// but use the Space's SPMD protocol: sum-reduction for probabilities, a
// collective uniform draw (identical on every worker — the per-worker RNG
// replicas advance in lockstep), and barriers between phases.
//
// Determinism: given the same seed, every backend (single / peer / shmem /
// baselines) produces identical measurement outcomes, which the
// backend-equivalence property tests rely on.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "ir/gate.hpp"

namespace svsim::kernels {

/// measure q -> c : project onto the sampled outcome and renormalize.
/// Work range [begin, end) indexes amplitude pairs over q.
template <class Space>
void kern_measure(const Gate& g, const Space& sp, IdxType begin,
                  IdxType end) {
  const IdxType q = g.qb0;
  const IdxType stride = pow2(q);

  // Phase 1: probability of reading |1>.
  ValType local = 0;
  for (IdxType i = begin; i < end; ++i) {
    const IdxType p1 = pair_base(i, q) + stride;
    const ValType r = sp.get_real(p1);
    const ValType im = sp.get_imag(p1);
    local += r * r + im * im;
  }
  // Accumulated FP drift (and distributed-reduction rounding) can push
  // the reduced probability marginally outside [0,1]; clamp before the
  // draw so the branch cannot be biased past certainty and `keep` cannot
  // go negative into the sqrt below.
  const ValType prob1 =
      std::clamp(sp.reduce_sum(local), ValType{0}, ValType{1});

  // Phase 2: collective draw — same value on every worker.
  const ValType u = sp.collective_uniform();
  const bool one = u < prob1;
  const ValType keep = one ? prob1 : (1.0 - prob1);
  const ValType scale = keep > 0 ? 1.0 / std::sqrt(keep) : 0.0;

  // Phase 3: collapse + renormalize this worker's slice.
  for (IdxType i = begin; i < end; ++i) {
    const IdxType p0 = pair_base(i, q);
    const IdxType p1 = p0 + stride;
    if (one) {
      sp.set_real(p0, 0);
      sp.set_imag(p0, 0);
      sp.set_real(p1, sp.get_real(p1) * scale);
      sp.set_imag(p1, sp.get_imag(p1) * scale);
    } else {
      sp.set_real(p0, sp.get_real(p0) * scale);
      sp.set_imag(p0, sp.get_imag(p0) * scale);
      sp.set_real(p1, 0);
      sp.set_imag(p1, 0);
    }
  }
  if (sp.worker() == 0 && sp.mctx->cbits != nullptr && g.cbit >= 0) {
    sp.mctx->cbits[g.cbit] = one ? 1 : 0;
  }
  // The simulation-kernel loop issues the closing sync.
}

/// Virtual readout permutation (ir/remap) of a measure-all whose cbit is
/// `row`: when the circuit was remapped, the gate carries the index of a
/// logical→physical layout snapshot in `ma_layouts` (n_qubits wide). The
/// sweep then reads logical basis state k at its physical home and
/// reports logical bitstrings. Empty when unremapped or the identity.
inline std::optional<BitPermutation> readout_permutation(
    const IdxType* ma_layouts, IdxType n_qubits, IdxType row) {
  std::optional<BitPermutation> perm;
  if (ma_layouts == nullptr || row < 0) return perm;
  const IdxType* layout = ma_layouts + row * n_qubits;
  for (IdxType b = 0; b < n_qubits; ++b) {
    if (layout[b] != b) {
      perm.emplace(layout, n_qubits);
      break;
    }
  }
  return perm;
}

/// Inverse-CDF sampling in one sweep: sort the (uniform, shot) `draws`,
/// then walk logical basis states k = 0, 1, ... accumulating
/// `norm_at(phys)`, |amplitude|^2 at k's physical index (`perm`(k), or k
/// when empty), and give each draw below the running sum outcome k,
/// stopping once every draw is placed. The sweep order is what ties a
/// sorted draw to its outcome, so every backend sweeps logical order.
/// Draws past the final sum (norm drift) land on the last state.
template <class NormAt>
void sample_sweep(std::vector<std::pair<ValType, IdxType>>& draws,
                  IdxType dim, const std::optional<BitPermutation>& perm,
                  NormAt&& norm_at, IdxType* out) {
  std::sort(draws.begin(), draws.end());
  // One loop per layout, so the unpermuted sweep carries no test.
  const auto sweep = [&](auto&& phys) {
    ValType cum = 0;
    IdxType k = 0;
    std::size_t d = 0;
    while (d < draws.size() && k < dim) {
      cum += norm_at(phys(k));
      while (d < draws.size() && draws[d].first < cum) {
        out[draws[d].second] = k;
        ++d;
      }
      ++k;
    }
    for (; d < draws.size(); ++d) out[draws[d].second] = dim - 1;
  };
  if (perm) {
    sweep([&](IdxType k) { return (*perm)(k); });
  } else {
    sweep([](IdxType k) { return k; });
  }
}

/// measure_all: sample mctx->n_shots basis states into mctx->results
/// WITHOUT collapsing the state (sampling semantics, like the paper's MA
/// used for the repeated-shot workloads). Work range indexes amplitudes.
template <class Space>
void kern_measure_all(const Gate& g, const Space& sp, IdxType, IdxType) {
  const IdxType shots = sp.mctx->n_shots;
  // All workers draw the same uniforms to stay in RNG lockstep; only
  // worker 0 materializes the outcomes (it can reach every amplitude
  // one-sidedly — the whole point of the PGAS model).
  std::vector<std::pair<ValType, IdxType>> draws;
  draws.reserve(static_cast<std::size_t>(shots));
  for (IdxType s = 0; s < shots; ++s) {
    draws.emplace_back(sp.collective_uniform(), s);
  }
  if (sp.worker() != 0) return;
  sample_sweep(
      draws, sp.dim,
      readout_permutation(sp.mctx->ma_layouts, sp.mctx->n_qubits, g.cbit),
      [&](IdxType phys) {
        const ValType r = sp.get_real(phys);
        const ValType im = sp.get_imag(phys);
        return r * r + im * im;
      },
      sp.mctx->results);
}

/// reset q: project onto |0> (renormalizing) or, if the qubit is
/// deterministically |1>, swap the halves — matching Qiskit's reset.
template <class Space>
void kern_reset(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  const IdxType q = g.qb0;
  const IdxType stride = pow2(q);

  ValType local = 0;
  for (IdxType i = begin; i < end; ++i) {
    const IdxType p0 = pair_base(i, q);
    const ValType r = sp.get_real(p0);
    const ValType im = sp.get_imag(p0);
    local += r * r + im * im;
  }
  // Same clamp as kern_measure: drift must not leak through the
  // renormalization scale.
  const ValType prob0 =
      std::clamp(sp.reduce_sum(local), ValType{0}, ValType{1});

  if (prob0 > 1e-12) {
    const ValType scale = 1.0 / std::sqrt(prob0);
    for (IdxType i = begin; i < end; ++i) {
      const IdxType p0 = pair_base(i, q);
      const IdxType p1 = p0 + stride;
      sp.set_real(p0, sp.get_real(p0) * scale);
      sp.set_imag(p0, sp.get_imag(p0) * scale);
      sp.set_real(p1, 0);
      sp.set_imag(p1, 0);
    }
  } else {
    // Qubit is |1> with certainty: move the |1> half into the |0> half.
    for (IdxType i = begin; i < end; ++i) {
      const IdxType p0 = pair_base(i, q);
      const IdxType p1 = p0 + stride;
      sp.set_real(p0, sp.get_real(p1));
      sp.set_imag(p0, sp.get_imag(p1));
      sp.set_real(p1, 0);
      sp.set_imag(p1, 0);
    }
  }
}

} // namespace svsim::kernels
