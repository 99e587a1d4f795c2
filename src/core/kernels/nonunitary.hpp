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
//
// Measure-all samples through one sweep (sample_sweep): the draws in
// order, then one running sum over the basis states in logical order,
// under a remap layout in runs of 256 logical states with one
// permutation per run. Every backend's measure-all calls it with its own
// amplitude read: kern_measure_all through a Space's element access
// (SingleSim, GeneralizedSim, and the per-element reference of the
// partitioned tiers), kern_measure_all_parts straight from PeerSim's and
// ShmemSim's raw partitions with its traffic booked once per call, the
// coarse baseline's rank 0 from its gathered partitions, and the batched
// engine down one member's column.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

/// The (uniform, shot) `draws` in ascending order, the order std::sort
/// gives them, in O(shots) expected time: a counting pass scatters them
/// into `shots` buckets by ⌊u·shots⌋ in shot order, then each bucket is
/// sorted in place. The bucket index never falls as u grows (a product
/// by a positive constant rounds monotonically), so the buckets are
/// already in order; pairs compare lexicographically, so ties on u keep
/// shot order. Uniform draws leave about one per bucket.
inline void sort_draws(std::vector<std::pair<ValType, IdxType>>& draws) {
  const std::size_t n = draws.size();
  if (n < 2) return;
  const auto scale = static_cast<ValType>(n);
  const auto bucket = [&](ValType u) -> std::size_t {
    const ValType x = u * scale;
    if (!(x > 0)) return 0;
    return x < scale ? std::min(static_cast<std::size_t>(x), n - 1) : n - 1;
  };
  // end[b]: first the start of bucket b, then, after the scatter, its end.
  std::vector<std::size_t> end(n + 1, 0);
  for (const auto& d : draws) ++end[bucket(d.first) + 1];
  for (std::size_t b = 0; b < n; ++b) end[b + 1] += end[b];
  std::vector<std::pair<ValType, IdxType>> sorted(n);
  for (const auto& d : draws) sorted[end[bucket(d.first)]++] = d;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < n; ++b) {
    if (end[b] - begin > 1) {
      std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(begin),
                sorted.begin() + static_cast<std::ptrdiff_t>(end[b]));
    }
    begin = end[b];
  }
  draws.swap(sorted);
}

/// A measure-all's `shots` collective draws from `next` (a worker's RNG
/// replica): every worker takes all of them to keep its replica in
/// lockstep, and only the one that sweeps (`keep`) pairs them with their
/// shot index; the others return none.
template <class Next>
std::vector<std::pair<ValType, IdxType>> draw_shots(IdxType shots, bool keep,
                                                    Next&& next) {
  std::vector<std::pair<ValType, IdxType>> draws;
  if (!keep) {
    for (IdxType s = 0; s < shots; ++s) next();
    return draws;
  }
  draws.reserve(static_cast<std::size_t>(shots));
  for (IdxType s = 0; s < shots; ++s) draws.emplace_back(next(), s);
  return draws;
}

/// Inverse-CDF sampling in one sweep: order the (uniform, shot) `draws`
/// (sort_draws), then walk logical basis states k = 0, 1, ...
/// accumulating `norm_at(phys)`, |amplitude|^2 at k's physical index
/// (`perm`(k), or k when empty), and give each draw below the running
/// sum outcome k, stopping once every draw is placed. The sweep order is
/// what ties a sorted draw to its outcome, so every backend sweeps
/// logical order, with one running sum. Under a permutation the walk
/// goes in runs of 2^kLowBits logical states: one permutation per run,
/// plus its low table per state (BitPermutation). Draws past the final
/// sum (norm drift) land on the last state. Returns how many states it
/// visited: the first that many in logical order.
template <class NormAt>
IdxType sample_sweep(std::vector<std::pair<ValType, IdxType>>& draws,
                     IdxType dim, const std::optional<BitPermutation>& perm,
                     NormAt norm_at, IdxType* out) {
  sort_draws(draws);
  const std::size_t n_draws = draws.size();
  ValType cum = 0;
  IdxType k = 0;
  std::size_t d = 0;
  // The next draw's uniform, held in a register so a state that takes no
  // draw costs one compare; `open` until every draw is placed.
  bool open = n_draws > 0;
  ValType next = open ? draws[0].first : 0;
  // Logical state k, read at `phys`.
  const auto visit = [&](IdxType phys) {
    cum += norm_at(phys);
    if (next < cum) {
      do {
        out[draws[d].second] = k;
        ++d;
      } while (d < n_draws && draws[d].first < cum);
      open = d < n_draws;
      if (open) next = draws[d].first;
    }
    ++k;
  };
  if (!perm) {
    while (open && k < dim) visit(k);
  } else {
    const IdxType run = std::min(dim, pow2(BitPermutation::kLowBits));
    const IdxType* low = perm->low();
    while (open && k < dim) {
      const IdxType base = (*perm)(k);
      for (IdxType lo = 0; lo < run && open; ++lo) visit(base | low[lo]);
    }
  }
  for (; d < n_draws; ++d) out[draws[d].second] = dim - 1;
  return k;
}

/// How many of the first `visited` logical states of a sweep under
/// `perm` lie in each partition of 2^lg_part amplitudes: per full run of
/// the sweep, the low table's partition histogram offset by the run
/// base's partition bits (the two share no bit); the last, partial run
/// state by state.
inline std::vector<std::uint64_t> states_per_partition(
    const std::optional<BitPermutation>& perm, IdxType dim, IdxType visited,
    IdxType lg_part) {
  const auto n_parts = static_cast<std::size_t>(dim >> lg_part);
  std::vector<std::uint64_t> states(n_parts, 0);
  if (!perm) {
    for (std::size_t p = 0; p < n_parts; ++p) {
      const IdxType first = static_cast<IdxType>(p) << lg_part;
      states[p] = static_cast<std::uint64_t>(
          std::clamp(visited - first, IdxType{0}, pow2(lg_part)));
    }
    return states;
  }
  const IdxType run = std::min(dim, pow2(BitPermutation::kLowBits));
  const IdxType* low = perm->low();
  std::vector<std::uint64_t> hist(n_parts, 0);
  for (IdxType lo = 0; lo < run; ++lo) {
    ++hist[static_cast<std::size_t>(low[lo] >> lg_part)];
  }
  IdxType k = 0;
  for (; k + run <= visited; k += run) {
    const auto part = static_cast<std::size_t>((*perm)(k) >> lg_part);
    for (std::size_t q = 0; q < n_parts; ++q) states[part | q] += hist[q];
  }
  if (k < visited) {
    const IdxType base = (*perm)(k);
    for (IdxType lo = 0; k + lo < visited; ++lo) {
      ++states[static_cast<std::size_t>((base | low[lo]) >> lg_part)];
    }
  }
  return states;
}

/// measure_all: sample mctx->n_shots basis states into mctx->results
/// WITHOUT collapsing the state (sampling semantics, like the paper's MA
/// used for the repeated-shot workloads). Work range indexes amplitudes.
/// All workers draw the same uniforms to stay in RNG lockstep; only
/// worker 0 sweeps (it can reach every amplitude one-sidedly — the whole
/// point of the PGAS model), each amplitude through the Space's element
/// access.
template <class Space>
void kern_measure_all(const Gate& g, const Space& sp, IdxType, IdxType) {
  auto draws = draw_shots(sp.mctx->n_shots, sp.worker() == 0,
                          [&] { return sp.collective_uniform(); });
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

/// kern_measure_all on a partitioned Space's raw partitions (PeerSpace,
/// ShmemSpace): the same draws and sweep, amplitude i read straight from
/// real_parts[i >> lg_part][i & part_mask()], and the sweep's gets — 2
/// per visited state, to the partition that holds it — booked per
/// partition once per call through count_access, the totals per-element
/// access gives.
template <class Space>
void kern_measure_all_parts(const Gate& g, const Space& sp, IdxType,
                            IdxType) {
  auto draws = draw_shots(sp.mctx->n_shots, sp.worker() == 0,
                          [&] { return sp.collective_uniform(); });
  if (sp.worker() != 0) return;
  const auto perm =
      readout_permutation(sp.mctx->ma_layouts, sp.mctx->n_qubits, g.cbit);
  ValType* const* re = sp.real_parts;
  ValType* const* im = sp.imag_parts;
  const IdxType lg = sp.lg_part;
  const IdxType mask = sp.part_mask();
  const IdxType visited = sample_sweep(
      draws, sp.dim, perm,
      [re, im, lg, mask](IdxType phys) {
        const ValType r = re[phys >> lg][phys & mask];
        const ValType m = im[phys >> lg][phys & mask];
        return r * r + m * m;
      },
      sp.mctx->results);
  const std::vector<std::uint64_t> states =
      states_per_partition(perm, sp.dim, visited, lg);
  for (std::size_t p = 0; p < states.size(); ++p) {
    if (states[p] != 0) {
      sp.count_access(static_cast<int>(p), 2 * states[p], 0);
    }
  }
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
