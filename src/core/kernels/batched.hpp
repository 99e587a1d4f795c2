// SPMD batch-parallel kernels: K state vectors evolved in lockstep.
//
// Layout is batch-innermost (element (amplitude k, member b) lives at
// [k*B + b]), so the per-gate index arithmetic of Eq. (1)/(2) is computed
// ONCE per pair/quadruple and amortized over all B members, and every
// member access is a contiguous run of B doubles — a SIMD lane carries a
// different batch member, never a different amplitude. That sidesteps the
// classic low-qubit problem of amplitude-wise vectorization: a gate on
// qubit 0 is exactly as vectorizable as a gate on qubit 20.
//
// The unitary kernels are the shared gate bodies of kernels/gates.hpp —
// the same pattern × body pairs the solo engines run — under the batched
// strategy: one index-map evaluation per work item, then the body across
// the members through a *lane policy* (ScalarLane / Avx2Lane /
// Avx512Lane, kernels/lanes.hpp). for_members() walks the batch in full
// lane-width chunks and finishes any remainder through ScalarLane, so B
// need not be a multiple of the lane width.
//
// Divergence (the CppSPMD idiom): unitary gates are uniform across the
// batch — members differ only in their per-member coefficient rows (one
// gate-table read, B coefficient columns). Mid-circuit measure/reset is
// where members truly diverge: each member draws from its OWN RNG stream
// and may collapse in a different direction. Those kernels build an
// exec-mask over the batch and run the collapse loop masked (blended
// stores), with all-lanes-on / all-lanes-off fast paths that skip the
// blends entirely when the batch happens to agree — which for strongly
// polarized qubits is the common case.
//
// Determinism contract (the diffcheck `batched` axis pins this): member b
// of a batched run with base seed s reproduces a solo run with seed s+b
// bit-for-bit in classical outcomes — cbits and sampled shots — because
// (a) member b's RNG stream consumes draws at exactly the solo schedule
// (one per M, none per RESET, `shots` per MA), and (b) every probability
// sum accumulates in the solo kernel's pair order, member-wise.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/kernels/blocked.hpp"
#include "core/kernels/gates.hpp"
#include "core/kernels/lanes.hpp"
#include "core/kernels/nonunitary.hpp"
#include "ir/gate.hpp"

namespace svsim::kernels {

// ---------------------------------------------------------------------------
// Batched address space.
// ---------------------------------------------------------------------------

/// The batched twin of LocalSpace: B state vectors, per-member RNG
/// streams, per-member classical bits and measure-all results.
struct BatchedSpace {
  ValType* real = nullptr; // (amp k, member b) at [k*batch + b]
  ValType* imag = nullptr;
  IdxType dim = 0;
  IdxType batch = 0;
  Rng* rngs = nullptr;       // batch streams, member b seeded base+b
  IdxType* cbits = nullptr;  // [cbit*batch + b]
  IdxType* results = nullptr; // measure-all: [b*n_shots + s]
  IdxType n_shots = 0;
};

// ---------------------------------------------------------------------------
// Unitary kernels: the batched strategy over the shared pattern × body
// list. A gate's coefficient rows hold one column per member
// (UGate::stride = B), so every lane chunk loads them contiguously.
// ---------------------------------------------------------------------------

using BatchedKernelFn = void (*)(const UGate&, const BatchedSpace&, IdxType,
                                 IdxType);

/// Pattern P × body B on work items [begin, end) of every member: the
/// index map once per work item, the body across the members.
template <Pat P, class B, class L>
void batched_kernel(const UGate& ug, const BatchedSpace& sp, IdxType begin,
                    IdxType end) {
  using Pt = Pattern<P>;
  constexpr int E = Pt::kElems;
  const Pt pat(ug.g);
  const IdxType nb = sp.batch;
  for (IdxType i = begin; i < end; ++i) {
    const IdxType s = pat.base(i);
    for (int k = 0; k < Pt::kSites; ++k) {
      IdxType at[E];
      for (int j = 0; j < E; ++j) at[j] = (s + pat.off[k][j]) * nb;
      for_members<L>(nb, [&]<class V>(IdxType b) {
        using W = typename V::V;
        W c[B::kRows > 0 ? B::kRows : 1]{};
        for (int r = 0; r < B::kRows; ++r) {
          c[r] = V::load(ug.coef + r * ug.stride + b);
        }
        W re[E];
        W im[E];
        for (int j = 0; j < E; ++j) {
          re[j] = V::load(sp.real + at[j] + b);
          im[j] = V::load(sp.imag + at[j] + b);
        }
        apply_site<B, V>(c, re, im);
        for (int j = E - 1; j >= 0; --j) {
          V::store(sp.real + at[j] + b, re[j]);
          V::store(sp.imag + at[j] + b, im[j]);
        }
      });
    }
  }
}

namespace batched_detail {

/// A dense 2x2 acting on purely real entries e = (m00, m01, m10, m11):
/// the matrix acts on the real and imaginary planes independently — half
/// the multiplies of BodyDense, which is what makes the combined pass a
/// strict win (the complex form trades the halved traffic for doubled
/// flops and roughly breaks even on rotation layers).
template <class V, class W>
inline void reg_2x2_real(const W* e, W& r0, W& i0, W& r1, W& i1) {
  const W nr0 = V::add(V::mul(e[0], r0), V::mul(e[1], r1));
  const W ni0 = V::add(V::mul(e[0], i0), V::mul(e[1], i1));
  const W nr1 = V::add(V::mul(e[2], r0), V::mul(e[3], r1));
  const W ni1 = V::add(V::mul(e[2], i0), V::mul(e[3], i1));
  r0 = nr0;
  i0 = ni0;
  r1 = nr1;
  i1 = ni1;
}

} // namespace batched_detail

/// Two independent dense 1q gates in ONE pass over the slab: gate P on
/// qubit qb0 (low) and gate Q on qubit qb1 (high), with 16 coefficient
/// rows (P's dense rows 0-7, Q's rows 8-15). Each quadruple is loaded
/// once, P is applied to its qubit-p pairs and Q to its qubit-q pairs
/// entirely in registers (BodyDense), then stored — the same arithmetic
/// as two sequential passes at half the memory traffic. That matters here
/// and not in the solo engine: a solo state at bench sizes lives in L1,
/// but the B-wide slab streams from L2, so batched gate cost is traffic,
/// not flops. The combining pass in BatchedSim::execute builds these.
template <class L>
void bk_pair1q(const UGate& ug, const BatchedSpace& sp, IdxType begin,
               IdxType end) {
  const IdxType p = ug.g.qb0;
  const IdxType q = ug.g.qb1;
  const IdxType B = sp.batch;
  const IdxType st = ug.stride;
  const ValType* m = ug.coef;
  const IdxType offp = pow2(p) * B;
  const IdxType offq = pow2(q) * B;
  for_members<L>(B, [&]<class V>(IdxType b) {
    using W = typename V::V;
    W pc[8], qc[8];
    for (int r = 0; r < 8; ++r) pc[r] = V::load(m + r * st + b);
    for (int r = 0; r < 8; ++r) qc[r] = V::load(m + (8 + r) * st + b);
    for (IdxType i = begin; i < end; ++i) {
      const IdxType s = quad_base(i, p, q) * B + b;
      W r0 = V::load(sp.real + s);
      W i0 = V::load(sp.imag + s);
      W r1 = V::load(sp.real + s + offp);
      W i1 = V::load(sp.imag + s + offp);
      W r2 = V::load(sp.real + s + offq);
      W i2 = V::load(sp.imag + s + offq);
      W r3 = V::load(sp.real + s + offp + offq);
      W i3 = V::load(sp.imag + s + offp + offq);
      BodyDense::pair<V>(pc, r0, i0, r1, i1);
      BodyDense::pair<V>(pc, r2, i2, r3, i3);
      BodyDense::pair<V>(qc, r0, i0, r2, i2);
      BodyDense::pair<V>(qc, r1, i1, r3, i3);
      V::store(sp.real + s, r0);
      V::store(sp.imag + s, i0);
      V::store(sp.real + s + offp, r1);
      V::store(sp.imag + s + offp, i1);
      V::store(sp.real + s + offq, r2);
      V::store(sp.imag + s + offq, i2);
      V::store(sp.real + s + offp + offq, r3);
      V::store(sp.imag + s + offp + offq, i3);
    }
  });
}

/// bk_pair1q for the case where BOTH matrices are purely real (RX-free
/// rotation layers: RY, H, X, Z, ...). The combining pass detects zero
/// imaginary coefficient rows at emission and routes here: the real and
/// imaginary planes are transformed independently, so the quad costs the
/// same arithmetic as two specialized single-gate passes while still
/// paying the memory traffic only once. Coefficient layout is unchanged
/// (16 dense rows); only the real rows 0,2,4,6 of each gate load.
template <class L>
void bk_pair1q_real(const UGate& ug, const BatchedSpace& sp, IdxType begin,
                    IdxType end) {
  const IdxType p = ug.g.qb0;
  const IdxType q = ug.g.qb1;
  const IdxType B = sp.batch;
  const IdxType st = ug.stride;
  const ValType* m = ug.coef;
  const IdxType offp = pow2(p) * B;
  const IdxType offq = pow2(q) * B;
  for_members<L>(B, [&]<class V>(IdxType b) {
    using W = typename V::V;
    W pc[4], qc[4];
    for (int r = 0; r < 4; ++r) pc[r] = V::load(m + 2 * r * st + b);
    for (int r = 0; r < 4; ++r) qc[r] = V::load(m + (8 + 2 * r) * st + b);
    for (IdxType i = begin; i < end; ++i) {
      const IdxType s = quad_base(i, p, q) * B + b;
      W r0 = V::load(sp.real + s);
      W i0 = V::load(sp.imag + s);
      W r1 = V::load(sp.real + s + offp);
      W i1 = V::load(sp.imag + s + offp);
      W r2 = V::load(sp.real + s + offq);
      W i2 = V::load(sp.imag + s + offq);
      W r3 = V::load(sp.real + s + offp + offq);
      W i3 = V::load(sp.imag + s + offp + offq);
      batched_detail::reg_2x2_real<V>(pc, r0, i0, r1, i1);
      batched_detail::reg_2x2_real<V>(pc, r2, i2, r3, i3);
      batched_detail::reg_2x2_real<V>(qc, r0, i0, r2, i2);
      batched_detail::reg_2x2_real<V>(qc, r1, i1, r3, i3);
      V::store(sp.real + s, r0);
      V::store(sp.imag + s, i0);
      V::store(sp.real + s + offp, r1);
      V::store(sp.imag + s + offp, i1);
      V::store(sp.real + s + offq, r2);
      V::store(sp.imag + s + offq, i2);
      V::store(sp.real + s + offp + offq, r3);
      V::store(sp.imag + s + offp + offq, i3);
    }
  });
}

// ---------------------------------------------------------------------------
// Divergent kernels: measure / reset with a per-member exec-mask, and the
// per-member sampling measure-all. These are where batch members stop
// agreeing — each draws on its own RNG stream and may collapse in its own
// direction — so the collapse loops run masked, with all-on/all-off fast
// paths that skip every blend when the whole batch went the same way.
// ---------------------------------------------------------------------------

template <class L>
void bk_measure(const UGate& bg, const BatchedSpace& sp, IdxType begin,
                IdxType end) {
  const IdxType q = bg.g.qb0;
  const IdxType B = sp.batch;
  const IdxType stride = pow2(q) * B;

  // Phase 1: per-member P(|1>), accumulated in the solo kernel's pair
  // order so each member's sum reproduces its solo run.
  std::vector<ValType> acc(static_cast<std::size_t>(B), 0);
  ValType* accp = acc.data();
  for (IdxType i = begin; i < end; ++i) {
    const IdxType p1 = pair_base(i, q) * B + stride;
    for_members<L>(B, [&]<class V>(IdxType b) {
      const auto r = V::load(sp.real + p1 + b);
      const auto im = V::load(sp.imag + p1 + b);
      V::store(accp + b, V::add(V::load(accp + b),
                                V::add(V::mul(r, r), V::mul(im, im))));
    });
  }

  // Phase 2: per-member draw on that member's own stream; build the
  // exec-mask (~0 = outcome |1>), scales, and classical bits.
  std::vector<std::uint64_t> one_mask(static_cast<std::size_t>(B));
  std::vector<ValType> scale(static_cast<std::size_t>(B));
  IdxType n_one = 0;
  for (IdxType b = 0; b < B; ++b) {
    const ValType prob1 =
        std::clamp(acc[static_cast<std::size_t>(b)], ValType{0}, ValType{1});
    const ValType u = sp.rngs[b].next_double();
    const bool one = u < prob1;
    const ValType keep = one ? prob1 : (1.0 - prob1);
    scale[static_cast<std::size_t>(b)] =
        keep > 0 ? 1.0 / std::sqrt(keep) : 0.0;
    one_mask[static_cast<std::size_t>(b)] = one ? ~std::uint64_t{0} : 0;
    if (one) ++n_one;
    if (sp.cbits != nullptr && bg.g.cbit >= 0) {
      sp.cbits[bg.g.cbit * B + b] = one ? 1 : 0;
    }
  }
  const std::uint64_t* maskp = one_mask.data();
  const ValType* scalep = scale.data();
  const bool all_one = n_one == B;
  const bool all_zero = n_one == 0;

  // Phase 3: collapse + renormalize, masked. The uniform fast paths are
  // the scalar kernel's two branches verbatim; the divergent path blends
  // per member.
  for (IdxType i = begin; i < end; ++i) {
    const IdxType p0 = pair_base(i, q) * B;
    const IdxType p1 = p0 + stride;
    if (all_one) {
      for_members<L>(B, [&]<class V>(IdxType b) {
        const auto sc = V::load(scalep + b);
        V::store(sp.real + p0 + b, V::zero());
        V::store(sp.imag + p0 + b, V::zero());
        V::store(sp.real + p1 + b, V::mul(V::load(sp.real + p1 + b), sc));
        V::store(sp.imag + p1 + b, V::mul(V::load(sp.imag + p1 + b), sc));
      });
    } else if (all_zero) {
      for_members<L>(B, [&]<class V>(IdxType b) {
        const auto sc = V::load(scalep + b);
        V::store(sp.real + p0 + b, V::mul(V::load(sp.real + p0 + b), sc));
        V::store(sp.imag + p0 + b, V::mul(V::load(sp.imag + p0 + b), sc));
        V::store(sp.real + p1 + b, V::zero());
        V::store(sp.imag + p1 + b, V::zero());
      });
    } else {
      for_members<L>(B, [&]<class V>(IdxType b) {
        const auto m = V::mask(maskp + b);
        const auto sc = V::load(scalep + b);
        const auto z = V::zero();
        const auto r0 = V::load(sp.real + p0 + b);
        const auto i0 = V::load(sp.imag + p0 + b);
        const auto r1 = V::load(sp.real + p1 + b);
        const auto i1 = V::load(sp.imag + p1 + b);
        // outcome |1>: p0 <- 0,        p1 <- p1*scale
        // outcome |0>: p0 <- p0*scale, p1 <- 0
        V::store(sp.real + p0 + b, V::blend(V::mul(r0, sc), z, m));
        V::store(sp.imag + p0 + b, V::blend(V::mul(i0, sc), z, m));
        V::store(sp.real + p1 + b, V::blend(z, V::mul(r1, sc), m));
        V::store(sp.imag + p1 + b, V::blend(z, V::mul(i1, sc), m));
      });
    }
  }
}

template <class L>
void bk_reset(const UGate& bg, const BatchedSpace& sp, IdxType begin,
              IdxType end) {
  const IdxType q = bg.g.qb0;
  const IdxType B = sp.batch;
  const IdxType stride = pow2(q) * B;

  // Per-member P(|0>), solo pair order.
  std::vector<ValType> acc(static_cast<std::size_t>(B), 0);
  ValType* accp = acc.data();
  for (IdxType i = begin; i < end; ++i) {
    const IdxType p0 = pair_base(i, q) * B;
    for_members<L>(B, [&]<class V>(IdxType b) {
      const auto r = V::load(sp.real + p0 + b);
      const auto im = V::load(sp.imag + p0 + b);
      V::store(accp + b, V::add(V::load(accp + b),
                                V::add(V::mul(r, r), V::mul(im, im))));
    });
  }

  // Exec-mask: set = project-onto-|0> path (prob0 > 1e-12), clear = the
  // qubit is deterministically |1> and its halves swap. No RNG draw —
  // reset is deterministic, matching the solo kernel's stream position.
  std::vector<std::uint64_t> keep_mask(static_cast<std::size_t>(B));
  std::vector<ValType> scale(static_cast<std::size_t>(B));
  IdxType n_keep = 0;
  for (IdxType b = 0; b < B; ++b) {
    const ValType prob0 =
        std::clamp(acc[static_cast<std::size_t>(b)], ValType{0}, ValType{1});
    const bool keep = prob0 > 1e-12;
    keep_mask[static_cast<std::size_t>(b)] = keep ? ~std::uint64_t{0} : 0;
    scale[static_cast<std::size_t>(b)] = keep ? 1.0 / std::sqrt(prob0) : 0.0;
    if (keep) ++n_keep;
  }
  const std::uint64_t* maskp = keep_mask.data();
  const ValType* scalep = scale.data();
  const bool all_keep = n_keep == B;
  const bool all_move = n_keep == 0;

  for (IdxType i = begin; i < end; ++i) {
    const IdxType p0 = pair_base(i, q) * B;
    const IdxType p1 = p0 + stride;
    if (all_keep) {
      for_members<L>(B, [&]<class V>(IdxType b) {
        const auto sc = V::load(scalep + b);
        V::store(sp.real + p0 + b, V::mul(V::load(sp.real + p0 + b), sc));
        V::store(sp.imag + p0 + b, V::mul(V::load(sp.imag + p0 + b), sc));
        V::store(sp.real + p1 + b, V::zero());
        V::store(sp.imag + p1 + b, V::zero());
      });
    } else if (all_move) {
      for_members<L>(B, [&]<class V>(IdxType b) {
        V::store(sp.real + p0 + b, V::load(sp.real + p1 + b));
        V::store(sp.imag + p0 + b, V::load(sp.imag + p1 + b));
        V::store(sp.real + p1 + b, V::zero());
        V::store(sp.imag + p1 + b, V::zero());
      });
    } else {
      for_members<L>(B, [&]<class V>(IdxType b) {
        const auto m = V::mask(maskp + b);
        const auto sc = V::load(scalep + b);
        const auto r0 = V::load(sp.real + p0 + b);
        const auto i0 = V::load(sp.imag + p0 + b);
        const auto r1 = V::load(sp.real + p1 + b);
        const auto i1 = V::load(sp.imag + p1 + b);
        V::store(sp.real + p0 + b, V::blend(r1, V::mul(r0, sc), m));
        V::store(sp.imag + p0 + b, V::blend(i1, V::mul(i0, sc), m));
        V::store(sp.real + p1 + b, V::zero());
        V::store(sp.imag + p1 + b, V::zero());
      });
    }
  }
}

/// Per-member measure-all: each member samples n_shots outcomes from its
/// own distribution with its own draws (the solo sweep, member-wise),
/// without collapsing. The per-member column scan is strided, but
/// sampling runs once per circuit — not worth a transpose.
template <class L>
void bk_measure_all(const UGate&, const BatchedSpace& sp, IdxType, IdxType) {
  const IdxType shots = sp.n_shots;
  const IdxType B = sp.batch;
  for (IdxType b = 0; b < B; ++b) {
    // Without results the member's stream only advances.
    auto draws = draw_shots(shots, sp.results != nullptr,
                            [&] { return sp.rngs[b].next_double(); });
    if (sp.results == nullptr) continue;
    sample_sweep(
        draws, sp.dim, std::nullopt,
        [&](IdxType k) {
          const ValType r = sp.real[k * B + b];
          const ValType im = sp.imag[k * B + b];
          return r * r + im * im;
        },
        sp.results + b * shots);
  }
}

// ---------------------------------------------------------------------------
// Blocked-scheduler support: a high-qubit diagonal gate has no block-local
// work-item range, so inside a blocked window it is applied as per-member
// phase rows selected by the (block-constant-free) amplitude index.
// ---------------------------------------------------------------------------

/// A diagonal gate lifted to the batch: per-member phase rows indexed by
/// the operand bit pattern k (as DiagTerm), row 2k = real, 2k+1 = imag.
struct BDiagGate {
  IdxType qa = -1;
  IdxType qb = -1;
  const ValType* rows = nullptr; // 8 rows of `stride` members
  IdxType stride = 0;
  bool identity[4] = {true, true, true, true}; // all members trivial at k
};

/// Fill member b's column of a BDiagGate from its DiagTerm, and clear the
/// identity flag for any pattern with a non-trivial phase.
inline void bdiag_fill(const DiagTerm& t, ValType* rows, IdxType stride,
                       IdxType b, bool identity[4]) {
  for (int k = 0; k < 4; ++k) {
    rows[(2 * k) * stride + b] = t.pr[k];
    rows[(2 * k + 1) * stride + b] = t.pi[k];
    if (!(t.pr[k] == 1 && t.pi[k] == 0)) identity[k] = false;
  }
}

/// Apply one batched diagonal gate to amplitudes [base, base+len): the
/// phase pattern k depends only on the amplitude index (same for every
/// member), so each amplitude is one row-select plus a complex multiply
/// across the batch. Patterns that are identity for every member skip the
/// sweep — the usual case for control-like gates on half their range.
template <class L>
inline void bapply_diag(const BDiagGate& d, const BatchedSpace& sp,
                        IdxType base, IdxType len) {
  const IdxType B = sp.batch;
  for (IdxType t = 0; t < len; ++t) {
    const IdxType idx = base + t;
    int k = static_cast<int>((idx >> d.qa) & 1);
    if (d.qb >= 0) k |= static_cast<int>((idx >> d.qb) & 1) << 1;
    if (d.identity[k]) continue;
    const ValType* pr = d.rows + (2 * k) * d.stride;
    const ValType* pi = d.rows + (2 * k + 1) * d.stride;
    const IdxType off = idx * B;
    for_members<L>(B, [&]<class V>(IdxType b) {
      const auto qr = V::load(pr + b);
      const auto qi = V::load(pi + b);
      const auto r = V::load(sp.real + off + b);
      const auto im = V::load(sp.imag + off + b);
      V::store(sp.real + off + b, V::sub(V::mul(qr, r), V::mul(qi, im)));
      V::store(sp.imag + off + b, V::add(V::mul(qr, im), V::mul(qi, r)));
    });
  }
}

using BatchedDiagFn = void (*)(const BDiagGate&, const BatchedSpace&, IdxType,
                               IdxType);

// ---------------------------------------------------------------------------
// Dispatch: the batched twin of SingleSim's kernel table, one per lane
// level, built on first use. The level is the engine's resolved
// RunSwitches::simd: resolve() has already rejected a level this build
// lacks, so the table is taken as given, never clamped.
// ---------------------------------------------------------------------------

struct BatchedTable {
  std::array<BatchedKernelFn, static_cast<std::size_t>(kNumOps)> fns{};
  BatchedDiagFn diag = nullptr;
  BatchedKernelFn pair1q = nullptr; // combined two-1q-gate quad pass
  BatchedKernelFn pair1q_real = nullptr; // both matrices purely real
  SimdLevel level = SimdLevel::kScalar;
  IdxType lane_width = 1;
};

namespace batched_detail {

template <class L>
inline BatchedTable build_batched_table() {
  BatchedTable t;
  t.level = L::kLevel;
  t.lane_width = L::W;
  t.diag = &bapply_diag<L>;
  t.pair1q = &bk_pair1q<L>;
  t.pair1q_real = &bk_pair1q_real<L>;
  auto& f = t.fns;
  for_each_unitary([&]<OP op, Pat P, class B>() {
    f[static_cast<int>(op)] = &batched_kernel<P, B, L>;
  });
  f[static_cast<int>(OP::ID)] = &kern_nop<BatchedSpace>;
  f[static_cast<int>(OP::BARRIER)] = &kern_nop<BatchedSpace>;
  f[static_cast<int>(OP::M)] = &bk_measure<L>;
  f[static_cast<int>(OP::MA)] = &bk_measure_all<L>;
  f[static_cast<int>(OP::RESET)] = &bk_reset<L>;
  return t;
}

} // namespace batched_detail

/// The batched kernel table at a level this build carries.
inline const BatchedTable& batched_kernel_table(SimdLevel level) {
  const BatchedTable* table = nullptr;
  with_lane(level, [&]<class L>() {
    static const BatchedTable t = batched_detail::build_batched_table<L>();
    table = &t;
  });
  return *table;
}

} // namespace svsim::kernels
