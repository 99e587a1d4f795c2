// Gate fusion / circuit optimization passes.
//
// The paper contrasts SV-Sim's specialized kernels with qsim's "gate
// fusion" optimization (§6); two passes provide the complementary
// transformation for SV-Sim circuits:
//
//  * fuse_gates (Simulator::run_fused): runs of adjacent 1-qubit gates on
//    the same qubit collapse into a single u3 (via ZYZ resynthesis of the
//    accumulated 2x2), exact identities are dropped, and adjacent
//    mutually-inverse 2-qubit gates cancel (cx-cx, swap-swap,
//    crz(t)-crz(-t), ...). Deep QASMBench circuits shrink substantially (a
//    decomposed QFT loses its u1 chains into the neighbouring gates).
//  * fuse_pairs (the dispatch pipeline's fuse stage): each run of gates
//    confined to one qubit pair becomes one dense 4x4 op (OP::DENSE2),
//    one sweep of the state instead of one per member, wherever the
//    members' modeled sweeps outweigh it (Fatima & Markov,
//    arXiv:2008.00216, at k = 2).
#pragma once

#include "ir/circuit.hpp"
#include "ir/matrices.hpp"

namespace svsim {

struct FusionStats {
  IdxType gates_before = 0;
  IdxType gates_after = 0;
  IdxType fused_1q = 0;      // 1q gates absorbed into u3s
  IdxType cancelled_2q = 0;  // 2q gates removed by inverse cancellation
  IdxType dropped_identity = 0;
  IdxType dense_blocks = 0;   // DENSE2 ops fuse_pairs emitted
  IdxType dense_absorbed = 0; // gates those DENSE2 ops replaced
};

/// Decompose a 2x2 unitary into u3(theta, phi, lam) up to global phase.
/// Inverse of matrix_1q for OP::U3 (property-tested both ways).
Gate u3_from_matrix(const Mat2& u, IdxType qubit);

/// Fuse `in` as described above. The result is state-equivalent up to a
/// global phase. Circuits containing measurement/reset are supported:
/// fusion never moves a gate across a non-unitary operation or a barrier.
Circuit fuse_gates(const Circuit& in, FusionStats* stats = nullptr);

/// Modeled amplitudes gate `g`'s kernel sweeps on an `n_qubits`-qubit
/// state. The pipeline passes the run model's (obs::gate_cost(g, n).amps)
/// so this pass prices nothing itself.
using SweepAmps = double (*)(const Gate& g, IdxType n_qubits);

/// A block becomes one DENSE2 when its members' modeled amplitudes reach
/// this many dense sweeps (one sweep: 2^n amplitudes). bench_micro_gates
/// at 16 qubits, AVX-512, pinned to one core: DENSE2 /5/11 36.4 us, /1/11
/// 42.5 us, /1/0 63.6 us, against U3/5 24.2 us (one modeled sweep) and
/// CX/5/11 13.1 us (half a sweep), so a dense sweep costs 1.4-2.6
/// specialized sweeps. A prototype of this pass on qasm_rand16 circuits
/// (40 circuits x 3 runs, pinned; 11.3-11.5 ms unfused) read loop times
/// of 7.3-8.2 ms at factors 0.4-1.2, 6.1-7.4 ms (flat within noise) at
/// 1.9-3.0 and 9.3 ms at 4.5. The rule prices sweeps, not the pass
/// (40-65 ns per input gate on the Table 4 circuits, 4-vCPU AVX-512
/// Xeon), nor the state's cache level: on a state that fits in L1
/// (bench_ablation_fusion's 11-qubit rows) the sweeps saved are cheap,
/// and the pass and the dense body's flops about cancel them. It has no
/// size floor, which would take the stage out of every small-register
/// check (svsim_diffcheck runs 6-qubit circuits).
inline constexpr double kDenseSweeps = 2.0;

/// Pair fusion, one greedy walk over the gates. A 2-qubit gate on (a, b)
/// closes any open block on a or b, then opens a block on {a, b} that
/// absorbs the 1-qubit gates pending on a and b; later 1-qubit gates on a
/// or b and 2-qubit gates on exactly {a, b} join it. Any other gate on a
/// or b closes it, and measure, reset, measure-all and barrier close
/// every block. A closed block becomes one DENSE2 on (min, max) of its
/// pair — its members' product, each member's |01> and |10> exchanged
/// when its operands run the other way — when it has at least two members
/// whose summed `amps` reach kDenseSweeps dense sweeps; otherwise its
/// members stay as they were, in order. A gate with an operand at or
/// above `lg_part` never joins a block. The result is the same unitary up
/// to rounding (no global phase is dropped) and writes `stats`'
/// dense_blocks and dense_absorbed only.
Circuit fuse_pairs(const Circuit& in, IdxType lg_part, SweepAmps amps,
                   FusionStats* stats = nullptr);

} // namespace svsim
