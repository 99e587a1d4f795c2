// Gate-window scheduling for cache-blocked execution.
//
// Every kernel streams the full state vector through memory once per gate
// (~32·2^n bytes of traffic: obs::kBytesPerAmp per amplitude, 16 read and
// 16 written) for nearly free arithmetic, so on a bandwidth-bound CPU the
// iteration schedule — not the FLOPs — is the cost model. This pass
// groups consecutive gates into *windows* whose non-diagonal action is
// confined to the low `b` index bits: within such a window every
// 2^b-amplitude aligned block is closed under all of the window's gates,
// so a backend can hold one block cache-resident and apply the whole
// window to it before moving on — one memory sweep per window instead of
// one per gate (the blocked executor lives in core/kernels/blocked.hpp).
//
// Legality rules (the window barriers):
//  * a non-diagonal gate joins only if ALL its operand qubits are < b
//    (its amplitude pairs/quadruples then never leave a block);
//  * a diagonal gate (Z/S/T/SDG/TDG/RZ/U1/CZ/CU1/CRZ/RZZ/ID) joins with
//    operands on ANY qubit — diagonal action touches each amplitude in
//    place, so it is block-closed by construction;
//  * measurement, reset, and barrier are hard window boundaries: they
//    carry collective protocol phases (reductions, RNG draws) that must
//    run in the plain per-gate loop.
// Order within and across windows is preserved exactly, so the schedule
// is a pure execution-plan annotation: the circuit itself is not rewritten
// (this composes with fusion and remap instead of duplicating them).
#pragma once

#include <vector>

#include "ir/circuit.hpp"

namespace svsim {

/// True for ops whose unitary is diagonal in the computational basis (the
/// gate multiplies each amplitude by a phase that depends only on the
/// operand bits of the index — no amplitude ever moves).
bool is_diagonal_gate(OP op);

/// One scheduled segment: gates [first_gate, first_gate + n_gates) of the
/// circuit, executed in order. `blocked` windows qualify for cache-blocked
/// execution; non-blocked windows run through the classic per-gate loop.
struct Window {
  IdxType first_gate = 0;
  IdxType n_gates = 0;
  bool blocked = false;
};

struct ScheduleStats {
  IdxType block_exp = 0;      // the `b` the schedule was built for
  IdxType windows = 0;        // blocked windows formed (>= 2 gates each)
  IdxType windowed_gates = 0; // gates living inside blocked windows
  IdxType passes_saved = 0;   // full-state sweeps avoided vs per-gate
};

struct Schedule {
  /// Covers every gate of the circuit exactly once, in circuit order.
  std::vector<Window> windows;
  ScheduleStats stats;

  bool has_blocked() const { return stats.windows != 0; }
};

/// Greedy order-preserving windowing of `circuit` for block exponent
/// `block_exp` (>= 2). Single qualifying gates stay per-gate (a window of
/// one saves nothing); runs of >= 2 become blocked windows. A non-zero
/// `checkpoint_every` adds a window barrier after every k-th gate
/// (1-based), so health checkpoints fire at exactly the same gate ids as
/// the classic per-gate loop.
Schedule build_schedule(const Circuit& circuit, IdxType block_exp,
                        IdxType checkpoint_every = 0);

} // namespace svsim
