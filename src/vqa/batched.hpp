// Batched variational evaluation — the paper's stated future work
// (§5/§7: "building a variational algorithm specific simulator by
// further parallelizing the variational optimization loop ... batched
// simulation").
//
// vqa::BatchedSim is the ansatz-facing adapter over the core SPMD
// batched engine (core/batched_sim.hpp): it binds one ParamCircuit to B
// parameter vectors and evolves the B members in lockstep through the
// SIMD batched kernels — one upload per sweep, batch-innermost layout,
// explicit vector lanes across members. Since the engine carries the
// full kernel family including exec-masked measure and reset, ansatze
// are no longer restricted to unitary gates: mid-circuit measurement
// diverges per member on member-b's own RNG stream (seed cfg.seed + b).
// Nelder-Mead simplex evaluations and SPSA probe pairs are natural
// batches (vqa/optimizer.hpp's BatchObjective drives this).
//
// <H> is read from the batched amplitudes through a CompiledObservable
// (one sweep per X/Y flip mask, not per Pauli term), and the objective
// an optimizer calls (energy_objective) keeps that observable and its
// engines across calls, so a call costs about its gate loop.
#pragma once

#include <vector>

#include "common/config.hpp"
#include "core/batched_sim.hpp"
#include "core/state_vector.hpp"
#include "vqa/ansatz.hpp"
#include "vqa/optimizer.hpp"
#include "vqa/pauli.hpp"

namespace svsim::vqa {

/// A Hamiltonian compiled for the batch-innermost layout. A Pauli string
/// maps |k> to a phase times |k ^ x>, x its X/Y flip mask, so the terms
/// that share x read the same amplitude pairs; the compiled form keeps
/// one group per flip mask and evaluates <H> in one sweep per group:
///  - all diagonal (Z-only) terms fold into one weight per basis state,
///    swept once over |psi_k|^2;
///  - an off-diagonal group sweeps half the pairs — k with the group's
///    highest flip bit clear — and doubles the sum: every Pauli string is
///    Hermitian, so k and k ^ x contribute equally.
/// The member loops run at the engine's lane width (kernels::for_members
/// with a scalar tail). The weight table holds 2^m doubles, m the highest
/// Z qubit + 1. Immutable once built, so one instance may serve many
/// engines and threads.
class CompiledObservable {
public:
  explicit CompiledObservable(const Hamiltonian& h);

  /// Sweeps one evaluation makes: the diagonal sweep, if any, plus one
  /// half-sweep per flip mask.
  std::size_t n_sweeps() const {
    return (diag_.empty() ? 0 : 1) + groups_.size();
  }

  /// <H> for every member of `engine`'s current state.
  std::vector<ValType> evaluate(const svsim::BatchedSim& engine) const;

private:
  /// One Pauli string of a group: (-1)^popcount(k & zy) times its
  /// coefficient with i^nY folded in (cr + i*ci, one of them zero).
  struct Term {
    IdxType zy = 0;
    ValType cr = 0;
    ValType ci = 0;
  };
  struct Group {
    IdxType x = 0;
    std::vector<Term> terms;
    bool has_re = false; // some term has an even Y count
    bool has_im = false; // some term has an odd Y count
  };
  IdxType n_ = 0;
  ValType constant_ = 0;
  obs::TrackedBuffer<ValType> diag_; // weight of basis state k & (size-1)
  std::vector<Group> groups_;
};

class BatchedSim {
public:
  BatchedSim(IdxType n_qubits, int batch, SimConfig cfg = {});

  IdxType n_qubits() const { return engine_.n_qubits(); }
  int batch() const { return static_cast<int>(engine_.batch()); }

  /// Execute `ansatz` bound to params[b] on member b (params.size() must
  /// equal batch()). Measure/reset gates are allowed: they run through
  /// the engine's exec-masked kernels and diverge per member.
  void run_fresh(const ParamCircuit& ansatz,
                 const std::vector<std::vector<ValType>>& params);

  /// Snapshot one member's state.
  StateVector state(int member) const {
    return engine_.state(static_cast<IdxType>(member));
  }

  /// <H> for every member: compiles `h` (CompiledObservable) and
  /// evaluates it, one sweep per X/Y flip mask.
  std::vector<ValType> expectations(const Hamiltonian& h) const;

  /// The underlying SPMD engine (reports, sampling, direct state access).
  svsim::BatchedSim& engine() { return engine_; }
  const svsim::BatchedSim& engine() const { return engine_; }

private:
  svsim::BatchedSim engine_;
};

/// Convenience: evaluate <H> for many parameter vectors of one ansatz in
/// batches of `batch` — one call of a temporary energy_objective, so its
/// engines live for this sweep only.
std::vector<ValType> batched_energy_sweep(
    IdxType n_qubits, const ParamCircuit& ansatz, const Hamiltonian& h,
    const std::vector<std::vector<ValType>>& param_sets, int batch = 8);

/// The batched VQE objective: <H> of `ansatz` at each parameter point,
/// `batch` points per lockstep pass. Hand it to NelderMead/Spsa
/// minimize(BatchObjective, ...) and the simplex init, shrink steps, and
/// SPSA probe pairs each collapse into one pass.
///
/// It compiles `h` once (CompiledObservable) and keeps one engine per
/// pass width it has run — the full width, and a ragged tail's (SPSA's
/// probe pairs are a width-2 tail on every call) — so after the first
/// call a call costs its gate loops, a coefficient refill and the
/// sweeps: no engine construction and no plan compilation (the engine
/// caches its plan's structure across member sweeps). Energies are
/// bit-for-bit those of a fresh BatchedSim → run_fresh → expectations on
/// every pass.
///
/// Memory: the engines stay allocated between calls, until the objective
/// is destroyed — up to one engine per width in [1, batch].
/// Reentrancy: one objective is not reentrant; a call reruns its
/// engines, so concurrent calls on the same object (or on a reference to
/// it) race. A copy shares the immutable compiled observable but starts
/// with no engines, so copies may run on different threads.
BatchObjective energy_objective(IdxType n_qubits, ParamCircuit ansatz,
                                Hamiltonian h, int batch = 8);

} // namespace svsim::vqa
