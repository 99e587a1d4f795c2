// OracleSim: the dense-matrix reference simulator for differential
// testing (the cross-backend oracle of tools/svsim_diffcheck).
//
// Deliberately naive: every unitary gate is applied as its full 2x2 / 4x4
// matrix from ir/matrices (the same ground truth the kernels are verified
// against) via generic gather-multiply-scatter — no specialized kernels,
// no dispatch table, no fusion, no gate-window scheduling, no SIMD. It
// shares nothing with the production execution paths except the matrix
// definitions, so agreement between a backend and the oracle is evidence
// about the backend, not about shared code.
//
// Determinism contract: the oracle holds one Rng seeded like the
// backends' per-worker replicas and advances it exactly where they do —
// one draw per mid-circuit measure, `shots` draws per sample() — so with
// equal seeds the measurement outcomes and sampled shots of a correct
// backend match the oracle's exactly (up to draws landing within the
// amplitude tolerance of a cumulative-probability boundary, which the
// diff harness accounts for).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/state_vector.hpp"
#include "ir/circuit.hpp"
#include "ir/matrices.hpp"
#include "obs/memtrack.hpp"

namespace svsim::testing {

class OracleSim {
public:
  explicit OracleSim(IdxType n_qubits, std::uint64_t seed = 42);

  IdxType n_qubits() const { return n_; }

  /// Return to |0...0>, clear classical bits, reseed the RNG.
  void reset_state();

  /// Execute every gate of `circuit` against the current state.
  void run(const Circuit& circuit);

  const StateVector& state() const { return sv_; }

  /// Classical register, sized like the backends': one slot per qubit,
  /// widened to the classical bits of the widest circuit run.
  const std::vector<IdxType>& cbits() const { return cbits_; }

  /// Sample `shots` basis states without collapsing, mirroring the
  /// backends' measure-all protocol (same draw count, same assignment of
  /// sorted draws to the cumulative distribution in basis order).
  std::vector<IdxType> sample(IdxType shots);

private:
  void apply_1q(const Mat2& m, IdxType q);
  void apply_2q(const Mat4& m, IdxType q0, IdxType q1);
  void apply_measure(const Gate& g);
  void apply_reset(const Gate& g);

  IdxType n_;
  IdxType dim_;
  std::uint64_t seed_;
  // The dense reference state below (complex amplitudes) in the memory
  // registry, under the oracle tag; returned on destruction.
  obs::MemAdjust state_mem_{obs::MemTag::kOracle};
  StateVector sv_;
  std::vector<IdxType> cbits_;
  Rng rng_;
};

} // namespace svsim::testing
