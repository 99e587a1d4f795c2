// Seeded adversarial circuit generation for the differential correctness
// harness (tools/svsim_diffcheck, tests/test_diffcheck.cpp).
//
// The generator is deliberately nastier than the hand-written property
// tests: it mixes mid-circuit measurement and reset into unitary runs,
// plants exact inverse pairs with the operands of symmetric gates written
// in either order (the pattern that exposed the fusion cancellation bug),
// draws rotation angles from both a continuous range and the exact edge
// values (0, ±pi/2, ±pi, ±2pi), biases operands toward the high qubits
// that exercise the distributed backends' remote paths, and occasionally
// emits >=3-qubit compound gates so the append-time decompositions are
// covered too. Everything is a pure function of (options, seed).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "ir/circuit.hpp"

namespace svsim::testing {

struct CircuitGenOptions {
  IdxType n_qubits = 6;
  int n_gates = 100;          // target length (compound gates expand it)
  double p_measure = 0.03;    // mid-circuit measure q -> c[q]
  double p_reset = 0.02;      // mid-circuit reset
  double p_barrier = 0.02;    // global barrier
  double p_multi = 0.04;      // >=3-qubit compound (decomposed at append)
  double p_inverse_pair = 0.08; // gate immediately followed by its inverse,
                                // symmetric ops with swapped operands
  double p_edge_param = 0.15; // exact 0 / ±pi/2 / ±pi / ±2pi angles
  bool adversarial = true;    // bias operands to high qubits + reversed order
  CompoundMode mode = CompoundMode::kNative;
};

/// Deterministic: the same (options, seed) always yields the same circuit.
Circuit random_circuit(const CircuitGenOptions& opt, std::uint64_t seed);

/// A random 2-qubit unitary (Gram-Schmidt on complex Gaussian columns):
/// a dense 4x4 with no structure a specialized kernel could lean on, for
/// DENSE2 gates in tests and benches.
Mat4 random_unitary_2q(Rng& rng);

/// Derive a per-case seed from a campaign seed and case index (splitmix-
/// style, so nearby indices give decorrelated streams).
std::uint64_t mix_seed(std::uint64_t campaign_seed, std::uint64_t index);

} // namespace svsim::testing
