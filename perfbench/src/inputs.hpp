// Seeded input generators for the three workloads.
//
// Every input is a pure function of (run seed, stream, index): the same
// seed reproduces the same job list, the warm-up draws from its own
// streams so it never repeats a timed input, and the program only ever
// sees the generated inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "ir/circuit.hpp"
#include "vqa/pauli.hpp"

namespace perfbench {

using svsim::IdxType;
using svsim::ValType;

/// Input streams of one run. Warm-up repetition r draws from kWarmup + r.
enum Stream : std::uint64_t {
  kTimed = 0,
  kCheckPick = 1, // which timed jobs the oracle re-checks
  kWarmup = 16,
};

/// Generator seed of input `index` in `stream` of a run seeded `seed`.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index);

/// Random OpenQASM 2.0 program over qelib1 on `n` qubits (n >= 3) with
/// `statements` gate statements: 55% one-qubit (fixed and
/// parameterized), 40% two-qubit (cx and the compound
/// cz/cy/swap/cu1/crz/cu3/rzz), 5% ccx, in random order; no measurement.
std::string random_qasm(IdxType n, int statements, std::uint64_t seed);

/// Quantum-volume-style circuit: `layers` random qubit pairings with
/// u3·u3·cx·u3·u3·cx on every pair (6·n/2 gates per layer).
svsim::Circuit qv_circuit(IdxType n, int layers, std::uint64_t seed);

/// `count` parameter vectors of `n_params` angles uniform in [-pi, pi).
std::vector<std::vector<ValType>> param_group(int count, std::size_t n_params,
                                              std::uint64_t seed);

/// Transverse-field Ising observable  -sum Z_q Z_{q+1} - 0.7 sum X_q.
svsim::vqa::Hamiltonian tfi_hamiltonian(IdxType n);

} // namespace perfbench
