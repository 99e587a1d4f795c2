// Differential execution: run one circuit through a production backend
// under a chosen configuration axis (backend x lanes x fusion x sched)
// and check it amplitude-by-amplitude against the dense-matrix oracle,
// localizing the first diverging gate by prefix bisection when they
// disagree.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "testing/oracle.hpp"

namespace svsim::testing {

/// One point in the configuration space svsim_diffcheck sweeps.
struct DiffSpec {
  std::string backend = "single"; // single | peer | shmem | coarse | generalized
  int workers = 1;                // ignored by single/generalized
  bool fusion = false;            // run through fuse_gates first
  bool sched = false;             // cache-blocked gate-window engine on
  /// Communication-avoiding remap axis: pins SimConfig::remap to 1 (on)
  /// or 0 (off) so the sweep point is explicit either way — auto-on
  /// multi-PE resolution never decides a diff leg. The oracle always
  /// runs unremapped; equality proves the virtual readout permutation.
  bool remap = false;
  /// Lane level of the backend's SimConfig: the kernel tables of single,
  /// peer and shmem (the sweep runs each at scalar and at the widest
  /// level) and every backend's health scan.
  SimdLevel simd = max_simd_level();
  std::uint64_t seed = 42;        // backend + oracle RNG seed
  IdxType shots = 256;            // sampling-equivalence shot count
  ValType tol = 1e-9;             // max |amp_backend - amp_oracle|
  /// Batched axis: when > 0, run the SPMD batched engine with this many
  /// members and check every member b against a solo SingleSim run at
  /// seed+b — state at tol, classical bits and samples bit-for-bit
  /// (per-member RNG lockstep covers mid-circuit measure/reset
  /// divergence). Fusion specs fuse once externally and feed the same
  /// fused circuit to both engines. `backend` is ignored when set.
  int batch = 0;
  /// Test seam for the harness's own regression tests: when >= 0, the
  /// backend executes the circuit with gate `perturb_gate`'s theta nudged
  /// while the oracle runs the original — the localizer must then report
  /// a first divergence at (or, under fusion, at-or-before) that index.
  long perturb_gate = -1;

  std::string label() const;
};

/// Everything the oracle produces for one circuit; computed once and
/// diffed against every spec.
struct OracleResult {
  StateVector state;
  std::vector<IdxType> cbits;
  std::vector<IdxType> samples;
};

struct DiffResult {
  bool ok = true;
  std::string config;        // spec label
  ValType max_diff = 0;      // final-state amplitude divergence
  long first_divergence = -1; // prefix length at which divergence appears
  std::string detail;        // first diverging gate / cbit / sample info
};

/// Backend factory shared by the harness and svsim_diffcheck.
std::unique_ptr<Simulator> make_backend(const DiffSpec& spec, IdxType n_qubits);

/// Run the oracle over `c` (fresh state, seed from spec) including a
/// sampling pass of `shots` draws.
OracleResult oracle_run(const Circuit& c, std::uint64_t seed, IdxType shots);

/// Execute `c` per `spec` and compare against `oracle`. On divergence the
/// result carries the first diverging prefix length and the gate at it.
DiffResult diff_run(const Circuit& c, const OracleResult& oracle,
                    const DiffSpec& spec);

/// The full default sweep: {single, peer xK, shmem xK, coarse xK}
/// x {fusion off/on} x {sched off/on} (x every lane level the build
/// carries on single, x {scalar, widest lanes} on peer and shmem,
/// x {remap off/on} on the partitioned backends), generalized
/// x {fusion off/on}, and the batched axis.
std::vector<DiffSpec> default_sweep(int workers, std::uint64_t seed,
                                    IdxType shots, ValType tol);

} // namespace svsim::testing
