// BatchedSim: the SPMD batch-parallel single-node backend.
//
// Evolves K state vectors in lockstep through one circuit skeleton —
// either literally one circuit (batched shot sampling) or K congruent
// circuits that differ only in gate angles (a VQE/SPSA parameter sweep).
// The amplitude layout is batch-innermost ([k*B + b], split re/im), so
// every kernel computes the pair/quadruple index arithmetic once and a
// SIMD lane carries B adjacent members (core/kernels/batched.hpp).
//
// Mid-circuit measure and reset run with a per-member exec-mask: each
// member draws on its own RNG stream (member b is seeded cfg.seed + b)
// and may collapse in its own direction, and the collapse loop blends per
// member with all-on/all-off fast paths. This removes the old vqa
// prototype's "ansatz must be unitary" restriction: member b of a batched
// run reproduces a solo SingleSim run with seed cfg.seed + b bit-for-bit
// in classical outcomes (the diffcheck `batched` axis pins this).
//
// The cache-blocked gate-window scheduler composes with batching: the
// block exponent is reduced by ceil(log2 B) so one block's B-wide
// amplitude slab still fits the cache budget the solo schedule was sized
// for, and high diagonal gates apply through per-member phase tables.
//
// Observability: run reports (with a `batch` field), model-driven
// progress and the roofline tier are batch-aware (per-member footprint
// × B, gate-table reads amortized). The numerical-health monitor and the
// flight recorder are intentionally NOT wired: health invariants are
// per-member (the combined buffer's norm² is B, not 1) and belong in a
// future per-member checkpoint pass.
#pragma once

#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/state_vector.hpp"
#include "ir/circuit.hpp"
#include "obs/memtrack.hpp"
#include "obs/report.hpp"

namespace svsim {

class BatchedSim {
public:
  /// B state vectors of n qubits, with member lanes at cfg.simd (widest
  /// by default). A level this build lacks throws, as from every backend
  /// constructor (common/config.hpp).
  explicit BatchedSim(IdxType n_qubits, IdxType batch, SimConfig cfg = {});
  ~BatchedSim();

  const char* name() const { return "batched"; }
  IdxType n_qubits() const { return n_; }
  IdxType dim() const { return dim_; }
  IdxType batch() const { return batch_; }
  /// The resolved lane level, and its members per vector.
  SimdLevel simd_level() const { return sw_.simd; }
  IdxType lane_width() const;

  /// All members back to |0...0>, classical bits cleared, member b's RNG
  /// stream reseeded to cfg.seed + b (the solo-lockstep origin).
  void reset_state();

  /// Re-aim the engine at a new base seed and reset: member b's stream
  /// becomes base_seed + b. This is the chunked-shot-campaign idiom — one
  /// engine, reseed(seed + base) per chunk — which amortizes the state
  /// allocation across the whole campaign instead of paying it per chunk.
  void reseed(std::uint64_t base_seed) {
    cfg_.seed = base_seed;
    reset_state();
  }

  /// Run one circuit on every member (shot-sampling shape: members share
  /// gates and diverge only through measurement randomness).
  void run(const Circuit& circuit);

  /// Run K congruent circuits, one per member (parameter-sweep shape):
  /// same ops/operands/cbits gate-for-gate, angles free to differ.
  void run(const std::vector<Circuit>& members);

  void run_fresh(const Circuit& circuit) {
    reset_state();
    run(circuit);
  }
  void run_fresh(const std::vector<Circuit>& members) {
    reset_state();
    run(members);
  }

  /// Gather one member's state into host memory.
  StateVector state(IdxType member) const;

  /// Member b's classical register after the last run(), as wide as
  /// Simulator::cbits() would be.
  std::vector<IdxType> member_cbits(IdxType member) const;

  /// Sample `shots` outcomes per member from the current states without
  /// collapsing them (member b's draws replay solo seed+b exactly).
  std::vector<std::vector<IdxType>> sample_members(IdxType shots);

  /// Aggregate convenience for shot-sampling CLIs: ceil(shots/B) draws
  /// per member, concatenated member-major and truncated to `shots`.
  std::vector<IdxType> sample(IdxType shots);

  const obs::RunReport& last_report() const {
    if (!report_.backend.empty()) obs::fold_memory(report_);
    return report_;
  }

  /// Direct access to the batch-innermost amplitude arrays ([k*B + b]) —
  /// the vqa expectation pass and tests read these.
  ValType* real_data() { return real_.data(); }
  ValType* imag_data() { return imag_.data(); }
  const ValType* real_data() const { return real_.data(); }
  const ValType* imag_data() const { return imag_.data(); }

private:
  /// Shared executor: `skeleton` drives scheduling/dispatch; when
  /// `members` is non-null its per-member angles fill the coefficient
  /// rows (otherwise the skeleton's angles replicate across the batch).
  void execute(const Circuit& skeleton, const std::vector<Circuit>* members);

  IdxType n_;
  /// Resolved before dim_'s admission check (common/config.hpp).
  const RunSwitches sw_;
  IdxType dim_;
  IdxType batch_;
  SimConfig cfg_;
  obs::TrackedBuffer<ValType> real_; // [k*batch_ + b]
  obs::TrackedBuffer<ValType> imag_;
  std::vector<Rng> rngs_;        // member streams, b seeded cfg.seed + b
  std::vector<IdxType> cbits_;   // [cbit*batch_ + b]
  std::vector<IdxType> results_; // measure-all: [b*n_shots + s]
  IdxType ma_shots_ = 0;
  mutable obs::RunReport report_; // lazy memory fold in last_report()
  /// Compiled execution plan of the last run. Its structure (kernel
  /// slots, window schedule, combining) is cached on ops, operands and
  /// cbits, so member sweeps of one ansatz — a VQE objective's calls —
  /// compile it once and refill only the coefficient rows per run; a
  /// uniform run with unchanged gates (the chunked shot campaign,
  /// reseed(); run(same circuit)) keeps the rows too. Seed-independent,
  /// and bit-for-bit what a cold compile gives.
  struct Plan;
  std::unique_ptr<Plan> plan_;
};

} // namespace svsim
