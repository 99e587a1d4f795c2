// Simulator: the backend-neutral public interface.
//
// All five backends implement it:
//   SingleSim      — one device (scalar or SIMD kernels)
//   PeerSim        — single-node scale-up over the peer pointer array
//   ShmemSim       — multi-node scale-out over the SHMEM runtime
//   GeneralizedSim — generic-matrix baseline (Aer/qsim-style, Fig 14)
//   CoarseMsgSim   — MPI-style coarse-grained message-passing baseline
// so every test, example, bench and VQA driver is backend-agnostic.
//
// The base also holds what every backend shares: the view of where the
// amplitudes live (state()/load_state()/sample() are implemented once
// over it), the classical register, the remap layout, and the run
// pipeline (core/pipeline.hpp) each backend's run() goes through.
#pragma once

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "core/dispatch.hpp"
#include "core/space.hpp"
#include "core/state_vector.hpp"
#include "ir/circuit.hpp"
#include "ir/fusion.hpp"
#include "ir/remap.hpp"
#include "obs/capacity.hpp"
#include "obs/health.hpp"
#include "obs/httpd.hpp"
#include "obs/memtrack.hpp"
#include "obs/perfmodel.hpp"
#include "obs/progress.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace svsim {

class Simulator {
public:
  virtual ~Simulator() = default;
  // The measurement context points into the object's own storage.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  virtual const char* name() const = 0;
  virtual IdxType n_qubits() const = 0;

  /// Return the register to |0...0> and clear classical bits.
  virtual void reset_state() = 0;

  /// Execute all gates of `circuit` against the current state.
  /// May be called repeatedly (the VQA iteration pattern).
  virtual void run(const Circuit& circuit) = 0;

  /// Gather the full state into host memory, in logical basis order (a
  /// remapped layout is undone virtually).
  StateVector state() const;

  /// Load an arbitrary state (must be normalized to the usual tolerance;
  /// width must match). Supported by every backend — used to resume work,
  /// inject prepared states, and by the kernel-vs-reference tests.
  void load_state(const StateVector& sv);

  /// Classical register contents after the last run(): one slot per
  /// qubit, widened to the classical bits of the widest circuit run.
  const std::vector<IdxType>& cbits() const { return cbits_; }

  /// Sample `shots` basis-state outcomes from the current state without
  /// collapsing it (the paper's measure-all path): one measure-all
  /// circuit through run(), so the report covers the readout too.
  std::vector<IdxType> sample(IdxType shots);

  // --- convenience built on the virtual surface ---

  std::vector<ValType> probabilities() const { return state().probabilities(); }
  ValType prob_of_qubit(IdxType q) const { return state().prob_of_qubit(q); }

  /// reset_state + run: the one-shot evaluation used per VQA iteration.
  void run_fresh(const Circuit& circuit) {
    reset_state();
    run(circuit);
  }

  /// Fuse the circuit's 1-qubit runs and inverse pairs (fuse_gates), run
  /// it, and record those stats in the report beside the run's own pair
  /// fusion (dense_blocks, dense_absorbed).
  void run_fused(const Circuit& circuit) {
    FusionStats st;
    const Circuit fused = fuse_gates(circuit, &st);
    run(fused);
    st.dense_blocks = report_.fusion.dense_blocks;
    st.dense_absorbed = report_.fusion.dense_absorbed;
    report_.fusion = st;
  }

  // --- observability (non-virtual; the run pipeline fills report_) ---

  /// Instrumentation record of the most recent run()/sample(): gate
  /// counts by kind, per-gate-kind time (when profiling), fusion stats,
  /// unified local/remote communication totals, health results, the
  /// PE×PE traffic matrix, and the flight-recorder events. The flight
  /// drain is deferred to here: copying up to 256 events per worker on
  /// every run() would dominate single-gate circuits.
  const obs::RunReport& last_report() const;

protected:
  /// Resolves `cfg` (a malformed SVSIM_* variable throws) before any
  /// derived member, so the admission check sees the resolved limit.
  Simulator(IdxType n_qubits, const SimConfig& cfg);

  /// Where the amplitudes live: 2^lg_part-amplitude partitions in natural
  /// index order, partition p holding amplitudes [p·2^lg_part,
  /// (p+1)·2^lg_part). The partitioned backends have one per worker; the
  /// single-device backends have one.
  struct Partitions {
    IdxType lg_part = 0;
    std::vector<ValType*> real;
    std::vector<ValType*> imag;
  };

  /// |0...0> in every partition, classical bits cleared, identity layout.
  /// Backends reseed their RNG replicas themselves.
  void reset_partitions();

  /// How a backend's run() executes: `n_workers` workers, and whether the
  /// state is partitioned across them (each worker a team thread owning
  /// one partition: the remap pass applies and every worker gets a
  /// wait-state track).
  struct Shape {
    int n_workers = 1;
    bool partitioned = false;
  };

  /// One run() in flight through the pipeline (defined in
  /// core/pipeline.hpp).
  class Run;

  /// The whole pipeline for a function-pointer dispatch backend
  /// (core/pipeline.hpp): `table` is its preloaded kernel table,
  /// `launch(body)` calls body(space) once on every worker with that
  /// worker's Space, and `fold(report)` adds its communication counters.
  template <class Space, class Launch, class Fold>
  void run_dispatch(const Circuit& circuit, obs::Counter& runs, Shape shape,
                    const typename KernelTable<Space>::Table& table,
                    Launch&& launch, Fold&& fold);

  /// The engine's configuration, and its switches resolved once from it
  /// and the environment (common/config.hpp).
  const SimConfig cfg_;
  const RunSwitches sw_;
  Partitions parts_;
  std::vector<IdxType> cbits_;
  /// Measure-all shot outcomes of the current sample() call.
  std::vector<IdxType> results_;
  MeasureCtx mctx_;
  /// Live logical→physical qubit layout (ir/remap). Empty = identity;
  /// persists across runs so sample()'s internal measure-all run sees the
  /// permutation the previous circuit left behind.
  std::vector<IdxType> layout_;
  /// Flattened per-measure-all layout snapshots of the current run
  /// (storage behind MeasureCtx::ma_layouts).
  std::vector<IdxType> ma_layouts_;

  mutable obs::RunReport report_;

private:
  /// Workers whose flight events the next last_report() drains (0 = none
  /// pending).
  mutable int flight_workers_ = 0;
};

} // namespace svsim
