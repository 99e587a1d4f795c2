// obs::RunReport — the backend-neutral observability record of one run().
//
// Every Simulator fills one of these per run: gate counts by kind
// (always), per-gate-kind accumulated time (when profiling is on), the
// fusion stats of the circuit it executed (when the caller fused), the
// unified communication totals that previously lived in three
// backend-specific structs (shmem::TrafficStats, PeerTraffic, MsgStats),
// and — since the health/forensics tier — numerical-health results
// (HealthStats), the per-PE×PE traffic matrix with imbalance metrics
// (TrafficMatrix), and the flight-recorder events drained on success.
// Retrieved through the non-virtual Simulator::last_report(); exported as
// JSON by obs::to_json().
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "ir/fusion.hpp"
#include "ir/op.hpp"
#include "obs/aggregate.hpp"
#include "obs/flight.hpp"
#include "obs/memtrack.hpp"
#include "shmem/shmem.hpp"

namespace svsim {
class Circuit;
}

namespace svsim::obs {

namespace jsonlite {
class Writer;
}

/// Communication totals in the vocabulary all three distributed tiers
/// share. "Ops" are element-granular one-sided accesses (peer pointer
/// dereferences, SHMEM get/put); "messages" are the coarse baseline's
/// whole-partition sends. Single-device backends leave everything zero.
struct CommStats {
  std::uint64_t local_ops = 0;
  std::uint64_t remote_ops = 0;
  std::uint64_t bytes = 0;    // payload bytes moved (get+put / messages)
  std::uint64_t messages = 0; // two-sided sends (coarse baseline only)
  std::uint64_t barriers = 0; // global syncs (where the runtime counts them)

  void add_shmem(const shmem::TrafficStats& t);
  void add_peer(std::uint64_t local_access, std::uint64_t remote_access);
  void add_messages(std::uint64_t messages_, std::uint64_t bytes_);
};

struct GateKindStats {
  std::uint64_t count = 0; // in the input circuit
  /// CPU-seconds of the executed gates of this kind, summed over workers;
  /// 0 unless profiled.
  double seconds = 0;
  /// Gates of this kind the workers executed: `count`, unless a pipeline
  /// pass rewrote the input (remap's swaps, fusion's dense ops).
  std::uint64_t executed = 0;
};

/// Result of the streaming numerical-invariant checks (HealthMonitor).
/// All-zero/defaults unless the monitor was enabled for the run. Also the
/// type of the process-wide mirror GET /healthz reads (health_snapshot()).
struct HealthStats {
  bool enabled = false;
  int every_n = 0;              // checkpoint cadence in gates
  std::uint64_t checks = 0;     // checkpoints evaluated
  std::uint64_t nan_checks = 0; // checkpoints that saw non-finite amplitudes
  std::uint64_t non_finite = 0; // worst per-checkpoint non-finite amp count
  double max_drift = 0;         // running max of |‖ψ‖² − 1|
  double last_norm2 = 1.0;      // ‖ψ‖² at the last checkpoint
  std::uint64_t drift_gate_lo = 0; // gate range (lo, hi] that introduced
  std::uint64_t drift_gate_hi = 0; // the max drift
  std::uint64_t warns = 0;      // checkpoints above the warn threshold
  bool aborted = false;         // escalation stopped the run early

  /// Anything worth a non-zero exit code from a runner?
  bool tripped() const { return nan_checks != 0 || warns != 0 || aborted; }
};

/// Outcome of the cache-blocked gate-window scheduler (ir/schedule +
/// kernels/blocked). Defaults when scheduling was off for the run.
struct SchedulerStats {
  bool enabled = false; // scheduling resolved on for the run
  bool active = false;  // at least one blocked window actually executed
  int block_exp = 0;    // 2^b amplitudes per cache block
  std::uint64_t windows = 0;        // blocked windows formed
  std::uint64_t windowed_gates = 0; // gates inside blocked windows
  std::uint64_t passes_saved = 0;   // full-state sweeps avoided
  /// The run model's saving (obs/perfmodel): per blocked window, its
  /// member gates' bytes minus the one pass it streams — memory traffic
  /// a per-gate loop would have issued that the blocked loop kept
  /// cache-resident. With the roofline on, model_bytes − model_bytes_sched.
  std::uint64_t traffic_avoided_bytes = 0;
};

/// Outcome of the communication-avoiding remap pass (ir/remap) for the
/// last run(). Defaults when remapping was off or the backend is not
/// partitioned. `modeled_*` are the run model's bytes of the gates that
/// cross the partition boundary (obs::remote_bytes) in the input circuit
/// and in the emitted one, swaps included; the measured TrafficMatrix is
/// the ground truth the model predicts.
struct RemapStats {
  bool enabled = false; // remap resolved on for the run
  bool active = false;  // the pass actually ran (partitioned, >= 2 local bits)
  int local_bits = 0;   // node-local index bits the pass targeted
  std::uint64_t swaps_inserted = 0;
  std::uint64_t modeled_remote_bytes_before = 0;
  std::uint64_t modeled_remote_bytes_after = 0;
};

/// Roofline attribution of the last run(): the analytic cost model's
/// expected footprint (obs/perfmodel), the hardware-counter sample around
/// the gate loop (obs/counters, perf_event_open), and their join against
/// the machine model's STREAM-style peak bandwidth. Defaults when the
/// roofline tier was off; `counters == false` with a non-empty
/// `counters_error` is the graceful model-only degradation (CI
/// containers, non-Linux hosts).
struct RooflineStats {
  bool enabled = false;
  // Analytic expectation for the executed circuit.
  double model_amps = 0;
  double model_bytes = 0;       // per-gate-loop memory traffic
  double model_bytes_sched = 0; // traffic under the blocked schedule
  double model_flops = 0;
  double ai = 0; // arithmetic intensity: flops per scheduled byte
  // Join against the machine model.
  double peak_gbps = 0;  // STREAM-style peak (SVSIM_PEAK_GBPS overrides)
  double model_gbps = 0; // model_bytes_sched / wall_seconds
  double attainment = 0; // model_gbps / peak_gbps
  // Hardware counters, multiplex-scaled; zero when unavailable.
  bool counters = false;
  std::string counters_error; // why unavailable ("EPERM", ...)
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_loads = 0;
  std::uint64_t llc_misses = 0;
  double measured_gbps = 0; // llc_misses × 64-byte lines / wall

  /// One op kind's achieved bandwidth vs the roofline, from the profiled
  /// per-op seconds (wall-apportioned across workers).
  struct OpAttainment {
    OP op = OP::ID;
    std::uint64_t count = 0;
    double bytes = 0;
    double seconds = 0;
    double gbps = 0;
    double attainment = 0;
  };
  /// Worst-attainment op kinds, ascending (at most 10); filled only on
  /// profiled runs (per-op seconds require profiling).
  std::vector<OpAttainment> worst;
};

/// Per-PE×PE communication volume from the last run(), row-major
/// [src * n + dst] in bytes moved by one-sided ops issued by `src`
/// targeting `dst` (diagonal = local traffic). Empty (n == 0) for
/// single-device backends and when traffic counting is off.
struct TrafficMatrix {
  int n = 0;
  std::vector<std::uint64_t> bytes;

  bool empty() const { return n == 0; }
  std::uint64_t at(int src, int dst) const {
    return bytes[static_cast<std::size_t>(src) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(dst)];
  }
  std::uint64_t total() const;
  std::uint64_t row_sum(int src) const;    // bytes issued by src
  std::uint64_t col_sum(int dst) const;    // bytes landing on dst
  std::uint64_t remote_total() const;      // off-diagonal only

  /// Derived imbalance metrics over the off-diagonal links.
  struct Imbalance {
    double max_mean_ratio = 0; // busiest link / mean non-zero link
    int busiest_src = -1;
    int busiest_dst = -1;
    std::uint64_t busiest_bytes = 0;
  };
  Imbalance imbalance() const;

  /// Aligned heatmap-style table (one row per source PE, shaded cells
  /// relative to the busiest link) for terminal display.
  std::string table() const;
};

struct RunReport {
  std::string backend;
  IdxType n_qubits = 0;
  int n_workers = 1;
  /// State vectors evolved in lockstep by this run (BatchedSim); 1 for
  /// every solo backend. Additive svsim-report-v1 field.
  int batch = 1;

  std::uint64_t total_gates = 0;
  double wall_seconds = 0;
  bool profiled = false; // per-gate-kind timing collected?
  /// FNV-1a digest of the executed circuit's shape (ops, qubits, angle
  /// bits, width) — the run-ledger identity of "the same circuit".
  std::uint64_t circuit_hash = 0;

  std::array<GateKindStats, static_cast<std::size_t>(kNumOps)> by_op{};
  /// The 1q fields: zeros unless the circuit went through run_fused();
  /// dense_blocks/dense_absorbed: the dispatch pipeline's pair fusion.
  FusionStats fusion;
  CommStats comm;
  HealthStats health;   // numerical-health tier (defaults when disabled)
  SchedulerStats sched; // gate-window scheduler (defaults when off)
  RemapStats remap;     // communication-avoiding remap (defaults when off)
  RooflineStats roofline; // roofline attribution (defaults when off)
  MemoryStats memory;   // bytes-resident attribution (obs/memtrack +
                        // obs/capacity; defaults when SVSIM_MEMTRACK=0)
  WaitProfile waitstate; // cross-PE wait-state breakdown (defaults when off)
  TrafficMatrix matrix; // per-PE×PE traffic (distributed backends only)
  /// Flight-recorder events drained at the end of a successful run
  /// (empty when the recorder is disabled).
  std::vector<FlightEvent> flight;

  const GateKindStats& of(OP op) const {
    return by_op[static_cast<std::size_t>(op)];
  }

  /// Human-readable per-gate-kind breakdown + comm totals + health line.
  std::string summary() const;
};

/// Machine-readable export of the full report (schema "svsim-report-v1"):
/// gate/fusion/comm sections plus the health, traffic-matrix and flight
/// sections. Always valid RFC 8259 JSON (non-finite numbers become null).
std::string to_json(const RunReport& report);

/// The health and memory records' members, written into an object the
/// caller has opened. The report's `health` and `memory` sections and the
/// GET /healthz and GET /memory documents all embed these, so each record
/// is written in one place.
void write_fields(jsonlite::Writer& w, const HealthStats& health);
void write_fields(jsonlite::Writer& w, const MemoryStats& memory);

/// Count `circuit`'s gates by kind into `report` (cheap; runs even with
/// profiling off so every report has the count breakdown), as input and
/// as executed.
void tally_gates(RunReport& report, const Circuit& circuit);

/// Re-count the executed breakdown from `exec`, the circuit the workers
/// run when a pipeline pass rewrote the input.
void tally_executed(RunReport& report, const Circuit& exec);

} // namespace svsim::obs
