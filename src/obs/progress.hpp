// obs::ProgressBoard — live, lock-free per-PE progress publishing with a
// model-calibrated ETA.
//
// Post-mortem observability (spans, health, roofline, wait-state) answers
// "what happened"; a multi-hour n>30 distributed run also needs "how far
// along is it" *while it runs*. State-vector simulation makes that signal
// unusually good: every gate's memory footprint is statically known
// (obs/perfmodel prices amps/bytes/flops per gate off the kernel list, and
// per window under the blocked scheduler), so progress can be measured in
// predicted bytes rather than raw gate counts — a QFT's cheap diagonal
// tail no longer makes the last 10% of gates look like 10% of the work.
// The board prices nothing itself, and the gate loops publish only their
// position: the run's RunModel hands the board the per-gate cumulative
// scheduled bytes and amplitudes, so its totals are the roofline's
// model_bytes_sched and model_amps. A PE at gate k has done
// amps_prefix[k] / n_workers amplitudes (every tier splits each gate's
// work evenly over its workers). The ETA is then self-calibrating:
//
//   achieved B/s = predicted-bytes-done / elapsed
//   eta_s        = predicted-bytes-remaining / achieved B/s
//
// which stays accurate across machines, SIMD levels and sanitizer builds
// because the machine-dependent rate cancels out of the prediction.
//
// Concurrency contract (the part ThreadSanitizer pins in CI): each PE
// owns one cacheline-aligned ProgressSlot and publishes with relaxed
// atomic stores — one store per gate (or per block of a blocked window),
// nothing shared between writers. Readers (the embedded httpd's accept
// thread, svsim_top via it, the signal handler) snapshot the slots with
// relaxed loads and never stall a worker. The cold run header (backend,
// the model's prefixes) is guarded by a mutex taken only in
// begin_run/end_run/snapshot; the signal handler reads the prefixes
// through an atomic mirror instead.
//
// The slot section of this header is intentionally include-light
// (atomics only): obs/waitstate.hpp pulls it in for the wait-time
// publishing hook, and waitstate is included by src/shmem which cannot
// link the obs library.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace svsim::obs {

/// One PE's live progress counters. Single writer (the owning worker
/// thread), any number of relaxed readers; cacheline-aligned so two PEs
/// never share a line.
struct alignas(64) ProgressSlot {
  std::atomic<std::uint64_t> gates_done{0}; // last retired 1-based gate id
  std::atomic<std::uint64_t> window{0};     // current schedule window index
  std::atomic<std::uint64_t> wait_us{0};    // published by WaitScope

  void reset() {
    gates_done.store(0, std::memory_order_relaxed);
    window.store(0, std::memory_order_relaxed);
    wait_us.store(0, std::memory_order_relaxed);
  }
  void publish_gate(std::uint64_t gate_id) {
    gates_done.store(gate_id, std::memory_order_relaxed);
  }
  void publish_window(std::uint64_t w) {
    window.store(w, std::memory_order_relaxed);
  }
};

/// Thread-local slot binding for the wait-time hook: WaitScope (which
/// already wraps every blocking synchronization primitive) adds its span
/// length to the bound slot, so /progress and svsim_top can show a live
/// per-PE wait column without touching the non-atomic WaitTrack state.
inline ProgressSlot*& bound_progress_slot() {
  thread_local ProgressSlot* slot = nullptr;
  return slot;
}

/// Called from WaitScope's destructor (waitstate.hpp). One thread-local
/// load and a predictable branch when no slot is bound.
inline void progress_publish_wait_us(double us) {
  ProgressSlot* slot = bound_progress_slot();
  if (slot != nullptr && us > 0) {
    slot->wait_us.fetch_add(static_cast<std::uint64_t>(us),
                            std::memory_order_relaxed);
  }
}

/// RAII thread→slot binding for one worker's gate-loop body.
class ProgressScope {
public:
  explicit ProgressScope(ProgressSlot* slot) {
    if (slot != nullptr) {
      bound_progress_slot() = slot;
      bound_ = true;
    }
  }
  ~ProgressScope() {
    if (bound_) bound_progress_slot() = nullptr;
  }
  ProgressScope(const ProgressScope&) = delete;
  ProgressScope& operator=(const ProgressScope&) = delete;

private:
  bool bound_ = false;
};

/// A coherent read of the board, taken without stalling any worker.
struct ProgressSnapshot {
  bool valid = false;       // a run has been registered since startup
  bool active = false;      // gate loop in flight (not yet end_run)
  bool interrupted = false; // SIGINT/SIGTERM flush marked the run
  std::string backend;
  long long n_qubits = 0;
  int n_workers = 0;
  int batch = 1; // lockstep batch members (BatchedSim), 1 otherwise
  std::uint64_t total_gates = 0;
  std::uint64_t gates_done = 0; // min over PEs (the loops are lockstep)
  std::uint64_t window = 0;
  double amps_done = 0;      // summed over PEs
  double bytes_total = 0;    // the run model's bytes_sched
  double bytes_done = 0;     // bytes_prefix[gates_done]
  double fraction = 0;       // bytes_done / bytes_total
  double elapsed_s = 0;
  double gbps = 0;           // achieved, from bytes_done / elapsed
  bool eta_known = false;    // false until enough progress to calibrate
  double eta_s = 0;
  struct Pe {
    std::uint64_t gates_done = 0;
    double amps_done = 0; // amps_prefix[gates_done] / n_workers
    double wait_s = 0;
  };
  std::vector<Pe> pes;
};

/// Render a snapshot as the "svsim-progress-v1" JSON document served at
/// GET /progress.
std::string progress_to_json(const ProgressSnapshot& snap);

class ProgressBoard {
public:
  static constexpr int kMaxPes = 64; // matches FlightRecorder::kMaxWorkers

  static ProgressBoard& global();

  /// Publishing is opt-in: the embedded httpd enables the board when it
  /// starts, and SVSIM_PROGRESS=1 enables it without a server.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Register a run: stamp the header, reset the slots, and keep the run
  /// model's per-gate cumulative scheduled bytes and amplitudes
  /// (RunModel::bytes_prefix and amps_prefix, one entry per gate plus
  /// one) as the progress axes until the next begin_run. `batch` is the
  /// lockstep member count the snapshot shows (BatchedSim, whose model
  /// already prices every member).
  void begin_run(const char* backend, IdxType n_qubits, int n_workers,
                 std::vector<double> bytes_prefix,
                 std::vector<double> amps_prefix, IdxType batch = 1);

  /// Close the run: freeze the wall clock and keep `report_json` (the
  /// finished svsim-report-v1 document) for GET /report.
  void end_run(std::string report_json);

  /// Worker `w`'s slot, or nullptr when w is out of range.
  ProgressSlot* slot(int worker) {
    if (worker < 0 || worker >= kMaxPes) return nullptr;
    return &slots_[worker];
  }

  ProgressSnapshot snapshot() const;

  /// The last completed run's report JSON ("" while a run is in flight
  /// or before the first end_run).
  std::string last_report_json() const;

  /// Mark the current run interrupted (async-signal-safe: one store).
  void mark_interrupted() {
    interrupted_.store(true, std::memory_order_relaxed);
  }

  /// Async-signal-safe partial progress document for the SIGINT/SIGTERM
  /// flush: snprintf into `buf` only (no allocation, no locks; reads the
  /// atomic mirrors of the header). Its bytes_done and fraction are the
  /// snapshot's. Returns the rendered length.
  int render_json_signal_safe(char* buf, std::size_t len) const;

private:
  ProgressBoard() = default;

  /// The run model's progress axes, immutable once registered.
  struct Axes {
    std::vector<double> bytes; // RunModel::bytes_prefix
    std::vector<double> amps;  // RunModel::amps_prefix
  };

  /// bytes_done and fraction once every PE has retired `gates` of the
  /// run on `axes`: the one rule the snapshot and the signal handler
  /// share (plain arithmetic, so async-signal-safe).
  static void position(const Axes& axes, std::uint64_t gates,
                       double* bytes_done, double* fraction);

  mutable std::mutex mu_; // guards the cold header below
  std::string backend_;
  long long n_qubits_ = 0;
  int n_workers_ = 0;
  int batch_ = 1;
  double start_us_ = 0; // wait_now_us() at begin_run
  double end_us_ = 0;   // frozen at end_run
  std::shared_ptr<const Axes> axes_;
  std::string report_json_;
  bool have_run_ = false;

  // Signal-safe mirrors (plain atomics; the handler cannot take mu_).
  // axes_mirror_ points at axes_'s object, which stays alive until the
  // next begin_run has published its successor.
  std::atomic<bool> enabled_{false};
  std::atomic<bool> active_{false};
  std::atomic<bool> interrupted_{false};
  std::atomic<const Axes*> axes_mirror_{nullptr};
  std::atomic<int> workers_mirror_{0};
  char backend_mirror_[24] = {0};

  ProgressSlot slots_[kMaxPes];
};

} // namespace svsim::obs
