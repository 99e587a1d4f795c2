// The run pipeline: the one per-run sequence every backend shares.
//
// SV-Sim's deployment tiers differ only in how an amplitude is addressed
// (the Space policies, §3 / Listings 1, 4 and 5); the orchestration
// around the kernel is the same for all of them. One run() goes through
// these stages, in this order:
//
//   1. start    count the run, reset and stamp the report (gate tally and
//               hash of the input circuit), start the telemetry endpoint
//               (obs::maybe_start_httpd) and take its progress board;
//   2. remap    partitioned backends rewrite the circuit so hot qubits
//               are PE-local (ir/remap) and keep the readout layouts;
//   3. fuse     dispatch backends replace each run of gates on one qubit
//               pair below lg_part with one dense 4x4 op where the run
//               model prices the members above it (ir/fusion fuse_pairs),
//               unless the plan is off (block_exp 0: the classic per-gate
//               loop runs the input gates);
//   4. prepare  dispatch backends upload the circuit against their
//               kernel table and build the window schedule;
//   5. planes   profile recorder, health monitor, flight recorder,
//               wait-state tracks, roofline model + counters, progress;
//   6. launch   the timed team launch: every worker runs its gate loop;
//   7. fold     profile, wait-state, roofline, health, pending flight
//               drain, the backend's communication counters, progress.
//
// The report's gate tally and hash are the input circuit's; its per-kind
// executed counts, and everything that runs per executed gate (schedule,
// run model, progress, flight recorder, health cadence), count the
// remapped, fused one.
//
// Switches come resolved: the base Simulator resolves its SimConfig once,
// at construction (RunSwitches). A backend supplies only what differs:
// its Space and kernel table (or its own gate loop), a worker launcher
// (inline, a std::thread team, shmem::Runtime::run) and its communication
// fold. BatchedSim keeps its own plan cache and lane loop but takes stage
// 1 and the roofline / progress bracket of stages 5-7 from here.
#pragma once

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "core/kernels/blocked.hpp"
#include "core/simulator.hpp"
#include "obs/aggregate.hpp"
#include "obs/counters.hpp"
#include "obs/perfmodel.hpp"

namespace svsim {

/// Stage 1: reset `rep` and stamp it for one run of `circuit` — the input
/// circuit, so a remapped run keeps its original tally and hash and
/// ledger keys stay comparable across remap on/off.
void start_report(obs::RunReport& rep, const char* backend, IdxType n_qubits,
                  int n_workers, const Circuit& circuit, IdxType batch = 1);

/// Stage 3, fuse: `exec` with its pair blocks fused (fuse_pairs, priced by
/// the run model's obs::gate_cost) and its dense_blocks/dense_absorbed
/// added to `stats`; null when the plan is off (sw.block_exp == 0), and
/// the input gates run. The one fuse stage of the dispatch backends.
std::unique_ptr<Circuit> fuse_stage(const Circuit& exec,
                                    const RunSwitches& sw, IdxType lg_part,
                                    FusionStats* stats = nullptr);

/// The timed bracket around one gate loop. Construction prices the
/// executed circuit once, through obs/perfmodel, when either plane needs
/// it: the roofline (when `roofline` is on: only for backends whose
/// kernels the model prices) and the `progress` board (when non-null),
/// which it registers the run on with the model's per-gate cumulative
/// scheduled bytes. start()/stop() enclose the loop:
/// the hardware counters (they inherit into the worker threads the loop
/// spawns and joins) and the report's wall time. With the Chrome trace
/// on, each of them also adds an rss_mb counter point, outside the timed
/// span. fold_roofline() and end() close the two planes. The loop runs
/// between start() and stop() in the caller's own frame: the batched lane
/// loop ran measurably slower wrapped in a lambda.
class LoopBracket {
public:
  /// A batched run passes its member count and its plan's slot costs
  /// (obs::model_run_batched); every other run prices `exec` gate by gate.
  LoopBracket(obs::RunReport& rep, bool roofline,
              obs::ProgressBoard* progress, const Circuit& exec,
              const Schedule* sched, IdxType batch = 1,
              const std::vector<obs::SlotCost>* slots = nullptr);

  void start() {
    mark_rss();
    t0_us_ = obs::trace_now_us();
    counters_.start();
    wall_.reset();
  }
  void stop() {
    rep_.wall_seconds += wall_.seconds();
    counters_.stop();
    mark_rss();
  }

  void fold_roofline();
  /// Publish the finished report on the progress board (last fold).
  void end();

private:
  /// Sample VmRSS and add it to the trace's rss_mb counter track; run
  /// starts and ends are the track's only points.
  void mark_rss();

  obs::RunReport& rep_;
  obs::ProgressBoard* progress_;
  bool roofline_;
  obs::RunModel model_;
  obs::CounterSampler counters_;
  Timer wall_;
  double t0_us_ = 0;
};

/// A std::thread team of `n` workers — the paper's one host thread per
/// device (`omp parallel num_threads(n_gpus)`). Worker 0 runs on the
/// calling thread; every worker's log lines carry its PE tag.
template <class Body>
void launch_team(int n, Body&& body) {
  const auto worker = [&body](int w) {
    set_log_pe(w);
    body(w);
  };
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  for (int w = 1; w < n; ++w) team.emplace_back(worker, w);
  worker(0);
  for (auto& t : team) t.join();
  set_log_pe(-1);
}

/// One Simulator run() in flight. The constructor runs stages 1, 2 and
/// the per-run planes of stage 5; fuse() runs stage 3, launch() stage 6
/// inside the loop bracket and every fold of stage 7.
class Simulator::Run {
public:
  Run(Simulator& sim, const Circuit& circuit, obs::Counter& runs,
      Shape shape);

  /// Stage 3 on exec(), recorded in the report's fusion section.
  void fuse(IdxType lg_part) {
    fused_ = fuse_stage(exec(), sim_.sw_, lg_part, &sim_.report_.fusion);
  }

  /// The circuit the workers execute: the fused one, the remapped one, or
  /// the input.
  const Circuit& exec() const {
    return fused_ ? *fused_ : rm_ ? rm_->circuit : circuit_;
  }
  const RunPlanes& planes() const { return planes_; }
  /// The health cadence (0 = off): the scheduler cuts windows there.
  IdxType checkpoint_every() const {
    return health_ ? health_->every_n() : 0;
  }
  /// Wait-state recorder for obs::WaitBind (null when off).
  obs::WaitRecorder* waits() const { return waits_.get(); }

  /// `loop()` runs every worker's gate loop; `fold(report)` adds the
  /// backend's communication counters. `sched` is the executed window
  /// schedule when blocked windows ran (null otherwise).
  template <class Loop, class Fold>
  void launch(const Schedule* sched, bool priced, Loop&& loop, Fold&& fold) {
    obs::RunReport& rep = sim_.report_;
    if (&exec() != &circuit_) obs::tally_executed(rep, exec());
    LoopBracket bracket(rep, sim_.sw_.roofline && priced, progress_, exec(),
                        sched);
    bracket.start();
    loop();
    bracket.stop();
    if (rec_) rec_->finish(rep, sim_.name());
    if (waits_) obs::fold_waitstate(rep, *waits_, sim_.name());
    bracket.fold_roofline();
    if (health_) health_->finish(rep);
    if (flight_ != nullptr) sim_.flight_workers_ = shape_.n_workers;
    fold(rep);
    bracket.end();
  }

private:
  Simulator& sim_;
  const Circuit& circuit_;
  const Shape shape_;
  obs::ProgressBoard* const progress_;
  std::unique_ptr<RemapResult> rm_;
  std::unique_ptr<Circuit> fused_;
  std::unique_ptr<obs::GateRecorder> rec_;
  std::unique_ptr<obs::HealthMonitor> health_;
  std::unique_ptr<obs::WaitRecorder> waits_;
  obs::FlightRecorder* flight_ = nullptr;
  RunPlanes planes_;
};

/// A backend without communication counters.
inline void no_comm_fold(obs::RunReport&) {}

template <class Space, class Launch, class Fold>
void Simulator::run_dispatch(const Circuit& circuit, obs::Counter& runs,
                             Shape shape,
                             const typename KernelTable<Space>::Table& table,
                             Launch&& launch, Fold&& fold) {
  Run run(*this, circuit, runs, shape);
  run.fuse(parts_.lg_part);
  const auto device_circuit = upload_circuit<Space>(run.exec(), table);
  // Built once on the calling thread, shared read-only by every worker.
  // b <= lg_part keeps every block inside one worker's partition; b = 0
  // when auto blocking leaves a one-block state to the per-gate loop,
  // which the report still shows: scheduling on, no window.
  const IdxType b = sw_.block_exp_for(parts_.lg_part, shape.n_workers);
  const auto sched = kernels::prepare_sched<Space>(
      run.exec(), device_circuit.gates, b, parts_.lg_part,
      run.planes().rec != nullptr, run.checkpoint_every());
  if (sched.enabled || b != sw_.block_exp) {
    // The blocked windows' saving, read off the run model.
    const obs::RunModel m = sched.active
                                ? obs::model_run(run.exec(), &sched.sched)
                                : obs::RunModel{};
    fold_sched_stats(report_, sched.sched.stats, sched.active,
                     m.bytes - m.bytes_sched);
  }
  run.launch(
      sched.active ? &sched.sched : nullptr, /*priced=*/true,
      [&] {
        launch([&](const Space& sp) {
          obs::WaitBind bind(run.waits(), sp.worker());
          simulation_kernel_sched(device_circuit.gates, sched, sp,
                                  run.planes());
        });
      },
      std::forward<Fold>(fold));
}

} // namespace svsim
