// The three workloads. Each is a closed loop of homogeneous jobs driven
// by one client thread; main.cpp owns the loop, the timing and the
// checks, and a workload only knows how to make an input, run one job on
// it, and check the job's output.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "trace.hpp"

namespace perfbench {

using svsim::IdxType;
using svsim::ValType;

/// What a traced job reads from the program's RunReport between run()
/// and sample() (sample() runs its own measure-all circuit and replaces
/// the report).
struct ReportRead {
  double loop_s = 0; // RunReport::wall_seconds: the gate loop
  std::uint64_t gates = 0;
  int n_qubits = 0;
  int members = 1; // state vectors evolved by the run
  std::uint64_t sched_windows = 0;
  std::uint64_t sched_windowed_gates = 0;
  std::uint64_t remap_swaps = 0;
  double remap_bytes_ratio = 0; // modeled remote bytes after / before
  std::uint64_t remote_bytes = 0; // traffic-matrix off-diagonal
  std::uint64_t remote_ops = 0;
  std::uint64_t local_ops = 0;
  std::uint64_t barriers = 0;
  double wait_frac = 0;
  double imbalance = 0;
  std::uint64_t tracked_peak = 0; // bytes

  /// Fold in the report of a later run of the same job: counts and loop
  /// time add up; ratios, waits and the memory peak are the later run's.
  void add(const ReportRead& r) {
    ReportRead sum = r;
    sum.loop_s += loop_s;
    sum.gates += gates;
    sum.sched_windows += sched_windows;
    sum.sched_windowed_gates += sched_windowed_gates;
    sum.remap_swaps += remap_swaps;
    sum.remote_bytes += remote_bytes;
    sum.remote_ops += remote_ops;
    sum.local_ops += local_ops;
    sum.barriers += barriers;
    *this = sum;
  }

  /// The counts that must repeat exactly for one seed.
  std::vector<std::uint64_t> exact() const {
    return {gates,        sched_windows, sched_windowed_gates, remap_swaps,
            remote_bytes, remote_ops,    local_ops,            barriers};
  }
};

struct JobOutput {
  std::vector<IdxType> samples;  // measure-all outcomes
  std::vector<ValType> energies; // one <H> per parameter vector
};

class Workload {
public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Job wall time on the reference host (README); sizes the job count
  /// and the warm-up so that both take about as long as asked.
  virtual double nominal_job_s() const = 0;
  /// One in this many timed jobs is re-run on testing::OracleSim.
  virtual int oracle_every() const = 0;

  /// Build what the workload keeps for a whole run.
  virtual void setup(Tracer*) {}
  /// Destroy it.
  virtual void teardown(Tracer*) {}

  /// Generate the input of the next job from its seed; returns a digest
  /// of the input, so a run can prove that no input repeats.
  virtual std::uint64_t make_input(std::uint64_t seed) = 0;

  /// Run one job on the current input. `rep` is non-null in traced runs,
  /// which read the program's counts into it.
  virtual JobOutput job(Tracer* t, ReportRead* rep) = 0;

  /// The per-job output check; empty when the output is valid.
  virtual std::string check(const JobOutput& out) const = 0;

  /// Compare `out` with testing::OracleSim on the current input; empty
  /// when they agree.
  virtual std::string oracle_check(const JobOutput& out) = 0;

  /// Traced runs only, after the traced pass: calls timed on their own
  /// outside any job span (the remap pass; the real call beside its
  /// re-enactment). Returns a non-empty reason when two calls that must
  /// agree did not.
  virtual std::string direct_calls(Tracer*) { return ""; }

  /// Traced runs only: the current input's circuits on one default
  /// SingleSim thread, gate loop only (ms) — the single-thread baseline.
  virtual double single_loop_ms(Tracer* t) = 0;
};

/// The workload called `name`, or null.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

} // namespace perfbench
