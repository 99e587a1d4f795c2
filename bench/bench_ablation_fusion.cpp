// Ablation: gate fusion (the optimization qsim relies on, §6) applied on
// top of SV-Sim's specialized kernels. For every Table 4 medium circuit:
// the run pipeline's pair fusion (each run of gates on one qubit pair as
// one dense 4x4 sweep, ir/fusion fuse_pairs) with the plan off
// (sched_window = 0, the classic per-gate loop over the input gates)
// against the default plan, in measured single-device wall time.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "circuits/qasmbench.hpp"
#include "common/timer.hpp"
#include "core/single_sim.hpp"

namespace {

double measure_ms(svsim::SingleSim& sim, const svsim::Circuit& c) {
  double best = 1e300;
  for (int r = 0; r < 3; ++r) {
    sim.reset_state();
    svsim::Timer t;
    sim.run(c);
    best = std::min(best, t.millis());
  }
  return best;
}

} // namespace

int main() {
  using namespace svsim;
  namespace cb = svsim::circuits;

  bench::print_header("Ablation — pair fusion on top of specialized kernels",
                      "the pipeline's dense 4x4 pair blocks, plan off "
                      "(sched_window = 0) vs default; measured "
                      "single-device wall time");

  std::printf("%-16s %8s %8s %8s %10s %10s %8s\n", "circuit", "gates",
              "executed", "dense", "off ms", "on ms", "speedup");

  double total_speedup = 0;
  int count = 0;
  for (const auto& id : cb::medium_ids()) {
    const Circuit c = cb::make_table4(id);
    SimConfig off_cfg;
    off_cfg.sched_window = 0;
    SingleSim off(c.n_qubits(), off_cfg);
    SingleSim on(c.n_qubits());
    const double off_ms = measure_ms(off, c);
    const double on_ms = measure_ms(on, c);
    const FusionStats& st = on.last_report().fusion;
    std::printf("%-16s %8lld %8lld %8lld %10.3f %10.3f %8.2f\n", id.c_str(),
                static_cast<long long>(c.n_gates()),
                static_cast<long long>(c.n_gates() - st.dense_absorbed +
                                       st.dense_blocks),
                static_cast<long long>(st.dense_blocks), off_ms, on_ms,
                off_ms / on_ms);
    total_speedup += off_ms / on_ms;
    ++count;
  }
  const double avg = total_speedup / count;
  std::printf("\naverage fusion speedup: %.2fx\n", avg);
  bench::shape_check(avg > 1.0,
                     "fusion reduces simulation time on the deep circuits");
  return 0;
}
