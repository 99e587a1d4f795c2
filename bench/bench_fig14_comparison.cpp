// Figure 14: simulation performance comparison — SV-Sim (CPU, CPU+AVX-512,
// V100) against the default simulators of Qiskit / Cirq / Q#.
//
// The external frameworks are represented by the in-repo GeneralizedSim
// baseline (dense 1-/2-qubit unitary application + per-gate runtime
// dispatch — the execution model §3.2.1 attributes to Aer/qsim). Columns:
//   svsim_cpu        — measured SingleSim, scalar specialized kernels
//   svsim_cpu_avx512 — measured SingleSim, AVX-512 kernel table
//   svsim_v100       — modeled V100 latency (machine model)
//   generic_sim      — measured GeneralizedSim (the Aer/qsim-style stand-in)
// Shape claim (§4.4): SV-Sim is significantly faster (paper: ~10x on
// average) than the generic-matrix simulators on the same circuits.
#include <cstdio>

#include "bench_util.hpp"
#include "circuits/qasmbench.hpp"
#include "common/timer.hpp"
#include "core/generalized_sim.hpp"
#include "core/single_sim.hpp"
#include "machine/platforms.hpp"

namespace {

double measure_ms(svsim::Simulator& sim, const svsim::Circuit& c,
                  int reps = 3) {
  using svsim::Timer;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    sim.reset_state();
    Timer t;
    sim.run(c);
    best = std::min(best, t.millis());
  }
  return best;
}

} // namespace

int main() {
  using namespace svsim;
  namespace m = svsim::machine;
  namespace cb = svsim::circuits;

  bench::print_header(
      "Figure 14 — simulation performance comparison",
      "measured wall-clock on this host (SingleSim vs generalized "
      "baseline) + modeled V100; milliseconds");

  bench::Table t("circuit");
  t.add_column("svsim_cpu");
  if (max_simd_level() >= SimdLevel::kAvx512) t.add_column("cpu_avx512");
  t.add_column("svsim_v100");
  t.add_column("generic_sim");
  t.add_column("speedup");

  const m::CostModel v100(m::nvidia_v100_dgx2());

  double sum_speedup = 0;
  int count = 0;
  for (const auto& id : cb::medium_ids()) {
    const Circuit c = cb::make_table4(id);
    const IdxType n = c.n_qubits();

    SimConfig scalar_cfg;
    scalar_cfg.simd = SimdLevel::kScalar;
    SingleSim scalar(n, scalar_cfg);
    const double t_scalar = measure_ms(scalar, c);

    double t_avx = -1;
    if (max_simd_level() >= SimdLevel::kAvx512) {
      SimConfig cfg;
      cfg.simd = SimdLevel::kAvx512;
      SingleSim avx(n, cfg);
      t_avx = measure_ms(avx, c);
    }

    GeneralizedSim generic(n);
    const double t_generic = measure_ms(generic, c);

    const double t_gpu = v100.single_device_ms(c);

    std::vector<double> row;
    row.push_back(t_scalar);
    if (t_avx >= 0) row.push_back(t_avx);
    row.push_back(t_gpu);
    row.push_back(t_generic);
    const double best_sv = t_avx >= 0 ? std::min(t_scalar, t_avx) : t_scalar;
    row.push_back(t_generic / best_sv);
    sum_speedup += t_generic / best_sv;
    ++count;
    t.add_row(id, row);
  }
  t.print("%12.3f");
  std::printf("\n");

  const double avg = sum_speedup / count;
  bench::shape_check(avg > 1.5,
                     "specialized SV-Sim beats the generic-matrix baseline "
                     "across the suite (paper vs Qiskit/Cirq/Q#: ~10x)");
  std::printf("average speedup of SV-Sim CPU over generic baseline: %.2fx\n",
              avg);
  return 0;
}
