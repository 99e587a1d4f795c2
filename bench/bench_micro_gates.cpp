// Micro-benchmarks (google-benchmark): per-gate kernel throughput for the
// specialized kernels at each SIMD level, and the specialized-vs-dense
// per-gate gap that underlies Fig 14. Each gate runs with its lowest
// operand at qubit 5 (/5: at or above log2 W, unit-stride vector loads)
// and at qubit 1 (/1: below log2 W, gathers); two-qubit gates pair it with
// qubit 11. Run with --benchmark_filter=... to narrow.
#include <benchmark/benchmark.h>

#include "core/generalized_sim.hpp"
#include "core/single_sim.hpp"

namespace {

using namespace svsim;

constexpr IdxType kQubits = 16;

void run_gate(benchmark::State& state, OP op, SimdLevel level) {
  if (level > max_simd_level()) {
    state.SkipWithError("SIMD level unavailable");
    return;
  }
  SimConfig cfg;
  cfg.simd = level;
  SingleSim sim(kQubits, cfg);
  // Superposed state so every kernel does representative work.
  Circuit prep(kQubits);
  for (IdxType q = 0; q < kQubits; ++q) prep.h(q);
  sim.run(prep);

  Circuit c(kQubits);
  const auto low = static_cast<IdxType>(state.range(0));
  Gate g = op_info(op).n_qubits == 1 ? make_gate(op, low)
                                     : make_gate(op, low, 11);
  g.theta = 0.7;
  g.phi = 0.3;
  g.lam = -0.4;
  c.append(g);

  for (auto _ : state) {
    sim.run(c);
    benchmark::DoNotOptimize(sim.real()[0]);
  }
  state.SetItemsProcessed(state.iterations() * pow2(kQubits));
}

void run_generic_gate(benchmark::State& state, OP op) {
  GeneralizedSim sim(kQubits);
  Circuit prep(kQubits);
  for (IdxType q = 0; q < kQubits; ++q) prep.h(q);
  sim.run(prep);

  Circuit c(kQubits);
  const auto low = static_cast<IdxType>(state.range(0));
  Gate g = op_info(op).n_qubits == 1 ? make_gate(op, low)
                                     : make_gate(op, low, 11);
  g.theta = 0.7;
  c.append(g);
  for (auto _ : state) {
    sim.run(c);
  }
  state.SetItemsProcessed(state.iterations() * pow2(kQubits));
}

#define GATE_BENCH(opname)                                                   \
  void BM_##opname##_scalar(benchmark::State& s) {                          \
    run_gate(s, OP::opname, SimdLevel::kScalar);                            \
  }                                                                          \
  BENCHMARK(BM_##opname##_scalar)->Arg(5)->Arg(1);                          \
  void BM_##opname##_avx2(benchmark::State& s) {                            \
    run_gate(s, OP::opname, SimdLevel::kAvx2);                              \
  }                                                                          \
  BENCHMARK(BM_##opname##_avx2)->Arg(5)->Arg(1);                            \
  void BM_##opname##_avx512(benchmark::State& s) {                          \
    run_gate(s, OP::opname, SimdLevel::kAvx512);                            \
  }                                                                          \
  BENCHMARK(BM_##opname##_avx512)->Arg(5)->Arg(1);                          \
  void BM_##opname##_generic(benchmark::State& s) {                         \
    run_generic_gate(s, OP::opname);                                        \
  }                                                                          \
  BENCHMARK(BM_##opname##_generic)->Arg(5)->Arg(1);

GATE_BENCH(H)
GATE_BENCH(T)
GATE_BENCH(X)
GATE_BENCH(Z)
GATE_BENCH(RY)
GATE_BENCH(U3)
GATE_BENCH(CX)
GATE_BENCH(CZ)
GATE_BENCH(CU1)
GATE_BENCH(RZZ)

} // namespace

BENCHMARK_MAIN();
