// Micro-benchmarks (google-benchmark): per-gate kernel throughput for the
// specialized kernels at each SIMD level, and the specialized-vs-dense
// per-gate gap that underlies Fig 14. Each gate runs with its lowest
// operand at qubit 5 (/5: at or above log2 W, plain vector loads and
// stores) and at qubit 1 (/1: below log2 W, the same loads plus
// in-register lane permutes and masked stores); two-qubit gates pair it
// with qubit 11 (/5/11, /1/11) and also run with both operands below
// log2 W (/1/0). DENSE2 rows run the fused dense 4x4 on a random unitary:
// one of its sweeps against the specialized rows is the factor
// kDenseSweeps (ir/fusion.hpp) prices. Run with --benchmark_filter=... to
// narrow.
#include <benchmark/benchmark.h>

#include "core/generalized_sim.hpp"
#include "core/single_sim.hpp"
#include "testing/rand_circuit.hpp"

namespace {

using namespace svsim;

constexpr IdxType kQubits = 16;

/// The row's one-gate circuit: `op` on qubit range(0), a two-qubit op
/// with range(1); angles fixed, a DENSE2 on a fixed random unitary.
Circuit bench_circuit(const benchmark::State& state, OP op) {
  const auto a = static_cast<IdxType>(state.range(0));
  Circuit c(kQubits);
  if (op == OP::DENSE2) {
    Rng rng(11);
    c.dense2(testing::random_unitary_2q(rng), a,
             static_cast<IdxType>(state.range(1)));
    return c;
  }
  Gate g = op_info(op).n_qubits == 1
               ? make_gate(op, a)
               : make_gate(op, a, static_cast<IdxType>(state.range(1)));
  g.theta = 0.7;
  g.phi = 0.3;
  g.lam = -0.4;
  c.append(g);
  return c;
}

/// Operand rows: the lowest operand at 5 and at 1; a two-qubit op pairs
/// it with 11, or puts both operands below log2 W.
void one_qubit_rows(benchmark::internal::Benchmark* b) { b->Arg(5)->Arg(1); }
void two_qubit_rows(benchmark::internal::Benchmark* b) {
  b->Args({5, 11})->Args({1, 11})->Args({1, 0});
}

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

  const Circuit c = bench_circuit(state, op);
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

  const Circuit c = bench_circuit(state, op);
  for (auto _ : state) {
    sim.run(c);
  }
  state.SetItemsProcessed(state.iterations() * pow2(kQubits));
}

#define GATE_BENCH(opname, rows)                                             \
  void BM_##opname##_scalar(benchmark::State& s) {                          \
    run_gate(s, OP::opname, SimdLevel::kScalar);                            \
  }                                                                          \
  BENCHMARK(BM_##opname##_scalar)->Apply(rows);                             \
  void BM_##opname##_avx2(benchmark::State& s) {                            \
    run_gate(s, OP::opname, SimdLevel::kAvx2);                              \
  }                                                                          \
  BENCHMARK(BM_##opname##_avx2)->Apply(rows);                               \
  void BM_##opname##_avx512(benchmark::State& s) {                          \
    run_gate(s, OP::opname, SimdLevel::kAvx512);                            \
  }                                                                          \
  BENCHMARK(BM_##opname##_avx512)->Apply(rows);                             \
  void BM_##opname##_generic(benchmark::State& s) {                         \
    run_generic_gate(s, OP::opname);                                        \
  }                                                                          \
  BENCHMARK(BM_##opname##_generic)->Apply(rows);

GATE_BENCH(H, one_qubit_rows)
GATE_BENCH(T, one_qubit_rows)
GATE_BENCH(X, one_qubit_rows)
GATE_BENCH(Z, one_qubit_rows)
GATE_BENCH(RY, one_qubit_rows)
GATE_BENCH(U3, one_qubit_rows)
GATE_BENCH(CX, two_qubit_rows)
GATE_BENCH(CZ, two_qubit_rows)
GATE_BENCH(CU1, two_qubit_rows)
GATE_BENCH(CRX, two_qubit_rows)
GATE_BENCH(RZZ, two_qubit_rows)
GATE_BENCH(DENSE2, two_qubit_rows)

} // namespace

BENCHMARK_MAIN();
