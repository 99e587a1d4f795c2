// Micro-benchmarks (google-benchmark): per-gate kernel throughput for the
// specialized kernels at each SIMD level, and the specialized-vs-dense
// per-gate gap that underlies Fig 14. Each gate runs with its lowest
// operand at qubit 5 (/5: at or above log2 W, plain vector loads and
// stores) and at qubit 1 (/1: below log2 W, the same loads plus
// in-register lane permutes and masked stores); two-qubit gates pair it
// with qubit 11 (/5/11, /1/11) and also run with both operands below
// log2 W (/1/0). DENSE2 rows run the fused dense 4x4 on a random unitary:
// one of its sweeps against the specialized rows is the factor
// kDenseSweeps (ir/fusion.hpp) prices. The partitioned rows (_shmem2,
// _peer2) run ShmemSim(16, 2) and PeerSim(16, 2) at the widest lane level
// with remap and the plan off, on gates whose operand 15 is the partition
// qubit (/3/15, /1/15, /15, /15/3) beside the same gates on qubit 14,
// which stay inside each partition. The readout rows (sample_) time
// sample(1024) on one fixed 16-qubit state on SingleSim(16) and, with
// remap off (/0) and on (/1), ShmemSim(16, 2) and PeerSim(16, 2); remap
// leaves that state under a layout that is not the identity, so /1 reads
// through a readout permutation. Run with --benchmark_filter=... to
// narrow.
#include <benchmark/benchmark.h>

#include <chrono>
#include <numeric>
#include <vector>

#include "core/generalized_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "ir/remap.hpp"
#include "testing/rand_circuit.hpp"

namespace {

using namespace svsim;

constexpr IdxType kQubits = 16;

/// The row's circuit: `copies` copies of `op` on qubit range(0), a
/// two-qubit op with range(1); angles fixed, a DENSE2 on a fixed random
/// unitary.
Circuit bench_circuit(const benchmark::State& state, OP op, int copies = 1) {
  const auto a = static_cast<IdxType>(state.range(0));
  Circuit c(kQubits);
  for (int k = 0; k < copies; ++k) {
    if (op == OP::DENSE2) {
      Rng rng(11);
      c.dense2(testing::random_unitary_2q(rng), a,
               static_cast<IdxType>(state.range(1)));
      continue;
    }
    Gate g = op_info(op).n_qubits == 1
                 ? make_gate(op, a)
                 : make_gate(op, a, static_cast<IdxType>(state.range(1)));
    g.theta = 0.7;
    g.phi = 0.3;
    g.lam = -0.4;
    c.append(g);
  }
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

/// Gates per partitioned row's circuit: each run() starts the PE team
/// once, so its cost is spread over the copies.
constexpr int kCopies = 8;

/// A partitioned row: Sim(16, 2 workers) runs kCopies copies of the gate
/// per iteration, with remap off (the operands stay where the row puts
/// them) and the plan off (no fuse stage or windows), and reports each
/// run's wall time per gate.
template <class Sim>
void run_partitioned(benchmark::State& state, OP op) {
  SimConfig cfg;
  cfg.remap = 0;
  cfg.sched_window = 0;
  Sim sim(kQubits, 2, cfg);
  Circuit prep(kQubits);
  for (IdxType q = 0; q < kQubits; ++q) prep.h(q);
  sim.run(prep);

  const Circuit c = bench_circuit(state, op, kCopies);
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    sim.run(c);
    benchmark::ClobberMemory();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    state.SetIterationTime(dt.count() / kCopies);
  }
  state.SetItemsProcessed(state.iterations() * pow2(kQubits));
}

void swap_rows(benchmark::internal::Benchmark* b) {
  b->Args({3, 15})->Args({1, 15})->Args({3, 14});
}
void h_rows(benchmark::internal::Benchmark* b) { b->Arg(15)->Arg(14); }
void cx_rows(benchmark::internal::Benchmark* b) { b->Args({15, 3}); }
void dense2_rows(benchmark::internal::Benchmark* b) { b->Args({3, 15}); }

#define PARTITIONED_BENCH(opname, rows)                                      \
  void BM_##opname##_shmem2(benchmark::State& s) {                          \
    run_partitioned<ShmemSim>(s, OP::opname);                               \
  }                                                                          \
  BENCHMARK(BM_##opname##_shmem2)->Apply(rows)->UseManualTime();            \
  void BM_##opname##_peer2(benchmark::State& s) {                           \
    run_partitioned<PeerSim>(s, OP::opname);                                \
  }                                                                          \
  BENCHMARK(BM_##opname##_peer2)->Apply(rows)->UseManualTime();

PARTITIONED_BENCH(SWAP, swap_rows)
PARTITIONED_BENCH(H, h_rows)
PARTITIONED_BENCH(CX, cx_rows)
PARTITIONED_BENCH(DENSE2, dense2_rows)

/// The readout rows' state: a random circuit biased toward the high
/// qubits, without measure or reset.
Circuit readout_circuit() {
  testing::CircuitGenOptions opt;
  opt.n_qubits = kQubits;
  opt.n_gates = 200;
  opt.p_measure = 0;
  opt.p_reset = 0;
  opt.p_barrier = 0;
  return testing::random_circuit(opt, 7);
}

/// A readout row: `sim` runs the readout circuit once, then each
/// iteration times one sample(1024).
void run_readout(benchmark::State& state, Simulator& sim) {
  const Circuit c = readout_circuit();
  std::vector<IdxType> identity(static_cast<std::size_t>(kQubits));
  std::iota(identity.begin(), identity.end(), 0);
  if (remap_for_partition(c, kQubits - 1).layout == identity) {
    state.SkipWithError("the readout circuit leaves the identity layout");
    return;
  }
  sim.run(c);
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<IdxType> samples = sim.sample(1024);
    benchmark::DoNotOptimize(samples.data());
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    state.SetIterationTime(dt.count());
  }
}

void BM_sample_single(benchmark::State& s) {
  SingleSim sim(kQubits);
  run_readout(s, sim);
}
BENCHMARK(BM_sample_single)->UseManualTime();

/// A partitioned readout row: Sim(16, 2 workers), remap off or on.
template <class Sim>
void run_partitioned_readout(benchmark::State& state) {
  SimConfig cfg;
  cfg.remap = static_cast<int>(state.range(0));
  Sim sim(kQubits, 2, cfg);
  run_readout(state, sim);
}

void BM_sample_shmem2(benchmark::State& s) {
  run_partitioned_readout<ShmemSim>(s);
}
BENCHMARK(BM_sample_shmem2)->Arg(0)->Arg(1)->UseManualTime();
void BM_sample_peer2(benchmark::State& s) {
  run_partitioned_readout<PeerSim>(s);
}
BENCHMARK(BM_sample_peer2)->Arg(0)->Arg(1)->UseManualTime();

} // namespace

BENCHMARK_MAIN();
