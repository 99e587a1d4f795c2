// Ablation: batched VQA evaluation (the paper's §7 future-work item) —
// evaluating K parameter sets of one ansatz through BatchedSim versus K
// sequential SingleSim runs. Batching amortizes circuit binding and
// turns the innermost loop into contiguous sweeps across members.
#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/single_sim.hpp"
#include "vqa/batched.hpp"
#include "vqa/vqe.hpp"

int main() {
  using namespace svsim;
  using namespace svsim::vqa;

  bench::print_header(
      "Ablation — batched VQA evaluation (paper future work)",
      "K parameter sets of one hardware-efficient ansatz: sequential "
      "SingleSim vs BatchedSim; milliseconds per full sweep");

  std::printf("%6s %6s %12s %12s %10s\n", "n", "K", "seq ms", "batched ms",
              "speedup");
  for (const IdxType n : {8, 10}) {
    const Hamiltonian h2 = bench::tfi_hamiltonian(n);
    const ParamCircuit ansatz = hardware_efficient_ansatz(n, 3);
    Rng rng(7);
    const int K = 16;
    std::vector<std::vector<ValType>> sets;
    for (int k = 0; k < K; ++k) {
      std::vector<ValType> p(ansatz.n_params());
      for (auto& v : p) v = rng.uniform(-PI, PI);
      sets.push_back(std::move(p));
    }

    // Sequential baseline.
    Timer t_seq;
    std::vector<ValType> seq_e;
    {
      SingleSim sim(n);
      for (const auto& p : sets) {
        sim.run_fresh(ansatz.bind(p));
        seq_e.push_back(h2.expectation(sim.state()));
      }
    }
    const double ms_seq = t_seq.millis();

    // Batched.
    Timer t_bat;
    const auto bat_e = batched_energy_sweep(n, ansatz, h2, sets, K);
    const double ms_bat = t_bat.millis();

    double max_err = 0;
    for (int k = 0; k < K; ++k) {
      max_err = std::max(max_err,
                         std::abs(seq_e[static_cast<std::size_t>(k)] -
                                  bat_e[static_cast<std::size_t>(k)]));
    }
    std::printf("%6lld %6d %12.2f %12.2f %9.2fx   (max |dE| %.2e)\n",
                static_cast<long long>(n), K, ms_seq, ms_bat,
                ms_seq / ms_bat, max_err);
    if (max_err > 1e-9) {
      bench::shape_check(false, "batched energies must match sequential");
      return 1;
    }
  }
  bench::shape_check(true, "batched energies match sequential evaluation");
  return 0;
}
