// Communication-avoiding remap sweep: QFT and a quantum-volume-style
// layered random circuit at n >= 20 on the partitioned backends
// ({shmem, peer} x 4 PEs), remap off vs on (SimConfig::remap, the same
// switch SVSIM_REMAP=<0|1> flips). For each leg we report the measured
// PE x PE traffic matrix's off-diagonal (remote) byte volume, the wall
// time, and the swaps the pass paid.
//
// The final byte_speedup table (remote bytes unremapped / remapped —
// higher is better, deterministic on every machine) is the cross-machine
// regression surface: CI regenerates it and checks the committed
// bench/BENCH_remap.json with bench/regress_check.py.
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/qasmbench.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"

namespace {

using namespace svsim;

/// Quantum-volume-style model circuit: square-ish layers of two-qubit
/// blocks (u3 pairs + double cx) on a fresh random qubit pairing per
/// layer — the permutation structure that defeats any static layout.
Circuit qv_like(IdxType n, IdxType layers, std::uint64_t seed) {
  Rng rng(seed);
  Circuit c(n);
  std::vector<IdxType> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (IdxType l = 0; l < layers; ++l) {
    for (std::size_t i = perm.size() - 1; i > 0; --i) {
      std::swap(perm[i], perm[static_cast<std::size_t>(
                             rng.next_below(static_cast<std::uint64_t>(i + 1)))]);
    }
    for (std::size_t i = 0; i + 1 < perm.size(); i += 2) {
      const IdxType a = perm[i];
      const IdxType b = perm[i + 1];
      c.u3(rng.uniform(0, PI), rng.uniform(-PI, PI), rng.uniform(-PI, PI), a);
      c.u3(rng.uniform(0, PI), rng.uniform(-PI, PI), rng.uniform(-PI, PI), b);
      c.cx(a, b);
      c.u3(rng.uniform(0, PI), rng.uniform(-PI, PI), rng.uniform(-PI, PI), a);
      c.u3(rng.uniform(0, PI), rng.uniform(-PI, PI), rng.uniform(-PI, PI), b);
      c.cx(b, a);
    }
  }
  return c;
}

struct Leg {
  double ms = 0;
  std::uint64_t remote_bytes = 0; // measured traffic-matrix off-diagonal
  std::uint64_t swaps = 0;
  std::uint64_t modeled_before = 0;
  std::uint64_t modeled_after = 0;
  obs::TrafficMatrix matrix;
};

Leg run_leg(const std::string& backend, const Circuit& c, int workers,
            bool remap) {
  SimConfig cfg;
  cfg.remap = remap ? 1 : 0;
  std::unique_ptr<Simulator> sim;
  if (backend == "shmem") {
    sim = std::make_unique<ShmemSim>(c.n_qubits(), workers, cfg);
  } else {
    sim = std::make_unique<PeerSim>(c.n_qubits(), workers, cfg);
  }
  Leg leg;
  Timer t;
  sim->run(c);
  leg.ms = t.millis();
  const obs::RunReport& rep = sim->last_report();
  leg.matrix = rep.matrix;
  leg.remote_bytes = rep.matrix.remote_total();
  leg.swaps = rep.remap.swaps_inserted;
  leg.modeled_before = rep.remap.modeled_remote_bytes_before;
  leg.modeled_after = rep.remap.modeled_remote_bytes_after;
  return leg;
}

} // namespace

int main() {
  bench::print_header(
      "Communication-avoiding remap — remote-byte and wall-clock sweep",
      "QFT n=20 and a QV-style layered circuit n=20, {shmem, peer} x 4 "
      "PEs, SVSIM_REMAP off vs on; measured PE x PE off-diagonal bytes, "
      "wall ms, swaps paid");

  constexpr IdxType kQubits = 20;
  constexpr int kWorkers = 4;
  struct Workload {
    const char* name;
    Circuit circuit;
  };
  const std::vector<Workload> workloads = {
      {"qft_n20", circuits::qft(kQubits)},
      {"qv_n20", qv_like(kQubits, 8, 42)},
  };

  bench::Table abs("workload/backend");
  abs.add_column("remote_MB_off");
  abs.add_column("remote_MB_on");
  abs.add_column("ms_off");
  abs.add_column("ms_on");
  abs.add_column("swaps");

  bench::Table ratio("byte_speedup");
  ratio.add_column("bytes_speedup");
  ratio.add_column("modeled_speedup");

  bool all_reduced = true;
  for (const Workload& w : workloads) {
    for (const char* backend : {"shmem", "peer"}) {
      const Leg off = run_leg(backend, w.circuit, kWorkers, false);
      const Leg on = run_leg(backend, w.circuit, kWorkers, true);
      const std::string label = std::string(w.name) + "/" + backend;
      abs.add_row(label,
                  {static_cast<double>(off.remote_bytes) / 1e6,
                   static_cast<double>(on.remote_bytes) / 1e6, off.ms, on.ms,
                   static_cast<double>(on.swaps)});
      // Measured and pass-modeled reduction ratios; both deterministic
      // (pure traffic counts), so they survive machine changes.
      const double bytes_speedup =
          on.remote_bytes > 0 ? static_cast<double>(off.remote_bytes) /
                                    static_cast<double>(on.remote_bytes)
                              : 0.0;
      const double modeled_speedup =
          on.modeled_after > 0 ? static_cast<double>(on.modeled_before) /
                                     static_cast<double>(on.modeled_after)
                               : 0.0;
      ratio.add_row(label, {bytes_speedup, modeled_speedup});
      if (on.remote_bytes >= off.remote_bytes) all_reduced = false;

      // The traffic-matrix proof (DESIGN.md §12): the QFT heatmaps before
      // and after are the primary-source evidence of avoided volume.
      if (w.name == std::string("qft_n20")) {
        bench::print_traffic_matrix(label + " remap=0", off.matrix);
        bench::print_traffic_matrix(label + " remap=1", on.matrix);
      }
    }
  }
  abs.print("%12.2f");
  ratio.print("%12.2f");

  bench::shape_check(all_reduced,
                     "SVSIM_REMAP=1 moves fewer remote bytes than =0 on "
                     "every workload x backend leg");
  return all_reduced ? 0 : 1;
}
