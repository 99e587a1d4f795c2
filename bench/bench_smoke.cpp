// Regression-sentinel workload: fast real-execution timings on small
// circuits, emitted through the standard SVSIM_BENCH_JSON table path.
//
// CI runs this binary once to commit a baseline and k more times per PR;
// bench/regress_check.py diffs the median of the fresh runs against the
// baseline with per-table relative tolerances and fails the job on a
// regression — so the per-gate loop, the blocked scheduler and the
// dispatch path can't silently lose their wins. Total runtime is kept to
// a couple of seconds: large enough to time above scheduler noise, small
// enough to run k+1 times in a smoke job.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "circuits/qasmbench.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/peer_sim.hpp"
#include "core/single_sim.hpp"
#include "obs/httpd.hpp"
#include "obs/memtrack.hpp"
#include "obs/progress.hpp"
#include "vqa/ansatz.hpp"
#include "vqa/batched.hpp"

namespace {

using namespace svsim;

/// Best-of-`reps` wall milliseconds for `circuit` on a fresh SingleSim
/// with the given sched_window setting (0 = classic per-gate loop).
double time_circuit(const Circuit& circuit, int sched_window, int reps,
                    obs::RunReport* out = nullptr) {
  double best = 1e300;
  SimConfig cfg;
  cfg.sched_window = sched_window;
  for (int rep = 0; rep < reps; ++rep) {
    SingleSim sim(circuit.n_qubits(), cfg);
    sim.run(circuit);
    best = std::min(best, sim.last_report().wall_seconds * 1e3);
    if (out != nullptr) *out = sim.last_report();
  }
  return best;
}

/// Best-of-`reps` wall milliseconds for `circuit` on a fresh multi-PE
/// PeerSim with wait-state attribution forced on (1) or off (0).
double time_peer(const Circuit& circuit, int workers, int waitstats,
                 int reps) {
  double best = 1e300;
  SimConfig cfg;
  cfg.waitstats = waitstats;
  for (int rep = 0; rep < reps; ++rep) {
    PeerSim sim(circuit.n_qubits(), workers, cfg);
    sim.run(circuit);
    best = std::min(best, sim.last_report().wall_seconds * 1e3);
  }
  return best;
}

/// Median of `v` (upper median for an even count).
double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

} // namespace

int main() {
  using svsim::bench::add_sched_columns;
  using svsim::bench::print_header;
  using svsim::bench::sched_values;
  namespace circuits = svsim::circuits;

  print_header("Regression smoke — small-circuit timings",
               "best-of-3 ms per circuit, per-gate loop vs blocked "
               "scheduler; the regression sentinel's workload");

  constexpr IdxType kN = 16;
  struct Bench {
    std::string name;
    Circuit circuit;
  };
  const Bench benches[] = {
      {"ghz_n16", circuits::ghz_state(kN)},
      {"qft_n16", circuits::qft(kN)},
      {"bv_n16", circuits::bernstein_vazirani(kN)},
  };

  // The blocked column pins b = 14 (four blocks): at the auto exponent a
  // 16-qubit state is one L2 block on a 2 MiB-L2 host, which runs per
  // gate, so the column would time the per-gate loop twice.
  constexpr int kBlockExp = 14;
  svsim::bench::Table t("circuit");
  t.add_column("per_gate_ms");
  t.add_column("blocked_ms");
  t.add_column("speedup");
  add_sched_columns(t);
  for (const Bench& b : benches) {
    obs::RunReport rep;
    const double per_gate = time_circuit(b.circuit, 0, 3);
    const double blocked = time_circuit(b.circuit, kBlockExp, 3, &rep);
    std::vector<double> row = {per_gate, blocked,
                               blocked > 0 ? per_gate / blocked : 0.0};
    const std::vector<double> sv = sched_values(rep);
    row.insert(row.end(), sv.begin(), sv.end());
    t.add_row(b.name, row);
  }
  t.print("%12.3f");

  // Wait-state attribution must be cheap enough to leave on by default:
  // a QFT on a 4-PE peer run with SVSIM_WAITSTATS semantics forced off
  // vs on. regress_check.py treats *overhead* columns as absolute caps
  // (--overhead-limit, default 2%), independent of the committed
  // baseline value, so growth in the instrumentation itself fails the
  // job even if both sides get uniformly slower. The register is sized
  // so one run takes ~60 ms: partition-local gates run at raw-pointer
  // speed, so on 16 qubits a 4-PE run is ~13 ms, mostly barrier wake-up
  // latency, whose jitter on a shared host swamps a 2% cap.
  constexpr IdxType kPeerN = 18;
  const Circuit qft = circuits::qft(kPeerN);
  svsim::bench::Table o("workload");
  o.add_column("obs_off_ms");
  o.add_column("obs_on_ms");
  o.add_column("overhead_pct");
  const double off_ms = time_peer(qft, 4, 0, 5);
  const double on_ms = time_peer(qft, 4, 1, 5);
  o.add_row("qft_n18_peer4",
            {off_ms, on_ms,
             off_ms > 0 ? (on_ms / off_ms - 1.0) * 100.0 : 0.0});
  o.print("%12.3f");

  // The live telemetry plane must be equally cheap: the same obs-on run
  // with the embedded HTTP endpoint serving and an idle monitor polling
  // /progress every 10 ms (what svsim_top does). The gate loops pay one
  // relaxed store + one uncontended fetch_add per gate for the progress
  // publishers, and the accept thread shares no locks with the workers —
  // the serve_overhead_pct column holds that promise to the same 2% cap.
  {
    svsim::obs::Httpd::global().start(0);
    std::atomic<bool> poll_stop{false};
    std::thread poller([&] {
      const int port = svsim::obs::Httpd::global().port();
      while (!poll_stop.load()) {
        int status = 0;
        std::string body;
        svsim::obs::http_get("127.0.0.1", port, "/progress", &status, &body);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    const double serve_ms = time_peer(qft, 4, 1, 5);
    poll_stop.store(true);
    poller.join();
    svsim::obs::Httpd::global().stop();
    svsim::obs::ProgressBoard::global().set_enabled(false);
    svsim::bench::Table s("serve_workload");
    s.add_column("obs_on_ms");
    s.add_column("serve_on_ms");
    s.add_column("serve_overhead_pct");
    s.add_row("qft_n18_peer4_serve",
              {on_ms, serve_ms,
               on_ms > 0 ? (serve_ms / on_ms - 1.0) * 100.0 : 0.0});
    s.print("%12.3f");
  }

  // The memory plane must also be free in the gate loop: registration is
  // per *allocation* and the kernel is sampled only where a reader asks
  // (a report, a scrape), so the off/on pair (MemRegistry::set_enabled —
  // the env var is read-once) lands under the same 2% absolute overhead
  // cap. The reps are interleaved off/on so slow phases of a shared
  // machine hit both sides equally — back-to-back blocks were seeing ~3%
  // pure jitter at a ~200 ms workload size.
  {
    svsim::obs::MemRegistry& reg = svsim::obs::MemRegistry::global();
    double mem_off_ms = 1e300;
    double mem_on_ms = 1e300;
    for (int rep = 0; rep < 8; ++rep) {
      reg.set_enabled(false);
      mem_off_ms = std::min(mem_off_ms, time_peer(qft, 4, 0, 1));
      reg.set_enabled(true);
      mem_on_ms = std::min(mem_on_ms, time_peer(qft, 4, 0, 1));
    }
    svsim::bench::Table m("mem_workload");
    m.add_column("memtrack_off_ms");
    m.add_column("memtrack_on_ms");
    m.add_column("memtrack_overhead_pct");
    m.add_row("qft_n18_peer4_memtrack",
              {mem_off_ms, mem_on_ms,
               mem_off_ms > 0 ? (mem_on_ms / mem_off_ms - 1.0) * 100.0 : 0.0});
    m.print("%12.3f");
  }

  // ...and free per engine: a job that builds, runs and destroys its own
  // engine (a QASM job; a VQE objective and its calls) pays any per-engine
  // cost of the plane every time, which the rows above, timing the gate
  // loop only, cannot see.
  // A block is 8 consecutive jobs (8 objective calls on the VQE row);
  // blocks alternate memtrack off/on, and each side reports its median
  // block in wall time. A per-engine cost can be a wait, which CPU time
  // does not see, and on a shared host the median is steadier than a
  // best-of.
  {
    constexpr IdxType kEngineN = 12;
    constexpr int kJobs = 8;
    constexpr int kBlocks = 40; // per side
    const Circuit rand12 = circuits::random_circuit(kEngineN, 250, 7);
    const auto single_block = [&] {
      for (int j = 0; j < kJobs; ++j) {
        SingleSim sim(kEngineN);
        sim.run(rand12);
        (void)sim.sample(1024);
      }
    };
    constexpr int kBatch = 8;
    const vqa::ParamCircuit ansatz =
        vqa::hardware_efficient_ansatz(kEngineN, 4);
    const vqa::Hamiltonian tfi = svsim::bench::tfi_hamiltonian(kEngineN);
    std::vector<std::vector<ValType>> params(kBatch);
    Rng rng(11);
    for (auto& p : params) {
      p.resize(static_cast<std::size_t>(ansatz.n_params()));
      for (ValType& v : p) v = rng.uniform(-PI, PI);
    }
    // The objective keeps its engine across calls, so the block builds
    // its own: one engine life cycle (construct, 8 calls, destroy) per
    // block, where the per-engine cost of the plane shows.
    const auto vqe_block = [&] {
      vqa::BatchObjective objective =
          vqa::energy_objective(kEngineN, ansatz, tfi, kBatch);
      for (int j = 0; j < kJobs; ++j) (void)objective(params);
    };

    svsim::obs::MemRegistry& reg = svsim::obs::MemRegistry::global();
    const auto median_pair = [&reg](const auto& block) {
      std::vector<double> off;
      std::vector<double> on;
      for (int b = 0; b < kBlocks; ++b) {
        for (const bool enabled : {false, true}) {
          reg.set_enabled(enabled);
          Timer t;
          block();
          (enabled ? on : off).push_back(t.millis());
        }
      }
      return std::pair{median(off), median(on)};
    };
    svsim::bench::Table e("engine_workload");
    e.add_column("memtrack_off_ms");
    e.add_column("memtrack_on_ms");
    e.add_column("memtrack_overhead_pct");
    const auto add = [&e](const char* label, std::pair<double, double> ms) {
      e.add_row(label, {ms.first, ms.second,
                        ms.first > 0 ? (ms.second / ms.first - 1.0) * 100.0
                                     : 0.0});
    };
    add("single12_x8_memtrack", median_pair(single_block));
    add("vqe12_x8_memtrack", median_pair(vqe_block));
    e.print("%12.3f");
  }
  return 0;
}
