// qasm_runner: execute an OpenQASM 2.0 file (or a built-in Bell program)
// on any SV-Sim backend and print the outcome distribution — the
// "tractable interface to higher-level environments" path: Qiskit, Cirq,
// ProjectQ and ScaffCC all emit OpenQASM this frontend accepts.
//
//   $ ./examples/qasm_runner [file.qasm] [--backend single|peer|shmem|
//                            coarse|generalized] [--workers K] [--shots N]
//                            [--batch B] [--profile trace.json] [--report]
//                            [--report-json report.json] [--roofline]
//                            [--metrics] [--serve PORT] [--estimate]
//
// --estimate prices the run instead of executing it: the analytic
// footprint of the chosen backend/qubit-count/worker/batch combination is
// printed component by component next to the host's MemAvailable (and the
// SVSIM_MEM_LIMIT / SimConfig::mem_limit budget when one is set), with a
// fits / would-NOT-fit verdict. Exit status 0 when the run fits, 4 when
// it would not — so schedulers can gate submission without running.
//
// --batch B (or SVSIM_BATCH=B) routes the run through the SPMD batched
// engine: B independent copies of the circuit evolve in lockstep, each on
// its own RNG stream (seed + member index), and the --shots samples are
// drawn across the members (ceil(N/B) per member). Member b is bit-for-bit
// the solo run with seed+b. Ignores --backend (single-node engine). Both
// engines run the widest lanes this build carries (SimConfig::simd).
//
// --metrics dumps the process-global counter/gauge registry in
// Prometheus text exposition format on stdout after the run — scrapeable
// without parsing JSON.
//
// --serve <port> (or SVSIM_HTTP=<port>) starts the embedded telemetry
// endpoint on 127.0.0.1:<port> (0 = ephemeral; the chosen port is
// printed). While the run is live, GET /progress answers with the
// model-calibrated progress/ETA document, /metrics with the Prometheus
// registry, /healthz with the numerical-health status (503 when
// tripped), and /report with the last complete — or partial — run
// report. Set SVSIM_SERVE_LINGER_MS to keep serving that long after the
// run finishes (for scrapers that poll on an interval).
//
// --profile (or the SVSIM_PROFILE=<path> environment variable) turns on
// per-gate profiling: the run report breakdown is printed and a Chrome
// trace-event file (chrome://tracing / Perfetto) is written with one
// track per PE.
//
// --report prints the full run report (gate breakdown, comm totals,
// health line, roofline attribution, and the PE×PE traffic-matrix heatmap
// on distributed backends). --report-json <path> writes the
// machine-readable report ("svsim-report-v1"). Both enable the roofline
// tier (analytic bytes/flops + perf_event_open counters when the kernel
// allows them, model-only otherwise); --roofline asks for exactly that
// with per-gate profiling on, as a shorthand for the report path. When
// the health monitor is active (SVSIM_HEALTH) and tripped — non-finite
// amplitudes, norm-drift warnings, or an abort — the process exits with
// status 2 so CI can gate on numerical health. A malformed number on the
// command line or a malformed SVSIM_* variable exits with status 1.
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "common/bits.hpp"

#include "common/timer.hpp"
#include "obs/capacity.hpp"
#include "obs/flight.hpp"
#include "obs/httpd.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "core/coarse_msg_sim.hpp"
#include "core/generalized_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/batched_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "qasm/parser.hpp"

namespace {

const char* kBellProgram = R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
barrier q;
measure q -> c;
)";

std::unique_ptr<svsim::Simulator> make_backend(const std::string& name,
                                               svsim::IdxType n_qubits,
                                               int workers,
                                               svsim::SimConfig cfg) {
  using namespace svsim;
  if (name == "single") return std::make_unique<SingleSim>(n_qubits, cfg);
  if (name == "peer") {
    return std::make_unique<PeerSim>(n_qubits, workers, cfg);
  }
  if (name == "shmem") {
    return std::make_unique<ShmemSim>(n_qubits, workers, cfg);
  }
  if (name == "coarse") {
    return std::make_unique<CoarseMsgSim>(n_qubits, workers, cfg);
  }
  if (name == "generalized") {
    return std::make_unique<GeneralizedSim>(n_qubits, cfg);
  }
  throw Error("unknown backend: " + name +
              " (expected single|peer|shmem|coarse|generalized)");
}

} // namespace

int main(int argc, char** argv) {
  using namespace svsim;

  try {
    const Env& env = Env::process();
    env.check();
    constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
    constexpr std::uint64_t kMaxIdx = std::numeric_limits<IdxType>::max();
    std::string file;
    std::string backend = "single";
    int workers = 4;
    IdxType shots = 1024;
    IdxType batch = env.batch.value_or(1);
    bool want_report = false;
    bool want_metrics = false;
    bool want_estimate = false;
    std::string report_json_path;
    SimConfig cfg;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--backend" && i + 1 < argc) {
        backend = argv[++i];
      } else if (arg == "--workers" && i + 1 < argc) {
        workers = static_cast<int>(uint_arg(arg, argv[++i], 1, kMaxInt));
      } else if (arg == "--shots" && i + 1 < argc) {
        shots = static_cast<IdxType>(uint_arg(arg, argv[++i], 0, kMaxIdx));
      } else if (arg == "--batch" && i + 1 < argc) {
        batch = static_cast<IdxType>(uint_arg(arg, argv[++i], 1, kMaxIdx));
      } else if (arg == "--profile" && i + 1 < argc) {
        cfg.profile = true;
        obs::Trace::global().set_path(argv[++i]);
      } else if (arg == "--report") {
        want_report = true;
      } else if (arg == "--metrics") {
        want_metrics = true;
      } else if (arg == "--estimate") {
        want_estimate = true;
      } else if (arg == "--report-json" && i + 1 < argc) {
        report_json_path = argv[++i];
      } else if (arg == "--serve" && i + 1 < argc) {
        cfg.http_port = static_cast<int>(uint_arg(arg, argv[++i], 0, 65535));
      } else if (arg == "--roofline") {
        // Alias into the report path: roofline attribution plus per-gate
        // profiling (the worst-attainment table needs per-op seconds).
        want_report = true;
        cfg.profile = true;
      } else {
        file = arg;
      }
    }
    // The report paths always carry the roofline section; it is cheap
    // (analytic model + four counter fds) and degrades to model-only
    // where perf_event_open is denied.
    if (want_report || !report_json_path.empty()) cfg.roofline = true;
    const RunSwitches sw = resolve(cfg);

    // Start the telemetry endpoint before the run so a monitor can attach
    // from t=0 and so the resolved port is printed even for --serve 0.
    // The backend would start it lazily anyway; doing it here only moves
    // the bind earlier.
    if (obs::maybe_start_httpd(sw.http_port, sw.progress) &&
        obs::Httpd::global().running()) {
      std::printf("serving telemetry on http://127.0.0.1:%d "
                  "(/metrics /healthz /progress /report)\n",
                  obs::Httpd::global().port());
    }
    // A SIGINT/SIGTERM flush should land next to the report the user
    // asked for, not on stderr.
    if (!report_json_path.empty()) {
      obs::set_interrupt_report_path((report_json_path + ".partial").c_str());
    }

    const Circuit circuit = file.empty()
                                ? qasm::parse_qasm(kBellProgram)
                                : qasm::parse_qasm_file(file);
    std::printf("parsed %s: %lld qubits, %lld gates (%lld CX)\n",
                file.empty() ? "<built-in bell>" : file.c_str(),
                static_cast<long long>(circuit.n_qubits()),
                static_cast<long long>(circuit.n_gates()),
                static_cast<long long>(circuit.cx_count()));

    if (want_estimate) {
      // Price the run without executing it. The same estimator backs the
      // admission check inside the backends and the estimate-vs-measured
      // comparison in the run report.
      obs::FootprintQuery q;
      q.backend = batch > 1 ? "batched" : backend;
      q.n_qubits = circuit.n_qubits();
      q.workers = workers;
      q.batch = batch;
      q.gates = circuit.n_gates();
      const obs::FootprintEstimate est =
          obs::estimate_footprint(q, sw.mem_limit);
      std::printf("%s", est.table().c_str());
      return est.fits ? 0 : 4;
    }

    std::unique_ptr<Simulator> sim;
    std::unique_ptr<BatchedSim> bsim;
    if (batch > 1) {
      bsim = std::make_unique<BatchedSim>(circuit.n_qubits(), batch, cfg);
    } else {
      sim = make_backend(backend, circuit.n_qubits(), workers, cfg);
    }
    Timer timer;
    if (bsim) {
      bsim->run(circuit);
    } else {
      sim->run(circuit);
    }
    const double ms = timer.millis();
    if (bsim) {
      std::printf("backend %s: executed %lld members in %.3f ms (%s lanes)\n",
                  bsim->name(), static_cast<long long>(batch), ms,
                  to_string(bsim->simd_level()));
    } else {
      std::printf("backend %s: executed in %.3f ms\n", sim->name(), ms);
    }

    // Snapshot now: sample() below runs a measure-all circuit, which
    // resets last_report() (every run() starts a fresh report).
    const obs::RunReport report = bsim ? bsim->last_report()
                                       : sim->last_report();

    if (report.profiled || want_report) {
      std::printf("%s", report.summary().c_str());
      if (obs::Trace::global().enabled()) {
        std::printf("trace: %s (load in chrome://tracing or ui.perfetto.dev)\n",
                    obs::Trace::global().path().c_str());
      }
    }
    if (want_report && !report.matrix.empty()) {
      std::printf("%s", report.matrix.table().c_str());
    }
    if (!report_json_path.empty()) {
      std::ofstream out(report_json_path);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     report_json_path.c_str());
        return 1;
      }
      out << obs::to_json(report) << '\n';
      std::printf("report: %s\n", report_json_path.c_str());
    }

    // Classical register from in-circuit measurements, if any. Batched
    // members diverge on their own RNG streams, so each gets its own row.
    if (circuit.count_op(OP::M) > 0) {
      if (bsim) {
        for (IdxType b = 0; b < batch; ++b) {
          std::printf("classical bits member %lld (c[k], k ascending): ",
                      static_cast<long long>(b));
          for (const IdxType v : bsim->member_cbits(b)) {
            std::printf("%lld", static_cast<long long>(v));
          }
          std::printf("\n");
        }
      } else {
        std::printf("classical bits (c[k], k ascending): ");
        for (const IdxType b : sim->cbits()) std::printf("%lld", static_cast<long long>(b));
        std::printf("\n");
      }
    }

    std::printf("sampling %lld shots%s:\n", static_cast<long long>(shots),
                bsim ? " (spread across batch members)" : "");
    std::map<IdxType, int> hist;
    const std::vector<IdxType> samples =
        bsim ? bsim->sample(shots) : sim->sample(shots);
    for (const IdxType s : samples) ++hist[s];
    int shown = 0;
    for (const auto& [outcome, count] : hist) {
      std::string label;
      for (IdxType q = circuit.n_qubits(); q-- > 0;) {
        label += qubit_set(outcome, q) ? '1' : '0';
      }
      std::printf("  %s : %6d  (%5.2f%%)\n", label.c_str(), count,
                  100.0 * count / static_cast<double>(shots));
      if (++shown >= 16) {
        std::printf("  ... (%zu more outcomes)\n", hist.size() - 16);
        break;
      }
    }

    if (want_metrics) {
      std::printf("--- metrics (prometheus text format) ---\n%s",
                  obs::Registry::global().write_prom().c_str());
    }

    // Keep answering scrapes briefly after the run when asked to: a
    // poller on an interval would otherwise miss the final state of a
    // short run entirely.
    if (obs::Httpd::global().running()) {
      const int linger_ms = env.serve_linger_ms.value_or(0);
      if (linger_ms > 0) {
        std::printf("serving for %d ms more (SVSIM_SERVE_LINGER_MS)\n",
                    linger_ms);
        Timer linger_timer;
        while (linger_timer.millis() < linger_ms) {
          // Sleep in small slices so Ctrl-C stays responsive.
          struct timespec ts{0, 50 * 1000 * 1000};
          nanosleep(&ts, nullptr);
        }
      }
      obs::Httpd::global().stop();
    }

    if (report.health.enabled && report.health.tripped()) {
      std::fprintf(stderr,
                   "health: monitor tripped (nan checks %llu, warns %llu%s) "
                   "-- exiting 2\n",
                   static_cast<unsigned long long>(report.health.nan_checks),
                   static_cast<unsigned long long>(report.health.warns),
                   report.health.aborted ? ", aborted" : "");
      return 2;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
