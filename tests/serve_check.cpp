// serve_check: end-to-end smoke of the live telemetry plane (registered
// as the `serve_smoke` ctest).
//
// Phase A — a 4-PE shmem QFT-21 repeated to run ~1.5 s is watched
// through real loopback HTTP while it executes: every /progress body
// must be valid svsim-progress-v1 JSON, the bytes-weighted fraction must
// be non-decreasing, and the model-calibrated eta_s at the halfway
// sample must land within 25% of the actually-remaining wall time (plus
// a small absolute cushion for poll quantization). After the run the
// final document must pin fraction 1 / eta 0, and /report must serve the
// finished svsim-report-v1.
//
// Mid-run, GET /memory must serve a valid svsim-memory-v1 document with
// the plane enabled, live tracked bytes, and one per-PE row per shmem
// arena — the live leg of the memory observability plane.
//
// Phase B — a NaN-poisoned run under the health monitor must flip
// /healthz from 200 "ok" to 503 "tripped".
//
// Phase C (optional, --top <path>) — the svsim_top CLI is spawned in
// --once mode against the live endpoint and must exit 0.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "circuits/qasmbench.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "core/state_vector.hpp"
#include "ir/circuit.hpp"
#include "obs/httpd.hpp"
#include "obs/jsonlite.hpp"
#include "obs/progress.hpp"

namespace {

using svsim::obs::jsonlite::Value;

#define CHECK(cond, ...)                                               \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "serve_check FAIL (%s:%d): ", __FILE__,     \
                   __LINE__);                                          \
      std::fprintf(stderr, __VA_ARGS__);                               \
      std::fprintf(stderr, "\n");                                      \
      std::exit(1);                                                    \
    }                                                                  \
  } while (0)

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Sample {
  double t = 0;        // poll time (steady clock)
  double fraction = 0;
  bool eta_known = false;
  double eta_s = 0;
};

bool get_json(int port, const std::string& path, int* status, Value* doc) {
  std::string body;
  if (!svsim::obs::http_get("127.0.0.1", port, path, status, &body)) {
    return false;
  }
  CHECK(svsim::obs::jsonlite::parse(body, doc),
        "%s returned malformed JSON: %s", path.c_str(), body.c_str());
  return true;
}

} // namespace

int main(int argc, char** argv) {
  using namespace svsim;

  std::string top_path;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--top" && i + 1 < argc) {
      top_path = argv[++i];
    } else if (std::string(argv[i]) == "--verbose") {
      verbose = true;
    }
  }

  // Bring the endpoint up first so the whole run is observable.
  CHECK(obs::maybe_start_httpd(0, false),
        "telemetry endpoint failed to start");
  CHECK(obs::Httpd::global().running(), "server not running");
  const int port = obs::Httpd::global().port();
  CHECK(port > 0, "no bound port");
  std::printf("serve_check: endpoint on 127.0.0.1:%d\n", port);

  // ---- Phase A: progress/ETA on a 4-PE shmem QFT -----------------------
  // The ETA prices each gate by its modeled bytes (DESIGN §9), which
  // tracks wall time only where the price per byte is uniform, so the
  // check is made where the pricing's two known biases cancel. The
  // watched run disables the blocked scheduler (sched_window = 0), so
  // every gate goes through the classic per-gate loop and publishing is
  // per-gate smooth. (With blocking on, a cache-resident state makes the
  // blocked sweep compute-bound, so its one-sweep byte price under-states
  // its wall share.) Inside one QFT the time per modeled byte is not
  // uniform either: every gate is priced by its touched amplitudes, but
  // the gates differ in arithmetic and in how much of their time is
  // barrier wait. So the circuit repeats one QFT an even number of times
  // (>= 2): the halfway sample falls on a QFT boundary, the remaining gate
  // mix equals the completed mix, and the achieved-GB/s calibration is
  // exact by symmetry. What the assertion then validates is the live
  // plumbing (fresh snapshots, correct prefix bookkeeping, sane clocks),
  // not the pricing.
  //
  // 21 qubits keep each gate's compute well above one barrier's latency.
  // Every gate, the ones on a partition qubit included, runs at the lane
  // level on the raw partitions, so on a smaller register a 4-PE gate is
  // largely barrier wait, and barrier wake-up latency on a shared host
  // switches between a slow and a fast mode (measured on a 4-vCPU host:
  // QFT-17 at 230-260 ms with 75% of the time waiting, then 95 ms with
  // 17-26%; QFT-19 at 82-100 ms with 32-42%). A switch between the
  // warm-up and the watched run, or inside the run, breaks the symmetry
  // the ETA check relies on: QFT-19 failed it in 2 of 21 runs. QFT-21
  // measured 358-370 ms with 9-12% waiting there.
  constexpr IdxType kQubits = 21;
  SimConfig serve_cfg;
  serve_cfg.sched_window = 0;
  // The sampler keys on the submitted circuit's exact gate count; remap
  // inserts swaps, so pin it off for this telemetry-focused run.
  serve_cfg.remap = 0;
  const Circuit one_qft = circuits::qft(kQubits);

  // Size the circuit to the machine (and sanitizer level) at hand: time
  // one QFT until three consecutive timings agree within 20%, then repeat
  // it to a ~1.5 s target so the poller gets a meaningful sample train.
  // The settling matters right after a CPU-heavy process: for a second or
  // so the barrier-per-gate run can go 3-4x slower, and a watched run
  // that starts inside that window is slow in its first half only, which
  // breaks the symmetry the ETA check relies on.
  double warmup_ms = 0;
  int warmup_runs = 0;
  {
    ShmemSim warm(kQubits, 4, serve_cfg);
    double last_ms[3] = {0, 0, 0};
    while (warmup_runs < 12) {
      const double t0 = now_s();
      warm.run(one_qft);
      warmup_ms = (now_s() - t0) * 1e3;
      last_ms[warmup_runs++ % 3] = warmup_ms;
      const auto [lo, hi] = std::minmax({last_ms[0], last_ms[1], last_ms[2]});
      if (warmup_runs >= 3 && hi <= 1.2 * lo) break;
    }
  }
  if (warmup_ms < 0.5) warmup_ms = 0.5;
  int repeats = static_cast<int>(1500.0 / warmup_ms);
  if (repeats < 2) repeats = 2;
  if (repeats > 400) repeats = 400;
  repeats += repeats % 2;
  Circuit big(kQubits);
  for (int r = 0; r < repeats; ++r) big.append(one_qft);
  const auto expect_gates = static_cast<std::uint64_t>(big.n_gates());
  std::printf(
      "serve_check: warmup %.1f ms (run %d) -> %d repeats, %llu gates\n",
      warmup_ms, warmup_runs, repeats,
      static_cast<unsigned long long>(expect_gates));

  std::atomic<bool> run_done{false};
  std::atomic<double> run_end{0};
  std::thread runner([&] {
    ShmemSim sim(kQubits, 4, serve_cfg);
    sim.run(big);
    run_end.store(now_s());
    run_done.store(true);
  });

  std::vector<Sample> samples;
  bool memory_checked = false;
  while (!run_done.load()) {
    // One mid-run /memory probe: the shmem arenas must be live and
    // attributed per PE while the run executes.
    if (!memory_checked && !samples.empty()) {
      int mstatus = 0;
      Value mdoc;
      if (get_json(port, "/memory", &mstatus, &mdoc)) {
        CHECK(mstatus == 200, "/memory status %d", mstatus);
        CHECK(mdoc.member_str("schema", "") == "svsim-memory-v1",
              "/memory lacks the svsim-memory-v1 schema");
        CHECK(mdoc.find("enabled")->bool_or(false),
              "/memory plane not enabled");
        CHECK(mdoc.member_num("tracked_bytes", 0) > 0,
              "/memory tracks no live bytes mid-run");
        const Value* per_pe = mdoc.find("per_pe");
        CHECK(per_pe != nullptr && per_pe->is_array() &&
                  per_pe->items.size() >= 4,
              "/memory has no per-PE rows for the 4 shmem arenas");
        memory_checked = true;
      }
    }
    int status = 0;
    Value doc;
    if (get_json(port, "/progress", &status, &doc)) {
      CHECK(status == 200, "/progress status %d", status);
      const bool active = doc.find("active") != nullptr &&
                          doc.find("active")->bool_or(false);
      const auto total =
          static_cast<std::uint64_t>(doc.member_num("total_gates", 0));
      // Only the watched run counts; the warmup's finished snapshot (or
      // the brief pre-begin_run gap) is skipped.
      if (active && total == expect_gates) {
        Sample s;
        s.t = now_s();
        s.fraction = doc.member_num("fraction", -1);
        const Value* eta = doc.find("eta_s");
        s.eta_known = eta != nullptr && eta->type == Value::Type::kNumber;
        s.eta_s = s.eta_known ? eta->number : 0;
        CHECK(s.fraction >= 0 && s.fraction <= 1.0, "fraction %f out of range",
              s.fraction);
        if (!samples.empty()) {
          CHECK(s.fraction >= samples.back().fraction - 1e-12,
                "fraction regressed: %.6f -> %.6f", samples.back().fraction,
                s.fraction);
        }
        if (verbose) {
          std::printf("  sample t=%.3f gates=%.0f frac=%.4f eta=%.3f\n",
                      s.t, doc.member_num("gates_done", -1), s.fraction,
                      s.eta_s);
        }
        samples.push_back(s);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  runner.join();
  const double t_end = run_end.load();

  std::printf("serve_check: %zu live samples\n", samples.size());
  CHECK(samples.size() >= 5, "too few live samples (%zu) — run too fast?",
        samples.size());

  // ETA accuracy at (nearest-to-) halfway: the model-calibrated estimate
  // must be within 25% of the wall time that actually remained.
  const Sample* half = nullptr;
  for (const Sample& s : samples) {
    if (s.fraction < 0.25 || s.fraction > 0.97 || !s.eta_known) continue;
    if (half == nullptr ||
        std::abs(s.fraction - 0.5) < std::abs(half->fraction - 0.5)) {
      half = &s;
    }
  }
  CHECK(half != nullptr, "no usable mid-run sample");
  const double remaining = t_end - half->t;
  CHECK(remaining > 0, "halfway sample after run end?");
  const double tol = 0.25 * remaining + 0.2;
  std::printf(
      "serve_check: at fraction %.2f eta=%.3fs actual-remaining=%.3fs "
      "(tol %.3fs)\n",
      half->fraction, half->eta_s, remaining, tol);
  CHECK(std::abs(half->eta_s - remaining) <= tol,
        "ETA off: predicted %.3fs, actual %.3fs (tol %.3fs)", half->eta_s,
        remaining, tol);

  // Convergence: the last live estimate must not exceed the mid-run one
  // by more than noise, and the final document pins fraction 1 / eta 0.
  const Sample& last = samples.back();
  if (last.eta_known && last.fraction > half->fraction) {
    CHECK(last.eta_s <= half->eta_s + 0.25,
          "ETA diverged: %.3fs at fraction %.2f vs %.3fs at %.2f",
          last.eta_s, last.fraction, half->eta_s, half->fraction);
  }
  {
    int status = 0;
    Value doc;
    CHECK(get_json(port, "/progress", &status, &doc) && status == 200,
          "final /progress failed");
    CHECK(!doc.find("active")->bool_or(true), "run still active");
    CHECK(doc.member_num("fraction", 0) == 1.0, "final fraction != 1");
    CHECK(doc.member_num("eta_s", -1) == 0.0, "final eta != 0");
    CHECK(static_cast<std::uint64_t>(doc.member_num("gates_done", 0)) ==
              expect_gates,
          "final gates_done mismatch");
  }
  {
    int status = 0;
    Value doc;
    CHECK(get_json(port, "/report", &status, &doc) && status == 200,
          "/report failed");
    CHECK(doc.member_str("schema", "") == "svsim-report-v1",
          "/report is not a finished report");
  }
  {
    int status = 0;
    std::string body;
    CHECK(obs::http_get("127.0.0.1", port, "/metrics", &status, &body) &&
              status == 200,
          "/metrics failed");
    CHECK(body.find("# TYPE ") != std::string::npos, "no TYPE lines");
  }
  CHECK(memory_checked, "never validated /memory mid-run");
  std::printf("serve_check: phase A (progress/ETA/memory) ok\n");

  // ---- Phase B: /healthz flips 503 on injected NaN ---------------------
  SimConfig health_cfg;
  health_cfg.health_every_n = 1;
  {
    int status = 0;
    Value doc;
    SingleSim sim(8, health_cfg);
    Circuit ghz(8);
    ghz.h(0);
    for (IdxType q = 0; q + 1 < 8; ++q) ghz.cx(q, q + 1);
    sim.run(ghz);
    CHECK(get_json(port, "/healthz", &status, &doc), "/healthz failed");
    CHECK(status == 200, "healthy run served %d", status);
    CHECK(doc.member_str("status", "") == "ok", "expected ok");

    SingleSim bad(8, health_cfg);
    StateVector sv(8);
    sv.amps[0] = Complex{1.0, 0.0};
    sv.amps[3] = Complex{std::numeric_limits<ValType>::quiet_NaN(), 0.0};
    bad.load_state(sv);
    bad.run(ghz);
    CHECK(get_json(port, "/healthz", &status, &doc), "/healthz failed");
    CHECK(status == 503, "NaN run served %d, want 503", status);
    CHECK(doc.member_str("status", "") == "tripped", "expected tripped");
  }
  std::printf("serve_check: phase B (healthz 503) ok\n");

  // ---- Phase C: svsim_top --once against the live endpoint -------------
  if (!top_path.empty()) {
    const std::string cmd =
        top_path + " --port " + std::to_string(port) + " --once";
    const int rc = std::system(cmd.c_str());
    CHECK(rc == 0, "`%s` exited %d", cmd.c_str(), rc);
    std::printf("serve_check: phase C (svsim_top) ok\n");
  }

  obs::Httpd::global().stop();
  std::printf("serve_check: all phases passed\n");
  return 0;
}
