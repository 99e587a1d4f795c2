// Runtime configuration: SimConfig, the SVSIM_* environment, and the one
// resolver that turns both into the switches an engine runs with.
//
// Every SVSIM_* variable is read here and nowhere else, once per process,
// by the strict parser for its value kind (Env). One precedence rule
// holds for every switch that has a SimConfig field (resolve()):
//
//   a field set away from its default wins; a field left at its default
//   takes the variable when it is set; otherwise the default applies.
//
// A malformed value is an svsim::Error naming the variable, the value and
// the accepted forms. Backend constructors raise it before their
// admission check; the command-line tools raise it first thing in main.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/types.hpp"

namespace svsim {

/// The lane level a kernel runs at: the SIMD width of its lane policy
/// (core/kernels/lanes.hpp). Scalar is the portable reference; Avx2/Avx512
/// are the architecture-specialized paths described in §3.2.1 of the
/// paper (Listing 2 shows the AVX-512 T gate).
enum class SimdLevel { kScalar, kAvx2, kAvx512 };

/// The widest lane level this build carries: its compile-time target
/// (-march=native by default), scalar under -DSVSIM_FORCE_SCALAR.
SimdLevel max_simd_level();

const char* to_string(SimdLevel level);

/// Configuration for a simulator instance. A switch field left at its
/// default takes its SVSIM_* variable when that is set (the rule above).
struct SimConfig {
  /// Lane level of SingleSim's unitary kernels, of BatchedSim's member
  /// lanes and of every backend's health scan; no variable. resolve()
  /// keeps it as given and throws when the build lacks it, so every
  /// backend constructor rejects a level above max_simd_level().
  SimdLevel simd = max_simd_level();
  /// Seed for measurement sampling.
  std::uint64_t seed = 42;
  /// Per-gate timing in the RunReport and, with a trace path, Chrome trace
  /// events (obs/trace.hpp). Variable: SVSIM_PROFILE set.
  bool profile = false;
  /// Health checkpoint (‖ψ‖², non-finite scan) every n gates, 0 = off
  /// (obs/health.hpp). Variable: SVSIM_HEALTH.
  int health_every_n = 0;
  /// Drift above this aborts the run, 0 = never. Variable:
  /// SVSIM_HEALTH_ABORT.
  double health_abort_drift = 0;
  /// Abort at the first non-finite amplitude. Variable:
  /// SVSIM_HEALTH_ABORT set.
  bool health_abort_on_nan = false;
  /// Per-gate events into the crash flight recorder (obs/flight.hpp).
  /// Variable: SVSIM_FLIGHT.
  bool flight = true;
  /// Cache-blocked gate windows (ir/schedule.hpp): -1 or 1 = auto (block
  /// exponent sized to L2; a one-worker state that fits one block runs
  /// per gate, RunSwitches::block_exp_for), 0 = off (the classic per-gate
  /// loop over the input gates, bit-for-bit: no windows and no pair
  /// fusion, core/pipeline.hpp's fuse stage), >= 2 = explicit block
  /// exponent. Variable: SVSIM_SCHED.
  int sched_window = -1;
  /// Communication-avoiding remap with virtual readout on the partitioned
  /// backends (ir/remap.hpp): -1 = auto (on for more than one PE), 0 =
  /// off, 1 = on. Variable: SVSIM_REMAP.
  int remap = -1;
  /// Roofline attribution in the run report (obs/perfmodel.hpp).
  /// Variable: SVSIM_ROOFLINE.
  bool roofline = false;
  /// Cross-PE wait-state attribution (obs/waitstate.hpp): -1 = auto (on
  /// for multi-PE backends), 0 = off, 1 = on. Variable: SVSIM_WAITSTATS.
  int waitstats = -1;
  /// Admission limit in bytes for every backend constructor
  /// (obs/capacity.hpp), 0 = none. Variable: SVSIM_MEM_LIMIT.
  std::uint64_t mem_limit = 0;
  /// Telemetry endpoint on 127.0.0.1:<port> (obs/httpd.hpp), 0 =
  /// kernel-assigned, -1 = off. Variable: SVSIM_HTTP.
  int http_port = -1;
};

// --- Parsing ---------------------------------------------------------------
// One strict parser per value kind reads every variable and every numeric
// command-line value: each matches the whole string (no sign or space
// around it, no trailing text, no overflow) and rejects anything else.

/// A byte size: digits with an optional K/M/G/T suffix, which may carry a
/// trailing "B" or "iB" ("16G", "16GiB"), or "auto" (MemAvailable now).
/// False on anything else.
bool parse_mem_limit(const std::string& text, std::uint64_t* out);

/// MemAvailable from /proc/meminfo, 0 where unreadable.
std::uint64_t mem_available_bytes();

/// Block exponent sized so one block's amplitudes (2^b × 16 bytes across
/// the real+imag arrays) fill about half the L2 cache, clamped to
/// [8, 20]. Falls back to 14 when the cache size cannot be queried.
IdxType default_block_exponent();

/// A numeric command-line value (an integer in [lo, hi], or a positive
/// finite number), or an svsim::Error naming the option, the value and
/// the accepted forms.
std::uint64_t uint_arg(const std::string& option, const char* text,
                       std::uint64_t lo, std::uint64_t hi);
double real_arg(const std::string& option, const char* text);

/// The SVSIM_* environment, parsed: one member per variable, nullopt when
/// the variable is unset or empty. Parsing never throws — a malformed
/// value stays unset and the first one is kept in `error` — so the
/// process snapshot can be built from a static initializer; check()
/// raises it where an error can be reported.
struct Env {
  /// Name → value, nullptr when unset (std::getenv's contract).
  using Lookup = std::function<const char*(const char*)>;

  explicit Env(const Lookup& lookup);

  /// The process environment, parsed on first use.
  static const Env& process();

  /// Throw the first malformed variable as svsim::Error.
  void check() const {
    if (!error.empty()) throw Error(error);
  }

  // Per-run switches (resolve() folds them into RunSwitches).
  std::optional<std::string> profile;  // SVSIM_PROFILE: trace path
  std::optional<bool> roofline;        // SVSIM_ROOFLINE
  std::optional<bool> waitstats;       // SVSIM_WAITSTATS
  std::optional<bool> flight;          // SVSIM_FLIGHT
  std::optional<int> sched;            // SVSIM_SCHED: 0, 1 or 2..62
  std::optional<bool> remap;           // SVSIM_REMAP
  std::optional<int> health;           // SVSIM_HEALTH: cadence >= 0
  std::optional<double> health_abort;  // SVSIM_HEALTH_ABORT: drift > 0
  std::optional<std::uint64_t> mem_limit; // SVSIM_MEM_LIMIT: bytes
  std::optional<int> http;             // SVSIM_HTTP: port 0..65535
  std::optional<bool> progress;        // SVSIM_PROGRESS
  // Process-wide settings, read by the plane or tool that owns them.
  std::optional<bool> memtrack;        // SVSIM_MEMTRACK
  std::optional<double> peak_gbps;     // SVSIM_PEAK_GBPS
  std::optional<std::string> bench_json; // SVSIM_BENCH_JSON
  std::optional<int> batch;            // SVSIM_BATCH: >= 1
  std::optional<int> serve_linger_ms;  // SVSIM_SERVE_LINGER_MS: >= 0

  /// The first malformed variable's message ("" when every value parsed).
  std::string error;
};

/// Options of one run's numerical-health monitor (obs::HealthMonitor).
struct HealthOptions {
  int every_n = 0;           // <= 0: monitoring off
  double warn_drift = 1e-6;  // |‖ψ‖²−1| above this logs WARN + counts
  double abort_drift = 0;    // 0 = never abort on drift
  bool abort_on_nan = false; // abort as soon as a non-finite amp appears
};

/// Every switch of one engine, resolved: plain values for the pipeline,
/// ir/ and obs/, none of which reads SimConfig's switches or the
/// environment itself.
struct RunSwitches {
  bool profile = false;
  bool roofline = false;
  bool waitstats = true; // partitioned backends only
  bool flight = true;
  IdxType block_exp = 0; // 0 = the classic per-gate loop, else b >= 2
  bool block_auto = false; // block_exp is the L2-sized auto default
  int remap = -1;        // -1 auto, 0 off, 1 on
  HealthOptions health;
  std::uint64_t mem_limit = 0; // 0 = no limit
  int http_port = -1;          // -1 = no telemetry server
  bool progress = false;       // progress publishers without a server
  SimdLevel simd = SimdLevel::kScalar; // a level this build carries

  /// Remapping for a partitioned run on `n_workers` PEs (auto: > 1 PE).
  bool remap_on(int n_workers) const {
    return remap < 0 ? n_workers > 1 : remap != 0;
  }

  /// Block exponent for a run on `n_workers` workers of 2^lg_part
  /// amplitudes each. Auto runs a lone worker whose whole state fits one
  /// block per gate (0): the state is cache-resident already, so windows
  /// would cost their preparation and save nothing. An explicit exponent
  /// always blocks, and a team keeps its windows, which also save
  /// barriers.
  IdxType block_exp_for(IdxType lg_part, int n_workers) const {
    return block_auto && n_workers == 1 && lg_part <= block_exp ? 0
                                                                : block_exp;
  }
};

/// Resolve `cfg` against `env` under the one rule. Throws env's error
/// first, so a malformed variable never runs as its default, then a lane
/// level this build lacks.
RunSwitches resolve(const SimConfig& cfg, const Env& env = Env::process());

} // namespace svsim
