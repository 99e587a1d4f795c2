#include "common/config.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/error.hpp"

namespace svsim {

SimdLevel max_simd_level() {
  // -DSVSIM_FORCE_SCALAR compiles out every SIMD kernel path (the CI
  // matrix leg proving the scalar fallbacks are complete on their own).
#if defined(__AVX512F__) && !defined(SVSIM_FORCE_SCALAR)
  return SimdLevel::kAvx512;
#elif defined(__AVX2__) && !defined(SVSIM_FORCE_SCALAR)
  return SimdLevel::kAvx2;
#else
  return SimdLevel::kScalar;
#endif
}

const char* to_string(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
  }
  return "?";
}

// --- parsers ---------------------------------------------------------------

namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();

// Accepted forms, as the errors name them.
constexpr const char* kFlag = "0 or 1";
constexpr const char* kReal = "a positive finite number (e.g. 1e-3)";
constexpr const char* kPath =
    "a file path (no control characters, not ending in '/')";

/// Leading decimal digits of `s` into *out: how many, 0 on overflow.
std::size_t read_digits(const char* s, std::uint64_t* out) {
  std::uint64_t v = 0;
  std::size_t n = 0;
  for (; std::isdigit(static_cast<unsigned char>(s[n])); ++n) {
    const auto d = static_cast<std::uint64_t>(s[n] - '0');
    if (v > (kU64Max - d) / 10) return 0;
    v = v * 10 + d;
  }
  *out = v;
  return n;
}

/// "0" or "1".
bool parse_flag(const std::string& text, bool* out) {
  if (text != "0" && text != "1") return false;
  *out = text == "1";
  return true;
}

/// Decimal digits whose value lies in [lo, hi].
bool parse_uint(const std::string& text, std::uint64_t lo, std::uint64_t hi,
                std::uint64_t* out) {
  std::uint64_t v = 0;
  if (text.empty() || read_digits(text.c_str(), &v) != text.size() ||
      v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

/// A positive finite decimal number ("0.5", "1e-3").
bool parse_real(const std::string& text, double* out) {
  // strtod alone would also take a sign, leading space, hex, inf and nan.
  if (text.empty() || std::strchr("+-eE", text[0]) != nullptr ||
      text.find_first_not_of("0123456789.eE+-") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(v) || v <= 0) {
    return false;
  }
  *out = v;
  return true;
}

/// A writable file path: no control characters, not a directory ("/").
bool parse_path(const std::string& text, std::string* out) {
  const auto control = [](unsigned char c) { return std::iscntrl(c) != 0; };
  if (text.back() == '/' || std::any_of(text.begin(), text.end(), control)) {
    return false;
  }
  *out = text;
  return true;
}

std::string invalid(const std::string& name, const std::string& value,
                    const std::string& forms) {
  return name + "=\"" + value + "\" is not valid: expected " + forms;
}

/// Reads one variable through its kind's parser, recording the first
/// malformed value instead of throwing.
struct Reader {
  const Env::Lookup& lookup;
  std::string& error;

  template <class T, class Parse>
  std::optional<T> get(const char* name, const char* forms, Parse parse) {
    const char* v = lookup(name);
    if (v == nullptr || *v == '\0') return std::nullopt;
    T out{};
    if (parse(std::string(v), &out)) return out;
    if (error.empty()) error = invalid(name, v, forms);
    return std::nullopt;
  }

  std::optional<int> integer(const char* name, const char* forms,
                             std::uint64_t lo, std::uint64_t hi) {
    return get<int>(name, forms, [=](const std::string& s, int* out) {
      std::uint64_t v = 0;
      if (!parse_uint(s, lo, hi, &v)) return false;
      *out = static_cast<int>(v);
      return true;
    });
  }
};

/// The one rule (config.hpp) for one field and its variable.
template <class T, class V>
T pick(T field, T dflt, const std::optional<V>& var) {
  if (field != dflt || !var) return field;
  return static_cast<T>(*var);
}

} // namespace

bool parse_mem_limit(const std::string& text, std::uint64_t* out) {
  if (text == "auto") {
    *out = mem_available_bytes();
    return *out != 0;
  }
  std::uint64_t v = 0;
  const std::size_t n = read_digits(text.c_str(), &v);
  if (n == 0) return false;
  const char* rest = text.c_str() + n;
  std::uint64_t mult = 1;
  if (*rest != '\0') {
    static const char kUnits[] = "KMGT";
    const char* unit =
        std::strchr(kUnits, std::toupper(static_cast<unsigned char>(*rest)));
    // One unit letter, then nothing, "B" or "iB" ("16G", "16GiB").
    if (unit == nullptr || *unit == '\0' ||
        !(rest[1] == '\0' || std::strcmp(rest + 1, "B") == 0 ||
          std::strcmp(rest + 1, "iB") == 0)) {
      return false;
    }
    mult = 1ull << (10 * (unit - kUnits + 1));
  }
  if (v > kU64Max / mult) return false;
  *out = v * mult;
  return true;
}

std::uint64_t mem_available_bytes() {
  std::FILE* f = std::fopen("/proc/meminfo", "r");
  if (f == nullptr) return 0;
  unsigned long long kb = 0;
  char line[256];
  while (kb == 0 && std::fgets(line, sizeof(line), f) != nullptr) {
    std::sscanf(line, "MemAvailable: %llu", &kb);
  }
  std::fclose(f);
  return static_cast<std::uint64_t>(kb) * 1024;
}

IdxType default_block_exponent() {
  static const IdxType b = [] {
    long l2 = 0;
#if defined(_SC_LEVEL2_CACHE_SIZE)
    l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
    if (l2 <= 0) return IdxType{14};
    // 2^b amplitudes cost 16 bytes each (8-byte real + imag); target
    // half the L2 so the window's working set survives the gate loop.
    IdxType e = 8;
    while (e < 20 && (IdxType{1} << (e + 1)) * 16 <= l2 / 2) ++e;
    return e;
  }();
  return b;
}

std::uint64_t uint_arg(const std::string& option, const char* text,
                       std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  if (parse_uint(text, lo, hi, &v)) return v;
  const std::string lo_s = std::to_string(lo);
  throw Error(invalid(option, text,
                      hi >= kIntMax ? "an integer >= " + lo_s
                                    : "an integer " + lo_s + ".." +
                                          std::to_string(hi)));
}

double real_arg(const std::string& option, const char* text) {
  double v = 0;
  if (parse_real(text, &v)) return v;
  throw Error(invalid(option, text, kReal));
}

// --- the environment -------------------------------------------------------

Env::Env(const Lookup& lookup) {
  Reader r{lookup, error};
  profile = r.get<std::string>("SVSIM_PROFILE", kPath, parse_path);
  roofline = r.get<bool>("SVSIM_ROOFLINE", kFlag, parse_flag);
  waitstats = r.get<bool>("SVSIM_WAITSTATS", kFlag, parse_flag);
  flight = r.get<bool>("SVSIM_FLIGHT", kFlag, parse_flag);
  sched = r.integer("SVSIM_SCHED",
                    "0 (off), 1 (auto) or a block exponent 2..62", 0, 62);
  remap = r.get<bool>("SVSIM_REMAP", kFlag, parse_flag);
  health = r.integer("SVSIM_HEALTH", "an integer >= 0 (0 = off)", 0, kIntMax);
  health_abort = r.get<double>("SVSIM_HEALTH_ABORT", kReal, parse_real);
  mem_limit = r.get<std::uint64_t>(
      "SVSIM_MEM_LIMIT",
      "a byte count, optionally suffixed K/M/G/T (then B or iB), or auto",
      parse_mem_limit);
  http = r.integer("SVSIM_HTTP", "a port 0..65535 (0 = ephemeral)", 0, 65535);
  progress = r.get<bool>("SVSIM_PROGRESS", kFlag, parse_flag);
  memtrack = r.get<bool>("SVSIM_MEMTRACK", kFlag, parse_flag);
  peak_gbps = r.get<double>("SVSIM_PEAK_GBPS", kReal, parse_real);
  bench_json = r.get<std::string>("SVSIM_BENCH_JSON", kPath, parse_path);
  batch = r.integer("SVSIM_BATCH", "an integer >= 1", 1, kIntMax);
  serve_linger_ms = r.integer("SVSIM_SERVE_LINGER_MS",
                              "an integer >= 0 (milliseconds)", 0, kIntMax);
}

const Env& Env::process() {
  static const Env env([](const char* name) { return std::getenv(name); });
  return env;
}

// --- the one rule ----------------------------------------------------------

RunSwitches resolve(const SimConfig& cfg, const Env& env) {
  env.check();
  if (cfg.simd > max_simd_level()) {
    throw Error(std::string("SIMD level ") + to_string(cfg.simd) +
                " is not available in this build: the widest is " +
                to_string(max_simd_level()));
  }
  const SimConfig d;
  RunSwitches sw;
  sw.simd = cfg.simd;
  sw.profile = cfg.profile || env.profile.has_value();
  sw.roofline = pick(cfg.roofline, d.roofline, env.roofline);
  const int waits = pick(cfg.waitstats, d.waitstats, env.waitstats);
  sw.waitstats = waits < 0 || waits == 1; // -1 auto: on
  sw.flight = pick(cfg.flight, d.flight, env.flight);
  const int sched = pick(cfg.sched_window, d.sched_window, env.sched);
  if (sched < 0 || sched == 1) {
    sw.block_exp = default_block_exponent();
    sw.block_auto = true;
  } else {
    sw.block_exp = sched; // 0 off, else an explicit b >= 2
  }
  sw.remap = pick(cfg.remap, d.remap, env.remap);
  sw.health.every_n = pick(cfg.health_every_n, d.health_every_n, env.health);
  sw.health.abort_drift =
      pick(cfg.health_abort_drift, d.health_abort_drift, env.health_abort);
  sw.health.abort_on_nan =
      cfg.health_abort_on_nan || env.health_abort.has_value();
  sw.mem_limit = pick(cfg.mem_limit, d.mem_limit, env.mem_limit);
  sw.http_port = pick(cfg.http_port, d.http_port, env.http);
  sw.progress = env.progress.value_or(false);
  return sw;
}

} // namespace svsim
