// Unit tests for the common substrate: aligned buffers, RNG, config.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace svsim {
namespace {

TEST(AlignedBuffer, AllocatesAlignedAndZeroed) {
  AlignedBuffer<ValType> buf(1000);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kBufferAlign, 0u);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<ValType> a(16);
  a[3] = 7.5;
  ValType* p = a.data();
  AlignedBuffer<ValType> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[3], 7.5);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
}

TEST(AlignedBuffer, ZeroClearsContents) {
  AlignedBuffer<ValType> a(64);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 1.0;
  a.zero();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], 0.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(99);
  const auto first = a.next_u64();
  a.next_u64();
  a.reseed(99);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng r(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02); // law of large numbers
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(r.next_below(17), 17u);
}

TEST(Rng, GaussianMoments) {
  Rng r(5);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.next_gaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Config, SimdLevelNames) {
  EXPECT_STREQ(to_string(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(to_string(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(to_string(SimdLevel::kAvx512), "avx512");
}

// --- the switch resolver ---------------------------------------------------

/// An environment holding exactly `vars` (the injected lookup).
Env env_of(const std::map<std::string, std::string>& vars) {
  return Env([&vars](const char* name) -> const char* {
    const auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  });
}

TEST(Config, EveryVariableRejectsMalformedValues) {
  struct Row {
    const char* var;
    const char* forms; // part of the accepted forms the error must name
    std::vector<const char*> bad;
  };
  const std::vector<Row> rows = {
      {"SVSIM_PROFILE", "file path", {"out/", "trace\n.json"}},
      {"SVSIM_ROOFLINE", "0 or 1", {"on", "2", " 1", "1 ", "01"}},
      {"SVSIM_WAITSTATS", "0 or 1", {"yes", "-1"}},
      {"SVSIM_FLIGHT", "0 or 1", {"off", "true"}},
      {"SVSIM_SCHED", "block exponent 2..62", {"on", "-1", "63", "4x", "+4"}},
      {"SVSIM_REMAP", "0 or 1", {"auto", "-1"}},
      {"SVSIM_HEALTH", "integer >= 0", {"abc", "-1", "1.5", "9999999999"}},
      {"SVSIM_HEALTH_ABORT", "positive finite number",
       {"0", "-1e-3", "inf", "nan", "abc", "1e-3x", "0x1p3", " 1"}},
      {"SVSIM_MEM_LIMIT", "K/M/G/T",
       {"-1", "16777216T", "16777217T", "+16G", " 16G", "16Q"}},
      {"SVSIM_HTTP", "0..65535", {"yes", "65536", "-1", "80 "}},
      {"SVSIM_PROGRESS", "0 or 1", {"on"}},
      {"SVSIM_MEMTRACK", "0 or 1", {"off"}},
      {"SVSIM_PEAK_GBPS", "positive finite number", {"0", "fast", "-5"}},
      {"SVSIM_LOG_LEVEL", "error|warn|info|debug", {"verbose", "4", "WARN"}},
      {"SVSIM_LOG_TIMESTAMPS", "0 or 1", {"false", "yes"}},
      {"SVSIM_BENCH_JSON", "file path", {"dir/", "a\tb"}},
      {"SVSIM_BATCH", "integer >= 1", {"0", "-2", "8x"}},
      {"SVSIM_SERVE_LINGER_MS", "integer >= 0", {"-5", "1s"}},
  };
  ASSERT_EQ(rows.size(), 18u);
  for (const Row& row : rows) {
    for (const char* bad : row.bad) {
      const std::map<std::string, std::string> vars = {{row.var, bad}};
      // Parsing never throws (static initializers parse the process
      // environment); the malformed variable stays unset.
      std::optional<Env> env;
      ASSERT_NO_THROW(env.emplace(env_of(vars))) << row.var << "=" << bad;
      try {
        resolve(SimConfig{}, *env);
        ADD_FAILURE() << row.var << "=\"" << bad << "\" was accepted";
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::string(row.var) + "=\"" + bad + "\""),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(std::string("expected ")), std::string::npos)
            << what;
        EXPECT_NE(what.find(row.forms), std::string::npos) << what;
      }
    }
  }
}

TEST(Config, FirstMalformedVariableIsReportedAndOthersParse) {
  const Env env = env_of({{"SVSIM_SCHED", "on"},
                          {"SVSIM_HEALTH", "abc"},
                          {"SVSIM_REMAP", "1"}});
  EXPECT_NE(env.error.find("SVSIM_SCHED"), std::string::npos);
  EXPECT_FALSE(env.sched.has_value());
  EXPECT_FALSE(env.health.has_value());
  EXPECT_EQ(env.remap, true);
  EXPECT_THROW(env.check(), Error);
}

TEST(Config, WellFormedValuesResolveAsDocumented) {
  const Env env = env_of({{"SVSIM_PROFILE", "trace.json"},
                          {"SVSIM_ROOFLINE", "1"},
                          {"SVSIM_WAITSTATS", "0"},
                          {"SVSIM_FLIGHT", "0"},
                          {"SVSIM_SCHED", "12"},
                          {"SVSIM_REMAP", "1"},
                          {"SVSIM_HEALTH", "16"},
                          {"SVSIM_HEALTH_ABORT", "1e-3"},
                          {"SVSIM_MEM_LIMIT", "16GiB"},
                          {"SVSIM_HTTP", "0"},
                          {"SVSIM_PROGRESS", "1"},
                          {"SVSIM_MEMTRACK", "0"},
                          {"SVSIM_PEAK_GBPS", "204.8"},
                          {"SVSIM_LOG_LEVEL", "debug"},
                          {"SVSIM_LOG_TIMESTAMPS", "1"},
                          {"SVSIM_BENCH_JSON", "runs/bench.json"},
                          {"SVSIM_BATCH", "8"},
                          {"SVSIM_SERVE_LINGER_MS", "250"}});
  ASSERT_EQ(env.error, "");
  EXPECT_EQ(env.profile, "trace.json");
  EXPECT_EQ(env.memtrack, false);
  EXPECT_EQ(env.peak_gbps, 204.8);
  EXPECT_EQ(env.log_level, 3);
  EXPECT_EQ(env.log_timestamps, true);
  EXPECT_EQ(env.bench_json, "runs/bench.json");
  EXPECT_EQ(env.batch, 8);
  EXPECT_EQ(env.serve_linger_ms, 250);
  const RunSwitches sw = resolve(SimConfig{}, env);
  EXPECT_TRUE(sw.profile);
  EXPECT_TRUE(sw.roofline);
  EXPECT_FALSE(sw.waitstats);
  EXPECT_FALSE(sw.flight);
  EXPECT_EQ(sw.block_exp, 12);
  EXPECT_TRUE(sw.remap_on(1));
  EXPECT_EQ(sw.health.every_n, 16);
  EXPECT_EQ(sw.health.abort_drift, 1e-3);
  EXPECT_TRUE(sw.health.abort_on_nan); // an abort drift implies it
  EXPECT_EQ(sw.health.warn_drift, 1e-6);
  EXPECT_EQ(sw.mem_limit, 16ull << 30);
  EXPECT_EQ(sw.http_port, 0);
  EXPECT_TRUE(sw.progress);

  // The other documented forms, one variable at a time.
  const auto one = [](const char* var, const char* value) {
    return env_of({{var, value}});
  };
  EXPECT_EQ(resolve(SimConfig{}, one("SVSIM_SCHED", "0")).block_exp, 0);
  EXPECT_EQ(resolve(SimConfig{}, one("SVSIM_SCHED", "1")).block_exp,
            default_block_exponent());
  EXPECT_EQ(resolve(SimConfig{}, one("SVSIM_SCHED", "2")).block_exp, 2);
  EXPECT_EQ(resolve(SimConfig{}, one("SVSIM_SCHED", "62")).block_exp, 62);
  EXPECT_FALSE(resolve(SimConfig{}, one("SVSIM_REMAP", "0")).remap_on(8));
  EXPECT_TRUE(resolve(SimConfig{}, one("SVSIM_WAITSTATS", "1")).waitstats);
  EXPECT_EQ(resolve(SimConfig{}, one("SVSIM_HEALTH", "0")).health.every_n, 0);
  EXPECT_EQ(resolve(SimConfig{}, one("SVSIM_HTTP", "65535")).http_port,
            65535);
  const char* const levels[] = {"error", "warn", "info", "debug"};
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(one("SVSIM_LOG_LEVEL", levels[l]).log_level, l);
    EXPECT_EQ(one("SVSIM_LOG_LEVEL", std::to_string(l).c_str()).log_level,
              l);
  }
  const std::map<std::string, std::uint64_t> sizes = {
      {"12345", 12345},     {"4K", 4096},           {"16M", 16ull << 20},
      {"2g", 2ull << 30},   {"1T", 1ull << 40},     {"16GB", 16ull << 30},
      {"0", 0}};
  for (const auto& [text, bytes] : sizes) {
    EXPECT_EQ(one("SVSIM_MEM_LIMIT", text.c_str()).mem_limit, bytes) << text;
  }
  EXPECT_EQ(one("SVSIM_HEALTH_ABORT", ".5").health_abort, 0.5);
  // An empty value means unset.
  const Env empty = one("SVSIM_SCHED", "");
  EXPECT_EQ(empty.error, "");
  EXPECT_FALSE(empty.sched.has_value());
  // Unset everywhere: the documented defaults.
  const RunSwitches d = resolve(SimConfig{}, env_of({}));
  EXPECT_FALSE(d.profile);
  EXPECT_FALSE(d.roofline);
  EXPECT_TRUE(d.waitstats);
  EXPECT_TRUE(d.flight);
  EXPECT_EQ(d.block_exp, default_block_exponent());
  EXPECT_TRUE(d.remap_on(2));
  EXPECT_FALSE(d.remap_on(1));
  EXPECT_EQ(d.health.every_n, 0);
  EXPECT_EQ(d.mem_limit, 0u);
  EXPECT_EQ(d.http_port, -1);
  EXPECT_FALSE(d.progress);
  EXPECT_EQ(SimConfig{}.simd, max_simd_level());
  EXPECT_EQ(d.simd, max_simd_level());
}

TEST(Config, OneRuleForEverySwitch) {
  // For each per-run switch: with neither set the default applies; a
  // field left at its default takes the variable (`takes`); a field set
  // away from its default beats a variable that says otherwise (`beaten`).
  // A switch without a variable (var null) is its field alone.
  struct Case {
    const char* var;
    const char* takes;
    const char* beaten;
    void (*set)(SimConfig&); // the field away from its default
    double (*read)(const RunSwitches&);
    double want_default, want_var, want_field;
  };
  const double auto_b = static_cast<double>(default_block_exponent());
  const std::vector<Case> cases = {
      {"SVSIM_PROFILE", "t.json", "t.json",
       [](SimConfig& c) { c.profile = true; },
       [](const RunSwitches& s) { return double(s.profile); }, 0, 1, 1},
      {"SVSIM_ROOFLINE", "1", "0", [](SimConfig& c) { c.roofline = true; },
       [](const RunSwitches& s) { return double(s.roofline); }, 0, 1, 1},
      {"SVSIM_WAITSTATS", "0", "0", [](SimConfig& c) { c.waitstats = 1; },
       [](const RunSwitches& s) { return double(s.waitstats); }, 1, 0, 1},
      {"SVSIM_FLIGHT", "0", "1", [](SimConfig& c) { c.flight = false; },
       [](const RunSwitches& s) { return double(s.flight); }, 1, 0, 0},
      {"SVSIM_SCHED", "0", "0", [](SimConfig& c) { c.sched_window = 12; },
       [](const RunSwitches& s) { return double(s.block_exp); }, auto_b, 0,
       12},
      {"SVSIM_REMAP", "0", "0", [](SimConfig& c) { c.remap = 1; },
       [](const RunSwitches& s) { return double(s.remap_on(8)); }, 1, 0, 1},
      {"SVSIM_HEALTH", "16", "16",
       [](SimConfig& c) { c.health_every_n = 4; },
       [](const RunSwitches& s) { return double(s.health.every_n); }, 0, 16,
       4},
      {"SVSIM_HEALTH_ABORT", "1e-3", "1e-3",
       [](SimConfig& c) { c.health_abort_drift = 0.5; },
       [](const RunSwitches& s) { return s.health.abort_drift; }, 0, 1e-3,
       0.5},
      {"SVSIM_HEALTH_ABORT", "1e-3", "1e-3",
       [](SimConfig& c) { c.health_abort_on_nan = true; },
       [](const RunSwitches& s) { return double(s.health.abort_on_nan); }, 0,
       1, 1},
      {"SVSIM_MEM_LIMIT", "1K", "1K",
       [](SimConfig& c) { c.mem_limit = 4096; },
       [](const RunSwitches& s) { return double(s.mem_limit); }, 0, 1024,
       4096},
      {"SVSIM_HTTP", "0", "0", [](SimConfig& c) { c.http_port = 9000; },
       [](const RunSwitches& s) { return double(s.http_port); }, -1, 0, 9000},
      {"SVSIM_PROGRESS", "1", nullptr, nullptr,
       [](const RunSwitches& s) { return double(s.progress); }, 0, 1, 0},
      // The lane level: widest by default, a named level kept as given.
      {nullptr, nullptr, nullptr,
       [](SimConfig& c) { c.simd = SimdLevel::kScalar; },
       [](const RunSwitches& s) { return double(s.simd); },
       double(max_simd_level()), double(max_simd_level()),
       double(SimdLevel::kScalar)},
  };
  for (const Case& c : cases) {
    const std::string name = c.var != nullptr ? c.var : "simd";
    const auto env = [&c](const char* value) {
      return c.var != nullptr ? env_of({{c.var, value}}) : env_of({});
    };
    EXPECT_EQ(c.read(resolve(SimConfig{}, env_of({}))), c.want_default)
        << name << ": default";
    EXPECT_EQ(c.read(resolve(SimConfig{}, env(c.takes))), c.want_var)
        << name << "=" << (c.takes ? c.takes : "") << " with the field at "
        << "its default";
    if (c.set == nullptr) continue; // no SimConfig field
    SimConfig cfg;
    c.set(cfg);
    EXPECT_EQ(c.read(resolve(cfg, env(c.beaten))), c.want_field)
        << name << "=" << (c.beaten ? c.beaten : "") << " against a field "
        << "set away from its default";
  }
}

TEST(Config, ScheduleResolutionConfigWinsOverDefaults) {
  const Env none = env_of({});
  SimConfig cfg;
  cfg.sched_window = 0;
  EXPECT_EQ(resolve(cfg, none).block_exp, 0);
  cfg.sched_window = 12;
  EXPECT_EQ(resolve(cfg, none).block_exp, 12);
  cfg.sched_window = -1; // auto: on, with a sane L2-sized exponent
  const IdxType b = resolve(cfg, none).block_exp;
  EXPECT_GE(b, 8);
  EXPECT_LE(b, 20);
}

// The one-block rule: only the auto exponent, on one worker whose whole
// state fits one block, leaves the run to the per-gate loop (0).
TEST(Config, OneBlockRuleRunsPerGateOnlyAtAuto) {
  const Env none = env_of({});
  SimConfig cfg;
  const RunSwitches a = resolve(cfg, none); // auto
  const IdxType b = a.block_exp;
  EXPECT_EQ(a.block_exp_for(b, 1), 0);
  EXPECT_EQ(a.block_exp_for(6, 1), 0);
  EXPECT_EQ(a.block_exp_for(b + 1, 1), b);
  EXPECT_EQ(a.block_exp_for(b, 2), b);
  EXPECT_EQ(resolve(cfg, env_of({{"SVSIM_SCHED", "1"}})).block_exp_for(b, 1),
            0);
  cfg.sched_window = 4; // explicit: always blocks
  EXPECT_EQ(resolve(cfg, none).block_exp_for(4, 1), 4);
  EXPECT_EQ(resolve(cfg, none).block_exp_for(3, 1), 4);
  cfg.sched_window = 0; // off stays off
  EXPECT_EQ(resolve(cfg, none).block_exp_for(30, 1), 0);
}

TEST(Config, RemapConfigResolution) {
  const Env none = env_of({});
  SimConfig cfg;
  cfg.remap = 1;
  EXPECT_TRUE(resolve(cfg, none).remap_on(1));
  cfg.remap = 0;
  EXPECT_FALSE(resolve(cfg, none).remap_on(8));
}

TEST(Config, CommandLineNumbersAreStrict) {
  EXPECT_EQ(uint_arg("--shots", "64", 0, 100), 64u);
  EXPECT_EQ(uint_arg("--seed", "18446744073709551615", 0, ~0ull),
            ~0ull);
  for (const char* bad :
       {"-5", "abc", " 5", "5 ", "+5", "", "101", "99999999999999999999"}) {
    try {
      uint_arg("--shots", bad, 0, 100);
      ADD_FAILURE() << "--shots " << bad << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--shots=\"" + std::string(bad) + "\""),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("expected an integer 0..100"), std::string::npos)
          << what;
    }
  }
  EXPECT_EQ(real_arg("--tol", "1e-9"), 1e-9);
  for (const char* bad : {"0", "-1e-9", "abc", "inf", "nan", "1e-9x", ""}) {
    EXPECT_THROW(real_arg("--tol", bad), Error) << bad;
  }
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    SVSIM_CHECK(1 == 2, "context message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context message"), std::string::npos);
  }
}

} // namespace
} // namespace svsim
