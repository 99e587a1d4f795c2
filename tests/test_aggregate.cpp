// Cross-PE wait-state aggregation and the run-ledger: hand-built per-PE
// timelines with a known critical path and imbalance, breakdown identities,
// degenerate team shapes, ledger line round-trips, and an end-to-end check
// that a real multi-PE run's breakdown sums to its wall-clock.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "circuits/qasmbench.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "obs/aggregate.hpp"
#include "obs/jsonlite.hpp"
#include "obs/report.hpp"

namespace {

using namespace svsim;
using obs::PeTimeline;
using obs::WaitKind;
using obs::WaitProfile;
using obs::WaitSpan;
namespace ledger = obs::ledger;

/// Two PEs, two barrier phases with known bounds:
///   phase 0: PE0 computes 10us then waits; PE1 arrives at 30us ("cx").
///   phase 1: PE1 computes 20us then waits; PE0 arrives 50us later ("u1").
/// So phase 0 is bounded by PE1/cx (30us), phase 1 by PE0/u1 (50us).
std::vector<PeTimeline> two_pe_fixture() {
  PeTimeline pe0;
  pe0.t0_us = 0;
  pe0.t1_us = 100;
  pe0.spans = {{10, 30, WaitKind::kBarrier, "h"},
               {80, 90, WaitKind::kBarrier, "u1"}};
  pe0.wait_seconds[0] = 30e-6; // (30-10) + (90-80)
  pe0.wait_count[0] = 2;

  PeTimeline pe1;
  pe1.t0_us = 0;
  pe1.t1_us = 100;
  pe1.spans = {{30, 30, WaitKind::kBarrier, "cx"},
               {50, 90, WaitKind::kBarrier, "u1"}};
  pe1.wait_seconds[0] = 40e-6; // 0 + (90-50)
  pe1.wait_count[0] = 2;
  return {pe0, pe1};
}

TEST(Aggregate, BreakdownSumsToWallExactly) {
  const WaitProfile p = obs::aggregate_timelines(two_pe_fixture());
  ASSERT_TRUE(p.enabled);
  ASSERT_EQ(p.per_pe.size(), 2u);
  for (const WaitProfile::PerPe& pe : p.per_pe) {
    EXPECT_NEAR(pe.compute_s + pe.wait_s(), pe.wall_s, 1e-12);
    EXPECT_NEAR(pe.wall_s, 100e-6, 1e-12);
  }
  EXPECT_NEAR(p.per_pe[0].compute_s, 70e-6, 1e-12);
  EXPECT_NEAR(p.per_pe[1].compute_s, 60e-6, 1e-12);
  EXPECT_EQ(p.per_pe[0].barrier_n, 2u);
}

TEST(Aggregate, ImbalanceAndStraggler) {
  const WaitProfile p = obs::aggregate_timelines(two_pe_fixture());
  // max/avg compute = 70 / 65.
  EXPECT_NEAR(p.imbalance, 70.0 / 65.0, 1e-9);
  EXPECT_EQ(p.straggler, 0);
  // total wait / total busy = 70us / 200us.
  EXPECT_NEAR(p.wait_fraction, 70.0 / 200.0, 1e-9);
  EXPECT_FALSE(p.truncated);
}

TEST(Aggregate, CriticalPathNamesBoundingPeAndPhase) {
  const WaitProfile p = obs::aggregate_timelines(two_pe_fixture());
  // Phase 0 bounded by PE1 arriving at 30us with label "cx"; phase 1 by
  // PE0 computing 80-30=50us with label "u1". PE0 bounds more wall-clock.
  EXPECT_EQ(p.critical_pe, 0);
  EXPECT_EQ(p.critical_phase, "u1");
  EXPECT_NEAR(p.critical_s, 80e-6, 1e-12);
  ASSERT_EQ(p.critical.size(), 2u);
  EXPECT_EQ(p.critical[0].pe, 0);
  EXPECT_EQ(p.critical[0].phase, "u1");
  EXPECT_NEAR(p.critical[0].seconds, 50e-6, 1e-12);
  EXPECT_EQ(p.critical[0].phases, 1u);
  EXPECT_EQ(p.critical[1].pe, 1);
  EXPECT_EQ(p.critical[1].phase, "cx");
  EXPECT_NEAR(p.critical[1].seconds, 30e-6, 1e-12);
}

TEST(Aggregate, ClockOffsetsAlignForeignEpochs) {
  // Same run, but PE1's clock started 1000us later: identical result once
  // the offset is applied.
  std::vector<PeTimeline> pes = two_pe_fixture();
  pes[1].t0_us += 1000;
  pes[1].t1_us += 1000;
  for (WaitSpan& s : pes[1].spans) {
    s.t0_us += 1000;
    s.t1_us += 1000;
  }
  pes[1].clock_offset_us = -1000;
  const WaitProfile p = obs::aggregate_timelines(std::move(pes));
  EXPECT_EQ(p.critical_pe, 0);
  EXPECT_EQ(p.critical_phase, "u1");
  EXPECT_NEAR(p.critical_s, 80e-6, 1e-12);
}

TEST(Aggregate, DegenerateShapes) {
  // Empty team: profile disabled.
  EXPECT_FALSE(obs::aggregate_timelines({}).enabled);

  // One PE, no barriers: all compute, imbalance 1, no critical path.
  PeTimeline solo;
  solo.t0_us = 0;
  solo.t1_us = 50;
  const WaitProfile p = obs::aggregate_timelines({solo});
  ASSERT_TRUE(p.enabled);
  ASSERT_EQ(p.per_pe.size(), 1u);
  EXPECT_NEAR(p.per_pe[0].compute_s, 50e-6, 1e-12);
  EXPECT_NEAR(p.imbalance, 1.0, 1e-12);
  EXPECT_EQ(p.straggler, 0);
  EXPECT_TRUE(p.critical.empty());
  EXPECT_EQ(p.critical_pe, -1);

  // Waits exceeding the busy window clamp compute at zero (skewed clocks
  // must not produce negative compute).
  PeTimeline skew;
  skew.t0_us = 0;
  skew.t1_us = 10;
  skew.wait_seconds[0] = 50e-6;
  const WaitProfile q = obs::aggregate_timelines({skew});
  EXPECT_DOUBLE_EQ(q.per_pe[0].compute_s, 0.0);
}

TEST(Aggregate, TableShowsEveryPe) {
  const WaitProfile p = obs::aggregate_timelines(two_pe_fixture());
  const std::string t = p.table();
  EXPECT_NE(t.find("wait-state per PE"), std::string::npos);
  EXPECT_NE(t.find("\n    0 "), std::string::npos);
  EXPECT_NE(t.find("\n    1 "), std::string::npos);
  EXPECT_NE(t.find('#'), std::string::npos); // heat bar
}

TEST(Ledger, LineRoundTrip) {
  ledger::Entry e;
  e.circuit_hash = "00c0ffee00c0ffee";
  e.backend = "shmem";
  e.n_qubits = 16;
  e.n_workers = 4;
  e.total_gates = 321;
  e.cpu = "Test CPU \"9000\"";
  e.unix_time = 1754600000;
  e.wall_seconds = 0.125;
  e.compute_s = 0.3;
  e.wait_s = 0.2;
  e.imbalance = 1.25;
  e.critical = "PE 2 / cx";
  e.remote_bytes = 4096;
  e.peak_rss_bytes = 7 << 20;
  e.tracked_peak_bytes = 1 << 20;
  e.est_err_pct = -3.5;
  e.rekey();
  EXPECT_EQ(e.key.rfind("00c0ffee00c0ffee:shmem:w4:", 0), 0u);

  ledger::Entry back;
  std::string err;
  ASSERT_TRUE(ledger::parse_line(e.line(), &back, &err)) << err;
  EXPECT_EQ(back.key, e.key);
  EXPECT_EQ(back.circuit_hash, e.circuit_hash);
  EXPECT_EQ(back.backend, e.backend);
  EXPECT_EQ(back.n_qubits, e.n_qubits);
  EXPECT_EQ(back.n_workers, e.n_workers);
  EXPECT_EQ(back.total_gates, e.total_gates);
  EXPECT_EQ(back.cpu, e.cpu);
  EXPECT_EQ(back.unix_time, e.unix_time);
  EXPECT_DOUBLE_EQ(back.wall_seconds, e.wall_seconds);
  EXPECT_DOUBLE_EQ(back.compute_s, e.compute_s);
  EXPECT_DOUBLE_EQ(back.wait_s, e.wait_s);
  EXPECT_DOUBLE_EQ(back.imbalance, e.imbalance);
  EXPECT_EQ(back.critical, e.critical);
  EXPECT_EQ(back.remote_bytes, e.remote_bytes);
  EXPECT_EQ(back.peak_rss_bytes, e.peak_rss_bytes);
  EXPECT_EQ(back.tracked_peak_bytes, e.tracked_peak_bytes);
  EXPECT_DOUBLE_EQ(back.est_err_pct, e.est_err_pct);
}

TEST(Ledger, RejectsCorruptLines) {
  ledger::Entry e;
  std::string err;
  EXPECT_FALSE(ledger::parse_line("not json at all", &e, &err));
  EXPECT_NE(err.find("invalid JSON"), std::string::npos);
  EXPECT_FALSE(ledger::parse_line("{\"schema\":\"other-v9\"}", &e, &err));
  EXPECT_NE(err.find("svsim-ledger-v1"), std::string::npos);
  EXPECT_FALSE(ledger::parse_line(
      "{\"schema\":\"svsim-ledger-v1\",\"key\":\"k\"}", &e, &err));
  // A wall time that overflows to infinity is as unreadable as a missing one.
  EXPECT_FALSE(ledger::parse_line(
      "{\"schema\":\"svsim-ledger-v1\",\"key\":\"k\",\"backend\":\"peer\","
      "\"wall_seconds\":1e999}",
      &e, &err));
}

TEST(Ledger, CompareGroupsByKeyInTimeOrder) {
  ledger::Entry a;
  a.circuit_hash = "aa";
  a.backend = "peer";
  a.n_workers = 4;
  a.cpu = "cpu0";
  a.unix_time = 200;
  a.wall_seconds = 0.2;
  a.critical = "PE 1 / h";
  a.rekey();
  ledger::Entry b = a;
  b.unix_time = 100;
  b.wall_seconds = 0.1;
  const std::string out = ledger::compare({a, b});
  // Two runs of one key, oldest first, with a delta vs the previous run.
  EXPECT_NE(out.find(a.key), std::string::npos);
  const std::size_t first = out.find("run");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(out.find("+100.0%"), std::string::npos); // 0.1s -> 0.2s
  EXPECT_NE(out.find("PE 1 / h"), std::string::npos);
}

TEST(Ledger, EntryFromReportReadsWaitstate) {
  const std::string doc = R"({
    "schema": "svsim-report-v1",
    "backend": "shmem",
    "n_qubits": 8,
    "n_workers": 4,
    "total_gates": 21,
    "wall_seconds": 0.5,
    "circuit_hash": "1234567812345678",
    "cpu": "Test CPU",
    "waitstate": {
      "enabled": true,
      "per_pe": [
        {"compute_s": 0.1, "barrier_s": 0.05, "reduction_s": 0.0,
         "transfer_s": 0.05, "wait_s": 0.1},
        {"compute_s": 0.2, "barrier_s": 0.1, "reduction_s": 0.0,
         "transfer_s": 0.0, "wait_s": 0.1}
      ],
      "imbalance": 1.5,
      "critical_pe": 1,
      "critical_phase": "cx"
    }
  })";
  obs::jsonlite::Value v;
  ASSERT_TRUE(obs::jsonlite::parse(doc, &v));
  ledger::Entry e;
  std::string err;
  ASSERT_TRUE(ledger::entry_from_report(v, &e, &err)) << err;
  EXPECT_EQ(e.circuit_hash, "1234567812345678");
  EXPECT_EQ(e.backend, "shmem");
  EXPECT_EQ(e.n_workers, 4);
  EXPECT_DOUBLE_EQ(e.wall_seconds, 0.5);
  EXPECT_NEAR(e.compute_s, 0.3, 1e-12);
  EXPECT_NEAR(e.wait_s, 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(e.imbalance, 1.5);
  EXPECT_EQ(e.critical, "PE 1 / cx");
  EXPECT_EQ(e.key.rfind("1234567812345678:shmem:w4:", 0), 0u);

  // Reports without the schema marker are refused.
  obs::jsonlite::Value bad;
  ASSERT_TRUE(obs::jsonlite::parse("{\"backend\":\"shmem\"}", &bad));
  EXPECT_FALSE(ledger::entry_from_report(bad, &e, &err));
}

// A wall time that overflowed (1e999 parses as infinity) or was written as
// null would leave a ledger line no later --compare can read: refused.
TEST(Ledger, EntryFromReportRefusesNonFiniteWallSeconds) {
  for (const char* wall : {"1e999", "-1e999", "null"}) {
    const std::string doc =
        std::string(R"({"schema":"svsim-report-v1","backend":"shmem",)") +
        R"("wall_seconds":)" + wall + "}";
    obs::jsonlite::Value v;
    ASSERT_TRUE(obs::jsonlite::parse(doc, &v)) << doc;
    ledger::Entry e;
    std::string err;
    EXPECT_FALSE(ledger::entry_from_report(v, &e, &err)) << wall;
    EXPECT_NE(err.find("wall_seconds"), std::string::npos) << err;
  }
}

// An integer field that is not an integer in range (an overflow, a sign,
// a fraction, a value past int) would be cast with undefined behaviour:
// refused, naming the field, from a report and from a ledger line.
TEST(Ledger, RefusesOutOfRangeIntegers) {
  for (const char* workers : {"1e999", "-1", "2.5", "4294967296"}) {
    const std::string report =
        std::string(R"({"schema":"svsim-report-v1","backend":"shmem",)") +
        R"("wall_seconds":0.5,"n_workers":)" + workers + "}";
    obs::jsonlite::Value v;
    ASSERT_TRUE(obs::jsonlite::parse(report, &v)) << report;
    ledger::Entry e;
    std::string err;
    EXPECT_FALSE(ledger::entry_from_report(v, &e, &err)) << workers;
    EXPECT_NE(err.find("n_workers"), std::string::npos) << err;

    const std::string line =
        std::string(R"({"schema":"svsim-ledger-v1","key":"k",)") +
        R"("backend":"peer","wall_seconds":0.5,"n_workers":)" + workers +
        "}";
    err.clear();
    EXPECT_FALSE(ledger::parse_line(line, &e, &err)) << workers;
    EXPECT_NE(err.find("n_workers"), std::string::npos) << err;
  }
  // The in-range control reads back.
  ledger::Entry e;
  std::string err;
  ASSERT_TRUE(ledger::parse_line(
      R"({"schema":"svsim-ledger-v1","key":"k","backend":"peer",)"
      R"("wall_seconds":0.5,"n_workers":4})",
      &e, &err))
      << err;
  EXPECT_EQ(e.n_workers, 4);
}

TEST(Hash, CircuitHashIsShapeSensitive) {
  const Circuit a = circuits::qft(5);
  const Circuit b = circuits::qft(5);
  const Circuit c = circuits::qft(6);
  EXPECT_EQ(obs::hash_circuit(a), obs::hash_circuit(b));
  EXPECT_NE(obs::hash_circuit(a), obs::hash_circuit(c));
  EXPECT_EQ(obs::hash_hex(obs::hash_circuit(a)).size(), 16u);
}

/// The acceptance check, in-process: a real 4-PE run must produce a
/// breakdown whose per-PE compute+wait sums to that PE's busy window
/// within 5%, and must name a critical-path PE.
template <typename Sim>
void check_real_run() {
  SimConfig cfg;
  cfg.waitstats = 1;
  const Circuit circuit = circuits::qft(8);
  Sim sim(circuit.n_qubits(), 4, cfg);
  sim.run(circuit);
  const obs::RunReport& rep = sim.last_report();
  ASSERT_TRUE(rep.waitstate.enabled);
  ASSERT_EQ(rep.waitstate.per_pe.size(), 4u);
  for (const WaitProfile::PerPe& pe : rep.waitstate.per_pe) {
    EXPECT_GT(pe.wall_s, 0.0);
    EXPECT_NEAR(pe.compute_s + pe.wait_s(), pe.wall_s, 0.05 * pe.wall_s);
    EXPECT_GT(pe.barrier_n, 0u);
  }
  EXPECT_GE(rep.waitstate.imbalance, 1.0);
  EXPECT_GE(rep.waitstate.critical_pe, 0);
  EXPECT_FALSE(rep.waitstate.critical_phase.empty());
  EXPECT_GT(rep.circuit_hash, 0u);
}

TEST(Waitstate, ShmemRunBreakdownSumsToWall) { check_real_run<ShmemSim>(); }
TEST(Waitstate, PeerRunBreakdownSumsToWall) { check_real_run<PeerSim>(); }

TEST(Waitstate, ConfigCanDisable) {
  SimConfig cfg;
  cfg.waitstats = 0;
  const Circuit circuit = circuits::ghz_state(6);
  PeerSim sim(circuit.n_qubits(), 2, cfg);
  sim.run(circuit);
  EXPECT_FALSE(sim.last_report().waitstate.enabled);
}

} // namespace
