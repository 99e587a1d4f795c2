// Every JSON document the program writes, written and parsed back with
// jsonlite::parse: the run report (golden bytes, and a NaN health norm
// with an empty traffic matrix), the memory record (GET /memory and the
// report's section), the progress snapshot, GET /healthz for a tripped
// monitor, a ledger line and a bench table. Non-finite numbers come back
// as null and strings come back verbatim.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/aggregate.hpp"
#include "obs/health.hpp"
#include "obs/jsonlite.hpp"
#include "obs/memtrack.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"

namespace svsim {
namespace {

using obs::FlightEvent;
using obs::MemoryStats;
using obs::MemTag;
using obs::RooflineStats;
using obs::RunReport;
using obs::WaitProfile;
using obs::jsonlite::Value;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// What JSON cannot carry raw: a quote, a backslash, a tab, a control byte.
const std::string kHostile = "say \"hi\" C:\\pe\t0\x01 end";

Value parse_or_fail(const std::string& json) {
  Value doc;
  std::size_t err_at = 0;
  EXPECT_TRUE(obs::jsonlite::parse(json, &doc, &err_at))
      << "invalid JSON at byte " << err_at << ": " << json;
  return doc;
}

bool is_null(const Value* v) {
  return v != nullptr && v->type == Value::Type::kNull;
}

std::vector<std::string> keys(const Value& object) {
  std::vector<std::string> out;
  for (const auto& [k, v] : object.members) {
    (void)v;
    out.push_back(k);
  }
  return out;
}

/// A report with every section populated.
RunReport full_report() {
  RunReport r;
  r.backend = "shmem";
  r.n_qubits = 12;
  r.n_workers = 2;
  r.batch = 3;
  r.total_gates = 42;
  r.wall_seconds = 0.125;
  r.profiled = true;
  r.circuit_hash = 0x0123456789abcdefull;
  r.by_op[static_cast<std::size_t>(OP::H)] = {12, 0.25, 4};
  r.by_op[static_cast<std::size_t>(OP::CX)] = {30, 1.0 / 3.0, 30};
  r.by_op[static_cast<std::size_t>(OP::DENSE2)] = {0, 0.125, 3};
  r.fusion = {50, 42, 6, 2, 1, 3, 11};
  r.comm = {1000, 250, 4096, 3, 7};
  r.health.enabled = true;
  r.health.every_n = 4;
  r.health.checks = 10;
  r.health.nan_checks = 0;
  r.health.non_finite = 0;
  r.health.max_drift = 2.5e-13;
  r.health.last_norm2 = 0.99999999999999978;
  r.health.drift_gate_lo = 8;
  r.health.drift_gate_hi = 12;
  r.health.warns = 1;
  r.sched = {true, true, 10, 3, 20, 17, 17 * 16 * 4096};
  r.remap = {true, true, 11, 2, 65536, 16384};
  RooflineStats& rf = r.roofline;
  rf.enabled = true;
  rf.model_amps = 1.5e5;
  rf.model_bytes = 4.8e6;
  rf.model_bytes_sched = 1.2e6;
  rf.model_flops = 9e5;
  rf.ai = 0.75;
  rf.peak_gbps = 20;
  rf.model_gbps = 9.6;
  rf.attainment = 0.48;
  rf.counters = false;
  rf.counters_error = "perf_event_open: \"denied\"";
  rf.cycles = 123456789;
  rf.instructions = 987654321;
  rf.llc_loads = 5555;
  rf.llc_misses = 444;
  rf.measured_gbps = 0.0227;
  rf.worst.push_back({OP::CX, 30, 1.5e6, 0.002, 0.75, 0.0375});
  MemoryStats& m = r.memory;
  m.enabled = true;
  m.tracked_bytes = 65536;
  m.tracked_peak = 131072;
  m.peak_ts_us = 1234.5;
  m.by_tag[static_cast<std::size_t>(MemTag::kState)] = {65536, 131072};
  m.by_tag[static_cast<std::size_t>(MemTag::kShmemHeap)] = {4096, 8192};
  m.per_pe.push_back({0, 32768, 65536, 0});
  m.per_pe.push_back({1, 32768, 65536, -1});
  m.sampled = true;
  m.rss_bytes = 5000000;
  m.hwm_bytes = 7000000;
  m.baseline_rss = 1000000;
  m.thp_bytes = 2097152;
  m.samples = 5;
  m.numa = false;
  m.numa_error = "move_pages: EPERM";
  m.node_bytes = {131072};
  m.estimated_bytes = 140000;
  WaitProfile& ws = r.waitstate;
  ws.enabled = true;
  ws.per_pe.push_back({0.1, 0.07, 0.02, 0.005, 0.005, 3, 1, 2});
  ws.per_pe.push_back({0.1, 0.09, 0.01, 0, 0, 3, 0, 0});
  ws.imbalance = 1.125;
  ws.straggler = 1;
  ws.wait_fraction = 0.2;
  ws.critical_pe = 1;
  ws.critical_phase = "cx";
  ws.critical_s = 0.05;
  ws.critical.push_back({1, "cx", 0.04, 2});
  ws.critical.push_back({0, "h", 0.01, 1});
  r.matrix.n = 2;
  r.matrix.bytes = {100, 200, 300, 400};
  FlightEvent e;
  e.seq = 1;
  e.ts_us = 10.5;
  e.gate_id = 3;
  e.kind = FlightEvent::kGate;
  e.op = static_cast<std::uint16_t>(OP::CX);
  e.worker = 0;
  e.qb0 = 0;
  e.qb1 = 1;
  r.flight.push_back(e);
  e.seq = 2;
  e.ts_us = 11.25;
  e.gate_id = 4;
  e.kind = FlightEvent::kCheckpoint;
  e.op = 65535;
  e.worker = 1;
  e.qb0 = -1;
  e.qb1 = -1;
  r.flight.push_back(e);
  return r;
}

// to_json of the fixed report, byte for byte. The svsim-report-v1 fields
// and their order are the schema readers rely on; a change here must be
// additive.
TEST(JsonDocuments, ReportMatchesGoldenBytes) {
  constexpr const char* kGoldenHead =
      R"({"schema":"svsim-report-v1","backend":"shmem","n_qubits":12,)"
      R"("n_workers":2,"batch":3,"total_gates":42,"wall_seconds":0.125,)"
      R"("profiled":true,"circuit_hash":"0123456789abcdef","cpu":)";
  constexpr const char* kGoldenTail =
      R"(,"gates":[{"op":"cx","count":30,"executed":30,)"
      R"("seconds":0.33333333333333331},)"
      R"({"op":"h","count":12,"executed":4,"seconds":0.25},)"
      R"({"op":"dense2","count":0,"executed":3,"seconds":0.125}])"
      R"(,"fusion":{"gates_before":50,"gates_after":42,"fused_1q":6,)"
      R"("cancelled_2q":2,"dropped_identity":1,"dense_blocks":3,)"
      R"("dense_absorbed":11})"
      R"(,"comm":{"local_ops":1000,"remote_ops":250,"bytes":4096,"messages":3,)"
      R"("barriers":7})"
      R"(,"health":{"enabled":true,"every_n":4,"checks":10,"nan_checks":0,)"
      R"("non_finite":0,"max_drift":2.4999999999999999e-13,)"
      R"("last_norm2":0.99999999999999978,"drift_gate_lo":8,"drift_gate_hi":12,)"
      R"("warns":1,"aborted":false,"tripped":true})"
      R"(,"sched":{"enabled":true,"active":true,"block_exp":10,"windows":3,)"
      R"("windowed_gates":20,"passes_saved":17,)"
      R"("traffic_avoided_bytes":1114112})"
      R"(,"remap":{"enabled":true,"active":true,"local_bits":11,)"
      R"("swaps_inserted":2,"modeled_remote_bytes_before":65536,)"
      R"("modeled_remote_bytes_after":16384})"
      R"(,"roofline":{"enabled":true,"model":{"amps":150000,"bytes":4800000,)"
      R"("bytes_sched":1200000,"flops":900000,"ai":0.75},"peak_gbps":20,)"
      R"("model_gbps":9.5999999999999996,"attainment":0.47999999999999998,)"
      R"("counters":{"available":false,"error":"perf_event_open: \"denied\"",)"
      R"("cycles":123456789,"instructions":987654321,"llc_loads":5555,)"
      R"("llc_misses":444,"measured_gbps":0.022700000000000001},)"
      R"("worst":[{"op":"cx","count":30,"bytes":1500000,"seconds":0.002,)"
      R"("gbps":0.75,"attainment":0.037499999999999999}]})"
      R"(,"memory":{"enabled":true,"tracked_bytes":65536,"tracked_peak":131072,)"
      R"("peak_ts_us":1234.5,"tags":[{"tag":"state","current":65536,)"
      R"("peak":131072},{"tag":"shmem_heap","current":4096,"peak":8192}],)"
      R"("per_pe":[{"pe":0,"current":32768,"peak":65536,"node":0},{"pe":1,)"
      R"("current":32768,"peak":65536,"node":-1}],"sampled":true,)"
      R"("sample_error":"","rss_bytes":5000000,"peak_rss":7000000,)"
      R"("hwm_bytes":7000000,"baseline_rss":1000000,"thp_bytes":2097152,)"
      R"("samples":5,"numa":false,"numa_error":"move_pages: EPERM",)"
      R"("node_bytes":[131072],"estimated_bytes":140000,)"
      R"("estimate_error":0.068115234375})"
      R"(,"waitstate":{"enabled":true,"per_pe":[{"wall_s":0.10000000000000001,)"
      R"("compute_s":0.070000000000000007,"barrier_s":0.02,)"
      R"("reduction_s":0.0050000000000000001,)"
      R"("transfer_s":0.0050000000000000001,"wait_s":0.030000000000000002,)"
      R"("barrier_n":3,"reduction_n":1,"transfer_n":2},)"
      R"({"wall_s":0.10000000000000001,"compute_s":0.089999999999999997,)"
      R"("barrier_s":0.01,"reduction_s":0,"transfer_s":0,"wait_s":0.01,)"
      R"("barrier_n":3,"reduction_n":0,"transfer_n":0}],"imbalance":1.125,)"
      R"("straggler":1,"wait_fraction":0.20000000000000001,"truncated":false,)"
      R"("critical_pe":1,"critical_phase":"cx",)"
      R"("critical_s":0.050000000000000003,"critical":[{"pe":1,"phase":"cx",)"
      R"("seconds":0.040000000000000001,"phases":2},{"pe":0,"phase":"h",)"
      R"("seconds":0.01,"phases":1}]})"
      R"(,"traffic_matrix":{"n":2,"bytes":[[100,200],[300,400]],)"
      R"("per_pe_bytes":[300,700],"total_bytes":1000,"remote_bytes":500,)"
      R"("max_mean_ratio":1.2,"busiest":{"src":1,"dst":0,"bytes":300}})"
      R"(,"flight":{"count":2,"events":[{"seq":1,"ts_us":10.5,"kind":"gate",)"
      R"("gate":3,"op":"cx","worker":0,"qb":[0,1]},{"seq":2,"ts_us":11.25,)"
      R"("kind":"health","gate":4,"op":"?","worker":1,"qb":[-1,-1]}]}})";
  EXPECT_EQ(obs::to_json(full_report()),
            kGoldenHead + obs::jsonlite::quote(obs::cpu_model()) + kGoldenTail);
}

TEST(JsonDocuments, ReportWritesNonFiniteAsNullAndStringsVerbatim) {
  RunReport r;
  r.backend = kHostile;
  r.health.enabled = true;
  r.health.last_norm2 = kNaN;
  r.health.max_drift = kInf;
  r.wall_seconds = -kInf;
  r.waitstate.critical_phase = kHostile;
  const Value doc = parse_or_fail(obs::to_json(r));
  EXPECT_EQ(doc.member_str("backend", ""), kHostile);
  EXPECT_TRUE(is_null(doc.find("wall_seconds")));
  const Value* health = doc.find("health");
  ASSERT_NE(health, nullptr);
  EXPECT_TRUE(is_null(health->find("last_norm2")));
  EXPECT_TRUE(is_null(health->find("max_drift")));
  EXPECT_TRUE(is_null(doc.find("traffic_matrix"))); // empty matrix
  EXPECT_EQ(doc.find("waitstate")->member_str("critical_phase", ""), kHostile);
}

// GET /memory and the report's `memory` section embed one record writer:
// the same fields in the same order, the strings verbatim.
TEST(JsonDocuments, MemoryRecordIsOneRecordInBothDocuments) {
  RunReport r = full_report();
  r.memory.sample_error = kHostile;
  r.memory.numa_error = "move_pages:\tdenied\x1f";
  r.memory.estimated_bytes = kNaN;
  const Value memory = parse_or_fail(obs::memory_json(r.memory));
  EXPECT_EQ(memory.member_str("schema", ""), "svsim-memory-v1");
  EXPECT_EQ(memory.member_str("sample_error", ""), r.memory.sample_error);
  EXPECT_EQ(memory.member_str("numa_error", ""), r.memory.numa_error);
  EXPECT_TRUE(is_null(memory.find("estimated_bytes")));
  EXPECT_EQ(memory.member_num("peak_rss", 0), 7000000.0);
  EXPECT_EQ(memory.member_num("hwm_bytes", 0), 7000000.0);

  const Value report = parse_or_fail(obs::to_json(r));
  const Value* section = report.find("memory");
  ASSERT_NE(section, nullptr);
  std::vector<std::string> expect = keys(memory);
  expect.erase(expect.begin()); // "schema" heads the /memory document
  EXPECT_EQ(keys(*section), expect);
  EXPECT_EQ(section->member_str("sample_error", ""), r.memory.sample_error);
}

TEST(JsonDocuments, ProgressSnapshotRoundTrips) {
  obs::ProgressSnapshot s;
  s.valid = true;
  s.active = true;
  s.backend = kHostile;
  s.n_qubits = 20;
  s.n_workers = 2;
  s.total_gates = 400;
  s.gates_done = 123;
  s.amps_done = 3.0e6;
  s.bytes_total = 1.25e9;
  s.bytes_done = 4.0e8;
  s.fraction = 0.32;
  s.elapsed_s = 0.5;
  s.gbps = kNaN;
  s.eta_known = false;
  s.pes = {{123, 1500000, 0.01}, {124, 1500000, kInf}};
  const Value doc = parse_or_fail(obs::progress_to_json(s));
  EXPECT_EQ(doc.member_str("backend", ""), kHostile);
  EXPECT_EQ(doc.member_num("gates_done", 0), 123.0);
  EXPECT_EQ(doc.member_num("bytes_total", 0), 1.25e9);
  EXPECT_TRUE(is_null(doc.find("gbps")));
  EXPECT_TRUE(is_null(doc.find("eta_s"))); // not yet calibrated
  const Value* pes = doc.find("per_pe");
  ASSERT_NE(pes, nullptr);
  ASSERT_EQ(pes->items.size(), 2u);
  EXPECT_EQ(pes->items[1].member_num("pe", -1), 1.0);
  EXPECT_TRUE(is_null(pes->items[1].find("wait_s")));
}

// GET /healthz embeds the report's health record after its status line.
TEST(JsonDocuments, HealthzForATrippedMonitor) {
  obs::HealthStats h;
  h.enabled = true;
  h.every_n = 1;
  h.checks = 3;
  h.nan_checks = 2;
  h.non_finite = 5;
  h.last_norm2 = kNaN;
  h.max_drift = 0.5;
  ASSERT_TRUE(h.tripped());
  const Value doc = parse_or_fail(obs::healthz_json(h));
  EXPECT_EQ(doc.member_str("status", ""), "tripped");
  EXPECT_TRUE(doc.find("monitored")->bool_or(false));
  EXPECT_TRUE(doc.find("tripped")->bool_or(false));
  EXPECT_TRUE(is_null(doc.find("last_norm2")));
  EXPECT_EQ(doc.member_num("nan_checks", 0), 2.0);

  RunReport r;
  r.health = h;
  const Value report = parse_or_fail(obs::to_json(r));
  std::vector<std::string> expect = keys(*report.find("health"));
  expect.insert(expect.begin(), {"status", "monitored"});
  EXPECT_EQ(keys(doc), expect);

  EXPECT_EQ(parse_or_fail(obs::healthz_json(obs::HealthStats{}))
                .member_str("status", ""),
            "unmonitored");
}

TEST(JsonDocuments, LedgerLineRoundTrips) {
  obs::ledger::Entry e;
  e.circuit_hash = "00c0ffee00c0ffee";
  e.backend = "peer";
  e.n_workers = 4;
  e.cpu = kHostile;
  e.critical = kHostile;
  e.wall_seconds = 0.25;
  e.imbalance = kNaN;
  e.rekey();
  const Value doc = parse_or_fail(e.line());
  EXPECT_EQ(doc.member_str("schema", ""), "svsim-ledger-v1");
  EXPECT_EQ(doc.member_str("cpu", ""), kHostile);
  EXPECT_EQ(doc.member_str("critical", ""), kHostile);
  EXPECT_EQ(doc.member_num("wall_seconds", 0), 0.25);
  EXPECT_TRUE(is_null(doc.find("imbalance")));
}

// svsim-bench-v2: one table row per line, NaN/Inf cells as null.
TEST(JsonDocuments, BenchTableRoundTrips) {
  bench::detail::JsonTable t;
  t.title = kHostile;
  t.corner = "n";
  t.columns = {"ms", "speedup"};
  t.rows = {{"n=4", {1.5, kNaN}}, {"n=8", {kInf, 2.0 / 3.0}}};
  const std::string json = bench::detail::bench_document({t, t});
  const Value doc = parse_or_fail(json);
  EXPECT_EQ(doc.member_str("schema", ""), "svsim-bench-v2");
  EXPECT_EQ(doc.member_str("cpu", ""), obs::cpu_model());
  const Value* tables = doc.find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->items.size(), 2u);
  EXPECT_EQ(tables->items[0].member_str("title", ""), kHostile);
  const Value* rows = tables->items[1].find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items.size(), 2u);
  const Value* values = rows->items[1].find("values");
  ASSERT_NE(values, nullptr);
  ASSERT_EQ(values->items.size(), 2u);
  EXPECT_EQ(values->items[0].type, Value::Type::kNull);
  EXPECT_EQ(values->items[1].num_or(0), 2.0 / 3.0); // %.17g round-trips
  // A line per table, per row and per closing bracket, plus the header.
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 10);
}

} // namespace
} // namespace svsim
