// Memory observability plane: exact tag accounting through TrackedBuffer
// moves and MemAdjust transients, per-tag/per-PE aggregation, the on-read
// /proc samples and their graceful degradation, NUMA unavailability, that
// tracking starts no thread, the capacity estimator pinned within 10% of
// the MemRegistry-measured peak across the single/peer/shmem/batched
// backends, SVSIM_MEM_LIMIT admission (throw + death), gauge export, and
// JSON validity and round trip of the memory documents.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "core/batched_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "ir/circuit.hpp"
#include "obs/capacity.hpp"
#include "obs/jsonlite.hpp"
#include "obs/memtrack.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "vqa/batched.hpp"

namespace {

using namespace svsim;
using obs::MemAdjust;
using obs::MemRegistry;
using obs::MemTag;
using obs::MemoryStats;
using obs::TrackedBuffer;

std::uint64_t tag_current(const MemoryStats& s, MemTag tag) {
  return s.by_tag[static_cast<std::size_t>(tag)].current;
}

std::uint64_t tag_peak(const MemoryStats& s, MemTag tag) {
  return s.by_tag[static_cast<std::size_t>(tag)].peak;
}

/// The registry is process-global; sections asserting absolute numbers
/// start from a quiesced state (no other tests' buffers live — each test
/// releases everything it allocates).
class MemtrackTest : public ::testing::Test {
protected:
  void SetUp() override { MemRegistry::global().reset_peaks_for_testing(); }
};

TEST_F(MemtrackTest, TrackedBufferExactAccounting) {
  MemRegistry& reg = MemRegistry::global();
  const std::uint64_t base_state =
      tag_current(reg.snapshot(), MemTag::kState);

  {
    // 100 doubles = 800 B, rounded to the 64-byte quantum = 832 B.
    TrackedBuffer<double> buf(100, MemTag::kState, 3);
    EXPECT_EQ(TrackedBuffer<double>::tracked_bytes(100), 832u);
    MemoryStats s = reg.snapshot();
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(tag_current(s, MemTag::kState), base_state + 832);

    // Moves transfer ownership without double counting.
    TrackedBuffer<double> moved(std::move(buf));
    s = reg.snapshot();
    EXPECT_EQ(tag_current(s, MemTag::kState), base_state + 832);

    TrackedBuffer<double> assigned;
    assigned = std::move(moved);
    s = reg.snapshot();
    EXPECT_EQ(tag_current(s, MemTag::kState), base_state + 832);
  }
  // Destruction returns every byte.
  EXPECT_EQ(tag_current(reg.snapshot(), MemTag::kState), base_state);
}

TEST_F(MemtrackTest, PerPeAggregationAndPeaks) {
  MemRegistry& reg = MemRegistry::global();
  reg.reset_peaks_for_testing();
  {
    TrackedBuffer<double> pe0(1024, MemTag::kState, 0); // 8 KiB
    TrackedBuffer<double> pe1(2048, MemTag::kState, 1); // 16 KiB
    const MemoryStats s = reg.snapshot();
    std::uint64_t cur0 = 0;
    std::uint64_t cur1 = 0;
    for (const MemoryStats::Pe& p : s.per_pe) {
      if (p.pe == 0) cur0 = p.current;
      if (p.pe == 1) cur1 = p.current;
    }
    EXPECT_GE(cur0, 8u * 1024);
    EXPECT_GE(cur1, 16u * 1024);
  }
  // The peak survives the release; current returns to the baseline.
  const MemoryStats s = reg.snapshot();
  EXPECT_GE(tag_peak(s, MemTag::kState), 24u * 1024);
}

TEST_F(MemtrackTest, MemAdjustTransients) {
  MemRegistry& reg = MemRegistry::global();
  const std::uint64_t base = tag_current(reg.snapshot(), MemTag::kMailbox);
  {
    MemAdjust adj(MemTag::kMailbox, 2);
    adj.add(4096);
    adj.add(1024);
    EXPECT_EQ(adj.total(), 5120);
    EXPECT_EQ(tag_current(reg.snapshot(), MemTag::kMailbox), base + 5120);

    MemAdjust moved(std::move(adj));
    EXPECT_EQ(moved.total(), 5120);
    EXPECT_EQ(tag_current(reg.snapshot(), MemTag::kMailbox), base + 5120);
  }
  EXPECT_EQ(tag_current(reg.snapshot(), MemTag::kMailbox), base);
}

TEST_F(MemtrackTest, DisabledRegistryTracksNothing) {
  MemRegistry& reg = MemRegistry::global();
  reg.set_enabled(false);
  const std::uint64_t before = reg.snapshot().tracked_bytes;
  {
    TrackedBuffer<double> buf(4096, MemTag::kState, 0);
    EXPECT_EQ(reg.snapshot().tracked_bytes, before);
    // The buffer itself still works — only the accounting is off.
    buf[0] = 1.0;
    EXPECT_EQ(buf.size(), 4096u);
  }
  reg.set_enabled(true);
  EXPECT_FALSE(reg.snapshot().enabled == false);
}

TEST_F(MemtrackTest, ProcSamplerReadsRss) {
  MemRegistry& reg = MemRegistry::global();
  TrackedBuffer<double> keep(1 << 16, MemTag::kOther); // NUMA walk has work
  reg.sample_now();
  const MemoryStats s = reg.snapshot();
  ASSERT_TRUE(s.sampled) << s.sample_error;
  EXPECT_GT(s.rss_bytes, 0u);
  EXPECT_GE(s.hwm_bytes, s.rss_bytes);
  EXPECT_GT(s.samples, 0u);
}

TEST_F(MemtrackTest, ProcFallbackDegradesGracefully) {
  MemRegistry& reg = MemRegistry::global();
  reg.set_proc_root_for_testing("/nonexistent-proc-root");
  reg.sample_now();
  MemoryStats s = reg.snapshot();
  EXPECT_FALSE(s.sampled);
  EXPECT_FALSE(s.sample_error.empty());
  // Restore and confirm recovery.
  reg.set_proc_root_for_testing("/proc/self");
  reg.sample_now();
  s = reg.snapshot();
  EXPECT_TRUE(s.sampled) << s.sample_error;
}

TEST_F(MemtrackTest, NumaForcedUnavailable) {
  MemRegistry& reg = MemRegistry::global();
  TrackedBuffer<double> keep(1 << 14, MemTag::kOther);
  reg.force_numa_unavailable_for_testing(true);
  reg.sample_now();
  const MemoryStats s = reg.snapshot();
  EXPECT_FALSE(s.numa);
  EXPECT_FALSE(s.numa_error.empty());
  reg.force_numa_unavailable_for_testing(false);
}

// Accounting and sampling from several threads at once: each thread
// tracks, adjusts and releases its own buffers while taking deep and
// shallow samples and snapshots. Race-free (the TSan CI leg runs this
// test), every byte returns, and every sample is counted.
TEST_F(MemtrackTest, ConcurrentAccountingAndSampling) {
  MemRegistry& reg = MemRegistry::global();
  const MemoryStats before = reg.snapshot();
  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        TrackedBuffer<double> buf(512 + static_cast<std::size_t>(i),
                                  MemTag::kOther, t);
        MemAdjust adj(MemTag::kOther, t);
        adj.add(128);
        if ((i + t) % 3 == 0) reg.sample_now();
        if ((i + t) % 3 == 1) {
          EXPECT_GT(reg.sample_rss(), 0u);
        }
        (void)reg.snapshot();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::uint64_t taken = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kIters; ++i) taken += (i + t) % 3 != 2 ? 1 : 0;
  }
  const MemoryStats after = reg.snapshot();
  EXPECT_EQ(tag_current(after, MemTag::kOther),
            tag_current(before, MemTag::kOther));
  EXPECT_EQ(after.samples, before.samples + taken);
}

/// Threads of this process: the entries of /proc/self/task.
int thread_count() {
  int n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

// Samples are taken by their readers, so tracking starts no thread: an
// engine built and destroyed per call (the batched VQE objective's life
// cycle) leaves the process's thread count where it was.
TEST_F(MemtrackTest, TrackingStartsNoThread) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  }
  ASSERT_TRUE(MemRegistry::global().enabled());
  const int before = thread_count();
  for (int i = 0; i < 10; ++i) {
    vqa::BatchedSim sim(12, 8);
    EXPECT_EQ(thread_count(), before) << "while engine " << i << " lives";
  }
  EXPECT_EQ(thread_count(), before);
}

TEST(MemLimit, ParseUnits) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_mem_limit("12345", &v));
  EXPECT_EQ(v, 12345u);
  EXPECT_TRUE(parse_mem_limit("4K", &v));
  EXPECT_EQ(v, 4096u);
  EXPECT_TRUE(parse_mem_limit("16M", &v));
  EXPECT_EQ(v, 16ull << 20);
  EXPECT_TRUE(parse_mem_limit("2G", &v));
  EXPECT_EQ(v, 2ull << 30);
  EXPECT_TRUE(parse_mem_limit("1T", &v));
  EXPECT_EQ(v, 1ull << 40);
  EXPECT_TRUE(parse_mem_limit("16GiB", &v));
  EXPECT_EQ(v, 16ull << 30);
  EXPECT_TRUE(parse_mem_limit("16GB", &v));
  EXPECT_EQ(v, 16ull << 30);
  EXPECT_TRUE(parse_mem_limit("16777215T", &v)); // the largest in range
  EXPECT_EQ(v, 16777215ull << 40);
  EXPECT_FALSE(parse_mem_limit("", &v));
  EXPECT_FALSE(parse_mem_limit("garbage", &v));
  EXPECT_FALSE(parse_mem_limit("16Q", &v));
  EXPECT_FALSE(parse_mem_limit("16Gx", &v));
  // Out of range or signed/padded: no wrap to "no limit" or to a small
  // limit, no silently skipped sign or space.
  EXPECT_FALSE(parse_mem_limit("-1", &v));
  EXPECT_FALSE(parse_mem_limit("16777216T", &v));
  EXPECT_FALSE(parse_mem_limit("16777217T", &v));
  EXPECT_FALSE(parse_mem_limit("18446744073709551616", &v));
  EXPECT_FALSE(parse_mem_limit(" 16G", &v));
  EXPECT_FALSE(parse_mem_limit("+16G", &v));
  EXPECT_FALSE(parse_mem_limit("16G ", &v));
  // "auto" resolves to MemAvailable (nonzero on any Linux CI host). That
  // figure is host-wide and moves with every other process, so compare
  // only across a window where two reads bracketing the parse agree.
  if (mem_available_bytes() != 0) {
    bool steady = false;
    for (int attempt = 0; attempt < 100 && !steady; ++attempt) {
      const std::uint64_t before = mem_available_bytes();
      ASSERT_TRUE(parse_mem_limit("auto", &v));
      if (mem_available_bytes() == before) {
        EXPECT_EQ(v, before);
        steady = true;
      }
    }
    EXPECT_TRUE(steady) << "MemAvailable moved across 100 auto parses";
  }
}

TEST(MemLimit, ConstructorFailsFastOverBudget) {
  SimConfig cfg;
  cfg.mem_limit = 1024; // n=16 needs ~1 MiB of state
  EXPECT_THROW(SingleSim(16, cfg), Error);
  EXPECT_THROW(ShmemSim(16, 4, cfg), Error);
  EXPECT_THROW(BatchedSim(16, 4, cfg), Error);
  // Under budget constructs fine.
  cfg.mem_limit = 64ull << 20;
  EXPECT_NO_THROW(SingleSim(16, cfg));
}

TEST(MemLimitDeathTest, UncaughtRefusalDiesWithMessage) {
  // A runner that doesn't catch the admission error dies with the limit
  // cited — the fail-fast contract SVSIM_MEM_LIMIT promises. (gtest
  // intercepts exceptions escaping a death statement, so the
  // uncaught-in-main path — print what() and abort — is spelled out.)
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  SimConfig cfg;
  cfg.mem_limit = 1024;
  EXPECT_DEATH(
      {
        try {
          SingleSim sim(16, cfg);
        } catch (const Error& e) {
          std::fprintf(stderr, "%s\n", e.what());
          std::abort();
        }
      },
      "memory limit");
}

/// Tracked-peak delta of constructing + running `make_sim`'s simulator,
/// compared against the analytic estimate for the same shape.
template <typename MakeSim>
void expect_estimate_within_10pct(const obs::FootprintQuery& q,
                                  MakeSim make_sim) {
  MemRegistry& reg = MemRegistry::global();
  ASSERT_EQ(reg.snapshot().tracked_bytes, 0u)
      << "previous test left tracked buffers live";
  reg.reset_peaks_for_testing();
  { make_sim(); }
  const std::uint64_t measured = reg.snapshot().tracked_peak;
  ASSERT_GT(measured, 0u);
  const obs::FootprintEstimate est = obs::estimate_footprint(q);
  const double err =
      (static_cast<double>(est.total_bytes) - static_cast<double>(measured)) /
      static_cast<double>(measured);
  EXPECT_LE(err, 0.10) << q.backend << " n=" << q.n_qubits
                       << ": estimate " << est.total_bytes << " vs measured "
                       << measured;
  EXPECT_GE(err, -0.10) << q.backend << " n=" << q.n_qubits
                        << ": estimate " << est.total_bytes
                        << " vs measured " << measured;
}

Circuit small_circuit(IdxType n) {
  Circuit c(n);
  c.h(0);
  for (IdxType q = 1; q < n; ++q) c.cx(q - 1, q);
  return c;
}

TEST(CapacityEstimate, WithinTenPercentOfMeasuredPeak) {
  for (const IdxType n : {IdxType{16}, IdxType{20}}) {
    const Circuit c = small_circuit(n);
    SimConfig cfg;

    obs::FootprintQuery q;
    q.n_qubits = n;
    q.gates = static_cast<std::uint64_t>(c.n_gates());

    q.backend = "single";
    q.workers = 1;
    expect_estimate_within_10pct(q, [&] {
      SingleSim sim(n, cfg);
      sim.run(c);
    });

    q.backend = "peer";
    q.workers = 4;
    expect_estimate_within_10pct(q, [&] {
      PeerSim sim(n, 4, cfg);
      sim.run(c);
    });

    q.backend = "shmem";
    q.workers = 4;
    expect_estimate_within_10pct(q, [&] {
      ShmemSim sim(n, 4, cfg);
      sim.run(c);
    });

    q.backend = "batched";
    q.workers = 1;
    q.batch = 4;
    expect_estimate_within_10pct(q, [&] {
      BatchedSim sim(n, 4, cfg);
      sim.run(c);
    });
    q.batch = 1;
  }
}

TEST(MemoryReport, FoldedIntoRunReportAndJsonValid) {
  // The registry peak is process-global; collapse it so this run's state
  // planes set the high-water the estimate is compared against.
  MemRegistry::global().reset_peaks_for_testing();
  SimConfig cfg;
  SingleSim sim(12, cfg);
  sim.run(small_circuit(12));
  const obs::RunReport rep = sim.last_report();
  ASSERT_TRUE(rep.memory.enabled);
  EXPECT_GT(rep.memory.tracked_peak, 0u);
  EXPECT_GT(rep.memory.estimated_bytes, 0);
  // n=12 state planes: 2 x 4096 x 8 B = 64 KiB, estimate spot-on.
  EXPECT_NEAR(rep.memory.estimate_error(), 0.0, 0.10);

  const std::string json = obs::to_json(rep);
  std::size_t err_at = 0;
  EXPECT_TRUE(obs::jsonlite::valid(json, &err_at))
      << "report JSON invalid at byte " << err_at;
  // The report's tag list carries the state planes.
  EXPECT_NE(json.find("{\"tag\":\"state\""), std::string::npos);
  EXPECT_NE(json.find("\"memory\":{\"enabled\":true"), std::string::npos);
  // The summary carries the memory block.
  EXPECT_NE(rep.summary().find("memory: tracked peak"), std::string::npos);
}

TEST(MemoryReport, MemoryJsonDocumentValid) {
  MemRegistry& reg = MemRegistry::global();
  TrackedBuffer<double> keep(4096, MemTag::kState, 0);
  reg.sample_now();
  const std::string json = obs::memory_json(reg.snapshot());
  std::size_t err_at = 0;
  EXPECT_TRUE(obs::jsonlite::valid(json, &err_at))
      << "memory JSON invalid at byte " << err_at;
  obs::jsonlite::Value doc;
  ASSERT_TRUE(obs::jsonlite::parse(json, &doc));
  EXPECT_EQ(doc.member_str("schema", ""), "svsim-memory-v1");
  EXPECT_TRUE(doc.find("enabled")->bool_or(false));
  EXPECT_GT(doc.member_num("tracked_bytes", 0), 0.0);
}

// memory_json escapes what JSON cannot carry raw: error strings holding
// a quote, a backslash, a tab and a control byte parse back verbatim.
TEST(MemoryReport, MemoryJsonRoundTripsErrorStrings) {
  MemoryStats snap;
  snap.sample_error = "cannot read \"/proc\\self\"\tstatus\x01";
  snap.numa_error = "move_pages:\tdenied";
  const std::string json = obs::memory_json(snap);
  obs::jsonlite::Value doc;
  std::size_t err_at = 0;
  ASSERT_TRUE(obs::jsonlite::parse(json, &doc, &err_at))
      << "memory JSON invalid at byte " << err_at << ": " << json;
  EXPECT_EQ(doc.member_str("sample_error", ""), snap.sample_error);
  EXPECT_EQ(doc.member_str("numa_error", ""), snap.numa_error);
}

TEST(MemoryGauges, ExportedInPrometheusFormat) {
  MemRegistry& reg = MemRegistry::global();
  {
    TrackedBuffer<double> keep(1 << 14, MemTag::kState, 0);
    reg.sample_now();
    const std::string prom = obs::Registry::global().write_prom();
    EXPECT_NE(prom.find("# TYPE svsim_mem_tracked_bytes gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("svsim_mem_tracked_peak_bytes"), std::string::npos);
    EXPECT_NE(prom.find("svsim_mem_rss_bytes"), std::string::npos);
    // The live-bytes gauge carries the current tracked total.
    EXPECT_GT(obs::Registry::global().gauge("mem.tracked_bytes").value(), 0.0);
  }
}

} // namespace
