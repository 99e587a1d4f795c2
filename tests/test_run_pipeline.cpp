// Run-report parity across the six backends.
//
// Every backend runs the same fixed circuit twice: once with a default
// SimConfig and once with every observability plane switched on
// (profile, health, roofline, wait-state, progress). The test pins which
// RunReport sections each run fills, the gate tally, and the exact
// communication counts of the default run, so a change to the shared run
// orchestration cannot silently drop (or reshape) a backend's report.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/batched_sim.hpp"
#include "core/coarse_msg_sim.hpp"
#include "core/generalized_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "obs/progress.hpp"

namespace svsim {
namespace {

constexpr IdxType kQubits = 6;
constexpr int kWorkers = 2;

/// Crosses the partition boundary (qubit 5 on two workers), mixes
/// diagonal and dense 1q/2q gates, and measures mid-circuit.
Circuit fixed_circuit() {
  Circuit c(kQubits);
  c.h(0).cx(0, 5).rz(0.3, 5).h(3).cx(3, 4).t(2).swap(1, 5);
  c.measure(2, 0).ry(0.7, 5).cz(4, 1).u3(0.1, 0.2, 0.3, 5).cx(5, 0);
  return c;
}

/// The report sections a run filled, in a fixed order.
std::string sections(const obs::RunReport& r) {
  std::string out;
  const auto add = [&out](bool on, const char* name) {
    if (!on) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  const obs::CommStats& c = r.comm;
  double profiled_s = 0;
  for (const obs::GateKindStats& k : r.by_op) profiled_s += k.seconds;
  add(r.sched.enabled, "sched");
  add(r.remap.enabled, "remap");
  add(c.local_ops + c.remote_ops + c.bytes + c.messages + c.barriers > 0,
      "comm");
  add(r.matrix.n > 0, "matrix");
  add(r.waitstate.enabled, "waitstate");
  add(r.health.enabled, "health");
  add(r.roofline.enabled, "roofline");
  add(r.profiled && profiled_s > 0, "profiled");
  add(!r.flight.empty(), "flight");
  return out;
}

std::string tally(const obs::RunReport& r) {
  std::string out = "total=" + std::to_string(r.total_gates);
  for (int op = 0; op < kNumOps; ++op) {
    const std::uint64_t n = r.by_op[static_cast<std::size_t>(op)].count;
    if (n == 0) continue;
    out += ' ';
    out += op_name(static_cast<OP>(op));
    out += '=' + std::to_string(n);
  }
  return out;
}

std::string comm(const obs::RunReport& r) {
  const obs::CommStats& c = r.comm;
  return "local=" + std::to_string(c.local_ops) +
         " remote=" + std::to_string(c.remote_ops) +
         " bytes=" + std::to_string(c.bytes) +
         " messages=" + std::to_string(c.messages) +
         " barriers=" + std::to_string(c.barriers);
}

struct Observed {
  std::string sections;
  std::string tally;
  std::string comm;
  bool published = false; // the progress board saw this run end
};

SimConfig all_planes_on() {
  SimConfig cfg;
  cfg.profile = true;
  cfg.health_every_n = 4;
  cfg.roofline = true;
  cfg.waitstats = 1;
  return cfg;
}

/// Run `fixed_circuit()` on a fresh backend built by `make(cfg)`.
template <class Make>
Observed observe(const SimConfig& cfg, bool progress, Make make) {
  obs::ProgressBoard& board = obs::ProgressBoard::global();
  board.set_enabled(progress);
  auto sim = make(cfg);
  const std::string before = board.snapshot().backend;
  sim->run(fixed_circuit());
  board.set_enabled(false);
  const obs::RunReport& r = sim->last_report();
  Observed o;
  o.sections = sections(r);
  o.tally = tally(r);
  o.comm = comm(r);
  const obs::ProgressSnapshot snap = board.snapshot();
  o.published = progress && snap.valid && !snap.active &&
                snap.backend == sim->name() &&
                snap.total_gates > 0 && snap.gates_done == snap.total_gates &&
                before != sim->name();
  return o;
}

const char* const kTally =
    "total=12 u3=1 cx=3 h=2 t=1 ry=1 rz=1 cz=1 swap=1 measure=1";

struct Case {
  const char* name;
  std::string default_sections;
  std::string default_comm;
  std::string all_on_sections;
  bool publishes; // pinned progress publishing (all-on run)
};

template <class Make>
void check(const Case& k, Make make) {
  SCOPED_TRACE(k.name);
  const Observed d = observe(SimConfig{}, false, make);
  EXPECT_EQ(d.sections, k.default_sections);
  EXPECT_EQ(d.tally, kTally);
  EXPECT_EQ(d.comm, k.default_comm);
  const Observed a = observe(all_planes_on(), true, make);
  EXPECT_EQ(a.sections, k.all_on_sections);
  EXPECT_EQ(a.tally, kTally);
  if (k.publishes) {
    EXPECT_TRUE(a.published);
  }
}

const char* const kNoComm =
    "local=0 remote=0 bytes=0 messages=0 barriers=0";

TEST(RunPipeline, SingleReportSections) {
  check({"single", "sched flight", kNoComm,
         "sched health roofline profiled flight", true},
        [](const SimConfig& cfg) {
          return std::make_unique<SingleSim>(kQubits, cfg);
        });
}

// The peer and shmem counts are a per-element count (every access through
// the Space's own get/put, as tests/test_range_seam's reference) of the
// circuit they execute: remapped, then fused.
TEST(RunPipeline, PeerReportSections) {
  check({"peer", "sched remap comm matrix waitstate flight",
         "local=1600 remote=128 bytes=13824 messages=0 barriers=0",
         "sched remap comm matrix waitstate health roofline profiled flight",
         true},
        [](const SimConfig& cfg) {
          return std::make_unique<PeerSim>(kQubits, kWorkers, cfg);
        });
}

TEST(RunPipeline, ShmemReportSections) {
  check({"shmem", "sched remap comm matrix waitstate flight",
         "local=1600 remote=128 bytes=13824 messages=0 barriers=12",
         "sched remap comm matrix waitstate health roofline profiled flight",
         true},
        [](const SimConfig& cfg) {
          return std::make_unique<ShmemSim>(kQubits, kWorkers, cfg);
        });
}

TEST(RunPipeline, CoarseReportSections) {
  check({"coarse-msg", "remap comm matrix waitstate flight",
         "local=0 remote=6 bytes=2064 messages=6 barriers=0",
         "remap comm matrix waitstate health profiled flight", true},
        [](const SimConfig& cfg) {
          return std::make_unique<CoarseMsgSim>(kQubits, kWorkers, cfg);
        });
}

TEST(RunPipeline, GeneralizedReportSections) {
  // The generalized baseline's progress publishing is not pinned.
  check({"generalized", "flight", kNoComm, "health profiled flight", false},
        [](const SimConfig& cfg) {
          return std::make_unique<GeneralizedSim>(kQubits, cfg);
        });
}

TEST(RunPipeline, BatchedReportSections) {
  check({"batched", "sched", kNoComm, "sched roofline", true},
        [](const SimConfig& cfg) {
          return std::make_unique<BatchedSim>(kQubits, 2, cfg);
        });
}

} // namespace
} // namespace svsim
