// obs::ProgressBoard: the model-driven progress/ETA math (per-gate
// predicted-bytes prefix, min-over-PEs retirement, achieved-rate
// calibration), its agreement with the roofline's model on real runs, the
// svsim-progress-v1 JSON document, the async-signal-safe renderer the
// SIGINT flush uses, and the WaitScope → slot live-wait hook.
#include <gtest/gtest.h>

#include <thread>

#include "circuits/qasmbench.hpp"
#include "core/batched_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/single_sim.hpp"
#include "ir/circuit.hpp"
#include "obs/jsonlite.hpp"
#include "obs/perfmodel.hpp"
#include "obs/progress.hpp"
#include "obs/waitstate.hpp"

namespace svsim {
namespace {

using obs::jsonlite::Value;

Circuit small_circuit() {
  Circuit c(4);
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.cx(2, 3);
  c.rz(0.5, 3);
  c.h(2);
  return c;
}

TEST(Progress, SnapshotInvalidBeforeAnyRun) {
  // Note: boards are process-global; this test only asserts the shape of
  // an invalid snapshot's JSON, which holds whether or not another test
  // ran first.
  obs::ProgressSnapshot s;
  const std::string json = obs::progress_to_json(s);
  Value doc;
  ASSERT_TRUE(obs::jsonlite::parse(json, &doc)) << json;
  EXPECT_EQ(doc.member_str("schema", ""), "svsim-progress-v1");
  EXPECT_FALSE(doc.find("valid")->bool_or(true));
}

TEST(Progress, BytesPrefixMatchesPerfmodelAndDrivesFraction) {
  obs::ProgressBoard& board = obs::ProgressBoard::global();
  board.set_enabled(true);
  const Circuit c = small_circuit();
  board.begin_run("testbe", c.n_qubits(), 2,
                  obs::model_run(c).bytes_prefix);

  // Total predicted bytes must equal the perfmodel sum over gates.
  double expect_total = 0;
  for (const Gate& g : c.gates()) {
    expect_total += obs::gate_cost(g, c.n_qubits()).bytes;
  }
  obs::ProgressSnapshot s0 = board.snapshot();
  ASSERT_TRUE(s0.valid);
  ASSERT_TRUE(s0.active);
  EXPECT_DOUBLE_EQ(s0.bytes_total, expect_total);
  EXPECT_EQ(s0.gates_done, 0u);
  EXPECT_DOUBLE_EQ(s0.fraction, 0.0);
  EXPECT_FALSE(s0.eta_known); // nothing retired: no rate to calibrate

  // Retire half the gates on both PEs; gates_done is the min over PEs.
  obs::ProgressSlot* p0 = board.slot(0);
  obs::ProgressSlot* p1 = board.slot(1);
  ASSERT_NE(p0, nullptr);
  ASSERT_NE(p1, nullptr);
  p0->publish_gate(3, 100);
  p1->publish_gate(4, 120);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  obs::ProgressSnapshot s1 = board.snapshot();
  EXPECT_EQ(s1.gates_done, 3u); // min(3, 4)
  EXPECT_GT(s1.fraction, 0.0);
  EXPECT_LT(s1.fraction, 1.0);
  EXPECT_DOUBLE_EQ(s1.amps_done, 220.0);
  ASSERT_TRUE(s1.eta_known);
  EXPECT_GT(s1.eta_s, 0.0);
  EXPECT_GT(s1.gbps, 0.0);
  // ETA is remaining/rate with rate = done/elapsed, so
  // eta / elapsed == remaining_bytes / done_bytes exactly.
  EXPECT_NEAR(s1.eta_s / s1.elapsed_s,
              (s1.bytes_total - s1.bytes_done) / s1.bytes_done, 1e-9);

  // Finishing pins fraction 1 / eta 0 and records the report document.
  board.end_run("{\"schema\":\"svsim-report-v1\"}");
  obs::ProgressSnapshot s2 = board.snapshot();
  EXPECT_FALSE(s2.active);
  EXPECT_EQ(s2.gates_done, s2.total_gates);
  EXPECT_DOUBLE_EQ(s2.fraction, 1.0);
  EXPECT_TRUE(s2.eta_known);
  EXPECT_DOUBLE_EQ(s2.eta_s, 0.0);
  EXPECT_EQ(board.last_report_json(), "{\"schema\":\"svsim-report-v1\"}");
}

// The board prices nothing itself: its byte axis is the run model's
// scheduled bytes, and each gate publishes the amplitudes its kernel
// touched, so a per-gate run ends with the summed amps_done at the
// roofline's model_amps (36 here: 16 + 8 + 8 + 4) on every tier. The
// batched total includes the coefficient rows the batched model prices.
TEST(Progress, AmpsAndBytesMatchTheModel) {
  obs::ProgressBoard& board = obs::ProgressBoard::global();
  board.set_enabled(true);
  SimConfig cfg;
  cfg.roofline = true;
  cfg.sched_window = 0; // the per-gate loop: no blocked window
  Circuit c(4);
  c.h(0).cx(0, 1).t(2).cz(1, 3);
  const auto finished = [&](const obs::RunReport& rep, const char* what) {
    const obs::ProgressSnapshot s = board.snapshot();
    EXPECT_FALSE(s.active) << what;
    EXPECT_EQ(s.bytes_total, rep.roofline.model_bytes_sched) << what;
    return s;
  };

  SingleSim single(4, cfg);
  single.run(c);
  const obs::ProgressSnapshot ss = finished(single.last_report(), "single");
  EXPECT_EQ(ss.amps_done, single.last_report().roofline.model_amps);
  EXPECT_EQ(ss.amps_done, 36.0);

  PeerSim peer(4, 2, cfg);
  peer.run(c);
  const obs::ProgressSnapshot ps = finished(peer.last_report(), "peer");
  EXPECT_EQ(ps.amps_done, peer.last_report().roofline.model_amps);
  ASSERT_EQ(ps.pes.size(), 2u);

  Circuit rotated = c;
  rotated.rz(0.5, 3).cu1(0.25, 0, 2);
  BatchedSim batched(4, 3, cfg);
  batched.run(rotated);
  const obs::RunReport& rep = batched.last_report();
  finished(rep, "batched");
  EXPECT_GT(rep.roofline.model_bytes_sched,
            3 * obs::model_run(rotated).bytes_sched)
      << "the batched model prices coefficient rows";
}

// A batched plan runs fewer passes than the circuit has gates: its
// combining pass fuses adjacent dense one-qubit gates on different qubits
// into one quadruple sweep and absorbs the second gate. Three RY layers on
// 10 qubits pair up into 15 sweeps of 2^10 amplitudes per member, so the
// model must price the plan's slots, not the 30 uploaded gates.
TEST(Progress, BatchedAmpsMatchTheModel) {
  obs::ProgressBoard& board = obs::ProgressBoard::global();
  board.set_enabled(true);
  SimConfig cfg;
  cfg.roofline = true;
  cfg.sched_window = 0;
  Circuit c(10);
  for (int layer = 0; layer < 3; ++layer) {
    for (IdxType q = 0; q < 10; ++q) c.ry(0.1 * (layer + 1) + 0.01 * q, q);
  }
  BatchedSim batched(10, 4, cfg);
  batched.run(c);
  const obs::RunReport& rep = batched.last_report();
  const obs::ProgressSnapshot s = board.snapshot();
  EXPECT_FALSE(s.active);
  EXPECT_EQ(s.amps_done, rep.roofline.model_amps);
  EXPECT_EQ(s.amps_done, 15.0 * 1024 * 4);
  EXPECT_EQ(s.bytes_total, rep.roofline.model_bytes_sched);
}

TEST(Progress, JsonDocumentRoundTripsThroughJsonlite) {
  obs::ProgressBoard& board = obs::ProgressBoard::global();
  board.set_enabled(true);
  const Circuit c = circuits::qft(5);
  board.begin_run("shmem", c.n_qubits(), 4,
                  obs::model_run(c).bytes_prefix);
  for (int w = 0; w < 4; ++w) {
    board.slot(w)->publish_gate(static_cast<std::uint64_t>(2 + w), 64);
  }
  const std::string json = obs::progress_to_json(board.snapshot());
  Value doc;
  ASSERT_TRUE(obs::jsonlite::parse(json, &doc)) << json;
  EXPECT_EQ(doc.member_str("backend", ""), "shmem");
  EXPECT_EQ(doc.member_num("n_workers", 0), 4.0);
  EXPECT_EQ(doc.member_num("gates_done", -1), 2.0); // min over PEs
  const Value* pes = doc.find("per_pe");
  ASSERT_NE(pes, nullptr);
  ASSERT_TRUE(pes->is_array());
  ASSERT_EQ(pes->items.size(), 4u);
  EXPECT_EQ(pes->items[3].member_num("gates_done", -1), 5.0);
  board.end_run("{}");
}

TEST(Progress, SignalSafeRendererEmitsValidJson) {
  obs::ProgressBoard& board = obs::ProgressBoard::global();
  board.set_enabled(true);
  const Circuit c = small_circuit();
  board.begin_run("single", c.n_qubits(), 1,
                  obs::model_run(c).bytes_prefix);
  board.slot(0)->publish_gate(2, 32);
  board.mark_interrupted();
  char buf[4096];
  const int len = board.render_json_signal_safe(buf, sizeof(buf));
  ASSERT_GT(len, 0);
  Value doc;
  ASSERT_TRUE(obs::jsonlite::parse(std::string(buf, buf + len), &doc))
      << buf;
  EXPECT_TRUE(doc.find("interrupted")->bool_or(false));
  EXPECT_EQ(doc.member_str("backend", ""), "single");
  EXPECT_EQ(doc.member_num("gates_done", -1), 2.0);
  EXPECT_GT(doc.member_num("bytes_total", 0), 0.0);
  board.end_run("{}");
}

TEST(Progress, WaitScopePublishesIntoTheBoundSlot) {
  obs::ProgressBoard& board = obs::ProgressBoard::global();
  board.set_enabled(true);
  const Circuit c = small_circuit();
  board.begin_run("single", c.n_qubits(), 1,
                  obs::model_run(c).bytes_prefix);
  obs::ProgressSlot* slot = board.slot(0);
  ASSERT_EQ(slot->wait_us.load(), 0u);
  {
    // The gate loops bind their slot exactly like this; WaitScope then
    // times even with no WaitTracker registered.
    obs::ProgressScope scope(slot);
    obs::WaitScope wait(obs::WaitKind::kBarrier);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  EXPECT_GE(slot->wait_us.load(), 1000u); // at least ~1ms of the 3ms slept
  // Outside the scope nothing is bound: no publishing.
  const std::uint64_t before = slot->wait_us.load();
  {
    obs::WaitScope wait(obs::WaitKind::kBarrier);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(slot->wait_us.load(), before);
  board.end_run("{}");
}

} // namespace
} // namespace svsim
