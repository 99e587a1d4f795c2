// obs::perfmodel + obs::CounterSampler — the roofline attribution tier.
//
// Pins the analytic cost model's counting conventions with hand counts
// (T touches the |1> half at 4 flops/amp, H streams every pair at 8,
// CX permutes with zero arithmetic, a fused diagonal window collapses to
// at most one state pass), hand-counts the remote bytes the remap report
// reads, checks every kernel op's priced amplitudes against what its
// kernel touches, checks the forced-EPERM counter fallback stays
// well-formed, and verifies the report JSON remains valid and additive
// ("svsim-report-v1" keeps every pre-roofline key).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "circuits/qasmbench.hpp"
#include "common/rng.hpp"
#include "core/kernels/gates.hpp"
#include "core/peer_sim.hpp"
#include "core/single_sim.hpp"
#include "core/space.hpp"
#include "ir/remap.hpp"
#include "ir/schedule.hpp"
#include "machine/model.hpp"
#include "machine/platforms.hpp"
#include "obs/counters.hpp"
#include "obs/jsonlite.hpp"
#include "obs/perfmodel.hpp"
#include "obs/report.hpp"

namespace svsim {
namespace {

/// gate_cost of the k-th gate of `c`.
obs::GateCost cost_of(const Circuit& c, std::size_t k) {
  return obs::gate_cost(c.gates()[k], c.n_qubits());
}

// --- hand counts ---------------------------------------------------------

TEST(PerfModel, HandCountsOnFourQubits) {
  // dim = 16, half = 8, quarter = 4; 32 bytes per rewritten amplitude.
  Circuit c(4);
  c.t(0).h(1).cx(0, 1).cz(2, 3).x(2).s(3);
  c.z(1).cu1(0.3, 0, 2).id(3).barrier();
  ASSERT_EQ(c.n_gates(), 10);

  const obs::GateCost t = cost_of(c, 0);
  EXPECT_DOUBLE_EQ(t.amps, 8.0);    // |1> half only
  EXPECT_DOUBLE_EQ(t.bytes, 256.0); // 8 * 32
  EXPECT_DOUBLE_EQ(t.flops, 32.0);  // 4 real ops per touched amp

  const obs::GateCost h = cost_of(c, 1);
  EXPECT_DOUBLE_EQ(h.amps, 16.0);   // every amplitude
  EXPECT_DOUBLE_EQ(h.bytes, 512.0);
  EXPECT_DOUBLE_EQ(h.flops, 64.0);  // butterfly: 8 per pair, 8 pairs

  const obs::GateCost cx = cost_of(c, 2);
  EXPECT_DOUBLE_EQ(cx.amps, 8.0);   // ctrl=1 half
  EXPECT_DOUBLE_EQ(cx.bytes, 256.0);
  EXPECT_DOUBLE_EQ(cx.flops, 0.0);  // pure permutation

  const obs::GateCost cz = cost_of(c, 3);
  EXPECT_DOUBLE_EQ(cz.amps, 4.0);   // |11> quarter
  EXPECT_DOUBLE_EQ(cz.flops, 8.0);  // negate re+im per touched amp

  const obs::GateCost x = cost_of(c, 4);
  EXPECT_DOUBLE_EQ(x.amps, 16.0);
  EXPECT_DOUBLE_EQ(x.flops, 0.0);

  const obs::GateCost s = cost_of(c, 5);
  EXPECT_DOUBLE_EQ(s.amps, 8.0);
  EXPECT_DOUBLE_EQ(s.flops, 8.0);   // i*z is a swap + negate per amp

  const obs::GateCost z = cost_of(c, 6);
  EXPECT_DOUBLE_EQ(z.amps, 8.0);    // |1> half only
  EXPECT_DOUBLE_EQ(z.flops, 16.0);  // negate re+im per touched amp

  const obs::GateCost cu1 = cost_of(c, 7);
  EXPECT_DOUBLE_EQ(cu1.amps, 4.0);  // |11> quarter
  EXPECT_DOUBLE_EQ(cu1.flops, 24.0); // phase multiply per touched amp

  for (const std::size_t free : {std::size_t{8}, std::size_t{9}}) {
    const obs::GateCost none = cost_of(c, free); // id, barrier
    EXPECT_DOUBLE_EQ(none.amps, 0.0);
    EXPECT_DOUBLE_EQ(none.bytes, 0.0);
    EXPECT_DOUBLE_EQ(none.flops, 0.0);
  }
}

TEST(PerfModel, RunModelSumsGatesAndBucketsByOp) {
  Circuit c(4);
  c.h(0).t(1).t(2).cx(0, 1);
  const obs::RunModel m = obs::model_run(c);

  EXPECT_TRUE(m.enabled);
  EXPECT_DOUBLE_EQ(m.amps, 16 + 8 + 8 + 8);
  EXPECT_DOUBLE_EQ(m.bytes, (16 + 8 + 8 + 8) * 32.0);
  EXPECT_DOUBLE_EQ(m.flops, 64 + 32 + 32 + 0);
  // No schedule: scheduled traffic is the per-gate-loop traffic.
  EXPECT_DOUBLE_EQ(m.bytes_sched, m.bytes);
  EXPECT_TRUE(m.windows.empty());

  const auto& t_bucket = m.by_op[static_cast<std::size_t>(OP::T)];
  EXPECT_EQ(t_bucket.count, 2u);
  EXPECT_DOUBLE_EQ(t_bucket.flops, 64.0);
  EXPECT_EQ(m.by_op[static_cast<std::size_t>(OP::H)].count, 1u);
  EXPECT_EQ(m.by_op[static_cast<std::size_t>(OP::CX)].count, 1u);
  EXPECT_EQ(m.by_op[static_cast<std::size_t>(OP::RZ)].count, 0u);
}

// --- footprints: the priced amplitudes are what each kernel touches -------

// For every pattern × body op, at n = 5 and 7, with the operands low and
// high (reversed for two-qubit ops): the per-element reference kernel,
// run over the gate's whole work range on a one-partition PeerSpace,
// counts 2 gets and 2 puts per amplitude gate_cost prices. On a random
// state it changes exactly that many amplitudes; every other one stays
// byte for byte as it was.
TEST(PerfModel, FootprintMatchesEveryKernel) {
  for (const IdxType n : {IdxType{5}, IdxType{7}}) {
    const auto dim = static_cast<std::size_t>(pow2(n));
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<ValType> re0(dim);
    std::vector<ValType> im0(dim);
    for (std::size_t k = 0; k < dim; ++k) {
      re0[k] = rng.next_gaussian();
      im0[k] = rng.next_gaussian();
    }
    kernels::for_each_unitary([&]<OP op, kernels::Pat P, class B>() {
      constexpr bool two = kernels::Pattern<P>::kTwoQubit;
      const std::pair<IdxType, IdxType> placements[] = {
          {0, two ? 1 : -1}, {n - 1, two ? 1 : -1}};
      for (const auto& [a, b] : placements) {
        Gate g = make_gate(op, a, b);
        g.theta = 0.613;
        g.phi = -0.35;
        g.lam = 1.2;
        ValType coef[kernels::kMaxCoefRows] = {};
        kernels::fill_coef(g, coef, 1, 0);
        std::vector<ValType> re = re0;
        std::vector<ValType> im = im0;
        ValType* const real_parts[] = {re.data()};
        ValType* const imag_parts[] = {im.data()};
        std::uint64_t per_dest[1] = {0};
        PeerTraffic traffic;
        traffic.per_dest = per_dest;
        PeerSpace sp;
        sp.real_parts = real_parts;
        sp.imag_parts = imag_parts;
        sp.lg_part = n;
        sp.dim = pow2(n);
        sp.traffic = &traffic;
        kernels::solo_kernel<P, B, kernels::ScalarLane>(
            kernels::UGate{g, coef, 1}, sp, 0, kernels::gate_work_items(g, n));

        const double amps = obs::gate_cost(g, n).amps;
        const std::string what = g.str() + " on " + std::to_string(n);
        EXPECT_EQ(static_cast<double>(traffic.local_access), 4 * amps)
            << what;
        EXPECT_EQ(traffic.remote_access, 0u) << what;
        std::size_t changed = 0;
        for (std::size_t k = 0; k < dim; ++k) {
          if (std::memcmp(&re[k], &re0[k], sizeof(ValType)) != 0 ||
              std::memcmp(&im[k], &im0[k], sizeof(ValType)) != 0) {
            ++changed;
          }
        }
        EXPECT_EQ(static_cast<double>(changed), amps) << what;
      }
    });
  }
}

// --- fused diagonal windows ----------------------------------------------

TEST(PerfModel, FusedDiagonalRunCollapsesToOneStatePass) {
  // Four T gates on 10 qubits: per-gate each sweeps the |1> half
  // (512 amps * 32 B), but scheduled together they form one blocked
  // window capped at a single full-state pass (1024 * 32 B).
  Circuit c(10);
  c.t(0).t(1).t(2).t(3);
  const Schedule s = build_schedule(c, 6);
  ASSERT_TRUE(s.has_blocked());

  const obs::RunModel m = obs::model_run(c, &s);
  EXPECT_DOUBLE_EQ(m.bytes, 4 * 512 * 32.0);
  EXPECT_DOUBLE_EQ(m.bytes_sched, 1024 * 32.0); // min(sum, one pass) = pass
  ASSERT_EQ(m.windows.size(), 1u);
  EXPECT_TRUE(m.windows[0].blocked);
  EXPECT_EQ(m.windows[0].gates, 4u);
  EXPECT_DOUBLE_EQ(m.windows[0].bytes, 1024 * 32.0);
  EXPECT_DOUBLE_EQ(m.flops, 4 * 4 * 512.0); // arithmetic is never elided
}

TEST(PerfModel, CheapDiagonalWindowUndercutsAFullPass) {
  // Two CZ gates touch only the |11> quarter each: their summed traffic
  // (2 * 256 * 32 B) is below one full pass, and the window keeps the
  // smaller figure.
  Circuit c(10);
  c.cz(0, 1).cz(2, 3);
  const Schedule s = build_schedule(c, 6);
  ASSERT_TRUE(s.has_blocked());

  const obs::RunModel m = obs::model_run(c, &s);
  EXPECT_DOUBLE_EQ(m.bytes_sched, 2 * 256 * 32.0);
  EXPECT_LT(m.bytes_sched, 1024 * 32.0);
}

// --- remote bytes: the remap report's pricing ----------------------------

TEST(PerfModel, RemoteBytesHandCounts) {
  // n = 6 on partitions of 2^5 amplitudes: a gate with an operand on
  // qubit 5 pairs amplitudes across them and costs its model bytes;
  // measure and reset are per-partition reductions and cost none.
  const IdxType n = 6;
  const IdxType lg_part = 5;
  const auto remote = [&](const std::function<void(Circuit&)>& add) {
    Circuit c(n);
    add(c);
    return obs::remote_bytes(c, lg_part);
  };
  EXPECT_EQ(remote([](Circuit& c) { c.h(5); }), 2048u);   // 64 amps
  EXPECT_EQ(remote([](Circuit& c) { c.t(5); }), 1024u);   // |1> half
  EXPECT_EQ(remote([](Circuit& c) { c.cz(0, 5); }), 512u); // |11>
  EXPECT_EQ(remote([](Circuit& c) { c.swap(4, 5); }), 1024u);
  EXPECT_EQ(remote([](Circuit& c) { c.cx(1, 2); }), 0u);  // local
  EXPECT_EQ(remote([](Circuit& c) { c.measure(5, 0); }), 0u);
  EXPECT_EQ(remote([](Circuit& c) { c.reset(5); }), 0u);
  EXPECT_EQ(remote([](Circuit& c) { c.h(5).t(5).cx(1, 2); }), 3072u);
}

// A remapped run's report prices its input and its emitted circuit (the
// inserted swaps included) with the model.
TEST(PerfModel, RemapReportIsPricedByTheModel) {
  const Circuit c = circuits::qft(8);
  SimConfig cfg;
  cfg.remap = 1;
  PeerSim peer(8, 2, cfg);
  peer.run(c);
  const obs::RemapStats& st = peer.last_report().remap;
  ASSERT_TRUE(st.active);
  EXPECT_EQ(st.modeled_remote_bytes_before, obs::remote_bytes(c, 7));
  EXPECT_EQ(st.modeled_remote_bytes_after,
            obs::remote_bytes(remap_for_partition(c, 7).circuit, 7));
  EXPECT_LT(st.modeled_remote_bytes_after, st.modeled_remote_bytes_before);
}

// --- counter fallback ----------------------------------------------------

TEST(PerfModel, ForcedUnavailableCountersStayWellFormed) {
  obs::CounterSampler::force_unavailable_for_testing(true);
  {
    obs::CounterSampler sampler(true);
    sampler.start();
    sampler.stop();
    const obs::CounterSample cs = sampler.sample();
    EXPECT_FALSE(cs.available);
    EXPECT_FALSE(cs.error.empty());
    EXPECT_EQ(cs.cycles, 0u);
    EXPECT_EQ(cs.instructions, 0u);
    EXPECT_EQ(cs.llc_loads, 0u);
    EXPECT_EQ(cs.llc_misses, 0u);
  }
  obs::CounterSampler::force_unavailable_for_testing(false);

  // A sampler that was never enabled is inert, not an error.
  const obs::CounterSample off = obs::CounterSampler(false).sample();
  EXPECT_FALSE(off.available);
}

TEST(PerfModel, FoldRooflineDegradesToModelOnly) {
  Circuit c(8);
  c.h(0).cx(0, 1).t(2);
  const obs::RunModel model = obs::model_run(c);

  obs::RunReport rep;
  rep.wall_seconds = 1e-3;
  obs::CounterSample cs;
  cs.error = "EPERM";
  obs::fold_roofline(rep, model, cs, /*peak_gbps=*/10.0, "test", 0, 0);

  EXPECT_TRUE(rep.roofline.enabled);
  EXPECT_DOUBLE_EQ(rep.roofline.model_bytes, model.bytes);
  EXPECT_DOUBLE_EQ(rep.roofline.model_gbps, model.bytes / 1e-3 / 1e9);
  EXPECT_DOUBLE_EQ(rep.roofline.attainment, rep.roofline.model_gbps / 10.0);
  EXPECT_GT(rep.roofline.ai, 0.0);
  EXPECT_FALSE(rep.roofline.counters);
  EXPECT_EQ(rep.roofline.counters_error, "EPERM");
  EXPECT_DOUBLE_EQ(rep.roofline.measured_gbps, 0.0);
  EXPECT_TRUE(rep.roofline.worst.empty()) << "needs profiled seconds";

  const std::string text = rep.summary();
  EXPECT_NE(text.find("roofline"), std::string::npos);
  EXPECT_NE(text.find("model-only"), std::string::npos);
}

// --- end-to-end + JSON schema --------------------------------------------

TEST(PerfModel, SingleSimRooflineReportIsAdditiveValidJson) {
  obs::CounterSampler::force_unavailable_for_testing(true);
  SimConfig cfg;
  cfg.roofline = true;
  cfg.profile = true; // worst-attainment table needs per-op seconds
  Circuit c(6);
  for (IdxType q = 0; q < 6; ++q) c.h(q);
  c.cx(0, 1).t(2).t(3).cz(4, 5);

  SingleSim sim(6, cfg);
  sim.run(c);
  const obs::RunReport rep = sim.last_report();
  obs::CounterSampler::force_unavailable_for_testing(false);

  EXPECT_TRUE(rep.roofline.enabled);
  EXPECT_GT(rep.roofline.model_bytes, 0.0);
  EXPECT_GT(rep.roofline.peak_gbps, 0.0);
  EXPECT_FALSE(rep.roofline.counters) << "forced-EPERM run";
  EXPECT_FALSE(rep.roofline.worst.empty()) << "profiled + peak > 0";
  for (const auto& w : rep.roofline.worst) {
    EXPECT_GT(w.count, 0u);
    EXPECT_GT(w.bytes, 0.0);
    EXPECT_TRUE(std::isfinite(w.gbps));
  }

  const std::string json = obs::to_json(rep);
  std::size_t err = 0;
  EXPECT_TRUE(obs::jsonlite::valid(json, &err))
      << "JSON error at byte " << err;
  // Additive schema: every pre-roofline key survives, roofline joins them.
  for (const char* key :
       {"\"schema\":\"svsim-report-v1\"", "\"backend\"", "\"gates\"",
        "\"sched\"", "\"health\"", "\"roofline\"", "\"peak_gbps\"",
        "\"counters\"", "\"worst\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(PerfModel, RooflineOffByDefault) {
  SingleSim sim(4);
  Circuit c(4);
  c.h(0).cx(0, 1);
  sim.run(c);
  EXPECT_FALSE(sim.last_report().roofline.enabled);
  // The JSON stays valid with the section disabled.
  std::size_t err = 0;
  EXPECT_TRUE(obs::jsonlite::valid(obs::to_json(sim.last_report()), &err));
}

TEST(PerfModel, StreamPeakScalesWithWorkers) {
  const double one = machine::host_peak_gbps(1);
  EXPECT_GT(one, 0.0);
  // SVSIM_PEAK_GBPS (absolute machine total) aside, the per-worker
  // STREAM model is linear in the worker count.
  const machine::Platform& p = machine::amd_epyc_7742();
  EXPECT_DOUBLE_EQ(machine::stream_peak_gbps(p, 4),
                   4.0 * machine::stream_peak_gbps(p, 1));
}

} // namespace
} // namespace svsim
