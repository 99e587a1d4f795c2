// Tests for the machine performance model: gate cost accounting, remote
// ownership arithmetic, and — most importantly — that the calibrated
// platforms reproduce the qualitative regimes of the paper's Figures 6-13
// (these lock the calibration so future edits cannot silently break a
// reproduced shape).
#include <gtest/gtest.h>

#include "circuits/qasmbench.hpp"
#include "machine/platforms.hpp"

namespace svsim::machine {
namespace {

namespace cb = svsim::circuits;

TEST(HighQubits, CountsOperandsAboveBoundary) {
  EXPECT_EQ(high_qubits(make_gate(OP::H, 3), 4), 0);
  EXPECT_EQ(high_qubits(make_gate(OP::H, 4), 4), 1);
  EXPECT_EQ(high_qubits(make_gate(OP::CX, 2, 5), 4), 1);
  EXPECT_EQ(high_qubits(make_gate(OP::CX, 6, 5), 4), 2);
  EXPECT_EQ(high_qubits(make_gate(OP::CX, 1, 2), 4), 0);
}

TEST(CostModel, MoreGatesCostMore) {
  const CostModel m(amd_epyc_7742());
  const Circuit small = cb::qft(10);
  Circuit big(10, CompoundMode::kDecompose);
  big.append(small);
  big.append(small);
  EXPECT_GT(m.single_device_ms(big, false),
            1.9 * m.single_device_ms(small, false));
}

TEST(CostModel, GeneralizedCostsMoreThanSpecialized) {
  const CostModel m(amd_epyc_7742());
  const Circuit c = cb::qft(12);
  EXPECT_GT(m.single_device_ms(c, false, true),
            1.5 * m.single_device_ms(c, false, false));
  // The specialized kernels touch half the amplitudes for T and all of
  // them for H; the generalized dense apply touches every amplitude for
  // both, and none for a barrier, which pays only its dispatch.
  Circuit t(12), h(12), bar(12);
  t.t(0);
  h.h(0);
  bar.barrier();
  EXPECT_DOUBLE_EQ(2 * m.single_device_ms(t, false, false),
                   m.single_device_ms(h, false, false));
  EXPECT_DOUBLE_EQ(m.single_device_ms(t, false, true),
                   m.single_device_ms(h, false, true));
  EXPECT_DOUBLE_EQ(m.single_device_ms(bar, false, false), 0.0);
  EXPECT_DOUBLE_EQ(m.single_device_ms(bar, false, true), 0.25e-3);
}

TEST(CostModel, SimdRoughlyHalvesIntelCpuTime) {
  const CostModel m(intel_xeon_8276m());
  const Circuit c = cb::qft(14);
  const double scalar = m.single_device_ms(c, false);
  const double simd = m.single_device_ms(c, true);
  EXPECT_NEAR(scalar / simd, 2.0, 0.3);
}

TEST(CostModel, RejectsNonPow2Workers) {
  const CostModel m(intel_xeon_8276m());
  const Circuit c = cb::qft(10);
  EXPECT_THROW(m.scale_up_ms(c, 3), Error);
  EXPECT_THROW(m.scale_out_ms(c, 12), Error);
}

// --- figure-shape locks ------------------------------------------------------

TEST(Fig6Shape, CpuWinsSmallGpuWinsLarge) {
  const CostModel cpu(amd_epyc_7742());
  const CostModel gpu(nvidia_v100_dgx2());
  const Circuit small = cb::make_table4("seca_n11");
  const Circuit large = cb::make_table4("qft_n15");
  EXPECT_LT(cpu.single_device_ms(small, false),
            gpu.single_device_ms(small, false));
  EXPECT_GT(cpu.single_device_ms(large, false),
            5.0 * gpu.single_device_ms(large, false));
}

TEST(Fig6Shape, Mi100PaysDispatchPenalty) {
  const CostModel v100(nvidia_v100_dgx2());
  const CostModel mi100(amd_mi100());
  const Circuit c = cb::make_table4("qft_n15");
  EXPECT_GT(mi100.single_device_ms(c, false),
            1.5 * v100.single_device_ms(c, false));
}

TEST(Fig7Shape, SweetSpotAt16To32Cores) {
  const CostModel m(intel_xeon_8276m());
  const Circuit c = cb::make_table4("qft_n15");
  double best = 1e300;
  int best_p = 1;
  for (const int p : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    const double ms = m.scale_up_ms(c, p, true);
    if (ms < best) {
      best = ms;
      best_p = p;
    }
  }
  EXPECT_GE(best_p, 16);
  EXPECT_LE(best_p, 32);
  EXPECT_GT(m.scale_up_ms(c, 256, true), 2.0 * m.scale_up_ms(c, 32, true));
}

TEST(Fig8Shape, KnlSweetSpotEarly) {
  const CostModel m(xeon_phi_7230());
  const Circuit small = cb::make_table4("seca_n11");
  const Circuit large = cb::make_table4("qft_n15");
  auto best_of = [&](const Circuit& c) {
    double best = 1e300;
    int best_p = 1;
    for (const int p : {1, 2, 4, 8, 16, 32, 64}) {
      const double ms = m.scale_up_ms(c, p, true);
      if (ms < best) {
        best = ms;
        best_p = p;
      }
    }
    return best_p;
  };
  EXPECT_LE(best_of(small), 2);
  EXPECT_LE(best_of(large), 8);
  EXPECT_GE(best_of(large), 2);
}

TEST(Fig9Shape, Dgx2StrongScalingWithSmallCircuitLag) {
  const CostModel m(nvidia_v100_dgx2());
  const Circuit small = cb::make_table4("seca_n11");
  const Circuit large = cb::make_table4("qft_n15");
  // Small circuit: no gain going 1 -> 2.
  EXPECT_GT(m.scale_up_ms(small, 2), 0.95 * m.scale_up_ms(small, 1));
  // Large circuit: every doubling up to 16 helps.
  double prev = m.scale_up_ms(large, 1);
  for (const int p : {2, 4, 8, 16}) {
    const double ms = m.scale_up_ms(large, p);
    EXPECT_LT(ms, prev) << p << " GPUs";
    prev = ms;
  }
  EXPECT_GT(m.scale_up_ms(large, 1) / m.scale_up_ms(large, 16), 3.0);
}

TEST(Fig12Shape, SummitCpuInterNodeDragAndWeakTotalScaling) {
  const CostModel m(summit_cpu());
  const Circuit cc18 = cb::make_table4("cc_n18");
  EXPECT_GT(m.scale_out_ms(cc18, 64), m.scale_out_ms(cc18, 32));
  const Circuit qft20 = cb::make_table4("qft_n20");
  const double gain = m.scale_out_ms(qft20, 32) / m.scale_out_ms(qft20, 1024);
  EXPECT_GT(gain, 1.0);
  EXPECT_LT(gain, 4.0);
}

TEST(Fig13Shape, SummitGpuStrongScaling) {
  const CostModel m(summit_gpu());
  const Circuit c = cb::make_table4("qft_n20");
  double prev = m.scale_out_ms(c, 4);
  for (const int p : {8, 16, 32, 64, 128, 256}) {
    const double ms = m.scale_out_ms(c, p);
    EXPECT_LT(ms, prev) << p << " GPUs";
    prev = ms;
  }
  EXPECT_GT(m.scale_out_ms(c, 4) / m.scale_out_ms(c, 1024), 5.0);
}

TEST(ScaleOutBreakdown, CommunicationShareGrowsWithPes) {
  const CostModel m(summit_cpu());
  const Gate h_high = make_gate(OP::H, 19);
  const auto b64 = m.scale_out_gate(h_high, 20, 64);
  const auto b1024 = m.scale_out_gate(h_high, 20, 1024);
  const double share64 =
      b64.remote_us / (b64.remote_us + b64.compute_us + b64.sync_us);
  const double share1024 =
      b1024.remote_us / (b1024.remote_us + b1024.compute_us + b1024.sync_us);
  EXPECT_GT(share1024, 0.3);
  EXPECT_GT(share64, 0.0);
}

TEST(Platforms, RegistryNamesAndArchs) {
  EXPECT_EQ(fig6_platforms().size(), 9u);
  EXPECT_EQ(amd_epyc_7742().arch, Arch::kCpu);
  EXPECT_EQ(nvidia_v100_dgx2().arch, Arch::kGpu);
  EXPECT_EQ(summit_gpu().arch, Arch::kGpu);
  EXPECT_GT(summit_cpu().out.workers_per_node, 1);
}

} // namespace
} // namespace svsim::machine
