// Tests for the communication-avoiding qubit remapping pass: layout
// bookkeeping, virtual readout through layout snapshots, LRU eviction,
// restore_layout round-trips, and measured remote-traffic reduction on
// the scale-out backends.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "circuits/qasmbench.hpp"
#include "core/coarse_msg_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "ir/remap.hpp"
#include "obs/perfmodel.hpp"

namespace svsim {
namespace {

TEST(Remap, LocalCircuitIsUntouched) {
  Circuit c(6);
  c.h(0).cx(1, 2).t(3);
  const RemapResult r = remap_for_partition(c, 4);
  EXPECT_EQ(r.swaps_inserted, 0);
  EXPECT_EQ(r.circuit.n_gates(), c.n_gates());
  std::vector<IdxType> identity(6);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(r.layout, identity);
  EXPECT_TRUE(r.ma_layouts.empty());
}

TEST(Remap, EveryEmittedUnitaryGateIsLocalExceptSwaps) {
  const Circuit c = circuits::qft(10);
  const IdxType local_bits = 7;
  const RemapResult r = remap_for_partition(c, local_bits);
  for (const Gate& g : r.circuit.gates()) {
    if (g.op == OP::SWAP) continue; // the paid communication steps
    if (!is_unitary_op(g.op)) continue; // measure/reset stay where they are
    const int nq = op_info(g.op).n_qubits;
    if (nq >= 1) {
      EXPECT_LT(g.qb0, local_bits) << g.str();
    }
    if (nq >= 2) {
      EXPECT_LT(g.qb1, local_bits) << g.str();
    }
  }
  EXPECT_GT(r.swaps_inserted, 0);
  EXPECT_LT(obs::remote_bytes(r.circuit, local_bits),
            obs::remote_bytes(c, local_bits));
}

TEST(Remap, DeterministicSwapSequence) {
  const Circuit c = circuits::qft(10);
  const RemapResult a = remap_for_partition(c, 6, 32);
  const RemapResult b = remap_for_partition(c, 6, 32);
  ASSERT_EQ(a.circuit.n_gates(), b.circuit.n_gates());
  const auto& ga = a.circuit.gates();
  const auto& gb = b.circuit.gates();
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_EQ(ga[i].op, gb[i].op) << i;
    EXPECT_EQ(ga[i].qb0, gb[i].qb0) << i;
    EXPECT_EQ(ga[i].qb1, gb[i].qb1) << i;
  }
  EXPECT_EQ(a.layout, b.layout);
}

// Regression: with an exhausted lookahead window every local slot ties on
// next-use distance, and the old strictly-greater victim scan always
// evicted slot 0 — the second remote gate would evict the qubit the first
// one just brought in. The LRU tie-break must pick an untouched slot.
TEST(Remap, EvictionTieBreakDoesNotThrashOneSlot) {
  Circuit c(6);
  c.h(4).h(5);
  const RemapResult r = remap_for_partition(c, 4, /*lookahead=*/1);
  EXPECT_EQ(r.swaps_inserted, 2);
  std::vector<IdxType> h_targets;
  std::vector<std::pair<IdxType, IdxType>> swaps;
  for (const Gate& g : r.circuit.gates()) {
    if (g.op == OP::SWAP) swaps.emplace_back(g.qb0, g.qb1);
    if (g.op == OP::H) h_targets.push_back(g.qb0);
  }
  ASSERT_EQ(h_targets.size(), 2u);
  // The thrashing pass put both H gates on physical slot 0.
  EXPECT_NE(h_targets[0], h_targets[1]);
  // And the second swap must not evict the first gate's operand.
  ASSERT_EQ(swaps.size(), 2u);
  EXPECT_NE(swaps[1].second, h_targets[0]);
}

class RemapEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RemapEquivalenceTest, RemapPlusRestoreMatchesOriginal) {
  const IdxType n = 8;
  const Circuit c = circuits::random_circuit(n, 200, GetParam());
  for (const IdxType local_bits : {IdxType{4}, IdxType{6}}) {
    RemapResult r = remap_for_partition(c, local_bits);
    restore_layout(r.circuit, r.layout);

    SingleSim a(n), b(n);
    a.run(c);
    b.run(r.circuit);
    EXPECT_LT(a.state().max_diff(b.state()), 1e-11)
        << "seed " << GetParam() << " local_bits " << local_bits;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RemapEquivalenceTest,
                         ::testing::Values(10u, 20u, 30u, 40u));

TEST(Remap, RestoreLayoutReturnsIdentityPermutation) {
  Circuit c(5);
  std::vector<IdxType> layout = {3, 0, 4, 1, 2};
  restore_layout(c, layout);
  // Applying the emitted swaps to the permutation must give identity:
  // simulate on basis states instead — each |e_k> must map back.
  SingleSim sim(5);
  for (IdxType logical = 0; logical < 5; ++logical) {
    StateVector init(5);
    // Logical qubit `logical` currently sits at physical layout[logical]:
    // prepare that physical bit set.
    init.amps[static_cast<std::size_t>(
        pow2(std::vector<IdxType>{3, 0, 4, 1, 2}[static_cast<std::size_t>(
            logical)]))] = 1.0;
    sim.load_state(init);
    sim.run(c);
    EXPECT_NEAR(sim.state().prob_of(pow2(logical)), 1.0, 1e-12) << logical;
  }
}

// Randomized audit: for 1000 random layouts, apply restore_layout's
// emitted swaps to the permutation symbolically; every one must compose
// to the identity.
TEST(Remap, RestoreLayoutRoundTripAudit) {
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 1000; ++trial) {
    const IdxType n = 2 + static_cast<IdxType>(rng() % 11); // 2..12
    std::vector<IdxType> layout(static_cast<std::size_t>(n));
    std::iota(layout.begin(), layout.end(), 0);
    std::shuffle(layout.begin(), layout.end(), rng);

    Circuit c(n);
    restore_layout(c, layout);

    // inverse[p] = logical qubit living at physical slot p; a SWAP(a, b)
    // exchanges the occupants of the two physical slots.
    std::vector<IdxType> inverse(static_cast<std::size_t>(n));
    for (IdxType l = 0; l < n; ++l) {
      inverse[static_cast<std::size_t>(layout[static_cast<std::size_t>(l)])] =
          l;
    }
    for (const Gate& g : c.gates()) {
      ASSERT_EQ(g.op, OP::SWAP) << "trial " << trial;
      std::swap(inverse[static_cast<std::size_t>(g.qb0)],
                inverse[static_cast<std::size_t>(g.qb1)]);
    }
    for (IdxType p = 0; p < n; ++p) {
      ASSERT_EQ(inverse[static_cast<std::size_t>(p)], p)
          << "trial " << trial << " n " << n;
    }
    // And never more swaps than elements out of place.
    EXPECT_LE(c.n_gates(), static_cast<IdxType>(n)) << "trial " << trial;
  }
}

// Regression: measure_all used to hard-throw out of the pass. It must now
// record a layout snapshot and ride through with the row index in cbit.
TEST(Remap, MeasureAllGetsLayoutSnapshot) {
  Circuit c(6);
  c.h(5).measure_all();
  const RemapResult r = remap_for_partition(c, 4);
  ASSERT_EQ(r.ma_layouts.size(), 6u); // one snapshot row
  bool saw_ma = false;
  for (const Gate& g : r.circuit.gates()) {
    if (g.op == OP::MA) {
      saw_ma = true;
      EXPECT_EQ(g.cbit, 0); // snapshot row index
    }
    // No physical restore epilogue: every swap precedes the readout.
    if (saw_ma) {
      EXPECT_NE(g.op, OP::SWAP);
    }
  }
  EXPECT_TRUE(saw_ma);
  // The snapshot is the live layout: logical 5 was swapped into the local
  // region, so its physical slot must be < 4.
  EXPECT_LT(r.ma_layouts[5], 4);
  EXPECT_EQ(r.layout, std::vector<IdxType>(r.ma_layouts.begin(),
                                           r.ma_layouts.end()));
}

TEST(Remap, MidCircuitMeasureAllSnapshotsEachLayout) {
  Circuit c(6);
  c.h(4).measure_all().h(5).measure_all();
  const RemapResult r = remap_for_partition(c, 4);
  ASSERT_EQ(r.ma_layouts.size(), 12u); // two snapshot rows
  std::vector<IdxType> rows;
  for (const Gate& g : r.circuit.gates()) {
    if (g.op == OP::MA) rows.push_back(g.cbit);
  }
  EXPECT_EQ(rows, (std::vector<IdxType>{0, 1}));
}

TEST(Remap, HandlesMeasureAndReset) {
  Circuit c(6);
  c.h(5).measure(5, 0).reset(5);
  const RemapResult r = remap_for_partition(c, 4);
  // The measured/reset qubit follows the layout; the classical bit is
  // unchanged. Neither op forces extra localization swaps of its own.
  bool saw_measure = false;
  bool saw_reset = false;
  for (const Gate& g : r.circuit.gates()) {
    if (g.op == OP::M) {
      saw_measure = true;
      EXPECT_LT(g.qb0, 4); // follows h(5)'s relocation
      EXPECT_EQ(g.cbit, 0);
    }
    if (g.op == OP::RESET) {
      saw_reset = true;
      EXPECT_LT(g.qb0, 4);
    }
  }
  EXPECT_TRUE(saw_measure);
  EXPECT_TRUE(saw_reset);
  EXPECT_EQ(r.swaps_inserted, 1); // only h(5) pays a swap
}

TEST(Remap, ValidatesLocalBits) {
  Circuit c(4);
  c.h(0);
  EXPECT_THROW(remap_for_partition(c, 0), Error);
  EXPECT_THROW(remap_for_partition(c, 9), Error);
}

// ---- Backend wiring: virtual readout end to end -------------------------

TEST(Remap, ReducesRemoteTrafficOnShmemBackend) {
  const Circuit c = circuits::qft(12);
  const int pes = 4; // partition bits = 10
  SimConfig off;
  off.remap = 0;
  ShmemSim plain(12, pes, off);
  plain.run(c);
  const auto before = plain.traffic();

  SimConfig on;
  on.remap = 1;
  ShmemSim remapped(12, pes, on);
  remapped.run(c);
  const auto after = remapped.traffic();

  EXPECT_LT(after.total_remote_ops(), before.total_remote_ops());
  const obs::RemapStats& st = remapped.last_report().remap;
  EXPECT_TRUE(st.enabled);
  EXPECT_TRUE(st.active);
  EXPECT_GT(st.swaps_inserted, 0u);
  EXPECT_LT(st.modeled_remote_bytes_after, st.modeled_remote_bytes_before);
  // state() unpermutes virtually, so the two agree bit-for-bit.
  EXPECT_EQ(plain.state().max_diff(remapped.state()), 0.0);
}

TEST(Remap, SampleBitstringsMatchUnremappedRun) {
  // Pure-unitary circuit + trailing sample(): the logical-order sweep
  // reads bitwise-identical amplitudes, so the bitstrings (and the RNG
  // stream) match the unremapped oracle exactly on every backend.
  const Circuit c = circuits::qft(10);
  SimConfig off;
  off.remap = 0;
  SimConfig on;
  on.remap = 1;
  const IdxType shots = 256;

  {
    ShmemSim a(10, 4, off), b(10, 4, on);
    a.run(c);
    b.run(c);
    EXPECT_EQ(a.sample(shots), b.sample(shots)) << "shmem";
  }
  {
    PeerSim a(10, 4, off), b(10, 4, on);
    a.run(c);
    b.run(c);
    EXPECT_EQ(a.sample(shots), b.sample(shots)) << "peer";
  }
  {
    CoarseMsgSim a(10, 4, off), b(10, 4, on);
    a.run(c);
    b.run(c);
    EXPECT_EQ(a.sample(shots), b.sample(shots)) << "coarse-msg";
  }
}

TEST(Remap, MidCircuitMeasureResetMatchesUnremappedRun) {
  // Mid-circuit measurement and reset under a live layout: the RNG draw
  // order is preserved (one draw per M), so with the same seed the
  // classical bits agree and the collapsed states agree to reduction
  // round-off.
  Circuit c(8);
  for (IdxType q = 0; q < 8; ++q) c.h(q);
  c.cx(6, 7).measure(7, 0).reset(6).h(6).measure(6, 1).cx(0, 5).measure_all();

  SimConfig off;
  off.remap = 0;
  off.seed = 4242;
  SimConfig on;
  on.remap = 1;
  on.seed = 4242;

  {
    ShmemSim a(8, 4, off), b(8, 4, on);
    a.run(c);
    b.run(c);
    EXPECT_EQ(a.cbits(), b.cbits()) << "shmem";
    EXPECT_LT(a.state().max_diff(b.state()), 1e-11) << "shmem";
  }
  {
    PeerSim a(8, 4, off), b(8, 4, on);
    a.run(c);
    b.run(c);
    EXPECT_EQ(a.cbits(), b.cbits()) << "peer";
    EXPECT_LT(a.state().max_diff(b.state()), 1e-11) << "peer";
  }
  {
    CoarseMsgSim a(8, 4, off), b(8, 4, on);
    a.run(c);
    b.run(c);
    EXPECT_EQ(a.cbits(), b.cbits()) << "coarse-msg";
    EXPECT_LT(a.state().max_diff(b.state()), 1e-11) << "coarse-msg";
  }
}

TEST(Remap, LayoutPersistsAcrossRunsAndResets) {
  SimConfig on;
  on.remap = 1;
  ShmemSim sim(10, 4, on);
  sim.run(circuits::qft(10)); // leaves a non-identity layout behind
  ASSERT_GT(sim.last_report().remap.swaps_inserted, 0u);

  // A second run must seed the pass with the live layout: state() stays
  // correct against a fresh unremapped reference of both circuits.
  Circuit second(10);
  second.h(9).cx(8, 9).t(0);
  sim.run(second);

  SimConfig off;
  off.remap = 0;
  ShmemSim ref(10, 4, off);
  ref.run(circuits::qft(10));
  ref.run(second);
  EXPECT_LT(ref.state().max_diff(sim.state()), 1e-12);

  // reset_state() must also clear the layout: |0...0> then an identity
  // run gives basis state 0 regardless of past permutations.
  sim.reset_state();
  Circuit idle(10);
  idle.x(0);
  sim.run(idle);
  EXPECT_NEAR(sim.state().prob_of(1), 1.0, 1e-12);
}

} // namespace
} // namespace svsim
