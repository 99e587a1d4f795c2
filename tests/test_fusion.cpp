// Tests for the gate-fusion passes: ZYZ resynthesis round trips, state
// equivalence on random circuits, the specific peephole rules, boundary
// behaviour around non-unitary operations, and the pipeline's pair
// fusion (fuse_pairs through fuse_stage) against the oracle.
#include <gtest/gtest.h>

#include <cmath>

#include "circuits/qasmbench.hpp"
#include "common/rng.hpp"
#include "core/generalized_sim.hpp"
#include "core/pipeline.hpp"
#include "core/single_sim.hpp"
#include "ir/fusion.hpp"
#include "testing/oracle.hpp"
#include "testing/rand_circuit.hpp"

namespace svsim {
namespace {

TEST(U3FromMatrix, RoundTripsNamedGates) {
  for (const OP op : {OP::X, OP::Y, OP::Z, OP::H, OP::S, OP::SDG, OP::T,
                      OP::TDG, OP::RX, OP::RY, OP::RZ, OP::U1, OP::U2,
                      OP::U3}) {
    Gate g = make_gate(op, 0);
    g.theta = 0.93;
    g.phi = -0.41;
    g.lam = 1.7;
    const Mat2 u = matrix_1q(g);
    const Gate back = u3_from_matrix(u, 0);
    EXPECT_LT(mat_distance(matrix_1q(back), u, /*up_to_phase=*/true), 1e-10)
        << op_name(op);
  }
}

TEST(U3FromMatrix, RoundTripsRandomProducts) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    Mat2 u = {Complex{1, 0}, {}, {}, Complex{1, 0}};
    for (int k = 0; k < 5; ++k) {
      Gate g = make_gate1p(OP::U3, rng.uniform(-PI, PI), 0);
      g.phi = rng.uniform(-PI, PI);
      g.lam = rng.uniform(-PI, PI);
      u = matmul(matrix_1q(g), u);
    }
    const Gate back = u3_from_matrix(u, 0);
    EXPECT_LT(mat_distance(matrix_1q(back), u, true), 1e-9);
  }
}

TEST(U3FromMatrix, RejectsNonUnitary) {
  const Mat2 bad = {Complex{2, 0}, {}, {}, Complex{1, 0}};
  EXPECT_THROW(u3_from_matrix(bad, 0), Error);
}

TEST(Fusion, CollapsesRunsIntoSingleU3) {
  Circuit c(1);
  c.h(0).t(0).s(0).rx(0.3, 0).rz(-0.8, 0);
  FusionStats st;
  const Circuit f = fuse_gates(c, &st);
  EXPECT_EQ(f.n_gates(), 1);
  EXPECT_EQ(f.gates()[0].op, OP::U3);
  EXPECT_EQ(st.fused_1q, 5);
}

TEST(Fusion, SingleGatesStayVerbatim) {
  // A lone T must remain a T (its specialized kernel touches half the
  // memory a u3 would).
  Circuit c(2);
  c.t(0).cx(0, 1).h(1);
  const Circuit f = fuse_gates(c);
  ASSERT_EQ(f.n_gates(), 3);
  EXPECT_EQ(f.gates()[0].op, OP::T);
  EXPECT_EQ(f.gates()[1].op, OP::CX);
  EXPECT_EQ(f.gates()[2].op, OP::H);
}

TEST(Fusion, DropsIdentityRuns) {
  Circuit c(1);
  c.h(0).h(0).s(0).sdg(0).t(0).tdg(0).id(0);
  FusionStats st;
  const Circuit f = fuse_gates(c, &st);
  EXPECT_EQ(f.n_gates(), 0);
  EXPECT_GE(st.dropped_identity, 6);
}

TEST(Fusion, CancelsAdjacentInverse2QGates) {
  Circuit c(3);
  c.cx(0, 1).cx(0, 1).swap(1, 2).swap(1, 2).crz(0.7, 0, 2).crz(-0.7, 0, 2);
  FusionStats st;
  const Circuit f = fuse_gates(c, &st);
  EXPECT_EQ(f.n_gates(), 0);
  EXPECT_EQ(st.cancelled_2q, 6);
}

TEST(Fusion, DoesNotCancelAcrossInterveningGates) {
  Circuit c(3);
  c.cx(0, 1).x(1).cx(0, 1); // X on the target blocks cancellation
  const Circuit f = fuse_gates(c);
  EXPECT_EQ(f.n_gates(), 3);

  Circuit d(3);
  d.cx(0, 1).x(2).cx(0, 1); // spectator qubit does NOT block
  const Circuit fd = fuse_gates(d);
  EXPECT_EQ(fd.count_op(OP::CX), 0);
}

TEST(Fusion, HHPairAroundCxStillCancels) {
  // cx, h h (identity, dropped), cx -> everything vanishes.
  Circuit c(2);
  c.cx(0, 1).h(1).h(1).cx(0, 1);
  const Circuit f = fuse_gates(c);
  EXPECT_EQ(f.n_gates(), 0);
}

TEST(Fusion, NonUnitaryOpsAreBoundaries) {
  Circuit c(2);
  c.h(0).measure(0, 0).h(0);
  const Circuit f = fuse_gates(c);
  // The two H's must not merge across the measurement.
  ASSERT_EQ(f.n_gates(), 3);
  EXPECT_EQ(f.gates()[1].op, OP::M);

  Circuit d(2);
  d.cx(0, 1).barrier().cx(0, 1);
  const Circuit fd = fuse_gates(d);
  EXPECT_EQ(fd.count_op(OP::CX), 2); // barrier blocks cancellation
}

class FusionEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FusionEquivalenceTest, FusedCircuitGivesSameStateUpToPhase) {
  const IdxType n = 7;
  const Circuit c = circuits::random_circuit(n, 250, GetParam());
  FusionStats st;
  const Circuit f = fuse_gates(c, &st);
  EXPECT_LT(f.n_gates(), c.n_gates());

  SingleSim a(n), b(n);
  a.run(c);
  b.run(f);
  EXPECT_NEAR(a.state().fidelity(b.state()), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionEquivalenceTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Fusion, ShrinksQasmbenchCircuits) {
  for (const char* id : {"multiply_n13", "dnn_n16", "sat_n11", "seca_n11"}) {
    const Circuit c = circuits::make_table4(id);
    FusionStats st;
    const Circuit f = fuse_gates(c, &st);
    EXPECT_LT(f.n_gates(), c.n_gates()) << id;
    EXPECT_EQ(st.gates_before, c.n_gates()) << id;
    EXPECT_EQ(st.gates_after, f.n_gates()) << id;
    if (std::string(id) != "dnn_n16") {
      // Functional check on a backend (dnn's 16 qubits are fine too but
      // keep the sweep quick).
      SingleSim a(c.n_qubits()), b(c.n_qubits());
      a.run(c);
      b.run(f);
      EXPECT_NEAR(a.state().fidelity(b.state()), 1.0, 1e-8) << id;
    }
  }
}

TEST(Fusion, IdempotentOnOptimizedCircuit) {
  const Circuit c = circuits::make_table4("qft_n15");
  const Circuit once = fuse_gates(c);
  const Circuit twice = fuse_gates(once);
  EXPECT_EQ(twice.n_gates(), once.n_gates());
}

// --- regressions found by the differential/fuzzing campaign ---

TEST(Fusion, CancelsSymmetricPairsWithSwappedOperands) {
  // cz/swap/cu1/rzz/rxx act identically with either operand order, so an
  // inverse pair written with swapped operands must still cancel. The
  // exact-order comparison used to miss every such pair.
  {
    Circuit c(3);
    c.cz(0, 1);
    c.cz(1, 0);
    EXPECT_EQ(fuse_gates(c).n_gates(), 0);
  }
  {
    Circuit c(3);
    c.swap(2, 0);
    c.swap(0, 2);
    EXPECT_EQ(fuse_gates(c).n_gates(), 0);
  }
  {
    Circuit c(3);
    c.rzz(0.8, 2, 0);
    c.rzz(-0.8, 0, 2);
    EXPECT_EQ(fuse_gates(c).n_gates(), 0);
  }
  {
    Circuit c(3);
    c.rxx(0.31, 0, 1);
    c.rxx(-0.31, 1, 0);
    EXPECT_EQ(fuse_gates(c).n_gates(), 0);
  }
  {
    Circuit c(3);
    c.cu1(1.1, 0, 2);
    c.cu1(-1.1, 2, 0);
    EXPECT_EQ(fuse_gates(c).n_gates(), 0);
  }
}

TEST(Fusion, AsymmetricPairsWithSwappedOperandsDoNotCancel) {
  // cx(0,1) followed by cx(1,0) is NOT the identity.
  {
    Circuit c(2);
    c.cx(0, 1);
    c.cx(1, 0);
    EXPECT_EQ(fuse_gates(c).n_gates(), 2);
  }
  {
    Circuit c(2);
    c.crx(0.4, 0, 1);
    c.crx(-0.4, 1, 0);
    EXPECT_EQ(fuse_gates(c).n_gates(), 2);
  }
}

TEST(Fusion, InverseAnglesCancelWithinTolerance) {
  // Angles that differ by a rounding step (a parser-evaluated expression
  // against its literal negation) must still be recognized as inverse;
  // exact float equality used to be required.
  Circuit c(2);
  c.rzz(0.7, 0, 1);
  c.rzz(-0.7 + 1e-13, 0, 1);
  EXPECT_EQ(fuse_gates(c).n_gates(), 0);

  // Clearly different angles must not cancel.
  Circuit d(2);
  d.rzz(0.7, 0, 1);
  d.rzz(-0.6, 0, 1);
  EXPECT_EQ(fuse_gates(d).n_gates(), 2);
}

TEST(Fusion, SwappedOperandCancellationPreservesState) {
  Circuit c(3);
  c.h(0);
  c.h(1);
  c.h(2);
  c.rzz(0.8, 2, 0);
  c.t(1); // intervening gate on an uninvolved qubit
  c.rzz(-0.8, 0, 2);
  c.cz(1, 2);
  c.cz(2, 1);
  c.crz(0.9, 0, 1);

  SingleSim plain(3), fused(3);
  plain.run(c);
  FusionStats stats;
  fused.run(fuse_gates(c, &stats));
  EXPECT_EQ(stats.cancelled_2q, 4);
  EXPECT_LT(fused.state().max_diff(plain.state()), 1e-12);
}

// --- pair fusion: the dispatch pipeline's fuse stage ----------------------

namespace pairs {

/// A QV-style pair block, u3·u3·cx·u3·u3·cx with the second cx reversed.
void qv_block(Circuit& c, IdxType a, IdxType b, Rng& rng) {
  const auto u3 = [&](IdxType q) {
    c.u3(rng.uniform(0, PI), rng.uniform(-PI, PI), rng.uniform(-PI, PI), q);
  };
  u3(a);
  u3(b);
  c.cx(a, b);
  u3(a);
  u3(b);
  c.cx(b, a);
}

/// Random circuits with mid-circuit measure, reset and barriers.
testing::CircuitGenOptions options(IdxType n) {
  testing::CircuitGenOptions opt;
  opt.n_qubits = n;
  opt.n_gates = 120;
  opt.p_measure = 0.04;
  opt.p_reset = 0.03;
  opt.p_barrier = 0.03;
  return opt;
}

/// `c` split at its non-unitary ops: the unitary segments, and the ops.
std::pair<std::vector<Circuit>, std::vector<Gate>> segments(const Circuit& c) {
  std::vector<Circuit> segs(1, Circuit(c.n_qubits()));
  std::vector<Gate> cuts;
  for (const Gate& g : c.gates()) {
    if (!is_unitary_op(g.op)) {
      cuts.push_back(g);
      segs.emplace_back(c.n_qubits());
    } else if (g.op == OP::DENSE2) {
      segs.back().dense2(c.dense_matrix(g), g.qb0, g.qb1);
    } else {
      segs.back().append(g);
    }
  }
  return {segs, cuts};
}

} // namespace pairs

// A QV block becomes one dense op of its six members; a lone cx, or a run
// priced below two dense sweeps (cz·cz: half a sweep), stays as it was.
TEST(Fusion, PairBlocksFuseQvBlocksOnly) {
  Rng rng(5);
  Circuit c(6);
  pairs::qv_block(c, 4, 1, rng);
  c.cx(2, 3);
  c.cz(0, 5).cz(5, 0);
  FusionStats st;
  const auto f = fuse_stage(c, resolve(SimConfig{}), 6, &st);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(st.dense_blocks, 1);
  EXPECT_EQ(st.dense_absorbed, 6);
  ASSERT_EQ(f->count_op(OP::DENSE2), 1);
  EXPECT_EQ(f->count_op(OP::CX), 1);
  EXPECT_EQ(f->count_op(OP::CZ), 2);
  for (const Gate& g : f->gates()) {
    if (g.op == OP::DENSE2) {
      EXPECT_EQ(g.qb0, 1); // (min, max) of the pair
      EXPECT_EQ(g.qb1, 4);
    }
  }
  testing::OracleSim want(6), got(6);
  want.run(c);
  got.run(*f);
  EXPECT_LT(got.state().max_diff(want.state()), 1e-12);
}

// GeneralizedSim, the generic-matrix reference the kernel tests compare
// against, executes a circuit that holds dense ops (it reads the matrix
// from the circuit); the op has no OpenQASM form.
TEST(Fusion, PairBlocksRunOnGeneralizedSim) {
  Rng rng(9);
  Circuit c(5);
  pairs::qv_block(c, 4, 0, rng);
  pairs::qv_block(c, 1, 3, rng);
  pairs::qv_block(c, 2, 4, rng);
  const auto f = fuse_stage(c, resolve(SimConfig{}), 5);
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->count_op(OP::DENSE2), 3);
  EXPECT_THROW(f->to_qasm(), Error); // no OpenQASM form
  testing::OracleSim want(5);
  want.run(c);

  GeneralizedSim generic(5);
  generic.run(*f);
  EXPECT_LT(generic.state().max_diff(want.state()), 1e-12);
}

// Random circuits with measure, reset and barrier: the fused circuit and
// the pipeline that fuses match the oracle to 1e-12 (same seed, so every
// measurement draws alike); no block spans a non-unitary op or a barrier
// (the fused circuit cuts at the same ops, segment unitaries equal); no
// dense op has an operand at or above lg_part; each replaced two or more
// gates; and with the plan off (sched_window = 0) no dense op runs.
TEST(Fusion, PairBlocksMatchOracleAndKeepTheirBounds) {
  std::uint64_t dense_total = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const IdxType n = 5 + static_cast<IdxType>(seed % 3);
    const Circuit c = testing::random_circuit(pairs::options(n), seed);
    for (const IdxType lg_part : {n, n - 1, n - 2}) {
      const std::string what = "seed " + std::to_string(seed) + " n " +
                               std::to_string(n) + " lg_part " +
                               std::to_string(lg_part);
      FusionStats st;
      const auto f = fuse_stage(c, resolve(SimConfig{}), lg_part, &st);
      ASSERT_NE(f, nullptr) << what;
      dense_total += static_cast<std::uint64_t>(st.dense_blocks);
      EXPECT_EQ(f->count_op(OP::DENSE2), st.dense_blocks) << what;
      EXPECT_GE(st.dense_absorbed, 2 * st.dense_blocks) << what;
      EXPECT_EQ(f->n_gates(),
                c.n_gates() - st.dense_absorbed + st.dense_blocks)
          << what;
      for (const Gate& g : f->gates()) {
        if (g.op != OP::DENSE2) continue;
        EXPECT_LT(g.qb0, lg_part) << what;
        EXPECT_LT(g.qb1, lg_part) << what;
      }

      testing::OracleSim want(n, seed), got(n, seed);
      want.run(c);
      got.run(*f);
      EXPECT_LT(got.state().max_diff(want.state()), 1e-12) << what;
      EXPECT_EQ(got.cbits(), want.cbits()) << what;

      const auto [in_segs, in_cuts] = pairs::segments(c);
      const auto [out_segs, out_cuts] = pairs::segments(*f);
      ASSERT_EQ(out_cuts.size(), in_cuts.size()) << what;
      for (std::size_t k = 0; k < in_cuts.size(); ++k) {
        EXPECT_EQ(out_cuts[k].op, in_cuts[k].op) << what;
        EXPECT_EQ(out_cuts[k].qb0, in_cuts[k].qb0) << what;
        EXPECT_EQ(out_cuts[k].cbit, in_cuts[k].cbit) << what;
      }
      for (std::size_t k = 0; k < in_segs.size(); ++k) {
        testing::OracleSim a(n, seed), b(n, seed);
        Circuit prep(n);
        for (IdxType q = 0; q < n; ++q) prep.h(q).t(q);
        a.run(prep);
        b.run(prep);
        a.run(in_segs[k]);
        b.run(out_segs[k]);
        EXPECT_LT(b.state().max_diff(a.state()), 1e-12)
            << what << " segment " << k;
      }
    }

    SimConfig on;
    on.seed = seed;
    SingleSim sim(n, on);
    sim.run(c);
    testing::OracleSim want(n, seed);
    want.run(c);
    EXPECT_LT(sim.state().max_diff(want.state()), 1e-12) << seed;

    SimConfig off = on;
    off.sched_window = 0;
    EXPECT_EQ(fuse_stage(c, resolve(off), n), nullptr);
    SingleSim plain(n, off);
    plain.run(c);
    EXPECT_EQ(plain.last_report().fusion.dense_blocks, 0) << seed;
    EXPECT_EQ(plain.last_report().fusion.dense_absorbed, 0) << seed;
  }
  EXPECT_GT(dense_total, 0u); // the rule fired somewhere
}

} // namespace
} // namespace svsim
