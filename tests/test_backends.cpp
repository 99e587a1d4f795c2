// Backend equivalence: the same circuit, seed, and width must produce the
// same final state (exact amplitudes) on every backend and partitioning —
// single-device, peer scale-up (2/4/8 devices), SHMEM scale-out (2/4/8
// PEs), coarse-message baseline (2/4 ranks), and the generalized-matrix
// reference. Also checks the communication counters behave as the PGAS
// model predicts (low qubits = no remote traffic; high qubits = heavy).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/coarse_msg_sim.hpp"
#include "core/generalized_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"

namespace svsim {
namespace {

Circuit random_circuit(IdxType n, int n_gates, std::uint64_t seed) {
  Rng rng(seed);
  Circuit c(n, CompoundMode::kNative);
  const OP pool[] = {OP::H,   OP::X,   OP::Y,  OP::Z,   OP::T,   OP::S,
                     OP::RX,  OP::RY,  OP::RZ, OP::U1,  OP::U2,  OP::U3,
                     OP::CX,  OP::CZ,  OP::CY, OP::SWAP, OP::CU1, OP::CU3,
                     OP::RXX, OP::RZZ, OP::CRY, OP::CH};
  for (int i = 0; i < n_gates; ++i) {
    const OP op = pool[rng.next_below(22)];
    const auto q0 = static_cast<IdxType>(rng.next_below(static_cast<std::uint64_t>(n)));
    auto q1 = static_cast<IdxType>(rng.next_below(static_cast<std::uint64_t>(n)));
    while (q1 == q0) {
      q1 = static_cast<IdxType>(rng.next_below(static_cast<std::uint64_t>(n)));
    }
    Gate g = op_info(op).n_qubits == 1 ? make_gate(op, q0)
                                       : make_gate(op, q0, q1);
    g.theta = rng.uniform(-PI, PI);
    g.phi = rng.uniform(-PI, PI);
    g.lam = rng.uniform(-PI, PI);
    c.append(g);
  }
  return c;
}

class BackendEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BackendEquivalenceTest, AllBackendsAgreeOnRandomCircuits) {
  const IdxType n = 8;
  const Circuit c = random_circuit(n, 150, GetParam());

  SingleSim ref(n);
  ref.run(c);
  const StateVector truth = ref.state();
  EXPECT_NEAR(truth.norm(), 1.0, 1e-9);
  // A negative shot count is an error on every backend, not a crash.
  EXPECT_THROW(ref.sample(-1), Error);

  for (const int k : {2, 4, 8}) {
    PeerSim peer(n, k);
    peer.run(c);
    EXPECT_LT(peer.state().max_diff(truth), 1e-11) << "peer x" << k;
    EXPECT_THROW(peer.sample(-1), Error) << "peer x" << k;

    ShmemSim shm(n, k);
    shm.run(c);
    EXPECT_LT(shm.state().max_diff(truth), 1e-11) << "shmem x" << k;
    EXPECT_THROW(shm.sample(-1), Error) << "shmem x" << k;
  }
  for (const int k : {2, 4}) {
    CoarseMsgSim msg(n, k);
    msg.run(c);
    EXPECT_LT(msg.state().max_diff(truth), 1e-11) << "coarse x" << k;
    EXPECT_THROW(msg.sample(-1), Error) << "coarse x" << k;
  }
  GeneralizedSim gen(n);
  gen.run(c);
  EXPECT_LT(gen.state().max_diff(truth), 1e-11) << "generalized";
  EXPECT_THROW(gen.sample(-1), Error) << "generalized";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalenceTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// Decompose-mode circuits (basic+standard gates only) agree with native
// mode up to global phase on every backend.
TEST(BackendEquivalence, NativeVsDecomposedMode) {
  const IdxType n = 6;
  Rng rng(2024);
  Circuit native(n, CompoundMode::kNative);
  Circuit lowered(n, CompoundMode::kDecompose);
  const OP pool[] = {OP::H, OP::T, OP::CX, OP::CZ, OP::SWAP, OP::CU1,
                     OP::CRZ, OP::CRY, OP::RZZ, OP::CH};
  for (int i = 0; i < 80; ++i) {
    const OP op = pool[rng.next_below(10)];
    const auto q0 = static_cast<IdxType>(rng.next_below(6));
    auto q1 = static_cast<IdxType>(rng.next_below(6));
    while (q1 == q0) q1 = static_cast<IdxType>(rng.next_below(6));
    Gate g = op_info(op).n_qubits == 1 ? make_gate(op, q0)
                                       : make_gate(op, q0, q1);
    g.theta = rng.uniform(-PI, PI);
    native.append(g);
    lowered.append(g);
  }
  EXPECT_GT(lowered.n_gates(), native.n_gates());

  SingleSim s1(n), s2(n);
  s1.run(native);
  s2.run(lowered);
  EXPECT_NEAR(s1.state().fidelity(s2.state()), 1.0, 1e-10);
}

// --- functional algorithm checks across backends ---------------------------

std::vector<std::unique_ptr<Simulator>> all_backends(IdxType n) {
  std::vector<std::unique_ptr<Simulator>> v;
  v.push_back(std::make_unique<SingleSim>(n));
  v.push_back(std::make_unique<PeerSim>(n, 4));
  v.push_back(std::make_unique<ShmemSim>(n, 4));
  v.push_back(std::make_unique<CoarseMsgSim>(n, 4));
  v.push_back(std::make_unique<GeneralizedSim>(n));
  return v;
}

TEST(BackendFunctional, GhzStateHasTwoPeaks) {
  const IdxType n = 6;
  Circuit c(n);
  c.h(0);
  for (IdxType q = 1; q < n; ++q) c.cx(q - 1, q);
  for (auto& sim : all_backends(n)) {
    sim->run(c);
    const StateVector sv = sim->state();
    EXPECT_NEAR(sv.prob_of(0), 0.5, 1e-9) << sim->name();
    EXPECT_NEAR(sv.prob_of(pow2(n) - 1), 0.5, 1e-9) << sim->name();
  }
}

TEST(BackendFunctional, BernsteinVaziraniRecoversSecret) {
  const IdxType n = 7; // 6 data qubits + 1 ancilla
  const IdxType secret = 0b101101;
  Circuit c(n);
  c.x(n - 1);
  for (IdxType q = 0; q < n; ++q) c.h(q);
  for (IdxType q = 0; q < n - 1; ++q) {
    if (qubit_set(secret, q)) c.cx(q, n - 1);
  }
  for (IdxType q = 0; q < n - 1; ++q) c.h(q);
  for (auto& sim : all_backends(n)) {
    sim->run(c);
    const StateVector sv = sim->state();
    // Data register must read the secret with probability 1 (ancilla in
    // |-> contributes a fixed 0/1 split on the top qubit).
    ValType p_secret = 0;
    for (IdxType anc = 0; anc <= 1; ++anc) {
      p_secret += sv.prob_of(secret | (anc << (n - 1)));
    }
    EXPECT_NEAR(p_secret, 1.0, 1e-9) << sim->name();
  }
}

TEST(BackendFunctional, QftOfBasisStateHasFlatSpectrum) {
  const IdxType n = 5;
  Circuit c(n, CompoundMode::kNative);
  c.x(1); // |00010>
  for (IdxType q = n; q-- > 0;) {
    c.h(q);
    for (IdxType j = 0; j < q; ++j) {
      c.cu1(PI / static_cast<ValType>(pow2(q - j)), j, q);
    }
  }
  for (auto& sim : all_backends(n)) {
    sim->run(c);
    const auto probs = sim->state().probabilities();
    for (const ValType p : probs) {
      EXPECT_NEAR(p, 1.0 / static_cast<ValType>(pow2(n)), 1e-9)
          << sim->name();
    }
  }
}

// --- traffic model sanity ----------------------------------------------------

TEST(PeerTrafficCounters, LowQubitGatesStayLocal) {
  PeerSim sim(8, 4); // 2 partition bits: qubits 6,7 are remote
  Circuit local(8);
  local.h(0).h(3).cx(1, 2);
  sim.run(local);
  EXPECT_EQ(sim.traffic().remote_access, 0u);

  PeerSim sim2(8, 4);
  Circuit remote(8);
  remote.h(7); // pairs straddle partitions
  sim2.run(remote);
  EXPECT_GT(sim2.traffic().remote_access, 0u);
}

TEST(ShmemTrafficCounters, HighQubitGatesGoRemote) {
  ShmemSim sim(8, 4);
  Circuit c(8);
  c.h(0);
  sim.run(c);
  const auto local_only = sim.traffic();
  EXPECT_EQ(local_only.remote_gets + local_only.remote_puts, 0u);

  ShmemSim sim2(8, 4);
  Circuit c2(8);
  c2.h(7);
  sim2.run(c2);
  const auto remote = sim2.traffic();
  EXPECT_GT(remote.remote_gets + remote.remote_puts, 0u);
}

TEST(CoarseMsgCounters, ExchangeOnlyForHighQubits) {
  // Every 1- and 2-qubit unitary op, its operands below the partition
  // boundary or on rank-index bits, on 2, 4 and 8 ranks, from a random
  // state: the amplitudes match the generalized reference, and the
  // exchange is one whole-partition message to every rank that differs
  // only in the gate's rank bits. Remap is pinned off: it would localize
  // the high operands, and this asserts the unavoided exchange the coarse
  // baseline pays.
  const IdxType n = 6;
  Rng rng(2024);
  StateVector init(n);
  ValType norm = 0;
  for (auto& a : init.amps) {
    a = Complex{rng.next_gaussian(), rng.next_gaussian()};
    norm += std::norm(a);
  }
  for (auto& a : init.amps) a /= std::sqrt(norm);
  SimConfig cfg;
  cfg.remap = 0;
  struct Placement {
    IdxType q0, q1;
    std::uint64_t partners; // ranks each rank exchanges with
  };
  for (const int ranks : {2, 4, 8}) {
    const IdxType lg = n - log2_exact(ranks);
    const std::vector<Placement> one_q = {{0, -1, 0}, {lg, -1, 1},
                                          {n - 1, -1, 1}};
    std::vector<Placement> two_q = {{1, 0, 0}, {n - 1, 1, 1}, {0, lg, 1}};
    if (ranks >= 4) two_q.push_back({n - 1, lg, 3});
    for (int i = 0; i < kNumOps; ++i) {
      const OP op = static_cast<OP>(i);
      if (!is_kernel_op(op)) continue;
      const bool two = op_info(op).n_qubits == 2;
      for (const Placement& p : two ? two_q : one_q) {
        Gate g = make_gate(op, p.q0, p.q1);
        g.theta = 0.7;
        g.phi = -1.3;
        g.lam = 2.1;
        Circuit c(n, CompoundMode::kNative);
        c.append(g);
        ASSERT_EQ(c.n_gates(), 1);
        const std::string what = std::string(op_name(op)) + " q" +
                                 std::to_string(p.q0) + "," +
                                 std::to_string(p.q1) + " on " +
                                 std::to_string(ranks) + " ranks";
        CoarseMsgSim sim(n, ranks, cfg);
        sim.load_state(init);
        sim.run(c);
        GeneralizedSim ref(n);
        ref.load_state(init);
        ref.run(c);
        EXPECT_LT(sim.state().max_diff(ref.state()), 1e-12) << what;

        const MsgStats s = sim.stats();
        const std::uint64_t msg_bytes = 2 * pow2(lg) * sizeof(ValType);
        EXPECT_EQ(s.messages, p.partners * static_cast<std::uint64_t>(ranks))
            << what;
        EXPECT_EQ(s.bytes, s.messages * msg_bytes) << what;
        for (const std::uint64_t into : s.per_dest_bytes) {
          EXPECT_EQ(into, p.partners * msg_bytes) << what;
        }
        EXPECT_EQ(s.exchange_gates, p.partners > 0 ? 1u : 0u) << what;
        EXPECT_EQ(s.local_gates, p.partners > 0 ? 0u : 1u) << what;
      }
    }
  }
}

TEST(GeneralizedOperands, ApplyMatrixRejectsOutOfRangeAndRepeated) {
  GeneralizedSim sim(3);
  const Mat2 x = matrix_1q(make_gate(OP::X, 0));
  const Mat4 cx = matrix_2q(make_gate(OP::CX, 0, 1));
  EXPECT_THROW(sim.apply_matrix(x, 5), Error);
  EXPECT_THROW(sim.apply_matrix(x, 3), Error);
  EXPECT_THROW(sim.apply_matrix(x, -1), Error);
  EXPECT_THROW(sim.apply_matrix(cx, 1, 1), Error);
  EXPECT_THROW(sim.apply_matrix(cx, 0, 3), Error);
  EXPECT_THROW(sim.apply_matrix(cx, -1, 2), Error);
  EXPECT_EQ(sim.state().prob_of(0), 1.0); // untouched
  sim.apply_matrix(x, 2);
  sim.apply_matrix(cx, 2, 0);
  EXPECT_EQ(sim.state().prob_of(0b101), 1.0);
}

// Measurement determinism: same seed -> same outcomes on all backends.
TEST(BackendDeterminism, MeasureOutcomesMatchAcrossBackends) {
  const IdxType n = 5;
  Circuit c(n);
  for (IdxType q = 0; q < n; ++q) c.h(q);
  for (IdxType q = 0; q < n; ++q) c.measure(q, q);

  SimConfig cfg;
  cfg.seed = 777;
  SingleSim a(n, cfg);
  PeerSim b(n, 4, cfg);
  ShmemSim d(n, 4, cfg);
  CoarseMsgSim e(n, 4, cfg);
  a.run(c);
  b.run(c);
  d.run(c);
  e.run(c);
  EXPECT_EQ(a.cbits(), b.cbits());
  EXPECT_EQ(a.cbits(), d.cbits());
  EXPECT_EQ(a.cbits(), e.cbits());
}

TEST(BackendDeterminism, SamplesMatchAcrossBackends) {
  const IdxType n = 6;
  Circuit c(n);
  c.h(0);
  for (IdxType q = 1; q < n; ++q) c.cx(q - 1, q);

  SimConfig cfg;
  cfg.seed = 31337;
  SingleSim a(n, cfg);
  ShmemSim d(n, 4, cfg);
  a.run(c);
  d.run(c);
  const auto sa = a.sample(64);
  const auto sd = d.sample(64);
  EXPECT_EQ(sa, sd);
  for (const IdxType outcome : sa) {
    EXPECT_TRUE(outcome == 0 || outcome == pow2(n) - 1) << outcome;
  }
}

} // namespace
} // namespace svsim
