// Measurement semantics: collapse, renormalization, classical bits,
// sampling statistics, reset, and mid-circuit measurement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/batched_sim.hpp"
#include "core/coarse_msg_sim.hpp"
#include "core/generalized_sim.hpp"
#include "core/kernels/nonunitary.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "qasm/parser.hpp"
#include "testing/oracle.hpp"

namespace svsim {
namespace {

TEST(Measure, DeterministicOutcomeOnBasisState) {
  SingleSim sim(3);
  Circuit c(3);
  c.x(1).measure(0, 0).measure(1, 1).measure(2, 2);
  sim.run(c);
  EXPECT_EQ(sim.cbits()[0], 0);
  EXPECT_EQ(sim.cbits()[1], 1);
  EXPECT_EQ(sim.cbits()[2], 0);
  // The state must be exactly |010> afterwards.
  EXPECT_NEAR(sim.state().prob_of(0b010), 1.0, 1e-12);
}

TEST(Measure, CollapseRenormalizes) {
  SingleSim sim(2);
  Circuit c(2);
  c.h(0).measure(0, 0);
  sim.run(c);
  const StateVector sv = sim.state();
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
  // Post-measurement the qubit is in a definite state matching the cbit.
  EXPECT_NEAR(sv.prob_of_qubit(0), static_cast<ValType>(sim.cbits()[0]),
              1e-12);
}

TEST(Measure, EntangledPairCollapsesTogether) {
  SimConfig cfg;
  cfg.seed = 5;
  SingleSim sim(2, cfg);
  Circuit c(2);
  c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
  sim.run(c);
  EXPECT_EQ(sim.cbits()[0], sim.cbits()[1]); // Bell correlation
}

TEST(Measure, OutcomeFrequenciesMatchAmplitudes) {
  // RY(theta) gives P(1) = sin^2(theta/2); estimate over repeated runs.
  const ValType theta = 1.1;
  const ValType expect_p1 = std::sin(theta / 2) * std::sin(theta / 2);
  int ones = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    SimConfig cfg;
    cfg.seed = 1000 + static_cast<std::uint64_t>(i);
    SingleSim sim(1, cfg);
    Circuit c(1);
    c.ry(theta, 0).measure(0, 0);
    sim.run(c);
    ones += static_cast<int>(sim.cbits()[0]);
  }
  EXPECT_NEAR(static_cast<ValType>(ones) / trials, expect_p1, 0.04);
}

TEST(Sample, FrequenciesMatchDistribution) {
  SingleSim sim(3);
  Circuit c(3);
  c.h(0).h(1); // uniform over 4 outcomes on qubits 0,1; qubit 2 stays 0
  sim.run(c);
  const auto shots = sim.sample(8000);
  std::map<IdxType, int> hist;
  for (const IdxType s : shots) ++hist[s];
  for (IdxType k = 0; k < 4; ++k) {
    EXPECT_NEAR(hist[k] / 8000.0, 0.25, 0.03) << "outcome " << k;
  }
  EXPECT_EQ(hist.count(4), 0u);
}

TEST(Sample, DoesNotCollapseState) {
  SingleSim sim(2);
  Circuit c(2);
  c.h(0).cx(0, 1);
  sim.run(c);
  (void)sim.sample(100);
  const StateVector sv = sim.state();
  EXPECT_NEAR(sv.prob_of(0), 0.5, 1e-12);
  EXPECT_NEAR(sv.prob_of(3), 0.5, 1e-12);
}

TEST(Reset, ProjectsToZero) {
  SingleSim sim(2);
  Circuit c(2);
  c.h(0).h(1).reset(0);
  sim.run(c);
  const StateVector sv = sim.state();
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
  EXPECT_NEAR(sv.prob_of_qubit(0), 0.0, 1e-12);
  EXPECT_NEAR(sv.prob_of_qubit(1), 0.5, 1e-12); // untouched
}

TEST(Reset, HandlesDeterministicOne) {
  SingleSim sim(1);
  Circuit c(1);
  c.x(0).reset(0);
  sim.run(c);
  EXPECT_NEAR(sim.state().prob_of(0), 1.0, 1e-12);
}

TEST(Reset, ReusableAncillaPattern) {
  // Use an ancilla twice with a reset in between — the mid-circuit pattern
  // that forces measurement/reset to live inside the simulation kernel.
  SimConfig cfg;
  cfg.seed = 9;
  SingleSim sim(2, cfg);
  Circuit c(2);
  c.h(0).cx(0, 1).measure(1, 0).reset(1).h(1).measure(1, 1);
  sim.run(c);
  EXPECT_NEAR(sim.state().norm(), 1.0, 1e-12);
}

TEST(MeasureAll, RespectsShotCount) {
  SingleSim sim(4);
  Circuit c(4);
  c.h(0);
  sim.run(c);
  EXPECT_EQ(sim.sample(0).size(), 0u);
  EXPECT_EQ(sim.sample(1).size(), 1u);
  EXPECT_EQ(sim.sample(999).size(), 999u);
}

TEST(MeasureAll, GeneralizedSimSamplesSameDistribution) {
  SimConfig cfg;
  cfg.seed = 4242;
  SingleSim a(3, cfg);
  GeneralizedSim b(3, cfg);
  Circuit c(3);
  c.h(0).cx(0, 1).t(2).h(2);
  a.run(c);
  b.run(c);
  EXPECT_EQ(a.sample(256), b.sample(256));
}

// --- regressions found by the differential/fuzzing campaign ---

TEST(Measure, ClampsDriftedProbabilityBeforeCollapse) {
  // An over-norm injected state stands in for accumulated FP drift that
  // pushes the reduced probability past 1. The kernel must clamp before
  // drawing and renormalizing: with prob1 clamped to 1 the collapse scale
  // is exactly 1, so the amplitude passes through untouched instead of
  // being quietly renormalized by 1/sqrt(1.2).
  SingleSim sim(1);
  StateVector sv(1);
  sv.amps[0] = 0;
  sv.amps[1] = std::sqrt(1.2);
  sim.load_state(sv);
  Circuit c(1);
  c.measure(0, 0);
  sim.run(c);
  EXPECT_EQ(sim.cbits()[0], 1);
  EXPECT_NEAR(std::abs(sim.state().amps[1]), std::sqrt(1.2), 1e-12);
}

TEST(Reset, ClampsDriftedProbabilityBeforeRenormalize) {
  // Mirror of the measure clamp for reset's prob0 path.
  SingleSim sim(1);
  StateVector sv(1);
  sv.amps[0] = std::sqrt(1.2);
  sv.amps[1] = 0;
  sim.load_state(sv);
  Circuit c(1);
  c.reset(0);
  sim.run(c);
  EXPECT_NEAR(std::abs(sim.state().amps[0]), std::sqrt(1.2), 1e-12);
}

TEST(Reset, TinyZeroProbabilityMatchesOracleOnPartitionedBackends) {
  // ry(2·acos(sqrt(p0))) leaves P(|0>) = p0; reset renormalizes the |0>
  // half by 1/sqrt(p0). Taking p0 as 1 - P(|1>) cancels catastrophically
  // and that scale amplifies the error, so every backend must sum the
  // |0> half directly — on a rank-local qubit (0) and on the qubit that
  // selects the partition (3, with two ranks/PEs).
  const IdxType n = 4;
  for (const ValType p0 : {1e-4, 1e-6, 1e-8, 1e-10}) {
    for (const IdxType q : {IdxType{0}, n - 1}) {
      Circuit c(n);
      c.ry(2 * std::acos(std::sqrt(p0)), q).reset(q);
      testing::OracleSim oracle(n);
      oracle.run(c);
      CoarseMsgSim coarse(n, 2);
      coarse.run(c);
      ShmemSim shmem(n, 2);
      shmem.run(c);
      EXPECT_LT(coarse.state().max_diff(oracle.state()), 1e-12)
          << "coarse p0=" << p0 << " q=" << q;
      EXPECT_LT(shmem.state().max_diff(oracle.state()), 1e-12)
          << "shmem p0=" << p0 << " q=" << q;
    }
  }
}

TEST(Measure, ClassicalRegisterWiderThanQubits) {
  // Two cregs, eight classical bits on two qubits: c[5] is bit 7, the
  // last. Every engine widens its register to the circuit's.
  const Circuit c = qasm::parse_qasm(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg a[2];
creg c[6];
x q[0];
measure q[1] -> a[0];
measure q[0] -> c[5];
)");
  ASSERT_EQ(c.n_cbits(), 8);
  std::vector<IdxType> want(8, 0);
  want[7] = 1;

  SingleSim single(2);
  PeerSim peer(2, 2);
  ShmemSim shmem(2, 2);
  GeneralizedSim generalized(2);
  CoarseMsgSim coarse(2, 2);
  for (Simulator* sim : std::initializer_list<Simulator*>{
           &single, &peer, &shmem, &generalized, &coarse}) {
    sim->run(c);
    EXPECT_EQ(sim->cbits(), want) << sim->name();
    // A narrower circuit afterwards keeps the width; a reset clears it.
    sim->run_fresh(Circuit(2));
    EXPECT_EQ(sim->cbits(), std::vector<IdxType>(8, 0)) << sim->name();
  }

  BatchedSim batched(2, 3);
  batched.run(c);
  for (IdxType b = 0; b < 3; ++b) EXPECT_EQ(batched.member_cbits(b), want);

  testing::OracleSim oracle(2);
  oracle.run(c);
  EXPECT_EQ(oracle.cbits(), want);
}

/// The sweep's O(shots) draw ordering gives std::sort's order on the
/// (uniform, shot) pairs: on uniform draws, on equal values in either
/// shot order (ties break by shot), on draws that all share one bucket,
/// on values at bucket edges and next to 1, and on 0 and 1 draws.
TEST(MeasureAll, DrawOrderMatchesStdSort) {
  using Draws = std::vector<std::pair<ValType, IdxType>>;
  const auto expect_sorted = [](Draws draws, const std::string& what) {
    Draws want = draws;
    std::sort(want.begin(), want.end());
    kernels::sort_draws(draws);
    EXPECT_EQ(draws, want) << what;
  };
  expect_sorted({}, "no draws");
  expect_sorted({{0.5, 0}}, "one draw");
  Rng rng(5);
  for (const IdxType shots : {2, 3, 7, 1024}) {
    const auto n = static_cast<ValType>(shots);
    Draws uniform, equal, equal_reversed, one_bucket, edges;
    for (IdxType s = 0; s < shots; ++s) {
      uniform.emplace_back(rng.next_double(), s);
      equal.emplace_back(0.25, s);
      equal_reversed.emplace_back(0.25, shots - 1 - s);
      one_bucket.emplace_back((n - 1 + rng.next_double()) / n, s);
      edges.emplace_back(static_cast<ValType>((s * 5) % shots) / n, s);
    }
    edges.emplace_back(0.0, shots);
    edges.emplace_back(1.0 - 0x1.0p-53, shots + 1);
    const std::string at = " x" + std::to_string(shots);
    expect_sorted(uniform, "uniform" + at);
    expect_sorted(equal, "equal" + at);
    expect_sorted(equal_reversed, "equal, shots reversed" + at);
    expect_sorted(one_bucket, "one bucket" + at);
    expect_sorted(edges, "bucket edges" + at);
  }
}

/// The sweep against a naive walk (std::sort, then permute_bits and one
/// running sum state by state) on an 11-qubit distribution, eight of the
/// sweep's runs, unpermuted and under a layout that scatters the low byte
/// across the register: the same outcomes, and it stops at the state that
/// takes the last draw.
TEST(MeasureAll, SweepMatchesNaiveWalk) {
  constexpr IdxType n = 11;
  const IdxType dim = pow2(n);
  Rng rng(8);
  std::vector<ValType> prob(static_cast<std::size_t>(dim));
  ValType total = 0;
  for (ValType& x : prob) {
    x = rng.next_double();
    total += x;
  }
  for (ValType& x : prob) x /= total;
  const std::vector<IdxType> layout{5, 10, 2, 0, 9, 1, 3, 8, 4, 7, 6};
  for (const bool permuted : {false, true}) {
    std::optional<BitPermutation> perm;
    if (permuted) perm.emplace(layout.data(), n);
    for (const IdxType shots : {1, 3, 300}) {
      std::vector<std::pair<ValType, IdxType>> draws;
      for (IdxType s = 0; s < shots; ++s) {
        draws.emplace_back(rng.next_double(), s);
      }
      auto sorted = draws;
      std::sort(sorted.begin(), sorted.end());
      std::vector<IdxType> want(static_cast<std::size_t>(shots), dim - 1);
      ValType cum = 0;
      std::size_t d = 0;
      IdxType stop = 0;
      for (IdxType k = 0; k < dim && d < sorted.size(); ++k) {
        const IdxType phys = permuted ? permute_bits(k, layout.data(), n) : k;
        cum += prob[static_cast<std::size_t>(phys)];
        for (; d < sorted.size() && sorted[d].first < cum; ++d) {
          want[static_cast<std::size_t>(sorted[d].second)] = k;
        }
        stop = k + 1;
      }
      std::vector<IdxType> got(static_cast<std::size_t>(shots));
      const IdxType visited = kernels::sample_sweep(
          draws, dim, perm,
          [&](IdxType i) { return prob[static_cast<std::size_t>(i)]; },
          got.data());
      const std::string at = (permuted ? "permuted" : "unpermuted") +
                             std::string(" x") + std::to_string(shots);
      EXPECT_EQ(got, want) << at;
      EXPECT_EQ(visited, stop) << at;
    }
  }
}

} // namespace
} // namespace svsim
