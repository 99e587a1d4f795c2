// Tests for the SPMD batched engine and its VQA adapter: member-by-member
// equivalence with sequential SingleSim execution (including exec-mask
// divergence through mid-circuit measure/reset), masked vs all-lanes-on
// kernel paths, divergent measurement statistics, ragged batches that
// exercise the scalar tail, runtime SIMD-dispatch clamping, batched
// expectations (the compiled observable against the host computation at
// every lane level), the cached plan structure against a cold compile,
// the sweep helper, the kept-engine objective and the batched optimizer
// overloads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <thread>

#include "core/batched_sim.hpp"
#include "core/coarse_msg_sim.hpp"
#include "core/generalized_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "obs/registry.hpp"
#include "vqa/batched.hpp"
#include "vqa/optimizer.hpp"
#include "vqa/vqe.hpp"

namespace svsim::vqa {
namespace {

/// Random member states: member b runs its own angles through one
/// skeleton (U3 layer, CX chain, U3 layer).
void fill_random_states(svsim::BatchedSim& engine, Rng& rng) {
  const IdxType n = engine.n_qubits();
  const auto u3_layer = [&](Circuit& c) {
    for (IdxType q = 0; q < n; ++q) {
      c.u3(rng.uniform(-PI, PI), rng.uniform(-PI, PI), rng.uniform(-PI, PI),
           q);
    }
  };
  std::vector<Circuit> members;
  for (IdxType b = 0; b < engine.batch(); ++b) {
    Circuit c(n);
    u3_layer(c);
    for (IdxType q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
    u3_layer(c);
    members.push_back(std::move(c));
  }
  engine.run_fresh(members);
}

/// A constant, random I/X/Y/Z strings, and one flip mask shared by terms
/// of every Y count mod 4 (as far as n allows) with random Z masks on the
/// other qubits.
Hamiltonian mixed_pauli_sum(IdxType n, Rng& rng) {
  Hamiltonian h;
  h.constant = rng.uniform(-1, 1);
  const auto un = static_cast<std::size_t>(n);
  for (int t = 0; t < 12; ++t) {
    std::string s(un, 'I');
    for (char& c : s) c = "IXYZ"[rng.next_u64() % 4];
    h.terms.push_back(PauliTerm::parse(rng.uniform(-1, 1), s));
  }
  const std::size_t flips = std::min<std::size_t>(un, 3);
  for (std::size_t n_y = 0; n_y <= flips; ++n_y) {
    std::string s(un, 'I');
    for (std::size_t q = 0; q < flips; ++q) s[q] = q < n_y ? 'Y' : 'X';
    for (std::size_t q = flips; q < un; ++q) {
      s[q] = rng.next_u64() % 2 == 0 ? 'Z' : 'I';
    }
    h.terms.push_back(PauliTerm::parse(rng.uniform(-1, 1), s));
  }
  return h;
}

/// One sweep for the diagonal terms plus one per distinct flip mask.
std::size_t expected_sweeps(const Hamiltonian& h) {
  std::set<std::string> masks;
  bool diag = false;
  for (const PauliTerm& t : h.terms) {
    std::string x;
    for (const Pauli p : t.ops) x += (p == Pauli::X || p == Pauli::Y) ? '1' : '0';
    if (x.find('1') == std::string::npos) {
      diag = true;
    } else {
      masks.insert(x);
    }
  }
  return masks.size() + (diag ? 1 : 0);
}

TEST(Batched, MembersMatchSequentialExecution) {
  const IdxType n = 5;
  const ParamCircuit ansatz = hardware_efficient_ansatz(n, 2);
  const int B = 4;

  Rng rng(2025);
  std::vector<std::vector<ValType>> params;
  for (int b = 0; b < B; ++b) {
    std::vector<ValType> p(ansatz.n_params());
    for (auto& v : p) v = rng.uniform(-PI, PI);
    params.push_back(std::move(p));
  }

  BatchedSim batched(n, B);
  batched.run_fresh(ansatz, params);

  for (int b = 0; b < B; ++b) {
    SingleSim seq(n);
    seq.run(ansatz.bind(params[static_cast<std::size_t>(b)]));
    EXPECT_LT(batched.state(b).max_diff(seq.state()), 1e-11)
        << "member " << b;
  }
}

TEST(Batched, InitialStateIsZeroForAllMembers) {
  BatchedSim sim(3, 5);
  for (int b = 0; b < 5; ++b) {
    EXPECT_NEAR(sim.state(b).prob_of(0), 1.0, 1e-15);
  }
}

TEST(Batched, ExpectationsMatchHostComputation) {
  const Hamiltonian h2 = h2_hamiltonian();
  const ParamCircuit ansatz = h2_ucc_ansatz();
  const std::vector<std::vector<ValType>> params = {
      {0.0}, {0.1}, {0.22}, {-0.3}};
  BatchedSim sim(2, 4);
  sim.run_fresh(ansatz, params);
  const auto energies = sim.expectations(h2);
  ASSERT_EQ(energies.size(), 4u);
  for (int b = 0; b < 4; ++b) {
    const ValType direct = h2.expectation(sim.state(b));
    EXPECT_NEAR(energies[static_cast<std::size_t>(b)], direct, 1e-10);
  }
  // Different parameters must give different energies.
  EXPECT_GT(std::abs(energies[0] - energies[2]), 1e-4);
}

TEST(Batched, ExpectationsMatchHostOnMixedPauliSums) {
  // The compiled observable (diagonal weights, half-sweeps per flip mask)
  // against the host's term-by-term <psi|P|psi> on every member, at every
  // lane level this build carries, for batches below, at and past a lane.
  Rng rng(1234);
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level > max_simd_level()) continue;
    SimConfig cfg;
    cfg.simd = level;
    const IdxType w = svsim::BatchedSim(1, 1, cfg).lane_width();
    for (const IdxType n : {1, 5, 9}) {
      for (const IdxType B : {IdxType{1}, IdxType{3}, w + 1}) {
        svsim::BatchedSim engine(n, B, cfg);
        ASSERT_EQ(engine.simd_level(), level);
        fill_random_states(engine, rng);
        const Hamiltonian h = mixed_pauli_sum(n, rng);
        const CompiledObservable compiled(h);
        EXPECT_EQ(compiled.n_sweeps(), expected_sweeps(h));
        const std::vector<ValType> e = compiled.evaluate(engine);
        ASSERT_EQ(e.size(), static_cast<std::size_t>(B));
        for (IdxType b = 0; b < B; ++b) {
          EXPECT_NEAR(e[static_cast<std::size_t>(b)],
                      h.expectation(engine.state(b)), 1e-12)
              << "level " << static_cast<int>(level) << " n " << n << " B "
              << B << " member " << b;
        }
      }
    }
  }
  // TFI-12: one diagonal sweep plus one half-sweep per X qubit, not one
  // sweep per term.
  Hamiltonian tfi;
  for (std::size_t q = 0; q < 12; ++q) {
    std::string zz(12, 'I'), x(12, 'I');
    if (q + 1 < 12) {
      zz[q] = zz[q + 1] = 'Z';
      tfi.terms.push_back(PauliTerm::parse(-1.0, zz));
    }
    x[q] = 'X';
    tfi.terms.push_back(PauliTerm::parse(-0.7, x));
  }
  EXPECT_EQ(tfi.terms.size(), 23u);
  EXPECT_EQ(CompiledObservable(tfi).n_sweeps(), 13u);
}

TEST(Batched, SweepHandlesNonMultipleBatch) {
  const Hamiltonian h2 = h2_hamiltonian();
  const ParamCircuit ansatz = h2_ucc_ansatz();
  std::vector<std::vector<ValType>> sets;
  for (int i = 0; i < 7; ++i) {
    sets.push_back({0.05 * i});
  }
  const auto energies = batched_energy_sweep(2, ansatz, h2, sets, 3);
  ASSERT_EQ(energies.size(), 7u);
  // Spot-check against the plain VQE objective.
  SingleSim sim(2);
  sim.run_fresh(ansatz.bind(sets[4]));
  EXPECT_NEAR(energies[4], h2.expectation(sim.state()), 1e-10);
}

TEST(Batched, ValidatesInputs) {
  const ParamCircuit ansatz = h2_ucc_ansatz();
  BatchedSim sim(2, 2);
  EXPECT_THROW(sim.run_fresh(ansatz, {{0.1}}), Error); // wrong batch size
  EXPECT_THROW(sim.state(5), Error);
}

TEST(Batched, MeasuringAnsatzRunsAndDivergesPerMember) {
  // The old prototype rejected non-unitary ansatze; the SPMD engine runs
  // them with exec-masked kernels, member b on RNG stream seed + b.
  ParamCircuit measuring(2);
  measuring.fixed(make_gate(OP::H, 0));
  Gate m = make_gate(OP::M, 0);
  m.cbit = 0;
  measuring.fixed(m);

  const int B = 6;
  BatchedSim sim(2, B);
  sim.run_fresh(measuring, std::vector<std::vector<ValType>>(B));
  for (int b = 0; b < B; ++b) {
    const auto cb = sim.engine().member_cbits(b);
    const StateVector sv = sim.state(b);
    // Collapsed state must agree with the recorded classical bit.
    EXPECT_NEAR(sv.prob_of_qubit(0), static_cast<ValType>(cb[0]), 1e-12)
        << "member " << b;
  }
}

TEST(Batched, FindsSameMinimumAsSequentialGrid) {
  // Coarse grid search for the H2 minimum through the batched path.
  const Hamiltonian h2 = h2_hamiltonian();
  const ParamCircuit ansatz = h2_ucc_ansatz();
  std::vector<std::vector<ValType>> grid;
  for (int i = -20; i <= 20; ++i) grid.push_back({0.05 * i});
  const auto energies = batched_energy_sweep(2, ansatz, h2, grid, 8);
  ValType best = 1e9;
  for (const ValType e : energies) best = std::min(best, e);
  EXPECT_NEAR(best, h2.ground_energy(), 5e-3); // grid resolution limited
}

TEST(BatchedEngine, MaskedAndAllOnMeasurePathsMatchSolo) {
  // All-lanes-on fast path: |11> measures deterministically, every member
  // collapses the same way. Masked path: H puts every member on a coin
  // flip and they diverge on their own streams. Both must reproduce a
  // solo run at seed + b bit-for-bit in classical outcomes.
  for (const bool divergent : {false, true}) {
    Circuit c(3);
    if (divergent) {
      c.h(0);
      c.h(1);
      c.h(2);
    } else {
      c.x(0);
      c.x(1);
    }
    c.measure(0, 0);
    c.cx(0, 2);
    c.measure(1, 1);
    c.reset(0);
    c.measure(2, 2);

    const IdxType B = 8;
    SimConfig cfg;
    cfg.seed = 321;
    svsim::BatchedSim sim(3, B, cfg);
    sim.run_fresh(c);
    bool saw_divergence = false;
    for (IdxType b = 0; b < B; ++b) {
      SimConfig scfg;
      scfg.seed = 321 + static_cast<std::uint64_t>(b);
      SingleSim solo(3, scfg);
      solo.run(c);
      EXPECT_EQ(sim.member_cbits(b), solo.cbits())
          << "member " << b << " divergent=" << divergent;
      EXPECT_LT(sim.state(b).max_diff(solo.state()), 1e-11)
          << "member " << b << " divergent=" << divergent;
      if (sim.member_cbits(b) != sim.member_cbits(0)) saw_divergence = true;
    }
    EXPECT_EQ(saw_divergence, divergent);
  }
}

TEST(BatchedEngine, DivergentMeasurementStatisticsMatchAnalytic) {
  // RY(theta) gives P(1) = sin^2(theta/2); each member measures on its
  // own stream, so across a wide batch the 1s-fraction must sit within
  // binomial noise of the analytic probability.
  const double p1 = 0.7;
  const IdxType B = 256;
  SimConfig cfg;
  cfg.seed = 2026;
  svsim::BatchedSim sim(1, B, cfg);
  Circuit c(1);
  c.ry(2.0 * std::asin(std::sqrt(p1)), 0);
  c.measure(0, 0);
  sim.run_fresh(c);
  double ones = 0;
  for (IdxType b = 0; b < B; ++b) {
    ones += static_cast<double>(sim.member_cbits(b)[0]);
  }
  // 5 sigma = 5 * sqrt(p(1-p)/B) ~ 0.143.
  EXPECT_NEAR(ones / static_cast<double>(B), p1, 0.15);
}

TEST(BatchedEngine, ReseedReplaysChunkedCampaignExactly) {
  // The chunked-shot-campaign idiom: one engine, reseed(seed + base) per
  // chunk. Chunk member b must replay a fresh engine at seed + base + b —
  // reseed is a full reset (state, cbits, RNG streams), not just a seed
  // swap.
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.measure(0, 0);
  c.reset(0);
  c.ry(0.8, 2);
  c.measure(2, 1);

  const IdxType B = 4;
  SimConfig cfg;
  cfg.seed = 7;
  svsim::BatchedSim sim(3, B, cfg);
  for (IdxType base = 0; base < 12; base += B) {
    sim.reseed(7 + static_cast<std::uint64_t>(base));
    sim.run(c);
    for (IdxType b = 0; b < B; ++b) {
      SimConfig fcfg;
      fcfg.seed = 7 + static_cast<std::uint64_t>(base + b);
      svsim::BatchedSim fresh(3, 1, fcfg);
      fresh.run_fresh(c);
      EXPECT_EQ(sim.member_cbits(b), fresh.member_cbits(0))
          << "base " << base << " member " << b;
      EXPECT_LT(sim.state(b).max_diff(fresh.state(0)), 1e-12)
          << "base " << base << " member " << b;
    }
  }
}

TEST(BatchedEngine, RaggedBatchMatchesSoloIncludingSamples) {
  // B = 5 is not a multiple of any lane width, so the SIMD chunks leave a
  // scalar tail; measure/reset and the sampling pass must still replay
  // solo seed+b exactly.
  const IdxType B = 5;
  const IdxType shots = 64;
  SimConfig cfg;
  cfg.seed = 99;
  svsim::BatchedSim sim(4, B, cfg);
  Circuit c(4);
  c.h(0);
  c.cx(0, 1);
  c.u3(0.4, -0.9, 2.2, 2);
  c.measure(1, 1);
  c.reset(0);
  c.h(3);
  c.measure(3, 3);
  c.crz(0.3, 2, 3);
  sim.run_fresh(c);

  // Snapshot before sampling: the sampling pass reruns a measure-all
  // circuit through the engine and clears the classical register.
  std::vector<StateVector> states;
  std::vector<std::vector<IdxType>> cbits;
  for (IdxType b = 0; b < B; ++b) {
    states.push_back(sim.state(b));
    cbits.push_back(sim.member_cbits(b));
  }
  const auto samples = sim.sample_members(shots);

  for (IdxType b = 0; b < B; ++b) {
    SimConfig scfg;
    scfg.seed = 99 + static_cast<std::uint64_t>(b);
    SingleSim solo(4, scfg);
    solo.run(c);
    EXPECT_LT(states[static_cast<std::size_t>(b)].max_diff(solo.state()),
              1e-11)
        << "member " << b;
    EXPECT_EQ(cbits[static_cast<std::size_t>(b)], solo.cbits())
        << "member " << b;
    EXPECT_EQ(samples[static_cast<std::size_t>(b)], solo.sample(shots))
        << "member " << b;
  }
  // A negative shot count is an error, not a crash or an empty draw.
  EXPECT_THROW(sim.sample(-1), Error);
  EXPECT_THROW(sim.sample_members(-1), Error);
}

TEST(BatchedEngine, MemberSweepStructureHitMatchesColdCompile) {
  // One engine runs alternating parameter sets of one ansatz; its plan
  // structure is compiled once and only the coefficients are refilled.
  // After every run its amplitudes must be bit-for-bit a fresh engine's
  // cold compile — including an all-real set (RZ angles 0: the combined
  // slots take pair1q_real) followed by a complex one (back to pair1q),
  // and uniform runs of the same shape. The explicit block exponent
  // leaves b_eff = 2 on 6 qubits, so blocked windows with high diagonal
  // phase rows are refilled too.
  const IdxType n = 6;
  const IdxType B = 5;
  SimConfig cfg;
  cfg.seed = 11;
  cfg.sched_window = 5;
  const ParamCircuit ansatz = hardware_efficient_ansatz(n, 2);
  Rng rng(77);
  const auto bind_set = [&](bool all_real) {
    std::vector<Circuit> members;
    for (IdxType b = 0; b < B; ++b) {
      std::vector<ValType> p(ansatz.n_params());
      for (std::size_t i = 0; i < p.size(); ++i) {
        // Odd parameters drive the RZ rotations.
        p[i] = all_real && i % 2 == 1 ? 0.0 : rng.uniform(-PI, PI);
      }
      members.push_back(ansatz.bind(p));
    }
    return members;
  };
  const auto bytes = static_cast<std::size_t>(pow2(n) * B) * sizeof(ValType);
  const auto same_amps = [&](const svsim::BatchedSim& a,
                             const svsim::BatchedSim& b) {
    return std::memcmp(a.real_data(), b.real_data(), bytes) == 0 &&
           std::memcmp(a.imag_data(), b.imag_data(), bytes) == 0;
  };
  obs::Counter& builds =
      obs::Registry::global().counter("batched.plan_builds");

  svsim::BatchedSim kept(n, B, cfg);
  std::uint64_t kept_builds = 0;
  std::vector<Circuit> members;
  // 'u' runs the previous sweep's member 0 on every member: a uniform run
  // whose gates equal the last fill's skeleton must still be refilled.
  for (const char kind : {'r', 'c', 'c', 'u', 'u', 'r', 'c'}) {
    if (kind != 'u') members = bind_set(kind == 'r');
    const std::uint64_t before = builds.value();
    if (kind == 'u') {
      kept.run_fresh(members.front());
    } else {
      kept.run_fresh(members);
    }
    kept_builds += builds.value() - before;

    svsim::BatchedSim fresh(n, B, cfg);
    if (kind == 'u') {
      fresh.run_fresh(members.front());
    } else {
      fresh.run_fresh(members);
    }
    EXPECT_TRUE(same_amps(kept, fresh)) << "run kind " << kind;
  }
  EXPECT_EQ(kept_builds, 1u); // the structure was compiled once
}

TEST(BatchedEngine, LaneLevelIsTheResolvedSwitchAndWidestMatchesScalar) {
  // One rule for the lane level: SimConfig::simd defaults to the widest
  // level this build carries, and every engine runs exactly the level it
  // is given — nothing clamps it or promotes scalar.
  EXPECT_EQ(SimConfig{}.simd, max_simd_level());
  EXPECT_EQ(SingleSim(3).simd_level(), max_simd_level());
  EXPECT_EQ(svsim::BatchedSim(3, 2).simd_level(), max_simd_level());
  EXPECT_EQ(BatchedSim(3, 2).engine().simd_level(), max_simd_level());
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level > max_simd_level()) continue;
    SimConfig cfg;
    cfg.simd = level;
    EXPECT_EQ(SingleSim(3, cfg).simd_level(), level) << to_string(level);
    EXPECT_EQ(svsim::BatchedSim(3, 2, cfg).simd_level(), level)
        << to_string(level);
    EXPECT_EQ(BatchedSim(3, 2, cfg).engine().simd_level(), level)
        << to_string(level);
  }

  // The widest lanes agree with scalar lanes on the same circuit and
  // seed, a mid-circuit measurement included.
  Circuit c(3);
  c.h(0);
  c.u3(0.4, 1.1, -0.7, 1);
  c.cx(0, 1);
  c.rzz(0.37, 1, 2);
  c.measure(0, 0);
  c.ry(0.9, 2);

  SimConfig wide;
  wide.seed = 7;
  svsim::BatchedSim a(3, 9, wide);
  a.run_fresh(c);

  SimConfig narrow = wide;
  narrow.simd = SimdLevel::kScalar;
  svsim::BatchedSim s(3, 9, narrow);
  EXPECT_EQ(s.lane_width(), 1);
  s.run_fresh(c);

  for (IdxType b = 0; b < 9; ++b) {
    EXPECT_EQ(a.member_cbits(b), s.member_cbits(b)) << "member " << b;
    EXPECT_LT(a.state(b).max_diff(s.state(b)), 1e-12) << "member " << b;
  }

  // The ansatz adapter keeps scalar lanes as well, and its energies match
  // a default (widest) adapter's; 9 members fill a full vector at every
  // width.
  Rng rng(99);
  const ParamCircuit ansatz = hardware_efficient_ansatz(4, 2);
  std::vector<std::vector<ValType>> params(9);
  for (auto& p : params) {
    p.resize(ansatz.n_params());
    for (ValType& v : p) v = rng.uniform(-PI, PI);
  }
  const Hamiltonian h = mixed_pauli_sum(4, rng);
  BatchedSim widest(4, 9);
  BatchedSim scalar(4, 9, narrow);
  EXPECT_EQ(scalar.engine().lane_width(), 1);
  widest.run_fresh(ansatz, params);
  scalar.run_fresh(ansatz, params);
  const std::vector<ValType> ew = widest.expectations(h);
  const std::vector<ValType> es = scalar.expectations(h);
  for (std::size_t b = 0; b < 9; ++b) {
    EXPECT_NEAR(es[b], ew[b], 1e-12) << "member " << b;
  }
}

TEST(BatchedEngine, LevelAboveWidestThrowsFromEveryBackend) {
  // A level this build lacks is an svsim::Error naming it and the widest
  // level, from every backend constructor — partitioned ones included.
  if (max_simd_level() == SimdLevel::kAvx512) {
    GTEST_SKIP() << "this build carries every lane level";
  }
  for (const SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level <= max_simd_level()) continue;
    SimConfig cfg;
    cfg.simd = level;
    const std::string want = std::string(to_string(level)) +
                             " is not available in this build: the "
                             "widest is " +
                             to_string(max_simd_level());
    const auto expect_throw = [&](const char* what, auto&& build) {
      try {
        build();
        ADD_FAILURE() << what << " accepted " << to_string(level);
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << what << ": " << e.what();
      }
    };
    expect_throw("SingleSim", [&] { SingleSim sim(3, cfg); });
    expect_throw("PeerSim", [&] { PeerSim sim(3, 2, cfg); });
    expect_throw("ShmemSim", [&] { ShmemSim sim(3, 2, cfg); });
    expect_throw("CoarseMsgSim", [&] { CoarseMsgSim sim(3, 2, cfg); });
    expect_throw("GeneralizedSim", [&] { GeneralizedSim sim(3, cfg); });
    expect_throw("svsim::BatchedSim",
                 [&] { svsim::BatchedSim sim(3, 2, cfg); });
    expect_throw("vqa::BatchedSim", [&] { BatchedSim sim(3, 2, cfg); });
  }
}

TEST(BatchedOptimizer, BatchObjectiveMatchesScalarPathExactly) {
  // The scalar minimize() delegates through lift_objective, so a batch
  // objective that evaluates the same function must reproduce the scalar
  // result bit-for-bit — and must actually receive multi-point batches.
  const Objective f = [](const std::vector<ValType>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + 2.0 * (x[1] + 0.5) * (x[1] + 0.5) +
           0.3 * x[0] * x[1];
  };
  std::size_t max_batch = 0;
  const BatchObjective bf =
      [&](const std::vector<std::vector<ValType>>& pts) {
        max_batch = std::max(max_batch, pts.size());
        std::vector<ValType> vals;
        for (const auto& p : pts) vals.push_back(f(p));
        return vals;
      };

  NelderMead nm;
  const OptResult ns = nm.minimize(f, {0.0, 0.0});
  const OptResult nb = nm.minimize(bf, {0.0, 0.0});
  EXPECT_EQ(ns.best_params, nb.best_params);
  EXPECT_EQ(ns.best_value, nb.best_value);
  EXPECT_EQ(ns.trace, nb.trace);
  EXPECT_EQ(ns.evaluations, nb.evaluations);
  EXPECT_GE(max_batch, 3u); // the dim+1 simplex init came through batched

  max_batch = 0;
  Spsa::Options so;
  so.max_iterations = 40;
  Spsa spsa(so);
  const OptResult ss = spsa.minimize(f, {0.0, 0.0});
  const OptResult sb = spsa.minimize(bf, {0.0, 0.0});
  EXPECT_EQ(ss.best_params, sb.best_params);
  EXPECT_EQ(ss.best_value, sb.best_value);
  EXPECT_EQ(ss.trace, sb.trace);
  EXPECT_EQ(ss.evaluations, sb.evaluations);
  EXPECT_GE(max_batch, 2u); // the probe pair came through batched
}

TEST(BatchedOptimizer, EnergyObjectiveMatchesFreshEngines) {
  // The objective keeps one engine per pass width and the compiled
  // observable across calls; every energy must still be exactly what a
  // fresh engine gives — across widths 8, 2, 8, 3 (full passes and ragged
  // tails), with a copy called in between (copies never share an
  // engine), and with two copies running on two threads.
  const IdxType n = 5;
  const int batch = 8;
  const ParamCircuit ansatz = hardware_efficient_ansatz(n, 2);
  Rng rng(5);
  const Hamiltonian h = mixed_pauli_sum(n, rng);
  const auto points = [&](int count) {
    std::vector<std::vector<ValType>> pts(static_cast<std::size_t>(count));
    for (auto& p : pts) {
      p.resize(ansatz.n_params());
      for (ValType& v : p) v = rng.uniform(-PI, PI);
    }
    return pts;
  };
  const auto fresh = [&](const std::vector<std::vector<ValType>>& pts) {
    std::vector<ValType> e;
    for (std::size_t done = 0; done < pts.size(); done += batch) {
      const std::size_t end =
          std::min(pts.size(), done + static_cast<std::size_t>(batch));
      const std::vector<std::vector<ValType>> chunk(
          pts.begin() + static_cast<std::ptrdiff_t>(done),
          pts.begin() + static_cast<std::ptrdiff_t>(end));
      BatchedSim sim(n, static_cast<int>(chunk.size()));
      sim.run_fresh(ansatz, chunk);
      for (const ValType v : sim.expectations(h)) e.push_back(v);
    }
    return e;
  };

  BatchObjective objective = energy_objective(n, ansatz, h, batch);
  for (const int width : {8, 2, 8, 3}) {
    const auto pts = points(width);
    EXPECT_EQ(objective(pts), fresh(pts)) << "width " << width;
    BatchObjective copy = objective;
    const auto other = points(width == 8 ? 3 : 8);
    EXPECT_EQ(copy(other), fresh(other)) << "copy after width " << width;
  }

  const std::vector<std::vector<std::vector<ValType>>> work = {
      points(8), points(2), points(11), points(1)};
  std::vector<std::vector<ValType>> want;
  for (const auto& pts : work) want.push_back(fresh(pts));
  std::vector<std::vector<ValType>> got[2];
  std::thread threads[2];
  for (int t = 0; t < 2; ++t) {
    threads[t] = std::thread([&work, &out = got[t], f = objective]() mutable {
      for (int rep = 0; rep < 3; ++rep) {
        for (const auto& pts : work) out.push_back(f(pts));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& out : got) {
    ASSERT_EQ(out.size(), 3 * work.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], want[i % work.size()]) << "call " << i;
    }
  }
}

TEST(BatchedOptimizer, EnergyObjectiveFindsH2GroundState) {
  // The batched VQE objective: simplex evaluations ride the SPMD engine.
  const Hamiltonian h2 = h2_hamiltonian();
  NelderMead::Options opt;
  opt.max_iterations = 60;
  opt.initial_step = 0.3;
  NelderMead nm(opt);
  const OptResult r =
      nm.minimize(energy_objective(2, h2_ucc_ansatz(), h2, 4), {0.0});
  EXPECT_NEAR(r.best_value, h2.ground_energy(), 1e-5);
}

} // namespace
} // namespace svsim::vqa
