// Kernel correctness: every gate, under every execution strategy that
// feeds its shared body — solo scalar and solo SIMD at each level (on
// SingleSim), the peer pointer array and SHMEM get/put (PeerSim ×2,
// ShmemSim ×2), and the batched lanes at each level — must act
// identically to the dense-matrix reference (GeneralizedSim) on random
// states, for every operand qubit position (including the strided low
// qubits and the high qubits that straddle partition boundaries in the
// distributed tiers). n = 7 runs whole SIMD vectors; n = 3 leaves fewer
// work items than the AVX-512 width, so the scalar tail does the work.
// The solo SIMD strategy is also pinned on sub-ranges against the solo
// scalar strategy (unit-stride loads, gathers, unaligned starts, tails),
// and on blocks whose per-block range is shorter than a vector.

// GCC 12 reports -Wmaybe-uninitialized inside the AVX-512 headers when
// this file instantiates the vector kernel tables: the intrinsics pass a
// deliberately self-initialized "undefined" register as the unused merge
// source (a false positive, GCC bug 105593). The state is set before any
// header is read, since the warning is located in the system header.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/batched_sim.hpp"
#include "core/generalized_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"

namespace svsim {
namespace {

constexpr IdxType kN = 7; // 128 amplitudes: whole 8-lane SIMD vectors

StateVector random_state(IdxType n, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sv(n);
  ValType norm = 0;
  for (auto& a : sv.amps) {
    a = Complex{rng.next_gaussian(), rng.next_gaussian()};
    norm += std::norm(a);
  }
  const ValType inv = 1.0 / std::sqrt(norm);
  for (auto& a : sv.amps) a *= inv;
  return sv;
}

void load(SingleSim& sim, const StateVector& sv) {
  for (IdxType k = 0; k < sim.dim(); ++k) {
    sim.real()[k] = sv.amps[static_cast<std::size_t>(k)].real();
    sim.imag()[k] = sv.amps[static_cast<std::size_t>(k)].imag();
  }
}

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (max_simd_level() >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (max_simd_level() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

/// `g` applied to `init` by the dense-matrix reference.
StateVector reference(const Gate& g, const StateVector& init) {
  GeneralizedSim ref(init.n_qubits);
  ref.load_state(init);
  if (g.qb1 < 0) {
    ref.apply_matrix(matrix_1q(g), g.qb0);
  } else {
    ref.apply_matrix(matrix_2q(g), g.qb0, g.qb1);
  }
  return ref.state();
}

/// Member b's variant of `g`: its own angles, same op and operands.
Gate member_gate(const Gate& g, IdxType b) {
  Gate m = g;
  m.theta += 0.37 * static_cast<ValType>(b);
  m.phi -= 0.21 * static_cast<ValType>(b);
  m.lam += 0.13 * static_cast<ValType>(b);
  return m;
}

/// Run `g` on `init` under every strategy and compare each result with
/// the reference; `what` labels failures.
void check_everywhere(const Gate& g, const StateVector& init,
                      const std::string& what) {
  const IdxType n = init.n_qubits;
  const StateVector want = reference(g, init);
  Circuit c(n);
  c.append(g);

  for (const SimdLevel level : available_levels()) {
    SimConfig cfg;
    cfg.simd = level;
    SingleSim sim(n, cfg);
    load(sim, init);
    sim.run(c);
    EXPECT_LT(sim.state().max_diff(want), 1e-12)
        << what << " single simd " << to_string(level);
  }

  std::vector<std::unique_ptr<Simulator>> parts;
  parts.push_back(std::make_unique<PeerSim>(n, 2));
  parts.push_back(std::make_unique<ShmemSim>(n, 2));
  for (const auto& sim : parts) {
    sim->load_state(init);
    sim->run(c);
    EXPECT_LT(sim->state().max_diff(want), 1e-12)
        << what << " " << sim->name() << " x2";
  }

  // Batched: one member past a whole lane, each member with its own
  // state and angles.
  for (const SimdLevel level : available_levels()) {
    SimConfig cfg;
    cfg.simd = level;
    const IdxType lanes = BatchedSim(n, 1, cfg).lane_width();
    const IdxType batch = lanes + 1;
    BatchedSim bsim(n, batch, cfg);
    std::vector<Circuit> members;
    std::vector<StateVector> inits;
    for (IdxType b = 0; b < batch; ++b) {
      inits.push_back(b == 0 ? init : random_state(n, 1000 + b));
      Circuit mc(n);
      mc.append(member_gate(g, b));
      members.push_back(std::move(mc));
      for (IdxType k = 0; k < bsim.dim(); ++k) {
        const Complex a = inits.back().amps[static_cast<std::size_t>(k)];
        bsim.real_data()[k * batch + b] = a.real();
        bsim.imag_data()[k * batch + b] = a.imag();
      }
    }
    bsim.run(members);
    for (IdxType b = 0; b < batch; ++b) {
      const StateVector mwant =
          reference(member_gate(g, b), inits[static_cast<std::size_t>(b)]);
      EXPECT_LT(bsim.state(b).max_diff(mwant), 1e-12)
          << what << " batched simd " << to_string(level) << " B=" << batch
          << " member " << b;
    }
  }
}

class Kernel1QTest : public ::testing::TestWithParam<OP> {};

TEST_P(Kernel1QTest, MatchesDenseMatrixEverywhere) {
  const OP op = GetParam();
  for (const IdxType n : {IdxType{3}, kN}) {
    const StateVector init = random_state(n, 7777);
    for (IdxType q = 0; q < n; ++q) {
      for (const ValType t : {0.0, 0.777, -2.1}) {
        Gate g = make_gate(op, q);
        g.theta = t;
        g.phi = 0.3 * t;
        g.lam = -0.2 + t;
        check_everywhere(g, init,
                         std::string(op_name(op)) + " n=" +
                             std::to_string(n) + " q=" + std::to_string(q) +
                             " t=" + std::to_string(t));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, Kernel1QTest,
                         ::testing::Values(OP::ID, OP::X, OP::Y, OP::Z, OP::H,
                                           OP::S, OP::SDG, OP::T, OP::TDG,
                                           OP::RX, OP::RY, OP::RZ, OP::U1,
                                           OP::U2, OP::U3));

class Kernel2QTest : public ::testing::TestWithParam<OP> {};

TEST_P(Kernel2QTest, MatchesDenseMatrixEverywhere) {
  const OP op = GetParam();
  for (const IdxType n : {IdxType{3}, kN}) {
    const StateVector init = random_state(n, 31415);
    for (auto [a, b] :
         {std::pair<IdxType, IdxType>{0, 1}, {1, 0}, {0, n - 1}, {n - 1, 0},
          {1, n - 1}, {n - 1, 1}, {n - 2, n - 1}, {2, 5}, {5, 2}}) {
      if (a >= n || b >= n) continue;
      Gate g = make_gate(op, a, b);
      g.theta = 0.613;
      g.phi = -0.35;
      g.lam = 1.2;
      check_everywhere(g, init,
                       std::string(op_name(op)) + " n=" + std::to_string(n) +
                           " (" + std::to_string(a) + "," +
                           std::to_string(b) + ")");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, Kernel2QTest,
                         ::testing::Values(OP::CX, OP::CY, OP::CZ, OP::CH,
                                           OP::SWAP, OP::CRX, OP::CRY,
                                           OP::CRZ, OP::CU1, OP::CU3, OP::RXX,
                                           OP::RZZ));

// Norm preservation under long random unitary circuits — per SIMD level.
class NormPreservationTest : public ::testing::TestWithParam<int> {};

TEST_P(NormPreservationTest, RandomCircuitKeepsNormOne) {
  const auto levels = available_levels();
  const SimdLevel level =
      levels[static_cast<std::size_t>(GetParam()) % levels.size()];
  SimConfig cfg;
  cfg.simd = level;
  SingleSim sim(8, cfg);
  Rng rng(1234 + static_cast<std::uint64_t>(GetParam()));

  Circuit c(8);
  const OP pool[] = {OP::H,  OP::X,  OP::T,   OP::S,   OP::RX, OP::RY,
                     OP::RZ, OP::U3, OP::CX,  OP::CZ,  OP::CU1, OP::SWAP,
                     OP::RXX, OP::RZZ, OP::CRY, OP::U1};
  for (int i = 0; i < 300; ++i) {
    const OP op = pool[rng.next_below(16)];
    const auto q0 = static_cast<IdxType>(rng.next_below(8));
    auto q1 = static_cast<IdxType>(rng.next_below(8));
    while (q1 == q0) q1 = static_cast<IdxType>(rng.next_below(8));
    Gate g = op_info(op).n_qubits == 1 ? make_gate(op, q0)
                                       : make_gate(op, q0, q1);
    g.theta = rng.uniform(-PI, PI);
    g.phi = rng.uniform(-PI, PI);
    g.lam = rng.uniform(-PI, PI);
    c.append(g);
  }
  sim.run(c);
  EXPECT_NEAR(sim.state().norm(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormPreservationTest, ::testing::Range(0, 6));

// Circuit followed by its inverse returns to the initial state exactly.
TEST(KernelProperties, CircuitTimesInverseIsIdentity) {
  SingleSim sim(6);
  Rng rng(99);
  Circuit c(6);
  const OP pool[] = {OP::H, OP::T, OP::S, OP::RX, OP::RY, OP::U3,
                     OP::CX, OP::CZ, OP::CU3, OP::SWAP, OP::CRZ, OP::U2};
  for (int i = 0; i < 120; ++i) {
    const OP op = pool[rng.next_below(12)];
    const auto q0 = static_cast<IdxType>(rng.next_below(6));
    auto q1 = static_cast<IdxType>(rng.next_below(6));
    while (q1 == q0) q1 = static_cast<IdxType>(rng.next_below(6));
    Gate g = op_info(op).n_qubits == 1 ? make_gate(op, q0)
                                       : make_gate(op, q0, q1);
    g.theta = rng.uniform(-PI, PI);
    g.phi = rng.uniform(-PI, PI);
    g.lam = rng.uniform(-PI, PI);
    c.append(g);
  }
  sim.run(c);
  sim.run(c.inverse());
  const StateVector sv = sim.state();
  EXPECT_NEAR(sv.prob_of(0), 1.0, 1e-9);
  EXPECT_NEAR(std::abs(sv.amps[0] - Complex{1, 0}), 0.0, 1e-7);
}

// --- The solo SIMD strategy on sub-ranges ---------------------------------

/// Operand placements whose lowest qubit is `low` in an n-qubit register:
/// the qubit itself for a 1-qubit op; (low, top), (top, low) and
/// (low, low + 1) for a 2-qubit op.
std::vector<std::pair<IdxType, IdxType>> placements(bool two_qubit,
                                                    IdxType low, IdxType n) {
  if (!two_qubit) return {{low, -1}};
  return {{low, n - 1}, {n - 1, low}, {low, low + 1}};
}

// The solo SIMD strategy (solo_kernel<P, B, L>, from the kernel table of
// L) over work items [begin, end) against the solo scalar strategy over
// the same range, for every unitary op at every lane
// level this build carries, with the lowest operand at log2 W - 1 (the
// gathers), log2 W and log2 W + 1 (the unit-stride loads), starts aligned
// and not, and lengths that leave every kind of tail. Amplitudes the range
// touches must agree to 1e-12 and, since every lane evaluates the scalar
// expression, bit for bit; every other amplitude must keep its bytes.
TEST(SoloSimd, RangesMatchScalarStrategy) {
  std::uint64_t compared = 0;
  std::uint64_t failures = 0;
  std::uint64_t bit_diffs = 0;
  std::string first;
  for (const SimdLevel level : available_levels()) {
    kernels::with_lane(level, [&]<class L>() {
      const IdxType w = L::W;
      const IdxType lg_w = log2_exact(w);
      kernels::for_each_unitary([&]<OP op, kernels::Pat P, class B>() {
        using Pt = kernels::Pattern<P>;
        for (const IdxType n : {IdxType{7}, IdxType{9}}) {
          const IdxType dim = pow2(n);
          const StateVector init = random_state(n, 4242 + n);
          std::vector<ValType> re0(static_cast<std::size_t>(dim));
          std::vector<ValType> im0(static_cast<std::size_t>(dim));
          for (IdxType k = 0; k < dim; ++k) {
            re0[k] = init.amps[static_cast<std::size_t>(k)].real();
            im0[k] = init.amps[static_cast<std::size_t>(k)].imag();
          }
          for (IdxType low = lg_w > 0 ? lg_w - 1 : 0; low <= lg_w + 1; ++low) {
            for (const auto& [a, b] : placements(Pt::kTwoQubit, low, n)) {
              Gate g = Pt::kTwoQubit ? make_gate(op, a, b) : make_gate(op, a);
              g.theta = 0.613;
              g.phi = -0.35;
              g.lam = 1.2;
              ValType coef[kernels::kMaxCoefRows] = {};
              kernels::fill_coef(g, coef, 1, 0);
              const kernels::UGate ug{g, coef, 1};
              const Pt pat(g);
              const IdxType work = gate_work_items(g, n);
              for (const IdxType first_item : {IdxType{0}, IdxType{1}, w - 1,
                                               w, 2 * w + 3}) {
                for (const IdxType len : {IdxType{0}, IdxType{1}, w - 1, w,
                                          3 * w + 1, work}) {
                  const IdxType begin = std::min(first_item, work);
                  const IdxType end = std::min(begin + len, work);
                  std::vector<ValType> gr = re0, gi = im0, wr = re0, wi = im0;
                  LocalSpace got;
                  got.real = gr.data();
                  got.imag = gi.data();
                  got.dim = dim;
                  LocalSpace want = got;
                  want.real = wr.data();
                  want.imag = wi.data();
                  // Through the table SingleSim dispatches from.
                  KernelTable<LocalSpace>::get<L>()[static_cast<int>(op)](
                      ug, got, begin, end);
                  kernels::solo_kernel<P, B, kernels::ScalarLane, LocalSpace>(
                      ug, want, begin, end);
                  std::vector<char> touched(static_cast<std::size_t>(dim), 0);
                  for (IdxType i = begin; i < end; ++i) {
                    const IdxType s = pat.template base<kernels::ScalarLane>(i);
                    for (int k = 0; k < Pt::kSites; ++k) {
                      touched[s + pat.off[k][0]] = 1;
                      if constexpr (Pt::kPair) touched[s + pat.off[k][1]] = 1;
                    }
                  }
                  for (IdxType k = 0; k < dim; ++k) {
                    bool ok = true;
                    if (touched[k] != 0) {
                      ++compared;
                      ok = std::abs(gr[k] - wr[k]) <= 1e-12 &&
                           std::abs(gi[k] - wi[k]) <= 1e-12;
                      if (std::memcmp(&gr[k], &wr[k], sizeof(ValType)) != 0 ||
                          std::memcmp(&gi[k], &wi[k], sizeof(ValType)) != 0) {
                        ++bit_diffs;
                      }
                    } else {
                      ok = std::memcmp(&gr[k], &re0[k], sizeof(ValType)) == 0 &&
                           std::memcmp(&gi[k], &im0[k], sizeof(ValType)) == 0;
                    }
                    if (ok) continue;
                    if (failures++ == 0) {
                      first = std::string(op_name(op)) + " " +
                              to_string(level) + " n=" + std::to_string(n) +
                              " (" + std::to_string(a) + "," +
                              std::to_string(b) + ") [" +
                              std::to_string(begin) + "," +
                              std::to_string(end) + ") amp " +
                              std::to_string(k) +
                              (touched[k] != 0 ? " differs from scalar"
                                               : " outside the range changed");
                    }
                  }
                }
              }
            }
          }
        }
      });
    });
  }
  EXPECT_EQ(failures, 0u) << "first: " << first;
  EXPECT_EQ(bit_diffs, 0u) << "of " << compared << " touched amplitudes";
  EXPECT_GT(compared, 0u);
}

// Blocks whose per-block range is shorter than a vector (b = 3, 4) or just
// one or two vectors long (b = 5): a blocked SingleSim at each lane level
// must reproduce the per-gate loop on a random circuit over every unitary
// op, with low operands throughout.
TEST(SoloSimd, SmallBlocksMatchPerGateLoop) {
  std::vector<OP> ops;
  kernels::for_each_unitary(
      [&]<OP op, kernels::Pat, class>() { ops.push_back(op); });
  for (const IdxType n : {IdxType{7}, IdxType{9}}) {
    Rng rng(2718 + static_cast<std::uint64_t>(n));
    Circuit c(n);
    for (int i = 0; i < 240; ++i) {
      const OP op = ops[rng.next_below(ops.size())];
      // Mostly qubits below 5, so most gates join the blocked windows.
      const IdxType span = rng.next_below(4) == 0 ? n : 5;
      const auto q0 = static_cast<IdxType>(rng.next_below(span));
      auto q1 = static_cast<IdxType>(rng.next_below(span));
      while (q1 == q0) q1 = static_cast<IdxType>(rng.next_below(span));
      Gate g = op_info(op).n_qubits == 1 ? make_gate(op, q0)
                                         : make_gate(op, q0, q1);
      g.theta = rng.uniform(-PI, PI);
      g.phi = rng.uniform(-PI, PI);
      g.lam = rng.uniform(-PI, PI);
      c.append(g);
    }
    const StateVector init = random_state(n, 99 + n);
    for (const SimdLevel level : available_levels()) {
      SimConfig cfg;
      cfg.simd = level;
      cfg.sched_window = 0;
      SingleSim per_gate(n, cfg);
      load(per_gate, init);
      per_gate.run(c);
      for (const int b : {3, 4, 5}) {
        cfg.sched_window = b;
        SingleSim blocked(n, cfg);
        load(blocked, init);
        blocked.run(c);
        const obs::RunReport& rep = blocked.last_report();
        EXPECT_TRUE(rep.sched.active) << "b=" << b;
        EXPECT_EQ(rep.sched.block_exp, b);
        EXPECT_LT(blocked.state().max_diff(per_gate.state()), 1e-12)
            << "n=" << n << " b=" << b << " simd " << to_string(level);
      }
    }
  }
}

// The dispatch path: uploading a circuit resolves every gate to a non-null
// kernel pointer and MA/measure work through the same loop.
TEST(Dispatch, UploadResolvesAllKernelOps) {
  const auto& table = KernelTable<LocalSpace>::get();
  for (int i = 0; i < kNumOps; ++i) {
    const OP op = static_cast<OP>(i);
    if (is_kernel_op(op) || op == OP::M || op == OP::MA || op == OP::RESET ||
        op == OP::BARRIER) {
      EXPECT_NE(table[static_cast<std::size_t>(i)], nullptr) << op_name(op);
    }
  }
}

} // namespace
} // namespace svsim
