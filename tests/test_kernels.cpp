// Kernel correctness: every gate, under every execution strategy that
// feeds its shared body — solo scalar and solo SIMD at each level (on
// SingleSim), the peer pointer array and SHMEM get/put (PeerSim ×2,
// ShmemSim ×2, each at every level), and the batched lanes at each
// level — must act identically to the dense-matrix reference
// (GeneralizedSim) on random states, for every operand qubit position
// (including the strided low qubits and the high qubits that straddle
// partition boundaries in the distributed tiers). n = 7 runs whole SIMD
// vectors; n = 3 leaves fewer work items than the AVX-512 width, so the
// scalar tail does the work.
// The solo SIMD strategy is also pinned on sub-ranges against the solo
// scalar strategy (plain loads, masked stores and lane permutes for every
// low-operand placement, unaligned heads, tails; the roles in one array
// or in two or four), and on blocks whose per-block range is shorter than
// a vector.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/batched_sim.hpp"
#include "core/generalized_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "testing/rand_circuit.hpp"

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

/// `c` applied to `init` by the dense-matrix reference.
StateVector reference(const Circuit& c, const StateVector& init) {
  GeneralizedSim ref(init.n_qubits);
  ref.load_state(init);
  ref.run(c);
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

/// Member b's one-gate circuit: member_gate(g, b) (g itself for b = 0),
/// or for a DENSE2 a random unitary of the member's own on g's operands.
Circuit member_circuit(const Gate& g, IdxType n, IdxType b) {
  Circuit c(n);
  if (g.op == OP::DENSE2) {
    Rng rng(500 + static_cast<std::uint64_t>(b));
    c.dense2(testing::random_unitary_2q(rng), g.qb0, g.qb1);
  } else {
    c.append(member_gate(g, b));
  }
  return c;
}

/// Run `g` on `init` under every strategy and compare each result with
/// the reference; `what` labels failures.
void check_everywhere(const Gate& g, const StateVector& init,
                      const std::string& what) {
  const IdxType n = init.n_qubits;
  const Circuit c = member_circuit(g, n, 0);
  const StateVector want = reference(c, init);

  for (const SimdLevel level : available_levels()) {
    SimConfig cfg;
    cfg.simd = level;
    SingleSim sim(n, cfg);
    load(sim, init);
    sim.run(c);
    EXPECT_LT(sim.state().max_diff(want), 1e-12)
        << what << " single simd " << to_string(level);
  }

  for (const SimdLevel level : available_levels()) {
    SimConfig cfg;
    cfg.simd = level;
    std::vector<std::unique_ptr<Simulator>> parts;
    parts.push_back(std::make_unique<PeerSim>(n, 2, cfg));
    parts.push_back(std::make_unique<ShmemSim>(n, 2, cfg));
    for (const auto& sim : parts) {
      sim->load_state(init);
      sim->run(c);
      EXPECT_LT(sim->state().max_diff(want), 1e-12)
          << what << " " << sim->name() << " x2 simd " << to_string(level);
    }
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
      members.push_back(member_circuit(g, n, b));
      for (IdxType k = 0; k < bsim.dim(); ++k) {
        const Complex a = inits.back().amps[static_cast<std::size_t>(k)];
        bsim.real_data()[k * batch + b] = a.real();
        bsim.imag_data()[k * batch + b] = a.imag();
      }
    }
    bsim.run(members);
    for (IdxType b = 0; b < batch; ++b) {
      const StateVector mwant =
          reference(members[static_cast<std::size_t>(b)],
                    inits[static_cast<std::size_t>(b)]);
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

// DENSE2 runs a random unitary per member (member_circuit).
INSTANTIATE_TEST_SUITE_P(AllOps, Kernel2QTest,
                         ::testing::Values(OP::CX, OP::CY, OP::CZ, OP::CH,
                                           OP::SWAP, OP::CRX, OP::CRY,
                                           OP::CRZ, OP::CU1, OP::CU3, OP::RXX,
                                           OP::RZZ, OP::DENSE2));

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

/// Operand placements at lane width 2^lg_w in an n-qubit register, for
/// every lowest qubit `low` from 0 to lg_w + 1: the qubit itself for a
/// 1-qubit op; (low, top), (top, low) and (low, low + 1) for a 2-qubit op,
/// plus (low, lg_w) and (lg_w, low) below lg_w; and for a 2-qubit op every
/// ordered pair of distinct qubits below lg_w (both operands in-vector).
std::vector<std::pair<IdxType, IdxType>> placements(bool two_qubit,
                                                    IdxType lg_w, IdxType n) {
  std::vector<std::pair<IdxType, IdxType>> out;
  for (IdxType low = 0; low <= lg_w + 1; ++low) {
    if (!two_qubit) {
      out.emplace_back(low, -1);
      continue;
    }
    out.emplace_back(low, n - 1);
    out.emplace_back(n - 1, low);
    out.emplace_back(low, low + 1);
    if (low < lg_w) {
      out.emplace_back(low, lg_w);
      out.emplace_back(lg_w, low);
    }
  }
  for (IdxType a = 0; two_qubit && a < lg_w; ++a) {
    for (IdxType b = 0; b < lg_w; ++b) {
      if (a != b) out.emplace_back(a, b);
    }
  }
  return out;
}

/// Placements with an operand on a "partition" qubit, at or above lg (the
/// state split into 2^(n - lg) allocations): the lowest qubit `low` from 0
/// to lg_w + 1 and lg - 1 with the top qubit, and, split four ways, with
/// qubit lg and both operands on the top two qubits. A 1-qubit op runs on
/// lg and on the top qubit.
std::vector<std::pair<IdxType, IdxType>> split_placements(bool two_qubit,
                                                          IdxType lg_w,
                                                          IdxType n,
                                                          IdxType lg) {
  std::vector<std::pair<IdxType, IdxType>> out;
  if (!two_qubit) {
    out.emplace_back(lg, -1);
    if (lg < n - 1) out.emplace_back(n - 1, -1);
    return out;
  }
  std::vector<IdxType> lows;
  for (IdxType low = 0; low <= lg_w + 1; ++low) lows.push_back(low);
  lows.push_back(lg - 1);
  for (const IdxType low : lows) {
    out.emplace_back(low, n - 1);
    out.emplace_back(n - 1, low);
    if (lg < n - 1) out.emplace_back(low, lg);
  }
  if (lg < n - 1) {
    out.emplace_back(lg, n - 1);
    out.emplace_back(n - 1, lg);
  }
  return out;
}

// The solo SIMD strategy (solo_kernel<P, B, L>) over work items
// [begin, end) against the solo scalar strategy (solo_kernel<P, B,
// ScalarLane>) over the same range, for every unitary op (DENSE2 with a
// random unitary) at every lane level this build carries. One array: the
// range through the kernel table SingleSim dispatches from, at every
// operand placement above (no, one or both operands below log2 W: plain
// loads, or loads plus in-register permutes or AVX2's whole or two-row
// transposes, and masked stores). Split: the state in two or four
// allocations, as the partitioned tiers hold it, with an operand on a
// partition qubit so the roles lie in two or four distinct allocations;
// the range lies in the first or the last run (KernelTable::on_range),
// its items counted from the run's first and each role's allocation
// resolved from the run's base. Starts aligned and not, and lengths that
// leave every kind of head and tail. Amplitudes the range touches must
// agree to 1e-12 and, since every lane evaluates the scalar expression,
// bit for bit; every other amplitude of every allocation must keep its
// bytes.
TEST(SoloSimd, RangesMatchScalarStrategy) {
  std::uint64_t compared = 0;
  std::uint64_t compared_split = 0;
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
          for (const int parts : {1, 2, 4}) {
            const IdxType lg = n - log2_exact(parts);
            const IdxType mask = pow2(lg) - 1;
            // Allocation p of the initial state, and the two copies the
            // strategies write.
            std::vector<std::vector<ValType>> re0(parts), im0(parts);
            for (IdxType k = 0; k < dim; ++k) {
              re0[k >> lg].push_back(init.amps[k].real());
              im0[k >> lg].push_back(init.amps[k].imag());
            }
            std::vector<std::vector<ValType>> gr = re0, gi = im0, wr = re0,
                                              wi = im0;
            const auto at_k = [&](const std::vector<std::vector<ValType>>& v,
                                  IdxType k) -> const ValType& {
              return v[k >> lg][k & mask];
            };
            for (const auto& [a, b] :
                 parts == 1 ? placements(Pt::kTwoQubit, lg_w, n)
                            : split_placements(Pt::kTwoQubit, lg_w, n, lg)) {
              Gate g = Pt::kTwoQubit ? make_gate(op, a, b) : make_gate(op, a);
              g.theta = 0.613;
              g.phi = -0.35;
              g.lam = 1.2;
              Circuit owner(n);
              if (op == OP::DENSE2) {
                Rng rng(static_cast<std::uint64_t>(7 * a + b));
                owner.dense2(testing::random_unitary_2q(rng), a, b);
                g = owner.gates().back();
              }
              ValType coef[kernels::kMaxCoefRows] = {};
              kernels::fill_coef(g, owner.dense_table(), coef, 1, 0);
              const kernels::UGate ug{g, coef, 1};
              const Pt pat(g);
              const IdxType work = gate_work_items(g, n);
              const IdxType below = (pat.p < lg ? 1 : 0) +
                                    (Pt::kTwoQubit && pat.q < lg ? 1 : 0);
              const IdxType run_len = pow2(lg - below);
              // The first and the last run (one array is one run).
              const IdxType runs = work / run_len;
              for (IdxType run = 0; run < runs;
                   run += std::max(runs - 1, IdxType{1})) {
                const IdxType run_first = run * run_len;
                kernels::RoleBases got_at;
                kernels::RoleBases want_at;
                got_at.mask = want_at.mask = mask;
                std::set<IdxType> allocations;
                for (int r = 0; r < Pt::kTouched; ++r) {
                  const IdxType part =
                      (pat.base(run_first) + pat.role(r)) >> lg;
                  allocations.insert(part);
                  got_at.re[r] = gr[part].data();
                  got_at.im[r] = gi[part].data();
                  want_at.re[r] = wr[part].data();
                  want_at.im[r] = wi[part].data();
                }
                for (const IdxType first_item :
                     {IdxType{0}, IdxType{1}, w - 1, w, 2 * w + 3}) {
                  for (const IdxType len : {IdxType{0}, IdxType{1}, w - 1, w,
                                            3 * w + 1, run_len}) {
                    const IdxType begin = std::min(first_item, run_len);
                    const IdxType end = std::min(begin + len, run_len);
                    for (int p = 0; p < parts; ++p) {
                      std::copy(re0[p].begin(), re0[p].end(), gr[p].begin());
                      std::copy(im0[p].begin(), im0[p].end(), gi[p].begin());
                      std::copy(re0[p].begin(), re0[p].end(), wr[p].begin());
                      std::copy(im0[p].begin(), im0[p].end(), wi[p].begin());
                    }
                    if (parts == 1) {
                      // Through the table SingleSim dispatches from.
                      LocalSpace got;
                      got.real = gr[0].data();
                      got.imag = gi[0].data();
                      got.dim = dim;
                      KernelTable<LocalSpace>::get<L>()[static_cast<int>(op)](
                          ug, got, begin, end);
                    } else {
                      kernels::solo_kernel<P, B, L>(ug, got_at, begin, end);
                    }
                    kernels::solo_kernel<P, B, kernels::ScalarLane>(
                        ug, want_at, begin, end);
                    std::vector<char> touched(static_cast<std::size_t>(dim),
                                              0);
                    for (IdxType i = begin; i < end; ++i) {
                      const IdxType s = pat.base(run_first + i);
                      for (int r = 0; r < Pt::kTouched; ++r) {
                        touched[s + pat.role(r)] = 1;
                      }
                    }
                    for (IdxType k = 0; k < dim; ++k) {
                      const ValType& g_re = at_k(gr, k);
                      const ValType& g_im = at_k(gi, k);
                      bool ok = true;
                      if (touched[k] != 0) {
                        ++compared;
                        if (allocations.size() > 1) ++compared_split;
                        const ValType& w_re = at_k(wr, k);
                        const ValType& w_im = at_k(wi, k);
                        ok = std::abs(g_re - w_re) <= 1e-12 &&
                             std::abs(g_im - w_im) <= 1e-12;
                        if (std::memcmp(&g_re, &w_re, sizeof(ValType)) != 0 ||
                            std::memcmp(&g_im, &w_im, sizeof(ValType)) != 0) {
                          ++bit_diffs;
                        }
                      } else {
                        ok = std::memcmp(&g_re, &at_k(re0, k),
                                         sizeof(ValType)) == 0 &&
                             std::memcmp(&g_im, &at_k(im0, k),
                                         sizeof(ValType)) == 0;
                      }
                      if (ok) continue;
                      if (failures++ == 0) {
                        first = std::string(op_name(op)) + " " +
                                to_string(level) + " n=" + std::to_string(n) +
                                " x" + std::to_string(parts) + " (" +
                                std::to_string(a) + "," + std::to_string(b) +
                                ") run " + std::to_string(run) + " [" +
                                std::to_string(begin) + "," +
                                std::to_string(end) + ") amp " +
                                std::to_string(k) +
                                (touched[k] != 0
                                     ? " differs from scalar"
                                     : " outside the range changed");
                      }
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
  EXPECT_GT(compared_split, 0u);
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
      if (op == OP::DENSE2) {
        c.dense2(testing::random_unitary_2q(rng), q0, q1);
        continue;
      }
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
