// Tests for the dense gate matrices: unitarity across parameter sweeps,
// algebraic identities, and — crucially — that every qelib1.inc compound
// decomposition reproduces the native gate's matrix (simulated on a
// 2-qubit GeneralizedSim, comparing full-state action).
#include <gtest/gtest.h>

#include <cmath>

#include "core/generalized_sim.hpp"
#include "ir/matrices.hpp"

namespace svsim {
namespace {

Gate g1(OP op, ValType t = 0, ValType p = 0, ValType l = 0) {
  Gate g = make_gate(op, 0);
  g.theta = t;
  g.phi = p;
  g.lam = l;
  return g;
}

Gate g2(OP op, ValType t = 0, ValType p = 0, ValType l = 0) {
  Gate g = make_gate(op, 0, 1);
  g.theta = t;
  g.phi = p;
  g.lam = l;
  return g;
}

// --- unitarity sweeps -------------------------------------------------------

class Unitary1QTest : public ::testing::TestWithParam<OP> {};

TEST_P(Unitary1QTest, IsUnitaryAcrossParameters) {
  for (const ValType t : {0.0, 0.3, PI / 2, PI, 2.7, -1.1}) {
    const Gate g = g1(GetParam(), t, t / 2, -t / 3);
    EXPECT_TRUE(is_unitary(matrix_1q(g)))
        << op_name(GetParam()) << " theta=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, Unitary1QTest,
                         ::testing::Values(OP::U3, OP::U2, OP::U1, OP::ID,
                                           OP::X, OP::Y, OP::Z, OP::H, OP::S,
                                           OP::SDG, OP::T, OP::TDG, OP::RX,
                                           OP::RY, OP::RZ));

class Unitary2QTest : public ::testing::TestWithParam<OP> {};

TEST_P(Unitary2QTest, IsUnitaryAcrossParameters) {
  for (const ValType t : {0.0, 0.3, PI / 2, PI, -2.2}) {
    const Gate g = g2(GetParam(), t, t / 2, -t / 3);
    EXPECT_TRUE(is_unitary(matrix_2q(g)))
        << op_name(GetParam()) << " theta=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, Unitary2QTest,
                         ::testing::Values(OP::CX, OP::CY, OP::CZ, OP::CH,
                                           OP::SWAP, OP::CRX, OP::CRY, OP::CRZ,
                                           OP::CU1, OP::CU3, OP::RXX,
                                           OP::RZZ));

// --- algebraic identities ---------------------------------------------------

TEST(Matrices, HSquaredIsIdentity) {
  const Mat2 h = matrix_1q(g1(OP::H));
  EXPECT_LT(mat_distance(matmul(h, h), matrix_1q(g1(OP::ID))), 1e-12);
}

TEST(Matrices, AdjointPairsCancel) {
  const Mat2 id = matrix_1q(g1(OP::ID));
  EXPECT_LT(mat_distance(matmul(matrix_1q(g1(OP::S)), matrix_1q(g1(OP::SDG))),
                         id),
            1e-12);
  EXPECT_LT(mat_distance(matmul(matrix_1q(g1(OP::T)), matrix_1q(g1(OP::TDG))),
                         id),
            1e-12);
}

TEST(Matrices, TSquaredIsS) {
  const Mat2 t = matrix_1q(g1(OP::T));
  EXPECT_LT(mat_distance(matmul(t, t), matrix_1q(g1(OP::S))), 1e-12);
}

TEST(Matrices, SSquaredIsZ) {
  const Mat2 s = matrix_1q(g1(OP::S));
  EXPECT_LT(mat_distance(matmul(s, s), matrix_1q(g1(OP::Z))), 1e-12);
}

TEST(Matrices, U3ReproducesNamedGates) {
  // x = u3(pi,0,pi), h = u2(0,pi), z = u1(pi) per qelib1.
  EXPECT_LT(mat_distance(matrix_1q(g1(OP::U3, PI, 0, PI)),
                         matrix_1q(g1(OP::X))),
            1e-12);
  EXPECT_LT(mat_distance(matrix_1q(g1(OP::U2, 0, 0, PI)),
                         // u2 params are (phi, lam) stored in phi/lam:
                         matrix_1q([] {
                           Gate g = make_gate(OP::U2, 0);
                           g.phi = 0;
                           g.lam = PI;
                           return g;
                         }())),
            1e-12);
  EXPECT_LT(mat_distance(matrix_1q(g1(OP::U1, PI)), matrix_1q(g1(OP::Z))),
            1e-12);
}

TEST(Matrices, RzMatchesU1UpToGlobalPhase) {
  const Gate rz = g1(OP::RZ, 0.7);
  const Gate u1 = g1(OP::U1, 0.7);
  EXPECT_GT(mat_distance(matrix_1q(rz), matrix_1q(u1), false), 1e-3);
  EXPECT_LT(mat_distance(matrix_1q(rz), matrix_1q(u1), true), 1e-12);
}

TEST(Matrices, ControlledEmbedsBody) {
  const Mat4 cx = matrix_2q(g2(OP::CX));
  // Top-left block identity, bottom-right block X.
  EXPECT_EQ(cx[0], Complex(1, 0));
  EXPECT_EQ(cx[5], Complex(1, 0));
  EXPECT_EQ(cx[11], Complex(1, 0));
  EXPECT_EQ(cx[14], Complex(1, 0));
}

// --- decomposition equivalence ----------------------------------------------
// For each 2-qubit compound gate, run the native gate and its qelib1
// decomposition on the same random state and compare amplitudes. For
// gates whose qelib1 expansion introduces a global phase (rxx), compare
// via fidelity.

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

struct DecompCase {
  OP op;
  ValType theta, phi, lam;
  bool phase_exact; // compare amplitudes exactly vs fidelity-only
};

class DecompositionTest : public ::testing::TestWithParam<DecompCase> {};

TEST_P(DecompositionTest, NativeMatchesQelib1Expansion) {
  const DecompCase& tc = GetParam();
  for (auto [a, b] : {std::pair<IdxType, IdxType>{0, 1}, {1, 0},
                            {0, 2}, {2, 0}}) {
    Circuit native(3, CompoundMode::kNative);
    Circuit lowered(3, CompoundMode::kDecompose);
    Gate g = make_gate(tc.op, a, b);
    g.theta = tc.theta;
    g.phi = tc.phi;
    g.lam = tc.lam;
    native.append(g);
    lowered.append(g);

    const StateVector init = random_state(3, 42);
    GeneralizedSim s1(3), s2(3);
    s1.load_state(init);
    s2.load_state(init);
    s1.run(native);
    s2.run(lowered);
    const StateVector v1 = s1.state();
    const StateVector v2 = s2.state();
    EXPECT_NEAR(v1.fidelity(v2), 1.0, 1e-10)
        << op_name(tc.op) << " on (" << a << "," << b << ")";
    if (tc.phase_exact) {
      EXPECT_LT(v1.max_diff(v2), 1e-10)
          << op_name(tc.op) << " on (" << a << "," << b << ")";
    }
  }
}

// gtest prints a DecompCase as its raw bytes, and that dump becomes the
// ctest name. A static table is zero-initialised, padding included, so
// the names never change; built as temporaries in a Values() call, the
// padding held stack garbage (partly addresses, different every run).
constexpr DecompCase kCompound2QCases[] = {
    {OP::CZ, 0, 0, 0, true},
    {OP::CY, 0, 0, 0, true},
    // qelib1's ch expansion is e^{i pi/4} * CH — a pure global phase
    // (verified numerically), so fidelity-only.
    {OP::CH, 0, 0, 0, false},
    {OP::SWAP, 0, 0, 0, true},
    {OP::CRX, 0.8, 0, 0, true},
    {OP::CRY, -1.2, 0, 0, true},
    {OP::CRZ, 0.5, 0, 0, true},
    {OP::CU1, 0.9, 0, 0, true},
    {OP::CU3, 0.7, 0.4, -0.3, true},
    {OP::RZZ, 1.1, 0, 0, true},
    {OP::RXX, 0.6, 0, 0, false},
};

INSTANTIATE_TEST_SUITE_P(Compound2Q, DecompositionTest,
                         ::testing::ValuesIn(kCompound2QCases));

// Multi-controlled decompositions against directly-constructed truth:
// C3X must flip the target exactly when all three controls are set.
TEST(Decomposition, C3XActsAsTripleControlledX) {
  GeneralizedSim ref(4);
  Circuit c(4, CompoundMode::kNative);
  c.c3x(0, 1, 2, 3);
  for (IdxType basis = 0; basis < 16; ++basis) {
    StateVector init(4);
    init.amps[static_cast<std::size_t>(basis)] = 1.0;
    ref.load_state(init);
    ref.run(c);
    const auto probs = ref.state().probabilities();
    IdxType expected = basis;
    if ((basis & 0b0111) == 0b0111) expected = basis ^ 0b1000;
    EXPECT_NEAR(probs[static_cast<std::size_t>(expected)], 1.0, 1e-9)
        << "basis " << basis;
  }
}

TEST(Decomposition, C4XActsAsQuadControlledX) {
  GeneralizedSim ref(5);
  Circuit c(5, CompoundMode::kNative);
  c.c4x(0, 1, 2, 3, 4);
  for (IdxType basis = 0; basis < 32; ++basis) {
    StateVector init(5);
    init.amps[static_cast<std::size_t>(basis)] = 1.0;
    ref.load_state(init);
    ref.run(c);
    const auto probs = ref.state().probabilities();
    IdxType expected = basis;
    if ((basis & 0b01111) == 0b01111) expected = basis ^ 0b10000;
    EXPECT_NEAR(probs[static_cast<std::size_t>(expected)], 1.0, 1e-9)
        << "basis " << basis;
  }
}

TEST(Decomposition, CcxTruthTable) {
  GeneralizedSim ref(3);
  Circuit c(3, CompoundMode::kNative);
  c.ccx(0, 1, 2);
  for (IdxType basis = 0; basis < 8; ++basis) {
    StateVector init(3);
    init.amps[static_cast<std::size_t>(basis)] = 1.0;
    ref.load_state(init);
    ref.run(c);
    IdxType expected = basis;
    if ((basis & 0b011) == 0b011) expected = basis ^ 0b100;
    EXPECT_NEAR(ref.state().prob_of(expected), 1.0, 1e-9) << basis;
  }
}

TEST(Decomposition, CswapTruthTable) {
  GeneralizedSim ref(3);
  Circuit c(3, CompoundMode::kNative);
  c.cswap(0, 1, 2); // control q0, swap q1<->q2
  for (IdxType basis = 0; basis < 8; ++basis) {
    StateVector init(3);
    init.amps[static_cast<std::size_t>(basis)] = 1.0;
    ref.load_state(init);
    ref.run(c);
    IdxType expected = basis;
    if ((basis & 1) != 0) {
      const IdxType b1 = (basis >> 1) & 1;
      const IdxType b2 = (basis >> 2) & 1;
      expected = (basis & 1) | (b2 << 1) | (b1 << 2);
    }
    EXPECT_NEAR(ref.state().prob_of(expected), 1.0, 1e-9) << basis;
  }
}

} // namespace
} // namespace svsim
