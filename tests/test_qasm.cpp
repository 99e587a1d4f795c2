// OpenQASM 2.0 frontend tests: lexing, parsing, expression evaluation,
// custom gate expansion, register broadcast, error diagnostics, and the
// to_qasm -> parse round trip.
#include <gtest/gtest.h>

#include <cmath>

#include "core/single_sim.hpp"
#include "qasm/lexer.hpp"
#include "qasm/parser.hpp"

namespace svsim {
namespace {

using qasm::parse_qasm;
using qasm::ParseError;

TEST(Lexer, TokenizesRepresentativeProgram) {
  const auto toks = qasm::tokenize(
      "OPENQASM 2.0; // comment\nqreg q[3];\nrx(pi/2) q[0]; measure q -> c;");
  ASSERT_GT(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, qasm::Tok::kIdent);
  EXPECT_EQ(toks[0].text, "OPENQASM");
  EXPECT_EQ(toks[1].kind, qasm::Tok::kReal);
  EXPECT_DOUBLE_EQ(toks[1].num, 2.0);
  EXPECT_EQ(toks.back().kind, qasm::Tok::kEof);
}

TEST(Lexer, ScientificNotationAndArrow) {
  const auto toks = qasm::tokenize("u1(1.5e-3) q[0]; measure q->c;");
  bool saw_real = false, saw_arrow = false;
  for (const auto& t : toks) {
    if (t.kind == qasm::Tok::kReal && std::abs(t.num - 1.5e-3) < 1e-12) {
      saw_real = true;
    }
    if (t.kind == qasm::Tok::kArrow) saw_arrow = true;
  }
  EXPECT_TRUE(saw_real);
  EXPECT_TRUE(saw_arrow);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_THROW(qasm::tokenize("h q[0] @;"), ParseError);
  EXPECT_THROW(qasm::tokenize("\"unterminated"), ParseError);
}

TEST(Parser, BellCircuitEndToEnd) {
  const Circuit c = parse_qasm(R"(
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
)");
  EXPECT_EQ(c.n_qubits(), 2);
  EXPECT_EQ(c.n_gates(), 4);
  SingleSim sim(2);
  sim.run(c);
  EXPECT_EQ(sim.cbits()[0], sim.cbits()[1]);
}

TEST(Parser, ExpressionEvaluation) {
  const Circuit c = parse_qasm(R"(
qreg q[1];
u1(pi/4) q[0];
u1(-pi) q[0];
u1(2*pi/8 + 1.5) q[0];
u1(cos(0)) q[0];
u1(2^3) q[0];
u1(sqrt(4)/2) q[0];
)");
  ASSERT_EQ(c.n_gates(), 6);
  EXPECT_NEAR(c.gates()[0].theta, PI / 4, 1e-15);
  EXPECT_NEAR(c.gates()[1].theta, -PI, 1e-15);
  EXPECT_NEAR(c.gates()[2].theta, PI / 4 + 1.5, 1e-15);
  EXPECT_NEAR(c.gates()[3].theta, 1.0, 1e-15);
  EXPECT_NEAR(c.gates()[4].theta, 8.0, 1e-15);
  EXPECT_NEAR(c.gates()[5].theta, 1.0, 1e-15);
}

TEST(Parser, RegisterBroadcast) {
  const Circuit c = parse_qasm(R"(
qreg q[3];
qreg r[3];
h q;
cx q,r;
cx q[0],r;
)");
  // h q -> 3 gates; cx q,r -> 3; cx q[0],r -> 3.
  EXPECT_EQ(c.count_op(OP::H), 3);
  EXPECT_EQ(c.cx_count(), 6);
  // Registers are flattened in order: r starts at qubit 3.
  EXPECT_EQ(c.gates()[3].qb0, 0);
  EXPECT_EQ(c.gates()[3].qb1, 3);
}

TEST(Parser, CustomGateDefinitionExpands) {
  const Circuit c = parse_qasm(R"(
qreg q[3];
gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }
gate entangle(t) a,b { h a; cx a,b; rz(t/2) b; }
majority q[0],q[1],q[2];
entangle(pi) q[0],q[2];
)");
  // majority = 2 cx + ccx(15 gates) = 17; entangle = 3.
  EXPECT_EQ(c.n_gates(), 20);
  // rz got t/2 = pi/2.
  const Gate& last = c.gates().back();
  EXPECT_EQ(last.op, OP::RZ);
  EXPECT_NEAR(last.theta, PI / 2, 1e-15);
}

TEST(Parser, NestedCustomGates) {
  const Circuit c = parse_qasm(R"(
qreg q[2];
gate inner(t) a { rx(t) a; }
gate outer(t) a,b { inner(t*2) a; inner(-t) b; }
outer(0.5) q[0],q[1];
)");
  ASSERT_EQ(c.n_gates(), 2);
  EXPECT_NEAR(c.gates()[0].theta, 1.0, 1e-15);
  EXPECT_NEAR(c.gates()[1].theta, -0.5, 1e-15);
}

TEST(Parser, UAndCXBuiltinsMapToU3AndCx) {
  const Circuit c = parse_qasm(R"(
qreg q[2];
U(0.1,0.2,0.3) q[0];
CX q[0],q[1];
)");
  ASSERT_EQ(c.n_gates(), 2);
  EXPECT_EQ(c.gates()[0].op, OP::U3);
  EXPECT_NEAR(c.gates()[0].theta, 0.1, 1e-15);
  EXPECT_NEAR(c.gates()[0].phi, 0.2, 1e-15);
  EXPECT_NEAR(c.gates()[0].lam, 0.3, 1e-15);
  EXPECT_EQ(c.gates()[1].op, OP::CX);
}

TEST(Parser, MeasureWholeRegister) {
  const Circuit c = parse_qasm(R"(
qreg q[3];
creg c[3];
h q;
measure q -> c;
)");
  EXPECT_EQ(c.count_op(OP::M), 3);
}

TEST(Parser, ResetAndBarrierAndOpaque) {
  const Circuit c = parse_qasm(R"(
qreg q[2];
opaque magic a,b;
h q[0];
barrier q;
reset q[1];
)");
  EXPECT_EQ(c.count_op(OP::BARRIER), 1);
  EXPECT_EQ(c.count_op(OP::RESET), 1);
}

TEST(Parser, CompoundModeControlsLowering) {
  const std::string src = "qreg q[2]; cz q[0],q[1];";
  const Circuit native = parse_qasm(src, CompoundMode::kNative);
  const Circuit lowered = parse_qasm(src, CompoundMode::kDecompose);
  EXPECT_EQ(native.n_gates(), 1);
  EXPECT_EQ(lowered.n_gates(), 3);
}

TEST(Parser, Diagnostics) {
  EXPECT_THROW(parse_qasm("h q[0];"), Error);              // undeclared qreg
  EXPECT_THROW(parse_qasm("qreg q[1]; bogus q[0];"), Error); // unknown gate
  EXPECT_THROW(parse_qasm("qreg q[1]; h q[5];"), Error);   // out of range
  EXPECT_THROW(parse_qasm("qreg q[1]; rx() q[0];"), Error); // missing param
  EXPECT_THROW(parse_qasm("qreg q[2]; if (c==1) x q[0];"), ParseError);
  EXPECT_THROW(parse_qasm("qreg q[1]; include \"other.inc\";"), Error);
  EXPECT_THROW(parse_qasm("qreg q[2]; cx q[0];"), Error);  // arity
  // The fused dense op is internal: its name is no OpenQASM gate.
  EXPECT_THROW(parse_qasm("qreg q[2]; dense2 q[0],q[1];"), Error);
}

TEST(Parser, RoundTripThroughToQasm) {
  Circuit original(3, CompoundMode::kNative);
  original.h(0).cu1(0.25, 0, 1).rxx(0.5, 1, 2).u3(0.1, 0.2, 0.3, 2)
      .swap(0, 2).measure(1, 1);
  const Circuit reparsed =
      parse_qasm(original.to_qasm(), CompoundMode::kNative);
  ASSERT_EQ(reparsed.n_gates(), original.n_gates());
  for (IdxType i = 0; i < original.n_gates(); ++i) {
    const Gate& a = original.gates()[static_cast<std::size_t>(i)];
    const Gate& b = reparsed.gates()[static_cast<std::size_t>(i)];
    EXPECT_EQ(a.op, b.op) << i;
    EXPECT_EQ(a.qb0, b.qb0) << i;
    EXPECT_EQ(a.qb1, b.qb1) << i;
    EXPECT_NEAR(a.theta, b.theta, 1e-15) << i;
    EXPECT_NEAR(a.phi, b.phi, 1e-15) << i;
    EXPECT_NEAR(a.lam, b.lam, 1e-15) << i;
  }
}

TEST(Parser, MultipleQregsFlatten) {
  const Circuit c = parse_qasm(R"(
qreg a[2];
qreg b[3];
x a[1];
x b[0];
)");
  EXPECT_EQ(c.n_qubits(), 5);
  EXPECT_EQ(c.gates()[0].qb0, 1);
  EXPECT_EQ(c.gates()[1].qb0, 2);
}

// --- regressions found by the differential/fuzzing campaign ---

TEST(Parser, RejectsDuplicateRegisterNames) {
  // Previously the second declaration silently overwrote the first's
  // offset while its size still counted toward the circuit width, so
  // `q[0]` in the program below aliased qubit 2 of a 5-qubit circuit.
  EXPECT_THROW(parse_qasm("qreg q[2];\nqreg q[3];\nh q[0];"), ParseError);
  EXPECT_THROW(parse_qasm("qreg q[2];\ncreg c[2];\ncreg c[2];"), ParseError);
  // qregs and cregs share the OpenQASM identifier namespace.
  EXPECT_THROW(parse_qasm("qreg r[2];\ncreg r[2];"), ParseError);
}

TEST(Parser, RejectsNonPositiveRegisterSize) {
  // `qreg q[0]` used to be accepted; a broadcast over it then indexed an
  // empty register.
  EXPECT_THROW(parse_qasm("qreg q[0];"), ParseError);
  EXPECT_THROW(parse_qasm("qreg q[0];\nh q;"), ParseError);
  EXPECT_THROW(parse_qasm("creg c[0];"), ParseError);
}

TEST(Parser, RejectsRegisterSizeOutsideIntegerRange) {
  // A literal past 2^53 (or any absurd width) must be rejected before the
  // double -> int cast, which would otherwise be undefined behaviour.
  EXPECT_THROW(parse_qasm("qreg q[99999999999999999999];"), Error);
  EXPECT_THROW(parse_qasm("qreg q[2];\ncreg c[99999999];\nh q[0];"), Error);
}

TEST(Parser, TruncatedDeclarationIsDiagnosedNotMisread) {
  // The register pre-scan must not read arbitrary neighbouring tokens as
  // the size when the declaration shape is broken: each of these must be
  // rejected (a truncated declaration leaves no usable qreg), not crash.
  EXPECT_THROW(parse_qasm("qreg q;"), Error);
  EXPECT_THROW(parse_qasm("qreg q["), Error);
  EXPECT_THROW(parse_qasm("qreg q[2"), Error);
  EXPECT_THROW(parse_qasm("qreg"), Error);
}

TEST(Parser, HugeQubitIndexRejectedWithoutOverflow) {
  EXPECT_THROW(parse_qasm("qreg q[2];\nh q[99999999999999999999];"), Error);
  EXPECT_THROW(
      parse_qasm("qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[99999999999999999999];"),
      Error);
}

} // namespace
} // namespace svsim
