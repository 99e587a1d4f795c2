#include "ir/circuit.hpp"

#include <sstream>

namespace svsim {

namespace {
constexpr ValType kPi = PI;
}

std::string Gate::str() const {
  std::ostringstream os;
  os << op_name(op);
  const OpInfo& info = op_info(op);
  if (info.n_params == 1) {
    os << "(" << theta << ")";
  } else if (info.n_params == 2) {
    os << "(" << phi << "," << lam << ")";
  } else if (info.n_params == 3) {
    os << "(" << theta << "," << phi << "," << lam << ")";
  }
  const IdxType qs[5] = {qb0, qb1, qb2, qb3, qb4};
  for (int i = 0; i < info.n_qubits; ++i) {
    os << (i == 0 ? " q[" : ",q[") << qs[i] << "]";
  }
  if (op == OP::M) os << " -> c[" << cbit << "]";
  return os.str();
}

Circuit::Circuit(IdxType n_qubits, CompoundMode mode, IdxType n_cbits)
    : n_qubits_(n_qubits),
      n_cbits_(n_cbits < 0 ? n_qubits : n_cbits),
      mode_(mode) {
  SVSIM_CHECK(n_qubits >= 1 && n_qubits <= 40,
              "qubit count out of supported range [1,40]");
}

void Circuit::check_qubit(IdxType q) const {
  SVSIM_CHECK(q >= 0 && q < n_qubits_, "qubit index out of range");
}

void Circuit::check_distinct2(IdxType a, IdxType b) const {
  check_qubit(a);
  check_qubit(b);
  SVSIM_CHECK(a != b, "2-qubit gate operands must be distinct");
}

void Circuit::push(const Gate& g) { gates_.push_back(g); }

// --- basic -----------------------------------------------------------------

Circuit& Circuit::u3(ValType theta, ValType phi, ValType lam, IdxType q) {
  check_qubit(q);
  Gate g = make_gate(OP::U3, q);
  g.theta = theta;
  g.phi = phi;
  g.lam = lam;
  push(g);
  return *this;
}

Circuit& Circuit::u2(ValType phi, ValType lam, IdxType q) {
  check_qubit(q);
  Gate g = make_gate(OP::U2, q);
  g.phi = phi;
  g.lam = lam;
  push(g);
  return *this;
}

Circuit& Circuit::u1(ValType lam, IdxType q) {
  check_qubit(q);
  push(make_gate1p(OP::U1, lam, q));
  return *this;
}

Circuit& Circuit::cx(IdxType ctrl, IdxType tgt) {
  check_distinct2(ctrl, tgt);
  push(make_gate(OP::CX, ctrl, tgt));
  return *this;
}

Circuit& Circuit::id(IdxType q) {
  check_qubit(q);
  push(make_gate(OP::ID, q));
  return *this;
}

// --- standard 1-qubit --------------------------------------------------------

#define SVSIM_DEFINE_1Q(fn, OPK)                                              \
  Circuit& Circuit::fn(IdxType q) {                                           \
    check_qubit(q);                                                           \
    push(make_gate(OP::OPK, q));                                              \
    return *this;                                                             \
  }

SVSIM_DEFINE_1Q(x, X)
SVSIM_DEFINE_1Q(y, Y)
SVSIM_DEFINE_1Q(z, Z)
SVSIM_DEFINE_1Q(h, H)
SVSIM_DEFINE_1Q(s, S)
SVSIM_DEFINE_1Q(sdg, SDG)
SVSIM_DEFINE_1Q(t, T)
SVSIM_DEFINE_1Q(tdg, TDG)
#undef SVSIM_DEFINE_1Q

#define SVSIM_DEFINE_1Q_1P(fn, OPK)                                           \
  Circuit& Circuit::fn(ValType theta, IdxType q) {                            \
    check_qubit(q);                                                           \
    push(make_gate1p(OP::OPK, theta, q));                                     \
    return *this;                                                             \
  }

SVSIM_DEFINE_1Q_1P(rx, RX)
SVSIM_DEFINE_1Q_1P(ry, RY)
SVSIM_DEFINE_1Q_1P(rz, RZ)
#undef SVSIM_DEFINE_1Q_1P

// --- compound 2-qubit --------------------------------------------------------
// In kNative mode these append a single gate executed by its specialized
// kernel; in kDecompose mode they expand exactly as qelib1.inc defines
// them, so gate counts match QASMBench / Table 4.

Circuit& Circuit::cz(IdxType a, IdxType b) {
  check_distinct2(a, b);
  if (mode_ == CompoundMode::kNative) {
    push(make_gate(OP::CZ, a, b));
  } else {
    h(b).cx(a, b).h(b);
  }
  return *this;
}

Circuit& Circuit::cy(IdxType a, IdxType b) {
  check_distinct2(a, b);
  if (mode_ == CompoundMode::kNative) {
    push(make_gate(OP::CY, a, b));
  } else {
    sdg(b).cx(a, b).s(b);
  }
  return *this;
}

Circuit& Circuit::ch(IdxType a, IdxType b) {
  check_distinct2(a, b);
  if (mode_ == CompoundMode::kNative) {
    push(make_gate(OP::CH, a, b));
  } else {
    h(b).sdg(b).cx(a, b).h(b).t(b).cx(a, b).t(b).h(b).s(b).x(b).s(a);
  }
  return *this;
}

Circuit& Circuit::swap(IdxType a, IdxType b) {
  check_distinct2(a, b);
  if (mode_ == CompoundMode::kNative) {
    push(make_gate(OP::SWAP, a, b));
  } else {
    cx(a, b).cx(b, a).cx(a, b);
  }
  return *this;
}

Circuit& Circuit::crx(ValType theta, IdxType a, IdxType b) {
  check_distinct2(a, b);
  if (mode_ == CompoundMode::kNative) {
    push(make_gate1p(OP::CRX, theta, a, b));
  } else {
    u1(kPi / 2, b);
    cx(a, b);
    u3(-theta / 2, 0, 0, b);
    cx(a, b);
    u3(theta / 2, -kPi / 2, 0, b);
  }
  return *this;
}

Circuit& Circuit::cry(ValType theta, IdxType a, IdxType b) {
  check_distinct2(a, b);
  if (mode_ == CompoundMode::kNative) {
    push(make_gate1p(OP::CRY, theta, a, b));
  } else {
    u3(theta / 2, 0, 0, b);
    cx(a, b);
    u3(-theta / 2, 0, 0, b);
    cx(a, b);
  }
  return *this;
}

Circuit& Circuit::crz(ValType theta, IdxType a, IdxType b) {
  check_distinct2(a, b);
  if (mode_ == CompoundMode::kNative) {
    push(make_gate1p(OP::CRZ, theta, a, b));
  } else {
    u1(theta / 2, b);
    cx(a, b);
    u1(-theta / 2, b);
    cx(a, b);
  }
  return *this;
}

Circuit& Circuit::cu1(ValType lam, IdxType a, IdxType b) {
  check_distinct2(a, b);
  if (mode_ == CompoundMode::kNative) {
    push(make_gate1p(OP::CU1, lam, a, b));
  } else {
    u1(lam / 2, a);
    cx(a, b);
    u1(-lam / 2, b);
    cx(a, b);
    u1(lam / 2, b);
  }
  return *this;
}

Circuit& Circuit::cu3(ValType theta, ValType phi, ValType lam, IdxType a,
                      IdxType b) {
  check_distinct2(a, b);
  if (mode_ == CompoundMode::kNative) {
    Gate g = make_gate(OP::CU3, a, b);
    g.theta = theta;
    g.phi = phi;
    g.lam = lam;
    push(g);
  } else {
    u1((lam + phi) / 2, a);
    u1((lam - phi) / 2, b);
    cx(a, b);
    u3(-theta / 2, 0, -(phi + lam) / 2, b);
    cx(a, b);
    u3(theta / 2, phi, 0, b);
  }
  return *this;
}

Circuit& Circuit::rxx(ValType theta, IdxType a, IdxType b) {
  check_distinct2(a, b);
  if (mode_ == CompoundMode::kNative) {
    push(make_gate1p(OP::RXX, theta, a, b));
  } else {
    u3(kPi / 2, theta, 0, a);
    h(b);
    cx(a, b);
    u1(-theta, b);
    cx(a, b);
    h(b);
    u2(-kPi, kPi - theta, a);
  }
  return *this;
}

Circuit& Circuit::rzz(ValType theta, IdxType a, IdxType b) {
  check_distinct2(a, b);
  if (mode_ == CompoundMode::kNative) {
    push(make_gate1p(OP::RZZ, theta, a, b));
  } else {
    cx(a, b);
    u1(theta, b);
    cx(a, b);
  }
  return *this;
}

// --- compound >=3-qubit (always decomposed, per qelib1.inc) -------------------

Circuit& Circuit::ccx(IdxType a, IdxType b, IdxType c) {
  check_qubit(a);
  check_qubit(b);
  check_qubit(c);
  SVSIM_CHECK(a != b && b != c && a != c, "ccx operands must be distinct");
  h(c);
  cx(b, c);
  tdg(c);
  cx(a, c);
  t(c);
  cx(b, c);
  tdg(c);
  cx(a, c);
  t(b);
  t(c);
  h(c);
  cx(a, b);
  t(a);
  tdg(b);
  cx(a, b);
  return *this;
}

Circuit& Circuit::cswap(IdxType a, IdxType b, IdxType c) {
  cx(c, b);
  ccx(a, b, c);
  cx(c, b);
  return *this;
}

Circuit& Circuit::rccx(IdxType a, IdxType b, IdxType c) {
  u2(0, kPi, c);
  u1(kPi / 4, c);
  cx(b, c);
  u1(-kPi / 4, c);
  cx(a, c);
  u1(kPi / 4, c);
  cx(b, c);
  u1(-kPi / 4, c);
  u2(0, kPi, c);
  return *this;
}

Circuit& Circuit::rc3x(IdxType a, IdxType b, IdxType c, IdxType d) {
  u2(0, kPi, d);
  u1(kPi / 4, d);
  cx(c, d);
  u1(-kPi / 4, d);
  u2(0, kPi, d);
  cx(a, d);
  u1(kPi / 4, d);
  cx(b, d);
  u1(-kPi / 4, d);
  cx(a, d);
  u1(kPi / 4, d);
  cx(b, d);
  u1(-kPi / 4, d);
  u2(0, kPi, d);
  u1(kPi / 4, d);
  cx(c, d);
  u1(-kPi / 4, d);
  u2(0, kPi, d);
  return *this;
}

Circuit& Circuit::c3x(IdxType a, IdxType b, IdxType c, IdxType d) {
  // Phase-gadget decomposition from qelib1.inc (exact, no relative phase).
  h(d);
  u1(kPi / 8, a);
  u1(kPi / 8, b);
  u1(kPi / 8, c);
  u1(kPi / 8, d);
  cx(a, b);
  u1(-kPi / 8, b);
  cx(a, b);
  cx(b, c);
  u1(-kPi / 8, c);
  cx(a, c);
  u1(kPi / 8, c);
  cx(b, c);
  u1(-kPi / 8, c);
  cx(a, c);
  cx(c, d);
  u1(-kPi / 8, d);
  cx(b, d);
  u1(kPi / 8, d);
  cx(c, d);
  u1(-kPi / 8, d);
  cx(a, d);
  u1(kPi / 8, d);
  cx(c, d);
  u1(-kPi / 8, d);
  cx(b, d);
  u1(kPi / 8, d);
  cx(c, d);
  u1(-kPi / 8, d);
  cx(a, d);
  h(d);
  return *this;
}

Circuit& Circuit::c3sqrtx(IdxType a, IdxType b, IdxType c, IdxType d) {
  // qelib1.inc definition built on cu1(±pi/8) sandwiches.
  auto sandwich = [&](IdxType ctrl, ValType angle) {
    h(d);
    cu1(angle, ctrl, d);
    h(d);
  };
  sandwich(a, kPi / 8);
  cx(a, b);
  sandwich(b, -kPi / 8);
  cx(a, b);
  sandwich(b, kPi / 8);
  cx(b, c);
  sandwich(c, -kPi / 8);
  cx(a, c);
  sandwich(c, kPi / 8);
  cx(b, c);
  sandwich(c, -kPi / 8);
  cx(a, c);
  sandwich(c, kPi / 8);
  return *this;
}

Circuit& Circuit::c4x(IdxType a, IdxType b, IdxType c, IdxType d, IdxType e) {
  h(e);
  cu1(kPi / 2, d, e);
  h(e);
  c3x(a, b, c, d);
  h(e);
  cu1(-kPi / 2, d, e);
  h(e);
  c3x(a, b, c, d);
  c3sqrtx(a, b, c, e);
  return *this;
}

// --- non-unitary --------------------------------------------------------------

Circuit& Circuit::measure(IdxType q, IdxType cbit) {
  check_qubit(q);
  SVSIM_CHECK(cbit >= 0 && cbit < n_cbits_, "classical bit out of range");
  Gate g = make_gate(OP::M, q);
  g.cbit = cbit;
  push(g);
  return *this;
}

Circuit& Circuit::measure_all() {
  push(make_gate(OP::MA));
  return *this;
}

Circuit& Circuit::reset(IdxType q) {
  check_qubit(q);
  push(make_gate(OP::RESET, q));
  return *this;
}

Circuit& Circuit::barrier() {
  push(make_gate(OP::BARRIER));
  return *this;
}

// --- generic append -------------------------------------------------------------

Circuit& Circuit::append(const Gate& g) {
  // Route through the builder methods so compound lowering and validation
  // are applied uniformly no matter how the gate arrived (parser, QIR
  // adapter, hand-built Gate).
  switch (g.op) {
    case OP::U3: return u3(g.theta, g.phi, g.lam, g.qb0);
    case OP::U2: return u2(g.phi, g.lam, g.qb0);
    case OP::U1: return u1(g.theta, g.qb0);
    case OP::CX: return cx(g.qb0, g.qb1);
    case OP::ID: return id(g.qb0);
    case OP::X: return x(g.qb0);
    case OP::Y: return y(g.qb0);
    case OP::Z: return z(g.qb0);
    case OP::H: return h(g.qb0);
    case OP::S: return s(g.qb0);
    case OP::SDG: return sdg(g.qb0);
    case OP::T: return t(g.qb0);
    case OP::TDG: return tdg(g.qb0);
    case OP::RX: return rx(g.theta, g.qb0);
    case OP::RY: return ry(g.theta, g.qb0);
    case OP::RZ: return rz(g.theta, g.qb0);
    case OP::CZ: return cz(g.qb0, g.qb1);
    case OP::CY: return cy(g.qb0, g.qb1);
    case OP::CH: return ch(g.qb0, g.qb1);
    case OP::SWAP: return swap(g.qb0, g.qb1);
    case OP::CRX: return crx(g.theta, g.qb0, g.qb1);
    case OP::CRY: return cry(g.theta, g.qb0, g.qb1);
    case OP::CRZ: return crz(g.theta, g.qb0, g.qb1);
    case OP::CU1: return cu1(g.theta, g.qb0, g.qb1);
    case OP::CU3: return cu3(g.theta, g.phi, g.lam, g.qb0, g.qb1);
    case OP::RXX: return rxx(g.theta, g.qb0, g.qb1);
    case OP::RZZ: return rzz(g.theta, g.qb0, g.qb1);
    case OP::CCX: return ccx(g.qb0, g.qb1, g.qb2);
    case OP::CSWAP: return cswap(g.qb0, g.qb1, g.qb2);
    case OP::RCCX: return rccx(g.qb0, g.qb1, g.qb2);
    case OP::RC3X: return rc3x(g.qb0, g.qb1, g.qb2, g.qb3);
    case OP::C3X: return c3x(g.qb0, g.qb1, g.qb2, g.qb3);
    case OP::C3SQRTX: return c3sqrtx(g.qb0, g.qb1, g.qb2, g.qb3);
    case OP::C4X: return c4x(g.qb0, g.qb1, g.qb2, g.qb3, g.qb4);
    case OP::M: return measure(g.qb0, g.cbit);
    case OP::MA: return measure_all();
    case OP::RESET: return reset(g.qb0);
    case OP::BARRIER: return barrier();
    case OP::DENSE2:
      throw Error("append: a dense2 gate's matrix lives in its circuit; "
                  "build it with dense2()");
    case OP::COUNT_: break;
  }
  throw Error("append: invalid gate op");
}

Circuit& Circuit::dense2(const Mat4& m, IdxType a, IdxType b) {
  check_distinct2(a, b);
  Gate g = make_gate(OP::DENSE2, a, b);
  g.cbit = static_cast<IdxType>(dense_.size());
  dense_.push_back(m);
  push(g);
  return *this;
}

const Mat4& Circuit::dense_matrix(const Gate& g) const {
  SVSIM_CHECK(g.op == OP::DENSE2 && g.cbit >= 0 &&
                  g.cbit < static_cast<IdxType>(dense_.size()),
              "dense_matrix: not a dense2 gate of this circuit");
  return dense_[static_cast<std::size_t>(g.cbit)];
}

Circuit& Circuit::append_raw(const Gate& g) {
  SVSIM_CHECK(g.op != OP::DENSE2,
              "append_raw: a dense2 gate's matrix lives in its circuit; "
              "build it with dense2()");
  const int nq = op_info(g.op).n_qubits;
  if (nq >= 1) check_qubit(g.qb0);
  if (nq >= 2) {
    check_qubit(g.qb1);
    check_distinct2(g.qb0, g.qb1);
  }
  push(g);
  return *this;
}

Circuit& Circuit::append(const Circuit& other) {
  SVSIM_CHECK(other.n_qubits_ <= n_qubits_,
              "appended circuit is wider than the target");
  for (const Gate& g : other.gates_) {
    if (g.op == OP::DENSE2) {
      dense2(other.dense_matrix(g), g.qb0, g.qb1);
    } else {
      append(g);
    }
  }
  return *this;
}

// --- transforms ------------------------------------------------------------------

Circuit Circuit::inverse() const {
  Circuit inv(n_qubits_, mode_, n_cbits_);
  for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
    Gate g = *it;
    switch (g.op) {
      // Self-inverse.
      case OP::ID:
      case OP::X:
      case OP::Y:
      case OP::Z:
      case OP::H:
      case OP::CX:
      case OP::CZ:
      case OP::CY:
      case OP::CH:
      case OP::SWAP:
      case OP::BARRIER:
        break;
      // Adjoint pairs.
      case OP::S: g.op = OP::SDG; break;
      case OP::SDG: g.op = OP::S; break;
      case OP::T: g.op = OP::TDG; break;
      case OP::TDG: g.op = OP::T; break;
      // Angle negation.
      case OP::U1:
      case OP::RX:
      case OP::RY:
      case OP::RZ:
      case OP::CRX:
      case OP::CRY:
      case OP::CRZ:
      case OP::CU1:
      case OP::RXX:
      case OP::RZZ:
        g.theta = -g.theta;
        break;
      // u3(t,p,l)^-1 = u3(-t,-l,-p); u2 is u3(pi/2,...).
      case OP::U3:
      case OP::CU3: {
        const ValType p = g.phi;
        g.theta = -g.theta;
        g.phi = -g.lam;
        g.lam = -p;
        break;
      }
      case OP::U2: {
        g.op = OP::U3;
        const ValType p = g.phi;
        g.theta = -kPi / 2;
        g.phi = -g.lam;
        g.lam = -p;
        break;
      }
      case OP::DENSE2:
        inv.dense2(adjoint(dense_matrix(g)), g.qb0, g.qb1);
        continue;
      case OP::M:
      case OP::MA:
      case OP::RESET:
        throw Error("inverse(): circuit contains non-unitary operations");
      default:
        // >=3-qubit compounds never appear in gates_ (decomposed at
        // append), so reaching here is an internal error.
        throw Error("inverse(): unexpected op in gate list");
    }
    inv.push(g);
  }
  return inv;
}

std::string Circuit::to_qasm() const {
  std::ostringstream os;
  os.precision(17);
  os << "OPENQASM 2.0;\n";
  os << "include \"qelib1.inc\";\n";
  os << "qreg q[" << n_qubits_ << "];\n";
  os << "creg c[" << n_cbits_ << "];\n";
  for (const Gate& g : gates_) {
    const OpInfo& info = op_info(g.op);
    if (g.op == OP::MA) {
      os << "measure q -> c;\n";
      continue;
    }
    if (g.op == OP::BARRIER) {
      os << "barrier q;\n";
      continue;
    }
    if (g.op == OP::M) {
      os << "measure q[" << g.qb0 << "] -> c[" << g.cbit << "];\n";
      continue;
    }
    SVSIM_CHECK(info.cls != OpClass::kFused,
                std::string("to_qasm: ") + info.name +
                    " is an internal op with no OpenQASM form");
    os << info.name;
    if (info.n_params == 1) {
      os << "(" << g.theta << ")";
    } else if (info.n_params == 2) {
      os << "(" << g.phi << "," << g.lam << ")";
    } else if (info.n_params == 3) {
      os << "(" << g.theta << "," << g.phi << "," << g.lam << ")";
    }
    const IdxType qs[5] = {g.qb0, g.qb1, g.qb2, g.qb3, g.qb4};
    for (int i = 0; i < info.n_qubits; ++i) {
      os << (i == 0 ? " q[" : ",q[") << qs[i] << "]";
    }
    os << ";\n";
  }
  return os.str();
}

// --- statistics ---------------------------------------------------------------------

IdxType Circuit::count_op(OP op) const {
  IdxType n = 0;
  for (const Gate& g : gates_) {
    if (g.op == op) ++n;
  }
  return n;
}

IdxType Circuit::count_1q() const {
  IdxType n = 0;
  for (const Gate& g : gates_) {
    if (is_unitary_op(g.op) && op_info(g.op).n_qubits == 1) ++n;
  }
  return n;
}

IdxType Circuit::count_2q() const {
  IdxType n = 0;
  for (const Gate& g : gates_) {
    if (is_unitary_op(g.op) && op_info(g.op).n_qubits == 2) ++n;
  }
  return n;
}

} // namespace svsim
