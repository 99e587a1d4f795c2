#include "testing/rand_circuit.hpp"

#include <array>
#include <cmath>

namespace svsim::testing {

namespace {

const std::array<OP, 27> k1q2qPool = {
    OP::U3,  OP::U2,  OP::U1,  OP::ID,  OP::X,   OP::Y,   OP::Z,
    OP::H,   OP::S,   OP::SDG, OP::T,   OP::TDG, OP::RX,  OP::RY,
    OP::RZ,  OP::CX,  OP::CZ,  OP::CY,  OP::CH,  OP::SWAP, OP::CRX,
    OP::CRY, OP::CRZ, OP::CU1, OP::CU3, OP::RXX, OP::RZZ};

const std::array<ValType, 8> kEdgeAngles = {0.0,     PI / 2,  -PI / 2, PI,
                                            -PI,     2 * PI,  -2 * PI, PI / 4};

ValType draw_angle(Rng& rng, const CircuitGenOptions& opt) {
  if (rng.next_double() < opt.p_edge_param) {
    return kEdgeAngles[rng.next_below(kEdgeAngles.size())];
  }
  return rng.uniform(-2 * PI, 2 * PI);
}

IdxType draw_qubit(Rng& rng, const CircuitGenOptions& opt) {
  const auto n = static_cast<std::uint64_t>(opt.n_qubits);
  if (opt.adversarial && rng.next_double() < 0.3) {
    // Bias toward the top qubits: on the distributed backends these are
    // the partition bits, so pairs straddle PEs and every access goes
    // through the remote path.
    const std::uint64_t top = n > 2 ? 2 : n;
    return static_cast<IdxType>(n - 1 - rng.next_below(top));
  }
  return static_cast<IdxType>(rng.next_below(n));
}

Gate draw_gate(Rng& rng, const CircuitGenOptions& opt) {
  const OP op = k1q2qPool[rng.next_below(k1q2qPool.size())];
  const IdxType q0 = draw_qubit(rng, opt);
  Gate g;
  if (op_info(op).n_qubits == 1) {
    g = make_gate(op, q0);
  } else {
    IdxType q1 = draw_qubit(rng, opt);
    while (q1 == q0) {
      q1 = static_cast<IdxType>(
          rng.next_below(static_cast<std::uint64_t>(opt.n_qubits)));
    }
    // Adversarial operand order: half the time force control > target so
    // the "wrong-way" index arithmetic paths are exercised.
    if (opt.adversarial && rng.next_double() < 0.5 && q0 < q1) {
      g = make_gate(op, q1, q0);
    } else {
      g = make_gate(op, q0, q1);
    }
  }
  g.theta = draw_angle(rng, opt);
  g.phi = draw_angle(rng, opt);
  g.lam = draw_angle(rng, opt);
  return g;
}

/// The adjoint of a single kernel gate, with symmetric-op operands
/// randomly swapped — the exact pattern fusion must cancel.
Gate inverse_of(const Gate& g, Rng& rng) {
  Gate inv = g;
  switch (g.op) {
    case OP::S: inv.op = OP::SDG; break;
    case OP::SDG: inv.op = OP::S; break;
    case OP::T: inv.op = OP::TDG; break;
    case OP::TDG: inv.op = OP::T; break;
    case OP::U3:
    case OP::CU3:
      inv.theta = -g.theta;
      inv.phi = -g.lam;
      inv.lam = -g.phi;
      break;
    case OP::U2:
      inv.op = OP::U3;
      inv.theta = -PI / 2;
      inv.phi = -g.lam;
      inv.lam = -g.phi;
      break;
    default:
      if (op_info(g.op).n_params >= 1) inv.theta = -g.theta;
      break; // self-inverse ops (X, H, CX, CZ, SWAP, ...) stay as-is
  }
  if (op_info(g.op).n_qubits == 2 && is_symmetric_2q(g.op) &&
      rng.next_double() < 0.5) {
    std::swap(inv.qb0, inv.qb1);
  }
  return inv;
}

void append_multi(Circuit& c, Rng& rng, const CircuitGenOptions& opt) {
  const auto n = static_cast<std::uint64_t>(opt.n_qubits);
  if (n < 3) return;
  // Distinct operands via partial shuffle of [0, n).
  std::array<IdxType, 40> perm{};
  for (std::uint64_t i = 0; i < n; ++i) perm[i] = static_cast<IdxType>(i);
  for (std::uint64_t i = 0; i + 1 < n; ++i) {
    std::swap(perm[i], perm[i + rng.next_below(n - i)]);
  }
  const std::uint64_t pick = rng.next_below(n >= 5 ? 5 : (n >= 4 ? 4 : 2));
  switch (pick) {
    case 0: c.ccx(perm[0], perm[1], perm[2]); break;
    case 1: c.cswap(perm[0], perm[1], perm[2]); break;
    case 2: c.rc3x(perm[0], perm[1], perm[2], perm[3]); break;
    case 3: c.c3x(perm[0], perm[1], perm[2], perm[3]); break;
    default: c.c4x(perm[0], perm[1], perm[2], perm[3], perm[4]); break;
  }
}

} // namespace

Mat4 random_unitary_2q(Rng& rng) {
  Mat4 m{};
  for (auto& e : m) e = Complex{rng.next_gaussian(), rng.next_gaussian()};
  // Orthonormalize the columns in order.
  for (int j = 0; j < 4; ++j) {
    for (int k = 0; k < j; ++k) {
      Complex dot = 0;
      for (int i = 0; i < 4; ++i) dot += std::conj(m[i * 4 + k]) * m[i * 4 + j];
      for (int i = 0; i < 4; ++i) m[i * 4 + j] -= dot * m[i * 4 + k];
    }
    ValType norm = 0;
    for (int i = 0; i < 4; ++i) norm += std::norm(m[i * 4 + j]);
    for (int i = 0; i < 4; ++i) m[i * 4 + j] /= std::sqrt(norm);
  }
  return m;
}

std::uint64_t mix_seed(std::uint64_t campaign_seed, std::uint64_t index) {
  std::uint64_t z = campaign_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Circuit random_circuit(const CircuitGenOptions& opt, std::uint64_t seed) {
  SVSIM_CHECK(opt.n_qubits >= 2 && opt.n_qubits <= 40,
              "random_circuit: qubit count out of range");
  Rng rng(seed);
  Circuit c(opt.n_qubits, opt.mode, opt.n_qubits);
  while (c.n_gates() < static_cast<IdxType>(opt.n_gates)) {
    const double r = rng.next_double();
    if (r < opt.p_measure) {
      const IdxType q = draw_qubit(rng, opt);
      c.measure(q, q);
      continue;
    }
    if (r < opt.p_measure + opt.p_reset) {
      c.reset(draw_qubit(rng, opt));
      continue;
    }
    if (r < opt.p_measure + opt.p_reset + opt.p_barrier) {
      c.barrier();
      continue;
    }
    if (r < opt.p_measure + opt.p_reset + opt.p_barrier + opt.p_multi) {
      append_multi(c, rng, opt);
      continue;
    }
    const Gate g = draw_gate(rng, opt);
    c.append(g);
    if (rng.next_double() < opt.p_inverse_pair) {
      c.append(inverse_of(g, rng));
    }
  }
  return c;
}

} // namespace svsim::testing
