#include "ir/matrices.hpp"

#include <cmath>

#include "common/error.hpp"

namespace svsim {

namespace {

const Complex kI{0, 1};

Mat2 u3_matrix(ValType theta, ValType phi, ValType lam) {
  const ValType c = std::cos(theta / 2);
  const ValType s = std::sin(theta / 2);
  return {Complex{c, 0}, -std::exp(kI * lam) * s, std::exp(kI * phi) * s,
          std::exp(kI * (phi + lam)) * c};
}

} // namespace

Mat2 matrix_1q(const Gate& g) {
  SVSIM_CHECK(op_info(g.op).n_qubits == 1 && is_unitary_op(g.op),
              "matrix_1q: not a 1-qubit unitary");
  switch (g.op) {
    case OP::ID: return {1, 0, 0, 1};
    case OP::X: return {0, 1, 1, 0};
    case OP::Y: return {0, -kI, kI, 0};
    case OP::Z: return {1, 0, 0, -1};
    case OP::H: return {S2I, S2I, S2I, -S2I};
    case OP::S: return {1, 0, 0, kI};
    case OP::SDG: return {1, 0, 0, -kI};
    case OP::T: return {1, 0, 0, Complex{S2I, S2I}};
    case OP::TDG: return {1, 0, 0, Complex{S2I, -S2I}};
    case OP::U3: return u3_matrix(g.theta, g.phi, g.lam);
    case OP::U2: return u3_matrix(PI / 2, g.phi, g.lam);
    case OP::U1: return {1, 0, 0, std::exp(kI * g.theta)};
    case OP::RX: {
      const ValType c = std::cos(g.theta / 2);
      const ValType s = std::sin(g.theta / 2);
      return {Complex{c, 0}, -kI * s, -kI * s, Complex{c, 0}};
    }
    case OP::RY: {
      const ValType c = std::cos(g.theta / 2);
      const ValType s = std::sin(g.theta / 2);
      return {Complex{c, 0}, Complex{-s, 0}, Complex{s, 0}, Complex{c, 0}};
    }
    case OP::RZ:
      return {std::exp(-kI * (g.theta / 2)), 0, 0,
              std::exp(kI * (g.theta / 2))};
    default: break;
  }
  throw Error("matrix_1q: unhandled op");
}

Mat4 controlled(const Mat2& u) {
  Mat4 m{};
  m[0 * 4 + 0] = 1;
  m[1 * 4 + 1] = 1;
  m[2 * 4 + 2] = u[0];
  m[2 * 4 + 3] = u[1];
  m[3 * 4 + 2] = u[2];
  m[3 * 4 + 3] = u[3];
  return m;
}

Mat4 matrix_2q(const Gate& g) {
  SVSIM_CHECK(op_info(g.op).n_qubits == 2 && is_unitary_op(g.op),
              "matrix_2q: not a 2-qubit unitary");
  Gate h = g; // for building the controlled-1q body
  switch (g.op) {
    case OP::CX: h.op = OP::X; return controlled(matrix_1q(h));
    case OP::CY: h.op = OP::Y; return controlled(matrix_1q(h));
    case OP::CZ: h.op = OP::Z; return controlled(matrix_1q(h));
    case OP::CH: h.op = OP::H; return controlled(matrix_1q(h));
    case OP::CRX: h.op = OP::RX; return controlled(matrix_1q(h));
    case OP::CRY: h.op = OP::RY; return controlled(matrix_1q(h));
    case OP::CRZ: h.op = OP::RZ; return controlled(matrix_1q(h));
    case OP::CU1: h.op = OP::U1; return controlled(matrix_1q(h));
    case OP::CU3: h.op = OP::U3; return controlled(matrix_1q(h));
    case OP::SWAP: {
      Mat4 m{};
      m[0 * 4 + 0] = 1;
      m[1 * 4 + 2] = 1;
      m[2 * 4 + 1] = 1;
      m[3 * 4 + 3] = 1;
      return m;
    }
    case OP::RZZ: {
      // qelib1: cx; u1(t) b; cx  ==  diag(1, e^{it}, e^{it}, 1).
      Mat4 m{};
      const Complex e = std::exp(kI * g.theta);
      m[0 * 4 + 0] = 1;
      m[1 * 4 + 1] = e;
      m[2 * 4 + 2] = e;
      m[3 * 4 + 3] = 1;
      return m;
    }
    case OP::RXX: {
      // exp(-i t/2 X@X): symmetric in the two operands.
      const ValType c = std::cos(g.theta / 2);
      const Complex is = kI * std::sin(g.theta / 2);
      Mat4 m{};
      m[0 * 4 + 0] = c;
      m[0 * 4 + 3] = -is;
      m[1 * 4 + 1] = c;
      m[1 * 4 + 2] = -is;
      m[2 * 4 + 1] = -is;
      m[2 * 4 + 2] = c;
      m[3 * 4 + 0] = -is;
      m[3 * 4 + 3] = c;
      return m;
    }
    case OP::DENSE2:
      throw Error("matrix_2q: a dense2 gate's matrix lives in its circuit "
                  "(Circuit::dense_matrix)");
    default: break;
  }
  throw Error("matrix_2q: unhandled op");
}

Mat2 matmul(const Mat2& a, const Mat2& b) {
  Mat2 r{};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      Complex acc = 0;
      for (int k = 0; k < 2; ++k) acc += a[i * 2 + k] * b[k * 2 + j];
      r[i * 2 + j] = acc;
    }
  }
  return r;
}

Mat4 matmul(const Mat4& a, const Mat4& b) {
  Mat4 r{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      Complex acc = 0;
      for (int k = 0; k < 4; ++k) acc += a[i * 4 + k] * b[k * 4 + j];
      r[i * 4 + j] = acc;
    }
  }
  return r;
}

Mat2 adjoint(const Mat2& m) {
  return {std::conj(m[0]), std::conj(m[2]), std::conj(m[1]), std::conj(m[3])};
}

Mat4 adjoint(const Mat4& m) {
  Mat4 r{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) r[i * 4 + j] = std::conj(m[j * 4 + i]);
  }
  return r;
}

namespace {

template <typename Mat>
ValType distance_impl(const Mat& a, const Mat& b, bool up_to_phase) {
  Complex phase{1, 0};
  if (up_to_phase) {
    // Align on the largest-magnitude entry of a.
    std::size_t k = 0;
    ValType best = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::abs(a[i]) > best) {
        best = std::abs(a[i]);
        k = i;
      }
    }
    if (best > 1e-12 && std::abs(b[k]) > 1e-12) {
      phase = (a[k] / std::abs(a[k])) / (b[k] / std::abs(b[k]));
    }
  }
  ValType sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Complex d = a[i] - phase * b[i];
    sum += std::norm(d);
  }
  return std::sqrt(sum);
}

template <typename Mat, int N>
bool unitary_impl(const Mat& m, ValType eps) {
  const Mat prod = matmul(adjoint(m), m);
  for (int i = 0; i < N; ++i) {
    for (int j = 0; j < N; ++j) {
      const Complex expect = (i == j) ? Complex{1, 0} : Complex{0, 0};
      if (std::abs(prod[static_cast<std::size_t>(i * N + j)] - expect) > eps) {
        return false;
      }
    }
  }
  return true;
}

} // namespace

ValType mat_distance(const Mat2& a, const Mat2& b, bool up_to_phase) {
  return distance_impl(a, b, up_to_phase);
}

ValType mat_distance(const Mat4& a, const Mat4& b, bool up_to_phase) {
  return distance_impl(a, b, up_to_phase);
}

bool is_unitary(const Mat2& m, ValType eps) {
  return unitary_impl<Mat2, 2>(m, eps);
}

bool is_unitary(const Mat4& m, ValType eps) {
  return unitary_impl<Mat4, 4>(m, eps);
}

} // namespace svsim
