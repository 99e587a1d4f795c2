// Dense unitary matrices for every kernel-level gate.
//
// These are the ground truth the specialized kernels are verified against,
// and the execution path of the GeneralizedSim baseline (the paper's
// stand-in for Aer/qsim-style generic 1-/2-qubit unitary application,
// §3.2.1). Conventions:
//  * 1-qubit matrices are row-major 2x2 over basis |0>,|1>.
//  * 2-qubit matrices are row-major 4x4 over basis |qb0 qb1> — the FIRST
//    operand is the more significant bit, so for controlled gates
//    (control = qb0) the top-left block is identity.
//  * RZ uses the physics convention diag(e^{-i t/2}, e^{+i t/2});
//    RZZ/RXX match their qelib1.inc decompositions exactly (RZZ therefore
//    carries a global phase e^{+i t/2} relative to exp(-i t/2 Z@Z)).
#pragma once

#include <array>

#include "common/types.hpp"
#include "ir/gate.hpp"

namespace svsim {

using Mat2 = std::array<Complex, 4>;   // row-major 2x2
using Mat4 = std::array<Complex, 16>;  // row-major 4x4

/// Matrix of a 1-qubit kernel gate (throws for non-1-qubit ops).
Mat2 matrix_1q(const Gate& g);

/// Matrix of a 2-qubit kernel gate in |qb0 qb1> basis (throws otherwise,
/// and for DENSE2, whose matrix is Circuit::dense_matrix).
Mat4 matrix_2q(const Gate& g);

/// Matrix product helpers (used by tests and the machine-independent
/// verification utilities).
Mat2 matmul(const Mat2& a, const Mat2& b);
Mat4 matmul(const Mat4& a, const Mat4& b);
Mat2 adjoint(const Mat2& m);
Mat4 adjoint(const Mat4& m);

/// Frobenius distance ||a-b||; up_to_phase aligns the global phase first.
ValType mat_distance(const Mat2& a, const Mat2& b, bool up_to_phase = false);
ValType mat_distance(const Mat4& a, const Mat4& b, bool up_to_phase = false);

/// True if m is unitary to tolerance eps.
bool is_unitary(const Mat2& m, ValType eps = 1e-9);
bool is_unitary(const Mat4& m, ValType eps = 1e-9);

/// Embed a 1-qubit matrix as a controlled 2-qubit matrix (control = qb0).
Mat4 controlled(const Mat2& u);

} // namespace svsim
