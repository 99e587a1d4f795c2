// Circuit: an ordered gate list plus the builder API every frontend
// (C++ quickstart, OpenQASM parser, QIR adapter, VQA ansatz generators)
// uses to synthesize circuits dynamically — the paper's headline use case.
//
// Parameter convention: 1-parameter gates store their angle in `theta`;
// u2 stores (phi, lam); u3/cu3 store (theta, phi, lam).
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "ir/gate.hpp"
#include "ir/matrices.hpp"

namespace svsim {

/// How compound gates are lowered when appended.
///  * kNative: 2-qubit compound gates (cz, swap, cu1, ...) are kept as
///    single gates and executed by their specialized kernels; only >=3
///    qubit gates decompose. This is the high-performance default.
///  * kDecompose: every compound gate is expanded into basic + standard
///    gates exactly as qelib1.inc defines them. This reproduces the gate
///    counts of QASMBench / Table 4 and is what the generalized baseline
///    simulators consume.
enum class CompoundMode { kNative, kDecompose };

class Circuit {
public:
  explicit Circuit(IdxType n_qubits, CompoundMode mode = CompoundMode::kNative,
                   IdxType n_cbits = -1);

  IdxType n_qubits() const { return n_qubits_; }
  IdxType n_cbits() const { return n_cbits_; }
  CompoundMode compound_mode() const { return mode_; }

  const std::vector<Gate>& gates() const { return gates_; }
  IdxType n_gates() const { return static_cast<IdxType>(gates_.size()); }
  bool empty() const { return gates_.empty(); }
  void clear() { gates_.clear(); }

  // --- basic ------------------------------------------------------------
  Circuit& u3(ValType theta, ValType phi, ValType lam, IdxType q);
  Circuit& u2(ValType phi, ValType lam, IdxType q);
  Circuit& u1(ValType lam, IdxType q);
  Circuit& cx(IdxType ctrl, IdxType tgt);
  Circuit& id(IdxType q);

  // --- standard 1-qubit ---------------------------------------------------
  Circuit& x(IdxType q);
  Circuit& y(IdxType q);
  Circuit& z(IdxType q);
  Circuit& h(IdxType q);
  Circuit& s(IdxType q);
  Circuit& sdg(IdxType q);
  Circuit& t(IdxType q);
  Circuit& tdg(IdxType q);
  Circuit& rx(ValType theta, IdxType q);
  Circuit& ry(ValType theta, IdxType q);
  Circuit& rz(ValType theta, IdxType q);

  // --- compound 2-qubit ---------------------------------------------------
  Circuit& cz(IdxType a, IdxType b);
  Circuit& cy(IdxType a, IdxType b);
  Circuit& ch(IdxType a, IdxType b);
  Circuit& swap(IdxType a, IdxType b);
  Circuit& crx(ValType theta, IdxType a, IdxType b);
  Circuit& cry(ValType theta, IdxType a, IdxType b);
  Circuit& crz(ValType theta, IdxType a, IdxType b);
  Circuit& cu1(ValType lam, IdxType a, IdxType b);
  Circuit& cu3(ValType theta, ValType phi, ValType lam, IdxType a, IdxType b);
  Circuit& rxx(ValType theta, IdxType a, IdxType b);
  Circuit& rzz(ValType theta, IdxType a, IdxType b);

  // --- compound >=3-qubit (always decomposed) -----------------------------
  Circuit& ccx(IdxType a, IdxType b, IdxType c);
  Circuit& cswap(IdxType a, IdxType b, IdxType c);
  Circuit& rccx(IdxType a, IdxType b, IdxType c);
  Circuit& rc3x(IdxType a, IdxType b, IdxType c, IdxType d);
  Circuit& c3x(IdxType a, IdxType b, IdxType c, IdxType d);
  Circuit& c3sqrtx(IdxType a, IdxType b, IdxType c, IdxType d);
  Circuit& c4x(IdxType a, IdxType b, IdxType c, IdxType d, IdxType e);

  // --- internal -------------------------------------------------------------

  /// A dense 2-qubit op (OP::DENSE2): `m` row-major over |a b>, `a` the
  /// more significant bit as in matrix_2q. The matrix goes into this
  /// circuit's dense table and the gate's `cbit` holds its entry, so a
  /// DENSE2 gate means nothing outside the circuit that holds it. Only a
  /// pipeline pass (ir/fusion) and tests build one; no QASM text does.
  Circuit& dense2(const Mat4& m, IdxType a, IdxType b);
  /// The matrices of this circuit's DENSE2 gates, entry g.cbit each.
  const std::vector<Mat4>& dense_table() const { return dense_; }
  /// The matrix of DENSE2 gate `g` of this circuit.
  const Mat4& dense_matrix(const Gate& g) const;
  /// The matrix of 2-qubit unitary `g` of this circuit over |qb0 qb1>:
  /// dense_matrix for a DENSE2, matrix_2q for every other.
  Mat4 unitary_2q(const Gate& g) const {
    return g.op == OP::DENSE2 ? dense_matrix(g) : matrix_2q(g);
  }

  // --- non-unitary --------------------------------------------------------
  Circuit& measure(IdxType q, IdxType cbit);
  Circuit& measure_all();
  Circuit& reset(IdxType q);
  Circuit& barrier();

  /// Append one already-built gate (operands validated; compound gates are
  /// lowered according to the circuit's CompoundMode).
  Circuit& append(const Gate& g);

  /// Append a gate verbatim: operands are validated but the gate is NOT
  /// re-routed through the builder methods, so auxiliary fields the
  /// builders would drop survive (e.g. the layout-snapshot index a remap
  /// pass stores in an OP::MA gate's otherwise-unused cbit). A DENSE2
  /// gate has no matrix of its own here: build it with dense2().
  Circuit& append_raw(const Gate& g);

  /// Append every gate of another circuit (qubit counts must match); its
  /// DENSE2 gates bring their matrices along.
  Circuit& append(const Circuit& other);

  // --- transforms ---------------------------------------------------------

  /// Adjoint of the unitary prefix of this circuit (throws if the circuit
  /// contains measurement/reset). inverse().append-ing after the original
  /// yields identity — used heavily by property tests and uncomputation.
  Circuit inverse() const;

  /// Emit OpenQASM 2.0 text that reproduces this circuit.
  std::string to_qasm() const;

  // --- statistics -----------------------------------------------------------
  IdxType count_op(OP op) const;
  /// Number of CX gates (the column Table 4 reports).
  IdxType cx_count() const { return count_op(OP::CX); }
  /// Number of 1-qubit / 2-qubit unitary gates.
  IdxType count_1q() const;
  IdxType count_2q() const;

private:
  void push(const Gate& g);
  void check_qubit(IdxType q) const;
  void check_distinct2(IdxType a, IdxType b) const;

  IdxType n_qubits_;
  IdxType n_cbits_;
  CompoundMode mode_;
  std::vector<Gate> gates_;
  std::vector<Mat4> dense_;
};

} // namespace svsim
