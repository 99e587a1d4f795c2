// Parameterized circuits: the objects a variational loop re-synthesizes
// every iteration (Fig 15). A ParamCircuit is a gate template list where
// rotation angles may reference an optimizer parameter (with affine
// scale/offset); bind() instantiates a concrete Circuit — the cheap,
// JIT-free re-synthesis path §5 highlights.
#pragma once

#include <algorithm>
#include <vector>

#include "ir/circuit.hpp"

namespace svsim::vqa {

class ParamCircuit {
public:
  explicit ParamCircuit(IdxType n_qubits,
                        CompoundMode mode = CompoundMode::kNative)
      : n_(n_qubits), mode_(mode) {}

  IdxType n_qubits() const { return n_; }

  /// Number of optimizer parameters referenced (max index + 1).
  std::size_t n_params() const { return n_params_; }

  /// Append a fixed (non-parameterized) gate.
  ParamCircuit& fixed(const Gate& g) {
    slots_.push_back(Slot{g, false, 0, 0, 0});
    return *this;
  }

  /// Append a rotation whose angle is scale*params[index]+offset. The op
  /// must take exactly one parameter (rx/ry/rz/u1/crx/cry/crz/cu1/rxx/rzz).
  ParamCircuit& param(OP op, IdxType q0, IdxType q1, std::size_t index,
                      ValType scale = 1.0, ValType offset = 0.0) {
    SVSIM_CHECK(op_info(op).n_params == 1,
                "ParamCircuit::param needs a 1-parameter rotation op");
    Gate g = make_gate(op, q0, q1);
    slots_.push_back(Slot{g, true, index, scale, offset});
    n_params_ = std::max(n_params_, index + 1);
    return *this;
  }

  /// Instantiate with concrete parameter values.
  Circuit bind(const std::vector<ValType>& params) const {
    SVSIM_CHECK(params.size() >= n_params_, "not enough parameters");
    Circuit c(n_, mode_);
    for (const Slot& s : slots_) {
      Gate g = s.gate;
      if (s.parameterized) {
        g.theta = s.scale * params[s.index] + s.offset;
      }
      c.append(g);
    }
    return c;
  }

private:
  struct Slot {
    Gate gate;
    bool parameterized;
    std::size_t index;
    ValType scale;
    ValType offset;
  };
  IdxType n_;
  CompoundMode mode_;
  std::size_t n_params_ = 0;
  std::vector<Slot> slots_;
};

/// UCC-style ansatz for the reduced 2-qubit H2 problem: reference |01>
/// followed by exp(-i theta/2 * Y0 X1) (basis change + CX ladder + RZ).
/// One parameter.
ParamCircuit h2_ucc_ansatz();

/// Hardware-efficient ansatz: `layers` of per-qubit RY+RZ followed by a
/// CX ladder; 2*n*(layers+1) parameters.
ParamCircuit hardware_efficient_ansatz(IdxType n_qubits, int layers);

} // namespace svsim::vqa
