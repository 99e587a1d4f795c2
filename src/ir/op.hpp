// The SV-Sim ISA: the gate set of Table 1 (IBM OpenQASM standard) plus the
// non-unitary operations every practical simulator needs (measure, reset,
// barrier).
//
// The paper partitions Table 1 into:
//  * 5 "basic" gates natively executed by IBM-Q hardware:  U3 U2 U1 CX ID
//  * 11 "standard" gates defined atomically:               X Y Z H S SDG T
//                                                          TDG RX RY RZ
//  * 18 "compound" gates composed from the above:          CZ CY SWAP CH CCX
//                                                          CSWAP CRX CRY CRZ
//                                                          CU1 CU3 RXX RZZ
//                                                          RCCX RC3X C3X
//                                                          C3SQRTX C4X
//
// The backends implement specialized kernels for all basic and standard
// gates and for every *2-qubit* compound gate (per §3.2.1: "we apply
// similar gate-specific optimization for other gate functions"); the >=3
// qubit compound gates always decompose into 1- and 2-qubit primitives at
// circuit-construction time, exactly as qelib1.inc defines them.
#pragma once

#include <cstdint>
#include <string>

namespace svsim {

enum class OP : std::int32_t {
  // --- basic (IBM-Q native) ---
  U3,
  U2,
  U1,
  CX,
  ID,
  // --- standard 1-qubit ---
  X,
  Y,
  Z,
  H,
  S,
  SDG,
  T,
  TDG,
  RX,
  RY,
  RZ,
  // --- compound, 2-qubit (specialized kernels exist) ---
  CZ,
  CY,
  CH,
  SWAP,
  CRX,
  CRY,
  CRZ,
  CU1,
  CU3,
  RXX,
  RZZ,
  // --- compound, >=3-qubit (always decomposed) ---
  CCX,
  CSWAP,
  RCCX,
  RC3X,
  C3X,
  C3SQRTX,
  C4X,
  // --- non-unitary / control ---
  M,       // measure one qubit into a classical bit
  MA,      // measure all qubits (sampling)
  RESET,   // reset one qubit to |0>
  BARRIER, // scheduling barrier (no-op for the state vector)
  // --- internal: emitted by a pipeline pass, never parsed ---
  DENSE2, // dense 4x4 on a qubit pair; its matrix lives in its circuit

  COUNT_ // sentinel: number of ops
};

inline constexpr int kNumOps = static_cast<int>(OP::COUNT_);

/// Coarse category used for dispatch-table construction and statistics.
enum class OpClass {
  kBasic,
  kStandard,
  kCompound2Q,
  kCompoundMulti,
  kNonUnitary,
  kFused, // internal ops a pipeline pass emits (no OpenQASM form)
};

/// Static metadata for one op.
struct OpInfo {
  const char* name;   // lower-case OpenQASM mnemonic
  int n_qubits;       // operand count (2 for CX, 5 for C4X, ...)
  int n_params;       // rotation parameters (3 for U3/CU3, 1 for RZ, ...)
  OpClass cls;
};

/// Metadata lookup; total over all OP values.
const OpInfo& op_info(OP op);

inline const char* op_name(OP op) { return op_info(op).name; }

/// Look up an op by mnemonic ("cx", "u3", "tdg", ...); throws on unknown.
/// Every op's own name resolves, the internal ones' too: the QASM parser
/// rejects those itself.
OP op_from_name(const std::string& name);

/// True for the specialized-kernel gates of Table 1 the backends execute
/// through the dispatch table (basic + standard + 2-qubit compound). The
/// internal DENSE2 runs through the table too but is no Table 1 gate.
inline bool is_kernel_op(OP op) {
  const OpClass c = op_info(op).cls;
  return c == OpClass::kBasic || c == OpClass::kStandard ||
         c == OpClass::kCompound2Q;
}

inline bool is_unitary_op(OP op) {
  return op_info(op).cls != OpClass::kNonUnitary;
}

/// True for 2-qubit ops whose unitary is invariant under exchanging the
/// two operands (diagonal in the computational basis or exchange-
/// symmetric): cz q[a],q[b] == cz q[b],q[a], and likewise swap, cu1,
/// rzz, rxx. Used by fusion to cancel inverse pairs written with the
/// operands in either order.
inline bool is_symmetric_2q(OP op) {
  return op == OP::CZ || op == OP::SWAP || op == OP::CU1 || op == OP::RZZ ||
         op == OP::RXX;
}

} // namespace svsim
