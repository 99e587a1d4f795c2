#include "ir/schedule.hpp"

namespace svsim {

bool is_diagonal_gate(OP op) {
  switch (op) {
    case OP::ID:
    case OP::Z:
    case OP::S:
    case OP::SDG:
    case OP::T:
    case OP::TDG:
    case OP::RZ:
    case OP::U1:
    case OP::CZ:
    case OP::CU1:
    case OP::CRZ:
    case OP::RZZ:
      return true;
    default:
      return false;
  }
}

namespace {

/// Operand qubits of a kernel gate (<= 2 for everything the dispatch
/// table executes).
int operand_qubits(const Gate& g, IdxType out[2]) {
  int n = 0;
  if (g.qb0 >= 0) out[n++] = g.qb0;
  if (g.qb1 >= 0) out[n++] = g.qb1;
  return n;
}

/// May `g` join a window blocked on the low `b` bits?
bool joins_window(const Gate& g, IdxType b) {
  // A 1- or 2-qubit unitary: a Table 1 kernel gate or the fused DENSE2.
  if (!is_unitary_op(g.op) || g.n_qubits() > 2) return false;
  if (is_diagonal_gate(g.op)) return true;
  IdxType qs[2];
  const int nq = operand_qubits(g, qs);
  for (int i = 0; i < nq; ++i) {
    if (qs[i] >= b) return false;
  }
  return true;
}

} // namespace

Schedule build_schedule(const Circuit& circuit, IdxType block_exp,
                        IdxType checkpoint_every) {
  SVSIM_CHECK(block_exp >= 2, "block exponent must be >= 2");
  Schedule sched;
  sched.stats.block_exp = block_exp;
  const std::vector<Gate>& gates = circuit.gates();

  Window cur; // candidate window being grown (n_gates == 0: empty)
  auto flush = [&](bool qualifying) {
    if (cur.n_gates == 0) return;
    // A lone qualifying gate gains nothing from blocking; run it through
    // the per-gate loop like any other.
    cur.blocked = qualifying && cur.n_gates >= 2;
    if (cur.blocked) {
      ++sched.stats.windows;
      sched.stats.windowed_gates += cur.n_gates;
      sched.stats.passes_saved += cur.n_gates - 1;
    }
    sched.windows.push_back(cur);
    cur = Window{};
  };

  for (IdxType gi = 0; gi < static_cast<IdxType>(gates.size()); ++gi) {
    const Gate& g = gates[static_cast<std::size_t>(gi)];
    if (joins_window(g, block_exp)) {
      if (cur.n_gates == 0) cur.first_gate = gi;
      ++cur.n_gates;
    } else {
      flush(true);
      // The barrier gate is its own per-gate window.
      cur.first_gate = gi;
      cur.n_gates = 1;
      flush(false);
    }
    // Health checkpoints are window barriers: the executor checks once per
    // window, so windows must end exactly where the per-gate loop would
    // have checkpointed (gate ids are 1-based).
    if (checkpoint_every > 0 && (gi + 1) % checkpoint_every == 0) flush(true);
  }
  flush(true);
  return sched;
}

} // namespace svsim
