#include "core/generalized_sim.hpp"

#include "core/kernels/dense.hpp"
#include "core/pipeline.hpp"

namespace svsim {

GeneralizedSim::GeneralizedSim(IdxType n_qubits, SimConfig cfg)
    : Simulator(n_qubits, cfg),
      n_(n_qubits),
      dim_(obs::admit_dim("generalized", n_qubits, 1, 1, sw_.mem_limit)),
      real_(static_cast<std::size_t>(dim_), obs::MemTag::kState, 0),
      imag_(static_cast<std::size_t>(dim_), obs::MemTag::kState, 0),
      rng_(cfg.seed) {
  real_[0] = 1.0;
  parts_ = Partitions{n_, {real_.data()}, {imag_.data()}};
}

void GeneralizedSim::reset_state() {
  reset_partitions();
  rng_.reseed(cfg_.seed);
}

LocalSpace GeneralizedSim::make_space() {
  LocalSpace sp;
  sp.real = real_.data();
  sp.imag = imag_.data();
  sp.dim = dim_;
  sp.mctx = &mctx_;
  sp.rng = &rng_;
  return sp;
}

void GeneralizedSim::apply_matrix(const Mat2& m, IdxType q) {
  SVSIM_CHECK(q >= 0 && q < n_, "operand qubit out of range");
  kernels::apply_dense<1>(m, {q}, n_, 0, real_.data(), imag_.data());
}

void GeneralizedSim::apply_matrix(const Mat4& m, IdxType q0, IdxType q1) {
  SVSIM_CHECK(q0 >= 0 && q0 < n_ && q1 >= 0 && q1 < n_,
              "operand qubit out of range");
  SVSIM_CHECK(q0 != q1, "repeated operand qubit");
  kernels::apply_dense<2>(m, {q0, q1}, n_, 0, real_.data(), imag_.data());
}

void GeneralizedSim::apply_gate(const Gate& g) {
  // Runtime parse-and-branch per gate — the dispatch cost the paper's
  // function-pointer design eliminates.
  switch (g.op) {
    case OP::M:
      kernels::kern_measure(g, make_space(), 0, half_dim(n_));
      return;
    case OP::MA:
      kernels::kern_measure_all(g, make_space(), 0, dim_);
      return;
    case OP::RESET:
      kernels::kern_reset(g, make_space(), 0, half_dim(n_));
      return;
    case OP::BARRIER:
      return;
    default:
      break;
  }
  const OpInfo& info = op_info(g.op);
  if (info.n_qubits == 1) {
    apply_matrix(matrix_1q(g), g.qb0);
  } else {
    apply_matrix(matrix_2q(g), g.qb0, g.qb1);
  }
}

void GeneralizedSim::run(const Circuit& circuit) {
  static obs::Counter& runs =
      obs::Registry::global().counter("runs.generalized");
  Run run(*this, circuit, runs, Shape{1, false});
  run.launch(
      nullptr, /*priced=*/false,
      [&] {
        detail::per_gate_loop(make_space(), run.planes(), circuit.gates(),
                              [&](const Gate& g) { apply_gate(g); });
      },
      no_comm_fold);
}

} // namespace svsim
