#include "core/generalized_sim.hpp"

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
  const IdxType stride = pow2(q);
  const IdxType pairs = half_dim(n_);
  for (IdxType i = 0; i < pairs; ++i) {
    const IdxType p0 = pair_base(i, q);
    const IdxType p1 = p0 + stride;
    const Complex a0{real_[static_cast<std::size_t>(p0)],
                     imag_[static_cast<std::size_t>(p0)]};
    const Complex a1{real_[static_cast<std::size_t>(p1)],
                     imag_[static_cast<std::size_t>(p1)]};
    const Complex b0 = m[0] * a0 + m[1] * a1;
    const Complex b1 = m[2] * a0 + m[3] * a1;
    real_[static_cast<std::size_t>(p0)] = b0.real();
    imag_[static_cast<std::size_t>(p0)] = b0.imag();
    real_[static_cast<std::size_t>(p1)] = b1.real();
    imag_[static_cast<std::size_t>(p1)] = b1.imag();
  }
}

void GeneralizedSim::apply_matrix(const Mat4& m, IdxType q0, IdxType q1) {
  // Basis convention: |q0 q1> — q0 is the more significant matrix bit.
  const IdxType p = q0 < q1 ? q0 : q1;
  const IdxType q = q0 < q1 ? q1 : q0;
  const IdxType off0 = pow2(q0);
  const IdxType off1 = pow2(q1);
  const IdxType quads = quarter_dim(n_);
  for (IdxType i = 0; i < quads; ++i) {
    const IdxType s = quad_base(i, p, q);
    const IdxType idx[4] = {s, s + off1, s + off0, s + off0 + off1};
    Complex v[4];
    for (int k = 0; k < 4; ++k) {
      v[k] = Complex{real_[static_cast<std::size_t>(idx[k])],
                     imag_[static_cast<std::size_t>(idx[k])]};
    }
    for (int r = 0; r < 4; ++r) {
      Complex acc = 0;
      for (int c = 0; c < 4; ++c) acc += m[static_cast<std::size_t>(r * 4 + c)] * v[c];
      real_[static_cast<std::size_t>(idx[r])] = acc.real();
      imag_[static_cast<std::size_t>(idx[r])] = acc.imag();
    }
  }
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
        detail::per_gate_loop(
            make_space(), run.planes(), circuit.gates(), [&](const Gate& g) {
              apply_gate(g);
              return static_cast<std::uint64_t>(gate_work_items(g, n_)) *
                     detail::amps_per_work_item(g);
            });
      },
      no_comm_fold);
}

} // namespace svsim
