#include "core/single_sim.hpp"

#include "core/pipeline.hpp"

namespace svsim {

SingleSim::SingleSim(IdxType n_qubits, SimConfig cfg)
    : Simulator(n_qubits, cfg),
      n_(n_qubits),
      dim_(obs::admit_dim("single", n_qubits, 1, 1, sw_.mem_limit)),
      real_(static_cast<std::size_t>(dim_), obs::MemTag::kState, 0),
      imag_(static_cast<std::size_t>(dim_), obs::MemTag::kState, 0),
      rng_(cfg.seed),
      table_(&kernel_table<LocalSpace>(sw_.simd)) {
  real_[0] = 1.0; // |0...0>
  parts_ = Partitions{n_, {real_.data()}, {imag_.data()}};
}

void SingleSim::reset_state() {
  reset_partitions();
  rng_.reseed(cfg_.seed);
}

LocalSpace SingleSim::make_space() {
  LocalSpace sp;
  sp.real = real_.data();
  sp.imag = imag_.data();
  sp.dim = dim_;
  sp.mctx = &mctx_;
  sp.rng = &rng_;
  return sp;
}

void SingleSim::run(const Circuit& circuit) {
  static obs::Counter& runs = obs::Registry::global().counter("runs.single");
  // One worker owns the whole register: blocks may span all n bits.
  const LocalSpace sp = make_space();
  run_dispatch<LocalSpace>(
      circuit, runs, Shape{1, false}, *table_,
      [&](const auto& body) { body(sp); }, no_comm_fold);
}

} // namespace svsim
