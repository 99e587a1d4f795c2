#include "testing/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace svsim::testing {

OracleSim::OracleSim(IdxType n_qubits, std::uint64_t seed)
    : n_(n_qubits),
      dim_(pow2(n_qubits)),
      seed_(seed),
      state_mem_(obs::MemTag::kOracle),
      sv_(n_qubits),
      cbits_(static_cast<std::size_t>(n_qubits), 0),
      rng_(seed) {
  state_mem_.add(static_cast<std::int64_t>(dim_) *
                 static_cast<std::int64_t>(sizeof(Complex)));
  sv_.amps[0] = 1.0;
}

void OracleSim::reset_state() {
  std::fill(sv_.amps.begin(), sv_.amps.end(), Complex{0, 0});
  sv_.amps[0] = 1.0;
  std::fill(cbits_.begin(), cbits_.end(), 0);
  rng_.reseed(seed_);
}

void OracleSim::apply_1q(const Mat2& m, IdxType q) {
  const IdxType stride = pow2(q);
  for (IdxType i = 0; i < dim_ / 2; ++i) {
    const IdxType i0 = pair_base(i, q);
    const IdxType i1 = i0 + stride;
    const Complex a0 = sv_.amps[static_cast<std::size_t>(i0)];
    const Complex a1 = sv_.amps[static_cast<std::size_t>(i1)];
    sv_.amps[static_cast<std::size_t>(i0)] = m[0] * a0 + m[1] * a1;
    sv_.amps[static_cast<std::size_t>(i1)] = m[2] * a0 + m[3] * a1;
  }
}

void OracleSim::apply_2q(const Mat4& m, IdxType q0, IdxType q1) {
  // matrices.hpp convention: row-major 4x4 over |qb0 qb1> with the FIRST
  // operand the more significant bit.
  const IdxType s0 = pow2(q0);
  const IdxType s1 = pow2(q1);
  const IdxType mask0 = ~s0;
  const IdxType mask1 = ~s1;
  for (IdxType k = 0; k < dim_; ++k) {
    if ((k & s0) != 0 || (k & s1) != 0) continue; // visit each quad once
    const IdxType base = k & mask0 & mask1;
    const IdxType idx[4] = {base, base + s1, base + s0, base + s0 + s1};
    Complex in[4];
    for (int r = 0; r < 4; ++r) {
      in[r] = sv_.amps[static_cast<std::size_t>(idx[r])];
    }
    for (int r = 0; r < 4; ++r) {
      Complex acc{0, 0};
      for (int c = 0; c < 4; ++c) acc += m[r * 4 + c] * in[c];
      sv_.amps[static_cast<std::size_t>(idx[r])] = acc;
    }
  }
}

void OracleSim::apply_measure(const Gate& g) {
  const IdxType q = g.qb0;
  ValType p1 = 0;
  for (IdxType k = 0; k < dim_; ++k) {
    if (qubit_set(k, q)) p1 += std::norm(sv_.amps[static_cast<std::size_t>(k)]);
  }
  // Mirror kern_measure, including its [0,1] drift clamp: the draw and
  // branch must be taken against the same quantity the backends use.
  p1 = std::clamp(p1, ValType{0}, ValType{1});
  const ValType u = rng_.next_double();
  const bool one = u < p1;
  const ValType keep = one ? p1 : (1.0 - p1);
  const ValType scale = keep > 0 ? 1.0 / std::sqrt(keep) : 0.0;
  for (IdxType k = 0; k < dim_; ++k) {
    if (qubit_set(k, q) == one) {
      sv_.amps[static_cast<std::size_t>(k)] *= scale;
    } else {
      sv_.amps[static_cast<std::size_t>(k)] = 0;
    }
  }
  if (g.cbit >= 0) cbits_[static_cast<std::size_t>(g.cbit)] = one ? 1 : 0;
}

void OracleSim::apply_reset(const Gate& g) {
  const IdxType q = g.qb0;
  const IdxType stride = pow2(q);
  ValType p0 = 0;
  for (IdxType k = 0; k < dim_; ++k) {
    if (!qubit_set(k, q)) p0 += std::norm(sv_.amps[static_cast<std::size_t>(k)]);
  }
  p0 = std::clamp(p0, ValType{0}, ValType{1});
  if (p0 > 1e-12) {
    const ValType scale = 1.0 / std::sqrt(p0);
    for (IdxType k = 0; k < dim_; ++k) {
      if (!qubit_set(k, q)) {
        sv_.amps[static_cast<std::size_t>(k)] *= scale;
      } else {
        sv_.amps[static_cast<std::size_t>(k)] = 0;
      }
    }
  } else {
    // Deterministically |1>: move the |1> half into the |0> half.
    for (IdxType k = 0; k < dim_; ++k) {
      if (!qubit_set(k, q)) {
        sv_.amps[static_cast<std::size_t>(k)] =
            sv_.amps[static_cast<std::size_t>(k + stride)];
        sv_.amps[static_cast<std::size_t>(k + stride)] = 0;
      }
    }
  }
}

void OracleSim::run(const Circuit& circuit) {
  SVSIM_CHECK(circuit.n_qubits() == n_, "circuit width != oracle width");
  // Like the backends: widen to the circuit's classical bits, never shrink.
  if (circuit.n_cbits() > static_cast<IdxType>(cbits_.size())) {
    cbits_.resize(static_cast<std::size_t>(circuit.n_cbits()), 0);
  }
  for (const Gate& g : circuit.gates()) {
    switch (g.op) {
      case OP::BARRIER:
        continue;
      case OP::M:
        apply_measure(g);
        continue;
      case OP::RESET:
        apply_reset(g);
        continue;
      case OP::MA:
        // Outside sample() a measure-all carries no shots: the backends'
        // kernel draws mctx->n_shots == 0 uniforms, i.e. nothing.
        continue;
      default:
        break;
    }
    const OpInfo& info = op_info(g.op);
    if (info.n_qubits == 1) {
      apply_1q(matrix_1q(g), g.qb0);
    } else if (info.n_qubits == 2) {
      apply_2q(circuit.unitary_2q(g), g.qb0, g.qb1);
    } else {
      // >=3-qubit compounds are decomposed at Circuit append time and
      // never reach a gate list.
      throw Error(std::string("oracle: unexpected op in gate list: ") +
                  op_name(g.op));
    }
  }
}

std::vector<IdxType> OracleSim::sample(IdxType shots) {
  // Mirror kern_measure_all: all draws up front (RNG lockstep with the
  // backends), sorted, then one sweep over the cumulative distribution in
  // basis order; numerical-tail draws land on the last basis state.
  std::vector<std::pair<ValType, IdxType>> draws;
  draws.reserve(static_cast<std::size_t>(shots));
  for (IdxType s = 0; s < shots; ++s) {
    draws.emplace_back(rng_.next_double(), s);
  }
  std::vector<IdxType> results(static_cast<std::size_t>(shots), 0);
  std::sort(draws.begin(), draws.end());
  ValType cum = 0;
  IdxType k = 0;
  std::size_t d = 0;
  while (d < draws.size() && k < dim_) {
    cum += std::norm(sv_.amps[static_cast<std::size_t>(k)]);
    while (d < draws.size() && draws[d].first < cum) {
      results[static_cast<std::size_t>(draws[d].second)] = k;
      ++d;
    }
    ++k;
  }
  for (; d < draws.size(); ++d) {
    results[static_cast<std::size_t>(draws[d].second)] = dim_ - 1;
  }
  return results;
}

} // namespace svsim::testing
