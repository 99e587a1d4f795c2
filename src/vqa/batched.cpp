#include "vqa/batched.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>

#include "common/bits.hpp"
#include "core/kernels/lanes.hpp"

namespace svsim::vqa {

namespace {

bool odd_parity(IdxType v) {
  return (std::popcount(static_cast<std::uint64_t>(v)) & 1) != 0;
}

/// Run step(i, a0) and step(i + 1, a1) over i in [0, n): two accumulator
/// chains, so consecutive FMAs overlap instead of waiting on each other.
template <class W, class Step>
W two_chains(IdxType n, Step&& step) {
  W a0{}, a1{};
  IdxType i = 0;
  for (; i + 1 < n; i += 2) {
    step(i, a0);
    step(i + 1, a1);
  }
  if (i < n) step(i, a0);
  return a0 + a1;
}

/// acc[b] = sum_k w[k & wmask] * |psi_k|^2 for every member: the diagonal
/// terms' one sweep.
template <class L>
void diag_sweep(const ValType* w, IdxType wmask, const ValType* re,
                const ValType* im, IdxType dim, IdxType nb, ValType* acc) {
  kernels::for_members<L>(nb, [&]<class V>(IdxType b) {
    using W = typename V::V;
    V::store(acc + b, two_chains<W>(dim, [&](IdxType k, W& a) {
      const W r = V::load(re + k * nb + b);
      const W i = V::load(im + k * nb + b);
      a = a + V::splat(w[k & wmask]) * (r * r + i * i);
    }));
  });
}

/// acc[b] = sum over k with bit `top` clear of Re(conj(psi_t) G(k) psi_k),
/// t = k ^ x, G(k) = wr(k) + i wi(k) the group's summed phase: half of
/// one flip mask's pairs. kRe / kIm drop the half of the arithmetic a
/// group without even / odd Y counts never needs. The j-th such k is j
/// with a zero inserted at bit `top`.
template <class L, bool kRe, bool kIm, class Term>
void pair_sweep(IdxType x, const std::vector<Term>& terms, const ValType* re,
                const ValType* im, IdxType dim, IdxType nb, ValType* acc) {
  const IdxType top = std::bit_floor(static_cast<std::uint64_t>(x));
  const IdxType low = top - 1;
  kernels::for_members<L>(nb, [&]<class V>(IdxType b) {
    using W = typename V::V;
    V::store(acc + b, two_chains<W>(dim / 2, [&](IdxType j, W& a) {
      const IdxType k = ((j & ~low) << 1) | (j & low);
      ValType wr = 0;
      ValType wi = 0;
      for (const Term& t : terms) {
        const bool odd = odd_parity(k & t.zy);
        if constexpr (kRe) wr += odd ? -t.cr : t.cr;
        if constexpr (kIm) wi += odd ? -t.ci : t.ci;
      }
      const IdxType kb = k * nb + b;
      const IdxType tb = (k ^ x) * nb + b;
      const W kr = V::load(re + kb);
      const W ki = V::load(im + kb);
      const W tr = V::load(re + tb);
      const W ti = V::load(im + tb);
      // Re(conj(t) (wr + i wi) k) = wr (tr kr + ti ki) + wi (ti kr - tr ki).
      if constexpr (kRe) a = a + V::splat(wr) * (tr * kr + ti * ki);
      if constexpr (kIm) a = a + V::splat(wi) * (ti * kr - tr * ki);
    }));
  });
}

/// energy_objective's callable (its contract is documented there).
class EnergyObjective {
public:
  EnergyObjective(IdxType n_qubits, ParamCircuit ansatz, const Hamiltonian& h,
                  int batch)
      : n_(n_qubits),
        batch_(batch),
        ansatz_(std::move(ansatz)),
        observable_(std::make_shared<const CompiledObservable>(h)) {
    SVSIM_CHECK(batch >= 1, "batch must be positive");
  }

  std::vector<ValType> operator()(
      const std::vector<std::vector<ValType>>& points) {
    std::vector<ValType> energies;
    energies.reserve(points.size());
    engines_.by_width.resize(static_cast<std::size_t>(batch_) + 1);
    std::size_t done = 0;
    while (done < points.size()) {
      const std::size_t width =
          std::min(static_cast<std::size_t>(batch_), points.size() - done);
      std::unique_ptr<BatchedSim>& sim = engines_.by_width[width];
      if (!sim) {
        sim = std::make_unique<BatchedSim>(n_, static_cast<int>(width));
      }
      const std::vector<std::vector<ValType>> chunk(
          points.begin() + static_cast<std::ptrdiff_t>(done),
          points.begin() + static_cast<std::ptrdiff_t>(done + width));
      sim->run_fresh(ansatz_, chunk);
      for (const ValType e : observable_->evaluate(sim->engine())) {
        energies.push_back(e);
      }
      done += width;
    }
    return energies;
  }

private:
  /// Engines by width; a copy starts empty, so copies never share one.
  struct Engines {
    std::vector<std::unique_ptr<BatchedSim>> by_width;
    Engines() = default;
    Engines(const Engines&) {}
    Engines& operator=(const Engines&) {
      by_width.clear();
      return *this;
    }
    Engines(Engines&&) noexcept = default;
    Engines& operator=(Engines&&) noexcept = default;
  };
  IdxType n_;
  int batch_;
  ParamCircuit ansatz_;
  std::shared_ptr<const CompiledObservable> observable_;
  Engines engines_;
};

} // namespace

CompiledObservable::CompiledObservable(const Hamiltonian& h)
    : n_(h.n_qubits()), constant_(h.constant) {
  // A Pauli string acts on basis states by a bit flip plus a phase that
  // is a power of i: target = k ^ x, phase = i^nY * (-1)^popcount(k & zy)
  // (Y = i X Z: the Y bits join both masks).
  std::vector<std::pair<IdxType, ValType>> diag_terms;
  IdxType z_bits = 0;
  for (const PauliTerm& term : h.terms) {
    IdxType x = 0, zy = 0;
    int n_y = 0;
    for (std::size_t q = 0; q < term.ops.size(); ++q) {
      const IdxType bit = pow2(static_cast<IdxType>(q));
      switch (term.ops[q]) {
        case Pauli::I: break;
        case Pauli::X: x |= bit; break;
        case Pauli::Y:
          x |= bit;
          zy |= bit;
          ++n_y;
          break;
        case Pauli::Z: zy |= bit; break;
      }
    }
    if (x == 0) {
      diag_terms.emplace_back(zy, term.coeff);
      z_bits |= zy;
      continue;
    }
    auto g = std::find_if(groups_.begin(), groups_.end(),
                          [x](const Group& gr) { return gr.x == x; });
    if (g == groups_.end()) {
      groups_.push_back(Group{x, {}, false, false});
      g = groups_.end() - 1;
    }
    Term t;
    t.zy = zy;
    switch (n_y % 4) {
      case 0: t.cr = term.coeff; break;
      case 1: t.ci = term.coeff; break;
      case 2: t.cr = -term.coeff; break;
      case 3: t.ci = -term.coeff; break;
    }
    (n_y % 2 == 0 ? g->has_re : g->has_im) = true;
    g->terms.push_back(t);
  }
  if (diag_terms.empty()) return;
  // w(k) = sum_t c_t (-1)^popcount(k & z_t) is the Walsh-Hadamard
  // transform of the coefficients placed at their Z masks: O(m 2^m) for
  // any number of terms.
  const auto size = static_cast<std::size_t>(
      std::bit_ceil(static_cast<std::uint64_t>(z_bits) + 1));
  diag_ = obs::TrackedBuffer<ValType>(size, obs::MemTag::kOther);
  for (const auto& [z, c] : diag_terms) {
    diag_[static_cast<std::size_t>(z)] += c;
  }
  for (std::size_t half = 1; half < size; half *= 2) {
    for (std::size_t i = 0; i < size; i += 2 * half) {
      for (std::size_t j = i; j < i + half; ++j) {
        const ValType a = diag_[j];
        const ValType b = diag_[j + half];
        diag_[j] = a + b;
        diag_[j + half] = a - b;
      }
    }
  }
}

std::vector<ValType> CompiledObservable::evaluate(
    const svsim::BatchedSim& engine) const {
  SVSIM_CHECK(n_ <= engine.n_qubits(),
              "Hamiltonian is wider than the register");
  const IdxType nb = engine.batch();
  const IdxType dim = engine.dim();
  const ValType* re = engine.real_data();
  const ValType* im = engine.imag_data();
  std::vector<ValType> out(static_cast<std::size_t>(nb), constant_);
  std::vector<ValType> acc(static_cast<std::size_t>(nb));
  kernels::with_lane(engine.simd_level(), [&]<class L>() {
    if (!diag_.empty()) {
      diag_sweep<L>(diag_.data(), static_cast<IdxType>(diag_.size()) - 1, re,
                    im, dim, nb, acc.data());
      for (std::size_t b = 0; b < out.size(); ++b) out[b] += acc[b];
    }
    for (const Group& g : groups_) {
      if (g.has_re && g.has_im) {
        pair_sweep<L, true, true>(g.x, g.terms, re, im, dim, nb, acc.data());
      } else if (g.has_re) {
        pair_sweep<L, true, false>(g.x, g.terms, re, im, dim, nb, acc.data());
      } else {
        pair_sweep<L, false, true>(g.x, g.terms, re, im, dim, nb, acc.data());
      }
      for (std::size_t b = 0; b < out.size(); ++b) out[b] += 2 * acc[b];
    }
  });
  return out;
}

BatchedSim::BatchedSim(IdxType n_qubits, int batch, SimConfig cfg)
    : engine_(n_qubits, static_cast<IdxType>(batch), cfg) {
  SVSIM_CHECK(batch >= 1, "batch must be positive");
}

void BatchedSim::run_fresh(const ParamCircuit& ansatz,
                           const std::vector<std::vector<ValType>>& params) {
  SVSIM_CHECK(static_cast<int>(params.size()) == batch(),
              "one parameter vector per batch member required");
  SVSIM_CHECK(ansatz.n_qubits() == n_qubits(), "ansatz width mismatch");

  // Bind once per member; the slot structure is identical across members
  // (same ansatz), so gate i of every member shares op and operands — the
  // congruence the engine's per-member coefficient rows rely on.
  std::vector<Circuit> bound;
  bound.reserve(params.size());
  for (const auto& p : params) bound.push_back(ansatz.bind(p));
  engine_.run_fresh(bound);
}

std::vector<ValType> BatchedSim::expectations(const Hamiltonian& h) const {
  return CompiledObservable(h).evaluate(engine_);
}

std::vector<ValType> batched_energy_sweep(
    IdxType n_qubits, const ParamCircuit& ansatz, const Hamiltonian& h,
    const std::vector<std::vector<ValType>>& param_sets, int batch) {
  return EnergyObjective(n_qubits, ansatz, h, batch)(param_sets);
}

BatchObjective energy_objective(IdxType n_qubits, ParamCircuit ansatz,
                                Hamiltonian h, int batch) {
  return EnergyObjective(n_qubits, std::move(ansatz), h, batch);
}

} // namespace svsim::vqa
