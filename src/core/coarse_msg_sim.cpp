#include "core/coarse_msg_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/bits.hpp"
#include "core/kernels/dense.hpp"
#include "core/kernels/nonunitary.hpp"
#include "core/pipeline.hpp"

namespace svsim {

// ---------------------------------------------------------------------------
// Rank: the per-thread execution context (one MPI rank).
// ---------------------------------------------------------------------------
class CoarseMsgSim::Rank {
public:
  Rank(CoarseMsgSim* sim, int rank)
      : sim_(sim),
        rank_(rank),
        per_(pow2(sim->parts_.lg_part)),
        lg_(sim->parts_.lg_part),
        real_(sim->parts_.real[static_cast<std::size_t>(rank)]),
        imag_(sim->parts_.imag[static_cast<std::size_t>(rank)]),
        rng_(&sim->rngs_[static_cast<std::size_t>(rank)]) {
    stats_.per_dest_bytes.assign(static_cast<std::size_t>(sim->n_ranks_), 0);
  }

  void execute(const std::vector<Gate>& gates, const RunPlanes& planes) {
    detail::per_gate_loop(*this, planes, gates,
                          [this](const Gate& g) { apply(g); });
    sim_->stats_[static_cast<std::size_t>(rank_)] = stats_;
  }

  // --- the SPMD protocol detail::health_checkpoint uses ------------------

  int worker() const { return rank_; }
  const ValType* local_real() const { return real_; }
  const ValType* local_imag() const { return imag_; }
  IdxType local_count() const { return per_; }

  /// Root-based all-reduce: partials to rank 0, result broadcast back.
  /// Every rank reaches each collective at the same gate (the gate loop
  /// and the checkpoint cadence are deterministic), so it stays lockstep.
  ValType reduce_sum(ValType v) const {
    // One kReduction span per collective; the inner recv kTransfer
    // scopes are nesting-suppressed.
    obs::WaitScope wait(obs::WaitKind::kReduction);
    const int n = sim_->n_ranks_;
    if (n == 1) return v;
    if (rank_ == 0) {
      ValType total = v;
      for (int r = 1; r < n; ++r) total += recv(r)[0];
      for (int r = 1; r < n; ++r) send(r, std::vector<ValType>{total});
      return total;
    }
    send(0, std::vector<ValType>{v});
    return recv(0)[0];
  }

private:
  // --- messaging primitives -------------------------------------------

  /// My whole partition as one message, [real | imag]. This is the coarse
  /// granularity the baseline is about: one big buffered message per gate
  /// per partner, CPU-side pack/unpack included.
  std::vector<ValType> pack() const {
    std::vector<ValType> out(static_cast<std::size_t>(2 * per_));
    const std::size_t bytes = static_cast<std::size_t>(per_) * sizeof(ValType);
    std::memcpy(out.data(), real_, bytes);
    std::memcpy(out.data() + per_, imag_, bytes);
    return out;
  }

  /// Swap my packed partition with `partner`'s.
  std::vector<ValType> exchange_partition(int partner) {
    send(partner, pack());
    return recv(partner);
  }

  void send(int dst, std::vector<ValType>&& buf) const {
    ++stats_.messages;
    const std::uint64_t nbytes = buf.size() * sizeof(ValType);
    stats_.bytes += nbytes;
    stats_.per_dest_bytes[static_cast<std::size_t>(dst)] += nbytes;
    sim_->mailboxes_[static_cast<std::size_t>(dst)]->send(rank_,
                                                          std::move(buf));
  }

  std::vector<ValType> recv(int src) const {
    return sim_->mailboxes_[static_cast<std::size_t>(rank_)]->recv(src);
  }

  // --- gate application --------------------------------------------------

  void apply(const Gate& g) {
    switch (g.op) {
      case OP::M: apply_measure(g); break;
      case OP::MA: apply_measure_all(g); break;
      case OP::RESET: apply_reset(g); break;
      case OP::BARRIER: break;
      default:
        if (op_info(g.op).n_qubits == 1) {
          apply_unitary(matrix_1q(g), std::array<IdxType, 1>{g.qb0});
        } else {
          apply_unitary(matrix_2q(g), std::array<IdxType, 2>{g.qb0, g.qb1});
        }
    }
  }

  /// A unitary gate through the generic dense body (kernels/dense.hpp).
  /// An operand at or above lg_ is a rank-index bit: first swap whole
  /// partitions with every rank that differs from mine only in those bits
  /// (one rank for one such operand, three for two). The mailboxes
  /// buffer, so all sends go out before the first receive.
  template <std::size_t K>
  void apply_unitary(
      const std::array<Complex, (std::size_t{1} << (2 * K))>& m,
      const std::array<IdxType, K>& q) {
    const int remote = kernels::dense_remote_bits(q, lg_);
    std::array<std::vector<ValType>, (1 << K)> copy;
    std::array<const ValType*, (1 << K)> copy_re{};
    std::array<const ValType*, (1 << K)> copy_im{};
    const auto partner = [&](int f) {
      return static_cast<int>(kernels::dense_partner(q, lg_, rank_, f));
    };
    if (remote == 0) {
      ++stats_.local_gates;
    } else {
      ++stats_.exchange_gates;
      std::vector<ValType> mine = pack();
      for (int f = 1; f <= remote; ++f) {
        if ((f & remote) != f) continue;
        send(partner(f), f == remote ? std::move(mine)
                                     : std::vector<ValType>(mine));
      }
      for (int f = 1; f <= remote; ++f) {
        if ((f & remote) != f) continue;
        const auto at = static_cast<std::size_t>(f);
        copy[at] = recv(partner(f));
        copy_re[at] = copy[at].data();
        copy_im[at] = copy[at].data() + per_;
      }
    }
    kernels::apply_dense<K>(m, q, lg_, rank_, real_, imag_, copy_re, copy_im);
  }

  // --- non-unitary --------------------------------------------------------

  /// This rank's share of P(qubit q reads `one`), summed directly over
  /// that half: P(|0>) as 1 - P(|1>) cancels catastrophically when P(|0>)
  /// is tiny, and reset then amplifies the error by 1/sqrt(P(|0>)).
  ValType local_prob_bit(IdxType q, bool one) {
    ValType p = 0;
    if (q < lg_) {
      const IdxType off = one ? pow2(q) : 0;
      for (IdxType i = 0; i < per_ / 2; ++i) {
        const IdxType at = pair_base(i, q) + off;
        p += real_[at] * real_[at] + imag_[at] * imag_[at];
      }
    } else if (((rank_ & (1 << (q - lg_))) != 0) == one) {
      for (IdxType j = 0; j < per_; ++j) {
        p += real_[j] * real_[j] + imag_[j] * imag_[j];
      }
    }
    return p;
  }

  /// Zero the half not matching `outcome` on qubit q and scale the rest.
  void collapse(IdxType q, bool one, ValType scale) {
    if (q < lg_) {
      const IdxType stride = pow2(q);
      for (IdxType i = 0; i < per_ / 2; ++i) {
        const IdxType p0 = pair_base(i, q);
        const IdxType p1 = p0 + stride;
        const IdxType keep = one ? p1 : p0;
        const IdxType kill = one ? p0 : p1;
        real_[keep] *= scale;
        imag_[keep] *= scale;
        real_[kill] = 0;
        imag_[kill] = 0;
      }
    } else {
      const bool my_bit = (rank_ & (1 << (q - lg_))) != 0;
      if (my_bit == one) {
        for (IdxType j = 0; j < per_; ++j) {
          real_[j] *= scale;
          imag_[j] *= scale;
        }
      } else {
        std::memset(real_, 0, static_cast<std::size_t>(per_) * sizeof(ValType));
        std::memset(imag_, 0, static_cast<std::size_t>(per_) * sizeof(ValType));
      }
    }
  }

  void apply_measure(const Gate& g) {
    const IdxType q = g.qb0;
    // Clamp like kern_measure: drift in the reduced probability must not
    // bias the branch or push `keep` negative.
    const ValType prob1 = std::clamp(reduce_sum(local_prob_bit(q, true)),
                                     ValType{0}, ValType{1});
    const ValType u = rng_->next_double(); // replicated draw, same everywhere
    const bool one = u < prob1;
    const ValType keep = one ? prob1 : 1.0 - prob1;
    collapse(q, one, keep > 0 ? 1.0 / std::sqrt(keep) : 0.0);
    if (rank_ == 0 && g.cbit >= 0) sim_->cbits_[static_cast<std::size_t>(g.cbit)] = one;
  }

  void apply_reset(const Gate& g) {
    const IdxType q = g.qb0;
    const ValType prob0 = std::clamp(reduce_sum(local_prob_bit(q, false)),
                                     ValType{0}, ValType{1});
    if (prob0 > 1e-12) {
      collapse(q, false, 1.0 / std::sqrt(prob0));
    } else {
      // Deterministic |1>: move the |1> half into the |0> half.
      move_one_half_to_zero(q);
    }
  }

  void move_one_half_to_zero(IdxType q) {
    if (q < lg_) {
      const IdxType stride = pow2(q);
      for (IdxType i = 0; i < per_ / 2; ++i) {
        const IdxType p0 = pair_base(i, q);
        const IdxType p1 = p0 + stride;
        real_[p0] = real_[p1];
        imag_[p0] = imag_[p1];
        real_[p1] = 0;
        imag_[p1] = 0;
      }
      return;
    }
    const int bit = 1 << (q - lg_);
    const int partner = rank_ ^ bit;
    const std::vector<ValType> remote = exchange_partition(partner);
    if ((rank_ & bit) == 0) {
      std::memcpy(real_, remote.data(),
                  static_cast<std::size_t>(per_) * sizeof(ValType));
      std::memcpy(imag_, remote.data() + per_,
                  static_cast<std::size_t>(per_) * sizeof(ValType));
    } else {
      std::memset(real_, 0, static_cast<std::size_t>(per_) * sizeof(ValType));
      std::memset(imag_, 0, static_cast<std::size_t>(per_) * sizeof(ValType));
    }
  }

  void apply_measure_all(const Gate& g) {
    const int n = sim_->n_ranks_;
    // All ranks draw the same uniforms (lockstep with the other backends).
    auto draws = kernels::draw_shots(sim_->mctx_.n_shots, rank_ == 0,
                                     [&] { return rng_->next_double(); });
    if (rank_ != 0) {
      send(0, pack());
      return;
    }
    // Rank 0 gathers the full distribution and samples.
    std::vector<std::vector<ValType>> parts(static_cast<std::size_t>(n));
    for (int r = 1; r < n; ++r) parts[static_cast<std::size_t>(r)] = recv(r);
    kernels::sample_sweep(
        draws, sim_->dim_,
        kernels::readout_permutation(sim_->mctx_.ma_layouts, sim_->n_,
                                     g.cbit),
        [&](IdxType phys) {
          const auto owner = static_cast<std::size_t>(phys >> lg_);
          const IdxType off = phys & (per_ - 1);
          const ValType* re = owner == 0 ? real_ : parts[owner].data();
          const ValType* im = owner == 0 ? imag_ : parts[owner].data() + per_;
          return re[off] * re[off] + im[off] * im[off];
        },
        sim_->results_.data());
  }

  CoarseMsgSim* sim_;
  int rank_;
  IdxType per_;
  IdxType lg_;
  ValType* real_;
  ValType* imag_;
  Rng* rng_;
  mutable MsgStats stats_; // the collectives count their messages too
};

// ---------------------------------------------------------------------------
// CoarseMsgSim
// ---------------------------------------------------------------------------

CoarseMsgSim::CoarseMsgSim(IdxType n_qubits, int n_ranks, SimConfig cfg)
    : Simulator(n_qubits, cfg),
      n_(n_qubits),
      dim_(obs::admit_dim("coarse-msg", n_qubits, n_ranks, 1, sw_.mem_limit)),
      n_ranks_(n_ranks) {
  SVSIM_CHECK(n_ranks >= 1 && is_pow2(n_ranks),
              "rank count must be a power of two");
  SVSIM_CHECK(dim_ >= n_ranks, "more ranks than amplitudes");
  parts_.lg_part = n_ - log2_exact(n_ranks);
  const auto per = static_cast<std::size_t>(pow2(parts_.lg_part));
  for (int r = 0; r < n_ranks; ++r) {
    real_parts_.emplace_back(per, obs::MemTag::kState, r);
    imag_parts_.emplace_back(per, obs::MemTag::kState, r);
    parts_.real.push_back(real_parts_.back().data());
    parts_.imag.push_back(imag_parts_.back().data());
    mailboxes_.push_back(std::make_unique<Mailbox>(n_ranks, r));
  }
  real_parts_[0][0] = 1.0;
  rngs_.assign(static_cast<std::size_t>(n_ranks), Rng(cfg.seed));
  stats_.assign(static_cast<std::size_t>(n_ranks), MsgStats{});
}

void CoarseMsgSim::reset_state() {
  reset_partitions();
  for (auto& rng : rngs_) rng.reseed(cfg_.seed);
}

void CoarseMsgSim::run(const Circuit& circuit) {
  static obs::Counter& runs = obs::Registry::global().counter("runs.coarse");
  Run run(*this, circuit, runs, Shape{n_ranks_, true});
  stats_.assign(static_cast<std::size_t>(n_ranks_), MsgStats{});
  run.launch(
      nullptr, /*priced=*/false,
      [&] {
        launch_team(n_ranks_, [&](int r) {
          obs::WaitBind bind(run.waits(), r);
          Rank(this, r).execute(run.exec().gates(), run.planes());
        });
      },
      [&](obs::RunReport& rep) {
        const MsgStats total = stats();
        rep.comm.add_messages(total.messages, total.bytes);
        const auto n = static_cast<std::size_t>(n_ranks_);
        rep.matrix.n = n_ranks_;
        rep.matrix.bytes.assign(n * n, 0);
        for (std::size_t r = 0; r < n; ++r) {
          const auto& row = stats_[r].per_dest_bytes;
          for (std::size_t d = 0; d < n && d < row.size(); ++d) {
            rep.matrix.bytes[r * n + d] = row[d];
          }
        }
      });
}

MsgStats CoarseMsgSim::stats() const {
  MsgStats total;
  total.per_dest_bytes.assign(static_cast<std::size_t>(n_ranks_), 0);
  for (const auto& s : stats_) {
    total.messages += s.messages;
    total.bytes += s.bytes;
    total.exchange_gates += s.exchange_gates;
    total.local_gates += s.local_gates;
    for (std::size_t d = 0; d < s.per_dest_bytes.size(); ++d) {
      total.per_dest_bytes[d] += s.per_dest_bytes[d];
    }
  }
  // exchange/local gate counts are replicated per rank; report per-circuit.
  total.exchange_gates /= static_cast<std::uint64_t>(n_ranks_);
  total.local_gates /= static_cast<std::uint64_t>(n_ranks_);
  return total;
}

} // namespace svsim
