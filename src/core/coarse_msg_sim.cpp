#include "core/coarse_msg_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/bits.hpp"
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
    detail::per_gate_loop(*this, planes, gates, [this](const Gate& g) {
      apply(g);
      // Every non-barrier gate walks this rank's whole partition.
      return g.op == OP::BARRIER ? std::uint64_t{0}
                                 : static_cast<std::uint64_t>(per_);
    });
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

  /// Pack my whole partition ([real | imag]) and swap it with `partner`.
  /// This is the coarse granularity the baseline is about: one big
  /// buffered message per gate per partner, CPU-side pack/unpack included.
  std::vector<ValType> exchange_partition(int partner) {
    std::vector<ValType> out(static_cast<std::size_t>(2 * per_));
    std::memcpy(out.data(), real_, static_cast<std::size_t>(per_) * sizeof(ValType));
    std::memcpy(out.data() + per_, imag_,
                static_cast<std::size_t>(per_) * sizeof(ValType));
    send(partner, std::move(out));
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
          apply_1q(g);
        } else {
          apply_2q(g);
        }
    }
  }

  void apply_1q(const Gate& g) {
    const Mat2 m = matrix_1q(g);
    const IdxType q = g.qb0;
    if (q < lg_) {
      // Fully local: all pairs live inside my partition.
      ++stats_.local_gates;
      const IdxType stride = pow2(q);
      for (IdxType i = 0; i < per_ / 2; ++i) {
        const IdxType p0 = pair_base(i, q);
        const IdxType p1 = p0 + stride;
        const Complex a0{real_[p0], imag_[p0]};
        const Complex a1{real_[p1], imag_[p1]};
        const Complex b0 = m[0] * a0 + m[1] * a1;
        const Complex b1 = m[2] * a0 + m[3] * a1;
        real_[p0] = b0.real();
        imag_[p0] = b0.imag();
        real_[p1] = b1.real();
        imag_[p1] = b1.imag();
      }
      return;
    }
    // Pair partner owns the other half of every pair.
    ++stats_.exchange_gates;
    const int bit = 1 << (q - lg_);
    const int partner = rank_ ^ bit;
    const std::vector<ValType> remote = exchange_partition(partner);
    const bool zero_side = (rank_ & bit) == 0;
    for (IdxType j = 0; j < per_; ++j) {
      const Complex mine{real_[j], imag_[j]};
      const Complex theirs{remote[static_cast<std::size_t>(j)],
                           remote[static_cast<std::size_t>(per_ + j)]};
      const Complex out = zero_side ? m[0] * mine + m[1] * theirs
                                    : m[2] * theirs + m[3] * mine;
      real_[j] = out.real();
      imag_[j] = out.imag();
    }
  }

  void apply_2q(const Gate& g) {
    const Mat4 m = matrix_2q(g);
    const IdxType q0 = g.qb0;
    const IdxType q1 = g.qb1;
    const bool hi0 = q0 >= lg_;
    const bool hi1 = q1 >= lg_;
    if (!hi0 && !hi1) {
      apply_2q_local(m, q0, q1);
    } else if (hi0 != hi1) {
      apply_2q_one_remote(m, q0, q1);
    } else {
      apply_2q_both_remote(m, q0, q1);
    }
  }

  void apply_2q_local(const Mat4& m, IdxType q0, IdxType q1) {
    ++stats_.local_gates;
    const IdxType p = q0 < q1 ? q0 : q1;
    const IdxType q = q0 < q1 ? q1 : q0;
    const IdxType off0 = pow2(q0);
    const IdxType off1 = pow2(q1);
    for (IdxType i = 0; i < per_ / 4; ++i) {
      const IdxType s = quad_base(i, p, q);
      const IdxType idx[4] = {s, s + off1, s + off0, s + off0 + off1};
      Complex v[4];
      for (int k = 0; k < 4; ++k) v[k] = Complex{real_[idx[k]], imag_[idx[k]]};
      for (int r = 0; r < 4; ++r) {
        Complex acc = 0;
        for (int c = 0; c < 4; ++c) {
          acc += m[static_cast<std::size_t>(r * 4 + c)] * v[c];
        }
        real_[idx[r]] = acc.real();
        imag_[idx[r]] = acc.imag();
      }
    }
  }

  void apply_2q_one_remote(const Mat4& m, IdxType q0, IdxType q1) {
    ++stats_.exchange_gates;
    const bool hi_is_q0 = q0 >= lg_;
    const IdxType hi = hi_is_q0 ? q0 : q1;
    const IdxType lo = hi_is_q0 ? q1 : q0;
    const int bit = 1 << (hi - lg_);
    const int partner = rank_ ^ bit;
    const std::vector<ValType> remote = exchange_partition(partner);
    const int my_hi_bit = (rank_ & bit) != 0 ? 1 : 0;
    const IdxType off_lo = pow2(lo);

    for (IdxType i = 0; i < per_ / 2; ++i) {
      const IdxType s = pair_base(i, lo);
      // Matrix basis |q0 q1>: combo k = b0*2 + b1.
      Complex v[4];
      for (int k = 0; k < 4; ++k) {
        const int b0 = (k >> 1) & 1;
        const int b1 = k & 1;
        const int b_hi = hi_is_q0 ? b0 : b1;
        const int b_lo = hi_is_q0 ? b1 : b0;
        const IdxType off = s + (b_lo != 0 ? off_lo : 0);
        if (b_hi == my_hi_bit) {
          v[k] = Complex{real_[off], imag_[off]};
        } else {
          v[k] = Complex{remote[static_cast<std::size_t>(off)],
                         remote[static_cast<std::size_t>(per_ + off)]};
        }
      }
      for (int k = 0; k < 4; ++k) {
        const int b0 = (k >> 1) & 1;
        const int b1 = k & 1;
        const int b_hi = hi_is_q0 ? b0 : b1;
        if (b_hi != my_hi_bit) continue; // partner writes that row
        const int b_lo = hi_is_q0 ? b1 : b0;
        const IdxType off = s + (b_lo != 0 ? off_lo : 0);
        Complex acc = 0;
        for (int c = 0; c < 4; ++c) {
          acc += m[static_cast<std::size_t>(k * 4 + c)] * v[c];
        }
        real_[off] = acc.real();
        imag_[off] = acc.imag();
      }
    }
  }

  void apply_2q_both_remote(const Mat4& m, IdxType q0, IdxType q1) {
    ++stats_.exchange_gates;
    const int bit0 = 1 << (q0 - lg_);
    const int bit1 = 1 << (q1 - lg_);
    // Three partners: flip q0, flip q1, flip both. Exchange with each.
    const int partners[3] = {rank_ ^ bit0, rank_ ^ bit1, rank_ ^ bit0 ^ bit1};
    std::vector<ValType> bufs[3];
    for (auto partner : partners) {
      std::vector<ValType> out(static_cast<std::size_t>(2 * per_));
      std::memcpy(out.data(), real_,
                  static_cast<std::size_t>(per_) * sizeof(ValType));
      std::memcpy(out.data() + per_, imag_,
                  static_cast<std::size_t>(per_) * sizeof(ValType));
      send(partner, std::move(out));
    }
    for (int k = 0; k < 3; ++k) bufs[k] = recv(partners[k]);

    const int my_b0 = (rank_ & bit0) != 0 ? 1 : 0;
    const int my_b1 = (rank_ & bit1) != 0 ? 1 : 0;
    const int k_mine = my_b0 * 2 + my_b1;

    for (IdxType j = 0; j < per_; ++j) {
      Complex v[4];
      for (int k = 0; k < 4; ++k) {
        const int b0 = (k >> 1) & 1;
        const int b1 = k & 1;
        int owner = rank_;
        owner = (b0 != 0) ? (owner | bit0) : (owner & ~bit0);
        owner = (b1 != 0) ? (owner | bit1) : (owner & ~bit1);
        if (owner == rank_) {
          v[k] = Complex{real_[j], imag_[j]};
        } else {
          for (int t = 0; t < 3; ++t) {
            if (partners[t] == owner) {
              v[k] = Complex{bufs[t][static_cast<std::size_t>(j)],
                             bufs[t][static_cast<std::size_t>(per_ + j)]};
              break;
            }
          }
        }
      }
      Complex acc = 0;
      for (int c = 0; c < 4; ++c) {
        acc += m[static_cast<std::size_t>(k_mine * 4 + c)] * v[c];
      }
      real_[j] = acc.real();
      imag_[j] = acc.imag();
    }
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
    const IdxType shots = sim_->mctx_.n_shots;
    // All ranks draw the same uniforms (lockstep with the other backends).
    std::vector<std::pair<ValType, IdxType>> draws;
    draws.reserve(static_cast<std::size_t>(shots));
    for (IdxType s = 0; s < shots; ++s) {
      draws.emplace_back(rng_->next_double(), s);
    }
    if (rank_ != 0) {
      std::vector<ValType> out(static_cast<std::size_t>(2 * per_));
      std::memcpy(out.data(), real_,
                  static_cast<std::size_t>(per_) * sizeof(ValType));
      std::memcpy(out.data() + per_, imag_,
                  static_cast<std::size_t>(per_) * sizeof(ValType));
      send(0, std::move(out));
      return;
    }
    // Virtual readout permutation (ir/remap): when the circuit was
    // remapped, sweep in LOGICAL order — the amplitude of logical basis
    // state k lives at its physical home — and report logical
    // bitstrings, matching the unremapped run draw-for-draw.
    const IdxType* row = nullptr;
    if (!sim_->ma_layouts_.empty() && g.cbit >= 0) {
      row = sim_->ma_layouts_.data() + g.cbit * sim_->n_;
      bool identity = true;
      for (IdxType b = 0; b < sim_->n_; ++b) {
        if (row[b] != b) { identity = false; break; }
      }
      if (identity) row = nullptr;
    }
    std::optional<BitPermutation> perm;
    if (row != nullptr) perm.emplace(row, sim_->n_);
    // Rank 0 gathers the full distribution and samples.
    std::vector<std::vector<ValType>> parts(static_cast<std::size_t>(n));
    for (int r = 1; r < n; ++r) parts[static_cast<std::size_t>(r)] = recv(r);
    std::sort(draws.begin(), draws.end());
    ValType cum = 0;
    IdxType k = 0;
    std::size_t d = 0;
    while (d < draws.size() && k < sim_->dim_) {
      const IdxType phys = perm ? (*perm)(k) : k;
      const int owner = static_cast<int>(phys >> lg_);
      const IdxType off = phys & (per_ - 1);
      ValType re, im;
      if (owner == 0) {
        re = real_[off];
        im = imag_[off];
      } else {
        re = parts[static_cast<std::size_t>(owner)][static_cast<std::size_t>(off)];
        im = parts[static_cast<std::size_t>(owner)][static_cast<std::size_t>(per_ + off)];
      }
      cum += re * re + im * im;
      while (d < draws.size() && draws[d].first < cum) {
        sim_->results_[static_cast<std::size_t>(draws[d].second)] = k;
        ++d;
      }
      ++k;
    }
    for (; d < draws.size(); ++d) {
      sim_->results_[static_cast<std::size_t>(draws[d].second)] = sim_->dim_ - 1;
    }
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
