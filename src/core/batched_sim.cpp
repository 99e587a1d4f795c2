#include "core/batched_sim.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "core/kernels/batched.hpp"
#include "core/pipeline.hpp"
#include "ir/matrices.hpp"
#include "ir/schedule.hpp"
#include "obs/capacity.hpp"
#include "obs/registry.hpp"

namespace svsim {

namespace {

using kernels::BatchedSpace;
using kernels::BatchedTable;
using kernels::BDiagGate;
using kernels::UGate;

/// One uploaded batched gate: preloaded kernel slot + coefficient rows.
struct BDev {
  kernels::BatchedKernelFn fn = nullptr;
  UGate ug;
  IdxType work = 0;
  IdxType amps_per_item = 0; // per member, for progress accounting
  bool skip = false;         // absorbed into an earlier combined slot
};

IdxType ceil_log2(IdxType v) {
  IdxType lg = 0;
  while (pow2(lg) < v) ++lg;
  return lg;
}

/// A blocked window's action list: block-local gates run their kernel on
/// the block's work-item range; high diagonal gates apply per-member
/// phase rows by amplitude index (no diag-run collapsing here — the
/// batch dimension already amortizes the table reads the solo collapse
/// exists to save).
struct BAction {
  bool diag = false;
  const BDev* dg = nullptr;
  IdxType work_per_block = 0;
  BDiagGate d;
  std::vector<ValType> rows; // 8 rows × batch backing d.rows
};

/// Write a Mat2 into eight dense coefficient rows at member column b (the
/// layout BodyDense / bk_pair1q read).
void write_mat2_rows(const Mat2& m, ValType* base, IdxType stride,
                     IdxType b) {
  base[0 * stride + b] = m[0].real();
  base[1 * stride + b] = m[0].imag();
  base[2 * stride + b] = m[1].real();
  base[3 * stride + b] = m[1].imag();
  base[4 * stride + b] = m[2].real();
  base[5 * stride + b] = m[2].imag();
  base[6 * stride + b] = m[3].real();
  base[7 * stride + b] = m[3].imag();
}

/// Field-for-field gate equality — the plan-cache key. Angles compare
/// exactly: a changed angle must invalidate the uploaded coefficients.
bool same_gate(const Gate& a, const Gate& b) {
  return a.op == b.op && a.qb0 == b.qb0 && a.qb1 == b.qb1 &&
         a.qb2 == b.qb2 && a.qb3 == b.qb3 && a.qb4 == b.qb4 &&
         a.theta == b.theta && a.phi == b.phi && a.lam == b.lam &&
         a.cbit == b.cbit;
}

} // namespace

/// The compiled form of one circuit: uploaded coefficient rows, the gate
/// dispatch table, the window schedule and the combining rewrite. Nothing
/// here depends on the seed or the amplitudes, so uniform run() calls
/// with an unchanged circuit (the chunked shot campaign) reuse it whole.
struct BatchedSim::Plan {
  std::vector<Gate> key;         // gates the plan was compiled from
  obs::TrackedBuffer<ValType> coef;  // per-gate coefficient rows
  obs::TrackedBuffer<ValType> mcoef; // combined-slot coefficient rows
  std::vector<BDev> dev;
  Schedule sched;
  bool sched_active = false;
  IdxType b_eff = 0;
  bool valid = false;
};

BatchedSim::~BatchedSim() = default;

BatchedSim::BatchedSim(IdxType n_qubits, IdxType batch, SimConfig cfg)
    : n_(n_qubits),
      sw_(resolve(cfg)),
      dim_(obs::admit_dim("batched", n_qubits, 1, batch, sw_.mem_limit)),
      batch_(batch),
      cfg_(cfg),
      real_(static_cast<std::size_t>(dim_ * batch), obs::MemTag::kBatch),
      imag_(static_cast<std::size_t>(dim_ * batch), obs::MemTag::kBatch),
      cbits_(static_cast<std::size_t>(n_qubits * batch), 0) {
  SVSIM_CHECK(batch >= 1, "batch must be >= 1");
  rngs_.reserve(static_cast<std::size_t>(batch_));
  for (IdxType b = 0; b < batch_; ++b) {
    rngs_.emplace_back(static_cast<std::uint64_t>(cfg_.seed + b));
  }
  for (IdxType b = 0; b < batch_; ++b) {
    real_[static_cast<std::size_t>(b)] = 1.0; // member b's |0...0>
  }
}

SimdLevel BatchedSim::simd_level() const {
  return kernels::batched_effective_level(cfg_.simd);
}

IdxType BatchedSim::lane_width() const {
  return kernels::batched_kernel_table(cfg_.simd).lane_width;
}

void BatchedSim::reset_state() {
  real_.zero();
  imag_.zero();
  for (IdxType b = 0; b < batch_; ++b) {
    real_[static_cast<std::size_t>(b)] = 1.0;
  }
  std::fill(cbits_.begin(), cbits_.end(), 0);
  for (IdxType b = 0; b < batch_; ++b) {
    rngs_[static_cast<std::size_t>(b)].reseed(
        static_cast<std::uint64_t>(cfg_.seed + b));
  }
}

void BatchedSim::run(const Circuit& circuit) { execute(circuit, nullptr); }

void BatchedSim::run(const std::vector<Circuit>& members) {
  SVSIM_CHECK(members.size() == static_cast<std::size_t>(batch_),
              "member circuit count != batch size");
  const Circuit& skel = members.front();
  for (const Circuit& c : members) {
    SVSIM_CHECK(c.n_qubits() == skel.n_qubits() &&
                    c.n_gates() == skel.n_gates(),
                "member circuits must be congruent (same skeleton)");
    for (IdxType i = 0; i < skel.n_gates(); ++i) {
      const Gate& a = skel.gates()[static_cast<std::size_t>(i)];
      const Gate& b = c.gates()[static_cast<std::size_t>(i)];
      SVSIM_CHECK(a.op == b.op && a.qb0 == b.qb0 && a.qb1 == b.qb1 &&
                      a.cbit == b.cbit,
                  "member circuits must be congruent (ops/operands/cbits)");
    }
  }
  execute(skel, &members);
}

void BatchedSim::execute(const Circuit& circuit,
                         const std::vector<Circuit>* members) {
  SVSIM_CHECK(circuit.n_qubits() == n_, "circuit width != simulator width");
  static obs::Counter& runs = obs::Registry::global().counter("runs.batched");
  runs.add();
  start_report(report_, name(), n_, 1, circuit, batch_);
  obs::ProgressBoard* const progress =
      obs::maybe_start_httpd(sw_.http_port, sw_.progress);

  const BatchedTable& table = kernels::batched_kernel_table(cfg_.simd);
  const auto& gates = circuit.gates();

  // Plan reuse: a uniform run() with the same circuit as last time (the
  // chunked shot campaign — reseed(); run(circ) per chunk) replays the
  // cached plan and skips straight to execution. Member sweeps rebuild
  // into a throwaway plan every time: their angles change per chunk.
  const bool reusable = members == nullptr;
  if (plan_ == nullptr) plan_ = std::make_unique<Plan>();
  Plan scratch;
  Plan& plan = reusable ? *plan_ : scratch;
  const bool plan_hit =
      reusable && plan.valid && plan.key.size() == gates.size() &&
      std::equal(gates.begin(), gates.end(), plan.key.begin(), same_gate);
  if (!plan_hit) {
  plan = Plan{};
  obs::TrackedBuffer<ValType>& coef = plan.coef;
  obs::TrackedBuffer<ValType>& mcoef = plan.mcoef;
  std::vector<BDev>& dev = plan.dev;
  Schedule& sched = plan.sched;
  bool& sched_active = plan.sched_active;
  IdxType& b_eff = plan.b_eff;

  // Upload: one coefficient slab for the whole circuit, rows of batch_
  // members each; per-member angle columns when a sweep was given.
  std::size_t total_rows = 0;
  for (const Gate& g : gates) {
    total_rows += static_cast<std::size_t>(kernels::coef_rows(g.op));
  }
  coef = obs::TrackedBuffer<ValType>(
      total_rows * static_cast<std::size_t>(batch_), obs::MemTag::kCoef);
  dev.assign(gates.size(), BDev{});
  std::size_t row = 0;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    BDev& d = dev[i];
    d.fn = table.fns[static_cast<std::size_t>(g.op)];
    SVSIM_CHECK(d.fn != nullptr, "op has no batched kernel");
    d.ug.g = g;
    d.work = gate_work_items(g, n_);
    d.amps_per_item = static_cast<IdxType>(detail::amps_per_work_item(g));
    const int rows = kernels::coef_rows(g.op);
    if (rows > 0) {
      ValType* base = coef.data() + row * static_cast<std::size_t>(batch_);
      d.ug.coef = base;
      d.ug.stride = batch_;
      for (IdxType b = 0; b < batch_; ++b) {
        const Gate& gb =
            members != nullptr
                ? (*members)[static_cast<std::size_t>(b)].gates()[i]
                : g;
        kernels::fill_coef(gb, base, batch_, b);
      }
      row += static_cast<std::size_t>(rows);
    }
  }

  // Scheduler composition: shrink the solo block exponent by ceil(log2 B)
  // so a block's B-member slab keeps the cache footprint the exponent was
  // sized for; below 2^2 amplitudes per block, blocking stops paying.
  {
    const IdxType rb = sw_.block_exp;
    if (rb >= 2) {
      const IdxType lg_b = ceil_log2(batch_);
      b_eff = rb > lg_b ? rb - lg_b : 0;
      if (b_eff > n_) b_eff = n_;
      if (b_eff >= 2) {
        sched = build_schedule(circuit, b_eff, 0);
        sched_active = sched.has_blocked();
      } else {
        b_eff = 0;
      }
    }
  }
  // --- dense-1q combining ------------------------------------------------
  // The B-wide slab streams from L2 (a solo state at the same n often sits
  // in L1), so batched gate cost is memory passes, not flops. Two rewrites
  // cut passes without touching semantics: runs of adjacent dense 1q gates
  // on the SAME qubit collapse into one uploaded 2x2 product, and adjacent
  // dense-1q units on DIFFERENT qubits fuse into one bk_pair1q quad pass
  // (both gates applied in registers, one read+write of the slab).
  // Grouping looks only at (op, qubit) — never at angles — so every member
  // sees the same shape and batch congruence holds; non-unitary ops,
  // barriers and window boundaries break runs, and inside blocked windows
  // only block-local gates participate (high diagonals keep their
  // phase-table path).
  if (n_ >= 2) {
    struct MGroup {
      std::vector<IdxType> gis; // program-order gate indices
      IdxType qubit = -1;
      double weight = 0; // est. full-slab passes if executed as-is
      bool dense = false;
      int pair_with = -1; // later group fused into this one's quad pass
      bool absorbed = false;
    };
    std::vector<IdxType> region(gates.size(), 0);
    std::vector<char> in_blocked(gates.size(), 0);
    if (sched_active) {
      IdxType rid = 0;
      for (const Window& w : sched.windows) {
        for (IdxType j = 0; j < w.n_gates; ++j) {
          const auto at = static_cast<std::size_t>(w.first_gate + j);
          region[at] = rid;
          in_blocked[at] = w.blocked ? 1 : 0;
        }
        ++rid;
      }
    }
    std::vector<MGroup> groups;
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
      const Gate& g = gates[gi];
      const bool eligible = kernels::batched_dense_1q(g.op) &&
                            (in_blocked[gi] == 0 || g.qb0 < b_eff);
      if (eligible && !groups.empty()) {
        MGroup& last = groups.back();
        if (last.dense && last.qubit == g.qb0 &&
            region[static_cast<std::size_t>(last.gis.back())] == region[gi]) {
          last.gis.push_back(static_cast<IdxType>(gi));
          last.weight += kernels::batched_pass_weight(g.op);
          continue;
        }
      }
      MGroup m;
      m.gis.push_back(static_cast<IdxType>(gi));
      m.dense = eligible;
      m.qubit = g.qb0;
      m.weight = kernels::batched_pass_weight(g.op);
      groups.push_back(std::move(m));
    }
    // A run merges to one pass on its own (when worth it), so its cost in
    // the pairing decision is capped at 1.
    const auto standalone = [](const MGroup& m) {
      return std::min(m.weight, 1.0);
    };
    for (std::size_t i = 0; i + 1 < groups.size(); ++i) {
      MGroup& a = groups[i];
      MGroup& b = groups[i + 1];
      if (a.dense && b.dense && a.qubit != b.qubit &&
          region[static_cast<std::size_t>(a.gis.back())] ==
              region[static_cast<std::size_t>(b.gis.front())] &&
          standalone(a) + standalone(b) > 1.0) {
        a.pair_with = static_cast<int>(i + 1);
        b.absorbed = true;
        ++i;
      }
    }
    std::size_t merge_rows = 0;
    for (const MGroup& m : groups) {
      if (m.absorbed || !m.dense) continue;
      if (m.pair_with >= 0) {
        merge_rows += 16;
      } else if (m.gis.size() > 1 && m.weight > 1.0) {
        merge_rows += 8;
      }
    }
    if (merge_rows > 0) {
      mcoef = obs::TrackedBuffer<ValType>(
          merge_rows * static_cast<std::size_t>(batch_), obs::MemTag::kCoef);
      const auto member_gate = [&](IdxType gi, IdxType b) -> const Gate& {
        return members != nullptr
                   ? (*members)[static_cast<std::size_t>(b)]
                         .gates()[static_cast<std::size_t>(gi)]
                   : gates[static_cast<std::size_t>(gi)];
      };
      // Program order g1;g2 composes as m(g2)·m(g1).
      const auto group_mat = [&](const MGroup& m, IdxType b) {
        Mat2 u = matrix_1q(member_gate(m.gis.front(), b));
        for (std::size_t t = 1; t < m.gis.size(); ++t) {
          u = matmul(matrix_1q(member_gate(m.gis[t], b)), u);
        }
        return u;
      };
      const auto absorb = [&](const MGroup& m, IdxType keep) {
        for (std::size_t t = 0; t < m.gis.size(); ++t) {
          if (m.gis[t] == keep) continue;
          BDev& d = dev[static_cast<std::size_t>(m.gis[t])];
          d.fn = table.fns[static_cast<int>(OP::ID)];
          d.work = 0;
          d.amps_per_item = 0;
          d.skip = true;
        }
      };
      std::size_t mrow = 0;
      for (MGroup& m : groups) {
        if (m.absorbed || !m.dense) continue;
        ValType* base = mcoef.data() + mrow * static_cast<std::size_t>(batch_);
        if (m.pair_with >= 0) {
          const MGroup& o = groups[static_cast<std::size_t>(m.pair_with)];
          const IdxType p = std::min(m.qubit, o.qubit);
          const IdxType q = std::max(m.qubit, o.qubit);
          bool all_real = true;
          for (IdxType b = 0; b < batch_; ++b) {
            const Mat2 mp = m.qubit == p ? group_mat(m, b) : group_mat(o, b);
            const Mat2 mq = m.qubit == p ? group_mat(o, b) : group_mat(m, b);
            write_mat2_rows(mp, base, batch_, b);
            write_mat2_rows(mq, base + 8 * batch_, batch_, b);
            for (const Mat2* u : {&mp, &mq}) {
              for (const Complex& c : *u) all_real &= c.imag() == 0.0;
            }
          }
          BDev& d = dev[static_cast<std::size_t>(m.gis.front())];
          // RX-free rotation layers (RY/H/X/...) give purely real
          // matrices; the real kernel does half the arithmetic, turning
          // the halved traffic into actual wall-clock.
          d.fn = all_real ? table.pair1q_real : table.pair1q;
          d.ug.g = Gate{};
          d.ug.g.op = OP::U3; // dense marker: never diagonal-pathed
          d.ug.g.qb0 = p;
          d.ug.g.qb1 = q;
          d.ug.coef = base;
          d.ug.stride = batch_;
          d.work = pow2(n_ - 2);
          d.amps_per_item = 4;
          absorb(m, m.gis.front());
          absorb(o, IdxType{-1});
          mrow += 16;
        } else if (m.gis.size() > 1 && m.weight > 1.0) {
          for (IdxType b = 0; b < batch_; ++b) {
            write_mat2_rows(group_mat(m, b), base, batch_, b);
          }
          BDev& d = dev[static_cast<std::size_t>(m.gis.front())];
          d.fn = table.fns[static_cast<int>(OP::U3)];
          d.ug.g = Gate{};
          d.ug.g.op = OP::U3;
          d.ug.g.qb0 = m.qubit;
          d.ug.g.qb1 = -1;
          d.ug.coef = base;
          d.ug.stride = batch_;
          d.work = pow2(n_ - 1);
          d.amps_per_item = 2;
          absorb(m, m.gis.front());
          mrow += 8;
        }
      }
    }
  }
  plan.key.assign(gates.begin(), gates.end());
  plan.valid = reusable;
  } // !plan_hit

  const std::vector<BDev>& dev = plan.dev;
  const Schedule& sched = plan.sched;
  const bool sched_active = plan.sched_active;
  const IdxType b_eff = plan.b_eff;
  if (b_eff >= 2) {
    fold_sched_stats(report_, sched.stats, sched_active, dim_ * batch_);
  }

  BatchedSpace sp;
  sp.real = real_.data();
  sp.imag = imag_.data();
  sp.dim = dim_;
  sp.batch = batch_;
  sp.rngs = rngs_.data();
  sp.cbits = cbits_.data();
  sp.results = ma_shots_ > 0 ? results_.data() : nullptr;
  sp.n_shots = ma_shots_;

  LoopBracket bracket(report_, sw_.roofline, progress, circuit,
                      sched_active ? &sched : nullptr, batch_);
  obs::ProgressSlot* slot = progress != nullptr ? progress->slot(0) : nullptr;
  bracket.start();
  {
    const std::vector<Window> fallback = {
        Window{0, circuit.n_gates(), 0, false, false}};
    const std::vector<Window>& windows =
        sched_active ? sched.windows : fallback;
    std::uint64_t win_idx = 0;
    for (const Window& w : windows) {
      if (slot != nullptr) slot->publish_window(win_idx);
      ++win_idx;
      if (!w.blocked) {
        for (IdxType j = 0; j < w.n_gates; ++j) {
          const IdxType gi = w.first_gate + j;
          const BDev& d = dev[static_cast<std::size_t>(gi)];
          d.fn(d.ug, sp, 0, d.work);
          if (slot != nullptr) {
            slot->publish_gate(
                static_cast<std::uint64_t>(gi + 1),
                static_cast<std::uint64_t>(d.work * d.amps_per_item *
                                           batch_));
          }
        }
        continue;
      }
      // Blocked window: blocks-outer, gates-inner. Block-local gates run
      // their kernel on the block's slice of work items; high diagonals
      // go through per-member phase tables.
      std::vector<BAction> actions;
      actions.reserve(static_cast<std::size_t>(w.n_gates));
      std::uint64_t amps_per_block = 0;
      for (IdxType j = 0; j < w.n_gates; ++j) {
        const IdxType gi = w.first_gate + j;
        // dev's gate, not the circuit's: a combined slot carries its
        // synthetic dense shape there, and absorbed slots drop out.
        if (dev[static_cast<std::size_t>(gi)].skip) continue;
        const Gate& g = dev[static_cast<std::size_t>(gi)].ug.g;
        BAction a;
        const bool high =
            is_diagonal_gate(g.op) &&
            (g.qb0 >= b_eff || (g.qb1 >= 0 && g.qb1 >= b_eff));
        if (high) {
          a.diag = true;
          a.rows.assign(static_cast<std::size_t>(8 * batch_), 0);
          for (IdxType b = 0; b < batch_; ++b) {
            const Gate& gb =
                members != nullptr
                    ? (*members)[static_cast<std::size_t>(b)]
                          .gates()[static_cast<std::size_t>(gi)]
                    : g;
            const kernels::DiagTerm t = kernels::diag_term(gb);
            a.d.qa = t.qa;
            a.d.qb = t.qb;
            kernels::bdiag_fill(t, a.rows.data(), batch_, b, a.d.identity);
          }
          a.d.rows = a.rows.data();
          a.d.stride = batch_;
          amps_per_block += static_cast<std::uint64_t>(pow2(b_eff));
        } else {
          a.dg = &dev[static_cast<std::size_t>(gi)];
          a.work_per_block = pow2(b_eff - (g.qb1 >= 0 ? 2 : 1));
          amps_per_block += static_cast<std::uint64_t>(
              a.work_per_block * a.dg->amps_per_item);
        }
        actions.push_back(std::move(a));
      }
      const IdxType n_blocks = pow2(n_ - b_eff);
      const IdxType blk_len = pow2(b_eff);
      const IdxType last_gate = w.first_gate + w.n_gates;
      for (IdxType blk = 0; blk < n_blocks; ++blk) {
        const IdxType base = blk * blk_len;
        for (const BAction& a : actions) {
          if (a.diag) {
            table.diag(a.d, sp, base, blk_len);
          } else {
            a.dg->fn(a.dg->ug, sp, blk * a.work_per_block,
                     (blk + 1) * a.work_per_block);
          }
        }
        if (slot != nullptr) {
          // Interpolate gates_done through the window so the ETA doesn't
          // stall across a long window.
          const std::uint64_t done =
              static_cast<std::uint64_t>(w.first_gate) +
              static_cast<std::uint64_t>(w.n_gates) *
                  static_cast<std::uint64_t>(blk + 1) /
                  static_cast<std::uint64_t>(n_blocks);
          slot->publish_gate(done, amps_per_block *
                                       static_cast<std::uint64_t>(batch_));
        }
      }
      if (slot != nullptr) {
        slot->publish_gate(static_cast<std::uint64_t>(last_gate), 0);
      }
    }
  }
  bracket.stop();
  bracket.fold_roofline();
  bracket.end();
}

StateVector BatchedSim::state(IdxType member) const {
  SVSIM_CHECK(member >= 0 && member < batch_, "member out of range");
  StateVector sv(n_);
  for (IdxType k = 0; k < dim_; ++k) {
    const std::size_t at = static_cast<std::size_t>(k * batch_ + member);
    sv.amps[static_cast<std::size_t>(k)] = Complex{real_[at], imag_[at]};
  }
  return sv;
}

std::vector<IdxType> BatchedSim::member_cbits(IdxType member) const {
  SVSIM_CHECK(member >= 0 && member < batch_, "member out of range");
  std::vector<IdxType> out(static_cast<std::size_t>(n_), 0);
  for (IdxType c = 0; c < n_; ++c) {
    out[static_cast<std::size_t>(c)] =
        cbits_[static_cast<std::size_t>(c * batch_ + member)];
  }
  return out;
}

std::vector<std::vector<IdxType>> BatchedSim::sample_members(IdxType shots) {
  SVSIM_CHECK(shots >= 0, "shot count must be >= 0");
  results_.assign(static_cast<std::size_t>(batch_ * shots), 0);
  ma_shots_ = shots;
  Circuit c(n_);
  c.measure_all();
  run(c);
  ma_shots_ = 0;
  std::vector<std::vector<IdxType>> out(static_cast<std::size_t>(batch_));
  for (IdxType b = 0; b < batch_; ++b) {
    out[static_cast<std::size_t>(b)].assign(
        results_.begin() + static_cast<std::ptrdiff_t>(b * shots),
        results_.begin() + static_cast<std::ptrdiff_t>((b + 1) * shots));
  }
  return out;
}

std::vector<IdxType> BatchedSim::sample(IdxType shots) {
  SVSIM_CHECK(shots >= 0, "shot count must be >= 0");
  const IdxType per = (shots + batch_ - 1) / batch_;
  const auto members = sample_members(per);
  std::vector<IdxType> out;
  out.reserve(static_cast<std::size_t>(shots));
  for (const auto& m : members) {
    for (const IdxType s : m) {
      if (static_cast<IdxType>(out.size()) == shots) return out;
      out.push_back(s);
    }
  }
  return out;
}

} // namespace svsim
