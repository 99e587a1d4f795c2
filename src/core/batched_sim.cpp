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
/// `ug.g` carries the gate's shape (op, operands); its angles live in the
/// coefficient rows.
struct BDev {
  kernels::BatchedKernelFn fn = nullptr;
  UGate ug;
  IdxType work = 0;
  bool skip = false; // absorbed into an earlier combined slot
};

IdxType ceil_log2(IdxType v) {
  IdxType lg = 0;
  while (pow2(lg) < v) ++lg;
  return lg;
}

/// One action of a blocked window: block-local gates run their kernel
/// slot on the block's work-item range; high diagonal gates apply
/// per-member phase rows by amplitude index (no diag-run collapsing here
/// — the batch dimension already amortizes the table reads the solo
/// collapse exists to save).
struct BAction {
  bool diag = false;
  IdxType gi = 0; // the kernel slot, or the diagonal's gate
  IdxType work_per_block = 0;
  BDiagGate d;
  std::vector<ValType> rows; // 8 rows × batch backing d.rows
};

/// A blocked window's action list.
using BWindow = std::vector<BAction>;

/// A slot of the combining rewrite: a same-qubit run of dense 1q gates
/// collapsed into one 2x2 product (`q_gis` empty), or two such units on
/// qubits p < q fused into one quad pass.
struct Combined {
  IdxType head = 0;            // the dev slot that runs it
  std::vector<IdxType> p_gis;  // program-order gates on qubit p (or the run)
  std::vector<IdxType> q_gis;  // program-order gates on qubit q
  std::size_t row = 0;         // first of its 8 (run) or 16 (pair) rows
};

/// Write a Mat2 into eight dense coefficient rows at member column b (the
/// layout BodyDense / bk_pair1q read). Inline on purpose: GCC 12 copies a
/// Mat2 through a zmm register and emitted the out-of-line call without a
/// vzeroupper, so the refill's next matrix_1q ran libm's SSE code with a
/// dirty upper state — a 6x slower refill on AVX-512 hosts.
inline void write_mat2_rows(const Mat2& m, ValType* base, IdxType stride,
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

/// The structure key: everything but the angles.
bool same_shape(const Gate& a, const Gate& b) {
  return a.op == b.op && a.qb0 == b.qb0 && a.qb1 == b.qb1 &&
         a.qb2 == b.qb2 && a.qb3 == b.qb3 && a.qb4 == b.qb4 &&
         a.cbit == b.cbit;
}

/// Field-for-field gate equality: a uniform run whose angles all match
/// the last fill keeps its coefficients.
bool same_gate(const Gate& a, const Gate& b) {
  return same_shape(a, b) && a.theta == b.theta && a.phi == b.phi &&
         a.lam == b.lam;
}

} // namespace

/// The compiled form of one circuit, in two parts. The structure —
/// kernel slots, work counts, the window schedule and its action lists,
/// the combining groups and pairings — is a function of ops, operands and
/// cbits only, so it is cached across runs of any circuit with the same
/// shape: uniform runs and member sweeps alike. The coefficients — the
/// uploaded rows, the combined slots' 2x2 products and the
/// pair1q/pair1q_real choice that depends on them, the high diagonals'
/// phase rows — are refilled from the angles on every run, except a
/// uniform run whose gates equal the last fill's (the chunked shot
/// campaign keeps them whole). Nothing here depends on the seed or the
/// amplitudes, and a cold compile is the structure build followed by the
/// same refill, so a cached plan runs bit-for-bit what a fresh engine
/// compiles.
struct BatchedSim::Plan {
  // --- structure ---
  std::vector<BDev> dev;
  /// (gate, first row in `coef`) of every gate that runs on its own rows.
  std::vector<std::pair<IdxType, std::size_t>> uploads;
  std::vector<Combined> combined;
  Schedule sched;
  std::vector<BWindow> blocked; // per window; empty unless blocked
  bool sched_active = false;
  IdxType b_eff = 0;
  /// What the blocked windows save, as the batched model prices them.
  double traffic_avoided = 0;
  bool valid = false;
  // --- coefficients ---
  obs::TrackedBuffer<ValType> coef;  // per-gate coefficient rows
  obs::TrackedBuffer<ValType> mcoef; // combined-slot coefficient rows
  std::vector<Gate> key;             // gates of the last refill
  bool key_uniform = false;          // ...replicated across the batch

  void build(const Circuit& circuit, IdxType n, IdxType batch,
             IdxType block_exp, const BatchedTable& table);
  std::vector<obs::SlotCost> slot_costs(const std::vector<Gate>& gates,
                                        IdxType n) const;
  void refill(const Circuit& circuit, const std::vector<Circuit>* members,
              IdxType batch, const BatchedTable& table);
};

void BatchedSim::Plan::build(const Circuit& circuit, IdxType n,
                             IdxType batch, IdxType block_exp,
                             const BatchedTable& table) {
  const auto& gates = circuit.gates();
  dev.assign(gates.size(), BDev{});
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    BDev& d = dev[i];
    d.fn = table.fns[static_cast<std::size_t>(g.op)];
    SVSIM_CHECK(d.fn != nullptr, "op has no batched kernel");
    d.ug.g = g;
    d.ug.stride = batch;
    d.work = gate_work_items(g, n);
  }

  // Scheduler composition: shrink the solo block exponent by ceil(log2 B)
  // so a block's B-member slab keeps the cache footprint the exponent was
  // sized for; below 2^2 amplitudes per block, blocking stops paying.
  if (block_exp >= 2) {
    const IdxType lg_b = ceil_log2(batch);
    b_eff = block_exp > lg_b ? block_exp - lg_b : 0;
    if (b_eff > n) b_eff = n;
    if (b_eff >= 2) {
      sched = build_schedule(circuit, b_eff, 0);
      sched_active = sched.has_blocked();
    } else {
      b_eff = 0;
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
  std::size_t merge_rows = 0;
  if (n >= 2) {
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
      // The one-operand kernel ops combine. Their work items are pairs, so
      // one streams touched/2 of the slab: the phase gates half, the rest
      // all of it.
      const kernels::Footprint& f = kernels::footprint(g.op);
      const double weight = f.touched / 2.0;
      const bool eligible =
          f.qubits == 1 && (in_blocked[gi] == 0 || g.qb0 < b_eff);
      if (eligible && !groups.empty()) {
        MGroup& last = groups.back();
        if (last.dense && last.qubit == g.qb0 &&
            region[static_cast<std::size_t>(last.gis.back())] == region[gi]) {
          last.gis.push_back(static_cast<IdxType>(gi));
          last.weight += weight;
          continue;
        }
      }
      MGroup m;
      m.gis.push_back(static_cast<IdxType>(gi));
      m.dense = eligible;
      m.qubit = g.qb0;
      m.weight = weight;
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
    const auto absorb = [&](const MGroup& m, IdxType keep) {
      for (const IdxType gi : m.gis) {
        if (gi == keep) continue;
        BDev& d = dev[static_cast<std::size_t>(gi)];
        d.fn = table.fns[static_cast<int>(OP::ID)];
        d.work = 0;
        d.skip = true;
      }
    };
    for (const MGroup& m : groups) {
      const bool pair = m.pair_with >= 0;
      const bool run = m.gis.size() > 1 && m.weight > 1.0;
      if (m.absorbed || !m.dense || !(pair || run)) continue;
      Combined c;
      c.head = m.gis.front();
      c.row = merge_rows;
      BDev& d = dev[static_cast<std::size_t>(c.head)];
      d.ug.g = Gate{};
      d.ug.g.op = OP::U3; // dense marker: never diagonal-pathed
      if (pair) {
        const MGroup& o = groups[static_cast<std::size_t>(m.pair_with)];
        const bool m_low = m.qubit < o.qubit;
        c.p_gis = m_low ? m.gis : o.gis;
        c.q_gis = m_low ? o.gis : m.gis;
        // fn is pair1q or pair1q_real, chosen by the refill; either
        // rewrites each quadruple whole.
        d.ug.g.qb0 = std::min(m.qubit, o.qubit);
        d.ug.g.qb1 = std::max(m.qubit, o.qubit);
        absorb(m, c.head);
        absorb(o, IdxType{-1});
        merge_rows += 16;
      } else {
        c.p_gis = m.gis;
        d.fn = table.fns[static_cast<int>(OP::U3)];
        d.ug.g.qb0 = m.qubit;
        d.ug.g.qb1 = -1;
        absorb(m, c.head);
        merge_rows += 8;
      }
      d.work = gate_work_items(d.ug.g, n);
      combined.push_back(std::move(c));
    }
  }

  // Upload layout: one coefficient slab for the gates that still run on
  // their own rows, rows of `batch` member columns each; the combined
  // slots' rows in a second slab.
  std::vector<char> own_rows(gates.size(), 1);
  for (const Combined& c : combined) {
    own_rows[static_cast<std::size_t>(c.head)] = 0;
  }
  std::size_t total_rows = 0;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const int rows = kernels::coef_rows(gates[i].op);
    if (rows == 0 || dev[i].skip || own_rows[i] == 0) continue;
    uploads.emplace_back(static_cast<IdxType>(i), total_rows);
    total_rows += static_cast<std::size_t>(rows);
  }
  coef = obs::TrackedBuffer<ValType>(
      total_rows * static_cast<std::size_t>(batch), obs::MemTag::kCoef);
  mcoef = obs::TrackedBuffer<ValType>(
      merge_rows * static_cast<std::size_t>(batch), obs::MemTag::kCoef);
  for (const auto& [gi, row] : uploads) {
    dev[static_cast<std::size_t>(gi)].ug.coef =
        coef.data() + row * static_cast<std::size_t>(batch);
  }
  for (const Combined& c : combined) {
    dev[static_cast<std::size_t>(c.head)].ug.coef =
        mcoef.data() + c.row * static_cast<std::size_t>(batch);
  }

  // Blocked windows' action lists; the high diagonals' phase rows are
  // sized here and filled by the refill.
  if (sched_active) {
    blocked.resize(sched.windows.size());
    for (std::size_t wi = 0; wi < sched.windows.size(); ++wi) {
      const Window& w = sched.windows[wi];
      if (!w.blocked) continue;
      BWindow& bw = blocked[wi];
      bw.reserve(static_cast<std::size_t>(w.n_gates));
      for (IdxType j = 0; j < w.n_gates; ++j) {
        const IdxType gi = w.first_gate + j;
        const BDev& d = dev[static_cast<std::size_t>(gi)];
        // dev's gate, not the circuit's: a combined slot carries its
        // synthetic dense shape there, and absorbed slots drop out.
        if (d.skip) continue;
        const Gate& g = d.ug.g;
        BAction a;
        a.gi = gi;
        if (is_diagonal_gate(g.op) &&
            (g.qb0 >= b_eff || (g.qb1 >= 0 && g.qb1 >= b_eff))) {
          a.diag = true;
          a.rows.assign(static_cast<std::size_t>(8 * batch), 0);
          a.d.qa = g.qb0;
          a.d.qb = g.qb1;
          a.d.stride = batch;
        } else {
          a.work_per_block = gate_work_items(g, b_eff);
        }
        bw.push_back(std::move(a));
      }
    }
    const obs::RunModel m = obs::model_run_batched(
        circuit, &sched, batch, slot_costs(gates, n));
    traffic_avoided = m.bytes - m.bytes_sched;
  }
  valid = true;
}

/// What each gate slot runs per member, as the run model prices it
/// (obs::model_run_batched): an absorbed gate nothing, a combined run one
/// dense 2x2 pass with its 8 rows, a combined pair one sweep of its
/// quadruples applying both dense bodies to each (two dense pairs per
/// body, each quadruple rewritten once) with 16 rows, any other gate its
/// own kernel and rows.
std::vector<obs::SlotCost> BatchedSim::Plan::slot_costs(
    const std::vector<Gate>& gates, IdxType n) const {
  std::vector<obs::SlotCost> out(gates.size());
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (dev[i].skip) continue;
    out[i] = {obs::gate_cost(gates[i], n), kernels::coef_rows(gates[i].op)};
  }
  const kernels::Footprint& dense = kernels::footprint(OP::U3);
  for (const Combined& c : combined) {
    const BDev& d = dev[static_cast<std::size_t>(c.head)];
    obs::SlotCost& s = out[static_cast<std::size_t>(c.head)];
    if (c.q_gis.empty()) {
      s = {obs::gate_cost(d.ug.g, n), dense.rows};
      continue;
    }
    const auto quads = static_cast<double>(d.work);
    const double amps = quads * 2 * dense.touched;
    s.cost = {amps, amps * static_cast<double>(obs::kBytesPerAmp),
              quads * 4 * dense.flops};
    s.rows = 2 * dense.rows;
  }
  return out;
}

void BatchedSim::Plan::refill(const Circuit& circuit,
                              const std::vector<Circuit>* members,
                              IdxType batch, const BatchedTable& table) {
  const auto member = [&](IdxType b) -> const Circuit& {
    return members != nullptr ? (*members)[static_cast<std::size_t>(b)]
                              : circuit;
  };
  const auto member_gate = [&](IdxType gi, IdxType b) -> const Gate& {
    return member(b).gates()[static_cast<std::size_t>(gi)];
  };
  const auto stride = static_cast<std::size_t>(batch);
  for (const auto& [gi, row] : uploads) {
    for (IdxType b = 0; b < batch; ++b) {
      kernels::fill_coef(member_gate(gi, b), member(b).dense_table(),
                         coef.data() + row * stride, batch, b);
    }
  }
  // Program order g1;g2 composes as m(g2)·m(g1).
  const auto group_mat = [&](const std::vector<IdxType>& gis, IdxType b) {
    Mat2 u = matrix_1q(member_gate(gis.front(), b));
    for (std::size_t t = 1; t < gis.size(); ++t) {
      u = matmul(matrix_1q(member_gate(gis[t], b)), u);
    }
    return u;
  };
  for (const Combined& c : combined) {
    ValType* base = mcoef.data() + c.row * stride;
    if (c.q_gis.empty()) {
      for (IdxType b = 0; b < batch; ++b) {
        write_mat2_rows(group_mat(c.p_gis, b), base, batch, b);
      }
      continue;
    }
    bool all_real = true;
    for (IdxType b = 0; b < batch; ++b) {
      const Mat2 mp = group_mat(c.p_gis, b);
      const Mat2 mq = group_mat(c.q_gis, b);
      write_mat2_rows(mp, base, batch, b);
      write_mat2_rows(mq, base + 8 * batch, batch, b);
      for (const Mat2* u : {&mp, &mq}) {
        for (const Complex& z : *u) all_real &= z.imag() == 0.0;
      }
    }
    // RX-free rotation layers (RY/H/X/...) give purely real matrices; the
    // real kernel does half the arithmetic, turning the halved traffic
    // into actual wall-clock.
    dev[static_cast<std::size_t>(c.head)].fn =
        all_real ? table.pair1q_real : table.pair1q;
  }
  for (BWindow& bw : blocked) {
    for (BAction& a : bw) {
      if (!a.diag) continue;
      a.d.rows = a.rows.data();
      std::fill(std::begin(a.d.identity), std::end(a.d.identity), true);
      for (IdxType b = 0; b < batch; ++b) {
        kernels::bdiag_fill(kernels::diag_term(member_gate(a.gi, b)),
                            a.rows.data(), batch, b, a.d.identity);
      }
    }
  }
  key = circuit.gates();
  key_uniform = members == nullptr;
}

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

IdxType BatchedSim::lane_width() const {
  return kernels::batched_kernel_table(sw_.simd).lane_width;
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

  const BatchedTable& table = kernels::batched_kernel_table(sw_.simd);
  const auto& gates = circuit.gates();
  // A register wider than the qubit count widens the cbit-major
  // [cbit*batch + b] array at its end, zero-filled; it never shrinks.
  const auto n_cbits = static_cast<std::size_t>(circuit.n_cbits() * batch_);
  if (n_cbits > cbits_.size()) cbits_.resize(n_cbits, 0);

  // Structure hit: same ops, operands and cbits as the cached plan, for a
  // uniform run and a member sweep alike. Coefficient hit: a uniform run
  // with exactly the gates of the last fill (the chunked shot campaign,
  // reseed(); run(circ) per chunk) keeps its rows and skips the refill.
  if (plan_ == nullptr) plan_ = std::make_unique<Plan>();
  Plan& plan = *plan_;
  const bool shape_hit =
      plan.valid && plan.key.size() == gates.size() &&
      std::equal(gates.begin(), gates.end(), plan.key.begin(), same_shape);
  if (!shape_hit) {
    static obs::Counter& builds =
        obs::Registry::global().counter("batched.plan_builds");
    builds.add();
    plan = Plan{};
    plan.build(circuit, n_, batch_, sw_.block_exp, table);
  }
  // A DENSE2's rows come from its circuit's dense table, which the key
  // does not hold: such a circuit always refills.
  const bool coef_hit =
      shape_hit && members == nullptr && plan.key_uniform &&
      circuit.dense_table().empty() &&
      std::equal(gates.begin(), gates.end(), plan.key.begin(), same_gate);
  if (!coef_hit) plan.refill(circuit, members, batch_, table);

  const std::vector<BDev>& dev = plan.dev;
  const Schedule& sched = plan.sched;
  const bool sched_active = plan.sched_active;
  const IdxType b_eff = plan.b_eff;
  if (b_eff >= 2) {
    fold_sched_stats(report_, sched.stats, sched_active, plan.traffic_avoided);
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

  const std::vector<obs::SlotCost> slots =
      sw_.roofline || progress != nullptr ? plan.slot_costs(gates, n_)
                                          : std::vector<obs::SlotCost>{};
  LoopBracket bracket(report_, sw_.roofline, progress, circuit,
                      sched_active ? &sched : nullptr, batch_, &slots);
  obs::ProgressSlot* slot = progress != nullptr ? progress->slot(0) : nullptr;
  bracket.start();
  {
    const std::vector<Window> fallback = {
        Window{0, circuit.n_gates(), false}};
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
            slot->publish_gate(static_cast<std::uint64_t>(gi + 1));
          }
        }
        continue;
      }
      // Blocked window: blocks-outer, gates-inner. Block-local gates run
      // their kernel on the block's slice of work items; high diagonals
      // go through per-member phase tables.
      const BWindow& bw = plan.blocked[static_cast<std::size_t>(win_idx - 1)];
      const IdxType n_blocks = pow2(n_ - b_eff);
      const IdxType blk_len = pow2(b_eff);
      for (IdxType blk = 0; blk < n_blocks; ++blk) {
        const IdxType base = blk * blk_len;
        for (const BAction& a : bw) {
          if (a.diag) {
            table.diag(a.d, sp, base, blk_len);
          } else {
            const BDev& d = dev[static_cast<std::size_t>(a.gi)];
            d.fn(d.ug, sp, blk * a.work_per_block,
                 (blk + 1) * a.work_per_block);
          }
        }
        if (slot != nullptr) {
          // Interpolate gates_done through the window so the ETA doesn't
          // stall across a long window; the last block lands exactly on
          // the window's last gate.
          slot->publish_gate(static_cast<std::uint64_t>(w.first_gate) +
                             static_cast<std::uint64_t>(w.n_gates) *
                                 static_cast<std::uint64_t>(blk + 1) /
                                 static_cast<std::uint64_t>(n_blocks));
        }
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
  const IdxType width = static_cast<IdxType>(cbits_.size()) / batch_;
  std::vector<IdxType> out(static_cast<std::size_t>(width), 0);
  for (IdxType c = 0; c < width; ++c) {
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
