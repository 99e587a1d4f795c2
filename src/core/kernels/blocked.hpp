// Cache-blocked gate-window execution (the scheduler's runtime half).
//
// A Schedule (ir/schedule.hpp) partitions the circuit into windows whose
// non-diagonal action lives below block exponent b. For such a window
// every aligned 2^b-amplitude block is closed under all of the window's
// gates, so instead of streaming the whole state vector once per gate the
// executor walks the (local partition of the) state vector in
// cache-resident blocks and applies the *entire window* to each block —
// one memory sweep per window. Inside the block loop the same preloaded
// function pointers fire (so specialized/SIMD kernels, per-gate obs::Span
// profiling and the Spaces' traffic counting all keep working); the index
// maps of Eq. (1)/(2) make the sub-range trivial: with all active qubits
// < b, work items [blk·2^(b-1), (blk+1)·2^(b-1)) (pairs; 2^(b-2) for
// quadruples) address exactly amplitudes [blk·2^b, (blk+1)·2^b).
//
// Diagonal fast path: runs of adjacent diagonal gates inside a window
// collapse into one phase application per block — diagonal matrices
// commute, so the run's per-amplitude phase is the (precomputed) product
// of the gates' phases, applied in a single read-modify-write sweep. When
// every qubit of the run is < b the 2^b phases are tabulated once per
// window and reused for every block.
//
// Distributed tiers: blocks never straddle a partition (the backend
// clamps b <= lg_part), so within a window no worker touches remote
// amplitudes and the per-gate global sync collapses to ONE sync per
// window — the blocked path saves barriers as well as memory traffic.
// Every block action then runs on the raw partition: gates through the
// range kernel's partition-local path at the run's lane level
// (dispatch.hpp), diagonal runs through diag_block (scalar), each
// counting its traffic once.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/dispatch.hpp"
#include "core/space.hpp"
#include "ir/schedule.hpp"
#include "obs/memtrack.hpp"
#include "obs/report.hpp"

namespace svsim {

namespace kernels {

/// One diagonal factor: the gate's per-amplitude phase indexed by the
/// operand bit pattern k = bit(qa) | bit(qb) << 1 (qb == -1: 1-qubit
/// term, only k = 0/1 used).
struct DiagTerm {
  IdxType qa = -1;
  IdxType qb = -1;
  ValType pr[4] = {1, 1, 1, 1};
  ValType pi[4] = {0, 0, 0, 0};
};

/// Diagonal phases of `g`, read off the gate's own kernel: it runs on a
/// one- or two-qubit register of unit amplitudes with its operands
/// renumbered to qubits 0 and 1, so amplitude k returns as the phase of
/// operand pattern k. Requires is_diagonal_gate(g.op).
inline DiagTerm diag_term(const Gate& g) {
  SVSIM_CHECK(is_diagonal_gate(g.op), "diag_term: op has no diagonal action");
  DiagTerm t;
  t.qa = g.qb0;
  t.qb = g.qb1;
  Gate unit = g;
  unit.qb0 = 0;
  unit.qb1 = g.qb1 >= 0 ? 1 : -1;
  const IdxType n = g.qb1 >= 0 ? 2 : 1;
  ValType coef[kMaxCoefRows];
  fill_coef(unit, coef, 1, 0);
  LocalSpace sp;
  sp.real = t.pr;
  sp.imag = t.pi;
  sp.dim = pow2(n);
  KernelTable<LocalSpace>::get()[static_cast<std::size_t>(g.op)](
      UGate{unit, coef, 1}, sp, 0, gate_work_items(unit, n));
  return t;
}

/// Phase of `t` at amplitude index `idx`.
inline void term_phase(const DiagTerm& t, IdxType idx, ValType* qr,
                       ValType* qi) {
  int k = static_cast<int>((idx >> t.qa) & 1);
  if (t.qb >= 0) k |= static_cast<int>((idx >> t.qb) & 1) << 1;
  *qr = t.pr[k];
  *qi = t.pi[k];
}

/// Qubits that gate `t`: bits that must be 1 for the term's phase to be
/// anything but identity (e.g. both operands of CZ/CU1, the operand of
/// Z/S/T/U1, the control of CRZ; RZ/RZZ act on every value, empty mask).
/// Determined numerically from the phase entries, so it stays correct for
/// any future diagonal op.
inline IdxType term_gating_mask(const DiagTerm& t) {
  const auto ident = [&](int k) { return t.pr[k] == 1 && t.pi[k] == 0; };
  IdxType m = 0;
  if (t.qb < 0) {
    if (ident(0)) m |= pow2(t.qa);
  } else {
    if (ident(0) && ident(2)) m |= pow2(t.qa); // identity whenever qa = 0
    if (ident(0) && ident(1)) m |= pow2(t.qb); // identity whenever qb = 0
  }
  return m;
}

/// The product of a (sub)run's phases over its low qubits, ready to apply
/// per block. The table spans only 2^(max_used_qubit+1) entries — the
/// phase at `idx` is tab[idx & mask] — so short runs stay L1-resident.
/// `gate_qubit` >= 0 marks a bit every member term needs set: the apply
/// loop then touches only that half of the block.
struct DiagTable {
  bool identity = true;    // no non-trivial term: the apply is a no-op
  IdxType gate_qubit = -1; // common gating qubit (-1 = touch every amp)
  IdxType mask = 0;        // phase index = idx & mask
  std::vector<ValType> tab_r, tab_i; // mask+1 phases; empty = over budget
  std::vector<DiagTerm> terms;       // kept for per-amp eval when no table
};

/// Mixed terms (one operand < b, one >= b) grouped by their high qubit:
/// within a block that bit is fixed by `base`, so the group reduces to one
/// of two precomputed low-qubit tables — and for control-like gates the
/// bit-clear pattern is identity, skipping half the blocks outright.
struct DiagHighGroup {
  IdxType high_qubit = 0;
  DiagTable pattern[2]; // indexed by bit(base, high_qubit)
};

/// One step of a blocked window: either a kernel-dispatch call on the
/// block's work-item sub-range, or a collapsed diagonal run.
template <class Space>
struct WindowAction {
  enum class Kind { kGate, kDiag };
  Kind kind = Kind::kGate;
  OP op = OP::ID;             // span attribution (kGate / single-term kDiag)
  IdxType gate_index = 0;     // kGate: index into the device circuit
  IdxType work_per_block = 0; // kGate: work items per 2^b block
  // kDiag: the run's commuting phases, regrouped for per-block application.
  std::vector<DiagTerm> high_terms;   // both operands >= b: one scalar/block
  DiagTable low;                      // product of the all-low terms
  std::vector<DiagHighGroup> groups;  // mixed terms by high qubit
};

/// A run-ready schedule: the windows plus, for each blocked window, its
/// action list. `active` is false when scheduling is off, no window
/// qualified, or the partition is too small to block.
template <class Space>
struct SchedExec {
  bool enabled = false; // scheduling resolved on (stats worth reporting)
  bool active = false;  // at least one blocked window to execute
  IdxType block_exp = 0;
  Schedule sched;
  std::vector<std::vector<WindowAction<Space>>> actions; // per window
  // Phase-table bytes held by the actions above; returned to the memory
  // registry when the schedule is destroyed.
  obs::MemAdjust table_mem{obs::MemTag::kPhaseTable};
};

namespace blocked_detail {

inline bool gate_is_low(const Gate& g, IdxType b) {
  if (g.qb0 >= b) return false;
  if (g.qb1 >= 0 && g.qb1 >= b) return false;
  return true;
}

/// Phase tables cost memory per window; cap the total so pathological
/// many-window circuits degrade to per-amplitude evaluation instead of
/// ballooning the plan. Right-sized tables make this hard to hit.
inline constexpr std::size_t kTableBudgetBytes = 64u << 20;

/// Collapse `terms` (all qubits < b) into one DiagTable: right-sized phase
/// table, common gating qubit, identity detection.
inline DiagTable build_diag_table(std::vector<DiagTerm> terms,
                                  std::size_t* table_bytes) {
  DiagTable T;
  if (terms.empty()) return T; // identity
  T.identity = false;
  IdxType max_q = 0;
  IdxType gating = ~IdxType{0};
  for (const DiagTerm& t : terms) {
    max_q = t.qa > max_q ? t.qa : max_q;
    if (t.qb > max_q) max_q = t.qb;
    gating &= term_gating_mask(t);
  }
  if (gating != 0) T.gate_qubit = log2_exact(gating & (~gating + 1));
  T.mask = pow2(max_q + 1) - 1;
  const std::size_t len = static_cast<std::size_t>(T.mask) + 1;
  const std::size_t bytes = sizeof(ValType) * 2 * len;
  if (*table_bytes + bytes > kTableBudgetBytes) {
    T.terms = std::move(terms); // over budget: evaluate per amplitude
    return T;
  }
  *table_bytes += bytes;
  T.tab_r.assign(len, 0);
  T.tab_i.assign(len, 0);
  for (std::size_t t = 0; t < len; ++t) {
    ValType pr = 1;
    ValType pi = 0;
    for (const DiagTerm& term : terms) {
      ValType qr;
      ValType qi;
      term_phase(term, static_cast<IdxType>(t), &qr, &qi);
      const ValType nr = pr * qr - pi * qi;
      pi = pr * qi + pi * qr;
      pr = nr;
    }
    T.tab_r[t] = pr;
    T.tab_i[t] = pi;
  }
  return T;
}

/// Fix a mixed term's high qubit to bit value `v`, leaving a 1-qubit term
/// on its low qubit. Returns false when the restriction is identity.
inline bool reduce_high_term(const DiagTerm& t, IdxType b, int v,
                             DiagTerm* out) {
  DiagTerm r;
  if (t.qa >= b) { // qa high, qb low
    r.qa = t.qb;
    r.pr[0] = t.pr[v];
    r.pi[0] = t.pi[v];
    r.pr[1] = t.pr[v | 2];
    r.pi[1] = t.pi[v | 2];
  } else { // qa low, qb high
    r.qa = t.qa;
    r.pr[0] = t.pr[v << 1];
    r.pi[0] = t.pi[v << 1];
    r.pr[1] = t.pr[1 | v << 1];
    r.pi[1] = t.pi[1 | v << 1];
  }
  if (r.pr[0] == 1 && r.pi[0] == 0 && r.pr[1] == 1 && r.pi[1] == 0) {
    return false;
  }
  *out = r;
  return true;
}

template <class Space>
void build_window_actions(const std::vector<DeviceGate<Space>>& circuit,
                          const Window& w, IdxType b, bool per_gate_spans,
                          std::size_t* table_bytes,
                          std::vector<WindowAction<Space>>* out) {
  const IdxType end = w.first_gate + w.n_gates;
  IdxType i = w.first_gate;
  while (i < end) {
    const Gate& g = circuit[static_cast<std::size_t>(i)].ug.g;
    const bool diag = is_diagonal_gate(g.op);
    const bool low = gate_is_low(g, b);
    if (!diag || (low && per_gate_spans)) {
      // Kernel dispatch on the block sub-range. With per-gate profiling on
      // we also route low diagonal gates here so every gate keeps its own
      // obs::Span; only high-diagonal gates (which have no block-local
      // work-item range) must go through the phase path.
      WindowAction<Space> a;
      a.kind = WindowAction<Space>::Kind::kGate;
      a.op = g.op;
      a.gate_index = i;
      a.work_per_block = gate_work_items(g, b);
      out->push_back(std::move(a));
      ++i;
      continue;
    }
    // Collapse the maximal adjacent diagonal run (just this gate when
    // per-gate profiling needs distinct spans).
    IdxType j = i;
    if (per_gate_spans) {
      j = i + 1;
    } else {
      while (j < end &&
             is_diagonal_gate(circuit[static_cast<std::size_t>(j)].ug.g.op)) {
        ++j;
      }
    }
    // A lone low diagonal gate is cheaper through its specialized kernel
    // (it touches only the amplitudes it must).
    if (j - i == 1 && low) {
      WindowAction<Space> a;
      a.kind = WindowAction<Space>::Kind::kGate;
      a.op = g.op;
      a.gate_index = i;
      a.work_per_block = gate_work_items(g, b);
      out->push_back(std::move(a));
      ++i;
      continue;
    }
    // Regroup the run's commuting phases: high-only terms become one
    // scalar per block, all-low terms one right-sized table, and mixed
    // terms (exactly one operand >= b) group by that high qubit into two
    // tables selected per block — where the bit-clear pattern is usually
    // identity, skipping half the blocks outright.
    WindowAction<Space> a;
    a.kind = WindowAction<Space>::Kind::kDiag;
    a.op = g.op;
    std::vector<DiagTerm> low_terms;
    std::vector<std::pair<IdxType, std::vector<DiagTerm>>> mixed;
    for (IdxType k = i; k < j; ++k) {
      const Gate& dg = circuit[static_cast<std::size_t>(k)].ug.g;
      if (dg.op == OP::ID) continue; // identity phase
      const DiagTerm t = diag_term(dg);
      const bool qa_high = t.qa >= b;
      const bool qb_high = t.qb >= 0 && t.qb >= b;
      if (qa_high && (t.qb < 0 || qb_high)) {
        a.high_terms.push_back(t);
      } else if (!qa_high && !qb_high) {
        low_terms.push_back(t);
      } else {
        const IdxType hq = qa_high ? t.qa : t.qb;
        auto it = mixed.begin();
        for (; it != mixed.end() && it->first != hq; ++it) {}
        if (it == mixed.end()) {
          mixed.push_back({hq, {}});
          it = mixed.end() - 1;
        }
        it->second.push_back(t);
      }
    }
    i = j;
    a.low = build_diag_table(std::move(low_terms), table_bytes);
    for (auto& [hq, terms] : mixed) {
      DiagHighGroup grp;
      grp.high_qubit = hq;
      for (const int v : {0, 1}) {
        std::vector<DiagTerm> eff;
        for (const DiagTerm& t : terms) {
          DiagTerm r;
          if (reduce_high_term(t, b, v, &r)) eff.push_back(r);
        }
        grp.pattern[v] = build_diag_table(std::move(eff), table_bytes);
      }
      a.groups.push_back(std::move(grp));
    }
    if (a.high_terms.empty() && a.low.identity && a.groups.empty()) {
      continue; // a run of identities: nothing to do
    }
    out->push_back(std::move(a));
  }
}

/// Multiply every amplitude the table touches in the block at global
/// amplitude index `base` by its phase: the gated half when a gating
/// qubit exists, all 2^b otherwise; through the table when built,
/// per-amplitude product of the kept terms when the budget ran out.
/// Phases are selected by the global index, amplitudes addressed in `sp`
/// from `at` (the block's base in `sp`'s own indexing). Returns the
/// amplitudes touched, each read and written once.
template <class Space>
IdxType apply_diag_table(const Space& sp, const DiagTable& T, IdxType base,
                         IdxType at, IdxType b) {
  if (T.identity) return 0;
  const bool gated = T.gate_qubit >= 0;
  const IdxType count = gated ? pow2(b - 1) : pow2(b);
  const IdxType gbit = gated ? pow2(T.gate_qubit) : 0;
  for (IdxType t = 0; t < count; ++t) {
    // Gated: expand t around the gating qubit and force that bit on.
    const IdxType off = gated ? pair_base(t, T.gate_qubit) + gbit : t;
    const IdxType idx = base + off;
    ValType pr;
    ValType pi;
    if (!T.tab_r.empty()) {
      pr = T.tab_r[static_cast<std::size_t>(idx & T.mask)];
      pi = T.tab_i[static_cast<std::size_t>(idx & T.mask)];
    } else {
      pr = 1;
      pi = 0;
      for (const DiagTerm& term : T.terms) {
        ValType qr;
        ValType qi;
        term_phase(term, idx, &qr, &qi);
        const ValType nr = pr * qr - pi * qi;
        pi = pr * qi + pi * qr;
        pr = nr;
      }
    }
    const ValType r = sp.get_real(at + off);
    const ValType im = sp.get_imag(at + off);
    sp.set_real(at + off, pr * r - pi * im);
    sp.set_imag(at + off, pr * im + pi * r);
  }
  return count;
}

/// Apply a collapsed diagonal run to the block at global amplitude index
/// `base`, addressed in `sp` from `at` (apply_diag_table). Returns the
/// amplitudes touched, each read and written once per sweep.
template <class Space, class ActionSpace>
IdxType apply_diag_run(const Space& sp, const WindowAction<ActionSpace>& a,
                       IdxType base, IdxType at, IdxType b) {
  IdxType touched = 0;
  if (!a.high_terms.empty()) {
    // Both operands of these terms live in the high bits: one scalar for
    // the whole block, evaluated at `base`. Skip the sweep when it is
    // exactly identity (e.g. a high CZ in a block without both bits set).
    ValType sr = 1;
    ValType si = 0;
    for (const DiagTerm& term : a.high_terms) {
      ValType qr;
      ValType qi;
      term_phase(term, base, &qr, &qi);
      const ValType nr = sr * qr - si * qi;
      si = sr * qi + si * qr;
      sr = nr;
    }
    if (!(sr == 1 && si == 0)) {
      const IdxType len = pow2(b);
      for (IdxType t = at; t < at + len; ++t) {
        const ValType r = sp.get_real(t);
        const ValType im = sp.get_imag(t);
        sp.set_real(t, sr * r - si * im);
        sp.set_imag(t, sr * im + si * r);
      }
      touched += len;
    }
  }
  touched += apply_diag_table(sp, a.low, base, at, b);
  for (const DiagHighGroup& grp : a.groups) {
    touched += apply_diag_table(
        sp, grp.pattern[(base >> grp.high_qubit) & 1], base, at, b);
  }
  return touched;
}

/// One block of a collapsed diagonal run. A partitioned Space's block
/// lies inside one partition (b <= lg_part), so the run addresses that
/// partition's raw arrays at the block's local base and its traffic is
/// counted once, by the amplitudes it touched.
template <class Space>
void diag_block(const Space& sp, const WindowAction<Space>& a, IdxType base,
                IdxType b) {
  if constexpr (PartitionedSpace<Space>) {
    const int owner = sp.owner(base);
    const auto touched = static_cast<std::uint64_t>(
        apply_diag_run(sp.part(owner), a, base, base & sp.part_mask(), b));
    sp.count_access(owner, 2 * touched, 2 * touched);
  } else {
    apply_diag_run(sp, a, base, base, b);
  }
}

} // namespace blocked_detail

/// Build the run-ready schedule for one run(): clamp the resolved block
/// exponent (RunSwitches::block_exp, 0 = off) so a block never straddles
/// a worker partition, window the circuit, and precompute each blocked
/// window's action list. Cheap —
/// O(gates) plus the (budgeted) phase tables. `checkpoint_every` is the
/// run's health cadence (0 = off): checkpoints are window barriers, so
/// the blocked loop checks at exactly the classic per-gate gate ids.
template <class Space>
SchedExec<Space> prepare_sched(const Circuit& circuit,
                               const std::vector<DeviceGate<Space>>& dc,
                               IdxType block_exp, IdxType lg_part,
                               bool per_gate_spans,
                               IdxType checkpoint_every = 0) {
  SchedExec<Space> ex;
  const IdxType b = std::min(block_exp, lg_part);
  if (b < 2) return ex;
  ex.enabled = true;
  ex.block_exp = b;
  ex.sched = build_schedule(circuit, b, checkpoint_every);
  if (!ex.sched.has_blocked()) return ex;
  ex.active = true;
  ex.actions.resize(ex.sched.windows.size());
  std::size_t table_bytes = 0;
  for (std::size_t wi = 0; wi < ex.sched.windows.size(); ++wi) {
    const Window& w = ex.sched.windows[wi];
    if (!w.blocked) continue;
    blocked_detail::build_window_actions(dc, w, b, per_gate_spans,
                                         &table_bytes, &ex.actions[wi]);
  }
  ex.table_mem.add(static_cast<std::int64_t>(table_bytes));
  return ex;
}

} // namespace kernels

/// Record the schedule outcome in the run's report (additive
/// svsim-report-v1 fields). `traffic_avoided` is the run model's saving
/// for the executed windows (RunModel bytes − bytes_sched).
inline void fold_sched_stats(obs::RunReport& rep,
                             const ScheduleStats& stats, bool active,
                             double traffic_avoided) {
  rep.sched.enabled = true;
  rep.sched.active = active;
  rep.sched.block_exp = static_cast<int>(stats.block_exp);
  rep.sched.windows = static_cast<std::uint64_t>(stats.windows);
  rep.sched.windowed_gates = static_cast<std::uint64_t>(stats.windowed_gates);
  rep.sched.passes_saved = static_cast<std::uint64_t>(stats.passes_saved);
  rep.sched.traffic_avoided_bytes =
      static_cast<std::uint64_t>(traffic_avoided);
}

/// The simulation kernel (Listing 1 lines 21-26 / Listing 5): every worker
/// runs the same window sequence over its share of the state. Per-gate
/// windows run each gate on this worker's contiguous slice of work items
/// followed by a global sync (grid.sync() / nvshmem_barrier_all()), with
/// the span, flight event, progress publish and health cadence of
/// detail::gate_step. Blocked windows run blocks-outer/gates-inner with
/// one sync and at most one health checkpoint per window. An unscheduled
/// run is one per-gate window over the whole circuit. Every worker
/// reaches the same checkpoint/abort verdicts, so the collective protocol
/// stays lockstep.
template <class Space>
void simulation_kernel_sched(const std::vector<DeviceGate<Space>>& circuit,
                             const kernels::SchedExec<Space>& ex,
                             const Space& sp, const RunPlanes& planes = {}) {
  using kernels::WindowAction;
  const IdxType nw = sp.n_workers();
  const IdxType me = sp.worker();
  const detail::WorkerPlanes wp(planes, static_cast<int>(me), circuit.size());
  const Window whole{0, static_cast<IdxType>(circuit.size()), false};
  const Window* const windows = ex.active ? ex.sched.windows.data() : &whole;
  const std::size_t n_windows = ex.active ? ex.sched.windows.size() : 1;
  std::uint64_t gate_id = 0;
  for (std::size_t wi = 0; wi < n_windows; ++wi) {
    const Window& w = windows[wi];
    if (wp.pslot != nullptr) {
      wp.pslot->publish_window(static_cast<std::uint64_t>(wi));
    }
    if (!w.blocked) {
      for (IdxType k = 0; k < w.n_gates; ++k) {
        const DeviceGate<Space>& dg =
            circuit[static_cast<std::size_t>(w.first_gate + k)];
        const bool go_on = detail::gate_step(sp, wp, ++gate_id, dg.ug.g, [&] {
          const IdxType per = (dg.work + nw - 1) / nw;
          const IdxType begin = per * me < dg.work ? per * me : dg.work;
          const IdxType end = begin + per < dg.work ? begin + per : dg.work;
          dg.fn(dg.ug, sp, begin, end);
          sp.sync();
        });
        if (!go_on) return;
      }
      continue;
    }
    // Blocked window: one flight event per gate at entry, then
    // blocks-outer / gates-inner over this worker's partition.
    if (wp.ring != nullptr) {
      for (IdxType k = 0; k < w.n_gates; ++k) {
        detail::flight_gate_event(
            wp.ring, gate_id + static_cast<std::uint64_t>(k) + 1,
            circuit[static_cast<std::size_t>(w.first_gate + k)].ug.g);
      }
    }
    obs::WaitTracker::set_phase("window");
    const IdxType b = ex.block_exp;
    const IdxType blocks_per_worker = pow2(log2_exact(sp.local_count()) - b);
    const IdxType first_blk = me * blocks_per_worker;
    const std::vector<WindowAction<Space>>& actions = ex.actions[wi];
    // Window-level trace span ("sched windows" track): the window is a
    // team-wide construct, so one worker records it for the whole team.
    const bool win_trace =
        wp.rec != nullptr && wp.rec->collect_trace() && me == 0;
    const double win_t0 = win_trace ? obs::trace_now_us() : 0;
    const std::uint64_t win_start_gate = gate_id;
    for (IdxType blk = first_blk; blk < first_blk + blocks_per_worker;
         ++blk) {
      const IdxType base = blk << b;
      for (const WindowAction<Space>& a : actions) {
        obs::Span span(wp.rec, static_cast<int>(me), a.op);
        if (a.kind == WindowAction<Space>::Kind::kGate) {
          const DeviceGate<Space>& dg =
              circuit[static_cast<std::size_t>(a.gate_index)];
          dg.fn(dg.ug, sp, blk * a.work_per_block,
                (blk + 1) * a.work_per_block);
        } else {
          kernels::blocked_detail::diag_block(sp, a, base, b);
        }
      }
      if (wp.pslot != nullptr) {
        // Interpolate progress through the window: after this block the
        // sweep is (blk+1-first)/blocks done, so publish the gate id at
        // that fraction of the window (the last block lands exactly on
        // win_start + n_gates). Without this a large blocked window — a
        // single sweep that can run for minutes at scale — would freeze
        // the published fraction (and inflate the ETA) for its whole
        // duration. One relaxed store per 2^b-amplitude block of real
        // work: noise.
        const std::uint64_t done_blocks =
            static_cast<std::uint64_t>(blk - first_blk + 1);
        wp.pslot->publish_gate(win_start_gate +
                               static_cast<std::uint64_t>(w.n_gates) *
                                   done_blocks / blocks_per_worker);
      }
    }
    sp.sync();
    if (win_trace) {
      wp.rec->record_window(win_t0, obs::trace_now_us(),
                            static_cast<std::uint64_t>(wi),
                            static_cast<std::uint64_t>(w.n_gates),
                            static_cast<int>(b));
    }
    const std::uint64_t prev = gate_id;
    gate_id += static_cast<std::uint64_t>(w.n_gates);
    // No publish needed here: the last block's interpolated publish above
    // already landed exactly on `gate_id`.
    // The cadence is evaluated at window granularity: one checkpoint when
    // the window crosses a multiple of `every` (or ends the circuit).
    if (wp.every != 0 &&
        (gate_id / wp.every > prev / wp.every || gate_id == wp.n_gates)) {
      if (detail::health_checkpoint(sp, wp, gate_id)) return;
    }
  }
}

} // namespace svsim
