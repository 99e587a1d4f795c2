// Function-pointer gate dispatch — the paper's Listing 1 design.
//
// CUDA/HIP lack polymorphism, and parsing/branching on the gate kind
// inside the device kernel is costly, so SV-Sim gives every gate object a
// *function pointer* selected once when the circuit is "uploaded" to a
// backend. The pointers come from a dispatch table preloaded at simulator
// construction (the paper's optimization that reduces
// cudaMemcpyFromSymbol calls from #gates to #supported-ops); uploading a
// dynamically synthesized circuit is then a pure table lookup per gate —
// no JIT, no recompilation, no runtime parsing. The simulation kernel is a
// single loop of indirect calls (Listing 1 lines 21-26).
//
// Here the same structure is realized per address-space policy: each
// instantiation of KernelTable<Space> is "the device's constant-memory
// function table", DeviceGate<Space> is the uploaded gate, and
// simulation_kernel_sched<Space> (kernels/blocked.hpp) is the single
// launched kernel. Every unitary entry is one pattern × body pair from
// kernels::for_each_unitary (kernels/gates.hpp) instantiated for the
// table's lane policy — on the partitioned Spaces wrapped in one range
// kernel (KernelTable::on_range), which runs a partition-local range
// through LocalSpace's kernel at that lane policy on the raw partition,
// and every other range on the partitions' raw view (RawView).
// kernel_table() picks a Space's table by the run's resolved lane level.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "core/kernels/gates.hpp"
#include "core/kernels/nonunitary.hpp"
#include "core/space.hpp"
#include "ir/circuit.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace svsim {

using kernels::gate_work_items;
using kernels::UGate;

template <class Space>
using KernelFn = void (*)(const UGate&, const Space&, IdxType, IdxType);

/// The preloaded op -> kernel table for one address space.
template <class Space>
class KernelTable {
public:
  using Fn = KernelFn<Space>;
  using Table = std::array<Fn, kNumOps>;

  /// Built exactly once per (Space, lane policy). L runs every unitary
  /// op on LocalSpace and the partition-local ranges of a partitioned
  /// Space; the ranges that straddle partitions and the non-unitary ops
  /// are scalar.
  template <class L = kernels::ScalarLane>
  static const Table& get() {
    static const Table table = build<L>();
    return table;
  }

private:
  /// The element access of the scalar paths: a partitioned Space's raw
  /// view, any other Space itself.
  using Elem =
      std::conditional_t<PartitionedSpace<Space>, RawView<Space>, Space>;

  /// A non-unitary op's entry: its kernel on Elem. A raw view books the
  /// call's traffic once, when the kernel returns.
  template <auto Kern>
  static void on_gate(const UGate& ug, const Space& sp, IdxType begin,
                      IdxType end) {
    const Elem el(sp);
    Kern(ug.g, el, begin, end);
    if constexpr (PartitionedSpace<Space>) el.flush();
  }

  /// A partitioned Space's entry for unitary pattern P × body B at lane
  /// policy L, written once for PeerSpace and ShmemSpace. When every
  /// operand qubit lies below lg_part, Eq. (1)/(2) keep each partition's
  /// 2^(lg_part-1) pairs (2^(lg_part-2) quadruples) inside it, so the
  /// range runs, partition by partition, LocalSpace's kernel at L on the
  /// partition's raw arrays with the range rebased, and counts its
  /// traffic once: the pattern's kTouched amplitudes per work item, each
  /// 2 gets and 2 puts. A gate on a partition qubit pairs amplitudes across
  /// partitions; its range runs the scalar kernel on the raw view, which
  /// books what it touched, per partition, once.
  template <kernels::Pat P, class B, class L>
  static void on_range(const UGate& ug, const Space& sp, IdxType begin,
                       IdxType end) {
    using Pt = kernels::Pattern<P>;
    const IdxType top = ug.g.qb1 > ug.g.qb0 ? ug.g.qb1 : ug.g.qb0;
    if (top >= sp.lg_part) {
      const RawView<Space> view(sp);
      kernels::solo_kernel<P, B, kernels::ScalarLane>(ug, view, begin, end);
      view.flush();
      return;
    }
    const IdxType lg_items = sp.lg_part - (Pt::kTwoQubit ? 2 : 1);
    while (begin < end) {
      const int part = static_cast<int>(begin >> lg_items);
      const IdxType first = static_cast<IdxType>(part) << lg_items;
      const IdxType stop = std::min(end, first + pow2(lg_items));
      kernels::solo_kernel<P, B, L, LocalSpace>(ug, sp.part(part),
                                                begin - first, stop - first);
      const auto amps =
          static_cast<std::uint64_t>(stop - begin) * Pt::kTouched;
      sp.count_access(part, 2 * amps, 2 * amps);
      begin = stop;
    }
  }

  template <class L>
  static Table build() {
    namespace k = kernels;
    Table t{};
    k::for_each_unitary([&]<OP op, k::Pat P, class B>() {
      if constexpr (PartitionedSpace<Space>) {
        t[static_cast<int>(op)] = &on_range<P, B, L>;
      } else {
        t[static_cast<int>(op)] = &k::solo_kernel<P, B, L, Space>;
      }
    });
    t[static_cast<int>(OP::ID)] = &k::kern_nop<Space>;
    t[static_cast<int>(OP::BARRIER)] = &k::kern_nop<Space>;
    t[static_cast<int>(OP::M)] = &on_gate<&k::kern_measure<Elem>>;
    t[static_cast<int>(OP::MA)] = &on_gate<&k::kern_measure_all<Elem>>;
    t[static_cast<int>(OP::RESET)] = &on_gate<&k::kern_reset<Elem>>;
    return t;
  }
};

/// Space's preloaded kernel table at lane level `level`, one resolve()
/// has checked this build carries (RunSwitches::simd): the one table
/// selector every dispatch backend calls.
template <class Space>
const typename KernelTable<Space>::Table& kernel_table(SimdLevel level) {
  const typename KernelTable<Space>::Table* table = nullptr;
  kernels::with_lane(level, [&]<class L>() {
    table = &KernelTable<Space>::template get<L>();
  });
  return *table;
}

/// A gate after upload: its resolved kernel pointer, the uploaded gate
/// view (gate + coefficient rows) and total work-item count
/// (kernels::gate_work_items), which the workers split evenly.
template <class Space>
struct DeviceGate {
  KernelFn<Space> fn;
  UGate ug;
  IdxType work;
};

/// An uploaded circuit: the device gates and the coefficient rows their
/// views point into (stride 1, filled once here — kernels never evaluate
/// a gate's trig functions). Not copyable: the views would dangle.
template <class Space>
struct DeviceCircuit {
  DeviceCircuit() = default;
  DeviceCircuit(DeviceCircuit&&) = default;
  DeviceCircuit(const DeviceCircuit&) = delete;

  std::vector<DeviceGate<Space>> gates;
  std::vector<ValType> coef;
};

/// "Upload" a circuit: resolve every gate's kernel pointer from the
/// preloaded table and fill its coefficient rows. Pure CPU-side work (the
/// paper's point: the cost is O(#ops) symbol fetches at init + O(#gates)
/// pointer copies here).
template <class Space>
DeviceCircuit<Space> upload_circuit(
    const Circuit& circuit, const typename KernelTable<Space>::Table& table) {
  DeviceCircuit<Space> out;
  std::size_t rows = 0;
  for (const Gate& g : circuit.gates()) {
    rows += static_cast<std::size_t>(kernels::coef_rows(g.op));
  }
  out.coef.resize(rows);
  out.gates.reserve(circuit.gates().size());
  const IdxType n = circuit.n_qubits();
  ValType* coef = out.coef.data();
  for (const Gate& g : circuit.gates()) {
    auto fn = table[static_cast<int>(g.op)];
    SVSIM_CHECK(fn != nullptr,
                std::string("no kernel for op ") + op_name(g.op) +
                    " (compound ops must be lowered before upload)");
    kernels::fill_coef(g, coef, 1, 0);
    out.gates.push_back(
        DeviceGate<Space>{fn, UGate{g, coef, 1}, gate_work_items(g, n)});
    coef += kernels::coef_rows(g.op);
  }
  return out;
}

/// The observability planes one run switched on, shared read-only by
/// every worker's gate loop (null = that plane is off), and the run's
/// resolved lane level, at which the health checkpoint scans.
struct RunPlanes {
  obs::GateRecorder* rec = nullptr;
  obs::HealthMonitor* health = nullptr;
  obs::FlightRecorder* flight = nullptr;
  obs::ProgressBoard* progress = nullptr;
  SimdLevel simd = SimdLevel::kScalar;
};

/// The health scan of one partition at lane level `level` (one this
/// build carries): Σ(re²+im²) into *norm2 and the number of non-finite
/// (NaN/±Inf) values into *non_finite. The lanes sum x² and x−x, W-wide
/// chunks through the level's policy and the ragged tail one value at a
/// time. x−x is 0 for every finite x and NaN for a NaN or ±Inf, so the
/// x−x total is not 0 exactly when a bad value is present; only then
/// does a scalar pass count them.
inline void scan_amplitudes(SimdLevel level, const ValType* re,
                            const ValType* im, IdxType count, double* norm2,
                            std::uint64_t* non_finite) {
  double sq = 0;
  double nan = 0;
  kernels::with_lane(level, [&]<class L>() {
    for (const ValType* v : {re, im}) {
      typename L::V s = L::zero();
      typename L::V d = L::zero();
      IdxType i = 0;
      for (; i + L::W <= count; i += L::W) {
        const typename L::V x = L::load(v + i);
        s = s + x * x;
        d = d + (x - x);
      }
      ValType ls[L::W];
      ValType ld[L::W];
      L::store(ls, s);
      L::store(ld, d);
      for (IdxType l = 0; l < L::W; ++l) {
        sq += ls[l];
        nan += ld[l];
      }
      for (; i < count; ++i) {
        sq += v[i] * v[i];
        nan += v[i] - v[i];
      }
    }
  });
  std::uint64_t bad = 0;
  if (nan != 0) {
    for (IdxType i = 0; i < count; ++i) {
      if (!std::isfinite(re[i])) ++bad;
      if (!std::isfinite(im[i])) ++bad;
    }
  }
  *norm2 = sq;
  *non_finite = bad;
}

namespace detail {

/// Push one per-gate event onto this worker's flight ring (no-op ring ==
/// nullptr).
inline void flight_gate_event(obs::FlightRing* ring, std::uint64_t gate_id,
                              const Gate& g) {
  if (ring == nullptr) return;
  obs::FlightEvent e;
  e.ts_us = obs::trace_now_us();
  e.gate_id = gate_id;
  e.kind = obs::FlightEvent::kGate;
  e.op = static_cast<std::uint16_t>(g.op);
  e.qb0 = static_cast<std::int32_t>(g.qb0);
  e.qb1 = static_cast<std::int32_t>(g.qb1);
  ring->push(e);
}

/// One worker's handles into the run's planes: its flight ring, its
/// progress slot (bound for the live wait column via WaitScope), and the
/// health cadence over a circuit of `n_gates` gates.
struct WorkerPlanes {
  WorkerPlanes(const RunPlanes& p, int worker, std::uint64_t n_gates)
      : rec(p.rec),
        health(p.health),
        ring(p.flight != nullptr ? p.flight->ring(worker) : nullptr),
        pslot(p.progress != nullptr ? p.progress->slot(worker) : nullptr),
        every(p.health != nullptr && p.health->every_n() > 0
                  ? static_cast<std::uint64_t>(p.health->every_n())
                  : 0),
        n_gates(n_gates),
        me(worker),
        simd(p.simd),
        scope(pslot) {}

  obs::GateRecorder* const rec;
  obs::HealthMonitor* const health;
  obs::FlightRing* const ring;
  obs::ProgressSlot* const pslot;
  const std::uint64_t every; // health cadence in gates, 0 = off
  const std::uint64_t n_gates;
  const int me;
  const SimdLevel simd; // the health scan's lane level
  obs::ProgressScope scope;
};

/// One collective health checkpoint: every worker scans its local
/// partition at the run's lane level, the partials combine through the
/// Space's own reduce_sum (so workers stay lockstep), worker 0 records
/// the result, and the returned abort verdict is a pure function of the
/// reduced values — identical on every worker, so gate loops break
/// together.
template <class Space>
inline bool health_checkpoint(const Space& sp, const WorkerPlanes& wp,
                              std::uint64_t gate_id) {
  double norm2 = 0;
  std::uint64_t bad = 0;
  scan_amplitudes(wp.simd, sp.local_real(), sp.local_imag(),
                  sp.local_count(), &norm2, &bad);
  const double g_norm2 =
      static_cast<double>(sp.reduce_sum(static_cast<ValType>(norm2)));
  // Counts are far below 2^53, so the ValType reduction is exact.
  const std::uint64_t g_bad = static_cast<std::uint64_t>(
      sp.reduce_sum(static_cast<ValType>(bad)) + 0.5);
  if (sp.worker() == 0) wp.health->observe(gate_id, g_norm2, g_bad);
  if (wp.ring != nullptr) {
    obs::FlightEvent e;
    e.ts_us = obs::trace_now_us();
    e.gate_id = gate_id;
    e.kind = obs::FlightEvent::kCheckpoint;
    wp.ring->push(e);
  }
  return wp.health->should_abort(g_norm2, g_bad);
}

/// One gate of a per-gate loop (Listing 1 lines 21-26 / Listing 5): phase
/// label, flight event, then `apply()` — the gate's work on this worker
/// plus its sync — inside an obs::Span, the progress publish (one relaxed
/// store of the gate id on this worker's slot), and the health cadence.
/// Every `every` gates (and after the last) the checkpoint is collective
/// over the Space's reduce_sum and its abort verdict is identical on
/// every worker. Returns false when the loop must stop.
template <class Space, class Apply>
bool gate_step(const Space& sp, const WorkerPlanes& wp,
               std::uint64_t gate_id, const Gate& g, Apply&& apply) {
  obs::WaitTracker::set_phase(op_name(g.op));
  flight_gate_event(wp.ring, gate_id, g);
  {
    obs::Span span(wp.rec, wp.me, g.op);
    apply();
    if (wp.pslot != nullptr) wp.pslot->publish_gate(gate_id);
  }
  if (wp.every == 0 || (gate_id % wp.every != 0 && gate_id != wp.n_gates)) {
    return true;
  }
  return !health_checkpoint(sp, wp, gate_id);
}

/// The per-gate loop of a backend with its own gate arithmetic: `apply(g)`
/// runs one gate on this worker.
template <class Space, class Apply>
void per_gate_loop(const Space& sp, const RunPlanes& planes,
                   const std::vector<Gate>& gates, Apply&& apply) {
  const WorkerPlanes wp(planes, sp.worker(), gates.size());
  std::uint64_t gate_id = 0;
  for (const Gate& g : gates) {
    if (!gate_step(sp, wp, ++gate_id, g, [&] { return apply(g); })) return;
  }
}

} // namespace detail

} // namespace svsim
