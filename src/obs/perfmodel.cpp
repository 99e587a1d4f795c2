#include "obs/perfmodel.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "obs/trace.hpp"

namespace svsim::obs {

GateCost gate_cost(const Gate& g, IdxType n_qubits) {
  const double dim = static_cast<double>(pow2(n_qubits));
  const double P = dim / 2; // 1-qubit pairs == |1>-half amplitudes
  const double Q = dim / 4; // 2-qubit quadruples
  // Rewritten amplitudes move 32 bytes each (16 read + 16 written).
  auto rw = [](double amps, double flops) {
    return GateCost{amps, amps * 32.0, flops};
  };
  switch (g.op) {
    case OP::ID:
    case OP::BARRIER:
      return {};
    // --- 1-qubit, all pairs ---
    case OP::X:
      return rw(dim, 0); // pure pair swap, no arithmetic
    case OP::Y:
      return rw(dim, 2 * P); // swap + one negation per output
    case OP::H:
      return rw(dim, 8 * P); // butterfly: 2 adds + 2 muls per component
    case OP::RX:
    case OP::RY:
      return rw(dim, 12 * P); // 2 real-coefficient complex scales + adds
    case OP::RZ:
      return rw(dim, 12 * P); // phase multiply (6) on both halves
    case OP::U2:
    case OP::U3:
      return rw(dim, 28 * P); // dense complex 2x2 per pair
    // --- 1-qubit diagonal, |1> half only ---
    case OP::Z:
      return rw(P, 2 * P); // negate re+im
    case OP::S:
    case OP::SDG:
      return rw(P, P); // component swap + one negation
    case OP::T:
    case OP::TDG:
      return rw(P, 4 * P); // s*(re∓im), s*(re±im)
    case OP::U1:
      return rw(P, 6 * P); // general phase multiply
    // --- 2-qubit, control-selected half ---
    case OP::CX:
      return rw(P, 0); // controlled pair swap
    case OP::CY:
      return rw(P, 2 * Q);
    case OP::CH:
    case OP::CRX:
    case OP::CRY:
    case OP::CU3:
      return rw(P, 28 * Q); // dense 2x2 on the controlled pair
    case OP::CRZ:
      return rw(P, 12 * Q);
    case OP::SWAP:
      return rw(P, 0); // |01> <-> |10> exchange
    // --- 2-qubit diagonal ---
    case OP::CZ:
      return rw(Q, 2 * Q); // |11> element negated
    case OP::CU1:
      return rw(Q, 6 * Q); // |11> element phase-multiplied
    case OP::RZZ:
      return rw(P, 12 * Q); // parity-split phase on half the amps
    case OP::RXX:
      return rw(dim, 24 * Q); // cos/sin cross-coupling on every quad
    // --- non-unitary ---
    case OP::M:
    case OP::RESET: {
      // Phase 1: read-only probability scan of the |1> half
      // (re^2 + im^2 accumulated: 16 bytes, 4 flops per amp); phase 3:
      // renormalizing collapse pass over the full state (32 bytes, 2
      // flops per amp). The reduction between them is worker-count
      // bound, not state-size bound, and is not priced.
      GateCost c;
      c.amps = dim;
      c.bytes = 16.0 * P + 32.0 * dim;
      c.flops = 4.0 * P + 2.0 * dim;
      return c;
    }
    case OP::MA: {
      // Prefix-sum sampling: read passes over the magnitudes.
      GateCost c;
      c.amps = dim;
      c.bytes = 16.0 * dim;
      c.flops = 4.0 * dim;
      return c;
    }
    default:
      // Compound controlled ops (CCX..C4X) are decomposed before they
      // reach a kernel; if one is priced directly, use a dense estimate.
      return rw(dim, 28 * P);
  }
}

RunModel model_run(const Circuit& circuit, const Schedule* schedule) {
  RunModel m;
  m.enabled = true;
  const IdxType n = circuit.n_qubits();
  const auto& gates = circuit.gates();
  for (const Gate& g : gates) {
    const GateCost c = gate_cost(g, n);
    m.amps += c.amps;
    m.bytes += c.bytes;
    m.flops += c.flops;
    OpCost& oc = m.by_op[static_cast<std::size_t>(g.op)];
    ++oc.count;
    oc.amps += c.amps;
    oc.bytes += c.bytes;
    oc.flops += c.flops;
  }
  if (schedule == nullptr || schedule->windows.empty()) {
    m.bytes_sched = m.bytes;
    return m;
  }
  const double sweep = 32.0 * static_cast<double>(pow2(n));
  m.windows.reserve(schedule->windows.size());
  for (const Window& w : schedule->windows) {
    WindowCost wc;
    wc.blocked = w.blocked;
    wc.gates = static_cast<std::uint64_t>(w.n_gates);
    for (IdxType i = w.first_gate; i < w.first_gate + w.n_gates; ++i) {
      const GateCost c = gate_cost(gates[static_cast<std::size_t>(i)], n);
      wc.amps += c.amps;
      wc.bytes += c.bytes;
      wc.flops += c.flops;
    }
    // A blocked window streams the state at most once, however many
    // gates it carries; a run of cheap diagonals can undercut even that.
    if (w.blocked) wc.bytes = std::min(wc.bytes, sweep);
    m.bytes_sched += wc.bytes;
    m.windows.push_back(wc);
  }
  return m;
}

RunModel model_run_batched(const Circuit& circuit, const Schedule* schedule,
                           IdxType batch) {
  RunModel m = model_run(circuit, schedule);
  if (batch <= 1) return m;
  const double B = static_cast<double>(batch);
  // Amplitude traffic and arithmetic scale by the member count: every
  // sweep streams B lockstep state vectors.
  m.amps *= B;
  m.bytes *= B;
  m.bytes_sched *= B;
  m.flops *= B;
  for (OpCost& oc : m.by_op) {
    oc.amps *= B;
    oc.bytes *= B;
    oc.flops *= B;
  }
  for (WindowCost& wc : m.windows) {
    wc.amps *= B;
    wc.bytes *= B;
    wc.flops *= B;
  }
  // Gate-table reads are amortized: the batched kernels read each gate's
  // per-member coefficient rows once per sweep — 8 bytes per row per
  // member, independent of the state dimension — instead of re-deriving
  // the entries per solo run. Priced per gate, not per member pass.
  const auto coef_rows = [](OP op) {
    switch (op) {
      case OP::U3:
      case OP::U2:
      case OP::CU3:
      case OP::CRX:
      case OP::CRY:
      case OP::CH:
        return 8;
      case OP::U1:
      case OP::RZ:
      case OP::RX:
      case OP::RY:
      case OP::CRZ:
      case OP::CU1:
      case OP::RXX:
      case OP::RZZ:
        return 2;
      default:
        return 0;
    }
  };
  for (const Gate& g : circuit.gates()) {
    const double table_bytes = 8.0 * coef_rows(g.op) * B;
    m.bytes += table_bytes;
    m.bytes_sched += table_bytes;
    m.by_op[static_cast<std::size_t>(g.op)].bytes += table_bytes;
  }
  return m;
}

void fold_roofline(RunReport& report, const RunModel& model,
                   const CounterSample& counters, double peak_gbps,
                   const std::string& process, double t0_us, double t1_us) {
  RooflineStats& r = report.roofline;
  r.enabled = true;
  r.model_amps = model.amps;
  r.model_bytes = model.bytes;
  r.model_bytes_sched = model.bytes_sched;
  r.model_flops = model.flops;
  r.ai = model.bytes_sched > 0 ? model.flops / model.bytes_sched : 0;
  r.peak_gbps = peak_gbps;
  const double wall = report.wall_seconds;
  if (wall > 0) r.model_gbps = model.bytes_sched / wall / 1e9;
  if (peak_gbps > 0) r.attainment = r.model_gbps / peak_gbps;

  r.counters = counters.available;
  r.counters_error = counters.error;
  if (counters.available) {
    r.cycles = counters.cycles;
    r.instructions = counters.instructions;
    r.llc_loads = counters.llc_loads;
    r.llc_misses = counters.llc_misses;
    // Every LLC miss moves one 64-byte line from memory — the
    // counter-side view of achieved bandwidth (≈0 when the state fits
    // in cache, which is itself diagnostic).
    if (wall > 0) {
      r.measured_gbps =
          static_cast<double>(counters.llc_misses) * 64.0 / wall / 1e9;
    }
  }

  // Worst-attainment op kinds need per-op seconds, i.e. a profiled run.
  // Per-op seconds are CPU-seconds summed over workers; apportion by the
  // worker count to compare against the whole-machine roofline.
  if (report.profiled && peak_gbps > 0) {
    std::vector<RooflineStats::OpAttainment> v;
    const double workers =
        static_cast<double>(report.n_workers > 0 ? report.n_workers : 1);
    for (std::size_t i = 0; i < static_cast<std::size_t>(kNumOps); ++i) {
      const OpCost& oc = model.by_op[i];
      const GateKindStats& gs = report.by_op[i];
      if (oc.count == 0 || gs.seconds <= 0 || oc.bytes <= 0) continue;
      RooflineStats::OpAttainment a;
      a.op = static_cast<OP>(i);
      a.count = oc.count;
      a.bytes = oc.bytes;
      a.seconds = gs.seconds / workers;
      a.gbps = a.bytes / a.seconds / 1e9;
      a.attainment = a.gbps / peak_gbps;
      v.push_back(a);
    }
    std::sort(v.begin(), v.end(), [](const auto& x, const auto& y) {
      return x.attainment < y.attainment;
    });
    if (v.size() > 10) v.resize(10);
    r.worst = std::move(v);
  }

  // Counter track in the Chrome trace: a step function over the gate
  // loop interval, one track per metric.
  Trace& tr = Trace::global();
  if (tr.enabled() && t1_us > t0_us) {
    tr.flush_counter(process, "model GB/s", t0_us, r.model_gbps);
    tr.flush_counter(process, "model GB/s", t1_us, 0.0);
    if (r.counters) {
      tr.flush_counter(process, "LLC GB/s", t0_us, r.measured_gbps);
      tr.flush_counter(process, "LLC GB/s", t1_us, 0.0);
    }
  }
}

} // namespace svsim::obs
