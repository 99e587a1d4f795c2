#include "obs/perfmodel.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "core/kernels/gates.hpp"
#include "obs/trace.hpp"

namespace svsim::obs {

GateCost gate_cost(const Gate& g, IdxType n_qubits) {
  const double dim = static_cast<double>(pow2(n_qubits));
  const double bpa = static_cast<double>(kBytesPerAmp);
  // A pattern × body op rewrites its footprint per work item.
  const auto rewrite = [&](const kernels::Footprint& f, double work) {
    const double amps = work * f.touched;
    return GateCost{amps, amps * bpa, work * f.flops};
  };
  const kernels::Footprint& f = kernels::footprint(g.op);
  if (f.qubits > 0) {
    const IdxType work = kernels::gate_work_items(g, n_qubits);
    return rewrite(f, static_cast<double>(work));
  }
  switch (g.op) {
    case OP::ID:
    case OP::BARRIER:
      return {};
    case OP::M:
    case OP::RESET: {
      // Phase 1: read-only probability scan of the |1> half
      // (re^2 + im^2 accumulated: 16 bytes, 4 flops per amp); phase 3:
      // renormalizing collapse pass over the full state (32 bytes, 2
      // flops per amp). The reduction between them is worker-count
      // bound, not state-size bound, and is not priced.
      const double half = dim / 2;
      GateCost c;
      c.amps = dim;
      c.bytes = bpa / 2 * half + bpa * dim;
      c.flops = 4.0 * half + 2.0 * dim;
      return c;
    }
    case OP::MA: {
      // Prefix-sum sampling: read passes over the magnitudes.
      GateCost c;
      c.amps = dim;
      c.bytes = bpa / 2 * dim;
      c.flops = 4.0 * dim;
      return c;
    }
    default:
      // Compound controlled ops (CCX..C4X) are decomposed before they
      // reach a kernel; if one is priced directly, price a dense 1-qubit
      // sweep.
      return rewrite(kernels::footprint(OP::U3), dim / 2);
  }
}

namespace {

/// Fold per-gate costs into the run model: totals, per op kind, and per
/// scheduled window.
RunModel price(const Circuit& circuit, const Schedule* schedule,
               const std::vector<GateCost>& costs) {
  RunModel m;
  m.enabled = true;
  const IdxType n = circuit.n_qubits();
  const auto& gates = circuit.gates();
  for (std::size_t k = 0; k < gates.size(); ++k) {
    const GateCost& c = costs[k];
    m.amps += c.amps;
    m.bytes += c.bytes;
    m.flops += c.flops;
    OpCost& oc = m.by_op[static_cast<std::size_t>(gates[k].op)];
    ++oc.count;
    oc.amps += c.amps;
    oc.bytes += c.bytes;
    oc.flops += c.flops;
  }
  // An unscheduled run is one per-gate window over every gate.
  const bool windowed = schedule != nullptr && !schedule->windows.empty();
  const std::vector<Window> whole{
      Window{0, static_cast<IdxType>(gates.size()), false}};
  const double sweep =
      static_cast<double>(kBytesPerAmp) * static_cast<double>(pow2(n));
  m.bytes_prefix.assign(gates.size() + 1, 0.0);
  if (windowed) m.windows.reserve(schedule->windows.size());
  for (const Window& w : windowed ? schedule->windows : whole) {
    const auto first = static_cast<std::size_t>(w.first_gate);
    const auto count = static_cast<std::size_t>(w.n_gates);
    WindowCost wc;
    wc.blocked = w.blocked;
    wc.gates = count;
    for (std::size_t k = first; k < first + count; ++k) {
      wc.amps += costs[k].amps;
      wc.bytes += costs[k].bytes;
      wc.flops += costs[k].flops;
    }
    // A blocked window streams the state at most once, however many
    // gates it carries; a run of cheap diagonals can undercut even that.
    if (w.blocked) wc.bytes = std::min(wc.bytes, sweep);
    double* prefix = m.bytes_prefix.data() + first;
    for (std::size_t j = 0; j < count; ++j) {
      prefix[j + 1] =
          w.blocked ? prefix[0] + wc.bytes * static_cast<double>(j + 1) /
                                      static_cast<double>(count)
                    : prefix[j] + costs[first + j].bytes;
    }
    m.bytes_sched += wc.bytes;
    if (windowed) m.windows.push_back(wc);
  }
  return m;
}

} // namespace

RunModel model_run(const Circuit& circuit, const Schedule* schedule) {
  std::vector<GateCost> costs;
  costs.reserve(circuit.gates().size());
  for (const Gate& g : circuit.gates()) {
    costs.push_back(gate_cost(g, circuit.n_qubits()));
  }
  return price(circuit, schedule, costs);
}

RunModel model_run_batched(const Circuit& circuit, const Schedule* schedule,
                           IdxType batch, const std::vector<SlotCost>& slots) {
  SVSIM_CHECK(slots.size() == circuit.gates().size(),
              "one slot cost per gate");
  std::vector<GateCost> costs;
  costs.reserve(slots.size());
  for (const SlotCost& s : slots) costs.push_back(s.cost);
  RunModel m = price(circuit, schedule, costs);
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
  // Gate-table reads are amortized: the batched kernels read each slot's
  // per-member coefficient rows once per sweep — 8 bytes per row per
  // member, independent of the state dimension — instead of re-deriving
  // the entries per solo run. Priced per slot, not per member pass.
  const auto& gates = circuit.gates();
  double table = 0; // coefficient-row bytes of slots [0, k]
  for (std::size_t k = 0; k < gates.size(); ++k) {
    const double table_bytes = 8.0 * slots[k].rows * B;
    table += table_bytes;
    m.bytes += table_bytes;
    m.bytes_sched += table_bytes;
    m.by_op[static_cast<std::size_t>(gates[k].op)].bytes += table_bytes;
    m.bytes_prefix[k + 1] = m.bytes_prefix[k + 1] * B + table;
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
