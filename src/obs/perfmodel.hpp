// obs::perfmodel — analytic per-gate cost attribution for the roofline
// report, the progress board and the machine model.
//
// Every specialized kernel's footprint is a property of its kernel: a T
// gate rewrites only the |1> half of the amplitudes with 4 real ops each,
// H streams every pair with 8, CX permutes half the amplitudes with no
// arithmetic at all. The kernel list writes that once, as pattern × body
// (kernels::footprint in core/kernels/gates.hpp: amplitudes and flops per
// work item), and gate_cost multiplies it by the gate's work items. Only
// the protocol ops (measure, reset, measure-all) and the no-ops are priced
// here by hand. A blocked scheduler window (kernels/blocked.hpp) collapses
// its member gates' sweeps into at most one pass over the state; this
// module prices that too — per gate, per op kind, per scheduled window,
// and as the per-gate cumulative bytes the progress board's ETA reads.
//
// Counting conventions (tests/test_perfmodel.cpp pins these):
//  * one touched amplitude moves kBytesPerAmp = 32 bytes: 16 read + 16
//    written across the split re/im arrays (measurement's probability
//    scan is read-only and priced at 16);
//  * a "flop" is one real add/sub/mul/negate, counted off the kernel body
//    (a complex multiply by a general phase is 6, H's butterfly is 8 per
//    pair, a dense 2x2 complex multiply is 28 per pair).
//
// fold_roofline() joins this model with the hardware-counter sample and
// the machine model's STREAM-style peak into RunReport::roofline — the
// achieved-GB/s / arithmetic-intensity / %-of-peak attribution the paper
// reasons with, plus the top worst-attainment gate kinds.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "ir/circuit.hpp"
#include "ir/schedule.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"

namespace svsim::obs {

/// Bytes one touched amplitude moves: 16 read and 16 written across the
/// split re/im arrays. One full-state pass is kBytesPerAmp · 2^n.
inline constexpr std::uint64_t kBytesPerAmp = 32;

/// Expected footprint of one gate on a 2^n state.
struct GateCost {
  double amps = 0;  // amplitudes read or written
  double bytes = 0; // memory traffic (kBytesPerAmp per rewritten amp)
  double flops = 0; // real adds/subs/muls/negates
};

/// Footprint of `g`'s specialized kernel on an n-qubit state.
GateCost gate_cost(const Gate& g, IdxType n_qubits);

/// Per-op-kind accumulated footprint.
struct OpCost {
  std::uint64_t count = 0;
  double amps = 0;
  double bytes = 0;
  double flops = 0;
};

/// Footprint of one scheduled window. For blocked windows `bytes` is the
/// cache-blocked traffic: the member gates' sweeps collapse into at most
/// one full-state pass (min(kBytesPerAmp * 2^n, per-gate sum) — a window
/// of cheap diagonals can undercut even a single sweep).
struct WindowCost {
  bool blocked = false;
  std::uint64_t gates = 0;
  double amps = 0;
  double bytes = 0;
  double flops = 0;
};

/// Whole-run expected footprint.
struct RunModel {
  bool enabled = false;
  double amps = 0;
  double bytes = 0;       // per-gate-loop traffic (no blocking)
  double bytes_sched = 0; // traffic under the schedule (== bytes when none)
  double flops = 0;
  std::array<OpCost, static_cast<std::size_t>(kNumOps)> by_op{};
  std::vector<WindowCost> windows; // empty when no schedule given
  /// Per-gate cumulative scheduled traffic: bytes_prefix[k] is the
  /// bytes_sched of gates [0, k), so back() == bytes_sched. A blocked
  /// window's bytes are spread evenly over its gates. The progress
  /// board's fraction and ETA read it.
  std::vector<double> bytes_prefix;
};

/// Price every gate of `circuit`; with a `schedule`, also price each
/// window and account cache blocking in bytes_sched.
RunModel model_run(const Circuit& circuit, const Schedule* schedule = nullptr);

/// One gate slot of a batched plan as it runs, per member: the footprint
/// of the pass it makes and the coefficient rows it reads. A gate the
/// plan absorbed into an earlier combined pass costs nothing.
struct SlotCost {
  GateCost cost;
  int rows = 0;
};

/// Price a lockstep-batched run (BatchedSim) as its plan runs it: slot k
/// (one per gate of `circuit`) costs slots[k] per member, × B, plus its
/// coefficient rows read once per sweep (the one gate-table read B
/// members amortize).
RunModel model_run_batched(const Circuit& circuit, const Schedule* schedule,
                           IdxType batch, const std::vector<SlotCost>& slots);

/// Join model + counters + machine peak into `report.roofline`, compute
/// the worst-attainment op kinds (needs per-op profiled seconds), and —
/// when tracing is active — emit "model GB/s" / "LLC GB/s" counter-track
/// samples for the [t0_us, t1_us] gate-loop interval under the trace
/// process `process`. Requires report.wall_seconds to be final.
void fold_roofline(RunReport& report, const RunModel& model,
                   const CounterSample& counters, double peak_gbps,
                   const std::string& process, double t0_us, double t1_us);

} // namespace svsim::obs
