// obs::HealthMonitor — streaming numerical-invariant checks over the
// partitioned state vector.
//
// A state-vector simulation has two invariants worth watching while it
// runs: every amplitude stays finite, and ‖ψ‖² stays 1 (unitary gates
// preserve it; measurement renormalizes it). Silent violations — a NaN
// injected by a bad initial state, norm drift accumulated over millions
// of rotation gates — corrupt every downstream sample without any
// visible failure. The monitor checks both at a configurable gate
// cadence: each worker scans its *local* partition at the run's lane
// level (scan_amplitudes in core/dispatch.hpp; no extra communication
// beyond one reduction), worker 0 records the globally reduced result,
// and every worker evaluates the same escalation decision so
// distributed backends break out of the gate loop together instead of
// deadlocking at the next barrier.
//
// Escalation policy: every violation counts (HealthStats), violations
// above the warn threshold log WARN, and drift above the abort
// threshold (or any non-finite value when abort-on-NaN is set) stops
// the run with HealthStats::aborted — the run's report survives, the
// state vector is left as-is for forensics.
//
// Activation: HealthOptions, resolved from SimConfig::health_* and
// SVSIM_HEALTH / SVSIM_HEALTH_ABORT (common/config.hpp): a checkpoint
// every n gates; an abort drift also turns on abort-on-NaN.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "common/types.hpp"
#include "obs/report.hpp"

namespace svsim::obs {

/// Process-global mirror of the most recent monitor's stats, published
/// from HealthMonitor (relaxed atomics, one field at a time, which is
/// coherent enough for a liveness endpoint) so the embedded httpd's
/// /healthz can read them off the worker threads. `enabled` is false
/// until a monitor has been constructed in this process.
HealthStats health_snapshot();

/// Publish a monitor's stats into the mirror. Called by the HealthMonitor
/// constructor (resetting the mirror) and by observe() (worker 0 only, a
/// single writer).
void health_mirror_publish(const HealthStats& stats);

/// The GET /healthz document: "status" (ok / tripped / unmonitored) and
/// "monitored", then the health record written by the same write_fields()
/// as the report's `health` section.
std::string healthz_json(const HealthStats& health);

class HealthMonitor {
public:
  explicit HealthMonitor(HealthOptions opt) : opt_(opt) {
    stats_.enabled = true;
    stats_.every_n = opt.every_n;
    health_mirror_publish(stats_);
  }

  int every_n() const { return opt_.every_n; }

  /// Record one checkpoint from globally reduced values. Exactly one
  /// worker (worker 0) calls this per checkpoint; it updates the stats
  /// and performs the WARN-log escalation.
  void observe(std::uint64_t gate_hi, double norm2, std::uint64_t non_finite);

  /// The abort decision as a pure function of the reduced values, so
  /// every worker — each holding the same reduction result — reaches the
  /// same verdict and distributed gate loops stop in lockstep.
  bool should_abort(double norm2, std::uint64_t non_finite) const;

  const HealthStats& stats() const { return stats_; }

  /// Fold the accumulated stats into the run's report.
  void finish(RunReport& report) { report.health = stats_; }

private:
  HealthOptions opt_;
  HealthStats stats_;
  std::uint64_t prev_gate_ = 0; // gate index of the previous checkpoint
};

} // namespace svsim::obs
