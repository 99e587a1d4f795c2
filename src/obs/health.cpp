#include "obs/health.hpp"

#include <atomic>
#include <cmath>

#include "common/logging.hpp"

namespace svsim::obs {

namespace {

/// The /healthz mirror: one writer (worker 0 via observe), relaxed
/// readers off the worker threads. Plain atomics — the fields need not
/// be mutually consistent, only individually fresh.
struct HealthMirror {
  std::atomic<bool> monitored{false};
  std::atomic<std::uint64_t> checks{0};
  std::atomic<std::uint64_t> nan_checks{0};
  std::atomic<std::uint64_t> warns{0};
  std::atomic<std::uint64_t> non_finite{0};
  std::atomic<double> last_norm2{1.0};
  std::atomic<double> max_drift{0};
  std::atomic<bool> aborted{false};
};

HealthMirror& mirror() {
  static HealthMirror m;
  return m;
}

} // namespace

HealthSnapshot health_snapshot() {
  const HealthMirror& m = mirror();
  HealthSnapshot s;
  s.monitored = m.monitored.load(std::memory_order_relaxed);
  s.checks = m.checks.load(std::memory_order_relaxed);
  s.nan_checks = m.nan_checks.load(std::memory_order_relaxed);
  s.warns = m.warns.load(std::memory_order_relaxed);
  s.non_finite = m.non_finite.load(std::memory_order_relaxed);
  s.last_norm2 = m.last_norm2.load(std::memory_order_relaxed);
  s.max_drift = m.max_drift.load(std::memory_order_relaxed);
  s.aborted = m.aborted.load(std::memory_order_relaxed);
  return s;
}

void health_mirror_begin() {
  HealthMirror& m = mirror();
  m.checks.store(0, std::memory_order_relaxed);
  m.nan_checks.store(0, std::memory_order_relaxed);
  m.warns.store(0, std::memory_order_relaxed);
  m.non_finite.store(0, std::memory_order_relaxed);
  m.last_norm2.store(1.0, std::memory_order_relaxed);
  m.max_drift.store(0, std::memory_order_relaxed);
  m.aborted.store(false, std::memory_order_relaxed);
  m.monitored.store(true, std::memory_order_relaxed);
}

void health_mirror_publish(const HealthStats& stats) {
  HealthMirror& m = mirror();
  m.checks.store(stats.checks, std::memory_order_relaxed);
  m.nan_checks.store(stats.nan_checks, std::memory_order_relaxed);
  m.warns.store(stats.warns, std::memory_order_relaxed);
  m.non_finite.store(stats.non_finite, std::memory_order_relaxed);
  m.last_norm2.store(stats.last_norm2, std::memory_order_relaxed);
  m.max_drift.store(stats.max_drift, std::memory_order_relaxed);
  m.aborted.store(stats.aborted, std::memory_order_relaxed);
}

void HealthMonitor::observe(std::uint64_t gate_hi, double norm2,
                            std::uint64_t non_finite) {
  ++stats_.checks;
  stats_.last_norm2 = norm2;
  if (non_finite != 0) {
    ++stats_.nan_checks;
    if (non_finite > stats_.non_finite) stats_.non_finite = non_finite;
    if (stats_.nan_checks <= 5) { // rate-limit: the state rarely heals
      log_warn("health: ", non_finite, " non-finite amplitude value",
               non_finite == 1 ? "" : "s", " in gate range (", prev_gate_,
               ", ", gate_hi, "]");
    }
  } else if (std::isfinite(norm2)) {
    const double drift = std::fabs(norm2 - 1.0);
    if (drift > stats_.max_drift) {
      stats_.max_drift = drift;
      stats_.drift_gate_lo = prev_gate_;
      stats_.drift_gate_hi = gate_hi;
    }
    if (drift > opt_.warn_drift) {
      ++stats_.warns;
      if (stats_.warns <= 5) {
        log_warn("health: norm drift |‖ψ‖²-1| = ", drift,
                 " in gate range (", prev_gate_, ", ", gate_hi, "]");
      }
    }
  }
  if (should_abort(norm2, non_finite)) {
    stats_.aborted = true;
    log_error("health: abort threshold tripped after gate ", gate_hi,
              " (norm² = ", norm2, ", non-finite = ", non_finite,
              "); stopping the run");
  }
  prev_gate_ = gate_hi;
  health_mirror_publish(stats_);
}

bool HealthMonitor::should_abort(double norm2,
                                 std::uint64_t non_finite) const {
  if (opt_.abort_on_nan && non_finite != 0) return true;
  if (opt_.abort_drift > 0) {
    // A non-finite norm is "infinite drift": above any threshold.
    if (!std::isfinite(norm2)) return true;
    return std::fabs(norm2 - 1.0) > opt_.abort_drift;
  }
  return false;
}

} // namespace svsim::obs
