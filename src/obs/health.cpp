#include "obs/health.hpp"

#include <atomic>
#include <cmath>

#include "common/logging.hpp"
#include "obs/jsonlite.hpp"

namespace svsim::obs {

namespace {

/// The /healthz mirror: one writer at a time (a monitor's constructor,
/// then its worker 0), relaxed readers off the worker threads. Plain
/// atomics — the fields need not be mutually consistent, only
/// individually fresh.
struct HealthMirror {
  std::atomic<bool> enabled{false};
  std::atomic<int> every_n{0};
  std::atomic<std::uint64_t> checks{0};
  std::atomic<std::uint64_t> nan_checks{0};
  std::atomic<std::uint64_t> non_finite{0};
  std::atomic<double> max_drift{0};
  std::atomic<double> last_norm2{1.0};
  std::atomic<std::uint64_t> drift_gate_lo{0};
  std::atomic<std::uint64_t> drift_gate_hi{0};
  std::atomic<std::uint64_t> warns{0};
  std::atomic<bool> aborted{false};
};

HealthMirror& mirror() {
  static HealthMirror m;
  return m;
}

} // namespace

HealthStats health_snapshot() {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  const HealthMirror& m = mirror();
  HealthStats s;
  s.enabled = m.enabled.load(kRelaxed);
  s.every_n = m.every_n.load(kRelaxed);
  s.checks = m.checks.load(kRelaxed);
  s.nan_checks = m.nan_checks.load(kRelaxed);
  s.non_finite = m.non_finite.load(kRelaxed);
  s.max_drift = m.max_drift.load(kRelaxed);
  s.last_norm2 = m.last_norm2.load(kRelaxed);
  s.drift_gate_lo = m.drift_gate_lo.load(kRelaxed);
  s.drift_gate_hi = m.drift_gate_hi.load(kRelaxed);
  s.warns = m.warns.load(kRelaxed);
  s.aborted = m.aborted.load(kRelaxed);
  return s;
}

void health_mirror_publish(const HealthStats& stats) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  HealthMirror& m = mirror();
  m.every_n.store(stats.every_n, kRelaxed);
  m.checks.store(stats.checks, kRelaxed);
  m.nan_checks.store(stats.nan_checks, kRelaxed);
  m.non_finite.store(stats.non_finite, kRelaxed);
  m.max_drift.store(stats.max_drift, kRelaxed);
  m.last_norm2.store(stats.last_norm2, kRelaxed);
  m.drift_gate_lo.store(stats.drift_gate_lo, kRelaxed);
  m.drift_gate_hi.store(stats.drift_gate_hi, kRelaxed);
  m.warns.store(stats.warns, kRelaxed);
  m.aborted.store(stats.aborted, kRelaxed);
  m.enabled.store(stats.enabled, kRelaxed);
}

std::string healthz_json(const HealthStats& health) {
  const char* status = !health.enabled  ? "unmonitored"
                       : health.tripped() ? "tripped"
                                          : "ok";
  jsonlite::Writer w;
  w.begin_object().field("status", status).field("monitored", health.enabled);
  write_fields(w, health);
  return w.end_object().take() + '\n';
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
