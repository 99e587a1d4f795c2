// obs::Registry — process-global named counters and gauges.
//
// The observability core: backends, the SHMEM runtime, and user code
// register monotonic counters ("runs.shmem", "obs.trace_events") and
// gauges ("mem.rss_bytes") by name. Entries are created on first use and
// are never removed — the returned references stay valid for the life of
// the process, so hot paths look a counter up once (e.g. a
// function-local static) and afterwards pay exactly one relaxed atomic
// add. All mutation is lock-free; only name resolution takes the
// registry mutex. reset() zeroes values in place rather than erasing
// entries, preserving cached references.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace svsim::obs {

namespace detail {
/// fetch_add for doubles via CAS (std::atomic<double>::fetch_add is C++20
/// but not yet reliable across the toolchains this builds on).
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
} // namespace detail

/// Monotonic counter. Thread/PE-safe; one relaxed atomic add per bump.
class Counter {
public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (bytes resident, queue depth): last-write-wins
/// set() plus CAS add(), one relaxed atomic each. Thread/PE-safe.
class Gauge {
public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) { detail::atomic_add(v_, d); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<double> v_{0};
};

class Registry {
public:
  /// The process-wide registry every subsystem shares.
  static Registry& global();

  /// Find-or-create. Returned references are valid forever.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  /// Zero every entry in place (entries are kept; cached refs stay valid).
  void reset();

  /// Snapshot views for exporters/tests (sorted by name).
  std::vector<std::pair<std::string, std::uint64_t>> counter_values() const;
  std::vector<std::pair<std::string, double>> gauge_values() const;

  /// Prometheus text exposition (version 0.0.4) of every entry: counters
  /// as `svsim_<name>_total`, gauges as plain `svsim_<name>` —
  /// scrapeable without parsing JSON (`qasm_runner --metrics`). Names
  /// are sanitized to [a-zA-Z0-9_].
  std::string write_prom() const;

private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

} // namespace svsim::obs
