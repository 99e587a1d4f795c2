// Wall-clock timing.
//
// The paper times GPU backends with CUDA/HIP events and CPU backends with
// system timers; here everything is host code, so a steady_clock wrapper
// with microsecond resolution covers both roles. Benchmarks report the
// average of repeated runs, mirroring the paper's 10-run averaging.
#pragma once

#include <chrono>

namespace svsim {

/// Simple steady-clock stopwatch.
class Timer {
public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed time since construction/reset, in seconds.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds (the unit used throughout the paper's
  /// evaluation figures).
  double millis() const { return seconds() * 1e3; }

  class ScopedAccum;

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// RAII accumulator: adds the elapsed seconds to the bound double on
/// destruction. Replaces the manual start/stop-and-add pairs scattered
/// through the backends and VQA drivers:
///
///   { Timer::ScopedAccum t(total_seconds); expensive_work(); }
class Timer::ScopedAccum {
public:
  explicit ScopedAccum(double& acc) : acc_(acc) {}
  ~ScopedAccum() { acc_ += timer_.seconds(); }

  ScopedAccum(const ScopedAccum&) = delete;
  ScopedAccum& operator=(const ScopedAccum&) = delete;

private:
  Timer timer_;
  double& acc_;
};

} // namespace svsim
