#include "obs/health.hpp"

#include <atomic>
#include <cfloat>
#include <cmath>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "common/logging.hpp"

namespace svsim::obs {

namespace {

/// Scalar reference: Σv² plus a count of non-finite entries.
inline void scan_array_scalar(const ValType* v, IdxType count, double* sq,
                              std::uint64_t* bad) {
  double acc = 0;
  std::uint64_t nf = 0;
  for (IdxType i = 0; i < count; ++i) {
    const double x = v[i];
    acc += x * x;
    // !(|x| <= DBL_MAX) is true exactly for NaN (unordered) and ±Inf.
    if (!(std::fabs(x) <= DBL_MAX)) ++nf;
  }
  *sq += acc;
  *bad += nf;
}

#if defined(__AVX512F__)

inline void scan_array(const ValType* v, IdxType count, double* sq,
                       std::uint64_t* bad) {
  const __m512d abs_mask =
      _mm512_castsi512_pd(_mm512_set1_epi64(0x7fffffffffffffffLL));
  const __m512d dbl_max = _mm512_set1_pd(DBL_MAX);
  __m512d acc = _mm512_setzero_pd();
  std::uint64_t nf = 0;
  IdxType i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512d x = _mm512_loadu_pd(v + i);
    acc = _mm512_fmadd_pd(x, x, acc);
    const __m512d ax = _mm512_and_pd(x, abs_mask);
    // NLE_UQ: |x| not-less-equal DBL_MAX, unordered (NaN) included.
    nf += static_cast<std::uint64_t>(__builtin_popcount(
        _mm512_cmp_pd_mask(ax, dbl_max, _CMP_NLE_UQ)));
  }
  // _mm512_reduce_add_pd's order, spelled out: GCC 12's version reads an
  // uninitialized register (-Wuninitialized).
  alignas(64) double l[8];
  _mm512_store_pd(l, acc);
  *sq += ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
  *bad += nf;
  if (i < count) scan_array_scalar(v + i, count - i, sq, bad);
}

#elif defined(__AVX2__)

inline void scan_array(const ValType* v, IdxType count, double* sq,
                       std::uint64_t* bad) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d dbl_max = _mm256_set1_pd(DBL_MAX);
  __m256d acc = _mm256_setzero_pd();
  std::uint64_t nf = 0;
  IdxType i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(x, x));
    const __m256d ax = _mm256_and_pd(x, abs_mask);
    const __m256d m = _mm256_cmp_pd(ax, dbl_max, _CMP_NLE_UQ);
    nf += static_cast<std::uint64_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_pd(m))));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  *sq += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  *bad += nf;
  if (i < count) scan_array_scalar(v + i, count - i, sq, bad);
}

#else

inline void scan_array(const ValType* v, IdxType count, double* sq,
                       std::uint64_t* bad) {
  scan_array_scalar(v, count, sq, bad);
}

#endif

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

void scan_amplitudes(const ValType* re, const ValType* im, IdxType count,
                     double* norm2, std::uint64_t* non_finite) {
  double sq = 0;
  std::uint64_t bad = 0;
  scan_array(re, count, &sq, &bad);
  scan_array(im, count, &sq, &bad);
  *norm2 = sq;
  *non_finite = bad;
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
