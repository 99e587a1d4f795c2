// obs::memtrack — tagged allocation registry + RSS/NUMA sampling: the
// bytes-resident leg of the observability plane.
//
// The simulator's defining resource is memory: a 2^n state vector is 16
// bytes per amplitude before any backend multiplier, and per-node
// footprint is what gates weak scaling. This module makes bytes-resident
// a first-class observable:
//
//  * TrackedBuffer<T> wraps common/aligned.hpp's AlignedBuffer with a
//    component tag (state planes, batched lanes, shmem heap, mailboxes,
//    phase tables, oracle scratch) and an owning PE, registering every
//    large allocation with the process-global MemRegistry — current and
//    peak bytes per tag and per PE, plus the high-water timestamp on the
//    shared trace clock.
//  * MemRegistry samples the kernel's view on read, in the reader's
//    thread: /proc/self/status (VmRSS/VmHWM), /proc/self/smaps_rollup
//    (THP), and page placement of tracked buffers via the move_pages(2) /
//    get_mempolicy(2) syscalls for per-NUMA-node attribution. A deep
//    sample (all three) backs fold_memory() and GET /memory; a shallow
//    one (VmRSS/VmHWM) backs GET /metrics and the run pipeline's rss_mb
//    trace points. VmHWM is the kernel's own high-water mark, so no
//    reader needs a sample taken during a run. Like the perf-counter
//    tier, everything degrades gracefully: on non-Linux or locked-down
//    containers the sample is marked unavailable with the reason string,
//    and the tag accounting — which needs no kernel help — keeps working.
//  * fold_memory() joins the registry snapshot and the capacity
//    estimator (obs/capacity.hpp) into RunReport::memory, the additive
//    `memory` section of svsim-report-v1.
//
// Activation: on by default; SVSIM_MEMTRACK=0 disables the registry for
// overhead-sensitive runs. The module starts no thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned.hpp"

namespace svsim::obs {

struct RunReport;

/// Component tags for tracked allocations. Keep mem_tag_name() in sync.
enum class MemTag : int {
  kState = 0,   // re/im amplitude planes (single/peer/coarse/generalized)
  kBatch,       // batch-innermost lanes (BatchedSim)
  kShmemHeap,   // symmetric-heap arenas (shmem runtime, one per PE)
  kMailbox,     // coarse baseline's in-flight message payloads
  kPhaseTable,  // blocked scheduler's per-window diagonal phase tables
  kCoef,        // batched engine's per-plan coefficient rows
  kOracle,      // dense-matrix oracle state (testing tier)
  kOther,
};
inline constexpr int kNumMemTags = 8;

/// Static display name ("state", "shmem_heap", ...).
const char* mem_tag_name(MemTag tag);

/// The memory record: exact tagged-allocation accounting, the last /proc
/// sample, NUMA page placement and, in a run report, the analytic
/// footprint estimate. MemRegistry::snapshot() fills all but the estimate;
/// fold_memory() adds it. Byte counts are the 64-byte-rounded sizes the
/// allocator actually reserved. `sampled == false` / `numa == false` with
/// error strings are the graceful degradations on hosts without a
/// readable procfs or with the NUMA syscalls denied.
struct MemoryStats {
  bool enabled = false;

  // Tag accounting (exact, kernel-independent).
  std::uint64_t tracked_bytes = 0; // live now
  std::uint64_t tracked_peak = 0;  // high-water of tracked bytes
  double peak_ts_us = 0;           // trace-clock time the peak was set
  struct Tag {
    std::uint64_t current = 0;
    std::uint64_t peak = 0;
  };
  Tag by_tag[kNumMemTags] = {}; // indexed by MemTag
  struct Pe {
    int pe = -1;
    std::uint64_t current = 0;
    std::uint64_t peak = 0;
    int node = -1; // dominant NUMA node of this PE's pages (-1 unknown)
  };
  std::vector<Pe> per_pe; // PEs seen, ascending; pe -1 rows omitted

  // Process sample (/proc/self/status + smaps_rollup).
  bool sampled = false;
  std::string sample_error;
  std::uint64_t rss_bytes = 0;    // VmRSS at the last sample
  std::uint64_t hwm_bytes = 0;    // VmHWM (kernel high-water mark, exact
                                  // between samples)
  std::uint64_t baseline_rss = 0; // VmRSS before the first tracked alloc
  std::uint64_t thp_bytes = 0;    // AnonHugePages from smaps_rollup
  std::uint64_t samples = 0;      // samples taken so far

  // NUMA placement of tracked pages (move_pages/get_mempolicy).
  bool numa = false;
  std::string numa_error;
  std::vector<std::uint64_t> node_bytes; // tracked bytes per NUMA node

  // Analytic estimate (obs/capacity) for a report's backend and shape;
  // 0 outside a report.
  double estimated_bytes = 0;

  /// max(VmHWM, last VmRSS): the peak RSS the report and ledger carry.
  std::uint64_t peak_rss() const {
    return hwm_bytes > rss_bytes ? hwm_bytes : rss_bytes;
  }
  /// Relative error of the estimate against the tracked peak (the
  /// deterministic surface the 10% acceptance bound is pinned on).
  double estimate_error() const {
    if (tracked_peak == 0) return 0;
    return (estimated_bytes - static_cast<double>(tracked_peak)) /
           static_cast<double>(tracked_peak);
  }
};

/// Process-global registry of tracked allocations. All mutation takes a
/// mutex — registration happens per *allocation*, not per gate, so this
/// is nowhere near the hot path.
class MemRegistry {
public:
  static MemRegistry& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Environment variables are read once, so benches that want an
  /// off/on overhead pair within one process toggle this directly.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Register `bytes` of live memory at `ptr` under `tag`, owned by `pe`
  /// (-1 = unowned). Returns an id for untrack(), 0 when disabled.
  std::uint64_t track(MemTag tag, const void* ptr, std::size_t bytes, int pe);
  void untrack(std::uint64_t id);

  /// Account transient memory with no stable address (in-flight message
  /// payloads): signed delta against `tag`/`pe`. NUMA sampling skips it.
  void adjust(MemTag tag, std::int64_t delta, int pe = -1);

  /// Capture the pre-allocation VmRSS baseline. First call wins; every
  /// backend calls this (via admit_dim / TrackedBuffer) before
  /// its first big allocation touches pages.
  void ensure_baseline();

  /// Take one deep sample (status + smaps_rollup + NUMA walk) in the
  /// caller's thread: fold_memory() and GET /memory.
  void sample_now();
  /// Take one shallow sample (VmRSS/VmHWM only) in the caller's thread:
  /// GET /metrics and the rss_mb trace points. Returns VmRSS in bytes,
  /// 0 when the registry is off or /proc is unreadable.
  std::uint64_t sample_rss();

  MemoryStats snapshot() const;

  /// Tests: collapse peaks to current values so accounting assertions
  /// are independent of what earlier tests allocated.
  void reset_peaks_for_testing();
  /// Tests: redirect procfs reads ("/proc/self" by default); a bogus
  /// root exercises the sampled==false degradation path.
  void set_proc_root_for_testing(const std::string& root);
  /// Tests: force the NUMA syscalls to report unavailable.
  void force_numa_unavailable_for_testing(bool on);

private:
  MemRegistry();

  struct Record {
    MemTag tag = MemTag::kOther;
    const void* ptr = nullptr;
    std::uint64_t bytes = 0;
    int pe = -1;
    int node = -1; // dominant node from the last NUMA walk
  };
  void apply_delta_locked(MemTag tag, std::int64_t delta, int pe);
  void sample_proc_locked(bool deep);
  void sample_numa_locked();

  mutable std::mutex mu_;
  std::atomic<bool> enabled_;
  std::map<std::uint64_t, Record> live_;
  std::uint64_t next_id_ = 1;

  // Aggregates and the last sample (per_pe lives in per_pe_), guarded by
  // mu_.
  MemoryStats rec_;
  std::map<int, MemoryStats::Pe> per_pe_;
  std::string proc_root_ = "/proc/self";
  bool baseline_done_ = false;
  std::atomic<bool> numa_forced_off_{false};
};

/// AlignedBuffer with registration: same surface (allocate / release /
/// zero / data / size), plus the component tag and owning PE. Byte
/// accounting matches the allocator exactly (sizes round up to the
/// 64-byte alignment quantum). Move-only, like the buffer it wraps.
template <typename T>
class TrackedBuffer {
public:
  TrackedBuffer() = default;
  explicit TrackedBuffer(std::size_t count, MemTag tag = MemTag::kOther,
                         int pe = -1) {
    allocate(count, tag, pe);
  }
  ~TrackedBuffer() { release(); }

  TrackedBuffer(const TrackedBuffer&) = delete;
  TrackedBuffer& operator=(const TrackedBuffer&) = delete;
  TrackedBuffer(TrackedBuffer&& other) noexcept
      : buf_(std::move(other.buf_)), id_(other.id_) {
    other.id_ = 0;
  }
  TrackedBuffer& operator=(TrackedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      buf_ = std::move(other.buf_);
      id_ = other.id_;
      other.id_ = 0;
    }
    return *this;
  }

  void allocate(std::size_t count, MemTag tag = MemTag::kOther, int pe = -1) {
    release();
    // Baseline RSS must predate the zero-fill below first-touching the
    // pages, or rss-minus-baseline would hide the first allocation.
    MemRegistry::global().ensure_baseline();
    buf_.allocate(count);
    if (count != 0) {
      id_ = MemRegistry::global().track(tag, buf_.data(),
                                        tracked_bytes(count), pe);
    }
  }

  void release() {
    if (id_ != 0) {
      MemRegistry::global().untrack(id_);
      id_ = 0;
    }
    buf_.release();
  }

  void zero() { buf_.zero(); }
  T* data() { return buf_.data(); }
  const T* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  T& operator[](std::size_t i) { return buf_[i]; }
  const T& operator[](std::size_t i) const { return buf_[i]; }

  /// Bytes the allocator reserves for `count` elements (64-byte quantum).
  static std::size_t tracked_bytes(std::size_t count) {
    const std::size_t raw = count * sizeof(T);
    return (raw + 63) / 64 * 64;
  }

private:
  AlignedBuffer<T> buf_;
  std::uint64_t id_ = 0;
};

/// RAII aggregate for container-backed allocations that are awkward to
/// wrap individually (a window's phase tables, the oracle's state):
/// add() registers bytes as they appear; destruction returns them all.
class MemAdjust {
public:
  MemAdjust() = default;
  explicit MemAdjust(MemTag tag, int pe = -1) : tag_(tag), pe_(pe) {}
  ~MemAdjust() { reset(); }

  MemAdjust(const MemAdjust&) = delete;
  MemAdjust& operator=(const MemAdjust&) = delete;
  MemAdjust(MemAdjust&& other) noexcept
      : tag_(other.tag_), pe_(other.pe_), total_(other.total_) {
    other.total_ = 0;
  }
  MemAdjust& operator=(MemAdjust&& other) noexcept {
    if (this != &other) {
      reset();
      tag_ = other.tag_;
      pe_ = other.pe_;
      total_ = other.total_;
      other.total_ = 0;
    }
    return *this;
  }

  void add(std::int64_t bytes) {
    if (bytes == 0) return;
    total_ += bytes;
    MemRegistry::global().adjust(tag_, bytes, pe_);
  }
  void reset() {
    if (total_ != 0) {
      MemRegistry::global().adjust(tag_, -total_, pe_);
      total_ = 0;
    }
  }
  std::int64_t total() const { return total_; }

private:
  MemTag tag_ = MemTag::kOther;
  int pe_ = -1;
  std::int64_t total_ = 0;
};

/// The GET /memory document (schema "svsim-memory-v1"): the memory
/// record, written by the same write_fields() as the report's section.
std::string memory_json(const MemoryStats& snap);

/// Snapshot the registry (taking one synchronous sample first) into
/// `report.memory`, and attach the analytic footprint estimate for the
/// report's backend/shape. No-op body (enabled=false) when tracking is
/// off. Called lazily from Simulator::last_report().
void fold_memory(RunReport& report);

} // namespace svsim::obs
