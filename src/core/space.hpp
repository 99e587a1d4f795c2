// Address-space policies: the one abstraction that turns a single kernel
// source into the paper's three deployment tiers.
//
//  * LocalSpace  — single device: raw pointers into one partition
//                  (§3.2.1, Listing 3's scalar loop body).
//  * PeerSpace   — single-node scale-up: the state vector is partitioned
//                  across devices and remote partitions are reached through
//                  a shared pointer array, exactly the GPUDirect peer-access
//                  construction of Listing 4 (pos / sv_num_per_dev selects
//                  the owner, pos % sv_num_per_dev the local offset).
//  * ShmemSpace  — multi-node scale-out: the state vector lives in the
//                  SHMEM symmetric heap and every element access is a
//                  one-sided get/put, exactly Listing 5's
//                  nvshmem_double_g / nvshmem_double_p pattern.
//
// The two partitioned Spaces share one range seam (PartitionBases): every
// partition's base, resolved once. Every unitary work range — inside one
// partition or pairing amplitudes across partitions — runs the solo
// kernels at the run's lane level on the raw partitions, one run at a
// time, each role's partition resolved once per run (dispatch.hpp); the
// measure-all readout walks the raw partitions in logical runs
// (kern_measure_all_parts, kernels/nonunitary.hpp); measure and reset go
// through the raw view of all partitions (RawView). Either way the
// traffic is booked once per run or call through the Space's one
// counting method (count_access), to the same totals per-element
// counting gives. The Spaces' own element access
// (get_real, set_real, ...) routes and counts each access the way
// Listings 4/5 do; it stays as the per-element reference the range seam
// is tested against.
//
// Besides element access, the policy carries the small SPMD protocol the
// non-unitary kernels (measure/reset) need: worker identity, a barrier, a
// sum-reduction, and a collective uniform draw that returns the same value
// on every worker (each worker holds a replica of the same-seeded RNG and
// advances it only inside collective draws, so the replicas stay in
// lockstep).
#pragma once

#include <concepts>
#include <cstdint>

#include "common/aligned.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "shmem/barrier.hpp"
#include "shmem/shmem.hpp"

namespace svsim {

/// Shared mutable context for measurement-style kernels. One instance per
/// simulator; all workers see the same object.
struct MeasureCtx {
  IdxType* cbits = nullptr;      // classical register (>= n_cbits wide)
  IdxType* results = nullptr;    // MA shot outcomes (size n_shots)
  IdxType n_shots = 0;
  /// Virtual-readout permutation table (ir/remap): flattened n_qubits-wide
  /// logical→physical layout rows, indexed by the snapshot id an OP::MA
  /// gate carries in its cbit field. Null when the circuit was not
  /// remapped — kern_measure_all then sweeps physical order directly.
  const IdxType* ma_layouts = nullptr;
  IdxType n_qubits = 0;
};

// ---------------------------------------------------------------------------
// LocalSpace: one device owns the full state vector.
// ---------------------------------------------------------------------------
struct LocalSpace {
  ValType* real = nullptr;
  ValType* imag = nullptr;
  IdxType dim = 0; // 2^n amplitudes
  MeasureCtx* mctx = nullptr;
  Rng* rng = nullptr;

  // --- element access ---
  ValType get_real(IdxType i) const { return real[i]; }
  ValType get_imag(IdxType i) const { return imag[i]; }
  void set_real(IdxType i, ValType v) const { real[i] = v; }
  void set_imag(IdxType i, ValType v) const { imag[i] = v; }

  // --- SPMD protocol (degenerate: one worker) ---
  int worker() const { return 0; }
  int n_workers() const { return 1; }
  void sync() const {}
  ValType reduce_sum(ValType v) const { return v; }
  ValType collective_uniform() const { return rng->next_double(); }

  // --- local partition view (health-monitor scans) ---
  const ValType* local_real() const { return real; }
  const ValType* local_imag() const { return imag; }
  IdxType local_count() const { return dim; }
};

// ---------------------------------------------------------------------------
// The partitioned tiers' range seam.
// ---------------------------------------------------------------------------

/// Every partition's base, resolved once: the Listing 4 pointer array for
/// PeerSpace; for ShmemSpace, Ctx::ptr (the shmem_ptr analogue) at
/// ShmemSim's construction. The unitary ranges read each role's base from
/// here (KernelTable::on_range).
/// Partition p holds amplitudes [p·2^lg_part, (p+1)·2^lg_part).
struct PartitionBases {
  ValType* const* real_parts = nullptr; // one base per partition
  ValType* const* imag_parts = nullptr;
  IdxType lg_part = 0; // log2(amplitudes per partition)
  /// This worker's RawView tallies (measure and reset), a WorkerRows row:
  /// partition p's gets and puts in words 2p and 2p+1. All zero between
  /// calls.
  std::uint64_t* tally = nullptr;

  IdxType part_mask() const { return pow2(lg_part) - 1; }
  int owner(IdxType i) const { return static_cast<int>(i >> lg_part); }

  /// Partition p as a LocalSpace over its raw arrays (local indices), for
  /// a blocked window's diagonal runs.
  LocalSpace part(int p) const {
    LocalSpace sp;
    sp.real = real_parts[p];
    sp.imag = imag_parts[p];
    sp.dim = pow2(lg_part);
    return sp;
  }
};

/// A Space with the range seam: one partition per worker, whose raw
/// arrays it hands out, and one counting method that books `gets` loads
/// and `puts` stores of partition `partition`'s amplitudes in one call —
/// what that many element accesses count.
template <class Space>
concept PartitionedSpace =
    std::derived_from<Space, PartitionBases> &&
    requires(const Space& sp, int partition, std::uint64_t n) {
      sp.count_access(partition, n, n);
    };

/// The raw view of a partitioned Space, for measure and reset: the Space
/// itself (its SPMD protocol, measure context and counters) with element
/// access straight to the raw partitions,
/// amplitude i at real_parts[i >> lg_part][i & part_mask()]. Ctx::ptr
/// validated every ShmemSim base over its whole partition, so no
/// per-access check is lost. Each get and put is tallied per partition in
/// the worker's `tally` row; flush() books the tallies through
/// count_access, once per call, and leaves the row zero. It allocates
/// nothing.
template <class Space>
struct RawView : Space {
  explicit RawView(const Space& sp) : Space(sp) {}

  ValType get_real(IdxType i) const {
    ++this->tally[2 * this->owner(i)];
    return this->real_parts[this->owner(i)][i & this->part_mask()];
  }
  ValType get_imag(IdxType i) const {
    ++this->tally[2 * this->owner(i)];
    return this->imag_parts[this->owner(i)][i & this->part_mask()];
  }
  void set_real(IdxType i, ValType v) const {
    ++this->tally[2 * this->owner(i) + 1];
    this->real_parts[this->owner(i)][i & this->part_mask()] = v;
  }
  void set_imag(IdxType i, ValType v) const {
    ++this->tally[2 * this->owner(i) + 1];
    this->imag_parts[this->owner(i)][i & this->part_mask()] = v;
  }

  void flush() const {
    const int n_parts = this->n_workers();
    for (int p = 0; p < n_parts; ++p) {
      std::uint64_t* t = this->tally + 2 * p;
      if ((t[0] | t[1]) == 0) continue;
      this->count_access(p, t[0], t[1]);
      t[0] = 0;
      t[1] = 0;
    }
  }
};

/// Per-worker counter rows: `n_rows` zeroed rows of `words` words, each
/// row on its own cache line so the workers never false-share them.
class WorkerRows {
public:
  WorkerRows() = default;
  WorkerRows(int n_rows, std::size_t words)
      : stride_((words + kPerLine - 1) / kPerLine * kPerLine),
        words_(stride_ * static_cast<std::size_t>(n_rows)) {}

  std::uint64_t* row(int r) {
    return words_.data() + static_cast<std::size_t>(r) * stride_;
  }

private:
  static constexpr std::size_t kPerLine =
      kBufferAlign / sizeof(std::uint64_t);
  std::size_t stride_ = 0;
  AlignedBuffer<std::uint64_t> words_;
};

/// Per-device communication counters for the peer tier (local vs
/// remote-partition element accesses through the pointer array).
/// `per_dest`, an n_workers-sized array, also attributes every access to
/// the partition it touched — the raw data for the run report's PE×PE
/// traffic matrix. Every device's gate loop books its ranges and calls
/// into these, so each device's counters own a whole cache line: packed,
/// the workers would false-share them.
struct alignas(64) PeerTraffic {
  std::uint64_t local_access = 0;
  std::uint64_t remote_access = 0;
  std::uint64_t* per_dest = nullptr; // element accesses by owning device
};

// ---------------------------------------------------------------------------
// PeerSpace: partitions behind a shared pointer array (Listing 4).
// ---------------------------------------------------------------------------
struct PeerSpace : PartitionBases { // the shared pointer array
  IdxType dim = 0;
  MeasureCtx* mctx = nullptr;
  Rng* rng = nullptr; // per-worker replica, same seed on every worker

  int worker_id = 0;
  int num_workers = 1;
  shmem::Barrier* barrier = nullptr;  // device "grid.sync()"
  ValType* scratch = nullptr;         // n_workers slots for reductions
  PeerTraffic* traffic = nullptr;     // this worker's counters

  /// `gets` + `puts` element accesses to partition `partition`.
  void count_access(int partition, std::uint64_t gets,
                    std::uint64_t puts) const {
    const std::uint64_t n = gets + puts;
    if (partition == worker_id) {
      traffic->local_access += n;
    } else {
      traffic->remote_access += n;
    }
    traffic->per_dest[partition] += n;
  }

  // Element access counted one by one: the range seam's reference.
  ValType get_real(IdxType i) const {
    count_access(owner(i), 1, 0);
    return real_parts[owner(i)][i & part_mask()];
  }
  ValType get_imag(IdxType i) const {
    count_access(owner(i), 1, 0);
    return imag_parts[owner(i)][i & part_mask()];
  }
  void set_real(IdxType i, ValType v) const {
    count_access(owner(i), 0, 1);
    real_parts[owner(i)][i & part_mask()] = v;
  }
  void set_imag(IdxType i, ValType v) const {
    count_access(owner(i), 0, 1);
    imag_parts[owner(i)][i & part_mask()] = v;
  }

  int worker() const { return worker_id; }
  int n_workers() const { return num_workers; }
  void sync() const { barrier->arrive_and_wait(); }

  ValType reduce_sum(ValType v) const {
    // One kReduction wait span covering both barriers (inner kBarrier
    // scopes are nesting-suppressed), mirroring shmem's all_gather.
    obs::WaitScope wait(obs::WaitKind::kReduction);
    scratch[worker_id] = v;
    sync();
    ValType total = 0;
    for (int w = 0; w < num_workers; ++w) total += scratch[w];
    sync(); // scratch reusable afterwards
    return total;
  }

  ValType collective_uniform() const { return rng->next_double(); }

  // --- local partition view (health-monitor scans) ---
  const ValType* local_real() const { return real_parts[worker_id]; }
  const ValType* local_imag() const { return imag_parts[worker_id]; }
  IdxType local_count() const { return pow2(lg_part); }
};

// ---------------------------------------------------------------------------
// ShmemSpace: symmetric-heap partitions behind one-sided get/put
// (Listing 5). The inherited bases are every PE's partition through
// Ctx::ptr, for the unitary ranges, the readout and the RawView.
// ---------------------------------------------------------------------------
struct ShmemSpace : PartitionBases {
  shmem::Ctx* ctx = nullptr;
  ValType* real_sym = nullptr; // my partition of the symmetric allocation
  ValType* imag_sym = nullptr;
  IdxType dim = 0;
  MeasureCtx* mctx = nullptr;
  Rng* rng = nullptr; // per-PE replica, same seed on every PE

  /// `gets` loads and `puts` stores of one ValType at PE `partition`:
  /// what that many g()/p() calls count.
  void count_access(int partition, std::uint64_t gets,
                    std::uint64_t puts) const {
    ctx->count_direct(partition, gets, puts, sizeof(ValType));
  }

  // One-sided get/put per element: the range seam's reference.
  ValType get_real(IdxType i) const {
    return ctx->g(real_sym + (i & part_mask()), owner(i));
  }
  ValType get_imag(IdxType i) const {
    return ctx->g(imag_sym + (i & part_mask()), owner(i));
  }
  void set_real(IdxType i, ValType v) const {
    ctx->p(real_sym + (i & part_mask()), v, owner(i));
  }
  void set_imag(IdxType i, ValType v) const {
    ctx->p(imag_sym + (i & part_mask()), v, owner(i));
  }

  int worker() const { return ctx->pe(); }
  int n_workers() const { return ctx->n_pes(); }
  void sync() const { ctx->barrier_all(); }
  ValType reduce_sum(ValType v) const { return ctx->all_reduce_sum(v); }
  ValType collective_uniform() const { return rng->next_double(); }

  // --- local partition view (health-monitor scans) ---
  const ValType* local_real() const { return real_sym; }
  const ValType* local_imag() const { return imag_sym; }
  IdxType local_count() const { return pow2(lg_part); }
};

} // namespace svsim
