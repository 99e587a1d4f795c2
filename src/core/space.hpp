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
// partition's base, resolved once, so a work range that stays inside one
// partition runs LocalSpace's scalar strategy on that partition's raw
// arrays, and its traffic is counted once per range (count_touched)
// instead of once per element (dispatch.hpp).
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
/// ShmemSim's construction.
/// Partition p holds amplitudes [p·2^lg_part, (p+1)·2^lg_part).
struct PartitionBases {
  ValType* const* real_parts = nullptr; // one base per partition
  ValType* const* imag_parts = nullptr;
  IdxType lg_part = 0; // log2(amplitudes per partition)

  IdxType part_mask() const { return pow2(lg_part) - 1; }
  int owner(IdxType i) const { return static_cast<int>(i >> lg_part); }

  /// Partition p as a LocalSpace over its raw arrays (local indices).
  LocalSpace part(int p) const {
    LocalSpace sp;
    sp.real = real_parts[p];
    sp.imag = imag_parts[p];
    sp.dim = pow2(lg_part);
    return sp;
  }
};

/// A Space with the range seam: besides element access it can hand out
/// a partition's raw arrays and count `amps` amplitudes of partition
/// `partition` read and written in place (2 gets + 2 puts each) in one
/// call.
template <class Space>
concept PartitionedSpace =
    std::derived_from<Space, PartitionBases> &&
    requires(const Space& sp, int partition, std::uint64_t amps) {
      sp.count_touched(partition, amps);
    };

/// Per-device communication counters for the peer tier (local vs
/// remote-partition element accesses through the pointer array).
/// `per_dest`, an n_workers-sized array, also attributes every access to
/// the partition it touched — the raw data for the run report's PE×PE
/// traffic matrix. Element accesses and whole ranges bump
/// these from every device's gate loop, so each device's counters own a
/// whole cache line: packed, the workers would false-share them.
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

  /// `n` element accesses to partition `dest`.
  void count(int dest, std::uint64_t n) const {
    if (dest == worker_id) {
      traffic->local_access += n;
    } else {
      traffic->remote_access += n;
    }
    traffic->per_dest[dest] += n;
  }
  void count_touched(int partition, std::uint64_t amps) const {
    count(partition, 4 * amps);
  }

  ValType get_real(IdxType i) const {
    count(owner(i), 1);
    return real_parts[owner(i)][i & part_mask()];
  }
  ValType get_imag(IdxType i) const {
    count(owner(i), 1);
    return imag_parts[owner(i)][i & part_mask()];
  }
  void set_real(IdxType i, ValType v) const {
    count(owner(i), 1);
    real_parts[owner(i)][i & part_mask()] = v;
  }
  void set_imag(IdxType i, ValType v) const {
    count(owner(i), 1);
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
// Ctx::ptr, for the ranges that stay inside one partition.
// ---------------------------------------------------------------------------
struct ShmemSpace : PartitionBases {
  shmem::Ctx* ctx = nullptr;
  ValType* real_sym = nullptr; // my partition of the symmetric allocation
  ValType* imag_sym = nullptr;
  IdxType dim = 0;
  MeasureCtx* mctx = nullptr;
  Rng* rng = nullptr; // per-PE replica, same seed on every PE

  void count_touched(int partition, std::uint64_t amps) const {
    ctx->count_direct(partition, 2 * amps, 2 * amps, sizeof(ValType));
  }

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
