// svsim::shmem — a from-scratch, thread-based PGAS runtime with
// OpenSHMEM semantics.
//
// This is the substitution (see DESIGN.md §2) for the OpenSHMEM / NVSHMEM
// runtimes the paper targets: N processing elements (PEs), each owning a
// partition of a *symmetric heap*; any PE can address any other PE's
// partition through one-sided get/put using the local symmetric address
// plus a PE id — exactly the `nvshmem_double_g(&sv_real[pos], pe)` /
// `nvshmem_double_p(...)` calls of Listing 5. PEs here are threads instead
// of network-separated processes, so a "remote" access is a plain
// load/store, but the programming model, the address translation, the
// synchronization contract (one-sided ops ordered only by barriers), and
// the traffic accounting that feeds the performance model are the real
// thing.
//
// Semantics implemented:
//  * symmetric allocation: collective `malloc_sym` returning the same heap
//    offset on every PE (validated), like shmem_malloc/nvshmem_malloc;
//  * one-sided scalar get/put (`g`/`p`) and block get/put;
//  * atomics (fetch_add, compare_swap) on symmetric objects;
//  * `barrier_all` with full memory ordering;
//  * collectives: broadcast, all-reduce (sum/max/min), all-gather;
//  * per-PE traffic counters distinguishing local vs remote accesses.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "shmem/barrier.hpp"

namespace svsim::shmem {

/// Per-PE communication counters. "Remote" means the target PE differs
/// from the issuing PE — the distinction the PGAS model exposes and the
/// machine performance model prices.
struct TrafficStats {
  std::uint64_t local_gets = 0;
  std::uint64_t remote_gets = 0;
  std::uint64_t local_puts = 0;
  std::uint64_t remote_puts = 0;
  std::uint64_t bytes_got = 0;
  std::uint64_t bytes_put = 0;
  std::uint64_t atomics = 0;
  std::uint64_t barriers = 0;

  TrafficStats& operator+=(const TrafficStats& o) {
    local_gets += o.local_gets;
    remote_gets += o.remote_gets;
    local_puts += o.local_puts;
    remote_puts += o.remote_puts;
    bytes_got += o.bytes_got;
    bytes_put += o.bytes_put;
    atomics += o.atomics;
    barriers += o.barriers;
    return *this;
  }

  std::uint64_t total_remote_ops() const { return remote_gets + remote_puts; }
  std::string summary() const;
};

class Runtime;

/// Per-PE handle: the "view of the world" each PE's main function receives.
/// All communication goes through this object. Not thread-safe across PEs
/// by design — each PE uses only its own Ctx (SPMD style).
class Ctx {
public:
  int pe() const { return pe_; }
  int n_pes() const;

  // --- Symmetric allocation -------------------------------------------

  /// Collective: every PE must call with the same count, in the same
  /// order. Returns a pointer to *this PE's* partition of the symmetric
  /// object (as nvshmem_malloc does). The returned memory is zeroed.
  template <typename T>
  T* malloc_sym(std::size_t count) {
    return static_cast<T*>(malloc_sym_bytes(count * sizeof(T), alignof(T)));
  }

  // --- One-sided point-to-point ----------------------------------------

  /// One-sided scalar load from `target_pe`'s copy of the symmetric
  /// address `sym`. Equivalent of nvshmem_double_g.
  template <typename T>
  T g(const T* sym, int target_pe) {
    const T* remote = ptr(sym, target_pe);
    count_direct(target_pe, 1, 0, sizeof(T));
    return *remote;
  }

  /// One-sided scalar store. Equivalent of nvshmem_double_p. Returns
  /// "immediately" in SHMEM terms: completion at the target is only
  /// guaranteed after a barrier/quiet.
  template <typename T>
  void p(T* sym, T value, int target_pe) {
    T* remote = ptr(sym, target_pe);
    count_direct(target_pe, 0, 1, sizeof(T));
    *remote = value;
  }

  /// Block get: copy `count` elements from target PE's `src` into local
  /// (non-symmetric) `dst`. The copy is a kTransfer wait span (block
  /// transfers run at synchronization frequency; the scalar g/p above are
  /// per-amplitude and deliberately uninstrumented).
  template <typename T>
  void get(T* dst, const T* src_sym, std::size_t count, int target_pe) {
    obs::WaitScope wait(obs::WaitKind::kTransfer);
    const T* remote = ptr(src_sym, target_pe, count);
    count_direct(target_pe, 1, 0, count * sizeof(T));
    for (std::size_t i = 0; i < count; ++i) dst[i] = remote[i];
  }

  /// Block put: copy `count` local elements into target PE's `dst`.
  template <typename T>
  void put(T* dst_sym, const T* src, std::size_t count, int target_pe) {
    obs::WaitScope wait(obs::WaitKind::kTransfer);
    T* remote = ptr(dst_sym, target_pe, count);
    count_direct(target_pe, 0, 1, count * sizeof(T));
    for (std::size_t i = 0; i < count; ++i) remote[i] = src[i];
  }

  // --- Atomics ----------------------------------------------------------

  /// Atomic fetch-add on the target PE's copy of `sym`.
  template <typename T>
  T atomic_fetch_add(T* sym, T value, int target_pe) {
    ++stats_.atomics;
    std::atomic_ref<T> ref(*ptr(sym, target_pe));
    return ref.fetch_add(value, std::memory_order_acq_rel);
  }

  // --- Synchronization and collectives ---------------------------------

  /// Full barrier: all PEs arrive; all one-sided ops issued before are
  /// globally visible after.
  void barrier_all();

  /// Broadcast `count` elements of the symmetric object `sym` from
  /// `root`'s copy into every PE's copy. Collective.
  template <typename T>
  void broadcast(T* sym, std::size_t count, int root) {
    obs::WaitScope wait(obs::WaitKind::kTransfer); // one span, inner suppressed
    barrier_all(); // root's data must be complete
    if (pe_ != root) get(sym, sym, count, root);
    barrier_all();
  }

  /// All-reduce of one value per PE; every PE receives the reduction.
  ValType all_reduce_sum(ValType v);
  ValType all_reduce_max(ValType v);
  ValType all_reduce_min(ValType v);
  std::int64_t all_reduce_sum_i64(std::int64_t v);

  /// All-gather of one value per PE; result indexed by PE id.
  std::vector<ValType> all_gather(ValType v);

  // --- Introspection ----------------------------------------------------

  const TrafficStats& traffic() const { return stats_; }

  /// Bytes this PE moved per destination PE (gets + puts; index = target
  /// PE). Row `pe()` of the job-wide traffic matrix; its sum equals
  /// traffic().bytes_got + bytes_put by construction.
  const std::vector<std::uint64_t>& dest_bytes() const { return dest_bytes_; }

  /// Direct pointer to `target_pe`'s copy of the `count`-element
  /// symmetric object at local address `sym` — the shmem_ptr /
  /// nvshmem_ptr analogue, and the address translation behind every
  /// one-sided op. The whole extent must lie in the symmetric heap, or
  /// this throws Error. PEs here are threads, so every partition is
  /// load/store-reachable and the result is never null. Loads and
  /// stores through it bypass the counters: count them with
  /// count_direct().
  template <typename T>
  T* ptr(const T* sym, int target_pe, std::size_t count = 1) const {
    return reinterpret_cast<T*>(translate_bytes(
        reinterpret_cast<const char*>(sym), count * sizeof(T), target_pe));
  }

  /// Count `gets` loads and `puts` stores of `bytes` each issued at
  /// `target_pe` (a valid PE id) — what that many g()/p() calls count. A
  /// range of accesses made through ptr() is counted with one call.
  void count_direct(int target_pe, std::uint64_t gets, std::uint64_t puts,
                    std::size_t bytes) {
    if (target_pe == pe_) {
      stats_.local_gets += gets;
      stats_.local_puts += puts;
    } else {
      stats_.remote_gets += gets;
      stats_.remote_puts += puts;
    }
    stats_.bytes_got += gets * bytes;
    stats_.bytes_put += puts * bytes;
    dest_bytes_[static_cast<std::size_t>(target_pe)] += (gets + puts) * bytes;
  }

private:
  friend class Runtime;
  Ctx(Runtime* rt, int pe); // sizes dest_bytes_ to n_pes (defined in .cpp)

  void* malloc_sym_bytes(std::size_t bytes, std::size_t align);
  char* translate_bytes(const char* sym, std::size_t bytes,
                        int target_pe) const;

  Runtime* rt_;
  int pe_;
  TrafficStats stats_;
  std::vector<std::uint64_t> dest_bytes_; // bytes issued per target PE
};

/// The SHMEM "job": owns the symmetric heap partitions and the PE team.
/// Typical use (mirrors shmem_init / spmd main / shmem_finalize):
///
///   shmem::Runtime rt(8);                       // 8 PEs
///   rt.run([&](shmem::Ctx& ctx) { ... SPMD body ... });
///   auto traffic = rt.aggregate_traffic();
class Runtime {
public:
  /// `n_pes` processing elements, each owning `heap_bytes` of symmetric
  /// heap.
  explicit Runtime(int n_pes, std::size_t heap_bytes = 512ull << 20);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int n_pes() const { return n_pes_; }
  std::size_t heap_bytes() const { return heap_bytes_; }

  /// Base address of PE `pe`'s symmetric-heap arena — stable for the
  /// runtime's lifetime. The shmem layer cannot depend on the obs
  /// library, so callers that do (ShmemSim) register the arenas with the
  /// memory registry through this accessor.
  const char* arena_base(int pe) const {
    return arenas_[static_cast<std::size_t>(pe)].data();
  }

  /// Launch the SPMD body on all PEs and join. PE 0 runs on the calling
  /// thread (so single-PE jobs have zero thread overhead); PEs 1..n-1 run
  /// on spawned threads. Exceptions thrown by any PE are captured and
  /// rethrown on the caller after all PEs stop.
  void run(const std::function<void(Ctx&)>& pe_main);

  /// Sum of all PEs' traffic counters from the last run().
  TrafficStats aggregate_traffic() const;

  /// Per-PE counters from the last run().
  const std::vector<TrafficStats>& per_pe_traffic() const {
    return last_traffic_;
  }

  /// Flat n_pes×n_pes byte matrix from the last run(), row-major
  /// [src * n_pes + dst]: bytes moved by one-sided ops issued by `src`
  /// targeting `dst`. Row sums equal the per-PE byte totals.
  const std::vector<std::uint64_t>& traffic_matrix() const {
    return last_matrix_;
  }

private:
  friend class Ctx;

  const int n_pes_;
  const std::size_t heap_bytes_;
  std::vector<AlignedBuffer<char>> arenas_;
  Barrier barrier_;

  // Symmetric-heap bump pointer, advanced by the last PE to arrive at the
  // collective-allocation barrier; every PE then reads the same offset.
  std::size_t heap_brk_ = 0;
  std::size_t pending_offset_ = 0;

  // Scratch table for all-gather/all-reduce collectives; access is fully
  // serialized by the barrier protocol in Ctx::all_gather.
  std::vector<ValType> gather_table_;

  std::vector<TrafficStats> last_traffic_;
  std::vector<std::uint64_t> last_matrix_;
};

} // namespace svsim::shmem
