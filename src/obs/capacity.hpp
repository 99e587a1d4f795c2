// obs::capacity — analytic pre-run footprint estimation and admission
// control ("will this job fit?").
//
// The estimate is closed-form from the run's shape: 2^n amplitudes × 16
// bytes (split re/im double planes) × the backend's multiplier — the
// batched engine's B lockstep lanes, the shmem runtime's per-PE
// symmetric-heap arenas (which mirror ShmemSim's default sizing), the
// coarse baseline's in-flight message payloads, the oracle's dense
// reference state. test_memtrack pins the estimate within 10% of the
// MemRegistry-measured peak for the single/peer/shmem/batched backends.
//
// Admission control: `qasm_runner --estimate` prints the component table
// and exits 4 when the job would not fit; a resolved memory limit
// (RunSwitches::mem_limit: SimConfig::mem_limit or SVSIM_MEM_LIMIT) makes
// every backend constructor fail fast with a clear message instead of
// OOM-killing mid-circuit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace svsim::obs {

/// Shape of a prospective run, enough to price its resident footprint.
struct FootprintQuery {
  std::string backend = "single"; // name() string; "batched" for B lanes
  IdxType n_qubits = 0;
  int workers = 1;
  IdxType batch = 1;
  std::uint64_t gates = 0;          // sizes the batched coefficient slab
  std::uint64_t shmem_heap_bytes = 0; // per-PE override; 0 = default sizing
};

/// The priced footprint plus the fit verdict against the resolved limit.
struct FootprintEstimate {
  struct Component {
    std::string name;
    std::uint64_t bytes = 0;
  };
  std::vector<Component> components;
  std::uint64_t total_bytes = 0;
  std::uint64_t avail_bytes = 0; // MemAvailable at estimate time (0 unknown)
  std::uint64_t limit_bytes = 0; // resolved limit (0 = none configured)
  bool fits = true; // vs the limit when set, else vs MemAvailable

  /// Human component table + fit verdict for `qasm_runner --estimate`.
  std::string table() const;
};

/// Price `q`'s resident footprint and render the fit verdict against
/// `limit` (the resolved RunSwitches::mem_limit; 0 = none, and the
/// verdict falls back to the host's MemAvailable).
FootprintEstimate estimate_footprint(const FootprintQuery& q,
                                     std::uint64_t limit = 0);

/// Fail-fast admission check every backend constructor runs from its
/// init list, before the state allocation it gates: throws svsim::Error
/// when `limit` is set (non-zero) and (backend, n, W, B) would exceed it,
/// else returns 2^n. Also captures the pre-allocation RSS baseline for
/// the memory report.
IdxType admit_dim(const char* backend, IdxType n_qubits, int workers,
                  IdxType batch, std::uint64_t limit);

} // namespace svsim::obs
