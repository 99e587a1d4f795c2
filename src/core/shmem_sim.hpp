// ShmemSim: multi-node scale-out backend (§3.2.3, Listing 5).
//
// Each SHMEM processing element owns one simulator partition: the state
// vector is allocated in the symmetric heap (nvshmem_malloc), partitioned
// evenly by natural array order, and a barrier_all follows each gate. A
// gate that pairs amplitudes across partitions reaches each one by a
// one-sided fine-grained get/put ("double_g"/"double_p"). PEs here are
// threads, so every partition is load/store-reachable through a Ctx::ptr
// pointer (the shmem_ptr analogue): every gate, on a partition qubit or
// not, runs SingleSim's kernel at the run's lane level on those pointers,
// each role of a work item in its own partition (dispatch.hpp); the
// measure-all readout walks them in logical runs of 256 states
// (kern_measure_all_parts), and measure and reset run the scalar kernel
// on them (the raw view, space.hpp). All book exactly the gets/puts the
// one-sided calls would, once per run or call. The PE team is provided
// by the svsim::shmem runtime (DESIGN.md explains the substitution for
// OpenSHMEM/NVSHMEM); traffic counters record the exact local/remote
// communication volume the machine model prices for Figures 12-13.
#pragma once

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/dispatch.hpp"
#include "core/simulator.hpp"
#include "core/space.hpp"
#include "shmem/shmem.hpp"

namespace svsim {

class ShmemSim final : public Simulator {
public:
  /// `heap_bytes` is the per-PE symmetric heap size; the default fits the
  /// partition of a state vector up to 2^26 amplitudes on 1 PE.
  ShmemSim(IdxType n_qubits, int n_pes, SimConfig cfg = {},
           std::size_t heap_bytes = 0);
  ~ShmemSim() override;

  const char* name() const override { return "shmem"; }
  IdxType n_qubits() const override { return n_; }
  int n_pes() const { return n_pes_; }
  void reset_state() override;
  void run(const Circuit& circuit) override;

  /// Aggregate one-sided traffic of the last run() across PEs.
  shmem::TrafficStats traffic() const { return last_traffic_; }
  /// Per-PE counters of the last run() (index = PE id).
  const std::vector<shmem::TrafficStats>& per_pe_traffic() const {
    return runtime_.per_pe_traffic();
  }

private:
  IdxType n_;
  IdxType dim_;
  int n_pes_;

  // The base's Partitions point into the symmetric allocation (valid for
  // the lifetime of the runtime arenas; allocated once in the
  // constructor).
  shmem::Runtime runtime_;

  std::vector<Rng> rngs_; // per-PE replicas, same seed
  WorkerRows tallies_;    // each PE's raw-view tallies
  shmem::TrafficStats last_traffic_;
  // Memory-registry ids of the per-PE arenas (registered externally:
  // the shmem layer itself cannot link the obs library).
  std::vector<std::uint64_t> mem_ids_;
};

} // namespace svsim
