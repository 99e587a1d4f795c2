// PeerSim: single-node scale-up backend (§3.2.2, Listing 4).
//
// The state vector is partitioned evenly across n_devices "devices"
// following natural array order; each device owns one partition with a
// unique pointer, and the pointers are collected in a pointer array shared
// by all devices — the manual PGAS construction the paper builds on
// GPUDirect peer access / Infinity Fabric. One worker thread drives each
// device (the paper's one-OpenMP-thread-per-GPU runtime); every gate is a
// grid-stride slice per device followed by a multi-device grid sync. A
// gate's slice runs SingleSim's kernel at the run's lane level on the
// partitions the pointer array names — one partition, or two or four when
// it pairs amplitudes across partitions — and counts its accesses once
// per run (dispatch.hpp). The measure-all readout walks the partitions
// the pointer array names in logical runs of 256 states, and measure and
// reset run the scalar kernel through it (the raw view, space.hpp); each
// counts its accesses once per call.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/dispatch.hpp"
#include "core/simulator.hpp"
#include "core/space.hpp"

namespace svsim {

class PeerSim final : public Simulator {
public:
  PeerSim(IdxType n_qubits, int n_devices, SimConfig cfg = {});

  const char* name() const override { return "peer"; }
  IdxType n_qubits() const override { return n_; }
  int n_devices() const { return n_dev_; }
  void reset_state() override;
  void run(const Circuit& circuit) override;

  /// Aggregate local/remote access counts from the last run().
  PeerTraffic traffic() const;
  const std::vector<PeerTraffic>& per_device_traffic() const {
    return traffic_;
  }

private:
  PeerSpace make_space(int device, shmem::Barrier* grid);

  IdxType n_;
  IdxType dim_;
  int n_dev_;

  // One partition per device — "SAFE_ALOC_GPU(sv_real_ptr[d], ...)". The
  // base's Partitions pointer arrays are the shared arrays broadcast to
  // all devices.
  std::vector<obs::TrackedBuffer<ValType>> real_parts_;
  std::vector<obs::TrackedBuffer<ValType>> imag_parts_;

  std::vector<Rng> rngs_; // per-worker replicas, same seed (lockstep)
  std::vector<ValType> scratch_;
  std::vector<PeerTraffic> traffic_;
  // n_dev×n_dev element-access counts (row d = device d's accesses by
  // owning partition); each PeerTraffic::per_dest points at its row.
  WorkerRows dest_counts_;
  WorkerRows tallies_; // each device's raw-view tallies
};

} // namespace svsim
