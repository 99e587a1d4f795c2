#include "core/peer_sim.hpp"

#include "core/pipeline.hpp"
#include "shmem/barrier.hpp"

namespace svsim {

PeerSim::PeerSim(IdxType n_qubits, int n_devices, SimConfig cfg)
    : Simulator(n_qubits, cfg),
      n_(n_qubits),
      dim_(obs::admit_dim("peer", n_qubits, n_devices, 1, sw_.mem_limit)),
      n_dev_(n_devices) {
  SVSIM_CHECK(n_devices >= 1 && is_pow2(n_devices),
              "device count must be a power of two");
  SVSIM_CHECK(dim_ >= n_devices, "more devices than amplitudes");
  parts_.lg_part = n_ - log2_exact(n_devices);

  const auto per_dev = static_cast<std::size_t>(pow2(parts_.lg_part));
  real_parts_.reserve(static_cast<std::size_t>(n_dev_));
  imag_parts_.reserve(static_cast<std::size_t>(n_dev_));
  for (int d = 0; d < n_dev_; ++d) {
    real_parts_.emplace_back(per_dev, obs::MemTag::kState, d);
    imag_parts_.emplace_back(per_dev, obs::MemTag::kState, d);
    // The shared pointer array (Listing 4 lines 17-34).
    parts_.real.push_back(real_parts_.back().data());
    parts_.imag.push_back(imag_parts_.back().data());
  }
  real_parts_[0][0] = 1.0; // |0...0>

  rngs_.assign(static_cast<std::size_t>(n_dev_), Rng(cfg.seed));
  scratch_.assign(static_cast<std::size_t>(n_dev_), 0);
  traffic_.assign(static_cast<std::size_t>(n_dev_), PeerTraffic{});
  tallies_ = WorkerRows(n_dev_, 2 * static_cast<std::size_t>(n_dev_));
}

void PeerSim::reset_state() {
  reset_partitions();
  for (auto& rng : rngs_) rng.reseed(cfg_.seed);
}

PeerSpace PeerSim::make_space(int device, shmem::Barrier* grid) {
  PeerSpace sp;
  sp.real_parts = parts_.real.data();
  sp.imag_parts = parts_.imag.data();
  sp.lg_part = parts_.lg_part;
  sp.tally = tallies_.row(device);
  sp.dim = dim_;
  sp.mctx = &mctx_;
  sp.rng = &rngs_[static_cast<std::size_t>(device)];
  sp.worker_id = device;
  sp.num_workers = n_dev_;
  sp.barrier = grid;
  sp.scratch = scratch_.data();
  sp.traffic = &traffic_[static_cast<std::size_t>(device)];
  return sp;
}

void PeerSim::run(const Circuit& circuit) {
  static obs::Counter& runs = obs::Registry::global().counter("runs.peer");
  shmem::Barrier grid(n_dev_); // the multi-device grid (grid.sync())
  traffic_.assign(static_cast<std::size_t>(n_dev_), PeerTraffic{});
  const auto n = static_cast<std::size_t>(n_dev_);
  dest_counts_ = WorkerRows(n_dev_, n);
  for (int d = 0; d < n_dev_; ++d) {
    traffic_[static_cast<std::size_t>(d)].per_dest = dest_counts_.row(d);
  }
  run_dispatch<PeerSpace>(
      circuit, runs, Shape{n_dev_, true},
      kernel_table<PeerSpace>(sw_.simd),
      [&](const auto& body) {
        launch_team(n_dev_, [&](int d) { body(make_space(d, &grid)); });
      },
      [&](obs::RunReport& rep) {
        const PeerTraffic total = traffic();
        rep.comm.add_peer(total.local_access, total.remote_access);
        // Element accesses -> bytes: every peer access moves one ValType.
        rep.matrix.n = n_dev_;
        rep.matrix.bytes.assign(n * n, 0);
        for (std::size_t d = 0; d < n; ++d) {
          for (std::size_t e = 0; e < n; ++e) {
            rep.matrix.bytes[d * n + e] =
                traffic_[d].per_dest[e] * sizeof(ValType);
          }
        }
      });
}

PeerTraffic PeerSim::traffic() const {
  PeerTraffic total;
  for (const auto& t : traffic_) {
    total.local_access += t.local_access;
    total.remote_access += t.remote_access;
  }
  return total;
}

} // namespace svsim
