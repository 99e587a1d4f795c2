#include "machine/platforms.hpp"

#include "common/config.hpp"

namespace svsim::machine {

double host_peak_gbps(int workers) {
  // SVSIM_PEAK_GBPS, when set, is a *measured machine total* (e.g. a
  // STREAM triad number for the whole socket) and is used as-is; the
  // worker count only matters for the modeled fallback.
  if (const auto& peak = Env::process().peak_gbps) return *peak;
  return stream_peak_gbps(amd_epyc_7742(), workers);
}

// Calibration note: every constant below is an *effective* parameter (see
// model.hpp). They were fit so that the model reproduces the qualitative
// regimes §4 of the paper reports (fig6 crossover at n=12/13, fig7 sweet
// spot at 16-32 cores, fig8 at 2-4 cores, fig9/10 strong scaling with a
// small-circuit 1->2 lag, fig11 modest linear scaling, fig12 intra->inter
// drop + weak total scaling, fig13 strong scaling). EXPERIMENTS.md records
// model-vs-paper for each figure.

const Platform& amd_epyc_7742() {
  static const Platform p = [] {
    Platform m;
    m.name = "AMD EPYC-7742";
    m.arch = Arch::kCpu;
    m.cpu = {1.1, 7.0, 18.0, 128u << 10, 4u << 20, 1.0};
    return m;
  }();
  return p;
}

const Platform& intel_xeon_8276m() {
  static const Platform p = [] {
    Platform m;
    m.name = "Intel Xeon P-8276M";
    m.arch = Arch::kCpu;
    m.cpu = {1.2, 7.5, 19.0, 128u << 10, 4u << 20, 2.0}; // AVX-512 2x
    m.up.sync_base_us = 0.7;
    m.up.sync_log_us = 0.7;
    m.up.socket_cores = 28;      // cores per 8276 socket
    m.up.cross_socket_mult = 3.0; // QPI-crossing barrier penalty
    m.up.sync_quad_us = 0.0009;  // bus contention at extreme counts
    m.up.contention_from = 192;
    return m;
  }();
  return p;
}

const Platform& ibm_power9() {
  static const Platform p = [] {
    Platform m;
    m.name = "IBM Power-9";
    m.arch = Arch::kCpu;
    m.cpu = {1.3, 8.0, 20.0, 128u << 10, 4u << 20, 1.0};
    return m;
  }();
  return p;
}

const Platform& xeon_phi_7230() {
  static const Platform p = [] {
    Platform m;
    m.name = "Intel Xeon Phi-7230";
    m.arch = Arch::kCpu;
    // Light-weight Atom-class cores: several times slower per element.
    m.cpu = {4.0, 28.0, 60.0, 128u << 10, 4u << 20, 2.0}; // AVX-512 2x
    m.up.sync_base_us = 0.5;
    m.up.sync_log_us = 0.5;
    // 2D-mesh all-to-all contention grows quadratically and early — this
    // is what pushes the sweet spot down to 2-4 cores (Fig 8).
    m.up.sync_quad_us = 1.2;
    m.up.contention_from = 4;
    return m;
  }();
  return p;
}

const Platform& nvidia_v100_dgx2() {
  static const Platform p = [] {
    Platform m;
    m.name = "NVIDIA V100 (DGX-2)";
    m.arch = Arch::kGpu;
    m.gpu = {1.6, 0.9, 0.0};
    m.up.sync_base_us = 1.0;  // cooperative multi-device grid sync
    m.up.sync_log_us = 0.25;
    m.up.remote_gbps_per_worker = 100.0; // NVSwitch per-GPU
    m.up.remote_bw_scales = true;        // full bisection
    return m;
  }();
  return p;
}

const Platform& nvidia_dgx_a100() {
  static const Platform p = [] {
    Platform m;
    m.name = "NVIDIA A100 (DGX-A100)";
    m.arch = Arch::kGpu;
    // Memory-bound workload: only modestly faster than V100 (Fig 6 obs iii).
    m.gpu = {1.5, 0.7, 0.0};
    m.up.sync_base_us = 0.9;
    m.up.sync_log_us = 0.2;
    m.up.remote_gbps_per_worker = 200.0; // NVLink3
    m.up.remote_bw_scales = true;
    return m;
  }();
  return p;
}

const Platform& amd_mi100() {
  static const Platform p = [] {
    Platform m;
    m.name = "AMD MI100";
    m.arch = Arch::kGpu;
    // dispatch_us: the HIP runtime lacks device function pointers, so every
    // gate pays kernel-side parse+branch, and the fat non-inlined kernel
    // runs slower (Fig 6 obs v) — the bottleneck is compute, not links.
    m.gpu = {1.6, 1.6, 5.0};
    m.up.sync_base_us = 1.0;
    m.up.sync_log_us = 0.4;
    m.up.remote_gbps_per_worker = 75.0; // Infinity Fabric
    m.up.remote_bw_scales = true;
    return m;
  }();
  return p;
}

const Platform& summit_cpu() {
  static const Platform p = [] {
    Platform m = ibm_power9();
    m.name = "Summit Power-9 (OpenSHMEM)";
    m.out.workers_per_node = 32; // cores per resource set
    m.out.intra_elem_ns = 100;   // shared-memory remote element
    m.out.node_melems_per_s = 18; // NIC fine-grained get/put rate
    m.out.barrier_base_us = 2.0;
    m.out.barrier_log_us = 2.0;
    return m;
  }();
  return p;
}

const Platform& summit_gpu() {
  static const Platform p = [] {
    Platform m;
    m.name = "Summit V100 (NVSHMEM)";
    m.arch = Arch::kGpu;
    m.gpu = {1.6, 0.9, 0.0};
    m.out.workers_per_node = 4;   // ~6 GPUs/node, power-of-two partitioning
    m.out.intra_elem_ns = 2.0;    // NVLink, warp-parallel
    m.out.node_melems_per_s = 500; // GPU-initiated RDMA, coalesced
    m.out.barrier_base_us = 1.5;
    m.out.barrier_log_us = 0.5;
    return m;
  }();
  return p;
}

const std::vector<Fig6Entry>& fig6_platforms() {
  static const std::vector<Fig6Entry> v = {
      {&amd_epyc_7742(), false, "AMD_EPYC7742"},
      {&intel_xeon_8276m(), false, "INTEL_P8276"},
      {&intel_xeon_8276m(), true, "INTEL_P8276_AVX512"},
      {&xeon_phi_7230(), false, "INTEL_PHI7230"},
      {&xeon_phi_7230(), true, "INTEL_PHI7230_AVX512"},
      {&ibm_power9(), false, "IBM_POWER9"},
      {&nvidia_v100_dgx2(), false, "NVIDIA_V100"},
      {&nvidia_dgx_a100(), false, "NVIDIA_A100"},
      {&amd_mi100(), false, "AMD_MI100"},
  };
  return v;
}

} // namespace svsim::machine
