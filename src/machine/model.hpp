// svsim::machine — the analytic performance model behind the figure
// benches (see DESIGN.md §2: the substitution for the paper's hardware).
//
// The model prices a circuit gate by gate from first principles:
//
//   t_gate = dispatch + fixed + max(compute, memory) + remote + sync
//
//  * compute/memory: the number of state-vector elements the *specialized*
//    kernel actually touches (a T gate touches half of what H touches, CZ a
//    quarter — the §3.2.1 optimization) times an effective per-element cost
//    that depends on the device and, for CPUs, on whether the working set
//    still fits the fast cache levels.
//  * remote: elements whose owner is another worker, priced against the
//    interconnect. Ownership falls out of the same partition arithmetic the
//    real backends use: a gate on qubit q needs remote data iff
//    q >= n - log2(workers); on a multi-node machine the partner is on
//    another *node* iff q >= n - log2(nodes). This is what creates the
//    paper's intra->inter-node drop at 32->64 PEs (Fig 12) and the growing
//    communication share at scale.
//  * sync: the per-gate global barrier (grid.sync / shmem barrier_all),
//    growing with worker count and with topology-specific contention (QPI
//    beyond one socket, the KNL 2D mesh, InfiniBand tree depth).
//
// Absolute numbers are effective parameters calibrated to the regimes the
// paper reports (EXPERIMENTS.md records the calibration); the *shape* of
// every curve — crossovers, sweet spots, scaling slopes — is produced by
// the structure above, not hand-drawn.
#pragma once

#include <string>

#include "common/bits.hpp"
#include "common/config.hpp"
#include "ir/circuit.hpp"

namespace svsim::machine {

/// Effective per-element execution cost of one CPU core, by working-set
/// tier (state fits in L2 / in L3 / streams from memory with strided
/// gather penalties).
struct CpuCoreParams {
  double ns_l2 = 4.0;        // state <= l2_bytes
  double ns_l3 = 12.0;       // state <= l3_bytes
  double ns_mem = 25.0;      // beyond
  std::size_t l2_bytes = 128u << 10;
  std::size_t l3_bytes = 512u << 10;
  double vec_speedup = 1.0;  // AVX-512 factor where supported (~2x)
};

/// Effective cost of one GPU/accelerator device running the cooperative
/// single-kernel design.
struct GpuDeviceParams {
  double fixed_us = 6.0;     // per-gate kernel-loop + grid-sync floor
  double ns_per_elem = 4.0;  // effective gather/scatter rate
  double dispatch_us = 0.0;  // runtime gate parse+branch (the HIP path)
};

enum class Arch { kCpu, kGpu };

/// Scale-up (single node, shared memory or peer access) interconnect
/// behavior.
struct ScaleUpParams {
  double sync_base_us = 1.0;   // barrier cost at 2 workers
  double sync_log_us = 1.0;    // + slope per log2(workers)
  int socket_cores = 1 << 30;  // workers beyond this cross the socket link
  double cross_socket_mult = 1.0; // barrier multiplier once crossed
  double sync_quad_us = 0.0;   // quadratic contention term (KNL mesh)
  double contention_from = 1 << 30; // workers where quadratic term starts
  double remote_gbps_per_worker = 0.0; // peer link bw per worker (NVLink);
                                       // 0 = shared memory (no extra cost)
  bool remote_bw_scales = true; // NVSwitch: aggregate grows with workers
};

/// Scale-out (multi-node SHMEM) interconnect behavior.
struct ScaleOutParams {
  int workers_per_node = 1;
  double intra_elem_ns = 60;    // remote-but-same-node element cost
  double node_melems_per_s = 30; // per-node NIC fine-grained rate (M elem/s)
  double barrier_base_us = 2.0;
  double barrier_log_us = 1.5;  // + per log2(PEs)
};

/// One platform of Table 3.
struct Platform {
  std::string name;
  Arch arch = Arch::kCpu;
  CpuCoreParams cpu;
  GpuDeviceParams gpu;
  ScaleUpParams up;
  ScaleOutParams out;
};

/// How many of the gate's operand qubits sit at or above `boundary_bit`
/// (i.e. require data owned by another worker/node).
int high_qubits(const Gate& g, IdxType boundary_bit);

/// STREAM-style effective peak memory bandwidth of `workers` workers of
/// platform `p`, implied by its memory-tier element cost: a touched
/// amplitude moves 32 bytes (16 read + 16 written across the re/im
/// arrays) in ns_mem (CPU, divided by the vector speedup) or ns_per_elem
/// (GPU) nanoseconds. This is the roofline ceiling the obs/perfmodel
/// attribution tier prices achieved bandwidth against.
double stream_peak_gbps(const Platform& p, int workers = 1);

/// Peak bandwidth used for roofline attribution on *this* host:
/// SVSIM_PEAK_GBPS=<GB/s> (a measured machine total, e.g. from STREAM
/// triad) when set, otherwise stream_peak_gbps of the default calibration
/// platform (AMD EPYC-7742) scaled to `workers`.
double host_peak_gbps(int workers = 1);

/// Estimator for one platform.
class CostModel {
public:
  explicit CostModel(Platform platform) : p_(std::move(platform)) {}

  const Platform& platform() const { return p_; }

  /// Single-device latency (Fig 6 / Fig 14). `simd` selects the
  /// vector-optimized CPU path; `generalized` prices the Aer/qsim-style
  /// dense execution with per-gate runtime dispatch.
  double single_device_ms(const Circuit& c, bool simd = false,
                          bool generalized = false) const;

  /// Single-node scale-up latency with `workers` cores/devices
  /// (Figs 7-11).
  double scale_up_ms(const Circuit& c, int workers, bool simd = false) const;

  /// Multi-node scale-out latency with `pes` SHMEM processing elements
  /// (Figs 12-13).
  double scale_out_ms(const Circuit& c, int pes) const;

  /// Per-gate breakdown used by tests and the ablation benches.
  struct GateBreakdown {
    double compute_us = 0;
    double remote_us = 0;
    double sync_us = 0;
    double fixed_us = 0;
  };
  GateBreakdown scale_out_gate(const Gate& g, IdxType n, int pes) const;

private:
  double elem_cost_ns(IdxType n, bool simd) const; // CPU tiered cost
  Platform p_;
};

} // namespace svsim::machine
