#include "machine/model.hpp"

#include <algorithm>
#include <cmath>

#include "obs/perfmodel.hpp"

namespace svsim::machine {

double stream_peak_gbps(const Platform& p, int workers) {
  // The model's bytes per touched amplitude (16 read + 16 written across
  // the split re/im arrays) at the platform's streaming-from-memory
  // element cost, per worker.
  double ns_per_elem;
  if (p.arch == Arch::kCpu) {
    ns_per_elem = p.cpu.ns_mem / p.cpu.vec_speedup;
  } else {
    ns_per_elem = p.gpu.ns_per_elem;
  }
  return static_cast<double>(obs::kBytesPerAmp) / ns_per_elem *
         static_cast<double>(workers);
}

int high_qubits(const Gate& g, IdxType boundary_bit) {
  const OpInfo& info = op_info(g.op);
  int h = 0;
  const IdxType qs[2] = {g.qb0, g.qb1};
  const int nq = std::min(info.n_qubits, 2);
  for (int i = 0; i < nq; ++i) {
    if (qs[i] >= boundary_bit) ++h;
  }
  if (g.op == OP::MA) return 0; // gather priced separately
  return h;
}

double CostModel::elem_cost_ns(IdxType n, bool simd) const {
  const std::size_t state_bytes = static_cast<std::size_t>(pow2(n)) * 2 *
                                  sizeof(ValType); // re+im arrays
  double ns;
  if (state_bytes <= p_.cpu.l2_bytes) {
    ns = p_.cpu.ns_l2;
  } else if (state_bytes <= p_.cpu.l3_bytes) {
    ns = p_.cpu.ns_l3;
  } else {
    ns = p_.cpu.ns_mem;
  }
  if (simd) ns /= p_.cpu.vec_speedup;
  return ns;
}

double CostModel::single_device_ms(const Circuit& c, bool simd,
                                   bool generalized) const {
  const IdxType n = c.n_qubits();
  const double dim = static_cast<double>(pow2(n));
  double total_us = 0;
  for (const Gate& g : c.gates()) {
    // The specialized kernels touch what obs::gate_cost prices; the
    // generalized baseline's dense apply touches every element (a
    // barrier none).
    const double elems = !generalized         ? obs::gate_cost(g, n).amps
                         : g.op == OP::BARRIER ? 0.0
                                               : dim;
    if (p_.arch == Arch::kCpu) {
      double us = elems * elem_cost_ns(n, simd) * 1e-3;
      if (generalized) {
        // Per-gate runtime dispatch + matrix rebuild (the cost the
        // function-pointer design avoids) — small per gate but a constant
        // that dominates for tiny working sets, plus the dense 2-qubit
        // arithmetic is ~4x the specialized path.
        us = us * (op_info(g.op).n_qubits == 2 ? 4.0 : 1.6) + 0.25;
      }
      total_us += us;
    } else {
      double us = p_.gpu.fixed_us + elems * p_.gpu.ns_per_elem * 1e-3;
      us += p_.gpu.dispatch_us; // zero except the HIP runtime-parse path
      if (generalized) us = us * 2.0 + 1.0;
      total_us += us;
    }
  }
  return total_us * 1e-3;
}

double CostModel::scale_up_ms(const Circuit& c, int workers,
                              bool simd) const {
  SVSIM_CHECK(workers >= 1 && is_pow2(workers), "workers must be 2^k");
  if (workers == 1) return single_device_ms(c, simd);
  const IdxType n = c.n_qubits();
  const IdxType part_bits = n - log2_exact(workers);
  const double lg = std::log2(static_cast<double>(workers));

  // Per-gate barrier with topology contention.
  double sync_us = p_.up.sync_base_us + p_.up.sync_log_us * lg;
  if (workers > p_.up.socket_cores) sync_us *= p_.up.cross_socket_mult;
  if (workers >= p_.up.contention_from) {
    const double w = static_cast<double>(workers);
    sync_us += p_.up.sync_quad_us * w * w;
  }

  double total_us = 0;
  for (const Gate& g : c.gates()) {
    const double elems = obs::gate_cost(g, n).amps;
    const int h = high_qubits(g, part_bits);
    const double remote_frac = 1.0 - std::pow(0.5, h); // 0, .5, .75
    const double local_elems = elems * (1.0 - remote_frac);
    const double remote_elems = elems * remote_frac;

    double compute_us;
    double remote_us = 0;
    if (p_.arch == Arch::kCpu) {
      // Shared memory: remote == local for element cost; the contention
      // is captured by the sync term.
      compute_us = elems * elem_cost_ns(n, simd) * 1e-3 /
                   static_cast<double>(workers);
    } else {
      compute_us = p_.gpu.fixed_us / static_cast<double>(workers) +
                   local_elems * p_.gpu.ns_per_elem * 1e-3 /
                       static_cast<double>(workers) +
                   p_.gpu.dispatch_us;
      if (remote_elems > 0 && p_.up.remote_gbps_per_worker > 0) {
        const double agg_gbps =
            p_.up.remote_bw_scales
                ? p_.up.remote_gbps_per_worker * static_cast<double>(workers)
                : p_.up.remote_gbps_per_worker;
        // 16 bytes moved per remote element (value out + value back).
        remote_us = remote_elems * 16.0 / (agg_gbps * 1e3);
        // Remote elements still pay the kernel-side gather cost.
        remote_us += remote_elems * p_.gpu.ns_per_elem * 1e-3 /
                     static_cast<double>(workers);
      }
    }
    total_us += compute_us + remote_us + sync_us;
  }
  return total_us * 1e-3;
}

CostModel::GateBreakdown CostModel::scale_out_gate(const Gate& g, IdxType n,
                                                   int pes) const {
  GateBreakdown b;
  const int nodes = std::max(1, pes / p_.out.workers_per_node);
  const IdxType pe_bits = n - log2_exact(pes);
  const IdxType node_bits =
      n - static_cast<IdxType>(std::llround(std::log2(nodes)));

  const double elems = obs::gate_cost(g, n).amps;
  const int h_pe = high_qubits(g, pe_bits);
  const int h_node = high_qubits(g, node_bits);
  const double remote_frac = 1.0 - std::pow(0.5, h_pe);
  const double inter_frac = 1.0 - std::pow(0.5, h_node); // subset of remote
  const double intra_frac = remote_frac - inter_frac;

  // Local compute spread over all PEs.
  if (p_.arch == Arch::kCpu) {
    b.compute_us = elems * elem_cost_ns(n, false) * 1e-3 /
                   static_cast<double>(pes);
  } else {
    b.fixed_us = p_.gpu.fixed_us / static_cast<double>(pes) + 0.5;
    b.compute_us = elems * (1.0 - remote_frac) * p_.gpu.ns_per_elem * 1e-3 /
                   static_cast<double>(pes);
  }

  // Remote same-node elements: priced per element over the local fabric,
  // processed in parallel by all PEs.
  b.remote_us += elems * intra_frac * p_.out.intra_elem_ns * 1e-3 /
                 static_cast<double>(pes);
  // Cross-node elements: aggregate NIC fine-grained message rate.
  if (inter_frac > 0) {
    const double agg_melems =
        p_.out.node_melems_per_s * static_cast<double>(nodes);
    b.remote_us += elems * inter_frac / agg_melems; // M elem/s -> us
  }

  b.sync_us = p_.out.barrier_base_us +
              p_.out.barrier_log_us * std::log2(static_cast<double>(pes));
  return b;
}

double CostModel::scale_out_ms(const Circuit& c, int pes) const {
  SVSIM_CHECK(pes >= 1 && is_pow2(pes), "PEs must be 2^k");
  double total_us = 0;
  for (const Gate& g : c.gates()) {
    const GateBreakdown b = scale_out_gate(g, c.n_qubits(), pes);
    total_us += b.compute_us + b.remote_us + b.sync_us + b.fixed_us;
  }
  return total_us * 1e-3;
}

} // namespace svsim::machine
