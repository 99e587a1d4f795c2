#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "ir/circuit.hpp"

namespace svsim::obs {

void CommStats::add_shmem(const shmem::TrafficStats& t) {
  local_ops += t.local_gets + t.local_puts;
  remote_ops += t.remote_gets + t.remote_puts;
  bytes += t.bytes_got + t.bytes_put;
  barriers += t.barriers;
}

void CommStats::add_peer(std::uint64_t local_access,
                         std::uint64_t remote_access) {
  local_ops += local_access;
  remote_ops += remote_access;
  bytes += (local_access + remote_access) * sizeof(ValType);
}

void CommStats::add_messages(std::uint64_t messages_, std::uint64_t bytes_) {
  messages += messages_;
  remote_ops += messages_;
  bytes += bytes_;
}

std::uint64_t TrafficMatrix::total() const {
  std::uint64_t t = 0;
  for (const std::uint64_t b : bytes) t += b;
  return t;
}

std::uint64_t TrafficMatrix::row_sum(int src) const {
  std::uint64_t t = 0;
  for (int d = 0; d < n; ++d) t += at(src, d);
  return t;
}

std::uint64_t TrafficMatrix::col_sum(int dst) const {
  std::uint64_t t = 0;
  for (int s = 0; s < n; ++s) t += at(s, dst);
  return t;
}

std::uint64_t TrafficMatrix::remote_total() const {
  std::uint64_t t = 0;
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s != d) t += at(s, d);
    }
  }
  return t;
}

TrafficMatrix::Imbalance TrafficMatrix::imbalance() const {
  Imbalance im;
  if (n < 2) return im;
  std::uint64_t sum = 0;
  std::uint64_t links = 0;
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      const std::uint64_t b = at(s, d);
      sum += b;
      if (b != 0) ++links;
      if (b > im.busiest_bytes) {
        im.busiest_bytes = b;
        im.busiest_src = s;
        im.busiest_dst = d;
      }
    }
  }
  if (links != 0 && sum != 0) {
    const double mean = static_cast<double>(sum) / static_cast<double>(links);
    im.max_mean_ratio = static_cast<double>(im.busiest_bytes) / mean;
  }
  return im;
}

namespace {

/// "1.2K" / "34M" style fixed-width byte quantity for matrix cells.
void human_bytes(char* buf, std::size_t len, std::uint64_t b) {
  if (b >= 10ull << 30) {
    std::snprintf(buf, len, "%lluG", static_cast<unsigned long long>(b >> 30));
  } else if (b >= 10ull << 20) {
    std::snprintf(buf, len, "%lluM", static_cast<unsigned long long>(b >> 20));
  } else if (b >= 10ull << 10) {
    std::snprintf(buf, len, "%lluK", static_cast<unsigned long long>(b >> 10));
  } else {
    std::snprintf(buf, len, "%llu", static_cast<unsigned long long>(b));
  }
}

} // namespace

std::string TrafficMatrix::table() const {
  std::ostringstream os;
  if (empty()) return "  traffic matrix: (not recorded)\n";
  const Imbalance im = imbalance();
  // Shade each cell relative to the busiest off-diagonal link so hotspots
  // read at a glance; the diagonal (local traffic) is marked '·'.
  static const char kShade[] = {' ', '.', ':', '+', '#'};
  os << "  traffic matrix (bytes issued src -> dst; shade # = busiest "
        "link, diagonal = local):\n";
  char buf[32];
  os << "            ";
  for (int d = 0; d < n; ++d) {
    std::snprintf(buf, sizeof(buf), "%9s%-2d", "dst", d);
    os << buf;
  }
  os << "        total\n";
  for (int s = 0; s < n; ++s) {
    std::snprintf(buf, sizeof(buf), "    src %-4d", s);
    os << buf;
    for (int d = 0; d < n; ++d) {
      const std::uint64_t b = at(s, d);
      char cell[16];
      human_bytes(cell, sizeof(cell), b);
      char shade = ' ';
      if (s == d) {
        shade = b != 0 ? '.' : ' ';
      } else if (im.busiest_bytes != 0 && b != 0) {
        const double rel =
            static_cast<double>(b) / static_cast<double>(im.busiest_bytes);
        shade = kShade[rel >= 0.999 ? 4 : rel >= 0.75 ? 3 : rel >= 0.5 ? 2
                       : rel >= 0.25 ? 1 : 0];
        if (shade == ' ') shade = '.';
      }
      std::snprintf(buf, sizeof(buf), "%9s %c", cell, shade);
      os << buf;
    }
    char rt[16];
    human_bytes(rt, sizeof(rt), row_sum(s));
    std::snprintf(buf, sizeof(buf), "%13s\n", rt);
    os << buf;
  }
  if (im.busiest_src >= 0) {
    char bb[16];
    human_bytes(bb, sizeof(bb), im.busiest_bytes);
    std::snprintf(buf, sizeof(buf), "%.2f", im.max_mean_ratio);
    os << "    busiest link " << im.busiest_src << " -> " << im.busiest_dst
       << " (" << bb << "), max/mean over links = " << buf << "\n";
  }
  return os.str();
}

void tally_gates(RunReport& report, const Circuit& circuit) {
  for (const Gate& g : circuit.gates()) {
    ++report.by_op[static_cast<std::size_t>(g.op)].count;
    ++report.total_gates;
  }
  tally_executed(report, circuit);
  report.circuit_hash = hash_circuit(circuit);
}

void tally_executed(RunReport& report, const Circuit& exec) {
  for (GateKindStats& s : report.by_op) s.executed = 0;
  for (const Gate& g : exec.gates()) {
    ++report.by_op[static_cast<std::size_t>(g.op)].executed;
  }
}

std::string RunReport::summary() const {
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "run report: backend=%s qubits=%lld workers=%d gates=%llu "
                "wall=%.3f ms%s\n",
                backend.c_str(), static_cast<long long>(n_qubits), n_workers,
                static_cast<unsigned long long>(total_gates),
                wall_seconds * 1e3, profiled ? "" : " (profiling off)");
  os << buf;

  // Gate kinds, most expensive (or most frequent) first: the input's
  // count, and the executed gates' count, time and time per gate.
  std::vector<int> ops;
  for (int i = 0; i < kNumOps; ++i) {
    const auto& s = by_op[static_cast<std::size_t>(i)];
    if (s.count != 0 || s.executed != 0) ops.push_back(i);
  }
  std::sort(ops.begin(), ops.end(), [&](int a, int b) {
    const auto& sa = by_op[static_cast<std::size_t>(a)];
    const auto& sb = by_op[static_cast<std::size_t>(b)];
    if (sa.seconds != sb.seconds) return sa.seconds > sb.seconds;
    return sa.count > sb.count;
  });
  if (!ops.empty()) {
    std::snprintf(buf, sizeof(buf), "  %-8s %10s %10s %12s %12s\n", "gate",
                  "count", "executed", "total ms", "us/gate");
    os << buf;
    for (const int i : ops) {
      const auto& s = by_op[static_cast<std::size_t>(i)];
      std::snprintf(
          buf, sizeof(buf), "  %-8s %10llu %10llu %12.3f %12.3f\n",
          op_name(static_cast<OP>(i)),
          static_cast<unsigned long long>(s.count),
          static_cast<unsigned long long>(s.executed), s.seconds * 1e3,
          s.executed != 0 ? s.seconds * 1e6 / static_cast<double>(s.executed)
                          : 0.0);
      os << buf;
    }
  }

  if (fusion.gates_before != 0) {
    std::snprintf(buf, sizeof(buf),
                  "  fusion: %lld -> %lld gates (1q fused %lld, 2q cancelled "
                  "%lld, identities dropped %lld)\n",
                  static_cast<long long>(fusion.gates_before),
                  static_cast<long long>(fusion.gates_after),
                  static_cast<long long>(fusion.fused_1q),
                  static_cast<long long>(fusion.cancelled_2q),
                  static_cast<long long>(fusion.dropped_identity));
    os << buf;
  }
  if (fusion.dense_blocks != 0) {
    std::snprintf(buf, sizeof(buf),
                  "  pair fusion: %lld dense 4x4 ops replaced %lld gates\n",
                  static_cast<long long>(fusion.dense_blocks),
                  static_cast<long long>(fusion.dense_absorbed));
    os << buf;
  }

  if (comm.local_ops + comm.remote_ops + comm.messages != 0) {
    std::snprintf(buf, sizeof(buf),
                  "  comm: local ops %llu, remote ops %llu, bytes %llu, "
                  "messages %llu, barriers %llu\n",
                  static_cast<unsigned long long>(comm.local_ops),
                  static_cast<unsigned long long>(comm.remote_ops),
                  static_cast<unsigned long long>(comm.bytes),
                  static_cast<unsigned long long>(comm.messages),
                  static_cast<unsigned long long>(comm.barriers));
    os << buf;
  }

  if (health.enabled) {
    std::snprintf(buf, sizeof(buf),
                  "  health: %llu checks (every %d gates), max |norm2-1| = "
                  "%.3g (gates %llu..%llu), nan checks %llu, warns %llu%s\n",
                  static_cast<unsigned long long>(health.checks),
                  health.every_n, health.max_drift,
                  static_cast<unsigned long long>(health.drift_gate_lo),
                  static_cast<unsigned long long>(health.drift_gate_hi),
                  static_cast<unsigned long long>(health.nan_checks),
                  static_cast<unsigned long long>(health.warns),
                  health.aborted ? ", ABORTED" : "");
    os << buf;
  }

  if (sched.enabled) {
    std::snprintf(buf, sizeof(buf),
                  "  sched: b=%d, %llu windows covering %llu gates, "
                  "%llu passes saved (~%llu MB traffic avoided)%s\n",
                  sched.block_exp,
                  static_cast<unsigned long long>(sched.windows),
                  static_cast<unsigned long long>(sched.windowed_gates),
                  static_cast<unsigned long long>(sched.passes_saved),
                  static_cast<unsigned long long>(
                      sched.traffic_avoided_bytes >> 20),
                  sched.active ? "" : " (no blocked windows)");
    os << buf;
  }

  if (remap.enabled) {
    std::snprintf(buf, sizeof(buf),
                  "  remap: %llu swaps inserted (local bits %d), modeled "
                  "remote bytes %llu -> %llu%s\n",
                  static_cast<unsigned long long>(remap.swaps_inserted),
                  remap.local_bits,
                  static_cast<unsigned long long>(
                      remap.modeled_remote_bytes_before),
                  static_cast<unsigned long long>(
                      remap.modeled_remote_bytes_after),
                  remap.active ? "" : " (pass not applicable)");
    os << buf;
  }

  if (roofline.enabled) {
    const RooflineStats& r = roofline;
    std::snprintf(buf, sizeof(buf),
                  "  roofline: model %.2f MB moved (%.2f MB under schedule), "
                  "%.3f Mflop, AI %.4f flop/byte\n",
                  r.model_bytes / 1e6, r.model_bytes_sched / 1e6,
                  r.model_flops / 1e6, r.ai);
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "    achieved %.2f GB/s (model bytes / wall) = %.1f%% of "
                  "%.1f GB/s machine peak\n",
                  r.model_gbps, r.attainment * 100.0, r.peak_gbps);
    os << buf;
    if (r.counters) {
      const double ipc =
          r.cycles != 0
              ? static_cast<double>(r.instructions) / static_cast<double>(r.cycles)
              : 0.0;
      std::snprintf(buf, sizeof(buf),
                    "    counters: %.3fG cycles, %.3fG instr (IPC %.2f), LLC "
                    "%.2fM loads / %.2fM misses, mem %.2f GB/s\n",
                    static_cast<double>(r.cycles) / 1e9,
                    static_cast<double>(r.instructions) / 1e9, ipc,
                    static_cast<double>(r.llc_loads) / 1e6,
                    static_cast<double>(r.llc_misses) / 1e6, r.measured_gbps);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "    counters: unavailable (%s) — model-only roofline\n",
                    r.counters_error.c_str());
    }
    os << buf;
    if (!r.worst.empty()) {
      os << "    worst attainment (profiled):\n";
      for (const RooflineStats::OpAttainment& a : r.worst) {
        std::snprintf(buf, sizeof(buf),
                      "      %-8s %6.1f%% of peak (%.2f GB/s, %llu gates, "
                      "%.3f ms)\n",
                      op_name(a.op), a.attainment * 100.0, a.gbps,
                      static_cast<unsigned long long>(a.count),
                      a.seconds * 1e3);
        os << buf;
      }
    }
  }

  if (waitstate.enabled) {
    os << waitstate.table();
    std::snprintf(buf, sizeof(buf),
                  "    imbalance %.2f (max/avg compute), straggler PE %d, "
                  "wait fraction %.1f%%%s\n",
                  waitstate.imbalance, waitstate.straggler,
                  waitstate.wait_fraction * 100.0,
                  waitstate.truncated ? " (spans truncated)" : "");
    os << buf;
    if (waitstate.critical_pe >= 0) {
      double crit_ms = 0;
      for (const WaitProfile::Critical& c : waitstate.critical) {
        if (c.pe == waitstate.critical_pe &&
            c.phase == waitstate.critical_phase) {
          crit_ms = c.seconds * 1e3;
          break;
        }
      }
      std::snprintf(buf, sizeof(buf),
                    "    critical path: PE %d / %s bounds wall-clock "
                    "(%.3f ms of %.3f ms phase time)\n",
                    waitstate.critical_pe, waitstate.critical_phase.c_str(),
                    crit_ms, waitstate.critical_s * 1e3);
      os << buf;
    }
  }

  if (memory.enabled) {
    char peakb[16];
    char estb[16];
    human_bytes(peakb, sizeof(peakb), memory.tracked_peak);
    human_bytes(estb, sizeof(estb),
                static_cast<std::uint64_t>(memory.estimated_bytes));
    std::snprintf(buf, sizeof(buf),
                  "  memory: tracked peak %s (estimate %s, %+.1f%%)",
                  peakb, estb, memory.estimate_error() * 100.0);
    os << buf;
    if (memory.sampled) {
      char rssb[16];
      human_bytes(rssb, sizeof(rssb), memory.peak_rss());
      std::snprintf(buf, sizeof(buf), ", peak RSS %s (%llu samples)", rssb,
                    static_cast<unsigned long long>(memory.samples));
      os << buf;
    } else if (!memory.sample_error.empty()) {
      os << ", rss unsampled (" << memory.sample_error << ")";
    }
    os << '\n';
    for (int i = 0; i < kNumMemTags; ++i) {
      const MemoryStats::Tag& t = memory.by_tag[static_cast<std::size_t>(i)];
      if (t.current == 0 && t.peak == 0) continue;
      char curb[16];
      char tpb[16];
      human_bytes(curb, sizeof(curb), t.current);
      human_bytes(tpb, sizeof(tpb), t.peak);
      std::snprintf(buf, sizeof(buf), "    %-12s current %8s  peak %8s\n",
                    mem_tag_name(static_cast<MemTag>(i)), curb, tpb);
      os << buf;
    }
    if (memory.numa && !memory.node_bytes.empty()) {
      os << "    numa placement:";
      for (std::size_t nd = 0; nd < memory.node_bytes.size(); ++nd) {
        char nb[16];
        human_bytes(nb, sizeof(nb), memory.node_bytes[nd]);
        std::snprintf(buf, sizeof(buf), " node%zu %s", nd, nb);
        os << buf;
      }
      os << '\n';
    } else if (!memory.numa_error.empty()) {
      os << "    numa: unavailable (" << memory.numa_error << ")\n";
    }
  }

  if (!matrix.empty()) {
    const TrafficMatrix::Imbalance im = matrix.imbalance();
    std::snprintf(buf, sizeof(buf),
                  "  traffic: %d PEs, %llu bytes (%llu remote), busiest link "
                  "%d -> %d, max/mean %.2f\n",
                  matrix.n, static_cast<unsigned long long>(matrix.total()),
                  static_cast<unsigned long long>(matrix.remote_total()),
                  im.busiest_src, im.busiest_dst, im.max_mean_ratio);
    os << buf;
  }
  return os.str();
}

} // namespace svsim::obs
