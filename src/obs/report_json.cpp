// obs::to_json — RunReport as RFC 8259 JSON (schema "svsim-report-v1").
//
// Hand-rolled emitter kept next to the report type on purpose: the
// schema is small enough that a builder library would be more code than
// the emitter. Strings go through jsonlite::quote. Non-finite doubles are
// emitted as null so the output always validates.
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/jsonlite.hpp"
#include "obs/report.hpp"

namespace svsim::obs {

namespace {

void append_double(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null"; // NaN/Inf are not JSON; null keeps the document valid
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

void append_u64(std::ostringstream& os, std::uint64_t v) {
  os << static_cast<unsigned long long>(v);
}

} // namespace

std::string to_json(const RunReport& report) {
  std::ostringstream os;
  os << "{\"schema\":\"svsim-report-v1\",";
  os << "\"backend\":" << jsonlite::quote(report.backend);
  os << ",\"n_qubits\":" << static_cast<long long>(report.n_qubits);
  os << ",\"n_workers\":" << report.n_workers;
  os << ",\"batch\":" << report.batch;
  os << ",\"total_gates\":";
  append_u64(os, report.total_gates);
  os << ",\"wall_seconds\":";
  append_double(os, report.wall_seconds);
  os << ",\"profiled\":" << (report.profiled ? "true" : "false");
  os << ",\"circuit_hash\":" << jsonlite::quote(hash_hex(report.circuit_hash));
  os << ",\"cpu\":" << jsonlite::quote(cpu_model());

  os << ",\"gates\":[";
  bool first = true;
  for (int i = 0; i < kNumOps; ++i) {
    const GateKindStats& s = report.by_op[static_cast<std::size_t>(i)];
    if (s.count == 0) continue;
    if (!first) os << ',';
    first = false;
    os << "{\"op\":" << jsonlite::quote(op_name(static_cast<OP>(i)));
    os << ",\"count\":";
    append_u64(os, s.count);
    os << ",\"seconds\":";
    append_double(os, s.seconds);
    os << '}';
  }
  os << ']';

  os << ",\"fusion\":{\"gates_before\":"
     << static_cast<long long>(report.fusion.gates_before)
     << ",\"gates_after\":" << static_cast<long long>(report.fusion.gates_after)
     << ",\"fused_1q\":" << static_cast<long long>(report.fusion.fused_1q)
     << ",\"cancelled_2q\":"
     << static_cast<long long>(report.fusion.cancelled_2q)
     << ",\"dropped_identity\":"
     << static_cast<long long>(report.fusion.dropped_identity) << '}';

  os << ",\"comm\":{\"local_ops\":";
  append_u64(os, report.comm.local_ops);
  os << ",\"remote_ops\":";
  append_u64(os, report.comm.remote_ops);
  os << ",\"bytes\":";
  append_u64(os, report.comm.bytes);
  os << ",\"messages\":";
  append_u64(os, report.comm.messages);
  os << ",\"barriers\":";
  append_u64(os, report.comm.barriers);
  os << '}';

  const HealthStats& h = report.health;
  os << ",\"health\":{\"enabled\":" << (h.enabled ? "true" : "false")
     << ",\"every_n\":" << h.every_n << ",\"checks\":";
  append_u64(os, h.checks);
  os << ",\"nan_checks\":";
  append_u64(os, h.nan_checks);
  os << ",\"non_finite\":";
  append_u64(os, h.non_finite);
  os << ",\"max_drift\":";
  append_double(os, h.max_drift);
  os << ",\"last_norm2\":";
  append_double(os, h.last_norm2);
  os << ",\"drift_gate_lo\":";
  append_u64(os, h.drift_gate_lo);
  os << ",\"drift_gate_hi\":";
  append_u64(os, h.drift_gate_hi);
  os << ",\"warns\":";
  append_u64(os, h.warns);
  os << ",\"aborted\":" << (h.aborted ? "true" : "false")
     << ",\"tripped\":" << (h.tripped() ? "true" : "false") << '}';

  const SchedulerStats& sc = report.sched;
  os << ",\"sched\":{\"enabled\":" << (sc.enabled ? "true" : "false")
     << ",\"active\":" << (sc.active ? "true" : "false")
     << ",\"block_exp\":" << sc.block_exp << ",\"windows\":";
  append_u64(os, sc.windows);
  os << ",\"windowed_gates\":";
  append_u64(os, sc.windowed_gates);
  os << ",\"passes_saved\":";
  append_u64(os, sc.passes_saved);
  os << ",\"traffic_avoided_bytes\":";
  append_u64(os, sc.traffic_avoided_bytes);
  os << '}';

  const RemapStats& rm = report.remap;
  os << ",\"remap\":{\"enabled\":" << (rm.enabled ? "true" : "false")
     << ",\"active\":" << (rm.active ? "true" : "false")
     << ",\"local_bits\":" << rm.local_bits << ",\"swaps_inserted\":";
  append_u64(os, rm.swaps_inserted);
  os << ",\"modeled_remote_bytes_before\":";
  append_u64(os, rm.modeled_remote_bytes_before);
  os << ",\"modeled_remote_bytes_after\":";
  append_u64(os, rm.modeled_remote_bytes_after);
  os << '}';

  const RooflineStats& rf = report.roofline;
  os << ",\"roofline\":{\"enabled\":" << (rf.enabled ? "true" : "false")
     << ",\"model\":{\"amps\":";
  append_double(os, rf.model_amps);
  os << ",\"bytes\":";
  append_double(os, rf.model_bytes);
  os << ",\"bytes_sched\":";
  append_double(os, rf.model_bytes_sched);
  os << ",\"flops\":";
  append_double(os, rf.model_flops);
  os << ",\"ai\":";
  append_double(os, rf.ai);
  os << "},\"peak_gbps\":";
  append_double(os, rf.peak_gbps);
  os << ",\"model_gbps\":";
  append_double(os, rf.model_gbps);
  os << ",\"attainment\":";
  append_double(os, rf.attainment);
  os << ",\"counters\":{\"available\":" << (rf.counters ? "true" : "false")
     << ",\"error\":";
  os << jsonlite::quote(rf.counters_error);
  os << ",\"cycles\":";
  append_u64(os, rf.cycles);
  os << ",\"instructions\":";
  append_u64(os, rf.instructions);
  os << ",\"llc_loads\":";
  append_u64(os, rf.llc_loads);
  os << ",\"llc_misses\":";
  append_u64(os, rf.llc_misses);
  os << ",\"measured_gbps\":";
  append_double(os, rf.measured_gbps);
  os << "},\"worst\":[";
  for (std::size_t i = 0; i < rf.worst.size(); ++i) {
    const RooflineStats::OpAttainment& a = rf.worst[i];
    if (i != 0) os << ',';
    os << "{\"op\":" << jsonlite::quote(op_name(a.op));
    os << ",\"count\":";
    append_u64(os, a.count);
    os << ",\"bytes\":";
    append_double(os, a.bytes);
    os << ",\"seconds\":";
    append_double(os, a.seconds);
    os << ",\"gbps\":";
    append_double(os, a.gbps);
    os << ",\"attainment\":";
    append_double(os, a.attainment);
    os << '}';
  }
  os << "]}";

  const MemoryStats& mm = report.memory;
  os << ",\"memory\":{\"enabled\":" << (mm.enabled ? "true" : "false")
     << ",\"tracked_bytes\":";
  append_u64(os, mm.tracked_bytes);
  os << ",\"tracked_peak\":";
  append_u64(os, mm.tracked_peak);
  os << ",\"peak_ts_us\":";
  append_double(os, mm.peak_ts_us);
  os << ",\"tags\":[";
  for (std::size_t i = 0; i < mm.tags.size(); ++i) {
    const MemoryStats::Tag& t = mm.tags[i];
    if (i != 0) os << ',';
    os << "{\"tag\":" << jsonlite::quote(t.name);
    os << ",\"current\":";
    append_u64(os, t.current);
    os << ",\"peak\":";
    append_u64(os, t.peak);
    os << '}';
  }
  os << "],\"per_pe\":[";
  for (std::size_t i = 0; i < mm.per_pe.size(); ++i) {
    const MemoryStats::Pe& p = mm.per_pe[i];
    if (i != 0) os << ',';
    os << "{\"pe\":" << p.pe << ",\"current\":";
    append_u64(os, p.current);
    os << ",\"peak\":";
    append_u64(os, p.peak);
    os << ",\"node\":" << p.node << '}';
  }
  os << "],\"sampled\":" << (mm.sampled ? "true" : "false")
     << ",\"sample_error\":";
  os << jsonlite::quote(mm.sample_error);
  os << ",\"rss_bytes\":";
  append_u64(os, mm.rss_bytes);
  os << ",\"peak_rss\":";
  append_u64(os, mm.peak_rss);
  os << ",\"baseline_rss\":";
  append_u64(os, mm.baseline_rss);
  os << ",\"thp_bytes\":";
  append_u64(os, mm.thp_bytes);
  os << ",\"samples\":";
  append_u64(os, mm.samples);
  os << ",\"numa\":" << (mm.numa ? "true" : "false") << ",\"numa_error\":";
  os << jsonlite::quote(mm.numa_error);
  os << ",\"node_bytes\":[";
  for (std::size_t i = 0; i < mm.node_bytes.size(); ++i) {
    if (i != 0) os << ',';
    append_u64(os, mm.node_bytes[i]);
  }
  os << "],\"estimated_bytes\":";
  append_double(os, mm.estimated_bytes);
  os << ",\"estimate_error\":";
  append_double(os, mm.estimate_error());
  os << '}';

  const WaitProfile& ws = report.waitstate;
  os << ",\"waitstate\":{\"enabled\":" << (ws.enabled ? "true" : "false")
     << ",\"per_pe\":[";
  for (std::size_t w = 0; w < ws.per_pe.size(); ++w) {
    const WaitProfile::PerPe& pe = ws.per_pe[w];
    if (w != 0) os << ',';
    os << "{\"wall_s\":";
    append_double(os, pe.wall_s);
    os << ",\"compute_s\":";
    append_double(os, pe.compute_s);
    os << ",\"barrier_s\":";
    append_double(os, pe.barrier_s);
    os << ",\"reduction_s\":";
    append_double(os, pe.reduction_s);
    os << ",\"transfer_s\":";
    append_double(os, pe.transfer_s);
    os << ",\"wait_s\":";
    append_double(os, pe.wait_s());
    os << ",\"barrier_n\":";
    append_u64(os, pe.barrier_n);
    os << ",\"reduction_n\":";
    append_u64(os, pe.reduction_n);
    os << ",\"transfer_n\":";
    append_u64(os, pe.transfer_n);
    os << '}';
  }
  os << "],\"imbalance\":";
  append_double(os, ws.imbalance);
  os << ",\"straggler\":" << ws.straggler << ",\"wait_fraction\":";
  append_double(os, ws.wait_fraction);
  os << ",\"truncated\":" << (ws.truncated ? "true" : "false")
     << ",\"critical_pe\":" << ws.critical_pe << ",\"critical_phase\":";
  os << jsonlite::quote(ws.critical_phase);
  os << ",\"critical_s\":";
  append_double(os, ws.critical_s);
  os << ",\"critical\":[";
  for (std::size_t i = 0; i < ws.critical.size(); ++i) {
    const WaitProfile::Critical& c = ws.critical[i];
    if (i != 0) os << ',';
    os << "{\"pe\":" << c.pe << ",\"phase\":" << jsonlite::quote(c.phase);
    os << ",\"seconds\":";
    append_double(os, c.seconds);
    os << ",\"phases\":";
    append_u64(os, c.phases);
    os << '}';
  }
  os << "]}";

  if (report.matrix.empty()) {
    os << ",\"traffic_matrix\":null";
  } else {
    const TrafficMatrix& m = report.matrix;
    const TrafficMatrix::Imbalance im = m.imbalance();
    os << ",\"traffic_matrix\":{\"n\":" << m.n << ",\"bytes\":[";
    for (int s = 0; s < m.n; ++s) {
      if (s != 0) os << ',';
      os << '[';
      for (int d = 0; d < m.n; ++d) {
        if (d != 0) os << ',';
        append_u64(os, m.at(s, d));
      }
      os << ']';
    }
    os << "],\"per_pe_bytes\":[";
    for (int s = 0; s < m.n; ++s) {
      if (s != 0) os << ',';
      append_u64(os, m.row_sum(s));
    }
    os << "],\"total_bytes\":";
    append_u64(os, m.total());
    os << ",\"remote_bytes\":";
    append_u64(os, m.remote_total());
    os << ",\"max_mean_ratio\":";
    append_double(os, im.max_mean_ratio);
    os << ",\"busiest\":{\"src\":" << im.busiest_src
       << ",\"dst\":" << im.busiest_dst << ",\"bytes\":";
    append_u64(os, im.busiest_bytes);
    os << "}}";
  }

  os << ",\"flight\":{\"count\":" << report.flight.size() << ",\"events\":[";
  // Cap the exported tail: the rings retain up to 256 events per worker,
  // far more than a report reader wants inline.
  constexpr std::size_t kMaxExported = 128;
  const std::size_t start =
      report.flight.size() > kMaxExported ? report.flight.size() - kMaxExported
                                          : 0;
  for (std::size_t i = start; i < report.flight.size(); ++i) {
    const FlightEvent& e = report.flight[i];
    if (i != start) os << ',';
    os << "{\"seq\":";
    append_u64(os, e.seq);
    os << ",\"ts_us\":";
    append_double(os, e.ts_us);
    os << ",\"kind\":"
       << jsonlite::quote(
              flight_kind_name(static_cast<FlightEvent::Kind>(e.kind)));
    os << ",\"gate\":";
    append_u64(os, e.gate_id);
    os << ",\"op\":"
       << jsonlite::quote(e.op < static_cast<std::uint16_t>(kNumOps)
                              ? op_name(static_cast<OP>(e.op))
                              : "?");
    os << ",\"worker\":" << e.worker << ",\"qb\":[" << e.qb0 << ',' << e.qb1
       << "]}";
  }
  os << "]}}";
  return os.str();
}

} // namespace svsim::obs
