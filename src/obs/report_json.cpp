// obs::to_json — RunReport as RFC 8259 JSON (schema "svsim-report-v1"),
// one writer function per section, all through jsonlite::Writer.
#include "obs/jsonlite.hpp"
#include "obs/report.hpp"

namespace svsim::obs {

namespace {

using jsonlite::Writer;

void write_gates(Writer& w, const RunReport& report) {
  w.key("gates").begin_array();
  for (int i = 0; i < kNumOps; ++i) {
    const GateKindStats& s = report.by_op[static_cast<std::size_t>(i)];
    if (s.count == 0 && s.executed == 0) continue;
    w.begin_object()
        .field("op", op_name(static_cast<OP>(i)))
        .field("count", s.count)
        .field("executed", s.executed)
        .field("seconds", s.seconds)
        .end_object();
  }
  w.end_array();
}

void write_fusion(Writer& w, const FusionStats& f) {
  w.key("fusion")
      .begin_object()
      .field("gates_before", f.gates_before)
      .field("gates_after", f.gates_after)
      .field("fused_1q", f.fused_1q)
      .field("cancelled_2q", f.cancelled_2q)
      .field("dropped_identity", f.dropped_identity)
      .field("dense_blocks", f.dense_blocks)
      .field("dense_absorbed", f.dense_absorbed)
      .end_object();
}

void write_comm(Writer& w, const CommStats& c) {
  w.key("comm")
      .begin_object()
      .field("local_ops", c.local_ops)
      .field("remote_ops", c.remote_ops)
      .field("bytes", c.bytes)
      .field("messages", c.messages)
      .field("barriers", c.barriers)
      .end_object();
}

void write_sched(Writer& w, const SchedulerStats& s) {
  w.key("sched")
      .begin_object()
      .field("enabled", s.enabled)
      .field("active", s.active)
      .field("block_exp", s.block_exp)
      .field("windows", s.windows)
      .field("windowed_gates", s.windowed_gates)
      .field("passes_saved", s.passes_saved)
      .field("traffic_avoided_bytes", s.traffic_avoided_bytes)
      .end_object();
}

void write_remap(Writer& w, const RemapStats& r) {
  w.key("remap")
      .begin_object()
      .field("enabled", r.enabled)
      .field("active", r.active)
      .field("local_bits", r.local_bits)
      .field("swaps_inserted", r.swaps_inserted)
      .field("modeled_remote_bytes_before", r.modeled_remote_bytes_before)
      .field("modeled_remote_bytes_after", r.modeled_remote_bytes_after)
      .end_object();
}

void write_roofline(Writer& w, const RooflineStats& r) {
  w.key("roofline").begin_object().field("enabled", r.enabled);
  w.key("model")
      .begin_object()
      .field("amps", r.model_amps)
      .field("bytes", r.model_bytes)
      .field("bytes_sched", r.model_bytes_sched)
      .field("flops", r.model_flops)
      .field("ai", r.ai)
      .end_object();
  w.field("peak_gbps", r.peak_gbps)
      .field("model_gbps", r.model_gbps)
      .field("attainment", r.attainment);
  w.key("counters")
      .begin_object()
      .field("available", r.counters)
      .field("error", r.counters_error)
      .field("cycles", r.cycles)
      .field("instructions", r.instructions)
      .field("llc_loads", r.llc_loads)
      .field("llc_misses", r.llc_misses)
      .field("measured_gbps", r.measured_gbps)
      .end_object();
  w.key("worst").begin_array();
  for (const RooflineStats::OpAttainment& a : r.worst) {
    w.begin_object()
        .field("op", op_name(a.op))
        .field("count", a.count)
        .field("bytes", a.bytes)
        .field("seconds", a.seconds)
        .field("gbps", a.gbps)
        .field("attainment", a.attainment)
        .end_object();
  }
  w.end_array().end_object();
}

void write_waitstate(Writer& w, const WaitProfile& p) {
  w.key("waitstate").begin_object().field("enabled", p.enabled);
  w.key("per_pe").begin_array();
  for (const WaitProfile::PerPe& pe : p.per_pe) {
    w.begin_object()
        .field("wall_s", pe.wall_s)
        .field("compute_s", pe.compute_s)
        .field("barrier_s", pe.barrier_s)
        .field("reduction_s", pe.reduction_s)
        .field("transfer_s", pe.transfer_s)
        .field("wait_s", pe.wait_s())
        .field("barrier_n", pe.barrier_n)
        .field("reduction_n", pe.reduction_n)
        .field("transfer_n", pe.transfer_n)
        .end_object();
  }
  w.end_array()
      .field("imbalance", p.imbalance)
      .field("straggler", p.straggler)
      .field("wait_fraction", p.wait_fraction)
      .field("truncated", p.truncated)
      .field("critical_pe", p.critical_pe)
      .field("critical_phase", p.critical_phase)
      .field("critical_s", p.critical_s);
  w.key("critical").begin_array();
  for (const WaitProfile::Critical& c : p.critical) {
    w.begin_object()
        .field("pe", c.pe)
        .field("phase", c.phase)
        .field("seconds", c.seconds)
        .field("phases", c.phases)
        .end_object();
  }
  w.end_array().end_object();
}

void write_traffic_matrix(Writer& w, const TrafficMatrix& m) {
  w.key("traffic_matrix");
  if (m.empty()) {
    w.null();
    return;
  }
  w.begin_object().field("n", m.n);
  w.key("bytes").begin_array();
  for (int s = 0; s < m.n; ++s) {
    w.begin_array();
    for (int d = 0; d < m.n; ++d) w.value(m.at(s, d));
    w.end_array();
  }
  w.end_array();
  w.key("per_pe_bytes").begin_array();
  for (int s = 0; s < m.n; ++s) w.value(m.row_sum(s));
  w.end_array();
  const TrafficMatrix::Imbalance im = m.imbalance();
  w.field("total_bytes", m.total())
      .field("remote_bytes", m.remote_total())
      .field("max_mean_ratio", im.max_mean_ratio);
  w.key("busiest")
      .begin_object()
      .field("src", im.busiest_src)
      .field("dst", im.busiest_dst)
      .field("bytes", im.busiest_bytes)
      .end_object()
      .end_object();
}

void write_flight(Writer& w, const std::vector<FlightEvent>& events) {
  w.key("flight").begin_object().field("count", events.size());
  w.key("events").begin_array();
  // Cap the exported tail: the rings retain up to 256 events per worker,
  // far more than a report reader wants inline.
  constexpr std::size_t kMaxExported = 128;
  const std::size_t start =
      events.size() > kMaxExported ? events.size() - kMaxExported : 0;
  for (std::size_t i = start; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    w.begin_object()
        .field("seq", e.seq)
        .field("ts_us", e.ts_us)
        .field("kind",
               flight_kind_name(static_cast<FlightEvent::Kind>(e.kind)))
        .field("gate", e.gate_id)
        .field("op", e.op < static_cast<std::uint16_t>(kNumOps)
                         ? op_name(static_cast<OP>(e.op))
                         : "?")
        .field("worker", e.worker);
    w.key("qb").begin_array().value(e.qb0).value(e.qb1).end_array();
    w.end_object();
  }
  w.end_array().end_object();
}

} // namespace

void write_fields(Writer& w, const HealthStats& h) {
  w.field("enabled", h.enabled)
      .field("every_n", h.every_n)
      .field("checks", h.checks)
      .field("nan_checks", h.nan_checks)
      .field("non_finite", h.non_finite)
      .field("max_drift", h.max_drift)
      .field("last_norm2", h.last_norm2)
      .field("drift_gate_lo", h.drift_gate_lo)
      .field("drift_gate_hi", h.drift_gate_hi)
      .field("warns", h.warns)
      .field("aborted", h.aborted)
      .field("tripped", h.tripped());
}

void write_fields(Writer& w, const MemoryStats& m) {
  w.field("enabled", m.enabled)
      .field("tracked_bytes", m.tracked_bytes)
      .field("tracked_peak", m.tracked_peak)
      .field("peak_ts_us", m.peak_ts_us);
  w.key("tags").begin_array();
  for (int i = 0; i < kNumMemTags; ++i) {
    const MemoryStats::Tag& t = m.by_tag[static_cast<std::size_t>(i)];
    if (t.current == 0 && t.peak == 0) continue;
    w.begin_object()
        .field("tag", mem_tag_name(static_cast<MemTag>(i)))
        .field("current", t.current)
        .field("peak", t.peak)
        .end_object();
  }
  w.end_array();
  w.key("per_pe").begin_array();
  for (const MemoryStats::Pe& p : m.per_pe) {
    w.begin_object()
        .field("pe", p.pe)
        .field("current", p.current)
        .field("peak", p.peak)
        .field("node", p.node)
        .end_object();
  }
  w.end_array()
      .field("sampled", m.sampled)
      .field("sample_error", m.sample_error)
      .field("rss_bytes", m.rss_bytes)
      .field("peak_rss", m.peak_rss())
      .field("hwm_bytes", m.hwm_bytes)
      .field("baseline_rss", m.baseline_rss)
      .field("thp_bytes", m.thp_bytes)
      .field("samples", m.samples)
      .field("numa", m.numa)
      .field("numa_error", m.numa_error);
  w.key("node_bytes").begin_array();
  for (const std::uint64_t b : m.node_bytes) w.value(b);
  w.end_array()
      .field("estimated_bytes", m.estimated_bytes)
      .field("estimate_error", m.estimate_error());
}

std::string to_json(const RunReport& report) {
  Writer w;
  w.begin_object()
      .field("schema", "svsim-report-v1")
      .field("backend", report.backend)
      .field("n_qubits", report.n_qubits)
      .field("n_workers", report.n_workers)
      .field("batch", report.batch)
      .field("total_gates", report.total_gates)
      .field("wall_seconds", report.wall_seconds)
      .field("profiled", report.profiled)
      .field("circuit_hash", hash_hex(report.circuit_hash))
      .field("cpu", cpu_model());
  write_gates(w, report);
  write_fusion(w, report.fusion);
  write_comm(w, report.comm);
  w.key("health").begin_object();
  write_fields(w, report.health);
  w.end_object();
  write_sched(w, report.sched);
  write_remap(w, report.remap);
  write_roofline(w, report.roofline);
  w.key("memory").begin_object();
  write_fields(w, report.memory);
  w.end_object();
  write_waitstate(w, report.waitstate);
  write_traffic_matrix(w, report.matrix);
  write_flight(w, report.flight);
  return w.end_object().take();
}

} // namespace svsim::obs
