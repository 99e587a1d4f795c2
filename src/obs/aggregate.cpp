#include "obs/aggregate.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "ir/circuit.hpp"
#include "obs/jsonlite.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace svsim::obs {

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

WaitProfile aggregate_timelines(std::vector<PeTimeline> pes) {
  WaitProfile p;
  if (pes.empty()) return p;
  p.enabled = true;
  const int n = static_cast<int>(pes.size());

  // Clock alignment: shift every PE onto one timeline before folding.
  for (PeTimeline& tl : pes) {
    if (tl.clock_offset_us == 0) continue;
    tl.t0_us += tl.clock_offset_us;
    tl.t1_us += tl.clock_offset_us;
    for (WaitSpan& s : tl.spans) {
      s.t0_us += tl.clock_offset_us;
      s.t1_us += tl.clock_offset_us;
    }
  }

  // Per-PE breakdown: compute is the busy window minus attributed waits,
  // so compute + barrier + reduction + transfer == wall per PE exactly.
  p.per_pe.resize(static_cast<std::size_t>(n));
  double compute_sum = 0;
  double compute_max = 0;
  double wait_sum = 0;
  double wall_sum = 0;
  for (int w = 0; w < n; ++w) {
    const PeTimeline& tl = pes[static_cast<std::size_t>(w)];
    WaitProfile::PerPe& pe = p.per_pe[static_cast<std::size_t>(w)];
    pe.wall_s = std::max(0.0, (tl.t1_us - tl.t0_us) * 1e-6);
    pe.barrier_s = tl.wait_seconds[0];
    pe.reduction_s = tl.wait_seconds[1];
    pe.transfer_s = tl.wait_seconds[2];
    pe.barrier_n = tl.wait_count[0];
    pe.reduction_n = tl.wait_count[1];
    pe.transfer_n = tl.wait_count[2];
    pe.compute_s = std::max(0.0, pe.wall_s - pe.wait_s());
    p.truncated = p.truncated || tl.truncated;
    compute_sum += pe.compute_s;
    compute_max = std::max(compute_max, pe.compute_s);
    wait_sum += pe.wait_s();
    wall_sum += pe.wall_s;
    if (p.straggler < 0 ||
        pe.compute_s >
            p.per_pe[static_cast<std::size_t>(p.straggler)].compute_s) {
      p.straggler = w;
    }
  }
  const double compute_avg = compute_sum / static_cast<double>(n);
  p.imbalance = compute_avg > 0 ? compute_max / compute_avg : 0;
  p.wait_fraction = wall_sum > 0 ? wait_sum / wall_sum : 0;

  // Distributed critical path. Global barriers are team rendezvous: the
  // k-th kBarrier span on every PE belongs to the same collective, so the
  // intervals between consecutive barriers partition the run into phases.
  // Within phase k, PE busy time = barrier-arrival − previous-barrier-end;
  // the largest arrival bounds the team's wall clock for that phase.
  std::vector<std::vector<const WaitSpan*>> barriers(
      static_cast<std::size_t>(n));
  std::size_t m = static_cast<std::size_t>(-1);
  for (int w = 0; w < n; ++w) {
    auto& bs = barriers[static_cast<std::size_t>(w)];
    for (const WaitSpan& s : pes[static_cast<std::size_t>(w)].spans) {
      if (s.kind == WaitKind::kBarrier) bs.push_back(&s);
    }
    m = std::min(m, bs.size());
  }
  if (m == 0 || m == static_cast<std::size_t>(-1)) return p;

  struct Acc {
    double seconds = 0;
    std::uint64_t phases = 0;
  };
  std::map<std::pair<int, std::string>, Acc> by_pe_phase;
  std::vector<double> bound_by_pe(static_cast<std::size_t>(n), 0);
  for (std::size_t k = 0; k < m; ++k) {
    int crit = 0;
    double worst = -1;
    for (int w = 0; w < n; ++w) {
      const PeTimeline& tl = pes[static_cast<std::size_t>(w)];
      const auto& bs = barriers[static_cast<std::size_t>(w)];
      const double start = k == 0 ? tl.t0_us : bs[k - 1]->t1_us;
      const double busy = std::max(0.0, bs[k]->t0_us - start);
      if (busy > worst) {
        worst = busy;
        crit = w;
      }
    }
    const WaitSpan* s = barriers[static_cast<std::size_t>(crit)][k];
    Acc& acc = by_pe_phase[{crit, std::string(s->phase)}];
    acc.seconds += worst * 1e-6;
    ++acc.phases;
    bound_by_pe[static_cast<std::size_t>(crit)] += worst * 1e-6;
    p.critical_s += worst * 1e-6;
  }
  for (int w = 0; w < n; ++w) {
    if (p.critical_pe < 0 ||
        bound_by_pe[static_cast<std::size_t>(w)] >
            bound_by_pe[static_cast<std::size_t>(p.critical_pe)]) {
      p.critical_pe = w;
    }
  }
  for (const auto& [key, acc] : by_pe_phase) {
    p.critical.push_back(
        WaitProfile::Critical{key.first, key.second, acc.seconds, acc.phases});
  }
  std::sort(p.critical.begin(), p.critical.end(),
            [](const WaitProfile::Critical& a, const WaitProfile::Critical& b) {
              return a.seconds > b.seconds;
            });
  for (const WaitProfile::Critical& c : p.critical) {
    if (c.pe == p.critical_pe) {
      p.critical_phase = c.phase;
      break;
    }
  }
  constexpr std::size_t kMaxCritical = 8;
  if (p.critical.size() > kMaxCritical) p.critical.resize(kMaxCritical);
  return p;
}

std::string WaitProfile::table() const {
  std::ostringstream os;
  if (!enabled || per_pe.empty()) {
    return "  wait-state: (not recorded)\n";
  }
  os << "  wait-state per PE (compute = busy - wait; bar = wait fraction):\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "    %-4s %10s %10s %9s %9s %9s %7s\n",
                "PE", "wall ms", "compute", "barrier", "reduce", "xfer",
                "wait%");
  os << buf;
  double worst_frac = 0;
  for (const PerPe& pe : per_pe) {
    worst_frac = std::max(worst_frac, pe.wait_fraction());
  }
  for (std::size_t w = 0; w < per_pe.size(); ++w) {
    const PerPe& pe = per_pe[w];
    const double frac = pe.wait_fraction();
    std::snprintf(buf, sizeof(buf),
                  "    %-4zu %10.3f %10.3f %9.3f %9.3f %9.3f %6.1f%% ", w,
                  pe.wall_s * 1e3, pe.compute_s * 1e3, pe.barrier_s * 1e3,
                  pe.reduction_s * 1e3, pe.transfer_s * 1e3, frac * 100.0);
    os << buf;
    // Heat bar relative to the worst PE, 10 cells.
    const int cells =
        worst_frac > 0 ? static_cast<int>(frac / worst_frac * 10.0 + 0.5) : 0;
    for (int c = 0; c < cells; ++c) os << '#';
    os << '\n';
  }
  return os.str();
}

void fold_waitstate(RunReport& rep, WaitRecorder& rec,
                    const std::string& process) {
  // Flush wait spans onto the trace's per-PE tracks first (the fold below
  // consumes the spans). They interleave with the gate spans already on
  // the same tids, nesting the wait inside its gate.
  if (Trace::global().enabled()) {
    std::vector<std::vector<TraceEvent>> per_worker(
        static_cast<std::size_t>(rec.n_workers()));
    char args[96];
    for (int w = 0; w < rec.n_workers(); ++w) {
      const WaitTrack& t = rec.track(w);
      auto& evs = per_worker[static_cast<std::size_t>(w)];
      evs.reserve(t.spans.size());
      for (const WaitSpan& s : t.spans) {
        TraceEvent e;
        e.name = wait_kind_name(s.kind);
        e.cat = "wait";
        e.ts_us = s.t0_us;
        e.dur_us = s.t1_us - s.t0_us;
        std::snprintf(args, sizeof(args), "\"phase\":\"%s\"", s.phase);
        e.args = args;
        evs.push_back(std::move(e));
      }
    }
    Trace::global().flush_run(process, std::move(per_worker));
  }

  std::vector<PeTimeline> pes(static_cast<std::size_t>(rec.n_workers()));
  for (int w = 0; w < rec.n_workers(); ++w) {
    WaitTrack& t = rec.track(w);
    PeTimeline& tl = pes[static_cast<std::size_t>(w)];
    tl.t0_us = t.t0_us;
    tl.t1_us = t.t1_us;
    tl.wait_seconds = t.seconds;
    tl.wait_count = t.count;
    tl.truncated = t.truncated;
    tl.spans = std::move(t.spans);
  }
  rep.waitstate = aggregate_timelines(std::move(pes));
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

const std::string& cpu_model() {
  static const std::string model = [] {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
          std::size_t b = colon + 1;
          while (b < line.size() && line[b] == ' ') ++b;
          return line.substr(b);
        }
      }
    }
    return std::string("unknown-cpu");
  }();
  return model;
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void fnv(std::uint64_t* h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

template <typename T>
inline void fnv_pod(std::uint64_t* h, T v) {
  fnv(h, &v, sizeof(v));
}

std::uint64_t fnv_str(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  fnv(&h, s.data(), s.size());
  return h;
}

} // namespace

std::uint64_t hash_circuit(const Circuit& circuit) {
  std::uint64_t h = kFnvOffset;
  fnv_pod(&h, static_cast<std::int64_t>(circuit.n_qubits()));
  for (const Gate& g : circuit.gates()) {
    fnv_pod(&h, static_cast<std::int32_t>(g.op));
    fnv_pod(&h, static_cast<std::int64_t>(g.qb0));
    fnv_pod(&h, static_cast<std::int64_t>(g.qb1));
    fnv_pod(&h, static_cast<std::int64_t>(g.cbit));
    fnv_pod(&h, g.theta);
    fnv_pod(&h, g.phi);
    fnv_pod(&h, g.lam);
  }
  return h;
}

std::string hash_hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// Run ledger
// ---------------------------------------------------------------------------

namespace ledger {

namespace {
constexpr std::int64_t kMaxQubits = 63;
} // namespace

void Entry::rekey() {
  std::ostringstream os;
  os << circuit_hash << ':' << backend << ":w" << n_workers << ':'
     << hash_hex(fnv_str(cpu)).substr(8); // short CPU digest
  key = os.str();
}

std::string Entry::line() const {
  jsonlite::Writer w;
  return w.begin_object()
      .field("schema", kSchema)
      .field("key", key)
      .field("circuit_hash", circuit_hash)
      .field("backend", backend)
      .field("n_qubits", n_qubits)
      .field("n_workers", n_workers)
      .field("total_gates", total_gates)
      .field("cpu", cpu)
      .field("unix_time", unix_time)
      .field("wall_seconds", wall_seconds)
      .field("compute_s", compute_s)
      .field("wait_s", wait_s)
      .field("imbalance", imbalance)
      .field("critical", critical)
      .field("remote_bytes", remote_bytes)
      .field("peak_rss_bytes", peak_rss_bytes)
      .field("tracked_peak_bytes", tracked_peak_bytes)
      .field("est_err_pct", est_err_pct)
      .field("remap_swaps", remap_swaps)
      .end_object()
      .take();
}

// Both readers below refuse a document whose integer fields are not
// integers in range (jsonlite::Value::int_in): the function-try-block
// turns that Error into the reader's false return.
bool entry_from_report(const jsonlite::Value& report, Entry* out,
                       std::string* err) try {
  *out = Entry{};
  if (!report.is_object() ||
      report.member_str("schema", "") != "svsim-report-v1") {
    if (err != nullptr) *err = "not an svsim-report-v1 document";
    return false;
  }
  out->backend = report.member_str("backend", "");
  if (out->backend.empty()) {
    if (err != nullptr) *err = "report has no backend";
    return false;
  }
  out->circuit_hash = report.member_str("circuit_hash", "");
  out->cpu = report.member_str("cpu", "");
  out->n_qubits = report.member_int("n_qubits", 0, 0, kMaxQubits);
  out->n_workers =
      static_cast<int>(report.member_int("n_workers", 1, 1, INT_MAX));
  out->total_gates = report.member_count("total_gates");
  // A null (non-finite when written), missing or overflowing wall time
  // would poison every later --compare of the ledger.
  out->wall_seconds = report.member_num("wall_seconds", NAN);
  if (!std::isfinite(out->wall_seconds)) {
    if (err != nullptr) *err = "report has no finite wall_seconds";
    return false;
  }

  const jsonlite::Value* ws = report.find("waitstate");
  const jsonlite::Value* ws_on =
      ws != nullptr && ws->is_object() ? ws->find("enabled") : nullptr;
  if (ws_on != nullptr && ws_on->bool_or(false)) {
    if (const jsonlite::Value* per = ws->find("per_pe");
        per != nullptr && per->is_array()) {
      for (const jsonlite::Value& pe : per->items) {
        out->compute_s += pe.member_num("compute_s", 0);
        out->wait_s += pe.member_num("wait_s", 0);
      }
    }
    out->imbalance = ws->member_num("imbalance", 0);
    const auto cpe = ws->member_int("critical_pe", -1, -1, INT_MAX);
    const std::string phase = ws->member_str("critical_phase", "");
    if (cpe >= 0 && !phase.empty()) {
      out->critical = "PE " + std::to_string(cpe) + " / " + phase;
    }
  }
  if (const jsonlite::Value* m = report.find("traffic_matrix");
      m != nullptr && m->is_object()) {
    out->remote_bytes = m->member_count("remote_bytes");
  }
  if (const jsonlite::Value* mem = report.find("memory");
      mem != nullptr && mem->is_object() &&
      mem->find("enabled") != nullptr &&
      mem->find("enabled")->bool_or(false)) {
    out->peak_rss_bytes = mem->member_count("peak_rss");
    out->tracked_peak_bytes = mem->member_count("tracked_peak");
    out->est_err_pct = mem->member_num("estimate_error", 0) * 100.0;
  }
  if (const jsonlite::Value* rm = report.find("remap");
      rm != nullptr && rm->is_object() && rm->find("enabled") != nullptr &&
      rm->find("enabled")->bool_or(false)) {
    out->remap_swaps = rm->member_count("swaps_inserted");
  }
  out->rekey();
  return true;
} catch (const Error& e) {
  if (err != nullptr) *err = e.what();
  return false;
}

bool parse_line(const std::string& line, Entry* out, std::string* err) try {
  jsonlite::Value v;
  std::size_t off = 0;
  if (!jsonlite::parse(line, &v, &off)) {
    if (err != nullptr) {
      *err = "invalid JSON (error at byte " + std::to_string(off) + ")";
    }
    return false;
  }
  if (!v.is_object() || v.member_str("schema", "") != kSchema) {
    if (err != nullptr) *err = std::string("missing ") + kSchema + " schema";
    return false;
  }
  *out = Entry{};
  out->key = v.member_str("key", "");
  out->circuit_hash = v.member_str("circuit_hash", "");
  out->backend = v.member_str("backend", "");
  out->n_qubits = v.member_int("n_qubits", 0, 0, kMaxQubits);
  out->n_workers =
      static_cast<int>(v.member_int("n_workers", 0, 0, INT_MAX));
  out->total_gates = v.member_count("total_gates");
  out->cpu = v.member_str("cpu", "");
  out->unix_time = static_cast<long long>(v.member_count("unix_time"));
  out->wall_seconds = v.member_num("wall_seconds", -1);
  out->compute_s = v.member_num("compute_s", 0);
  out->wait_s = v.member_num("wait_s", 0);
  out->imbalance = v.member_num("imbalance", 0);
  out->critical = v.member_str("critical", "");
  out->remote_bytes = v.member_count("remote_bytes");
  out->peak_rss_bytes = v.member_count("peak_rss_bytes");
  out->tracked_peak_bytes = v.member_count("tracked_peak_bytes");
  out->est_err_pct = v.member_num("est_err_pct", 0);
  out->remap_swaps = v.member_count("remap_swaps");
  if (out->key.empty() || out->backend.empty() ||
      !(out->wall_seconds >= 0 && std::isfinite(out->wall_seconds))) {
    if (err != nullptr) *err = "ledger entry lacks key/backend/wall_seconds";
    return false;
  }
  return true;
} catch (const Error& e) {
  if (err != nullptr) *err = e.what();
  return false;
}

std::string compare(std::vector<Entry> entries) {
  std::ostringstream os;
  if (entries.empty()) return "ledger: no entries\n";
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.key != b.key) return a.key < b.key;
                     return a.unix_time < b.unix_time;
                   });
  char buf[240];
  std::size_t i = 0;
  while (i < entries.size()) {
    std::size_t j = i;
    double best = entries[i].wall_seconds;
    while (j < entries.size() && entries[j].key == entries[i].key) {
      best = std::min(best, entries[j].wall_seconds);
      ++j;
    }
    const Entry& head = entries[i];
    os << head.key << "  (" << head.backend << ", n=" << head.n_qubits
       << ", w" << head.n_workers << ", " << head.total_gates << " gates, "
       << (head.cpu.empty() ? "unknown-cpu" : head.cpu) << ")\n";
    std::snprintf(buf, sizeof(buf),
                  "    %-4s %12s %10s %10s %7s %8s %8s %10s %8s  %s\n", "run",
                  "wall ms", "compute", "wait", "imbal", "vs prev", "vs best",
                  "peak rss", "est err", "critical");
    os << buf;
    for (std::size_t k = i; k < j; ++k) {
      const Entry& e = entries[k];
      const double prev = k > i ? entries[k - 1].wall_seconds : 0;
      char dprev[16] = "-";
      char dbest[16] = "-";
      if (k > i && prev > 0) {
        std::snprintf(dprev, sizeof(dprev), "%+.1f%%",
                      (e.wall_seconds / prev - 1.0) * 100.0);
      }
      if (best > 0) {
        std::snprintf(dbest, sizeof(dbest), "%+.1f%%",
                      (e.wall_seconds / best - 1.0) * 100.0);
      }
      // "-" for pre-memory ledger lines or runs with the plane off.
      char rss[16] = "-";
      char eerr[16] = "-";
      if (e.peak_rss_bytes > 0) {
        std::snprintf(rss, sizeof(rss), "%.1fM",
                      static_cast<double>(e.peak_rss_bytes) / (1024.0 * 1024.0));
      }
      if (e.tracked_peak_bytes > 0) {
        std::snprintf(eerr, sizeof(eerr), "%+.1f%%", e.est_err_pct);
      }
      std::snprintf(buf, sizeof(buf),
                    "    %-4zu %12.3f %10.3f %10.3f %7.2f %8s %8s %10s %8s  %s\n",
                    k - i, e.wall_seconds * 1e3, e.compute_s * 1e3,
                    e.wait_s * 1e3, e.imbalance, dprev, dbest, rss, eerr,
                    e.critical.empty() ? "-" : e.critical.c_str());
      os << buf;
    }
    i = j;
  }
  return os.str();
}

} // namespace ledger
} // namespace svsim::obs
