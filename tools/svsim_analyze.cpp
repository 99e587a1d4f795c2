// svsim_analyze: post-process svsim-report-v1 documents and maintain the
// append-only run-ledger — the cross-run telemetry companion to
// qasm_runner --report-json.
//
//   # wait-state breakdown + per-PE heatmap from a report
//   $ svsim_analyze report.json
//
//   # append report summaries to a ledger (created on first use)
//   $ svsim_analyze --ledger runs.jsonl report1.json report2.json
//
//   # compare all runs in the ledger, grouped by circuit/config/CPU key
//   $ svsim_analyze --compare --ledger runs.jsonl
//
//   # merge per-process Chrome traces into one clock-aligned timeline
//   $ svsim_analyze --merge-trace merged.json a.trace.json b.trace.json
//
// Exit codes: 0 success, 1 usage/IO/parse error on inputs, 3 corrupted
// ledger line (the negative control analyze_smoke checks).
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "obs/aggregate.hpp"
#include "obs/jsonlite.hpp"

namespace {

using svsim::obs::WaitProfile;
using svsim::obs::jsonlite::Value;
namespace ledger = svsim::obs::ledger;

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool load_json(const std::string& path, Value* out) {
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "svsim_analyze: cannot read %s\n", path.c_str());
    return false;
  }
  std::size_t off = 0;
  if (!svsim::obs::jsonlite::parse(text, out, &off)) {
    std::fprintf(stderr, "svsim_analyze: %s: invalid JSON at byte %zu\n",
                 path.c_str(), off);
    return false;
  }
  return true;
}

/// Rebuild the WaitProfile from a report's "waitstate" section so the
/// breakdown prints with the exact same table() the simulator uses.
WaitProfile profile_from_report(const Value& report) {
  WaitProfile p;
  const Value* ws = report.find("waitstate");
  if (ws == nullptr || !ws->is_object()) return p;
  const Value* on = ws->find("enabled");
  if (on == nullptr || !on->bool_or(false)) return p;
  p.enabled = true;
  if (const Value* per = ws->find("per_pe"); per != nullptr && per->is_array()) {
    for (const Value& v : per->items) {
      WaitProfile::PerPe pe;
      pe.wall_s = v.member_num("wall_s", 0);
      pe.compute_s = v.member_num("compute_s", 0);
      pe.barrier_s = v.member_num("barrier_s", 0);
      pe.reduction_s = v.member_num("reduction_s", 0);
      pe.transfer_s = v.member_num("transfer_s", 0);
      pe.barrier_n = static_cast<std::uint64_t>(v.member_num("barrier_n", 0));
      pe.reduction_n =
          static_cast<std::uint64_t>(v.member_num("reduction_n", 0));
      pe.transfer_n = static_cast<std::uint64_t>(v.member_num("transfer_n", 0));
      p.per_pe.push_back(pe);
    }
  }
  p.imbalance = ws->member_num("imbalance", 0);
  p.straggler = static_cast<int>(ws->member_num("straggler", -1));
  p.wait_fraction = ws->member_num("wait_fraction", 0);
  if (const Value* t = ws->find("truncated")) p.truncated = t->bool_or(false);
  p.critical_pe = static_cast<int>(ws->member_num("critical_pe", -1));
  p.critical_phase = ws->member_str("critical_phase", "");
  p.critical_s = ws->member_num("critical_s", 0);
  if (const Value* crit = ws->find("critical");
      crit != nullptr && crit->is_array()) {
    for (const Value& v : crit->items) {
      WaitProfile::Critical c;
      c.pe = static_cast<int>(v.member_num("pe", -1));
      c.phase = v.member_str("phase", "");
      c.seconds = v.member_num("seconds", 0);
      c.phases = static_cast<std::uint64_t>(v.member_num("phases", 0));
      p.critical.push_back(std::move(c));
    }
  }
  return p;
}

int show_breakdown(const std::string& path) {
  Value report;
  if (!load_json(path, &report)) return 1;
  if (report.member_str("schema", "") != "svsim-report-v1") {
    std::fprintf(stderr, "svsim_analyze: %s is not an svsim-report-v1 report\n",
                 path.c_str());
    return 1;
  }
  std::printf("%s: backend=%s qubits=%lld workers=%d gates=%llu "
              "wall=%.3f ms\n",
              path.c_str(), report.member_str("backend", "?").c_str(),
              static_cast<long long>(report.member_num("n_qubits", 0)),
              static_cast<int>(report.member_num("n_workers", 1)),
              static_cast<unsigned long long>(
                  report.member_num("total_gates", 0)),
              report.member_num("wall_seconds", 0) * 1e3);
  const std::string hash = report.member_str("circuit_hash", "");
  const std::string cpu = report.member_str("cpu", "");
  if (!hash.empty()) {
    std::printf("  circuit %s on %s\n", hash.c_str(),
                cpu.empty() ? "unknown-cpu" : cpu.c_str());
  }
  const WaitProfile p = profile_from_report(report);
  if (!p.enabled) {
    std::printf("  wait-state: not recorded (run with SVSIM_WAITSTATS=1)\n");
    return 0;
  }
  std::printf("%s", p.table().c_str());
  std::printf("    imbalance %.2f (max/avg compute), straggler PE %d, wait "
              "fraction %.1f%%\n",
              p.imbalance, p.straggler, p.wait_fraction * 100.0);
  if (p.critical_pe >= 0) {
    std::printf("    critical path: PE %d / %s bounds wall-clock\n",
                p.critical_pe, p.critical_phase.c_str());
    for (const WaitProfile::Critical& c : p.critical) {
      std::printf("      PE %d %-10s %10.3f ms over %llu phases\n", c.pe,
                  c.phase.c_str(), c.seconds * 1e3,
                  static_cast<unsigned long long>(c.phases));
    }
  }
  return 0;
}

int append_to_ledger(const std::string& ledger_path,
                     const std::vector<std::string>& reports) {
  std::ofstream out(ledger_path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "svsim_analyze: cannot open ledger %s\n",
                 ledger_path.c_str());
    return 1;
  }
  for (const std::string& path : reports) {
    Value report;
    if (!load_json(path, &report)) return 1;
    ledger::Entry e;
    std::string err;
    if (!ledger::entry_from_report(report, &e, &err)) {
      std::fprintf(stderr, "svsim_analyze: %s: %s\n", path.c_str(),
                   err.c_str());
      return 1;
    }
    e.unix_time = static_cast<long long>(std::time(nullptr));
    out << e.line() << '\n';
    std::printf("ledger %s += %s (%s, wall %.3f ms)\n", ledger_path.c_str(),
                e.key.c_str(), path.c_str(), e.wall_seconds * 1e3);
  }
  return 0;
}

int compare_ledger(const std::string& ledger_path) {
  std::ifstream in(ledger_path);
  if (!in) {
    std::fprintf(stderr, "svsim_analyze: cannot read ledger %s\n",
                 ledger_path.c_str());
    return 1;
  }
  std::vector<ledger::Entry> entries;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    ledger::Entry e;
    std::string err;
    if (!ledger::parse_line(line, &e, &err)) {
      std::fprintf(stderr, "svsim_analyze: %s:%zu: corrupted ledger line (%s)\n",
                   ledger_path.c_str(), lineno, err.c_str());
      return 3;
    }
    entries.push_back(std::move(e));
  }
  std::printf("%s", ledger::compare(std::move(entries)).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// --merge-trace: N per-process Chrome trace files -> one aligned timeline.
// ---------------------------------------------------------------------------

int merge_traces(const std::string& out_path,
                 const std::vector<std::string>& inputs) {
  if (inputs.empty()) {
    std::fprintf(stderr, "svsim_analyze: --merge-trace needs input traces\n");
    return 1;
  }
  svsim::obs::jsonlite::Writer w;
  w.begin_object().key("traceEvents").begin_array();
  int pid_base = 0;
  for (std::size_t f = 0; f < inputs.size(); ++f) {
    Value trace;
    if (!load_json(inputs[f], &trace)) return 1;
    const Value* events = trace.find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      std::fprintf(stderr, "svsim_analyze: %s has no traceEvents array\n",
                   inputs[f].c_str());
      return 1;
    }
    // Clock alignment: each process stamps ts against its own steady-clock
    // epoch, so absolute values are incomparable across files. Re-zero
    // every file at its earliest event; relative timing within a file (the
    // part a timeline viewer shows) is preserved exactly.
    double t0 = 0;
    bool have_t0 = false;
    int max_pid = 0;
    for (const Value& e : events->items) {
      const double ts = e.member_num("ts", 0);
      if (!have_t0 || ts < t0) {
        t0 = ts;
        have_t0 = true;
      }
      const int pid = static_cast<int>(e.member_num("pid", 0));
      if (pid > max_pid) max_pid = pid;
    }
    for (const Value& e : events->items) {
      if (!e.is_object()) continue;
      w.begin_object();
      for (const auto& [key, val] : e.members) {
        w.key(key);
        if (key == "ts" && val.type == Value::Type::kNumber) {
          w.value(val.number - t0);
        } else if (key == "pid" && val.type == Value::Type::kNumber) {
          w.value(pid_base + static_cast<int>(val.number));
        } else {
          w.write(val);
        }
      }
      w.end_object();
    }
    // Give the next file a disjoint pid range so its process lanes stay
    // separate in the viewer.
    pid_base += max_pid + 1;
  }
  w.end_array().end_object();
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "svsim_analyze: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << w.take() << '\n';
  std::printf("merged %zu trace(s) -> %s\n", inputs.size(), out_path.c_str());
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: svsim_analyze <report.json>...                  breakdown\n"
      "       svsim_analyze --ledger L.jsonl <report.json>... append\n"
      "       svsim_analyze --compare --ledger L.jsonl        cross-run\n"
      "       svsim_analyze --merge-trace out.json <trace>... merge\n");
  return 1;
}

} // namespace

int main(int argc, char** argv) {
  try {
    svsim::Env::process().check();
  } catch (const svsim::Error& e) {
    std::fprintf(stderr, "svsim_analyze: %s\n", e.what());
    return 1;
  }
  std::string ledger_path;
  std::string merge_out;
  bool compare = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ledger" && i + 1 < argc) {
      ledger_path = argv[++i];
    } else if (arg == "--compare") {
      compare = true;
    } else if (arg == "--merge-trace" && i + 1 < argc) {
      merge_out = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }

  if (!merge_out.empty()) return merge_traces(merge_out, files);
  if (compare) {
    if (ledger_path.empty()) return usage();
    return compare_ledger(ledger_path);
  }
  if (!ledger_path.empty()) {
    if (files.empty()) return usage();
    return append_to_ledger(ledger_path, files);
  }
  if (files.empty()) return usage();
  for (const std::string& f : files) {
    const int rc = show_breakdown(f);
    if (rc != 0) return rc;
  }
  return 0;
}
