// Shared table-formatting helpers for the figure-reproduction benches.
// Every bench prints (a) the series the paper's figure plots, and (b) a
// short "shape check" summarizing the qualitative claim being reproduced.
//
// When SVSIM_BENCH_JSON=<path> is set, every printed table is also
// appended to a machine-readable JSON document at <path> (rewritten on
// each table so a valid file exists at all times):
//
//   { "schema": "svsim-bench-v2", "generated_unix": ..., "cpu": ...,
//     "compiler": ..., "flags": ...,
//     "tables": [ { "title": ..., "corner": ..., "columns": [...],
//                   "rows": [ { "label": ..., "values": [...] } ] } ] }
//
// so BENCH_*.json trajectories can be captured without parsing stdout.
// The provenance header identifies the machine and build that produced
// the numbers: bench/regress_check.py refuses to silently compare
// baselines stamped by different CPUs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "obs/jsonlite.hpp"
#include "obs/report.hpp"
#include "vqa/pauli.hpp"

namespace svsim::bench {

namespace detail {

struct JsonTable {
  std::string title; // most recent print_header title
  std::string corner;
  std::vector<std::string> columns;
  std::vector<std::pair<std::string, std::vector<double>>> rows;
};

struct JsonSink {
  std::string path;   // from SVSIM_BENCH_JSON; empty = disabled
  std::string title;  // current section (print_header)
  std::vector<JsonTable> tables;

  static JsonSink& instance() {
    static JsonSink s{Env::process().bench_json.value_or(""), "", {}};
    return s;
  }
};

/// The svsim-bench-v2 document for `tables`, one table row per line so
/// committed baselines stay diffable.
inline std::string bench_document(const std::vector<JsonTable>& tables) {
  obs::jsonlite::Writer w;
  // Provenance header first, so any consumer can check who produced the
  // numbers before reading a single row.
  w.begin_object()
      .field("schema", "svsim-bench-v2")
      .field("generated_unix", static_cast<long long>(std::time(nullptr)))
      .field("cpu", obs::cpu_model());
#if defined(__clang__)
  w.field("compiler", std::string("clang ") + __VERSION__);
#elif defined(__GNUC__)
  w.field("compiler", std::string("gcc ") + __VERSION__);
#else
  w.field("compiler", "unknown");
#endif
#ifdef SVSIM_BENCH_FLAGS
  w.field("flags", SVSIM_BENCH_FLAGS);
#else
  w.field("flags", "");
#endif
  w.key("tables").begin_array();
  for (const JsonTable& t : tables) {
    w.newline()
        .begin_object()
        .field("title", t.title)
        .field("corner", t.corner)
        .key("columns")
        .begin_array();
    for (const std::string& c : t.columns) w.value(c);
    w.end_array().key("rows").begin_array();
    for (const auto& [label, values] : t.rows) {
      w.newline().begin_object().field("label", label);
      w.key("values").begin_array();
      for (const double v : values) w.value(v);
      w.end_array().end_object();
    }
    w.newline().end_array().end_object();
  }
  return w.newline().end_array().end_object().take() + '\n';
}

/// Rewrite the whole JSON document from the accumulated tables.
inline void json_write_all() {
  const JsonSink& sink = JsonSink::instance();
  if (sink.path.empty()) return;
  const std::string out = bench_document(sink.tables);
  if (std::FILE* f = std::fopen(sink.path.c_str(), "w")) {
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
  }
}

} // namespace detail

/// Transverse-field Ising observable on `n` qubits: -ZZ on each neighbour
/// pair and -0.7 X on each qubit (the benches' VQE Hamiltonian).
inline vqa::Hamiltonian tfi_hamiltonian(IdxType n) {
  vqa::Hamiltonian h;
  const auto un = static_cast<std::size_t>(n);
  for (std::size_t q = 0; q < un; ++q) {
    std::string zz(un, 'I'), x(un, 'I');
    if (q + 1 < un) {
      zz[q] = 'Z';
      zz[q + 1] = 'Z';
      h.terms.push_back(vqa::PauliTerm::parse(-1.0, zz));
    }
    x[q] = 'X';
    h.terms.push_back(vqa::PauliTerm::parse(-0.7, x));
  }
  return h;
}

/// Every bench prints a header before its first run, so a malformed
/// SVSIM_* variable stops the bench here: its svsim::Error, exit 1.
inline void print_header(const std::string& title,
                         const std::string& description) {
  try {
    Env::process().check();
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("================================================================\n");
  detail::JsonSink::instance().title = title;
}

/// Print a row-label column followed by one value per series column.
class Table {
public:
  explicit Table(std::string corner) : corner_(std::move(corner)) {}

  void add_column(const std::string& name) { columns_.push_back(name); }

  void add_row(const std::string& label, const std::vector<double>& values) {
    rows_.push_back({label, values});
  }

  void print(const char* fmt = "%12.4f") const {
    std::printf("%-18s", corner_.c_str());
    for (const auto& c : columns_) std::printf("%12s", c.c_str());
    std::printf("\n");
    for (const auto& r : rows_) {
      std::printf("%-18s", r.label.c_str());
      for (const double v : r.values) std::printf(fmt, v);
      std::printf("\n");
    }
    emit_json();
  }

private:
  struct Row {
    std::string label;
    std::vector<double> values;
  };

  /// Mirror this table into the SVSIM_BENCH_JSON document (no-op when the
  /// env var is unset).
  void emit_json() const {
    detail::JsonSink& sink = detail::JsonSink::instance();
    if (sink.path.empty()) return;
    detail::JsonTable t;
    t.title = sink.title;
    t.corner = corner_;
    t.columns = columns_;
    for (const Row& r : rows_) t.rows.emplace_back(r.label, r.values);
    sink.tables.push_back(std::move(t));
    detail::json_write_all();
  }

  std::string corner_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

/// Gate-window scheduler series for a bench table: pair with
/// sched_values() so every bench reports the blocked-execution outcome
/// the same way. Appends columns only — a table's existing columns stay
/// exactly as they were.
inline void add_sched_columns(Table& t) {
  t.add_column("windows");
  t.add_column("win_gates");
  t.add_column("passes_sv");
}

/// Values matching add_sched_columns, from a run's report.
inline std::vector<double> sched_values(const obs::RunReport& r) {
  return {static_cast<double>(r.sched.windows),
          static_cast<double>(r.sched.windowed_gates),
          static_cast<double>(r.sched.passes_saved)};
}

inline void shape_check(bool ok, const std::string& claim) {
  std::printf("[shape %s] %s\n", ok ? "OK  " : "MISS", claim.c_str());
}

/// Print a run's PE×PE traffic heatmap plus a bytes-per-PE table (issued /
/// received marginals), mirrored into the SVSIM_BENCH_JSON document like
/// every other bench table. No-op for single-device runs (empty matrix).
inline void print_traffic_matrix(const std::string& label,
                                 const obs::TrafficMatrix& m) {
  if (m.empty()) return;
  std::printf("\n%s\n%s", label.c_str(), m.table().c_str());
  Table t("PE");
  t.add_column("bytes_out");
  t.add_column("bytes_in");
  for (int pe = 0; pe < m.n; ++pe) {
    t.add_row("pe" + std::to_string(pe),
              {static_cast<double>(m.row_sum(pe)),
               static_cast<double>(m.col_sum(pe))});
  }
  t.print("%12.0f");
}

} // namespace svsim::bench
