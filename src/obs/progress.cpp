#include "obs/progress.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/error.hpp"
#include "obs/jsonlite.hpp"
#include "obs/waitstate.hpp"

namespace svsim::obs {

ProgressBoard& ProgressBoard::global() {
  static ProgressBoard b;
  return b;
}

void ProgressBoard::begin_run(const char* backend, IdxType n_qubits,
                              int n_workers, std::vector<double> bytes_prefix,
                              std::vector<double> amps_prefix, IdxType batch) {
  SVSIM_CHECK(!bytes_prefix.empty() &&
                  amps_prefix.size() == bytes_prefix.size(),
              "one amplitude and one byte prefix entry per gate, plus one");
  auto axes = std::make_shared<const Axes>(
      Axes{std::move(bytes_prefix), std::move(amps_prefix)});
  // The handler sees the new axes before the board lets go of the old.
  axes_mirror_.store(axes.get(), std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    backend_ = backend;
    n_qubits_ = static_cast<long long>(n_qubits);
    n_workers_ = n_workers < kMaxPes ? n_workers : kMaxPes;
    batch_ = batch > 1 ? static_cast<int>(batch) : 1;
    start_us_ = wait_now_us();
    end_us_ = 0;
    axes_.swap(axes);
    report_json_.clear();
    have_run_ = true;
  }
  for (int w = 0; w < kMaxPes; ++w) slots_[w].reset();
  std::snprintf(backend_mirror_, sizeof(backend_mirror_), "%s", backend);
  workers_mirror_.store(n_workers, std::memory_order_relaxed);
  interrupted_.store(false, std::memory_order_relaxed);
  active_.store(true, std::memory_order_release);
}

void ProgressBoard::end_run(std::string report_json) {
  std::lock_guard<std::mutex> lock(mu_);
  end_us_ = wait_now_us();
  report_json_ = std::move(report_json);
  active_.store(false, std::memory_order_release);
}

void ProgressBoard::position(const Axes& axes, std::uint64_t gates,
                             double* bytes_done, double* fraction) {
  const std::uint64_t total = axes.bytes.size() - 1;
  const double bytes_total = axes.bytes.back();
  *bytes_done = axes.bytes[gates < total ? gates : total];
  *fraction = bytes_total > 0 ? *bytes_done / bytes_total
              : total > 0
                  ? static_cast<double>(gates) / static_cast<double>(total)
                  : 0;
}

ProgressSnapshot ProgressBoard::snapshot() const {
  ProgressSnapshot s;
  std::shared_ptr<const Axes> axes;
  double start_us = 0;
  double end_us = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!have_run_) return s;
    s.valid = true;
    s.backend = backend_;
    s.n_qubits = n_qubits_;
    s.n_workers = n_workers_;
    s.batch = batch_;
    axes = axes_;
    start_us = start_us_;
    end_us = end_us_;
  }
  s.active = active_.load(std::memory_order_acquire);
  s.interrupted = interrupted_.load(std::memory_order_relaxed);
  s.total_gates = axes->bytes.size() - 1;
  s.bytes_total = axes->bytes.back();

  std::uint64_t min_gates = s.total_gates;
  std::uint64_t win = 0;
  s.pes.resize(static_cast<std::size_t>(s.n_workers));
  for (int w = 0; w < s.n_workers; ++w) {
    const ProgressSlot& slot = slots_[w];
    ProgressSnapshot::Pe& pe = s.pes[static_cast<std::size_t>(w)];
    pe.gates_done = slot.gates_done.load(std::memory_order_relaxed);
    pe.amps_done =
        axes->amps[std::min(pe.gates_done, s.total_gates)] / s.n_workers;
    pe.wait_s =
        static_cast<double>(slot.wait_us.load(std::memory_order_relaxed)) *
        1e-6;
    s.amps_done += pe.amps_done;
    min_gates = std::min(min_gates, pe.gates_done);
    win = std::max(win, slot.window.load(std::memory_order_relaxed));
  }
  s.window = win;
  const double now_us = wait_now_us();
  s.elapsed_s = ((s.active || end_us <= start_us ? now_us : end_us) -
                 start_us) * 1e-6;
  if (s.elapsed_s < 0) s.elapsed_s = 0;

  if (!s.active) {
    // Finished (or never started a gate): the run retired everything.
    s.gates_done = s.total_gates;
    s.bytes_done = s.bytes_total;
    s.fraction = 1.0;
    s.eta_known = true;
    s.eta_s = 0;
    s.gbps = s.elapsed_s > 0 ? s.bytes_total / s.elapsed_s * 1e-9 : 0;
    return s;
  }

  s.gates_done = min_gates;
  position(*axes, min_gates, &s.bytes_done, &s.fraction);
  if (s.bytes_done > 0 && s.elapsed_s > 0) {
    const double rate = s.bytes_done / s.elapsed_s; // achieved B/s
    s.gbps = rate * 1e-9;
    s.eta_s = (s.bytes_total - s.bytes_done) / rate;
    s.eta_known = true;
  }
  return s;
}

std::string ProgressBoard::last_report_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  return report_json_;
}

std::string progress_to_json(const ProgressSnapshot& s) {
  jsonlite::Writer w;
  w.begin_object()
      .field("schema", "svsim-progress-v1")
      .field("valid", s.valid)
      .field("active", s.active)
      .field("interrupted", s.interrupted)
      .field("backend", s.backend)
      .field("n_qubits", s.n_qubits)
      .field("n_workers", s.n_workers)
      .field("batch", s.batch)
      .field("total_gates", s.total_gates)
      .field("gates_done", s.gates_done)
      .field("window", s.window)
      .field("amps_done", s.amps_done)
      .field("bytes_total", s.bytes_total)
      .field("bytes_done", s.bytes_done)
      .field("fraction", s.fraction)
      .field("elapsed_s", s.elapsed_s)
      .field("gbps", s.gbps)
      .key("eta_s");
  if (s.eta_known) {
    w.value(s.eta_s);
  } else {
    w.null();
  }
  w.key("per_pe").begin_array();
  for (std::size_t pe = 0; pe < s.pes.size(); ++pe) {
    w.begin_object()
        .field("pe", pe)
        .field("gates_done", s.pes[pe].gates_done)
        .field("amps_done", s.pes[pe].amps_done)
        .field("wait_s", s.pes[pe].wait_s)
        .end_object();
  }
  return w.end_array().end_object().take();
}

int ProgressBoard::render_json_signal_safe(char* buf, std::size_t len) const {
  // No locks, no allocation: read only the atomic mirrors and the slots.
  const Axes* axes = axes_mirror_.load(std::memory_order_acquire);
  const int workers = workers_mirror_.load(std::memory_order_relaxed);
  const std::uint64_t total = axes != nullptr ? axes->bytes.size() - 1 : 0;
  std::uint64_t min_gates = total;
  for (int w = 0; w < workers && w < kMaxPes; ++w) {
    const std::uint64_t g =
        slots_[w].gates_done.load(std::memory_order_relaxed);
    if (g < min_gates) min_gates = g;
  }
  double bytes_done = 0;
  double frac = 0;
  if (axes != nullptr) position(*axes, min_gates, &bytes_done, &frac);
  const int n = std::snprintf(
      buf, len,
      "{\"schema\":\"svsim-progress-v1\",\"interrupted\":%s,"
      "\"active\":%s,\"backend\":\"%s\",\"n_workers\":%d,"
      "\"total_gates\":%llu,\"gates_done\":%llu,"
      "\"bytes_total\":%.17g,\"bytes_done\":%.17g,\"fraction\":%.17g}\n",
      interrupted_.load(std::memory_order_relaxed) ? "true" : "false",
      active_.load(std::memory_order_relaxed) ? "true" : "false",
      backend_mirror_, workers, static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(min_gates),
      axes != nullptr ? axes->bytes.back() : 0.0, bytes_done, frac);
  if (n < 0) return 0;
  return n < static_cast<int>(len) ? n : static_cast<int>(len) - 1;
}

} // namespace svsim::obs
