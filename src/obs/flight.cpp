#include "obs/flight.hpp"

#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fcntl.h>
#include <unistd.h>

#include "obs/progress.hpp"
#include "obs/trace.hpp"

namespace svsim::obs {

const char* flight_kind_name(FlightEvent::Kind kind) {
  switch (kind) {
    case FlightEvent::kGate: return "gate";
    case FlightEvent::kComm: return "comm";
    case FlightEvent::kCheckpoint: return "health";
    case FlightEvent::kRunBegin: return "run";
  }
  return "?";
}

std::vector<FlightEvent> FlightRing::snapshot() const {
  const std::uint64_t h = head.load(std::memory_order_acquire);
  const std::uint64_t count = h < kCap ? h : kCap;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = h - count; i < h; ++i) {
    out.push_back(ev[i & (kCap - 1)]);
  }
  return out;
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder fr;
  return fr;
}

void FlightRecorder::begin_run(const char* backend, IdxType n_qubits,
                               int n_workers) {
  install_crash_handlers();
  install_shutdown_handlers();
  std::snprintf(active_.backend, sizeof(active_.backend), "%s", backend);
  active_.n_qubits = static_cast<long long>(n_qubits);
  active_.n_workers = n_workers;
  FlightEvent e;
  e.ts_us = trace_now_us();
  e.kind = FlightEvent::kRunBegin;
  e.worker = 0;
  rings_[0].push(e);
}

std::vector<FlightEvent> FlightRecorder::drain(int n_workers) const {
  std::vector<FlightEvent> out;
  if (n_workers > kMaxWorkers) n_workers = kMaxWorkers;
  for (int w = 0; w < n_workers; ++w) {
    std::vector<FlightEvent> ring = rings_[w].snapshot();
    for (FlightEvent& e : ring) {
      e.worker = static_cast<std::int16_t>(w);
      out.push_back(e);
    }
  }
  return out;
}

namespace {

/// write(2) a formatted line; async-signal-safe in practice (snprintf over
/// POD values, no allocation, no locks).
void raw_print(int fd, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void raw_print(int fd, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int len = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (len > 0) {
    const auto n = static_cast<std::size_t>(len) < sizeof(buf)
                       ? static_cast<std::size_t>(len)
                       : sizeof(buf) - 1;
    const ssize_t ignored = ::write(fd, buf, n);
    (void)ignored;
  }
}

std::atomic<bool> g_dumped{false};
std::terminate_handler g_prev_terminate = nullptr;

void dump_once(int fd, const char* why) {
  // One dump per process: a SIGABRT raised by the terminate hook (or a
  // cascading fault inside the handler) must not dump twice.
  bool expected = false;
  if (!g_dumped.compare_exchange_strong(expected, true)) return;
  raw_print(fd, "[svsim] ==== flight recorder dump (%s) ====\n", why);
  FlightRecorder::global().dump(fd);
  raw_print(fd, "[svsim] ==== end flight recorder dump ====\n");
}

void crash_signal_handler(int sig) {
  dump_once(2, sig == SIGSEGV   ? "SIGSEGV"
               : sig == SIGFPE  ? "SIGFPE"
               : sig == SIGABRT ? "SIGABRT"
                                : "signal");
  // SA_RESETHAND restored the default disposition; re-raise so the
  // process dies with the original signal status.
  ::raise(sig);
}

void terminate_hook() {
  dump_once(2, "std::terminate");
  std::fflush(nullptr); // don't lose buffered stdio on the way down
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

char g_interrupt_path[512] = {0};

/// Graceful Ctrl-C / kill: without this, the trace, report, and progress
/// state die with the process. Everything on the hot path is
/// async-signal-safe (atomic stores, snprintf into a stack buffer, raw
/// open/write); the trace rewrite is best-effort behind a try_lock.
void shutdown_signal_handler(int sig) {
  ProgressBoard& board = ProgressBoard::global();
  board.mark_interrupted();
  char buf[4096];
  const int len = board.render_json_signal_safe(buf, sizeof(buf));
  int fd = 2;
  bool opened = false;
  if (g_interrupt_path[0] != '\0') {
    const int pf = ::open(g_interrupt_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (pf >= 0) {
      fd = pf;
      opened = true;
    }
  }
  if (!opened) {
    raw_print(2, "[svsim] interrupted (%s); partial progress:\n",
              sig == SIGINT ? "SIGINT" : "SIGTERM");
  }
  if (len > 0) {
    const ssize_t ignored = ::write(fd, buf, static_cast<std::size_t>(len));
    (void)ignored;
  }
  if (opened) ::close(fd);
  Trace::global().try_write();
  ::_exit(sig == SIGINT ? 130 : 143);
}

} // namespace

void install_shutdown_handlers() {
  static const bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &shutdown_signal_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESETHAND; // a second signal terminates immediately
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    return true;
  }();
  (void)installed;
}

void set_interrupt_report_path(const char* path) {
  std::snprintf(g_interrupt_path, sizeof(g_interrupt_path), "%s",
                path != nullptr ? path : "");
}

void FlightRecorder::dump(int fd) const {
  raw_print(fd, "[svsim] run: backend=%s qubits=%lld workers=%d\n",
            active_.backend[0] != '\0' ? active_.backend : "<none>",
            active_.n_qubits, active_.n_workers);
  for (int w = 0; w < kMaxWorkers; ++w) {
    const FlightRing& r = rings_[w];
    const std::uint64_t h = r.head.load(std::memory_order_acquire);
    if (h == 0) continue;
    const std::uint64_t count = h < FlightRing::kCap ? h : FlightRing::kCap;
    raw_print(fd, "[svsim] worker %d: %llu events recorded, last %llu:\n", w,
              static_cast<unsigned long long>(h),
              static_cast<unsigned long long>(count));
    for (std::uint64_t i = h - count; i < h; ++i) {
      const FlightEvent& e = r.ev[i & (FlightRing::kCap - 1)];
      raw_print(fd,
                "[svsim]   #%llu t=%.1fus %s gate=%llu op=%s qb=(%d,%d)\n",
                static_cast<unsigned long long>(e.seq), e.ts_us,
                flight_kind_name(static_cast<FlightEvent::Kind>(e.kind)),
                static_cast<unsigned long long>(e.gate_id),
                e.op < static_cast<std::uint16_t>(kNumOps)
                    ? op_name(static_cast<OP>(e.op))
                    : "?",
                e.qb0, e.qb1);
    }
  }
}

void FlightRecorder::install_crash_handlers() {
  static const bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &crash_signal_handler;
    sigemptyset(&sa.sa_mask);
    // SA_RESETHAND: the default action is restored before the handler
    // runs, so the re-raise in the handler terminates for real.
    sa.sa_flags = SA_RESETHAND;
    ::sigaction(SIGSEGV, &sa, nullptr);
    ::sigaction(SIGFPE, &sa, nullptr);
    ::sigaction(SIGABRT, &sa, nullptr);
    g_prev_terminate = std::set_terminate(&terminate_hook);
    return true;
  }();
  (void)installed;
}

} // namespace svsim::obs
