// obs::Trace — process-global Chrome trace-event sink.
//
// Profiled runs append "complete" events (ph:"X") here; the sink rewrites
// the target file after every flush so a valid trace exists even if the
// process never exits cleanly. The file loads directly into
// chrome://tracing or https://ui.perfetto.dev.
//
// Track layout: one trace *process* per backend instance-name ("single",
// "shmem", ...) and one *thread* (track) per PE/worker within it, so a
// scale-out run shows per-PE gate timelines side by side — the per-gate /
// per-communication-phase attribution the paper's evaluation is built on.
//
// Activation: the output path starts as SVSIM_PROFILE's (Env::profile)
// and changes with an explicit set_path() call.
// Timestamps are microseconds on a steady clock shared by every backend
// in the process, so successive run() calls lay out sequentially.
#pragma once

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace svsim::obs {

/// One completed span, timestamps in microseconds since the trace epoch.
/// `name`/`cat` must point at static storage (op names qualify).
/// `args`, when non-empty, is the *body* of the event's "args" object —
/// pre-rendered JSON members like `"window":3,"gates":17` (no braces).
struct TraceEvent {
  const char* name = "";
  const char* cat = "gate";
  double ts_us = 0;
  double dur_us = 0;
  std::string args;
};

/// Microseconds since the process trace epoch (steady clock).
double trace_now_us();

class Trace {
public:
  static Trace& global();

  /// Tracing is "on" whenever a path is configured; GateRecorders then
  /// collect events and flush them here at the end of each run().
  bool enabled() const;
  void set_path(const std::string& path);
  std::string path() const;

  /// Append one run's events — per_worker[w] are worker w's spans — under
  /// the process-track named `process`, then rewrite the file. A repeated
  /// `process` name reuses its track, so successive runs of one simulator
  /// extend the same timeline.
  void flush_run(const std::string& process,
                 std::vector<std::vector<TraceEvent>>&& per_worker);

  /// Append one run's events to an auxiliary *named* track of `process`
  /// (e.g. the scheduler's "sched windows" track). Named tracks live on
  /// high tids so they sort below the per-PE gate timelines; a repeated
  /// (process, track) pair reuses its tid across runs.
  void flush_named_track(const std::string& process, const std::string& track,
                         std::vector<TraceEvent>&& events);

  /// Append one Chrome counter sample (ph:"C") named `name` at `ts_us`
  /// under the process-track `process`. Counter tracks render as a filled
  /// graph in the trace viewer — used for the roofline GB/s overlay.
  void flush_counter(const std::string& process, const char* name,
                     double ts_us, double value);

  /// Rewrite the file from the currently buffered events.
  void write();

  /// Best-effort write for the graceful-shutdown signal handler: try_lock
  /// instead of lock, so a handler firing mid-flush skips the rewrite
  /// (the sink already rewrote the file at the last flush) instead of
  /// deadlocking on the mutex its own thread may hold. Returns whether
  /// the rewrite happened.
  bool try_write();

  /// Drop all buffered events and track registrations (tests).
  void clear();

  std::size_t event_count() const;

private:
  struct Stored {
    TraceEvent e;
    int pid;
    int tid;
    char ph = 'X'; // 'X' complete span, 'C' counter sample
  };

  int pid_locked(const std::string& process);
  void write_locked();

  Trace();
  mutable std::mutex mu_;
  std::string path_;
  std::map<std::string, int> pids_;
  std::set<std::pair<int, int>> threads_;
  // Auxiliary named tracks: (pid, track name) -> tid (>= kNamedTidBase).
  std::map<std::pair<int, std::string>, int> named_tracks_;
  std::vector<Stored> events_;
};

} // namespace svsim::obs
