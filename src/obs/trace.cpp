#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>

#include "common/config.hpp"
#include "obs/registry.hpp"
#include "obs/waitstate.hpp"

namespace svsim::obs {

double trace_now_us() {
  // Shares the wait-state epoch so gate spans and wait spans land on one
  // timeline (obs/waitstate.hpp owns the inline epoch; shmem cannot link
  // this library).
  return wait_now_us();
}

Trace::Trace() : path_(Env::process().profile.value_or("")) {}

Trace& Trace::global() {
  static Trace t;
  return t;
}

bool Trace::enabled() const { return !path().empty(); }

void Trace::set_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = path;
}

std::string Trace::path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

namespace {
// Named tracks (scheduler windows, ...) live well above any plausible PE
// count so they sort after the per-PE gate timelines within a process.
constexpr int kNamedTidBase = 1000;
} // namespace

int Trace::pid_locked(const std::string& process) {
  auto [it, fresh] = pids_.emplace(process, static_cast<int>(pids_.size()));
  return it->second;
}

void Trace::flush_run(const std::string& process,
                      std::vector<std::vector<TraceEvent>>&& per_worker) {
  std::size_t added = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int pid = pid_locked(process);
    for (int tid = 0; tid < static_cast<int>(per_worker.size()); ++tid) {
      auto& evs = per_worker[static_cast<std::size_t>(tid)];
      if (evs.empty()) continue;
      threads_.insert({pid, tid});
      for (TraceEvent& e : evs) {
        events_.push_back(Stored{std::move(e), pid, tid, 'X'});
        ++added;
      }
    }
    write_locked();
  }
  Registry::global().counter("obs.trace_events").add(added);
}

void Trace::flush_named_track(const std::string& process,
                              const std::string& track,
                              std::vector<TraceEvent>&& events) {
  if (events.empty()) return;
  std::size_t added = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int pid = pid_locked(process);
    auto [it, fresh] = named_tracks_.emplace(
        std::make_pair(pid, track),
        kNamedTidBase + static_cast<int>(named_tracks_.size()));
    const int tid = it->second;
    for (TraceEvent& e : events) {
      events_.push_back(Stored{std::move(e), pid, tid, 'X'});
      ++added;
    }
    write_locked();
  }
  Registry::global().counter("obs.trace_events").add(added);
}

void Trace::flush_counter(const std::string& process, const char* name,
                          double ts_us, double value) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int pid = pid_locked(process);
    TraceEvent e;
    e.name = name;
    e.cat = "counter";
    e.ts_us = ts_us;
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"value\":%.3f", value);
    e.args = buf;
    events_.push_back(Stored{std::move(e), pid, 0, 'C'});
    write_locked();
  }
  Registry::global().counter("obs.trace_events").add(1);
}

void Trace::write() {
  std::lock_guard<std::mutex> lock(mu_);
  write_locked();
}

bool Trace::try_write() {
  if (!mu_.try_lock()) return false;
  write_locked();
  mu_.unlock();
  return true;
}

void Trace::write_locked() {
  if (path_.empty()) return;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) return; // profiling must never kill a run
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputc(',', f);
    first = false;
    std::fputc('\n', f);
  };
  for (const auto& [name, pid] : pids_) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                 pid, name.c_str());
  }
  for (const auto& [pid, tid] : threads_) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":%d,\"args\":{\"name\":\"PE %d\"}}",
                 pid, tid, tid);
  }
  for (const auto& [key, tid] : named_tracks_) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 key.first, tid, key.second.c_str());
  }
  for (const Stored& s : events_) {
    sep();
    if (s.ph == 'C') {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,"
                   "\"pid\":%d,\"tid\":%d,\"args\":{%s}}",
                   s.e.name, s.e.cat, s.e.ts_us, s.pid, s.tid,
                   s.e.args.c_str());
      continue;
    }
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":%d,\"tid\":%d",
                 s.e.name, s.e.cat, s.e.ts_us, s.e.dur_us, s.pid, s.tid);
    if (!s.e.args.empty()) {
      std::fprintf(f, ",\"args\":{%s}", s.e.args.c_str());
    }
    std::fputc('}', f);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

void Trace::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  pids_.clear();
  threads_.clear();
  named_tracks_.clear();
  events_.clear();
}

std::size_t Trace::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

} // namespace svsim::obs
