// Benchmark-side tracing: one span around every call the benchmark makes
// into the program, kept in memory and written out when the run ends.
//
// Spans nest by call order on the single client thread; a span's parent
// is the span open when it began, and every span carries the id of the
// job it belongs to (-1 for set-up and teardown). Untraced runs pass a
// null Tracer, so the timed path makes the same calls with no clock
// reads beyond the per-job timer.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Microseconds on the steady clock since the first call.
double now_us();

class Tracer {
public:
  struct Span {
    const char* name; // static storage: the called function's name
    int job;
    int parent; // index into spans(), -1 for a top-level span
    double t0_us;
    double t1_us;
    double dur_us() const { return t1_us - t0_us; }
  };

  explicit Tracer(std::size_t expected_spans) { spans_.reserve(expected_spans); }

  void set_job(int job) { job_ = job; }
  int open(const char* name);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part of it that its children cover.
  std::vector<double> self_us() const;

  /// Chrome trace-event JSON ("X" events; job and parent in args).
  /// Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int job_ = -1;
};

/// RAII span; a no-op without a tracer.
class Scope {
public:
  Scope(Tracer* t, const char* name) : t_(t), index_(t ? t->open(name) : -1) {}
  ~Scope() {
    if (t_) t_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Tracer* t_;
  int index_;
};

/// Call `f` inside a span named `name` (just call it when `t` is null).
template <class F>
decltype(auto) traced(Tracer* t, const char* name, F&& f) {
  Scope s(t, name);
  return std::forward<F>(f)();
}

} // namespace perfbench
