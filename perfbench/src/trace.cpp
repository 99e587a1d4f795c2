#include "trace.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int Tracer::open(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, job_, parent, now_us(), 0});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].t1_us = now_us();
  open_.pop_back();
}

std::vector<double> Tracer::self_us() const {
  // Children of one span run one after another on the client thread, so
  // the part of the parent they cover is the sum of their durations.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_us();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_us();
  }
  return self;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"job\":%d,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, s.t0_us, s.dur_us(), i, s.job,
                 s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

} // namespace perfbench
