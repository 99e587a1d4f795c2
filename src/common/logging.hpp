// Minimal logger: warnings and errors, one line each, to stderr.
//
// The library stays silent unless something needs attention (the httpd's
// bind failure, the health monitor's warnings and abort). Thread-safe:
// distributed backends log from PE worker threads.
#pragma once

#include <sstream>
#include <string>
#include <utility>

namespace svsim {

enum class LogLevel : int { kError = 0, kWarn = 1 };

/// Tag this thread's log lines with a PE/worker id ("[pe K]"); -1 (the
/// default) removes the tag. Distributed runtimes set it on each worker
/// thread so interleaved SPMD output stays attributable.
void set_log_pe(int pe);
int log_pe();

/// Emit one line at the given level (adds a "[svsim] LEVEL " prefix, plus
/// the per-thread PE tag).
void log_line(LogLevel level, const std::string& msg);

namespace detail {
template <typename... Args>
void log_fmt(LogLevel level, Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  log_line(level, os.str());
}
} // namespace detail

template <typename... Args>
void log_error(Args&&... args) {
  detail::log_fmt(LogLevel::kError, std::forward<Args>(args)...);
}
template <typename... Args>
void log_warn(Args&&... args) {
  detail::log_fmt(LogLevel::kWarn, std::forward<Args>(args)...);
}

} // namespace svsim
