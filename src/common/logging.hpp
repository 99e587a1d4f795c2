// Minimal leveled logger.
//
// The library itself stays silent at default level; benches and examples
// raise the level to narrate progress. Thread-safe: distributed backends
// log from PE worker threads.
#pragma once

#include <sstream>
#include <string>

namespace svsim {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// Global log threshold; messages above it are dropped. The initial value
/// is SVSIM_LOG_LEVEL's (Env::log_level), defaulting to warn.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Tag this thread's log lines with a PE/worker id ("[pe K]"); -1 (the
/// default) removes the tag. Distributed runtimes set it on each worker
/// thread so interleaved SPMD output stays attributable.
void set_log_pe(int pe);
int log_pe();

/// Prefix every line with a wall-clock timestamp (HH:MM:SS.mmm). The
/// initial value is SVSIM_LOG_TIMESTAMPS's, defaulting to off.
void set_log_timestamps(bool on);

/// Emit one line at the given level (adds a "[svsim] LEVEL " prefix, plus
/// the optional timestamp and per-thread PE tag).
void log_line(LogLevel level, const std::string& msg);

namespace detail {
template <typename... Args>
void log_fmt(LogLevel level, Args&&... args) {
  if (level > log_level()) return;
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
template <typename... Args>
void log_info(Args&&... args) {
  detail::log_fmt(LogLevel::kInfo, std::forward<Args>(args)...);
}
template <typename... Args>
void log_debug(Args&&... args) {
  detail::log_fmt(LogLevel::kDebug, std::forward<Args>(args)...);
}

} // namespace svsim
