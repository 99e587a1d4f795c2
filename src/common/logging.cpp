#include "common/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <mutex>

#include "common/config.hpp"

namespace svsim {

namespace {

std::atomic<int> g_level{
    Env::process().log_level.value_or(static_cast<int>(LogLevel::kWarn))};
std::atomic<bool> g_timestamps{Env::process().log_timestamps.value_or(false)};
thread_local int t_pe = -1;
std::mutex g_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kDebug: return "DEBUG";
  }
  return "?";
}

} // namespace

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void set_log_pe(int pe) { t_pe = pe; }

int log_pe() { return t_pe; }

void set_log_timestamps(bool on) {
  g_timestamps.store(on, std::memory_order_relaxed);
}

void log_line(LogLevel level, const std::string& msg) {
  char stamp[24] = "";
  if (g_timestamps.load(std::memory_order_relaxed)) {
    const auto now = std::chrono::system_clock::now();
    const std::time_t secs = std::chrono::system_clock::to_time_t(now);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        now.time_since_epoch())
                        .count() %
                    1000;
    std::tm tm{};
    localtime_r(&secs, &tm);
    std::snprintf(stamp, sizeof(stamp), "%02d:%02d:%02d.%03d ", tm.tm_hour,
                  tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  }
  char pe_tag[24] = ""; // "[pe %d] " of any int fits
  if (t_pe >= 0) std::snprintf(pe_tag, sizeof(pe_tag), "[pe %d] ", t_pe);

  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[svsim] %s%-5s %s%s\n", stamp, level_name(level),
               pe_tag, msg.c_str());
  // An ERROR is often the last thing a dying run says — make sure it is
  // actually on the wire before any abort/signal path tears stdio down.
  if (level == LogLevel::kError) std::fflush(stderr);
}

} // namespace svsim
