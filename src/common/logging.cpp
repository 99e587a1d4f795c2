#include "common/logging.hpp"

#include <cstdio>
#include <mutex>

namespace svsim {

namespace {

thread_local int t_pe = -1;
std::mutex g_mutex;

} // namespace

void set_log_pe(int pe) { t_pe = pe; }

int log_pe() { return t_pe; }

void log_line(LogLevel level, const std::string& msg) {
  char pe_tag[24] = ""; // "[pe %d] " of any int fits
  if (t_pe >= 0) std::snprintf(pe_tag, sizeof(pe_tag), "[pe %d] ", t_pe);

  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[svsim] %-5s %s%s\n",
               level == LogLevel::kError ? "ERROR" : "WARN", pe_tag,
               msg.c_str());
  // An ERROR is often the last thing a dying run says — make sure it is
  // actually on the wire before any abort/signal path tears stdio down.
  if (level == LogLevel::kError) std::fflush(stderr);
}

} // namespace svsim
