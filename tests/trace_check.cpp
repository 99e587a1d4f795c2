// trace_check — CI helper for the profile-smoke / health-smoke tests.
//
// Usage: trace_check <trace.json>
//        trace_check --report <report.json>
//        trace_check --memory <report.json>
//
// Default mode exits 0 iff the file exists, parses as JSON (obs::jsonlite
// — no external dependencies), contains a "traceEvents" key, and holds at
// least one complete ("ph":"X") event.
//
// --report mode validates a qasm_runner --report-json document instead:
// valid JSON, the "svsim-report-v1" schema marker, a health section with
// the monitor enabled and at least one checkpoint evaluated.
//
// --memory mode validates the report's memory section (the memtrack
// acceptance gate): plane enabled, a nonzero tracked peak, the analytic
// footprint estimate within 10% of the tracked peak, and — when the
// report's /proc sample succeeded — a peak RSS at least as large as the
// tracked peak. Prints a one-line verdict either way.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/jsonlite.hpp"

namespace {

bool slurp(const char* path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trace_check: cannot open %s\n", path);
    return false;
  }
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  if (out->empty()) {
    std::fprintf(stderr, "trace_check: %s is empty\n", path);
    return false;
  }
  std::size_t err = 0;
  if (!svsim::obs::jsonlite::valid(*out, &err)) {
    std::fprintf(stderr,
                 "trace_check: %s is not valid JSON (error at byte %zu)\n",
                 path, err);
    return false;
  }
  return true;
}

int check_trace(const char* path) {
  std::string text;
  if (!slurp(path, &text)) return 1;
  if (text.find("\"traceEvents\"") == std::string::npos) {
    std::fprintf(stderr, "trace_check: %s has no traceEvents array\n", path);
    return 1;
  }
  std::size_t x_events = 0;
  for (std::size_t pos = 0;
       (pos = text.find("\"ph\":\"X\"", pos)) != std::string::npos; ++pos) {
    ++x_events;
  }
  if (x_events == 0) {
    std::fprintf(stderr, "trace_check: %s has no complete events\n", path);
    return 1;
  }
  std::printf("trace_check: %s OK (%zu complete events)\n", path, x_events);
  return 0;
}

int check_report(const char* path) {
  std::string text;
  if (!slurp(path, &text)) return 1;
  if (text.find("\"schema\":\"svsim-report-v1\"") == std::string::npos) {
    std::fprintf(stderr, "trace_check: %s lacks the svsim-report-v1 schema\n",
                 path);
    return 1;
  }
  const std::size_t health = text.find("\"health\":{");
  if (health == std::string::npos) {
    std::fprintf(stderr, "trace_check: %s has no health section\n", path);
    return 1;
  }
  if (text.find("\"enabled\":true", health) == std::string::npos) {
    std::fprintf(stderr, "trace_check: %s health monitor not enabled\n", path);
    return 1;
  }
  const std::size_t checks = text.find("\"checks\":", health);
  const long long n_checks =
      checks != std::string::npos
          ? std::atoll(text.c_str() + checks + std::strlen("\"checks\":"))
          : 0;
  if (n_checks <= 0) {
    std::fprintf(stderr, "trace_check: %s recorded no health checkpoints\n",
                 path);
    return 1;
  }
  // The fusion section: the 1q pass's counts and the pipeline's pair
  // fusion, each a count; every dense block replaced at least two gates.
  svsim::obs::jsonlite::Value doc;
  const svsim::obs::jsonlite::Value* fusion =
      svsim::obs::jsonlite::parse(text, &doc) ? doc.find("fusion") : nullptr;
  if (fusion == nullptr || !fusion->is_object()) {
    std::fprintf(stderr, "trace_check: %s has no fusion section\n", path);
    return 1;
  }
  for (const char* key : {"gates_before", "gates_after", "fused_1q",
                          "cancelled_2q", "dropped_identity", "dense_blocks",
                          "dense_absorbed"}) {
    if (fusion->member_num(key, -1) < 0) {
      std::fprintf(stderr, "trace_check: %s fusion lacks the count %s\n",
                   path, key);
      return 1;
    }
  }
  const double blocks = fusion->member_num("dense_blocks", 0);
  const double absorbed = fusion->member_num("dense_absorbed", 0);
  if (absorbed < 2 * blocks) {
    std::fprintf(stderr,
                 "trace_check: %s %.0f dense blocks absorbed only %.0f "
                 "gates\n",
                 path, blocks, absorbed);
    return 1;
  }
  // Each gate kind carries its executed count; with no remap swaps the
  // executed gates are the input's less those fusion absorbed, plus its
  // dense blocks.
  const svsim::obs::jsonlite::Value* gates = doc.find("gates");
  if (gates == nullptr || !gates->is_array()) {
    std::fprintf(stderr, "trace_check: %s has no gates array\n", path);
    return 1;
  }
  double input = 0;
  double executed = 0;
  for (const svsim::obs::jsonlite::Value& g : gates->items) {
    if (g.member_num("executed", -1) < 0) {
      std::fprintf(stderr, "trace_check: %s gate kind lacks its executed "
                   "count\n", path);
      return 1;
    }
    input += g.member_num("count", 0);
    executed += g.member_num("executed", 0);
  }
  const svsim::obs::jsonlite::Value* remap = doc.find("remap");
  const svsim::obs::jsonlite::Value* remapped =
      remap != nullptr ? remap->find("active") : nullptr;
  if ((remapped == nullptr || !remapped->bool_or(false)) &&
      executed != input - absorbed + blocks) {
    std::fprintf(stderr,
                 "trace_check: %s executed %.0f gates, not %.0f input - "
                 "%.0f absorbed + %.0f dense\n",
                 path, executed, input, absorbed, blocks);
    return 1;
  }
  std::printf("trace_check: %s OK (%lld health checkpoints, %.0f dense "
              "blocks)\n",
              path, n_checks, blocks);
  return 0;
}

int check_memory(const char* path) {
  std::string text;
  if (!slurp(path, &text)) return 1;
  svsim::obs::jsonlite::Value doc;
  if (!svsim::obs::jsonlite::parse(text, &doc) || !doc.is_object() ||
      doc.member_str("schema", "") != "svsim-report-v1") {
    std::fprintf(stderr, "trace_check: %s lacks the svsim-report-v1 schema\n",
                 path);
    return 1;
  }
  const svsim::obs::jsonlite::Value* mem = doc.find("memory");
  if (mem == nullptr || !mem->is_object()) {
    std::fprintf(stderr, "trace_check: %s has no memory section\n", path);
    return 1;
  }
  if (mem->find("enabled") == nullptr ||
      !mem->find("enabled")->bool_or(false)) {
    std::fprintf(stderr, "trace_check: %s memory plane not enabled\n", path);
    return 1;
  }
  const double tracked_peak = mem->member_num("tracked_peak", 0);
  if (tracked_peak <= 0) {
    std::fprintf(stderr, "trace_check: %s tracked no allocations\n", path);
    return 1;
  }
  const double estimate = mem->member_num("estimated_bytes", 0);
  const double err = (estimate - tracked_peak) / tracked_peak;
  if (estimate <= 0 || err < -0.10 || err > 0.10) {
    std::fprintf(stderr,
                 "trace_check: %s estimate %.0f vs tracked peak %.0f "
                 "(%.1f%% off, cap 10%%)\n",
                 path, estimate, tracked_peak, err * 100.0);
    return 1;
  }
  const bool sampled = mem->find("sampled") != nullptr &&
                       mem->find("sampled")->bool_or(false);
  const double peak_rss = mem->member_num("peak_rss", 0);
  if (sampled && peak_rss + 1024.0 < tracked_peak) {
    // RSS covers tracked buffers plus everything else the process maps,
    // so sampling can't report less than what the registry holds (small
    // slack: the /proc read is KiB-granular).
    std::fprintf(stderr,
                 "trace_check: %s peak RSS %.0f below tracked peak %.0f\n",
                 path, peak_rss, tracked_peak);
    return 1;
  }
  std::printf("trace_check: %s memory OK (tracked peak %.0f, estimate "
              "%+.1f%%, %s)\n",
              path, tracked_peak, err * 100.0,
              sampled ? "rss sampled" : "rss unsampled");
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--report") == 0) {
    return check_report(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "--memory") == 0) {
    return check_memory(argv[2]);
  }
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s [--report|--memory] <file.json>\n",
                 argv[0]);
    return 1;
  }
  return check_trace(argv[1]);
}
