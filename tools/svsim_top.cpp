// svsim_top: a live terminal monitor for a running simulation.
//
//   $ SVSIM_HTTP=9090 ./examples/qasm_runner big.qasm --backend shmem &
//   $ ./tools/svsim_top --port 9090
//
// Polls the embedded telemetry endpoint's GET /progress (and /healthz,
// /memory) over loopback HTTP and redraws a compact status screen: the
// run header, a memory line (tracked bytes / peak / live RSS), the
// model-calibrated completion fraction / achieved GB/s / ETA, and one
// row per PE with its retired-gate count, touched amplitudes, live wait
// share, and resident partition bytes. The wait and mem columns use the
// same shade alphabet as the report's traffic-matrix heatmap (' ' '.'
// ':' '+' '#', '#' = the PE spending the largest fraction of its time
// blocked / holding the most memory), so a straggler or an imbalanced
// partition reads at a glance.
//
//   --host H        endpoint host (default 127.0.0.1)
//   --port P        endpoint port (default: $SVSIM_HTTP)
//   --interval MS   poll period in milliseconds (default 500)
//   --once          print a single frame and exit (no screen clearing)
//
// Exits 0 when the watched run completes, 1 on usage (a malformed number
// or SVSIM_* variable included) or when the endpoint stays unreachable.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <string>

#include "common/config.hpp"
#include "common/error.hpp"
#include "obs/httpd.hpp"
#include "obs/jsonlite.hpp"

namespace {

using svsim::obs::jsonlite::Value;

const char kShade[] = {' ', '.', ':', '+', '#'};

char shade_for(double rel) {
  if (rel >= 0.999) return kShade[4];
  if (rel >= 0.75) return kShade[3];
  if (rel >= 0.5) return kShade[2];
  if (rel >= 0.25) return kShade[1];
  return kShade[0];
}

void format_bytes(char* buf, std::size_t len, double bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  std::snprintf(buf, len, u == 0 ? "%.0f %s" : "%.2f %s", bytes, units[u]);
}

void format_eta(char* buf, std::size_t len, const Value* eta) {
  if (eta == nullptr || eta->type != Value::Type::kNumber) {
    std::snprintf(buf, len, "--:--");
    return;
  }
  const long long s = static_cast<long long>(eta->number + 0.5);
  if (s >= 3600) {
    std::snprintf(buf, len, "%lld:%02lld:%02lld", s / 3600, (s / 60) % 60,
                  s % 60);
  } else {
    std::snprintf(buf, len, "%lld:%02lld", s / 60, s % 60);
  }
}

/// One poll + render. Returns false when the endpoint did not answer.
bool render_frame(const std::string& host, int port, bool clear,
                  bool* finished) {
  int status = 0;
  std::string body;
  if (!svsim::obs::http_get(host, port, "/progress", &status, &body) ||
      status != 200) {
    return false;
  }
  Value doc;
  if (!svsim::obs::jsonlite::parse(body, &doc) || !doc.is_object()) {
    std::fprintf(stderr, "svsim_top: /progress returned malformed JSON\n");
    return false;
  }

  std::string health = "unknown";
  {
    int hstatus = 0;
    std::string hbody;
    Value hdoc;
    if (svsim::obs::http_get(host, port, "/healthz", &hstatus, &hbody) &&
        svsim::obs::jsonlite::parse(hbody, &hdoc)) {
      health = hdoc.member_str("status", "unknown");
      if (hstatus == 503) health += " (503)";
    }
  }

  // Memory plane (svsim-memory-v1): best-effort — an older endpoint
  // without /memory just leaves the memory line and column blank.
  Value mdoc;
  bool have_mem = false;
  {
    int mstatus = 0;
    std::string mbody;
    if (svsim::obs::http_get(host, port, "/memory", &mstatus, &mbody) &&
        mstatus == 200 && svsim::obs::jsonlite::parse(mbody, &mdoc) &&
        mdoc.is_object() &&
        mdoc.find("enabled") != nullptr &&
        mdoc.find("enabled")->bool_or(false)) {
      have_mem = true;
    }
  }

  if (clear) std::printf("\x1b[H\x1b[2J");

  const bool valid = doc.find("valid") != nullptr &&
                     doc.find("valid")->bool_or(false);
  if (!valid) {
    std::printf("svsim_top: endpoint up at %s:%d, no run registered yet\n",
                host.c_str(), port);
    *finished = false;
    return true;
  }

  const bool active = doc.find("active") != nullptr &&
                      doc.find("active")->bool_or(false);
  const double fraction = doc.member_num("fraction", 0);
  const double elapsed = doc.member_num("elapsed_s", 0);
  const double gbps = doc.member_num("gbps", 0);
  const double total_gates = doc.member_num("total_gates", 0);
  const double gates_done = doc.member_num("gates_done", 0);
  char eta[32];
  format_eta(eta, sizeof(eta), doc.find("eta_s"));

  std::printf("svsim %s  n=%lld  workers=%lld  window %lld  health %s%s\n",
              doc.member_str("backend", "?").c_str(),
              static_cast<long long>(doc.member_num("n_qubits", 0)),
              static_cast<long long>(doc.member_num("n_workers", 0)),
              static_cast<long long>(doc.member_num("window", 0)),
              health.c_str(),
              doc.find("interrupted") != nullptr &&
                      doc.find("interrupted")->bool_or(false)
                  ? "  [interrupted]"
                  : "");
  // The overall bar is bytes-weighted (perfmodel), so a cheap diagonal
  // tail doesn't stall the needle at 90%.
  constexpr int kBarWidth = 40;
  const int fill = static_cast<int>(fraction * kBarWidth + 0.5);
  std::printf("  [");
  for (int i = 0; i < kBarWidth; ++i) {
    std::printf("%c", i < fill ? '#' : ' ');
  }
  std::printf("] %5.1f%%  %.0f/%.0f gates  %.2f GB/s  eta %s  %s %.1fs\n",
              fraction * 100.0, gates_done, total_gates, gbps, eta,
              active ? "elapsed" : "finished in", elapsed);
  if (have_mem) {
    char tracked[32];
    char peak[32];
    format_bytes(tracked, sizeof(tracked), mdoc.member_num("tracked_bytes", 0));
    format_bytes(peak, sizeof(peak), mdoc.member_num("tracked_peak", 0));
    std::printf("  mem: tracked %s (peak %s)", tracked, peak);
    if (mdoc.find("sampled") != nullptr &&
        mdoc.find("sampled")->bool_or(false)) {
      char rss[32];
      char hwm[32];
      format_bytes(rss, sizeof(rss), mdoc.member_num("rss_bytes", 0));
      format_bytes(hwm, sizeof(hwm), mdoc.member_num("hwm_bytes", 0));
      std::printf("  rss %s (hwm %s)", rss, hwm);
    }
    std::printf("\n");
  }

  const Value* pes = doc.find("per_pe");
  if (pes != nullptr && pes->is_array() && !pes->items.empty()) {
    // Per-PE resident bytes from the memory plane, keyed by PE id. Shades
    // relative to the biggest holder — same convention as the wait column.
    const Value* mem_pes = have_mem ? mdoc.find("per_pe") : nullptr;
    auto pe_mem = [&](long long pe_id) -> double {
      if (mem_pes == nullptr || !mem_pes->is_array()) return -1;
      for (const Value& m : mem_pes->items) {
        if (static_cast<long long>(m.member_num("pe", -1)) == pe_id) {
          return m.member_num("current", 0);
        }
      }
      return -1;
    };
    double max_wait = 0;
    double max_mem = 0;
    for (const Value& pe : pes->items) {
      const double w = pe.member_num("wait_s", 0);
      if (w > max_wait) max_wait = w;
      const double m = pe_mem(static_cast<long long>(pe.member_num("pe", 0)));
      if (m > max_mem) max_mem = m;
    }
    std::printf("  %4s %14s %16s %10s %6s wait %10s\n", "pe", "gates",
                "amps", "wait_s", "wait%", "mem");
    for (const Value& pe : pes->items) {
      const double wait_s = pe.member_num("wait_s", 0);
      const double wait_pct =
          elapsed > 0 ? 100.0 * wait_s / elapsed : 0;
      const char shade =
          max_wait > 0 ? shade_for(wait_s / max_wait) : kShade[0];
      const long long pe_id =
          static_cast<long long>(pe.member_num("pe", 0));
      const double mem = pe_mem(pe_id);
      char membuf[32];
      if (mem >= 0) {
        format_bytes(membuf, sizeof(membuf), mem);
      } else {
        std::snprintf(membuf, sizeof(membuf), "-");
      }
      const char mshade =
          mem > 0 && max_mem > 0 ? shade_for(mem / max_mem) : kShade[0];
      std::printf("  %4lld %14.0f %16.0f %10.3f %5.1f%% %c    %10s %c\n",
                  pe_id, pe.member_num("gates_done", 0),
                  pe.member_num("amps_done", 0), wait_s, wait_pct, shade,
                  membuf, mshade);
    }
  }
  std::fflush(stdout);
  *finished = !active;
  return true;
}

void sleep_ms(int ms) {
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  nanosleep(&ts, nullptr);
}

} // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = -1;
  int interval_ms = 500;
  bool once = false;
  try {
    const svsim::Env& env = svsim::Env::process();
    env.check();
    port = env.http.value_or(-1);
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--host" && i + 1 < argc) {
        host = argv[++i];
      } else if (arg == "--port" && i + 1 < argc) {
        port = static_cast<int>(svsim::uint_arg(arg, argv[++i], 0, 65535));
      } else if (arg == "--interval" && i + 1 < argc) {
        interval_ms = static_cast<int>(svsim::uint_arg(
            arg, argv[++i], 1, std::numeric_limits<int>::max()));
        if (interval_ms < 50) interval_ms = 50;
      } else if (arg == "--once") {
        once = true;
      } else {
        std::fprintf(stderr,
                     "usage: svsim_top [--host H] [--port P] "
                     "[--interval MS] [--once]\n");
        return 1;
      }
    }
  } catch (const svsim::Error& e) {
    std::fprintf(stderr, "svsim_top: %s\n", e.what());
    return 1;
  }
  if (port < 0) {
    std::fprintf(stderr,
                 "svsim_top: no port (pass --port or set SVSIM_HTTP)\n");
    return 1;
  }

  int misses = 0;
  bool ever_connected = false;
  while (true) {
    bool finished = false;
    if (render_frame(host, port, !once, &finished)) {
      ever_connected = true;
      misses = 0;
      if (once) return 0;
      if (finished) return 0; // final frame already drawn
    } else {
      if (once) {
        std::fprintf(stderr, "svsim_top: no endpoint at %s:%d\n",
                     host.c_str(), port);
        return 1;
      }
      // The watched process exiting closes the endpoint; a few misses in
      // a row means the run is gone.
      if (++misses >= 5) {
        if (!ever_connected) {
          std::fprintf(stderr, "svsim_top: no endpoint at %s:%d\n",
                       host.c_str(), port);
          return 1;
        }
        std::printf("svsim_top: endpoint at %s:%d closed\n", host.c_str(),
                    port);
        return 0;
      }
    }
    sleep_ms(interval_ms);
  }
}
