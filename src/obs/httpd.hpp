// obs::Httpd — a dependency-free embedded HTTP/1.1 telemetry endpoint.
//
// The live-telemetry front door (DESIGN.md §9): a single accept thread on
// a loopback-bound POSIX socket serves tiny read-only GETs so external
// pollers (Prometheus, svsim_top, a CI smoke client) can interrogate a
// running simulation without any library dependency or worker stall:
//
//   GET /metrics   Registry::write_prom() (Prometheus text 0.0.4)
//   GET /healthz   HealthMonitor mirror; 200 ok / 503 when tripped
//   GET /progress  svsim-progress-v1 JSON (ProgressBoard snapshot)
//   GET /report    last finished run's svsim-report-v1, or a best-effort
//                  partial report while a run is in flight
//   GET /          plain-text index of the endpoints
//
// Connection policy: requests are handled sequentially on the accept
// thread (bounded by construction — one in flight, small listen backlog),
// with a receive timeout so a stalled client cannot wedge the endpoint.
// Responses are Connection: close. All handlers read lock-free snapshots
// or take only cold-path mutexes; the gate loops never block on a scrape.
//
// Activation: a resolved RunSwitches::http_port (SimConfig::http_port or
// SVSIM_HTTP=<port>, 0 = ephemeral) on any binary, or qasm_runner
// --serve. Starting the server also enables the ProgressBoard publishers.
#pragma once

#include <atomic>
#include <string>
#include <thread>

namespace svsim::obs {

class Httpd {
public:
  /// The process-wide server instance (at most one endpoint per process).
  static Httpd& global();

  ~Httpd();

  /// Bind 127.0.0.1:<port> (0 = kernel-assigned) and spawn the accept
  /// thread. Idempotent while running; returns false when the bind/listen
  /// fails. On success the ProgressBoard is enabled so gate loops publish.
  bool start(int port);

  /// Close the listener and join the accept thread. Safe to call twice.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolved after an ephemeral bind), or -1.
  int port() const { return port_.load(std::memory_order_acquire); }

private:
  Httpd() = default;
  void serve_loop();

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> port_{-1};
  int listen_fd_ = -1;
  std::thread thread_;
};

class ProgressBoard;

/// Start the global server on `port` once (-1 = none); with no port,
/// `progress` turns the publishers on without a server. Takes the
/// resolved RunSwitches::http_port / progress; called per run by the
/// backends, cheap after the first call. Returns the live progress board,
/// or null when publishing is off.
ProgressBoard* maybe_start_httpd(int port, bool progress);

/// Minimal blocking HTTP/1.1 GET for loopback polling (svsim_top, tests,
/// the bench idle poller). Returns false on connect/transport failure;
/// on success fills the numeric status and the response body.
bool http_get(const std::string& host, int port, const std::string& path,
              int* status, std::string* body);

} // namespace svsim::obs
