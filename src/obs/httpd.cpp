#include "obs/httpd.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "common/logging.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/memtrack.hpp"
#include "obs/progress.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"

namespace svsim::obs {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
  }
  return "Internal Server Error";
}

void set_timeouts(int fd) {
  timeval tv{};
  tv.tv_sec = 2; // a stalled client cannot wedge the accept loop
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void send_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

void write_response(int fd, int status, const std::string& content_type,
                    const std::string& body, const char* extra_header) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + ' ' +
                     status_text(status) + "\r\nContent-Type: " +
                     content_type + "\r\nContent-Length: " +
                     std::to_string(body.size()) +
                     "\r\nConnection: close\r\n";
  if (extra_header != nullptr) {
    head += extra_header;
    head += "\r\n";
  }
  head += "\r\n";
  send_all(fd, head.data(), head.size());
  send_all(fd, body.data(), body.size());
}

/// Best-effort partial svsim-report-v1 for a run still in flight: the
/// header fields and wall-so-far from the progress snapshot; every other
/// section carries its defaults.
std::string partial_report_json(const ProgressSnapshot& s) {
  RunReport r;
  r.backend = s.backend;
  r.n_qubits = static_cast<IdxType>(s.n_qubits);
  r.n_workers = s.n_workers;
  r.total_gates = s.gates_done;
  r.wall_seconds = s.elapsed_s;
  return to_json(r);
}

void handle_request(int fd, const std::string& method,
                    const std::string& path) {
  if (method != "GET") {
    write_response(fd, 405, "text/plain; charset=utf-8",
                   "only GET is supported\n", "Allow: GET");
    return;
  }
  if (path == "/metrics") {
    // A shallow sample first, so the svsim_mem_rss_bytes and
    // svsim_mem_hwm_bytes gauges are as fresh as the scrape.
    MemRegistry::global().sample_rss();
    write_response(fd, 200, "text/plain; version=0.0.4; charset=utf-8",
                   Registry::global().write_prom(), nullptr);
    return;
  }
  if (path == "/healthz") {
    const HealthStats h = health_snapshot();
    write_response(fd, h.tripped() ? 503 : 200,
                   "application/json", healthz_json(h), nullptr);
    return;
  }
  if (path == "/progress") {
    write_response(fd, 200, "application/json",
                   progress_to_json(ProgressBoard::global().snapshot()),
                   nullptr);
    return;
  }
  if (path == "/report") {
    const std::string full = ProgressBoard::global().last_report_json();
    if (!full.empty()) {
      write_response(fd, 200, "application/json", full, nullptr);
      return;
    }
    const ProgressSnapshot s = ProgressBoard::global().snapshot();
    if (!s.valid) {
      write_response(fd, 404, "text/plain; charset=utf-8",
                     "no run recorded yet\n", nullptr);
      return;
    }
    write_response(fd, 200, "application/json", partial_report_json(s),
                   "X-Svsim-Partial: 1");
    return;
  }
  if (path == "/memory") {
    // A deep sample first, so the document carries fresh RSS, THP and
    // NUMA numbers.
    MemRegistry::global().sample_now();
    write_response(fd, 200, "application/json",
                   memory_json(MemRegistry::global().snapshot()), nullptr);
    return;
  }
  if (path == "/" || path.empty()) {
    write_response(fd, 200, "text/plain; charset=utf-8",
                   "svsim telemetry endpoints: /metrics /healthz /progress "
                   "/report /memory\n",
                   nullptr);
    return;
  }
  write_response(fd, 404, "text/plain; charset=utf-8", "not found\n",
                 nullptr);
}

} // namespace

Httpd& Httpd::global() {
  static Httpd* h = new Httpd(); // leak on purpose: outlive static dtors
  return *h;
}

Httpd::~Httpd() { stop(); }

bool Httpd::start(int port) {
  if (running()) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    log_warn("httpd: cannot bind 127.0.0.1:", port, " (", strerror(errno),
             "); telemetry endpoint disabled");
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  int actual = port;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
    actual = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  port_.store(actual, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&Httpd::serve_loop, this);
  // The endpoint is what makes live progress observable; turn the
  // publishers on with it.
  ProgressBoard::global().set_enabled(true);
  return true;
}

void Httpd::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  // Wake the accept loop: shutdown() does it on Linux; the self-connect
  // covers platforms where a blocked accept ignores it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  const int wake = ::socket(AF_INET, SOCK_STREAM, 0);
  if (wake >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(port_.load(std::memory_order_acquire)));
    ::connect(wake, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::close(wake);
  }
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_.store(-1, std::memory_order_release);
  running_.store(false, std::memory_order_release);
}

void Httpd::serve_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break; // listener gone
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    set_timeouts(fd);
    // Read the request head (tiny GETs only; cap at 8 KiB).
    std::string req;
    char buf[1024];
    while (req.find("\r\n\r\n") == std::string::npos && req.size() < 8192) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      req.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t sp1 = req.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : req.find(' ', sp1 + 1);
    if (sp2 == std::string::npos) {
      write_response(fd, 400, "text/plain; charset=utf-8", "bad request\n",
                     nullptr);
    } else {
      handle_request(fd, req.substr(0, sp1),
                     req.substr(sp1 + 1, sp2 - sp1 - 1));
    }
    ::close(fd);
  }
}

ProgressBoard* maybe_start_httpd(int port, bool progress) {
  ProgressBoard& board = ProgressBoard::global();
  if (port >= 0) {
    Httpd::global().start(port);
  } else if (progress) {
    board.set_enabled(true);
  }
  if (!board.enabled()) return nullptr;
  // A live-monitored run should also die gracefully: the Ctrl-C flush is
  // what turns a killed multi-hour run into a partial report instead of
  // nothing.
  install_shutdown_handlers();
  return &board;
}

bool http_get(const std::string& host, int port, const std::string& path,
              int* status, std::string* body) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &res) != 0 ||
      res == nullptr) {
    return false;
  }
  const int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  bool ok = fd >= 0 && ::connect(fd, res->ai_addr, res->ai_addrlen) == 0;
  ::freeaddrinfo(res);
  if (!ok) {
    if (fd >= 0) ::close(fd);
    return false;
  }
  set_timeouts(fd);
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  send_all(fd, req.data(), req.size());
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.1 200 OK\r\n..." — status is the second token.
  const std::size_t sp = resp.find(' ');
  if (sp == std::string::npos || sp + 4 > resp.size()) return false;
  if (status != nullptr) *status = std::atoi(resp.c_str() + sp + 1);
  const std::size_t sep = resp.find("\r\n\r\n");
  if (body != nullptr) {
    *body = sep == std::string::npos ? std::string() : resp.substr(sep + 4);
  }
  return true;
}

} // namespace svsim::obs
