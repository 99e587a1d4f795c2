// obs::Httpd: lifecycle (ephemeral bind, stop/restart), every route's
// status code and payload shape, Prometheus content type, the memory
// sample each /metrics scrape takes, 400/404/405
// handling via a raw client, the /healthz 503 flip on an injected-NaN
// run, and the SIGINT graceful-shutdown flush (exit 130 with a partial
// svsim-progress-v1 document on stderr).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "core/single_sim.hpp"
#include "core/state_vector.hpp"
#include "ir/circuit.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/httpd.hpp"
#include "obs/jsonlite.hpp"
#include "obs/memtrack.hpp"
#include "obs/perfmodel.hpp"
#include "obs/progress.hpp"
#include "obs/registry.hpp"

namespace svsim {
namespace {

using obs::jsonlite::Value;

/// Send raw bytes to the server and return the full response (for the
/// malformed-request and wrong-method paths http_get cannot produce).
std::string raw_request(int port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  std::string resp;
  char buf[2048];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

Circuit ghz(IdxType n) {
  Circuit c(n);
  c.h(0);
  for (IdxType q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  return c;
}

// Death tests run before everything else (gtest convention), so this
// executes with a pristine health mirror.
TEST(HttpdDeathTest, SigintFlushesPartialProgressAndExits130) {
  EXPECT_EXIT(
      {
        obs::install_shutdown_handlers();
        obs::ProgressBoard& board = obs::ProgressBoard::global();
        board.set_enabled(true);
        const Circuit c = ghz(4);
        const obs::RunModel m = obs::model_run(c);
        board.begin_run("single", c.n_qubits(), 1, m.bytes_prefix,
                        m.amps_prefix);
        board.slot(0)->publish_gate(2);
        ::raise(SIGINT);
      },
      testing::ExitedWithCode(130), "svsim-progress-v1");
}

TEST(HttpdDeathTest, SigtermExits143) {
  EXPECT_EXIT(
      {
        obs::install_shutdown_handlers();
        ::raise(SIGTERM);
      },
      testing::ExitedWithCode(143), "svsim-progress-v1");
}

TEST(Httpd, StartsOnEphemeralPortStopsAndRestarts) {
  obs::Httpd& srv = obs::Httpd::global();
  ASSERT_TRUE(srv.start(0));
  EXPECT_TRUE(srv.running());
  const int port = srv.port();
  EXPECT_GT(port, 0);
  EXPECT_TRUE(srv.start(0)) << "start while running is idempotent";
  EXPECT_EQ(srv.port(), port);
  // Starting the endpoint turns the progress publishers on.
  EXPECT_TRUE(obs::ProgressBoard::global().enabled());

  int status = 0;
  std::string body;
  ASSERT_TRUE(obs::http_get("127.0.0.1", port, "/", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("/metrics"), std::string::npos);

  srv.stop();
  EXPECT_FALSE(srv.running());
  srv.stop(); // double stop is safe

  ASSERT_TRUE(srv.start(0));
  EXPECT_GT(srv.port(), 0);
  ASSERT_TRUE(
      obs::http_get("127.0.0.1", srv.port(), "/", &status, &body));
  EXPECT_EQ(status, 200);
  srv.stop();
}

TEST(Httpd, MetricsRouteServesPrometheusText) {
  obs::Httpd& srv = obs::Httpd::global();
  ASSERT_TRUE(srv.start(0));
  obs::Registry::global().counter("httpd_test.scrapes").add(3);
  const std::string resp =
      raw_request(srv.port(), "GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(resp.find("# TYPE svsim_httpd_test_scrapes_total counter"),
            std::string::npos);
  EXPECT_NE(resp.find("svsim_httpd_test_scrapes_total 3"),
            std::string::npos);
  srv.stop();
}

// /metrics samples on scrape: with no tracked buffer live, each scrape
// takes one shallow VmRSS/VmHWM sample and serves a nonzero RSS gauge.
TEST(Httpd, MetricsScrapeSamplesRss) {
  obs::MemRegistry& reg = obs::MemRegistry::global();
  ASSERT_TRUE(reg.enabled());
  ASSERT_EQ(reg.snapshot().tracked_bytes, 0u) << "a tracked buffer is live";
  obs::Httpd& srv = obs::Httpd::global();
  ASSERT_TRUE(srv.start(0));
  for (int scrape = 0; scrape < 3; ++scrape) {
    const std::uint64_t before = reg.snapshot().samples;
    int status = 0;
    std::string body;
    ASSERT_TRUE(
        obs::http_get("127.0.0.1", srv.port(), "/metrics", &status, &body));
    EXPECT_EQ(status, 200);
    EXPECT_EQ(reg.snapshot().samples, before + 1) << "scrape " << scrape;
    const std::string key = "\nsvsim_mem_rss_bytes ";
    const std::size_t at = body.find(key);
    ASSERT_NE(at, std::string::npos) << body;
    EXPECT_GT(std::strtod(body.c_str() + at + key.size(), nullptr), 0.0);
  }
  srv.stop();
}

TEST(Httpd, ProgressRouteServesValidJson) {
  obs::Httpd& srv = obs::Httpd::global();
  ASSERT_TRUE(srv.start(0));
  int status = 0;
  std::string body;
  ASSERT_TRUE(
      obs::http_get("127.0.0.1", srv.port(), "/progress", &status, &body));
  EXPECT_EQ(status, 200);
  Value doc;
  EXPECT_TRUE(obs::jsonlite::parse(body, &doc)) << body;
  EXPECT_EQ(doc.member_str("schema", ""), "svsim-progress-v1");
  srv.stop();
}

TEST(Httpd, UnknownPathIs404WrongMethodIs405GarbageIs400) {
  obs::Httpd& srv = obs::Httpd::global();
  ASSERT_TRUE(srv.start(0));
  int status = 0;
  std::string body;
  ASSERT_TRUE(obs::http_get("127.0.0.1", srv.port(), "/nope", &status,
                            &body));
  EXPECT_EQ(status, 404);

  const std::string post =
      raw_request(srv.port(), "POST /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_NE(post.find("Allow: GET"), std::string::npos);

  const std::string garbage = raw_request(srv.port(), "garbage\r\n\r\n");
  EXPECT_NE(garbage.find("HTTP/1.1 400"), std::string::npos);
  srv.stop();
}

TEST(Httpd, HealthzFlips503OnInjectedNaN) {
  obs::Httpd& srv = obs::Httpd::global();
  ASSERT_TRUE(srv.start(0));
  int status = 0;
  std::string body;
  Value doc;

  // Healthy monitored run first: 200 ok.
  SimConfig cfg;
  cfg.health_every_n = 1;
  {
    SingleSim sim(4, cfg);
    sim.run(ghz(4));
  }
  ASSERT_TRUE(
      obs::http_get("127.0.0.1", srv.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  ASSERT_TRUE(obs::jsonlite::parse(body, &doc)) << body;
  EXPECT_EQ(doc.member_str("status", ""), "ok");

  // NaN-poisoned state: the monitor trips and the endpoint serves 503.
  {
    SingleSim sim(4, cfg);
    StateVector sv(4);
    sv.amps[0] = Complex{1.0, 0.0};
    sv.amps[3] =
        Complex{std::numeric_limits<ValType>::quiet_NaN(), 0.0};
    sim.load_state(sv);
    sim.run(ghz(4));
  }
  ASSERT_TRUE(
      obs::http_get("127.0.0.1", srv.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 503);
  ASSERT_TRUE(obs::jsonlite::parse(body, &doc)) << body;
  EXPECT_EQ(doc.member_str("status", ""), "tripped");
  EXPECT_GT(doc.member_num("nan_checks", 0), 0.0);
  srv.stop();
}

TEST(Httpd, ReportRouteServesLastRunDocument) {
  obs::Httpd& srv = obs::Httpd::global();
  ASSERT_TRUE(srv.start(0));
  // The previous test ran SingleSim runs, so a finished report exists.
  {
    SingleSim sim(4, SimConfig{});
    sim.run(ghz(4));
  }
  int status = 0;
  std::string body;
  ASSERT_TRUE(
      obs::http_get("127.0.0.1", srv.port(), "/report", &status, &body));
  EXPECT_EQ(status, 200);
  Value doc;
  ASSERT_TRUE(obs::jsonlite::parse(body, &doc)) << body;
  EXPECT_EQ(doc.member_str("schema", ""), "svsim-report-v1");
  srv.stop();
}

} // namespace
} // namespace svsim
