// Tests for the epoll reactor transport: the syscall-free Connection state
// machine (framing, pipelining, partial writes), then loopback socket tests
// for pipelined in-order responses, observability verbs and HTTP scrapes on
// pipelined connections, slowloris byte-at-a-time framing, partial writes
// under a tiny SO_SNDBUF, backpressure against a client that does not read,
// connection churn during hot-reload, 64 pipelined connections against
// hot-reload with the window cache on, and graceful drain with responses
// still in flight.
#include "serve/reactor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/interval.hpp"
#include "core/rule.hpp"
#include "core/rule_system.hpp"
#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "serve/connection.hpp"
#include "serve/model_store.hpp"
#include "serve/service.hpp"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using ef::core::Interval;
using ef::core::Rule;
using ef::core::RuleSystem;
using ef::serve::Connection;
using ef::serve::ForecastService;
using ef::serve::ModelStore;
using ef::serve::ServeOptions;

/// A one-rule system with the fit `coeffs` (two lags, then the intercept) on
/// all of [0,2]^2 — every probe inside the box is covered, so predictions
/// never abstain. The default predicts a damped recurrence.
RuleSystem make_covering_system(std::vector<double> coeffs = {0.3, 0.6, 0.05}) {
  Rule rule({Interval(0.0, 2.0), Interval(0.0, 2.0)});
  ef::core::PredictingPart part;
  part.fit.coeffs = std::move(coeffs);
  part.fit.mean_prediction = 0.5;
  part.fit.max_abs_residual = 0.01;
  part.matches = 5;
  part.fitness = 2.0;
  rule.set_predicting(part);
  RuleSystem system;
  system.add_rules({rule}, false, -1.0);
  return system;
}

/// A covering system predicting the constant `value`.
RuleSystem make_constant_system(double value) { return make_covering_system({0.0, 0.0, value}); }

// --- Connection state machine (no sockets) ---------------------------------

TEST(Connection, FramesLinesIncrementally) {
  Connection conn(-1, 1, 0);
  conn.append("{\"a\"", 4);
  EXPECT_FALSE(conn.next_line(1024).has_value());
  conn.append(":1}\r\npart", 9);
  const auto line = conn.next_line(1024);
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "{\"a\":1}");  // '\r' stripped, terminator consumed
  EXPECT_FALSE(conn.next_line(1024).has_value());
  EXPECT_TRUE(conn.has_buffered_input());
}

TEST(Connection, OverlongLineDiscardedMidStreamThenRecovers) {
  Connection conn(-1, 1, 0);
  const std::string big(64, 'x');
  conn.append(big.data(), big.size());
  EXPECT_FALSE(conn.next_line(16).has_value());
  EXPECT_TRUE(conn.take_overlong());
  EXPECT_FALSE(conn.take_overlong()) << "overlong reports once per line";

  // The connection keeps framing afterwards.
  conn.append("ok\n", 3);
  const auto line = conn.next_line(16);
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "ok");
}

TEST(Connection, ConsumeOutputHandlesPartialWrites) {
  Connection conn(-1, 1, 0);
  conn.respond("abcdef");
  conn.respond("ghij");
  EXPECT_EQ(conn.queued(), 2u);
  conn.consume_output(4);  // partial first string
  EXPECT_EQ(conn.write_offset(), 4u);
  conn.consume_output(5);  // finishes first, 3 bytes into second
  EXPECT_EQ(conn.write_offset(), 3u);
  ASSERT_EQ(conn.output().size(), 1u);
  conn.consume_output(1);
  EXPECT_FALSE(conn.has_output());
  EXPECT_EQ(conn.queued(), 0u);
  EXPECT_EQ(conn.write_offset(), 0u);
}

// --- loopback socket tests --------------------------------------------------

#if defined(__linux__)

/// Blocking JSON-lines client with buffered line reads and a deadline.
class LineClient {
 public:
  /// A non-zero `rcvbuf_bytes` pins SO_RCVBUF before connecting, so how many
  /// replies fit in flight does not depend on the host's tcp_rmem default.
  explicit LineClient(std::uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ >= 0 && rcvbuf_bytes > 0) {
      (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes, sizeof(rcvbuf_bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~LineClient() { close(); }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  [[nodiscard]] bool connected() const { return connected_; }

  /// Half-close: no more requests, but responses still flow back.
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  [[nodiscard]] bool send_all(std::string_view data) {
    while (!data.empty()) {
      const auto n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Next newline-terminated line (terminator stripped); nullopt on
  /// timeout or connection close.
  [[nodiscard]] std::optional<std::string> read_line(int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return std::nullopt;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) return std::nullopt;
      char chunk[4096];
      const auto n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Drain everything until the server closes (HTTP responses, drain tests).
  [[nodiscard]] std::string read_until_close(int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    std::string all = std::move(buffer_);
    buffer_.clear();
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return all;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) return all;
      char chunk[4096];
      const auto n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return all;
      all.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

/// Store + service + running reactor wired for one test.
struct Server {
  explicit Server(ServeOptions options = {}) {
    options.port = 0;  // ephemeral
    store.add_system("m", make_covering_system());
    service.emplace(store, options);
    reactor.emplace(*service);
    reactor->start();
  }
  ~Server() {
    reactor->stop();
    service->shutdown();
  }
  ModelStore store;
  std::optional<ForecastService> service;
  std::optional<ef::serve::Reactor> reactor;
};

TEST(Reactor, PipelinedRequestsAnsweredInOrder) {
  Server server;
  LineClient client(server.reactor->port());
  ASSERT_TRUE(client.connected());

  // One burst of 64 requests, ids 0..63, mixing predicts and pings; the
  // responses must come back strictly in request order.
  constexpr int kRequests = 64;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    if (i % 5 == 4) {
      burst += R"({"cmd":"ping","id":)" + std::to_string(i) + "}\n";
    } else {
      burst += R"({"model":"m","window":[0.8,1.1],"id":)" + std::to_string(i) + "}\n";
    }
  }
  ASSERT_TRUE(client.send_all(burst));

  for (int i = 0; i < kRequests; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "response " << i << " missing";
    EXPECT_NE(line->find("\"ok\":true"), std::string::npos) << *line;
    EXPECT_NE(line->find("\"v\":2,\"id\":" + std::to_string(i)), std::string::npos)
        << "out of order at " << i << ": " << *line;
    if (i % 5 == 4) {
      EXPECT_NE(line->find("\"pong\":true"), std::string::npos) << *line;
    } else {
      EXPECT_NE(line->find("\"value\":"), std::string::npos) << *line;
    }
  }
}

TEST(Reactor, V1ResponsesCarryNoEnvelope) {
  Server server;
  LineClient client(server.reactor->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all("{\"cmd\":\"ping\"}\n"));
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, R"({"ok":true,"pong":true})");

  // v1 errors keep the bare-string shape.
  ASSERT_TRUE(client.send_all("garbage\n"));
  const auto error = client.read_line();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->rfind(R"({"ok":false,"error":")", 0), 0u) << *error;
  EXPECT_EQ(error->find("\"code\""), std::string::npos) << *error;
}

TEST(Reactor, ObservabilityVerbsWorkPipelined) {
  Server server;
  LineClient client(server.reactor->port());
  ASSERT_TRUE(client.connected());

  // All verbs in one burst on one connection — each must answer, in order.
  ASSERT_TRUE(client.send_all(R"({"cmd":"models","id":0})"
                              "\n"
                              R"({"cmd":"stats","id":1})"
                              "\n"
                              R"({"cmd":"metrics","id":2})"
                              "\n"
                              R"({"cmd":"events","id":3})"
                              "\n"
                              R"({"cmd":"trace","id":4})"
                              "\n"
                              R"({"cmd":"ping","id":5})"
                              "\n"));
  const char* expect[] = {"\"models\":", "\"connections\":", "\"exposition\":",
                          "\"events\":", "\"trace\":",       "\"pong\":true"};
  for (int i = 0; i < 6; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "verb " << i;
    EXPECT_NE(line->find("\"ok\":true"), std::string::npos) << *line;
    EXPECT_NE(line->find("\"id\":" + std::to_string(i)), std::string::npos) << *line;
    EXPECT_NE(line->find(expect[i]), std::string::npos) << *line;
  }
}

TEST(Reactor, HttpMetricsScrapeAfterPipelinedJson) {
  Server server;
  LineClient client(server.reactor->port());
  ASSERT_TRUE(client.connected());

  // A JSON request immediately followed by an HTTP scrape on the same
  // connection: the JSON response comes first, then the HTTP response, then
  // the server closes (Connection: close).
  ASSERT_TRUE(client.send_all("{\"cmd\":\"ping\"}\nGET /metrics HTTP/1.0\r\n\r\n"));
  const auto pong = client.read_line();
  ASSERT_TRUE(pong.has_value());
  EXPECT_NE(pong->find("\"pong\":true"), std::string::npos) << *pong;

  const std::string http = client.read_until_close();
  EXPECT_EQ(http.rfind("HTTP/1.0 200 OK", 0), 0u) << http;
  EXPECT_NE(http.find("Content-Type: text/plain"), std::string::npos) << http;

  // Unknown paths 404 but still answer.
  LineClient second(server.reactor->port());
  ASSERT_TRUE(second.connected());
  ASSERT_TRUE(second.send_all("GET /nope HTTP/1.0\r\n\r\n"));
  EXPECT_NE(second.read_until_close().find("404"), std::string::npos);
}

TEST(Reactor, SlowlorisByteAtATimeStillAnswers) {
  Server server;
  LineClient client(server.reactor->port());
  ASSERT_TRUE(client.connected());

  const std::string request = "{\"cmd\":\"ping\",\"id\":9}\n";
  for (const char c : request) {
    ASSERT_TRUE(client.send_all(std::string_view(&c, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"pong\":true"), std::string::npos) << *line;
  EXPECT_NE(line->find("\"id\":9"), std::string::npos) << *line;
}

TEST(Reactor, OverlongLineRejectedConnectionSurvives) {
  ServeOptions options;
  options.max_line_bytes = 512;
  Server server(options);
  LineClient client(server.reactor->port());
  ASSERT_TRUE(client.connected());

  const std::string big(2048, 'x');
  ASSERT_TRUE(client.send_all(big + "\n{\"cmd\":\"ping\"}\n"));
  // A discarded line never got to declare v2, so the error is v1-shaped.
  const auto error = client.read_line();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("\"ok\":false"), std::string::npos) << *error;
  EXPECT_NE(error->find("request line too long"), std::string::npos) << *error;
  const auto pong = client.read_line();
  ASSERT_TRUE(pong.has_value());
  EXPECT_NE(pong->find("\"pong\":true"), std::string::npos) << *pong;
}

TEST(Reactor, PartialWritesUnderTinySndbuf) {
  ServeOptions options;
  options.sndbuf_bytes = 4096;  // force EAGAIN/EPOLLOUT on bursts
  Server server(options);
  LineClient client(server.reactor->port());
  ASSERT_TRUE(client.connected());

  // Pipeline enough responses to overflow the shrunken send buffer before
  // reading a single byte — the reactor must arm EPOLLOUT, finish the
  // partial writes, and keep every response intact and ordered.
  constexpr int kRequests = 256;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += R"({"model":"m","window":[0.8,1.1],"id":)" + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(client.send_all(burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let responses pile up

  for (int i = 0; i < kRequests; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "response " << i << " missing";
    EXPECT_NE(line->find("\"id\":" + std::to_string(i)), std::string::npos)
        << "out of order at " << i << ": " << *line;
    EXPECT_NE(line->find("\"value\":"), std::string::npos) << *line;
  }
}

TEST(Reactor, ConnectionChurnDuringHotReloadZeroFailures) {
  ServeOptions options;
  options.cache.capacity = 0;  // every request exercises the live model
  Server server(options);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> completed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        LineClient client(server.reactor->port());
        if (!client.connected()) {
          ++failures;
          continue;
        }
        std::string burst;
        for (int i = 0; i < 8; ++i) {
          burst += R"({"model":"m","window":[0.8,1.1],"id":)" +
                   std::to_string(t * 100 + i) + "}\n";
        }
        if (!client.send_all(burst)) {
          ++failures;
          continue;
        }
        for (int i = 0; i < 8; ++i) {
          const auto line = client.read_line();
          if (!line || line->find("\"ok\":true") == std::string::npos) {
            ++failures;
          } else {
            ++completed;
          }
        }
      }
    });
  }

  // Swap the model repeatedly while connections churn against it.
  for (int swap = 0; swap < 20; ++swap) {
    server.store.add_system("m", make_covering_system());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  for (auto& c : clients) c.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(completed.load(), 0u);
  EXPECT_EQ(server.store.get("m")->version(), 21u);
}

/// The number following `"key":` in a JSON reply line, or nullopt.
std::optional<double> json_number(const std::string& line, const std::string& key) {
  const auto at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return std::nullopt;
  return std::strtod(line.c_str() + at + key.size() + 3, nullptr);
}

TEST(Reactor, PipelinedConnectionsAgainstCachedHotReloadServeLiveVersion) {
  // Default options, so the window cache is on. 64 connections, 16 per
  // client thread, pipeline bursts over four hot windows while the model
  // alternates between two constant systems: even versions predict 2.0, odd
  // ones 1.0. Every reply, cached or not, must carry the value of the
  // version it reports; a cache key that outlived a reload (one not bound to
  // LoadedModel::tag()) would answer with the other constant.
  Server server;
  server.store.add_system("m", make_constant_system(2.0));  // version 2
  const auto value_of = [](double version) {
    return static_cast<long long>(version) % 2 == 0 ? 2.0 : 1.0;
  };
  const char* const kWindows[] = {"[0.5,0.5]", "[0.8,1.1]", "[1.2,0.3]", "[1.9,1.4]"};

  constexpr int kThreads = 4;
  constexpr int kConnectionsPerThread = 16;
  constexpr int kBurst = 8;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> cached{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      std::vector<std::unique_ptr<LineClient>> connections;
      for (int c = 0; c < kConnectionsPerThread; ++c) {
        connections.push_back(std::make_unique<LineClient>(server.reactor->port()));
        if (!connections.back()->connected()) ++failures;
      }
      std::vector<int> next_id(kConnectionsPerThread, 0);
      while (!stop.load(std::memory_order_relaxed) && failures.load() == 0) {
        for (int c = 0; c < kConnectionsPerThread; ++c) {
          std::string burst;
          for (int i = 0; i < kBurst; ++i) {
            const int id = next_id[c] + i;
            burst += std::string(R"({"model":"m","window":)") + kWindows[id % 4] +
                     R"(,"id":)" + std::to_string(id) + "}\n";
          }
          if (!connections[c]->send_all(burst)) ++failures;
        }
        for (int c = 0; c < kConnectionsPerThread; ++c) {
          for (int i = 0; i < kBurst; ++i, ++next_id[c]) {
            const auto line = connections[c]->read_line();
            const auto version = line ? json_number(*line, "version") : std::nullopt;
            const auto value = line ? json_number(*line, "value") : std::nullopt;
            const bool in_order =
                line && line->find("\"v\":2,\"id\":" + std::to_string(next_id[c]) + ",") !=
                            std::string::npos;
            if (!line || line->find("\"ok\":true") == std::string::npos || !in_order ||
                !version || !value || *value != value_of(*version)) {
              ADD_FAILURE() << "connection " << c << " reply " << next_id[c] << ": "
                            << line.value_or("<none>");
              ++failures;
              return;
            }
            ++completed;
            if (line->find("\"cached\":true") != std::string::npos) ++cached;
          }
        }
      }
    });
  }

  // Alternate the model while every connection keeps a burst in flight;
  // start once replies flow, so the reloads land under load on slow hosts.
  while (completed.load() == 0 && failures.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int swap = 0; swap < 40; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.store.add_system("m", make_constant_system(swap % 2 == 0 ? 1.0 : 2.0));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop = true;
  for (auto& c : clients) c.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(completed.load(), 0u);
  EXPECT_GT(cached.load(), 0u) << "the hot windows never hit the cache";
  EXPECT_EQ(server.store.get("m")->version(), 42u);
}

TEST(Reactor, GracefulDrainAnswersInFlightPipeline) {
  Server server;
  LineClient client(server.reactor->port());
  ASSERT_TRUE(client.connected());

  constexpr int kRequests = 32;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += R"({"model":"m","window":[0.8,1.1],"id":)" + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(client.send_all(burst));
  // Give the reactor a beat to pull the burst off the socket, then initiate
  // the drain (what SIGTERM does in efserve): every buffered request must
  // still be answered before the connection closes.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.reactor->stop();

  int received = 0;
  while (received < kRequests) {
    const auto line = client.read_line();
    if (!line) break;
    EXPECT_NE(line->find("\"id\":" + std::to_string(received)), std::string::npos)
        << *line;
    ++received;
  }
  EXPECT_EQ(received, kRequests) << "drain dropped buffered responses";
  EXPECT_FALSE(server.reactor->running());
}

TEST(Reactor, HalfCloseWithDeepInlinePipelineDoesNotRecurse) {
  // Regression: every predict completes inline on the reactor thread. A
  // client that pipelines thousands of lines and then shutdown(SHUT_WR) once
  // drove completion -> line-loop mutual recursion one frame per buffered
  // line — a remotely triggerable stack overflow. Every response must still
  // arrive, in order, then the server closes the drained connection.
  ServeOptions options;
  Server server(options);
  LineClient client(server.reactor->port());
  ASSERT_TRUE(client.connected());

  constexpr int kRequests = 20000;
  std::string burst;
  burst.reserve(kRequests * 48);
  for (int i = 0; i < kRequests; ++i) {
    burst += R"({"model":"m","window":[0.8,1.1],"id":)" + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(client.send_all(burst));
  client.shutdown_write();

  for (int i = 0; i < kRequests; ++i) {
    const auto line = client.read_line(10000);
    ASSERT_TRUE(line.has_value()) << "response " << i << " missing";
    ASSERT_NE(line->find("\"id\":" + std::to_string(i)), std::string::npos)
        << "out of order at " << i << ": " << *line;
  }
  EXPECT_FALSE(client.read_line(2000).has_value())
      << "server must close once the half-closed pipeline drains";
}

TEST(Reactor, NonReadingClientStopsShardReadingAtPipelineCap) {
  // A client that pipelines and never reads must not make its shard read,
  // answer and queue every line: once max_pipeline replies sit unwritten the
  // shard stops reading, and it resumes as the client drains its replies.
  ServeOptions options;
  options.reactor_threads = 1;
  options.max_pipeline = 8;
  options.sndbuf_bytes = 4096;
  Server server(options);
  const ef::obs::Counter& requests =
      ef::obs::Registry::global().counter("serve.reactor.0.requests");
  const std::uint64_t before = requests.value();
  LineClient client(server.reactor->port(), /*rcvbuf_bytes=*/4096);
  ASSERT_TRUE(client.connected());

  constexpr int kRequests = 20000;
  std::string burst;
  burst.reserve(kRequests * 48);
  for (int i = 0; i < kRequests; ++i) {
    burst += R"({"model":"m","window":[0.8,1.1],"id":)" + std::to_string(i) + "}\n";
  }
  // The send blocks once the shard stops reading; the reads below free it.
  std::thread sender([&] { (void)client.send_all(burst); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
#if EVOFORECAST_OBS_ENABLED
  EXPECT_LT(requests.value() - before, static_cast<std::uint64_t>(kRequests / 4))
      << "the shard kept reading a client that does not read its replies";
#else
  (void)before;
#endif

  for (int i = 0; i < kRequests; ++i) {
    const auto line = client.read_line(10000);
    if (!line || line->find("\"id\":" + std::to_string(i) + ",") == std::string::npos) {
      ADD_FAILURE() << "response " << i << " missing or out of order: " << line.value_or("");
      break;
    }
  }
  client.shutdown_write();  // unblocks the sender if a reply went missing
  sender.join();
}

TEST(Reactor, DrainCompletesBufferedInlineTailWithoutRecursing) {
  // The other paused-read + buffered-lines + inline-answer combination (the
  // recursion precondition, see HalfClose above): a client that pipelines
  // without reading parks its connection at the pipeline cap with a tail of
  // lines in the read buffer, then the drain begins. As the client reads,
  // every buffered tail line is answered one at a time under the cap — this
  // must iterate, not nest a stack frame per line. Replies arrive in order
  // and gap-free, then the connection closes.
  ServeOptions options;
  options.reactor_threads = 1;
  options.max_pipeline = 1;
  options.sndbuf_bytes = 4096;
  Server server(options);
  LineClient client(server.reactor->port(), /*rcvbuf_bytes=*/4096);
  ASSERT_TRUE(client.connected());

  constexpr int kRequests = 20000;
  std::string burst;
  burst.reserve(kRequests * 48);
  for (int i = 0; i < kRequests; ++i) {
    burst += R"({"model":"m","window":[0.8,1.1],"id":)" + std::to_string(i) + "}\n";
  }
  // The send stalls once the shard parks; the drain's close ends it.
  std::thread sender([&] { (void)client.send_all(burst); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // parked at the cap
  std::thread stopper([&] { server.reactor->stop(); });  // drain, tail still buffered
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Lines the reactor never read off the socket are dropped by the drain
  // contract, so assert order and gap-freeness, not the total.
  int next_id = 0;
  for (;;) {
    const auto line = client.read_line(2000);
    if (!line) break;  // server closed the drained connection
    if (line->find("\"id\":" + std::to_string(next_id) + ",") == std::string::npos) {
      ADD_FAILURE() << "out of order at " << next_id << ": " << *line;
      break;
    }
    ++next_id;
  }
  EXPECT_GT(next_id, 0) << "drain dropped the buffered tail";
  client.shutdown_write();
  stopper.join();
  sender.join();
  EXPECT_FALSE(server.reactor->running());
}

TEST(Reactor, MultipleShardsServeConcurrentConnections) {
  ServeOptions options;
  options.reactor_threads = 2;
  Server server(options);
  ASSERT_EQ(server.reactor->shard_count(), 2u);

  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&] {
      LineClient client(server.reactor->port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 25; ++i) {
        if (!client.send_all("{\"model\":\"m\",\"window\":[0.8,1.1]}\n")) {
          ++failures;
          return;
        }
        const auto line = client.read_line();
        if (!line || line->find("\"ok\":true") == std::string::npos) ++failures;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(server.reactor->connections_served(), 6u);
}

#endif  // defined(__linux__)

}  // namespace
