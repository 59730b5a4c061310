// serve/reactor.hpp — shared-nothing epoll reactor front end.
//
// The transport behind efserve: N reactor threads, each running its own
// epoll loop over the connections it owns. Shard 0 additionally owns the
// non-blocking listener and acts as the dispatching acceptor — accepted
// sockets are assigned round-robin across shards (handed over through a
// mutex-protected inbox + eventfd wake); after that handoff a connection is
// touched by exactly one thread for its whole life, so the per-connection
// state (serve/connection.hpp) needs no locks.
//
// Requests are pipelined: a client may write any number of request lines
// without waiting. The owning shard answers each line inline — a forecast
// is one pass over the model's rules — and queues the reply, so responses
// come back in request order by construction. Replies are written with
// writev over the ordered queue; partial writes arm EPOLLOUT and resume when
// the socket drains. Backpressure: once ServeOptions::max_pipeline replies
// sit unwritten (the client is not reading), the shard stops reading that
// connection until the queue drains below the cap.
//
// The HTTP carve-out survives from the thread-per-connection server: a
// "GET "/"HEAD " request line flips the connection into single-shot HTTP
// mode (Prometheus scrapes GET /metrics on the same port), including on a
// connection that already served pipelined JSON requests.
//
// Shutdown contract: stop() stops accepting, stops reading, answers every
// request already received (buffered lines included), flushes, then closes
// — bounded by ServeOptions::drain_timeout_ms, after which stragglers are
// force-closed. Call stop() (or destroy the Reactor) BEFORE
// ForecastService::shutdown(), so the buffered requests the drain answers
// still find the service running.
//
// Observability: each shard registers serve.reactor.<i>.* counters
// (accepted, requests, wakeups, partial_writes) next to the
// aggregate serve.* family. Linux-only (epoll); start() throws elsewhere.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/connection.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace ef::serve {

class Reactor {
 public:
  /// Transport configuration (host/port/threads/limits) is read from
  /// `service.options()` — one ServeOptions configures the whole stack.
  explicit Reactor(ForecastService& service);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Bind, listen and spawn the reactor threads. Throws std::runtime_error
  /// on bind/listen failure (port taken, non-Linux platform).
  void start();

  /// Graceful drain: stop accepting and reading, answer everything already
  /// received, flush, close. Bounded by drain_timeout_ms. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept;
  /// Actual bound port (resolves port 0 after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }
  [[nodiscard]] std::uint64_t connections_served() const noexcept;
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

 private:
  struct Shard;

  void shard_loop(Shard& shard);
  void enter_drain(Shard& shard);
  void handle_accept(Shard& shard);
  void adopt(Shard& shard, int fd);
  void drain_inbox(Shard& shard);
  void handle_readable(Shard& shard, Connection* conn);
  void process_lines(Shard& shard, Connection* conn);
  /// Full HTTP/1.0 response for the GET/HEAD carve-out (Connection: close).
  [[nodiscard]] static std::string handle_http(std::string_view method,
                                               std::string_view path);
  /// writev the ordered queue, answering lines that waited on the pipeline
  /// cap as it drains; arms/disarms EPOLLIN and EPOLLOUT. Returns false when
  /// the connection was closed (write error or close-after-flush drained).
  bool flush(Shard& shard, Connection* conn);
  void close_connection(Shard& shard, Connection* conn);
  void update_interest(Shard& shard, Connection* conn);

  ForecastService& service_;
  const ServeOptions& options_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> next_conn_id_{1};
  std::atomic<std::size_t> rr_next_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ef::serve
