// loopback.hpp — the load generator of the serve workloads.
//
// All load comes from this process over 127.0.0.1: kIoThreads client
// threads share kConnections pipelined connections. Two disciplines:
//
//   closed loop — each connection keeps kDepth requests in flight and
//     sends the next one only when a reply arrives, so a slower server
//     receives less load (capacity: ok replies per second);
//   open loop — requests are due on a fixed schedule at `rate` req/s and
//     are sent when due whatever the replies do, so queueing shows up as
//     latency. Latency is timed from each request's due time, and how late
//     the generator itself ran is reported beside it.
//
// Request lines are pre-rendered; the i-th request of a phase sends
// lines[(start + i) % lines.size()], split across workers round-robin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace evobench {

inline constexpr std::size_t kConnections = 4;
inline constexpr std::size_t kIoThreads = 2;
/// Closed loop: requests in flight per connection.
inline constexpr std::size_t kDepth = 32;
/// Sub-window length of the per-window statistics in LoadResult.
inline constexpr double kWindowSeconds = 0.25;

struct LoadOptions {
  /// Open loop offered rate in requests/s; 0 selects the closed loop.
  double rate = 0.0;
  double seconds = 1.0;
  /// Index of the first line this phase sends.
  std::size_t start = 0;
};

struct LoadResult {
  std::size_t sent = 0;
  std::size_t ok = 0;      ///< replies starting {"ok":true
  std::size_t failed = 0;  ///< error replies, lost connections, unanswered
  double seconds = 0.0;
  /// Closed loop: ok replies received in each sub-window before the
  /// deadline.
  std::vector<std::size_t> ok_by_window;
  /// Open loop only: reply time minus due time per request, the sub-window
  /// each request was due in, and send time minus due time.
  std::vector<double> latency_us;
  std::vector<std::uint32_t> latency_window;
  std::vector<double> late_us;
  /// Largest number of requests sent but not yet answered on one worker.
  std::size_t backlog_max = 0;
};

/// Run one phase against the server on `port`.
[[nodiscard]] LoadResult drive(std::uint16_t port, const std::vector<std::string>& lines,
                               const LoadOptions& options);

/// Send `lines` pipelined over one connection and return the replies in
/// request order (empty strings for replies that never arrived within
/// `timeout_s`).
[[nodiscard]] std::vector<std::string> replies_to(std::uint16_t port,
                                                const std::vector<std::string>& lines,
                                                double timeout_s = 30.0);

/// Send `lines` one at a time over one connection, waiting for each reply;
/// returns each round trip in microseconds (the transport replay).
[[nodiscard]] std::vector<double> round_trips(std::uint16_t port,
                                              const std::vector<std::string>& lines);

}  // namespace evobench
