// serve/connection.hpp — per-connection state for the epoll reactor.
//
// A Connection is owned by exactly one reactor shard after accept
// (shared-nothing): only that shard's thread touches it, so there are no
// locks here. The class holds the protocol-visible state machine —
// incremental line framing and the ordered write queue — while the Reactor
// owns the sockets and epoll bookkeeping. Keeping the state machine
// syscall-free makes it directly unit-testable (see test_serve_reactor).
//
// Pipelining contract: the reactor answers each request line inline, in the
// order it was read, and appends the reply to the write queue — so replies
// leave in request order by construction. The queue length (answered but
// not yet fully written replies) is what ServeOptions::max_pipeline caps.
//
// Framing notes:
//   * `scan_` remembers how far the newline scan has progressed, so a
//     slowloris client dribbling one byte at a time costs O(1) per byte,
//     not O(line²).
//   * A line exceeding max_line_bytes is discarded as it streams in
//     (`overlong` flag); the error response goes out once the terminating
//     newline finally arrives, and the connection survives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>

namespace ef::serve {

class Connection {
 public:
  Connection(int fd, std::uint64_t id, std::size_t shard) noexcept
      : fd_(fd), id_(id), shard_(shard) {}

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] std::size_t shard() const noexcept { return shard_; }

  // --- read side: incremental line framing --------------------------------

  /// Append freshly received bytes to the read buffer.
  void append(const char* data, std::size_t n) { rbuf_.append(data, n); }

  /// Extract the next complete line (newline-terminated, '\r' stripped,
  /// terminator consumed) or nullopt when no full line is buffered. When
  /// the partial line outgrows `max_line_bytes` it is discarded and the
  /// overlong flag raised — check take_overlong() after each line.
  [[nodiscard]] std::optional<std::string> next_line(std::size_t max_line_bytes) {
    const std::size_t newline = rbuf_.find('\n', scan_);
    if (newline == std::string::npos) {
      scan_ = rbuf_.size();
      if (rbuf_.size() > max_line_bytes) {
        rbuf_.clear();
        scan_ = 0;
        overlong_ = true;
      }
      return std::nullopt;
    }
    std::string line = rbuf_.substr(0, newline);
    rbuf_.erase(0, newline + 1);
    scan_ = 0;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.size() > max_line_bytes) {
      // The whole overlong line arrived in one read, so the incremental
      // discard above never ran — flag it here instead of parsing it.
      line.clear();
      overlong_ = true;
    }
    return line;
  }

  /// True once per overlong line: the caller owes the client an error
  /// response in place of the discarded request.
  [[nodiscard]] bool take_overlong() noexcept {
    const bool was = overlong_;
    overlong_ = false;
    return was;
  }

  [[nodiscard]] bool has_buffered_input() const noexcept { return !rbuf_.empty(); }

  /// Drop everything still buffered (the connection answers nothing more).
  void discard_input() noexcept {
    rbuf_.clear();
    scan_ = 0;
  }

  // --- write side: ordered output queue -----------------------------------

  /// Queue the reply to the request line just read.
  void respond(std::string response) { outq_.push_back(std::move(response)); }

  /// Replies queued but not yet fully written to the socket.
  [[nodiscard]] std::size_t queued() const noexcept { return outq_.size(); }
  [[nodiscard]] bool has_output() const noexcept { return !outq_.empty(); }
  [[nodiscard]] std::deque<std::string>& output() noexcept { return outq_; }
  /// Bytes of output().front() already written by a previous partial write.
  [[nodiscard]] std::size_t& write_offset() noexcept { return write_offset_; }

  /// Drop `n` fully written bytes from the front of the queue.
  void consume_output(std::size_t n) {
    n += write_offset_;
    write_offset_ = 0;
    while (n > 0 && !outq_.empty()) {
      if (n >= outq_.front().size()) {
        n -= outq_.front().size();
        outq_.pop_front();
      } else {
        write_offset_ = n;
        return;
      }
    }
  }

  // --- connection-scoped flags (reactor-managed) --------------------------

  /// HTTP carve-out: a "GET "/"HEAD " request line flips the connection into
  /// single-shot HTTP mode (headers swallowed, one response, then close).
  bool http_mode = false;
  std::string http_method;
  std::string http_path;
  /// Read no more from the socket; answer the complete lines already
  /// buffered, then close once the write queue drains (peer half-close,
  /// HTTP Connection: close, graceful drain).
  bool close_after_flush = false;
  /// EPOLLIN currently armed (off at the pipeline cap and once closing).
  bool want_read = true;
  /// EPOLLOUT currently armed (a prior write hit EAGAIN).
  bool want_write = false;
  /// fd closed and connection unlinked; the object survives in the shard's
  /// graveyard until the current epoll batch finishes, because a later
  /// event in the same batch may still carry this pointer.
  bool dead = false;

 private:
  int fd_;
  std::uint64_t id_;
  std::size_t shard_;

  std::string rbuf_;
  std::size_t scan_ = 0;  ///< newline scan resumes here (slowloris-proof)
  bool overlong_ = false;

  std::deque<std::string> outq_;
  std::size_t write_offset_ = 0;
};

}  // namespace ef::serve
