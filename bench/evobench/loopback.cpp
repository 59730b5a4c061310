#include "loopback.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <exception>
#include <latch>
#include <stdexcept>
#include <thread>

#include "common.hpp"

namespace evobench {
namespace {

/// How long after the deadline a phase waits for outstanding replies. An
/// open loop above capacity leaves a backlog the server still answers, so
/// this is generous; requests unanswered after it count as failed.
constexpr double kDrainGraceUs = 20e6;
/// An open-loop worker wakes this long before a send is due, and spins for
/// up to kSpinUs after a send or reply while replies are outstanding, so
/// its own wake-up delays stay out of the latencies of fast replies without
/// burning a core through slow ones.
constexpr double kEarlyWakeUs = 20.0;
constexpr double kSpinUs = 50.0;

/// Owns one client socket.
class Socket {
 public:
  explicit Socket(std::uint16_t port, bool nonblocking) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("loopback: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("loopback: connect to port " + std::to_string(port) +
                               " failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (nonblocking) ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
};

/// One pipelined connection of a worker: unsent bytes, unframed reply bytes
/// and the due times of the requests awaiting replies, in request order.
struct Conn {
  explicit Conn(std::uint16_t port) : socket(port, /*nonblocking=*/true) {}
  Socket socket;
  std::string out;
  std::size_t out_offset = 0;
  std::string in;
  std::deque<double> due_us;
  bool dead = false;
};

/// Push pending output; false when the connection failed.
bool flush(Conn& conn) {
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n = ::send(conn.socket.fd(), conn.out.data() + conn.out_offset,
                             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return true;
    } else {
      return false;
    }
  }
  conn.out.clear();
  conn.out_offset = 0;
  return true;
}

/// Read what is available and hand each complete reply line to `on_reply`.
template <typename OnReply>
bool receive(Conn& conn, OnReply&& on_reply) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.socket.fd(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.in.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) break;
    return false;  // orderly close or error
  }
  std::size_t begin = 0;
  for (;;) {
    const std::size_t newline = conn.in.find('\n', begin);
    if (newline == std::string::npos) break;
    if (conn.due_us.empty()) return false;  // reply to nothing: protocol broken
    const double due = conn.due_us.front();
    conn.due_us.pop_front();
    on_reply(std::string_view(conn.in.data() + begin, newline - begin), due);
    begin = newline + 1;
  }
  conn.in.erase(0, begin);
  return true;
}

[[nodiscard]] bool is_ok(std::string_view reply) {
  return reply.substr(0, 10) == R"({"ok":true)";
}

struct WorkerShared {
  std::uint16_t port;
  const std::vector<std::string>& lines;
  const LoadOptions& options;
  std::latch& connected;
  std::latch& go;
  Clock::time_point epoch;
};

void run_worker(WorkerShared& shared, std::size_t w, LoadResult& result) {
  const LoadOptions& opt = shared.options;
  const std::size_t workers = kIoThreads;
  ::prctl(PR_SET_TIMERSLACK, 1000UL);  // wake within ~1 us of a due time

  std::deque<Conn> conns;
  std::exception_ptr error;
  try {
    for (std::size_t c = w; c < kConnections; c += workers) conns.emplace_back(shared.port);
  } catch (...) {
    error = std::current_exception();
  }
  shared.connected.count_down();
  shared.go.wait();
  if (error) std::rethrow_exception(error);

  const Clock::time_point epoch = shared.epoch;
  const auto now_us = [&] { return micros_between(epoch, Clock::now()); };
  const double deadline_us = opt.seconds * 1e6;
  const double window_us = kWindowSeconds * 1e6;
  const auto window_of = [&](double t) { return static_cast<std::uint32_t>(t / window_us); };
  result.ok_by_window.assign(window_of(deadline_us) + 1, 0);
  const bool open = opt.rate > 0.0;
  std::size_t k = 0;  // this worker's request counter
  const auto due_of = [&](std::size_t i) {
    return static_cast<double>(w + i * workers) / opt.rate * 1e6;
  };
  std::size_t rr = 0;
  double last_activity_us = 0.0;
  const auto enqueue = [&](Conn& conn, double due) {
    const std::size_t global = w + k * workers;
    conn.out += shared.lines[(opt.start + global) % shared.lines.size()];
    conn.due_us.push_back(due);
    ++k;
    ++result.sent;
  };

  bool issuing = true;
  if (!open) {
    for (Conn& conn : conns) {
      for (std::size_t d = 0; d < kDepth; ++d) enqueue(conn, 0.0);
    }
  }
  std::vector<pollfd> pfds(conns.size());
  for (;;) {
    double t = now_us();
    if (issuing && t >= deadline_us) issuing = false;
    if (open && issuing) {
      for (double due = due_of(k); due <= t && due < deadline_us; due = due_of(k)) {
        result.late_us.push_back(t - due);
        enqueue(conns[rr++ % conns.size()], due);
        last_activity_us = t;
      }
    }
    std::size_t outstanding = 0;
    for (Conn& conn : conns) {
      if (conn.dead) continue;
      bool alive = flush(conn);
      if (alive) {
        alive = receive(conn, [&](std::string_view reply, double due) {
          const double at = now_us();
          last_activity_us = at;
          const bool ok = is_ok(reply);
          ok ? ++result.ok : ++result.failed;
          if (open) {
            result.latency_us.push_back(at - due);
            result.latency_window.push_back(window_of(due));
          } else if (at < deadline_us) {
            if (ok) ++result.ok_by_window[window_of(at)];
            if (issuing) enqueue(conn, 0.0);
          }
        });
      }
      if (!alive) {
        conn.dead = true;
        result.failed += conn.due_us.size();
        conn.due_us.clear();
        continue;
      }
      outstanding += conn.due_us.size();
    }
    result.backlog_max = std::max(result.backlog_max, outstanding);
    t = now_us();
    if (!issuing && outstanding == 0) break;
    if (!issuing && t > deadline_us + kDrainGraceUs) {
      result.failed += outstanding;
      break;
    }
    std::size_t n = 0;
    for (const Conn& conn : conns) {
      if (conn.dead) continue;
      short events = POLLIN;
      if (conn.out_offset < conn.out.size()) events |= POLLOUT;
      pfds[n++] = pollfd{conn.socket.fd(), events, 0};
    }
    if (n == 0) break;
    double wait_us = 1000.0;
    if (open && outstanding > 0 && t - last_activity_us < kSpinUs) {
      wait_us = 0.0;
    } else if (open && issuing) {
      wait_us = std::clamp(due_of(k) - t - kEarlyWakeUs, 0.0, 1000.0);
    }
    if (wait_us == 0.0) ::sched_yield();  // spinning: let a woken server thread run here
    const timespec timeout{0, static_cast<long>(wait_us * 1e3)};
    ::ppoll(pfds.data(), n, &timeout, nullptr);
  }
}

}  // namespace

LoadResult drive(std::uint16_t port, const std::vector<std::string>& lines,
                 const LoadOptions& options) {
  if (lines.empty()) throw std::invalid_argument("drive: no request lines");
  std::latch connected(static_cast<std::ptrdiff_t>(kIoThreads));
  std::latch go(1);
  WorkerShared shared{port, lines, options, connected, go, Clock::now()};
  std::vector<LoadResult> results(kIoThreads);
  std::vector<std::exception_ptr> errors(kIoThreads);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kIoThreads; ++w) {
    workers.emplace_back([&, w] {
      try {
        run_worker(shared, w, results[w]);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  connected.wait();
  shared.epoch = Clock::now();
  go.count_down();
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  LoadResult total;
  total.seconds = options.seconds;
  for (LoadResult& r : results) {
    total.sent += r.sent;
    total.ok += r.ok;
    total.failed += r.failed;
    total.ok_by_window.resize(r.ok_by_window.size());
    for (std::size_t i = 0; i < r.ok_by_window.size(); ++i) {
      total.ok_by_window[i] += r.ok_by_window[i];
    }
    total.backlog_max = std::max(total.backlog_max, r.backlog_max);
    total.latency_us.insert(total.latency_us.end(), r.latency_us.begin(), r.latency_us.end());
    total.latency_window.insert(total.latency_window.end(), r.latency_window.begin(),
                                r.latency_window.end());
    total.late_us.insert(total.late_us.end(), r.late_us.begin(), r.late_us.end());
  }
  return total;
}

std::vector<std::string> replies_to(std::uint16_t port, const std::vector<std::string>& lines,
                                  double timeout_s) {
  Conn conn(port);
  std::vector<std::string> replies;
  replies.reserve(lines.size());
  for (const std::string& line : lines) {
    conn.out += line;
    conn.due_us.push_back(0.0);
  }
  const Clock::time_point start = Clock::now();
  while (replies.size() < lines.size() && seconds_since(start) < timeout_s) {
    const bool alive = flush(conn) && receive(conn, [&](std::string_view reply, double) {
                         replies.emplace_back(reply);
                       });
    if (!alive) break;
    pollfd pfd{conn.socket.fd(), static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)),
               0};
    ::poll(&pfd, 1, 10);
  }
  replies.resize(lines.size());
  return replies;
}

std::vector<double> round_trips(std::uint16_t port, const std::vector<std::string>& lines) {
  const Socket socket(port, /*nonblocking=*/false);
  std::vector<double> out;
  out.reserve(lines.size());
  std::string in;
  char chunk[65536];
  for (const std::string& line : lines) {
    const Clock::time_point t0 = Clock::now();
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          ::send(socket.fd(), line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("round_trips: send failed");
      sent += static_cast<std::size_t>(n);
    }
    std::size_t newline = std::string::npos;
    while ((newline = in.find('\n')) == std::string::npos) {
      const ssize_t n = ::recv(socket.fd(), chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("round_trips: connection closed");
      in.append(chunk, static_cast<std::size_t>(n));
    }
    out.push_back(micros_between(t0, Clock::now()));
    in.erase(0, newline + 1);
  }
  return out;
}

}  // namespace evobench
