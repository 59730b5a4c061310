#include "serve/reactor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/exposition.hpp"
#include "obs/macros.hpp"
#include "serve/verbs.hpp"

#if defined(__linux__)
#define EVOFORECAST_HAVE_EPOLL 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>
#else
#define EVOFORECAST_HAVE_EPOLL 0
#endif

namespace ef::serve {

namespace {

#if EVOFORECAST_HAVE_EPOLL
/// epoll_event.data.ptr sentinels for the two non-connection fds a shard
/// watches. Real Connection pointers are always aligned, so low small
/// integers can never collide.
void* const kListenTag = reinterpret_cast<void*>(0x1);
void* const kWakeTag = reinterpret_cast<void*>(0x2);
#endif

}  // namespace

/// One reactor shard: an epoll loop plus everything it owns. Only the
/// accept-handoff inbox is shared — under `mutex`.
struct Reactor::Shard {
  std::size_t index = 0;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
  /// Connections closed mid-batch park here (see Connection::dead); freed
  /// once the current epoll batch is fully dispatched.
  std::vector<std::unique_ptr<Connection>> graveyard;
  bool drain_entered = false;
  std::chrono::steady_clock::time_point drain_deadline{};
  /// Listener parked after EMFILE/ENFILE (shard 0 only): with level-triggered
  /// epoll the listen fd would stay readable and spin the loop at 100% CPU,
  /// so it leaves the epoll set until `listener_resume`.
  bool listener_paused = false;
  std::chrono::steady_clock::time_point listener_resume{};

  // Accept-handoff inbox. `closed` flips (under the mutex) when the loop has
  // exited and the fds are about to close — a late handoff checks it and
  // closes the accepted socket instead of queueing it on a dead shard.
  std::mutex mutex;
  bool closed = false;
  std::vector<int> pending_fds;

  // Per-reactor counters (serve.reactor.<i>.*). Null when observability is
  // compiled out — bump() is then a no-op and nothing registers.
  obs::Counter* accepted = nullptr;
  obs::Counter* requests = nullptr;
  obs::Counter* wakeups = nullptr;
  obs::Counter* partial_writes = nullptr;
  void register_counters() {
#if EVOFORECAST_OBS_ENABLED
    const std::string prefix = "serve.reactor." + std::to_string(index) + ".";
    auto& reg = obs::Registry::global();
    accepted = &reg.counter(prefix + "accepted");
    requests = &reg.counter(prefix + "requests");
    wakeups = &reg.counter(prefix + "wakeups");
    partial_writes = &reg.counter(prefix + "partial_writes");
#endif
  }
  static void bump(obs::Counter* c, std::uint64_t d = 1) {
    if (c != nullptr) c->add(d);
  }
};

Reactor::Reactor(ForecastService& service)
    : service_(service), options_(service.options()) {}

Reactor::~Reactor() { stop(); }

bool Reactor::running() const noexcept {
  return running_.load(std::memory_order_acquire);
}

std::uint64_t Reactor::connections_served() const noexcept {
  return connections_.load(std::memory_order_relaxed);
}

#if EVOFORECAST_HAVE_EPOLL

void Reactor::start() {
  if (running()) return;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("Reactor: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Reactor: bad host '" + options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Reactor: cannot bind " + options_.host + ":" +
                             std::to_string(options_.port));
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Reactor: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }

  std::size_t n = options_.reactor_threads;
  if (n == 0) {
    n = std::min<std::size_t>(std::max(1u, std::thread::hardware_concurrency()), 4);
  }

  shards_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    shard->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (shard->epoll_fd < 0 || shard->wake_fd < 0) {
      throw std::runtime_error("Reactor: epoll/eventfd setup failed");
    }
    epoll_event wake{};
    wake.events = EPOLLIN;
    wake.data.ptr = kWakeTag;
    ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->wake_fd, &wake);
    if (i == 0) {
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.ptr = kListenTag;
      ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &lev);
    }
    shard->register_counters();
    shards_.push_back(std::move(shard));
  }

  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->thread = std::thread([this, raw] { shard_loop(*raw); });
  }
}

void Reactor::stop() {
  const bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  draining_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    const std::lock_guard lock(shard->mutex);
    if (!shard->closed && shard->wake_fd >= 0) {
      std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t w = ::write(shard->wake_fd, &one, sizeof(one));
    }
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
    const std::lock_guard lock(shard->mutex);
    shard->closed = true;
    if (shard->epoll_fd >= 0) ::close(shard->epoll_fd);
    if (shard->wake_fd >= 0) ::close(shard->wake_fd);
    shard->epoll_fd = -1;
    shard->wake_fd = -1;
    for (int fd : shard->pending_fds) ::close(fd);
    shard->pending_fds.clear();
    // A loop that exited through the epoll_wait error path never ran
    // close_connection on its survivors — their sockets are still open.
    for (auto& [id, conn] : shard->conns) {
      if (!conn->dead) ::close(conn->fd());
    }
    shard->conns.clear();
    shard->graveyard.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  (void)was_running;
}

void Reactor::enter_drain(Shard& shard) {
  shard.drain_entered = true;
  shard.drain_deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(std::max(0, options_.drain_timeout_ms));
  if (shard.index == 0 && listen_fd_ >= 0) {
    ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
  }
  // Stop reading, answer what is already buffered, close whoever is idle.
  std::vector<Connection*> conns;
  conns.reserve(shard.conns.size());
  for (auto& [id, conn] : shard.conns) conns.push_back(conn.get());
  for (Connection* conn : conns) {
    conn->close_after_flush = true;
    process_lines(shard, conn);
    flush(shard, conn);  // disarms reading; closes the connection once idle
  }
}

void Reactor::shard_loop(Shard& shard) {
  epoll_event events[64];
  for (;;) {
    if (draining_.load(std::memory_order_acquire) && !shard.drain_entered) {
      enter_drain(shard);
    }
    if (shard.drain_entered && shard.conns.empty()) break;

    int timeout_ms = -1;
    if (shard.drain_entered) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= shard.drain_deadline) {
        // Drain budget blown: force-close the stragglers.
        std::vector<Connection*> conns;
        conns.reserve(shard.conns.size());
        for (auto& [id, conn] : shard.conns) conns.push_back(conn.get());
        for (Connection* conn : conns) close_connection(shard, conn);
        break;
      }
      timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(shard.drain_deadline - now)
              .count() +
          1);
    }
    if (shard.listener_paused) {
      if (shard.drain_entered) {
        shard.listener_paused = false;  // draining: stay out of the epoll set
      } else {
        const auto now = std::chrono::steady_clock::now();
        if (now >= shard.listener_resume) {
          epoll_event lev{};
          lev.events = EPOLLIN;
          lev.data.ptr = kListenTag;
          ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, listen_fd_, &lev);
          shard.listener_paused = false;
        } else {
          const int wait_ms = static_cast<int>(
              std::chrono::duration_cast<std::chrono::milliseconds>(shard.listener_resume -
                                                                    now)
                  .count() +
              1);
          timeout_ms = timeout_ms < 0 ? wait_ms : std::min(timeout_ms, wait_ms);
        }
      }
    }

    const int n = ::epoll_wait(shard.epoll_fd, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd broken — unrecoverable for this shard
    }
    Shard::bump(shard.wakeups);
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.ptr == kListenTag) {
        handle_accept(shard);
        continue;
      }
      if (ev.data.ptr == kWakeTag) {
        std::uint64_t drainv = 0;
        while (::read(shard.wake_fd, &drainv, sizeof(drainv)) > 0) {
        }
        drain_inbox(shard);
        continue;
      }
      Connection* conn = static_cast<Connection*>(ev.data.ptr);
      if (conn->dead) continue;  // closed earlier in this batch; freed below
      if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0 && (ev.events & EPOLLIN) == 0) {
        close_connection(shard, conn);
        continue;
      }
      if ((ev.events & EPOLLIN) != 0) {
        handle_readable(shard, conn);
        continue;  // handle_readable flushed (and may have closed) the conn
      }
      if ((ev.events & EPOLLOUT) != 0) flush(shard, conn);
    }
    // Batch fully dispatched: no stale epoll_event can still point at a
    // closed connection, so the graveyard is safe to free.
    shard.graveyard.clear();
  }
  // Loop exited: mark the shard closed so a late accept handoff closes its
  // socket instead of queueing it here.
  const std::lock_guard lock(shard.mutex);
  shard.closed = true;
}

void Reactor::handle_accept(Shard& shard) {
  for (;;) {
    const int client = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        // Out of fds/memory: the pending connection stays in the backlog, so
        // with level-triggered epoll this fd reports readable forever. Park
        // the listener and retry once resources may have freed up.
        ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
        shard.listener_paused = true;
        shard.listener_resume =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
        EVOFORECAST_COUNT("serve.accept_stalls", 1);
        EVOFORECAST_EVENT("serve.accept_stall", {"errno", errno});
        break;
      }
      break;  // EAGAIN (drained) or transient failure
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(client);
      continue;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    EVOFORECAST_COUNT("serve.connections", 1);
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(client, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }
    const std::size_t target =
        rr_next_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
    if (target == shard.index) {
      adopt(shard, client);
      continue;
    }
    Shard& other = *shards_[target];
    {
      const std::lock_guard lock(other.mutex);
      if (other.closed) {
        ::close(client);
        continue;
      }
      other.pending_fds.push_back(client);
      std::uint64_t wake = 1;
      [[maybe_unused]] const ssize_t w = ::write(other.wake_fd, &wake, sizeof(wake));
    }
  }
}

void Reactor::adopt(Shard& shard, int fd) {
  const std::uint64_t id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  auto conn = std::make_unique<Connection>(fd, id, shard.index);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = conn.get();
  if (::epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  Shard::bump(shard.accepted);
  shard.conns.emplace(id, std::move(conn));
}

void Reactor::drain_inbox(Shard& shard) {
  std::vector<int> fds;
  {
    const std::lock_guard lock(shard.mutex);
    fds.swap(shard.pending_fds);
  }
  for (const int fd : fds) {
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
    } else {
      adopt(shard, fd);
    }
  }
}

void Reactor::handle_readable(Shard& shard, Connection* conn) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(conn->fd(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->append(chunk, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(chunk))) break;  // socket drained
      continue;
    }
    if (n == 0) {
      // Peer finished sending. Answer everything received, then close once
      // the write queue drains (flush disarms reading).
      conn->close_after_flush = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(shard, conn);
    return;
  }
  process_lines(shard, conn);
  flush(shard, conn);
}

void Reactor::process_lines(Shard& shard, Connection* conn) {
  // Stops at the pipeline cap: further lines wait in the read buffer (and
  // the socket) until flush() drains the write queue below it.
  while (conn->queued() < options_.max_pipeline) {
    std::optional<std::string> line = conn->next_line(options_.max_line_bytes);
    if (!line) return;
    if (conn->take_overlong()) {
      conn->respond(error_json(ErrorCode::kLineTooLong, "request line too long") + "\n");
      continue;
    }
    if (conn->http_mode) {
      if (!line->empty()) continue;  // header line; swallow
      // Blank line ends the headers: answer and close (Connection: close).
      conn->respond(handle_http(conn->http_method, conn->http_path));
      conn->close_after_flush = true;
      conn->discard_input();
      return;
    }
    if (line->empty()) continue;
    if (line->rfind("GET ", 0) == 0 || line->rfind("HEAD ", 0) == 0) {
      const std::size_t space = line->find(' ');
      const std::size_t path_end = line->find(' ', space + 1);
      conn->http_method = line->substr(0, space);
      conn->http_path = line->substr(
          space + 1, path_end == std::string::npos ? std::string::npos
                                                   : path_end - space - 1);
      conn->http_mode = true;
      continue;
    }
    Shard::bump(shard.requests);
    std::string reply = handle_line(service_, *line, connections_served());
    reply.push_back('\n');
    conn->respond(std::move(reply));
  }
}

bool Reactor::flush(Shard& shard, Connection* conn) {
  bool blocked = false;  // send buffer full; EPOLLOUT resumes the write
  while (!blocked) {
    if (!conn->has_output()) {
      // Queue drained: answer the lines that waited in the read buffer on the
      // pipeline cap. This loop is the only way back into process_lines,
      // which never flushes, so a deep pipeline costs iterations, not stack
      // frames.
      if (!conn->has_buffered_input()) break;
      process_lines(shard, conn);
      if (!conn->has_output()) break;  // only a partial line is buffered
    }
    iovec iov[16];
    int count = 0;
    std::size_t total = 0;
    for (const std::string& s : conn->output()) {
      if (count == 16) break;
      const char* base = s.data();
      std::size_t len = s.size();
      if (count == 0) {
        base += conn->write_offset();
        len -= conn->write_offset();
      }
      iov[count].iov_base = const_cast<char*>(base);
      iov[count].iov_len = len;
      total += len;
      ++count;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(count);
    const ssize_t w = ::sendmsg(conn->fd(), &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        Shard::bump(shard.partial_writes);
        blocked = true;
        break;
      }
      close_connection(shard, conn);
      return false;
    }
    conn->consume_output(static_cast<std::size_t>(w));
    if (static_cast<std::size_t>(w) < total) Shard::bump(shard.partial_writes);
  }
  if (conn->close_after_flush && !conn->has_output()) {
    close_connection(shard, conn);
    return false;
  }
  const bool want_read = !conn->close_after_flush && conn->queued() < options_.max_pipeline;
  if (want_read != conn->want_read || blocked != conn->want_write) {
    conn->want_read = want_read;
    conn->want_write = blocked;
    update_interest(shard, conn);
  }
  return true;
}

void Reactor::close_connection(Shard& shard, Connection* conn) {
  if (conn->dead) return;  // already closed earlier in this event batch
  conn->dead = true;
  ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_DEL, conn->fd(), nullptr);
  ::close(conn->fd());
  // Defer the delete to the end of the current epoll batch: the kernel
  // delivers EPOLLHUP/EPOLLERR regardless of the interest mask, so a later
  // events[] entry from the same epoll_wait may still hold this pointer.
  const auto it = shard.conns.find(conn->id());
  if (it != shard.conns.end()) {
    shard.graveyard.push_back(std::move(it->second));
    shard.conns.erase(it);
  }
}

void Reactor::update_interest(Shard& shard, Connection* conn) {
  epoll_event ev{};
  ev.events = 0;
  if (conn->want_read) ev.events |= EPOLLIN;
  if (conn->want_write) ev.events |= EPOLLOUT;
  ev.data.ptr = conn;
  ::epoll_ctl(shard.epoll_fd, EPOLL_CTL_MOD, conn->fd(), &ev);
}

#else  // !EVOFORECAST_HAVE_EPOLL

void Reactor::start() {
  throw std::runtime_error("Reactor: epoll is Linux-only; no transport on this platform");
}
void Reactor::stop() {}
void Reactor::enter_drain(Shard&) {}
void Reactor::shard_loop(Shard&) {}
void Reactor::handle_accept(Shard&) {}
void Reactor::adopt(Shard&, int) {}
void Reactor::drain_inbox(Shard&) {}
void Reactor::handle_readable(Shard&, Connection*) {}
void Reactor::process_lines(Shard&, Connection*) {}
bool Reactor::flush(Shard&, Connection*) { return false; }
void Reactor::close_connection(Shard&, Connection*) {}
void Reactor::update_interest(Shard&, Connection*) {}

#endif  // EVOFORECAST_HAVE_EPOLL

std::string Reactor::handle_http(std::string_view method, std::string_view path) {
  const std::string_view bare_path = path.substr(0, path.find('?'));
  std::string status = "200 OK";
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  if (bare_path == "/metrics") {
    EVOFORECAST_COUNT("serve.http_scrapes", 1);
    body = obs::prometheus_text();
  } else {
    status = "404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "not found: only /metrics is served here\n";
  }
  std::string out = "HTTP/1.0 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  if (method != "HEAD") out += body;
  return out;
}

}  // namespace ef::serve
