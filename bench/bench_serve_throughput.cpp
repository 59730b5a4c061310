// bench_serve_throughput — load generator for the serving stack.
//
// Two modes:
//
//   in-process (default): drives ForecastService directly (no sockets: this
//   measures the serving machinery — validation, cache, match — not the
//   kernel's TCP stack) with N client threads issuing blocking predicts over
//   a pool of probe windows.
//
//   --tcp: open-loop multi-connection load against an in-process epoll
//   Reactor. Worker threads own non-blocking pipelined connections; a token
//   bucket issues requests at the offered --rate regardless of response
//   progress (so queueing delay is *measured*, not absorbed, the way a
//   closed-loop driver would). Latencies are taken from scheduled-send to
//   response arrival, matched per connection in request order (the protocol
//   guarantees in-order responses). Reports throughput, quantiles and a
//   log2 latency histogram; --bench-json writes the machine-readable
//   summary CI gates with scripts/check_serve_bench.py (BENCH_serve.json).
//
// A --reload-every-ms flag hot-swaps the model mid-load in either mode to
// demonstrate the RCU reload contract: every request must still succeed.
//
// Flags (both modes):
//   --window D           window length                    (default 6)
//   --rules R            synthetic rule count             (default 64)
//   --unique N           distinct probe windows (cache hit rate ~ 1-N/total)
//   --horizon H          steps ahead                      (default 1)
//   --no-cache           disable the prediction cache
//   --reload-every-ms N  hot-swap the model every N ms    (default 0 = off)
//   --seed S             probe/rule RNG seed              (default 1)
//   --bench-json PATH    write the load-test summary as JSON
// In-process mode:
//   --clients N          concurrent client threads        (default 4)
//   --requests N         requests per client              (default 25000)
//   --metrics-json PATH  write the obs run report as JSON
//   --trace-out PATH     write the request timeline as Chrome trace JSON
//   --report             print the obs table at exit
// TCP mode:
//   --tcp                enable the open-loop socket mode
//   --connections N      pipelined connections            (default 64)
//   --rate R             offered load, req/s, 0 = closed-loop saturation
//                        at --pipeline depth               (default 0)
//   --pipeline N         per-connection in-flight cap      (default 32)
//   --duration-s S       measurement window                (default 5)
//   --io-threads K       client worker threads             (default 2)
//   --reactors N         server reactor shards             (default 0 = auto)
//   --p99-slo-us N       exit non-zero when p99 exceeds N  (default 0 = off)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "core/interval.hpp"
#include "core/rule.hpp"
#include "core/rule_system.hpp"
#include "obs/export.hpp"
#include "obs/timeline.hpp"
#include "obs/timeline_export.hpp"
#include "serve/model_store.hpp"
#include "serve/reactor.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

#if defined(__linux__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using ef::core::Interval;
using ef::core::Rule;
using ef::core::RuleSystem;

/// Synthetic rule set over [0,1]^window: random boxes (some wildcard genes)
/// with random hyperplanes. Deterministic in `seed` so baselines compare.
RuleSystem synthetic_system(std::size_t rules, std::size_t window, std::uint64_t seed) {
  ef::util::Rng rng(seed);
  std::vector<Rule> out;
  out.reserve(rules);
  for (std::size_t r = 0; r < rules; ++r) {
    std::vector<Interval> genes;
    genes.reserve(window);
    for (std::size_t g = 0; g < window; ++g) {
      if (rng.uniform(0.0, 1.0) < 0.3) {
        genes.emplace_back(Interval::wildcard());
      } else {
        const double lo = rng.uniform(0.0, 0.7);
        genes.emplace_back(lo, lo + rng.uniform(0.2, 0.3));
      }
    }
    Rule rule(std::move(genes));
    ef::core::PredictingPart part;
    part.fit.coeffs.reserve(window + 1);
    for (std::size_t c = 0; c <= window; ++c) {
      part.fit.coeffs.push_back(rng.uniform(-0.3, 0.3));
    }
    part.fit.mean_prediction = part.fit.coeffs.back();
    part.fit.max_abs_residual = rng.uniform(0.01, 0.1);
    part.matches = 10;
    part.fitness = rng.uniform(0.5, 5.0);
    rule.set_predicting(part);
    out.push_back(std::move(rule));
  }
  RuleSystem system;
  system.add_rules(std::move(out), /*discard_unfit=*/false, /*f_min=*/-1.0);
  return system;
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

/// Shared run summary, written by whichever mode ran.
struct Summary {
  std::string mode;
  std::size_t connections = 0;
  double offered_rps = 0.0;  // 0 = closed loop
  std::size_t requests = 0;
  double elapsed_s = 0.0;
  std::size_t ok = 0;
  std::size_t abstained = 0;
  std::size_t failed = 0;
  std::vector<double> latencies_us;  // sorted by the writer
};

bool write_bench_json(const std::string& path, const Summary& s) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double achieved =
      s.elapsed_s > 0 ? static_cast<double>(s.requests) / s.elapsed_s : 0.0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", s.mode.c_str());
  std::fprintf(f,
               "  \"config\": {\"connections\": %zu, \"offered_rps\": %.1f},\n",
               s.connections, s.offered_rps);
  std::fprintf(f,
               "  \"throughput\": {\"requests\": %zu, \"elapsed_s\": %.3f, "
               "\"achieved_rps\": %.1f},\n",
               s.requests, s.elapsed_s, achieved);
  std::fprintf(f,
               "  \"outcomes\": {\"ok\": %zu, \"abstained\": %zu, \"failed\": %zu},\n",
               s.ok, s.abstained, s.failed);
  std::fprintf(f,
               "  \"latency_us\": {\"p50\": %.2f, \"p90\": %.2f, \"p99\": %.2f, "
               "\"p999\": %.2f, \"max\": %.2f},\n",
               quantile(s.latencies_us, 0.50), quantile(s.latencies_us, 0.90),
               quantile(s.latencies_us, 0.99), quantile(s.latencies_us, 0.999),
               s.latencies_us.empty() ? 0.0 : s.latencies_us.back());
  // log2 histogram, 1us .. 2^20us, then +inf — same shape the obs registry
  // uses, so dashboards can overlay the two.
  std::fprintf(f, "  \"histogram_us\": [");
  double le = 1.0;
  std::size_t covered = 0;
  for (int b = 0; b <= 20; ++b, le *= 2.0) {
    const auto it = std::upper_bound(s.latencies_us.begin(), s.latencies_us.end(), le);
    const auto cum = static_cast<std::size_t>(it - s.latencies_us.begin());
    std::fprintf(f, "%s{\"le\": %.0f, \"count\": %zu}", b ? ", " : "", le, cum - covered);
    covered = cum;
  }
  std::fprintf(f, ", {\"le\": \"inf\", \"count\": %zu}]\n",
               s.latencies_us.size() - covered);
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

void print_summary(const Summary& s) {
  std::printf("  throughput : %10.0f req/s (%zu requests in %.2fs%s)\n",
              s.elapsed_s > 0 ? static_cast<double>(s.requests) / s.elapsed_s : 0.0,
              s.requests, s.elapsed_s,
              s.offered_rps > 0
                  ? (", offered " + std::to_string(static_cast<long>(s.offered_rps)) +
                     " req/s")
                        .c_str()
                  : "");
  std::printf("  latency    : p50 %8.1f us   p90 %8.1f us   p99 %8.1f us   max %8.1f us\n",
              quantile(s.latencies_us, 0.50), quantile(s.latencies_us, 0.90),
              quantile(s.latencies_us, 0.99),
              s.latencies_us.empty() ? 0.0 : s.latencies_us.back());
  std::printf("  outcomes   : ok %zu   abstained %zu (%.1f%%)   failed %zu\n", s.ok,
              s.abstained,
              s.requests ? 100.0 * static_cast<double>(s.abstained) /
                               static_cast<double>(s.requests)
                         : 0.0,
              s.failed);
}

#if defined(__linux__)

/// One non-blocking pipelined connection owned by a TCP-mode worker.
struct BenchConn {
  int fd = -1;
  std::string out;              ///< bytes not yet accepted by the socket
  std::string in;               ///< bytes not yet framed into lines
  std::deque<double> inflight;  ///< scheduled-send stamps, request order
};

struct TcpWorkerResult {
  std::size_t ok = 0;
  std::size_t abstained = 0;
  std::size_t failed = 0;
  std::vector<double> latencies_us;
};

double now_us(std::chrono::steady_clock::time_point epoch) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   epoch)
      .count();
}

int connect_nonblocking(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Drain socket progress for one connection: push pending output, pull and
/// frame responses, record latencies. Returns false on connection failure.
bool pump(BenchConn& conn, TcpWorkerResult& result,
          std::chrono::steady_clock::time_point epoch) {
  while (!conn.out.empty()) {
    const auto n = ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out.erase(0, static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return false;
    }
  }
  for (;;) {
    char chunk[16384];
    const auto n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.in.append(chunk, static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return false;
    }
  }
  std::size_t start = 0;
  for (;;) {
    const std::size_t newline = conn.in.find('\n', start);
    if (newline == std::string::npos) break;
    const std::string_view line(conn.in.data() + start, newline - start);
    start = newline + 1;
    if (conn.inflight.empty()) return false;  // unsolicited response
    result.latencies_us.push_back(now_us(epoch) - conn.inflight.front());
    conn.inflight.pop_front();
    if (line.find("\"ok\":true") == std::string_view::npos) {
      ++result.failed;
    } else if (line.find("\"abstain\":true") != std::string_view::npos) {
      ++result.abstained;
      ++result.ok;
    } else {
      ++result.ok;
    }
  }
  conn.in.erase(0, start);
  return true;
}

#endif  // defined(__linux__)

}  // namespace

int main(int argc, char** argv) {
  const ef::util::Cli cli(argc, argv);
  const auto window = static_cast<std::size_t>(cli.get_int("window", 6));
  const auto rules = static_cast<std::size_t>(cli.get_int("rules", 64));
  const auto unique = static_cast<std::size_t>(cli.get_int("unique", 512));
  const auto horizon = static_cast<std::size_t>(cli.get_int("horizon", 1));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto reload_every_ms = cli.get_int("reload-every-ms", 0);
  const std::string bench_json = cli.get_string("bench-json", "");
  const std::string trace_out = cli.get_string("trace-out", "");
  if (!trace_out.empty() && !ef::obs::Timeline::enabled()) {
    ef::obs::Timeline::set_sample_rate(1.0);
  }

  ef::serve::ModelStore store;
  store.add_system("bench", synthetic_system(rules, window, seed));

  ef::serve::ServeOptions options;
  options.enable_cache = !cli.get_bool("no-cache");
  options.port = 0;  // ephemeral (TCP mode)
  options.reactor_threads = static_cast<std::size_t>(cli.get_int("reactors", 0));
  ef::serve::ForecastService service(store, options);

  // Probe pool: windows in a slightly enlarged range so a realistic fraction
  // of requests abstain (uncovered regions answer explicitly, per the paper).
  ef::util::Rng rng(seed + 1);
  std::vector<std::vector<double>> probes(unique);
  for (auto& probe : probes) {
    probe.reserve(window);
    for (std::size_t i = 0; i < window; ++i) probe.push_back(rng.uniform(-0.1, 1.1));
  }

  std::atomic<bool> reloading{reload_every_ms > 0};
  std::thread reloader;
  if (reload_every_ms > 0) {
    reloader = std::thread([&] {
      std::uint64_t generation = 1;
      while (reloading.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(reload_every_ms));
        store.add_system("bench", synthetic_system(rules, window, seed + generation++));
      }
    });
  }
  const auto stop_reloader = [&] {
    if (reloader.joinable()) {
      reloading = false;
      reloader.join();
    }
  };

  Summary summary;

  if (cli.get_bool("tcp")) {
#if !defined(__linux__)
    std::fprintf(stderr, "bench_serve_throughput: --tcp requires Linux (epoll)\n");
    return 1;
#else
    const auto connections = static_cast<std::size_t>(cli.get_int("connections", 64));
    const double rate = cli.get_double("rate", 0.0);
    const auto pipeline = static_cast<std::size_t>(cli.get_int("pipeline", 32));
    const double duration_s = cli.get_double("duration-s", 5.0);
    const auto io_threads =
        std::min<std::size_t>(static_cast<std::size_t>(cli.get_int("io-threads", 2)),
                              connections);

    ef::serve::Reactor reactor(service);
    reactor.start();
    const std::uint16_t port = reactor.port();

    // Pre-render request lines (the probe pool cycled) so the hot loop only
    // appends strings.
    std::vector<std::string> lines(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      std::string& line = lines[i];
      line = R"({"model":"bench","horizon":)" + std::to_string(horizon) +
             R"(,"window":[)";
      for (std::size_t v = 0; v < probes[i].size(); ++v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.6f", v ? "," : "", probes[i][v]);
        line += buf;
      }
      line += "]}\n";
    }

    std::vector<TcpWorkerResult> results(io_threads);
    std::atomic<bool> connect_failed{false};
    const auto epoch = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < io_threads; ++w) {
      workers.emplace_back([&, w] {
        TcpWorkerResult& result = results[w];
        const std::size_t mine =
            connections / io_threads + (w < connections % io_threads ? 1 : 0);
        std::vector<BenchConn> conns(mine);
        std::vector<pollfd> pfds(mine);
        for (auto& conn : conns) {
          conn.fd = connect_nonblocking(port);
          if (conn.fd < 0) {
            connect_failed = true;
            return;
          }
        }
        // Per-worker token bucket; 0 rate = closed loop at `pipeline` depth.
        const double worker_rate = rate / static_cast<double>(io_threads);
        double tokens = 0.0;
        double last = now_us(epoch);
        const double deadline_us = duration_s * 1e6;
        std::size_t rr = 0;
        std::size_t probe = w;  // offset workers so caches overlap realistically
        bool issuing = true;
        while (true) {
          const double t = now_us(epoch);
          if (issuing && t >= deadline_us) issuing = false;
          if (issuing) {
            if (rate > 0) {
              tokens = std::min(tokens + (t - last) * 1e-6 * worker_rate,
                                std::max(1.0, worker_rate * 0.01));
              last = t;
              while (tokens >= 1.0) {
                BenchConn& conn = conns[rr++ % conns.size()];
                tokens -= 1.0;
                if (conn.inflight.size() >= pipeline) continue;  // token spent: overload
                conn.out += lines[probe++ % lines.size()];
                conn.inflight.push_back(t);
              }
            } else {
              last = t;
              for (auto& conn : conns) {
                while (conn.inflight.size() < pipeline) {
                  conn.out += lines[probe++ % lines.size()];
                  conn.inflight.push_back(now_us(epoch));
                }
              }
            }
          }
          bool pending = false;
          for (std::size_t i = 0; i < conns.size(); ++i) {
            if (conns[i].fd < 0) continue;
            if (!pump(conns[i], result, epoch)) {
              result.failed += conns[i].inflight.size();
              ::close(conns[i].fd);
              conns[i].fd = -1;
              continue;
            }
            if (!conns[i].inflight.empty() || !conns[i].out.empty()) pending = true;
          }
          if (!issuing && !pending) break;
          if (!issuing && t > deadline_us + 5e6) {  // 5s drain grace
            for (auto& conn : conns) result.failed += conn.inflight.size();
            break;
          }
          // Block briefly on readability instead of spinning.
          std::size_t n = 0;
          for (const auto& conn : conns) {
            if (conn.fd < 0) continue;
            pfds[n++] = pollfd{conn.fd, static_cast<short>(POLLIN), 0};
          }
          if (n == 0) break;
          ::poll(pfds.data(), n, 1);
        }
        for (auto& conn : conns) {
          if (conn.fd >= 0) ::close(conn.fd);
        }
      });
    }
    for (auto& worker : workers) worker.join();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
    stop_reloader();
    reactor.stop();

    if (connect_failed.load()) {
      std::fprintf(stderr, "bench_serve_throughput: loopback connect failed\n");
      return 1;
    }

    summary.mode = "tcp_open_loop";
    summary.connections = connections;
    summary.offered_rps = rate;
    summary.elapsed_s = elapsed;
    for (auto& result : results) {
      summary.ok += result.ok;
      summary.abstained += result.abstained;
      summary.failed += result.failed;
      summary.latencies_us.insert(summary.latencies_us.end(),
                                  result.latencies_us.begin(),
                                  result.latencies_us.end());
    }
    summary.requests = summary.ok + summary.failed;
    std::sort(summary.latencies_us.begin(), summary.latencies_us.end());

    std::printf("bench_serve_throughput: tcp open-loop, %zu connections x pipeline %zu "
                "over %zu io threads, %zu reactor shards (window %zu, rules %zu, "
                "cache %s%s)\n",
                connections, pipeline, io_threads, reactor.shard_count(), window, rules,
                options.enable_cache ? "on" : "off",
                reload_every_ms > 0 ? ", hot-reload on" : "");
    print_summary(summary);
#endif
  } else {
    const auto clients = static_cast<std::size_t>(cli.get_int("clients", 4));
    const auto requests = static_cast<std::size_t>(cli.get_int("requests", 25000));

    std::atomic<std::size_t> ok{0};
    std::atomic<std::size_t> abstained{0};
    std::atomic<std::size_t> failed{0};
    std::vector<std::vector<double>> latencies_us(clients);

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        auto& lat = latencies_us[c];
        lat.reserve(requests);
        ef::serve::PredictRequest req;
        req.model = "bench";
        req.horizon = horizon;
        for (std::size_t i = 0; i < requests; ++i) {
          req.window = probes[(c * 7919 + i) % probes.size()];
          const auto t0 = std::chrono::steady_clock::now();
          const auto response = service.predict(req);
          lat.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
          if (!response.ok) {
            ++failed;
          } else if (response.abstain) {
            ++abstained;
            ++ok;
          } else {
            ++ok;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    stop_reloader();

    summary.mode = "in_process";
    summary.connections = clients;
    summary.elapsed_s = elapsed;
    summary.requests = clients * requests;
    summary.ok = ok.load();
    summary.abstained = abstained.load();
    summary.failed = failed.load();
    for (const auto& lat : latencies_us) {
      summary.latencies_us.insert(summary.latencies_us.end(), lat.begin(), lat.end());
    }
    std::sort(summary.latencies_us.begin(), summary.latencies_us.end());

    const auto cache = service.cache_stats();
    const double hit_rate =
        cache.hits + cache.misses == 0
            ? 0.0
            : static_cast<double>(cache.hits) /
                  static_cast<double>(cache.hits + cache.misses);

    std::printf("bench_serve_throughput: %zu clients x %zu requests (window %zu, "
                "rules %zu, horizon %zu, cache %s%s)\n",
                clients, requests, window, rules, horizon,
                options.enable_cache ? "on" : "off",
                reload_every_ms > 0 ? ", hot-reload on" : "");
    print_summary(summary);
    std::printf("  cache      : hits %llu   misses %llu   evictions %llu   "
                "hit rate %.1f%%\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.evictions), 100.0 * hit_rate);

    if (const auto path = cli.get("metrics-json")) {
      ef::obs::write_json_file(*path);
      std::printf("  metrics    : wrote %s\n", path->c_str());
    }
    if (!trace_out.empty()) {
      if (ef::obs::write_chrome_trace_file(trace_out)) {
        std::printf("  trace      : wrote %s\n", trace_out.c_str());
      } else {
        std::fprintf(stderr, "bench_serve_throughput: cannot write '%s'\n",
                     trace_out.c_str());
        return 1;
      }
    }
    if (cli.get_bool("report")) ef::obs::print_report();
  }

  if (!bench_json.empty()) {
    if (!write_bench_json(bench_json, summary)) {
      std::fprintf(stderr, "bench_serve_throughput: cannot write '%s'\n",
                   bench_json.c_str());
      return 1;
    }
    std::printf("  bench json : wrote %s\n", bench_json.c_str());
  }

  const double slo_us = cli.get_double("p99-slo-us", 0.0);
  if (slo_us > 0.0) {
    const double p99 = quantile(summary.latencies_us, 0.99);
    if (p99 > slo_us) {
      std::fprintf(stderr, "bench_serve_throughput: p99 %.1f us exceeds SLO %.1f us\n",
                   p99, slo_us);
      return 1;
    }
    std::printf("  slo        : p99 %.1f us within %.1f us\n", p99, slo_us);
  }

  return summary.failed == 0 ? 0 : 1;
}
