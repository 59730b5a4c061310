// efstat — live terminal dashboard for a running efserve.
//
//   efstat --port 7777                  # refreshing dashboard, 1 s interval
//   efstat --port 7777 --once --json    # one machine-readable sample
//
// Polls the server over its own JSON-lines protocol: the "metrics" verb
// (Prometheus exposition, parsed into flat name{labels} → value samples)
// plus "models" for the deployed model table and "quality" for the live
// forecast-accuracy panel (rolling RMSE/MAE, interval coverage, abstention
// share, drift state — populated once actuals flow in via "observe"). Rates and latency quantiles
// prefer the server-side windowed series (last ~60 s); when the server has
// not accumulated two collector frames yet, efstat falls back to deltas
// between its own consecutive polls, interpolating quantiles from the
// histogram le-buckets.
//
// Flags:
//   --host A         server address (default 127.0.0.1)
//   --port N         server port (default 7777)
//   --interval-ms N  refresh interval (default 1000)
//   --once           sample once and exit (no screen clearing)
//   --json           emit the sample as one JSON object (implies no screen
//                    clearing; combine with --once for scripting)
//   --trace          fetch the server's request timeline ({"cmd":"trace"})
//                    and print a per-request latency breakdown table
//                    (cache / match / respond), then exit
//   --trace-rows N   max requests shown in --trace mode (default 20)
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "util/cli.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define EFSTAT_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define EFSTAT_HAVE_SOCKETS 0
#endif

namespace {

#if EFSTAT_HAVE_SOCKETS

/// One blocking JSON-lines round trip per request. Reconnects per poll —
/// simple, and the server's thread-per-connection model makes it cheap at
/// dashboard refresh rates.
class Client {
 public:
  Client(std::string host, std::uint16_t port) : host_(std::move(host)), port_(port) {}
  ~Client() { close(); }

  bool connect() {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  std::optional<std::string> request(const std::string& line) {
    if (fd_ < 0 && !connect()) return std::nullopt;
    std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t w = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (w <= 0) {
        close();
        return std::nullopt;
      }
      sent += static_cast<std::size_t>(w);
    }
    std::string response;
    char chunk[4096];
    for (;;) {
      const std::size_t newline = response.find('\n');
      if (newline != std::string::npos) return response.substr(0, newline);
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        close();
        return std::nullopt;
      }
      response.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  std::string host_;
  std::uint16_t port_;
  int fd_ = -1;
};

#endif  // EFSTAT_HAVE_SOCKETS

/// Flat Prometheus sample set: "name" or "name{labels}" → value.
using Samples = std::map<std::string, double>;

/// Parse exposition text: skip comments, split each sample line at the last
/// space. Malformed lines are skipped (scraping keeps working if the server
/// grows new series).
Samples parse_prometheus(const std::string& text) {
  Samples out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    char* parse_end = nullptr;
    double v = std::strtod(value.c_str(), &parse_end);
    if (value == "+Inf") v = HUGE_VAL;
    else if (parse_end == value.c_str()) continue;
    out[key] = v;
  }
  return out;
}

std::optional<double> sample(const Samples& samples, const std::string& key) {
  const auto it = samples.find(key);
  if (it == samples.end()) return std::nullopt;
  return it->second;
}

double sample_or(const Samples& samples, const std::string& key, double fallback) {
  return sample(samples, key).value_or(fallback);
}

/// le-bucket series of one histogram, cumulative counts sorted by bound.
struct Buckets {
  std::vector<double> bounds;  ///< +Inf last
  std::vector<double> counts;  ///< cumulative, same length
};

Buckets histogram_buckets(const Samples& samples, const std::string& base) {
  const std::string prefix = base + "_bucket{le=\"";
  std::vector<std::pair<double, double>> pairs;
  for (auto it = samples.lower_bound(prefix); it != samples.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    const std::string le = it->first.substr(prefix.size(),
                                            it->first.size() - prefix.size() - 2);
    const double bound = le == "+Inf" ? HUGE_VAL : std::strtod(le.c_str(), nullptr);
    pairs.emplace_back(bound, it->second);
  }
  std::sort(pairs.begin(), pairs.end());
  Buckets out;
  for (const auto& [bound, count] : pairs) {
    out.bounds.push_back(bound);
    out.counts.push_back(count);
  }
  return out;
}

/// Quantile by linear interpolation over (possibly delta'd) cumulative
/// buckets — the client-side fallback when the server has no window yet.
double quantile(const Buckets& now, const Buckets* prev, double q) {
  if (now.counts.empty()) return 0.0;
  const bool diff = prev != nullptr && prev->counts.size() == now.counts.size();
  std::vector<double> cum(now.counts.size());
  for (std::size_t i = 0; i < now.counts.size(); ++i) {
    cum[i] = now.counts[i] - (diff ? prev->counts[i] : 0.0);
    if (cum[i] < 0.0) cum[i] = now.counts[i];  // counter reset: take absolute
  }
  const double total = cum.back();
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  double below = 0.0;
  for (std::size_t i = 0; i < cum.size(); ++i) {
    if (cum[i] >= rank) {
      const double lo = i == 0 ? 0.0 : now.bounds[i - 1];
      double hi = now.bounds[i];
      if (std::isinf(hi)) hi = now.bounds.size() > 1 ? now.bounds[now.bounds.size() - 2] : lo;
      const double in_bucket = cum[i] - below;
      const double frac = in_bucket > 0.0 ? (rank - below) / in_bucket : 0.0;
      return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
    }
    below = cum[i];
  }
  return 0.0;
}

struct ModelRow {
  std::string name;
  double version = 0;
  double rules = 0;
  double window = 0;
};

/// One tracked model from the "quality" verb. Accuracy stats may be null on
/// the wire (nothing matured yet) — the has_* flags carry that through.
struct QualityRow {
  std::string model;
  double tick = 0;
  double pending = 0;
  double window = 0;
  double rmse = 0;
  double mae = 0;
  double coverage = 0;
  double abstain_share = 0;
  bool has_rmse = false;
  bool has_coverage = false;
  bool drifted = false;
  double drift_detections = 0;
};

/// Everything one dashboard frame needs.
struct Sample {
  bool ok = false;
  std::string error;
  Samples metrics;
  std::vector<ModelRow> models;
  bool quality_armed = false;
  std::vector<QualityRow> quality;  ///< empty when quality is off/unarmed
  double poll_seconds = 0.0;  ///< since previous sample (client-side rates)
};

/// The derived numbers actually rendered; windowed when the server provides
/// them, client-side deltas otherwise.
struct Derived {
  double qps = 0.0;
  double p50_us = 0.0, p90_us = 0.0, p99_us = 0.0;
  double cache_hit_rate = 0.0;  ///< lifetime
  double abstain_per_sec = 0.0;
  double slow_requests = 0.0;   ///< lifetime count
  double errors = 0.0;          ///< lifetime count
  double requests_total = 0.0;
  double window_seconds = 0.0;  ///< 0 = client-side fallback used
  bool server_window = false;
  std::vector<std::pair<std::string, double>> backend_p50_us;  ///< per-backend match p50
};

double client_rate(const Samples& now, const Samples* prev, const std::string& key,
                   double dt) {
  if (prev == nullptr || dt <= 0.0) return 0.0;
  const double delta = sample_or(now, key, 0.0) - sample_or(*prev, key, 0.0);
  return delta > 0.0 ? delta / dt : 0.0;
}

Derived derive(const Sample& cur, const Sample* prev) {
  Derived d;
  const Samples& m = cur.metrics;
  d.requests_total = sample_or(m, "evoforecast_serve_requests_total", 0.0);
  d.errors = sample_or(m, "evoforecast_serve_errors_total", 0.0);
  d.slow_requests = sample_or(m, "evoforecast_serve_slow_requests_total", 0.0);
  d.window_seconds = sample_or(m, "evoforecast_window_seconds", 0.0);
  d.server_window = d.window_seconds > 0.0;

  const double hits = sample_or(m, "evoforecast_serve_cache_hits_total", 0.0);
  const double misses = sample_or(m, "evoforecast_serve_cache_misses_total", 0.0);
  d.cache_hit_rate = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;

  if (d.server_window) {
    d.qps = sample_or(m, "evoforecast_serve_requests_window_rate", 0.0);
    d.p50_us = sample_or(m, "evoforecast_serve_request_us_window{q=\"0.50\"}", 0.0);
    d.p90_us = sample_or(m, "evoforecast_serve_request_us_window{q=\"0.90\"}", 0.0);
    d.p99_us = sample_or(m, "evoforecast_serve_request_us_window{q=\"0.99\"}", 0.0);
    d.abstain_per_sec = sample_or(m, "evoforecast_serve_abstentions_window_rate", 0.0);
  } else {
    const Samples* pm = prev != nullptr ? &prev->metrics : nullptr;
    d.qps = client_rate(m, pm, "evoforecast_serve_requests_total", cur.poll_seconds);
    d.abstain_per_sec =
        client_rate(m, pm, "evoforecast_serve_abstentions_total", cur.poll_seconds);
    const Buckets now_b = histogram_buckets(m, "evoforecast_serve_request_us");
    Buckets prev_b;
    if (pm != nullptr) prev_b = histogram_buckets(*pm, "evoforecast_serve_request_us");
    const Buckets* pb = prev_b.counts.empty() ? nullptr : &prev_b;
    d.p50_us = quantile(now_b, pb, 0.50);
    d.p90_us = quantile(now_b, pb, 0.90);
    d.p99_us = quantile(now_b, pb, 0.99);
  }

  for (const char* backend : {"auto", "scalar"}) {
    const std::string base = std::string("evoforecast_match_") + backend + "_us";
    if (const auto p50 = sample(m, base + "_window{q=\"0.50\"}")) {
      d.backend_p50_us.emplace_back(backend, *p50);
    } else {
      const Buckets b = histogram_buckets(m, base);
      if (!b.counts.empty() && b.counts.back() > 0.0) {
        d.backend_p50_us.emplace_back(backend, quantile(b, nullptr, 0.50));
      }
    }
  }
  return d;
}

#if EFSTAT_HAVE_SOCKETS

Sample poll(Client& client) {
  Sample out;
  const auto metrics_line = client.request("{\"cmd\":\"metrics\"}");
  if (!metrics_line) {
    out.error = "no response to metrics verb (server down?)";
    return out;
  }
  std::string parse_error;
  const auto metrics_doc = ef::serve::json::parse(*metrics_line, parse_error);
  const auto* metrics_obj = metrics_doc ? metrics_doc->as_object() : nullptr;
  if (!metrics_obj) {
    out.error = "bad metrics response: " + parse_error;
    return out;
  }
  const auto expo_it = metrics_obj->find("exposition");
  const std::string* expo =
      expo_it != metrics_obj->end() ? expo_it->second.as_string() : nullptr;
  if (!expo) {
    out.error = "metrics response lacks \"exposition\"";
    return out;
  }
  out.metrics = parse_prometheus(*expo);

  if (const auto models_line = client.request("{\"cmd\":\"models\"}")) {
    if (const auto models_doc = ef::serve::json::parse(*models_line, parse_error)) {
      if (const auto* obj = models_doc->as_object()) {
        const auto it = obj->find("models");
        if (it != obj->end()) {
          if (const auto* array = it->second.as_array()) {
            for (const auto& item : *array) {
              const auto* model = item.as_object();
              if (!model) continue;
              ModelRow row;
              for (const auto& [key, value] : *model) {
                if (key == "name" && value.as_string()) row.name = *value.as_string();
                if (key == "version" && value.as_number()) row.version = *value.as_number();
                if (key == "rules" && value.as_number()) row.rules = *value.as_number();
                if (key == "window" && value.as_number()) row.window = *value.as_number();
              }
              out.models.push_back(std::move(row));
            }
          }
        }
      }
    }
  }
  // Forecast quality (best-effort: older servers answer unknown_cmd, and a
  // disabled tracker reports enabled:false — both leave the panel empty).
  if (const auto quality_line = client.request("{\"cmd\":\"quality\"}")) {
    if (const auto quality_doc = ef::serve::json::parse(*quality_line, parse_error)) {
      if (const auto* obj = quality_doc->as_object()) {
        const auto armed_it = obj->find("armed");
        if (armed_it != obj->end() && armed_it->second.as_bool()) {
          out.quality_armed = *armed_it->second.as_bool();
        }
        const auto it = obj->find("models");
        const auto* array = it != obj->end() ? it->second.as_array() : nullptr;
        if (array != nullptr) {
          for (const auto& item : *array) {
            const auto* entry = item.as_object();
            if (!entry) continue;
            QualityRow row;
            for (const auto& [key, value] : *entry) {
              if (key == "model" && value.as_string()) row.model = *value.as_string();
              if (key == "tick" && value.as_number()) row.tick = *value.as_number();
              if (key == "pending" && value.as_number()) row.pending = *value.as_number();
              if (key == "window" && value.as_number()) row.window = *value.as_number();
              if (key == "rmse" && value.as_number()) {
                row.rmse = *value.as_number();
                row.has_rmse = true;
              }
              if (key == "mae" && value.as_number()) row.mae = *value.as_number();
              if (key == "coverage" && value.as_number()) {
                row.coverage = *value.as_number();
                row.has_coverage = true;
              }
              if (key == "abstain_share" && value.as_number()) {
                row.abstain_share = *value.as_number();
              }
              if (key == "drift" && value.as_object()) {
                for (const auto& [dk, dv] : *value.as_object()) {
                  if (dk == "drifted" && dv.as_bool()) row.drifted = *dv.as_bool();
                  if (dk == "detections" && dv.as_number()) {
                    row.drift_detections = *dv.as_number();
                  }
                }
              }
            }
            out.quality.push_back(std::move(row));
          }
        }
      }
    }
  }
  out.ok = true;
  return out;
}

/// Per-request stage durations accumulated from one trace's spans.
struct TraceRow {
  std::uint64_t trace_id = 0;
  double ts = 0.0;        ///< earliest span start (µs, server timeline clock)
  double total_us = 0.0;  ///< serve.request root span duration
  double cache_us = 0.0;
  double match_us = 0.0;
  double respond_us = 0.0;
  double slow_us = 0.0;  ///< > 0 when the server kept it as a slow exemplar
  std::size_t spans = 0;
};

/// --trace mode: one {"cmd":"trace"} round trip, then a per-request latency
/// breakdown of the exported timeline. Where the total exceeds the sum of
/// stages, the remainder is service-side validation/lookup overhead.
int run_trace_mode(Client& client, std::size_t max_rows) {
  const auto line = client.request("{\"cmd\":\"trace\"}");
  if (!line) {
    std::fprintf(stderr, "efstat: no response to trace verb (server down?)\n");
    return 1;
  }
  std::string parse_error;
  const auto doc = ef::serve::json::parse(*line, parse_error);
  const auto* root = doc ? doc->as_object() : nullptr;
  if (!root) {
    std::fprintf(stderr, "efstat: bad trace response: %s\n", parse_error.c_str());
    return 1;
  }
  const auto enabled_it = root->find("enabled");
  const bool* enabled =
      enabled_it != root->end() ? enabled_it->second.as_bool() : nullptr;
  const auto sample_it = root->find("sample");
  const double* rate = sample_it != root->end() ? sample_it->second.as_number() : nullptr;
  const auto trace_it = root->find("trace");
  const auto* trace = trace_it != root->end() ? trace_it->second.as_object() : nullptr;
  const auto events_it = trace ? trace->find("traceEvents") : ef::serve::json::Object::const_iterator{};
  const auto* events =
      trace && events_it != trace->end() ? events_it->second.as_array() : nullptr;
  if (!events) {
    std::fprintf(stderr, "efstat: trace response lacks traceEvents\n");
    return 1;
  }

  std::map<std::uint64_t, TraceRow> rows;
  for (const auto& item : *events) {
    const auto* event = item.as_object();
    if (!event) continue;
    const std::string* name = nullptr;
    const std::string* ph = nullptr;
    double ts = 0.0;
    double dur = 0.0;
    const ef::serve::json::Object* args = nullptr;
    for (const auto& [key, value] : *event) {
      if (key == "name") name = value.as_string();
      if (key == "ph") ph = value.as_string();
      if (key == "ts" && value.as_number()) ts = *value.as_number();
      if (key == "dur" && value.as_number()) dur = *value.as_number();
      if (key == "args") args = value.as_object();
    }
    if (!name || !args) continue;
    double trace_id = 0.0;
    double slow_us = 0.0;
    for (const auto& [key, value] : *args) {
      if (key == "trace_id" && value.as_number()) trace_id = *value.as_number();
      if (key == "slow_us" && value.as_number()) slow_us = *value.as_number();
    }
    if (trace_id <= 0.0) continue;
    TraceRow& row = rows[static_cast<std::uint64_t>(trace_id)];
    row.trace_id = static_cast<std::uint64_t>(trace_id);
    if (slow_us > 0.0) row.slow_us = slow_us;
    if (!ph || *ph != "X") continue;  // instant markers carry no durations
    ++row.spans;
    if (row.spans == 1 || ts < row.ts) row.ts = ts;
    if (*name == "serve.request") row.total_us += dur;
    else if (*name == "serve.cache") row.cache_us += dur;
    else if (*name == "serve.match") row.match_us += dur;
    else if (*name == "serve.respond") row.respond_us += dur;
  }

  std::printf("efstat trace — %zu traced request%s (tracing %s, sample %g)\n",
              rows.size(), rows.size() == 1 ? "" : "s",
              enabled && *enabled ? "on" : "off", rate ? *rate : 0.0);
  if (rows.empty()) {
    std::printf("  no spans captured — arm tracing with --trace-sample/"
                "EVOFORECAST_TRACE_SAMPLE and send requests\n");
    return 0;
  }

  // Newest requests first, bounded at max_rows.
  std::vector<const TraceRow*> order;
  order.reserve(rows.size());
  for (const auto& [id, row] : rows) {
    if (row.total_us > 0.0) order.push_back(&row);
  }
  std::sort(order.begin(), order.end(),
            [](const TraceRow* a, const TraceRow* b) { return a->ts > b->ts; });
  const std::size_t shown = std::min(order.size(), max_rows);

  std::printf("  %-12s %9s %9s %9s %9s  %s\n", "trace", "total", "cache", "match",
              "respond", "flags");
  TraceRow mean;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const TraceRow& row = *order[i];
    mean.total_us += row.total_us;
    mean.cache_us += row.cache_us;
    mean.match_us += row.match_us;
    mean.respond_us += row.respond_us;
    if (i >= shown) continue;
    std::printf("  %-12llu %9.1f %9.1f %9.1f %9.1f  %s\n",
                static_cast<unsigned long long>(row.trace_id), row.total_us, row.cache_us,
                row.match_us, row.respond_us, row.slow_us > 0.0 ? "slow" : "");
  }
  const auto n = static_cast<double>(order.size());
  if (n > 0.0) {
    std::printf("  %-12s %9.1f %9.1f %9.1f %9.1f  (us, mean of %zu)\n", "mean",
                mean.total_us / n, mean.cache_us / n, mean.match_us / n,
                mean.respond_us / n, order.size());
  }
  if (order.size() > shown) {
    std::printf("  ... %zu more (raise --trace-rows)\n", order.size() - shown);
  }
  std::fflush(stdout);
  return 0;
}

#endif  // EFSTAT_HAVE_SOCKETS

void render_dashboard(const Sample& cur, const Derived& d, const std::string& target,
                      bool clear_screen) {
  if (clear_screen) std::fputs("\x1b[2J\x1b[H", stdout);
  std::printf("efstat — %s%s\n", target.c_str(),
              d.server_window ? "" : "  (warming up: client-side rates)");
  std::printf("  window %.0fs\n", d.server_window ? d.window_seconds : cur.poll_seconds);
  std::printf("\n");
  std::printf("  qps        %10.1f    requests total %12.0f\n", d.qps, d.requests_total);
  std::printf("  latency us p50 %8.0f    p90 %8.0f    p99 %8.0f\n", d.p50_us, d.p90_us,
              d.p99_us);
  std::printf("  cache hit  %9.1f%%    abstain/s %10.2f\n", d.cache_hit_rate * 100.0,
              d.abstain_per_sec);
  std::printf("  errors     %10.0f    slow requests %13.0f\n", d.errors, d.slow_requests);
  if (!d.backend_p50_us.empty()) {
    std::printf("\n  match backends (p50 us):");
    for (const auto& [name, p50] : d.backend_p50_us) {
      std::printf("  %s %.1f", name.c_str(), p50);
    }
    std::printf("\n");
  }
  if (!cur.models.empty()) {
    std::printf("\n  %-20s %8s %8s %8s\n", "model", "version", "rules", "window");
    for (const ModelRow& row : cur.models) {
      std::printf("  %-20s %8.0f %8.0f %8.0f\n", row.name.c_str(), row.version, row.rules,
                  row.window);
    }
  }
  if (!cur.quality.empty()) {
    std::printf("\n  forecast quality%s\n",
                cur.quality_armed ? "" : "  (not armed: no actuals observed yet)");
    std::printf("  %-20s %8s %8s %8s %8s %8s %8s %8s  %s\n", "model", "tick", "pending",
                "scored", "rmse", "mae", "cover%", "abstain%", "drift");
    for (const QualityRow& row : cur.quality) {
      char rmse[24] = "-";
      char mae[24] = "-";
      char cover[24] = "-";
      if (row.has_rmse) {
        std::snprintf(rmse, sizeof rmse, "%.4g", row.rmse);
        std::snprintf(mae, sizeof mae, "%.4g", row.mae);
      }
      if (row.has_coverage) std::snprintf(cover, sizeof cover, "%.1f", row.coverage * 100.0);
      std::printf("  %-20s %8.0f %8.0f %8.0f %8s %8s %8s %8.1f  %s\n", row.model.c_str(),
                  row.tick, row.pending, row.window, rmse, mae, cover,
                  row.abstain_share * 100.0,
                  row.drifted ? "DRIFT"
                              : (row.drift_detections > 0 ? "cleared" : "ok"));
    }
  }
  std::fflush(stdout);
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void render_json(const Sample& cur, const Derived& d) {
  std::printf("{\"qps\":%.6g,\"p50_us\":%.6g,\"p90_us\":%.6g,\"p99_us\":%.6g,"
              "\"cache_hit_rate\":%.6g,\"abstain_per_sec\":%.6g,\"errors\":%.0f,"
              "\"slow_requests\":%.0f,\"requests_total\":%.0f,\"window_seconds\":%.6g,"
              "\"server_window\":%s,\"models\":[",
              d.qps, d.p50_us, d.p90_us, d.p99_us, d.cache_hit_rate, d.abstain_per_sec,
              d.errors, d.slow_requests, d.requests_total, d.window_seconds,
              d.server_window ? "true" : "false");
  for (std::size_t i = 0; i < cur.models.size(); ++i) {
    const ModelRow& row = cur.models[i];
    std::printf("%s{\"name\":\"%s\",\"version\":%.0f,\"rules\":%.0f,\"window\":%.0f}",
                i == 0 ? "" : ",", json_escape(row.name).c_str(), row.version, row.rules,
                row.window);
  }
  std::printf("],\"quality_armed\":%s,\"quality\":[",
              cur.quality_armed ? "true" : "false");
  for (std::size_t i = 0; i < cur.quality.size(); ++i) {
    const QualityRow& row = cur.quality[i];
    std::printf("%s{\"model\":\"%s\",\"tick\":%.0f,\"pending\":%.0f,\"window\":%.0f",
                i == 0 ? "" : ",", json_escape(row.model).c_str(), row.tick, row.pending,
                row.window);
    if (row.has_rmse) std::printf(",\"rmse\":%.6g,\"mae\":%.6g", row.rmse, row.mae);
    if (row.has_coverage) std::printf(",\"coverage\":%.6g", row.coverage);
    std::printf(",\"abstain_share\":%.6g,\"drifted\":%s,\"drift_detections\":%.0f}",
                row.abstain_share, row.drifted ? "true" : "false", row.drift_detections);
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
#if !EFSTAT_HAVE_SOCKETS
  (void)argc;
  (void)argv;
  std::fprintf(stderr, "efstat: no socket support on this platform\n");
  return 1;
#else
  const ef::util::Cli cli(argc, argv);
  const std::string host = cli.get_string("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(cli.get_int("port", 7777));
  const auto interval_ms = cli.get_int("interval-ms", 1000);
  const bool once = cli.get_bool("once");
  const bool as_json = cli.get_bool("json");
  const std::string target = host + ":" + std::to_string(port);

  Client client(host, port);
  if (cli.get_bool("trace")) {
    const auto rows = static_cast<std::size_t>(cli.get_int("trace-rows", 20));
    return run_trace_mode(client, rows);
  }
  Sample prev;
  bool have_prev = false;
  auto prev_at = std::chrono::steady_clock::now();
  for (;;) {
    Sample cur = poll(client);
    const auto now = std::chrono::steady_clock::now();
    cur.poll_seconds = std::chrono::duration<double>(now - prev_at).count();
    prev_at = now;
    if (!cur.ok) {
      std::fprintf(stderr, "efstat: %s\n", cur.error.c_str());
      if (once) return 1;
    } else {
      const Derived d = derive(cur, have_prev ? &prev : nullptr);
      if (as_json) {
        render_json(cur, d);
      } else {
        render_dashboard(cur, d, target, /*clear_screen=*/!once);
      }
      prev = std::move(cur);
      have_prev = true;
    }
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
#endif
}
