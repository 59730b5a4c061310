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

#include "util/cli.hpp"
#include "util/json.hpp"

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

using ef::json::Value;

/// The value as a number / flag / string; 0, false or "" when it is absent
/// or of another type.
double number_or(const Value* value) {
  const double* number = value != nullptr ? value->as_number() : nullptr;
  return number != nullptr ? *number : 0.0;
}
bool flag_or(const Value* value) {
  const bool* flag = value != nullptr ? value->as_bool() : nullptr;
  return flag != nullptr && *flag;
}
std::string text_or(const Value* value) {
  const std::string* text = value != nullptr ? value->as_string() : nullptr;
  return text != nullptr ? *text : std::string();
}
/// The array member `key` of a parsed reply (empty when missing).
const ef::json::Array& array_of(const std::optional<Value>& doc, std::string_view key) {
  static const ef::json::Array kNone;
  const Value* member = doc ? doc->find(key) : nullptr;
  const ef::json::Array* array = member != nullptr ? member->as_array() : nullptr;
  return array != nullptr ? *array : kNone;
}

Sample poll(Client& client) {
  Sample out;
  const auto metrics_line = client.request("{\"cmd\":\"metrics\"}");
  if (!metrics_line) {
    out.error = "no response to metrics verb (server down?)";
    return out;
  }
  std::string parse_error;
  const auto metrics_doc = ef::json::parse(*metrics_line, parse_error);
  if (!metrics_doc || !metrics_doc->as_object()) {
    out.error = "bad metrics response: " + parse_error;
    return out;
  }
  const Value* expo = metrics_doc->find("exposition");
  if (expo == nullptr || !expo->as_string()) {
    out.error = "metrics response lacks \"exposition\"";
    return out;
  }
  out.metrics = parse_prometheus(*expo->as_string());

  const auto reply = [&client](const char* line) {
    std::string error;
    const auto text = client.request(line);
    return text ? ef::json::parse(*text, error) : std::nullopt;
  };
  const auto models = reply("{\"cmd\":\"models\"}");
  for (const Value& model : array_of(models, "models")) {
    if (!model.as_object()) continue;
    out.models.push_back({text_or(model.find("name")), number_or(model.find("version")),
                          number_or(model.find("rules")), number_or(model.find("window"))});
  }
  // Forecast quality (best-effort: older servers answer unknown_cmd, and a
  // disabled tracker reports enabled:false — both leave the panel empty).
  const auto quality = reply("{\"cmd\":\"quality\"}");
  out.quality_armed = flag_or(quality ? quality->find("armed") : nullptr);
  for (const Value& entry : array_of(quality, "models")) {
    if (!entry.as_object()) continue;
    QualityRow row;
    row.model = text_or(entry.find("model"));
    row.tick = number_or(entry.find("tick"));
    row.pending = number_or(entry.find("pending"));
    row.window = number_or(entry.find("window"));
    const Value* rmse = entry.find("rmse");
    const Value* coverage = entry.find("coverage");
    row.has_rmse = rmse != nullptr && rmse->as_number() != nullptr;
    row.rmse = number_or(rmse);
    row.mae = number_or(entry.find("mae"));
    row.has_coverage = coverage != nullptr && coverage->as_number() != nullptr;
    row.coverage = number_or(coverage);
    row.abstain_share = number_or(entry.find("abstain_share"));
    if (const Value* drift = entry.find("drift")) {
      row.drifted = flag_or(drift->find("drifted"));
      row.drift_detections = number_or(drift->find("detections"));
    }
    out.quality.push_back(std::move(row));
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
  const auto doc = ef::json::parse(*line, parse_error);
  if (!doc || !doc->as_object()) {
    std::fprintf(stderr, "efstat: bad trace response: %s\n", parse_error.c_str());
    return 1;
  }
  const Value* trace = doc->find("trace");
  const Value* events = trace != nullptr ? trace->find("traceEvents") : nullptr;
  if (events == nullptr || !events->as_array()) {
    std::fprintf(stderr, "efstat: trace response lacks traceEvents\n");
    return 1;
  }

  std::map<std::uint64_t, TraceRow> rows;
  for (const Value& event : *events->as_array()) {
    const Value* name_value = event.find("name");
    const Value* args = event.find("args");
    if (name_value == nullptr || !name_value->as_string() || args == nullptr ||
        !args->as_object()) {
      continue;
    }
    const std::string& name = *name_value->as_string();
    const double ts = number_or(event.find("ts"));
    const double dur = number_or(event.find("dur"));
    const double trace_id = number_or(args->find("trace_id"));
    const double slow_us = number_or(args->find("slow_us"));
    if (trace_id <= 0.0) continue;
    TraceRow& row = rows[static_cast<std::uint64_t>(trace_id)];
    row.trace_id = static_cast<std::uint64_t>(trace_id);
    if (slow_us > 0.0) row.slow_us = slow_us;
    if (text_or(event.find("ph")) != "X") continue;  // instant markers carry no durations
    ++row.spans;
    if (row.spans == 1 || ts < row.ts) row.ts = ts;
    if (name == "serve.request") row.total_us += dur;
    else if (name == "serve.cache") row.cache_us += dur;
    else if (name == "serve.match") row.match_us += dur;
    else if (name == "serve.respond") row.respond_us += dur;
  }

  const bool enabled = flag_or(doc->find("enabled"));
  const double rate = number_or(doc->find("sample"));
  std::printf("efstat trace — %zu traced request%s (tracing %s, sample %g)\n",
              rows.size(), rows.size() == 1 ? "" : "s",
              enabled ? "on" : "off", rate);
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

void render_json(const Sample& cur, const Derived& d) {
  ef::json::Writer out;
  out.begin_object();
  const std::pair<const char*, double> numbers[] = {
      {"qps", d.qps},         {"p50_us", d.p50_us},
      {"p90_us", d.p90_us},   {"p99_us", d.p99_us},
      {"cache_hit_rate", d.cache_hit_rate}, {"abstain_per_sec", d.abstain_per_sec},
      {"errors", d.errors},   {"slow_requests", d.slow_requests},
      {"requests_total", d.requests_total}, {"window_seconds", d.window_seconds}};
  for (const auto& [key, value] : numbers) out.key(key).value(value);
  out.key("server_window").value(d.server_window);
  out.key("models").begin_array();
  for (const ModelRow& row : cur.models) {
    out.begin_object().key("name").value(row.name).key("version").value(row.version);
    out.key("rules").value(row.rules).key("window").value(row.window).end_object();
  }
  out.end_array();
  out.key("quality_armed").value(cur.quality_armed);
  out.key("quality").begin_array();
  for (const QualityRow& row : cur.quality) {
    out.begin_object().key("model").value(row.model).key("tick").value(row.tick);
    out.key("pending").value(row.pending).key("window").value(row.window);
    if (row.has_rmse) out.key("rmse").value(row.rmse).key("mae").value(row.mae);
    if (row.has_coverage) out.key("coverage").value(row.coverage);
    out.key("abstain_share").value(row.abstain_share);
    out.key("drifted").value(row.drifted);
    out.key("drift_detections").value(row.drift_detections);
    out.end_object();
  }
  const std::string text = out.end_array().end_object().take();
  std::printf("%s\n", text.c_str());
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
