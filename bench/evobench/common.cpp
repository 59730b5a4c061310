#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "serve/protocol.hpp"

namespace evobench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += json_number(values[i]);
  }
  out += ']';
  return out;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  out += ef::serve::json_escape(text);
  out += '"';
  return out;
}

void Run::metric(const std::string& name, double value, const std::string& unit,
                 std::size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Run::diagnostic(const std::string& name, const std::string& json) {
  diagnostics_.emplace_back(name, json);
}

void Run::diagnostic(const std::string& name, double value) {
  diagnostic(name, json_number(value));
}

void Run::fail(const std::string& reason, std::size_t count) {
  failed_ += count;
  if (reasons_.size() < 20) reasons_.push_back(reason);
}

std::string Run::json(const std::string& header) const {
  std::string out = "{" + header;
  out += ",\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < reasons_.size(); ++i) {
    if (i) out += ',';
    out += json_string(reasons_[i]);
  }
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i) out += ',';
    out += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + ",\"samples\":" + std::to_string(m.samples) +
           "}";
  }
  out += "},\"diagnostics\":{";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    if (i) out += ',';
    out += json_string(diagnostics_[i].first) + ":" + diagnostics_[i].second;
  }
  out += "}}";
  return out;
}

std::string Run::table() const {
  std::string out;
  char line[160];
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof(line), "  %-40s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    out += line;
  }
  for (const std::string& reason : reasons_) out += "  FAILED: " + reason + "\n";
  return out;
}

void report_latency(Run& run, const std::string& prefix, const std::vector<double>& us) {
  std::vector<double> sorted = us;
  std::sort(sorted.begin(), sorted.end());
  run.metric(prefix + "_p50_us", quantile(sorted, 0.5), "us", sorted.size());
  run.diagnostic(prefix + "_tail_us",
                 "{\"p90\":" + json_number(quantile(sorted, 0.9)) +
                     ",\"p99\":" + json_number(quantile(sorted, 0.99)) +
                     ",\"p999\":" + json_number(quantile(sorted, 0.999)) +
                     ",\"samples\":" + std::to_string(sorted.size()) + "}");
}

int Tracer::site(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<int>(it - names_.begin());
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<int>(names_.size() - 1);
}

Tracer::Scope::Scope(Tracer& tracer, int site)
    : tracer_(tracer), site_(site), slot_(kDropped), start_(Clock::now()) {
  std::uint64_t id = 0;
  const bool parent_kept = tracer_.open_.empty() || tracer_.open_.back() != 0;
  if (parent_kept && tracer_.spans_.size() < kMaxKept &&
      tracer_.kept_in_trace_ < kMaxPerTrace) {
    ++tracer_.kept_in_trace_;
    id = tracer_.next_id_++;
    Span span;
    span.site = site;
    span.trace = tracer_.trace_;
    span.id = id;
    span.parent = tracer_.open_.empty() ? 0 : tracer_.open_.back();
    span.start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(start_ - tracer_.epoch_).count();
    slot_ = tracer_.spans_.size();
    tracer_.spans_.push_back(span);
  }
  tracer_.open_.push_back(id);
}

Tracer::Scope::~Scope() {
  const Clock::time_point end = Clock::now();
  Totals& totals = tracer_.totals_[static_cast<std::size_t>(site_)];
  totals.seconds += std::chrono::duration<double>(end - start_).count();
  ++totals.count;
  if (slot_ != kDropped) {
    tracer_.spans_[slot_].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - tracer_.epoch_).count();
  }
  tracer_.open_.pop_back();
}

std::string Tracer::chrome_json() const {
  std::vector<const Span*> order;
  order.reserve(spans_.size());
  for (const Span& span : spans_) order.push_back(&span);
  std::stable_sort(order.begin(), order.end(),
                   [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; });
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buffer[96];
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Span& s = *order[i];
    out += i ? ",{" : "{";
    out += "\"name\":" + json_string(names_[static_cast<std::size_t>(s.site)]);
    std::snprintf(buffer, sizeof(buffer), ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += buffer;
    out += ",\"pid\":1,\"tid\":1,\"args\":{\"trace_id\":" + std::to_string(s.trace) +
           ",\"span_id\":" + std::to_string(s.id) + ",\"parent_id\":" +
           std::to_string(s.parent) + "}}";
  }
  out += "]}";
  return out;
}

}  // namespace evobench
