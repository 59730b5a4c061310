#include "obs/exposition.hpp"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <utility>

#include "obs/build_info.hpp"
#include "util/json.hpp"

namespace ef::obs {
namespace {

bool legal_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_' || c == ':';
}

/// Format a double the way Prometheus expects: plain decimal / scientific,
/// "+Inf"/"-Inf"/"NaN" for the specials.
std::string format_value(double x) {
  if (std::isnan(x)) return "NaN";
  if (std::isinf(x)) return x > 0 ? "+Inf" : "-Inf";
  std::string text;
  json::append_number(text, x);
  return text;
}

std::string format_value(std::uint64_t x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, x);
  return buf;
}

/// Registered provider sections appended by prometheus_text(). A plain
/// mutex-guarded list: registration is rare (subsystem construction) and
/// scrapes are ~1/s, so holding the lock while providers render keeps a
/// provider from being invoked concurrently with its own removal.
struct ProviderRegistry {
  std::mutex mutex;
  std::vector<std::pair<std::uint64_t, ExpositionProvider>> providers;
  std::uint64_t next_id = 1;

  static ProviderRegistry& instance() {
    static ProviderRegistry registry;
    return registry;
  }
};

void type_line(std::string& out, const std::string& name, const char* type) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void sample(std::string& out, const std::string& name, const std::string& value) {
  out += name;
  out += ' ';
  out += value;
  out += '\n';
}

void histogram_series(std::string& out, const std::string& base, const HistogramStats& stats) {
  type_line(out, base, "histogram");
  // Prometheus buckets are CUMULATIVE: each le bucket counts every
  // observation <= its bound, and le="+Inf" equals _count. The registry's
  // buckets are disjoint, so accumulate while emitting.
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < stats.buckets.size(); ++i) {
    cum += stats.buckets[i];
    const std::string le =
        i < stats.bounds.size() ? format_value(stats.bounds[i]) : std::string("+Inf");
    out += base;
    out += "_bucket{le=\"";
    out += le;
    out += "\"} ";
    out += format_value(cum);
    out += '\n';
  }
  sample(out, base + "_sum", format_value(stats.sum));
  sample(out, base + "_count", format_value(cum));
}

void windowed_series(std::string& out, const WindowSnapshot& window,
                     const ExpositionOptions& options) {
  const std::string window_name = options.prefix + "window_seconds";
  type_line(out, window_name, "gauge");
  sample(out, window_name, format_value(window.window_seconds));

  for (const auto& c : window.counters) {
    const std::string base = prometheus_name(c.name, options) + "_window_rate";
    type_line(out, base, "gauge");
    sample(out, base, format_value(c.per_sec));
  }
  for (const auto& h : window.histograms) {
    const std::string base = prometheus_name(h.name, options);
    const std::string rate = base + "_window_rate";
    type_line(out, rate, "gauge");
    sample(out, rate, format_value(h.per_sec));

    const std::string quantiles = base + "_window";
    type_line(out, quantiles, "gauge");
    const std::pair<const char*, double> qs[] = {
        {"0.50", h.p50}, {"0.90", h.p90}, {"0.99", h.p99}};
    for (const auto& [q, v] : qs) {
      out += quantiles;
      out += "{q=\"";
      out += q;
      out += "\"} ";
      out += format_value(v);
      out += '\n';
    }
  }
}

void build_info_series(std::string& out, const ExpositionOptions& options) {
  const BuildInfo& info = build_info();
  const std::string name = options.prefix + "build_info";
  type_line(out, name, "gauge");
  // labeled_sample sorts the labels, so build_info shares the sorted-order
  // convention every labelled family follows.
  labeled_sample(out, name,
                 {{"commit", std::string(info.git_commit)},
                  {"compiler", std::string(info.compiler)},
                  {"build_type", std::string(info.build_type)},
                  {"obs", info.obs_enabled ? "on" : "off"}},
                 1.0);
}

}  // namespace

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void labeled_sample(std::string& out, const std::string& family,
                    std::vector<Label> labels, double value) {
  std::sort(labels.begin(), labels.end(),
            [](const Label& a, const Label& b) { return a.name < b.name; });
  out += family;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    out += labels[i].name;
    out += "=\"";
    out += escape_label_value(labels[i].value);
    out += '"';
  }
  out += "} ";
  out += format_value(value);
  out += '\n';
}

std::uint64_t add_exposition_provider(ExpositionProvider provider) {
  ProviderRegistry& registry = ProviderRegistry::instance();
  const std::lock_guard lock(registry.mutex);
  const std::uint64_t id = registry.next_id++;
  registry.providers.emplace_back(id, std::move(provider));
  return id;
}

void remove_exposition_provider(std::uint64_t id) {
  ProviderRegistry& registry = ProviderRegistry::instance();
  const std::lock_guard lock(registry.mutex);
  std::erase_if(registry.providers,
                [id](const auto& entry) { return entry.first == id; });
}

std::string prometheus_name(std::string_view name, const ExpositionOptions& options) {
  std::string out = options.prefix;
  if (out.empty() && !name.empty() && name.front() >= '0' && name.front() <= '9') {
    out += '_';
  }
  for (const char c : name) {
    out += legal_name_char(c) ? c : '_';
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot, const WindowSnapshot* window,
                          const ExpositionOptions& options) {
  std::string out;
  out.reserve(4096);

  for (const auto& c : snapshot.counters) {
    const std::string name = prometheus_name(c.name, options) + "_total";
    type_line(out, name, "counter");
    sample(out, name, format_value(c.value));
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = prometheus_name(g.name, options);
    type_line(out, name, "gauge");
    sample(out, name, format_value(g.value));
  }
  for (const auto& h : snapshot.histograms) {
    histogram_series(out, prometheus_name(h.name, options), h.stats);
  }
  if (window != nullptr && window->window_seconds > 0.0) {
    windowed_series(out, *window, options);
  }
  if (options.build_info_series) {
    build_info_series(out, options);
  }
  return out;
}

std::string prometheus_text(const ExpositionOptions& options) {
  const MetricsSnapshot snapshot = Registry::global().snapshot();
  const WindowSnapshot window = WindowedCollector::global().window();
  const WindowSnapshot* window_ptr = window.window_seconds > 0.0 ? &window : nullptr;
  std::string out = to_prometheus(snapshot, window_ptr, options);
  if (options.providers) {
    ProviderRegistry& registry = ProviderRegistry::instance();
    const std::lock_guard lock(registry.mutex);
    for (const auto& [id, provider] : registry.providers) {
      provider(out, options);
    }
  }
  return out;
}

}  // namespace ef::obs
