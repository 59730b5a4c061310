#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/build_info.hpp"
#include "util/json.hpp"

namespace ef::obs {
namespace {

/// One CSV row; names are metric identifiers (no commas/quotes expected,
/// but quote defensively if present).
void append_csv_row(std::string& out, std::string_view kind, std::string_view name,
                    std::string_view field, const std::string& value) {
  out += kind;
  out += ',';
  const bool needs_quotes = name.find_first_of(",\"\n") != std::string_view::npos;
  if (needs_quotes) {
    out += '"';
    for (const char c : name) {
      out += c;
      if (c == '"') out += '"';
    }
    out += '"';
  } else {
    out += name;
  }
  out += ',';
  out += field;
  out += ',';
  out += value;
  out += '\n';
}

/// %.17g, through the JSON writer's formatter; non-finite values keep
/// printf's text ("nan", "inf", "-inf").
[[nodiscard]] std::string number_text(double value) {
  std::string text;
  if (std::isfinite(value)) {
    json::append_number(text, value);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    text = buf;
  }
  return text;
}

[[nodiscard]] std::string number_text(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

RunReport capture_run_report() {
  return {Registry::global().snapshot(), Timeline::aggregates()};
}

std::string to_json(const RunReport& report) {
  json::Writer out;
  out.begin_object().key("build").raw(build_info_json());
  out.key("counters").begin_object();
  for (const auto& c : report.metrics.counters) out.key(c.name).value(c.value);
  out.end_object();
  out.key("gauges").begin_object();
  for (const auto& g : report.metrics.gauges) out.key(g.name).value(g.value);
  out.end_object();
  out.key("histograms").begin_object();
  for (const auto& h : report.metrics.histograms) {
    out.key(h.name).begin_object().key("count").value(h.stats.count);
    const std::pair<const char*, double> fields[] = {
        {"sum", h.stats.sum}, {"mean", h.stats.mean}, {"stddev", h.stats.stddev},
        {"min", h.stats.min}, {"max", h.stats.max},   {"p50", h.stats.p50},
        {"p90", h.stats.p90}, {"p99", h.stats.p99}};
    for (const auto& [key, value] : fields) out.key(key).value(value);
    out.key("buckets").begin_array();
    for (std::size_t b = 0; b < h.stats.buckets.size(); ++b) {
      out.begin_object().key("le");
      if (b < h.stats.bounds.size()) {
        out.value(h.stats.bounds[b]);
      } else {
        out.value("inf");
      }
      out.key("count").value(h.stats.buckets[b]).end_object();
    }
    out.end_array().end_object();
  }
  out.end_object();
  out.key("spans").begin_object();
  for (const auto& s : report.spans) {
    out.key(s.name).begin_object().key("calls").value(s.stats.calls);
    const std::pair<const char*, double> fields[] = {
        {"total_ms", s.stats.total_ns * 1e-6},
        {"self_ms", s.stats.self_ns * 1e-6},
        {"mean_us", s.stats.mean_ns() * 1e-3},
        {"min_us", s.stats.min_ns * 1e-3},
        {"max_us", s.stats.max_ns * 1e-3}};
    for (const auto& [key, value] : fields) out.key(key).value(value);
    out.end_object();
  }
  out.end_object().end_object();
  std::string text = out.take();
  text.push_back('\n');
  return text;
}

std::string to_csv(const RunReport& report) {
  std::string out = "kind,name,field,value\n";
  for (const auto& c : report.metrics.counters) {
    append_csv_row(out, "counter", c.name, "value", number_text(c.value));
  }
  for (const auto& g : report.metrics.gauges) {
    append_csv_row(out, "gauge", g.name, "value", number_text(g.value));
  }
  for (const auto& h : report.metrics.histograms) {
    append_csv_row(out, "histogram", h.name, "count", number_text(h.stats.count));
    append_csv_row(out, "histogram", h.name, "mean", number_text(h.stats.mean));
    append_csv_row(out, "histogram", h.name, "stddev", number_text(h.stats.stddev));
    append_csv_row(out, "histogram", h.name, "min", number_text(h.stats.min));
    append_csv_row(out, "histogram", h.name, "max", number_text(h.stats.max));
    append_csv_row(out, "histogram", h.name, "p50", number_text(h.stats.p50));
    append_csv_row(out, "histogram", h.name, "p90", number_text(h.stats.p90));
    append_csv_row(out, "histogram", h.name, "p99", number_text(h.stats.p99));
  }
  for (const auto& s : report.spans) {
    append_csv_row(out, "span", s.name, "calls", number_text(s.stats.calls));
    append_csv_row(out, "span", s.name, "total_ms", number_text(s.stats.total_ns * 1e-6));
    append_csv_row(out, "span", s.name, "self_ms", number_text(s.stats.self_ns * 1e-6));
    append_csv_row(out, "span", s.name, "mean_us",
                   number_text(s.stats.mean_ns() * 1e-3));
  }
  return out;
}

std::string format_report(const RunReport& report) {
  std::string out;
  char line[256];
  const auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof line, fmt, args...);
    out += line;
  };

  out += "== run report "
         "================================================================\n";
  if (!report.metrics.counters.empty()) {
    out += "counters\n";
    for (const auto& c : report.metrics.counters) {
      emit("  %-44s %18llu\n", c.name.c_str(),
           static_cast<unsigned long long>(c.value));
    }
  }
  if (!report.metrics.gauges.empty()) {
    out += "gauges\n";
    for (const auto& g : report.metrics.gauges) {
      emit("  %-44s %18.4g\n", g.name.c_str(), g.value);
    }
  }
  if (!report.metrics.histograms.empty()) {
    emit("histograms%36s %10s %9s %9s %9s %9s\n", "", "count", "mean", "p50", "p90",
         "p99");
    for (const auto& h : report.metrics.histograms) {
      emit("  %-44s %10llu %9.3g %9.3g %9.3g %9.3g\n", h.name.c_str(),
           static_cast<unsigned long long>(h.stats.count), h.stats.mean, h.stats.p50,
           h.stats.p90, h.stats.p99);
    }
  }
  if (!report.spans.empty()) {
    // Spans sorted by total time descending: the profile view.
    auto spans = report.spans;
    std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
      return a.stats.total_ns > b.stats.total_ns;
    });
    emit("spans%41s %10s %11s %11s %9s\n", "", "calls", "total ms", "self ms",
         "mean us");
    for (const auto& s : spans) {
      emit("  %-44s %10llu %11.2f %11.2f %9.2f\n", s.name.c_str(),
           static_cast<unsigned long long>(s.stats.calls), s.stats.total_ns * 1e-6,
           s.stats.self_ns * 1e-6, s.stats.mean_ns() * 1e-3);
    }
  }
  if (report.metrics.counters.empty() && report.metrics.gauges.empty() &&
      report.metrics.histograms.empty() && report.spans.empty()) {
    out += "(no metrics recorded — built with EVOFORECAST_OBS=OFF?)\n";
  }
  out += "==============================================================="
         "===============\n";
  return out;
}

namespace {

void write_file(const std::string& path, const std::string& content) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("obs: cannot open '" + path + "'");
  file << content;
  if (!file) throw std::runtime_error("obs: write failed for '" + path + "'");
}

}  // namespace

void write_json_file(const std::string& path) {
  write_file(path, to_json(capture_run_report()));
}

void write_csv_file(const std::string& path) {
  write_file(path, to_csv(capture_run_report()));
}

void print_report(std::FILE* out) {
  const std::string text = format_report(capture_run_report());
  std::fputs(text.c_str(), out);
}

void reset_all() {
  Registry::global().reset_values();
  Timeline::reset();
}

}  // namespace ef::obs
