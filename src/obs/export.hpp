// obs/export.hpp — turn the metrics registry and span aggregates into artifacts.
//
// Three formats, one capture path:
//   * JSON  — machine-readable, one object with counters/gauges/histograms/
//             spans sections (CI uploads the quickstart run's file).
//   * CSV   — flat `kind,name,field,value` rows for spreadsheet/plot tools.
//   * table — format_report(), the human-readable summary benches and
//             examples print at exit under --report.
//
// All entry points operate on an explicit RunReport so tests can round-trip
// synthetic snapshots; the *_file/print helpers capture the global
// state first.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace ef::obs {

/// One run's complete observability state.
struct RunReport {
  MetricsSnapshot metrics;
  std::vector<SpanAggregate> spans;  ///< sorted by name
};

/// Snapshot the metrics registry and the span aggregates.
[[nodiscard]] RunReport capture_run_report();

/// Serialise as one compact JSON object followed by '\n', written with
/// util/json.hpp's Writer (non-finite doubles become null).
[[nodiscard]] std::string to_json(const RunReport& report);

/// Serialise as `kind,name,field,value` CSV rows (header included).
[[nodiscard]] std::string to_csv(const RunReport& report);

/// Human-readable fixed-width table: counters, gauges, histogram quantiles,
/// span timings sorted by total time.
[[nodiscard]] std::string format_report(const RunReport& report);

/// Capture the global state and write JSON/CSV to `path`. Throws
/// std::runtime_error on I/O failure.
void write_json_file(const std::string& path);
void write_csv_file(const std::string& path);

/// Capture the global state and print format_report() to `out`.
void print_report(std::FILE* out = stdout);

/// Zero the metrics registry and the timeline (span aggregates, rings, slow
/// exemplars). Tests and long-lived servers use this between runs; cached
/// instrument references stay valid.
void reset_all();

}  // namespace ef::obs
