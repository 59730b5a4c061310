// common.hpp — timing, statistics, the run record and the span tracer that
// every evobench workload shares.
//
// The tracer lives here, in the benchmark, on purpose: per-layer numbers
// come from spans recorded around calls into the library's public API, so
// the library itself carries no benchmark-only instrumentation. Spans are
// kept in memory and written out as one Chrome trace when the run ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ef {
namespace core {}
namespace fleet {}
namespace series {}
namespace serve {}
}  // namespace ef

namespace evobench {

namespace core = ef::core;
namespace fleet = ef::fleet;
namespace series = ef::series;
namespace serve = ef::serve;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Quantile with linear interpolation between closest ranks (the estimator
/// numpy and Python's statistics module default to). 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Peak resident set size of this process in MiB (getrusage max RSS).
[[nodiscard]] double peak_rss_mb();

/// FNV-1a 64 over text — the rule-text digests the training gates report.
[[nodiscard]] std::uint64_t fnv1a(const std::string& text,
                                  std::uint64_t h = 14695981039346656037ull);
[[nodiscard]] std::string hex64(std::uint64_t value);

/// One run's outcome: the metrics it reports, how many operations it
/// attempted, and every correctness failure it saw.
class Run {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// A diagnostic that is reported but not declared in BENCHMARK.json
  /// (tail percentiles, digests, generator health). `json` is a JSON value.
  void diagnostic(const std::string& name, const std::string& json);
  void diagnostic(const std::string& name, double value);
  void attempted(std::size_t n) { attempted_ += n; }
  /// Record a failed operation. The first few reasons are kept for the log.
  void fail(const std::string& reason, std::size_t count = 1);
  [[nodiscard]] bool correct() const noexcept { return failed_ == 0; }

  /// The run record as JSON: metrics, counts and failures, plus `header`
  /// fields (build, host, argv, ...) spliced in as given.
  [[nodiscard]] std::string json(const std::string& header) const;
  /// Human-readable metric table for stdout.
  [[nodiscard]] std::string table() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> diagnostics_;
  std::vector<std::string> reasons_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// `<prefix>_p50_us` as a metric; p90, p99 and p99.9 with the sample count
/// as diagnostics (reported, not gated; see README.md).
void report_latency(Run& run, const std::string& prefix, const std::vector<double>& us);

/// JSON number text: full precision, and `null` for a non-finite value.
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_array(const std::vector<double>& values);
[[nodiscard]] std::string json_string(const std::string& text);

/// Spans recorded from the benchmark's own files around library calls.
/// Single-threaded by design: every traced replay runs on one thread, so
/// self times are not blurred by scheduling. Per-name totals are always
/// accumulated; individual spans are kept for the Chrome trace up to
/// kMaxPerTrace per trace and kMaxKept in all (the totals stay exact past
/// the caps). A span is kept only if its parent was, since parents open
/// first.
class Tracer {
 public:
  static constexpr std::size_t kMaxKept = 40000;
  static constexpr std::size_t kMaxPerTrace = 2000;

  /// Register a span name once; the id keys the cheap per-span path.
  [[nodiscard]] int site(const std::string& name);

  /// Start a new trace: root spans opened afterwards share a fresh id.
  /// Call only while no span is open.
  void begin_trace() {
    ++trace_;
    kept_in_trace_ = 0;
  }

  class Scope {
   public:
    Scope(Tracer& tracer, int site);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int site_;
    std::size_t slot_;
    Clock::time_point start_;
  };

  [[nodiscard]] double total_s(int site) const {
    return totals_[static_cast<std::size_t>(site)].seconds;
  }
  [[nodiscard]] std::size_t count(int site) const {
    return totals_[static_cast<std::size_t>(site)].count;
  }

  /// Chrome trace-event JSON of the kept spans, sorted by start time.
  [[nodiscard]] std::string chrome_json() const;

 private:
  static constexpr std::size_t kDropped = static_cast<std::size_t>(-1);
  struct Span {
    int site = 0;
    std::uint64_t trace = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Totals {
    double seconds = 0.0;
    std::size_t count = 0;
  };
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Span> spans_;
  /// Ids of the open spans, innermost last (0 = a dropped span).
  std::vector<std::uint64_t> open_;
  std::uint64_t trace_ = 1;
  std::size_t kept_in_trace_ = 0;
  std::uint64_t next_id_ = 1;
  Clock::time_point epoch_ = Clock::now();
};

}  // namespace evobench
