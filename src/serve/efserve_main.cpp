// efserve — the evoforecast model server.
//
//   efserve tide=models/tide.efr sun=models/sun.efr [--port 7777] ...
//   efserve --train-demo demo.efr        # write a small demo model and exit
//
// Serves named .efr rule-system models over the JSON-lines TCP protocol
// (docs/SERVING.md), hot-reloading each file when its mtime changes.
// Graceful shutdown on SIGINT/SIGTERM: stop accepting, drain in-flight
// requests, emit the observability report (--report / --metrics-json).
//
// SIGUSR1 dumps live state without shutting down: the run report goes to
// stdout and the event-log flight recorder to stderr as JSON lines between
// "== flight recorder begin/end ==" markers. The same data is reachable
// over the wire via the "metrics"/"events" verbs and GET /metrics
// (Prometheus text), and live windowed rates/quantiles come from the
// background WindowedCollector started at boot.
//
// Fleet mode serves a whole `.efr` v2 container (built by eftrain) instead
// of — or alongside — named files:
//
//   efserve --container fleet.efr2 [--port 7777]
//
// Every series id in the container is a model name on the wire; the poller
// stats the one container file and swaps the whole fleet atomically when a
// repack lands (docs/FLEET.md).
//
// Flags:
//   --container PATH    serve every series of a .efr v2 container
//   --port N            listen port (default 7777; 0 = ephemeral, printed)
//   --host A            bind address (default 127.0.0.1)
//   --poll-ms N         model-file poll interval (default 500; 0 = no reload)
//   --cache-capacity N  prediction cache entries (default 65536; 0 = off)
//   --reactor-threads N epoll reactor threads (default 0 = min(hardware, 4))
//   --max-pipeline N    unwritten replies queued per connection before the
//                       reactor stops reading it (default 1024)
//   --drain-timeout-ms N  graceful-drain budget on shutdown (default 5000)
//   --slow-request-us X slow-request event threshold in µs (default 50000; 0 = off)
//   --quality-ledger N  per-model prediction-ledger capacity for live
//                       accuracy scoring via "observe" (default 1024; 0 = off)
//   --quality-window N  matured forecasts in the rolling quality window (default 256)
//   --quality-topk N    worst models exported as ef_quality_*{model=...} (default 5)
//   --drift-delta X     Page–Hinkley per-sample tolerance (default 0.05)
//   --drift-lambda X    Page–Hinkley detection threshold (default 5.0)
//   --drift-min-n N     samples before drift can fire (default 8)
//   --trace-sample X    timeline trace sample rate 0..1 (default: the
//                       EVOFORECAST_TRACE_SAMPLE environment variable)
//   --trace-out PATH    write the timeline as Chrome trace-event JSON on
//                       exit and on SIGUSR1 (arms tracing at rate 1.0 when
//                       no rate was configured)
//   --report / --metrics-json PATH / --metrics-csv PATH  on exit
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "core/rule_system.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/macros.hpp"
#include "obs/run_report.hpp"
#include "obs/timeline.hpp"
#include "obs/timeline_export.hpp"
#include "obs/window.hpp"
#include "serve/model_store.hpp"
#include "serve/service.hpp"
#include "serve/reactor.hpp"
#include "series/synthetic.hpp"
#include "util/cli.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define EFSERVE_HAVE_SIGNALS 1
#else
#define EFSERVE_HAVE_SIGNALS 0
#endif

namespace {

/// --trace-out destination; empty = no timeline dump.
std::string g_trace_out;

/// Write the timeline next to the flight recorder when --trace-out is set
/// (SIGUSR1 and exit both land here; each write replaces the file with the
/// current ring contents).
void dump_timeline() {
  if (g_trace_out.empty()) return;
  if (ef::obs::write_chrome_trace_file(g_trace_out)) {
    std::fprintf(stderr, "timeline trace written to %s\n", g_trace_out.c_str());
  } else {
    std::fprintf(stderr, "efserve: cannot write trace file '%s'\n", g_trace_out.c_str());
  }
}

/// Dump the run report (stdout) and the flight recorder (stderr) without
/// disturbing the serving path — the SIGUSR1 action.
void dump_live_report() {
  EVOFORECAST_COUNT("serve.report_dumps", 1);
  ef::obs::print_report(stdout);
  std::fflush(stdout);
  std::fputs("== flight recorder begin ==\n", stderr);
  const std::string lines = ef::obs::EventLog::global().dump_json_lines();
  std::fwrite(lines.data(), 1, lines.size(), stderr);
  std::fputs("== flight recorder end ==\n", stderr);
  dump_timeline();
  std::fflush(stderr);
}

#if EFSERVE_HAVE_SIGNALS
// Self-pipe: handlers write one byte (1 = stop, 2 = dump report); main
// blocks on read. Both ends async-signal-safe, no polling loop.
int g_signal_pipe[2] = {-1, -1};

extern "C" void handle_stop_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &byte, 1);
}

extern "C" void handle_dump_signal(int) {
  const char byte = 2;
  [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &byte, 1);
}

void wait_for_stop_signal() {
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "efserve: pipe() failed; running until killed\n");
    for (;;) ::pause();
  }
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  struct sigaction dump_action {};
  dump_action.sa_handler = handle_dump_signal;
  ::sigaction(SIGUSR1, &dump_action, nullptr);
  for (;;) {
    char byte = 0;
    const auto n = ::read(g_signal_pipe[0], &byte, 1);
    if (n < 0) continue;  // EINTR
    if (n == 0 || byte == 1) return;
    if (byte == 2) dump_live_report();  // SIGUSR1: report, keep serving
  }
}
#else
void wait_for_stop_signal() {
  std::fprintf(stderr, "efserve: no signal support; press Ctrl-C to hard-exit\n");
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}
#endif

/// Train a small one-step demo model on a noisy sine and save it — gives CI
/// and first-time users a .efr to serve without a full training run.
int train_demo(const std::string& path, std::uint64_t seed) {
  std::printf("training demo model (noisy sine, D=6, tau=1)...\n");
  const auto series = ef::series::generate_sine(1500, {1.0, 25.0, 0.0, 0.0, 0.05, 9});
  const ef::core::WindowDataset train(series, 6, 1);
  ef::core::RuleSystemConfig config;
  config.evolution.population_size = 50;
  config.evolution.generations = 3000;
  config.evolution.emax = 0.25;
  config.evolution.seed = seed;
  config.max_executions = 2;
  config.coverage_target_percent = 95.0;
  const auto result = ef::core::train(train, {.config = config});
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "efserve: cannot write '%s'\n", path.c_str());
    return 1;
  }
  result.system.save(out);
  std::printf("wrote %zu rules (train coverage %.1f%%) to %s\n", result.system.size(),
              result.train_coverage_percent, path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ef::util::Cli cli(argc, argv);

  if (const auto demo_path = cli.get("train-demo")) {
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 12));
    return train_demo(*demo_path, seed);
  }

  const std::string container_path = cli.get_string("container", "");
  if (cli.positional().empty() && container_path.empty()) {
    std::fprintf(stderr,
                 "usage: efserve NAME=MODEL.efr [NAME=MODEL.efr ...] [--port 7777]\n"
                 "       efserve --container FLEET.efr2 [--port 7777]\n"
                 "       efserve --train-demo PATH.efr\n");
    return 2;
  }

  ef::serve::ModelStore store;
  if (!container_path.empty()) {
    try {
      store.attach_container(container_path);
      const auto info = store.container_info();
      std::printf("attached container %s (%zu series, %zu bytes)\n",
                  container_path.c_str(), info->models, info->bytes);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "efserve: %s\n", e.what());
      return 1;
    }
  }
  for (const std::string& spec : cli.positional()) {
    const std::size_t eq = spec.find('=');
    const std::string name = eq == std::string::npos ? "default" : spec.substr(0, eq);
    const std::string path = eq == std::string::npos ? spec : spec.substr(eq + 1);
    try {
      store.add_file(name, path);
      const auto model = store.get(name);
      std::printf("loaded model '%s' from %s (%zu rules, window %zu)\n", name.c_str(),
                  path.c_str(), model->system().size(), model->window());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "efserve: %s\n", e.what());
      return 1;
    }
  }

  const auto poll_ms = cli.get_int("poll-ms", 500);
  if (poll_ms > 0) store.start_polling(std::chrono::milliseconds(poll_ms));

  // One ServeOptions literal configures the whole stack — service pipeline
  // and reactor transport alike (serve/options.hpp).
  ef::serve::ServeOptions options;
  const auto cache_capacity = cli.get_int("cache-capacity", 65536);
  options.cache.capacity = cache_capacity > 0 ? static_cast<std::size_t>(cache_capacity) : 0;
  options.slow_request_us = cli.get_double("slow-request-us", 50000.0);
  const auto quality_ledger = cli.get_int("quality-ledger", 1024);
  options.quality.ledger_capacity =
      quality_ledger > 0 ? static_cast<std::size_t>(quality_ledger) : 0;
  options.quality.window = static_cast<std::size_t>(cli.get_int("quality-window", 256));
  options.quality.top_k = static_cast<std::size_t>(cli.get_int("quality-topk", 5));
  options.quality.drift.delta = cli.get_double("drift-delta", 0.05);
  options.quality.drift.lambda = cli.get_double("drift-lambda", 5.0);
  options.quality.drift.min_samples =
      static_cast<std::size_t>(cli.get_int("drift-min-n", 8));
  options.host = cli.get_string("host", "127.0.0.1");
  options.port = static_cast<std::uint16_t>(cli.get_int("port", 7777));
  options.reactor_threads = static_cast<std::size_t>(cli.get_int("reactor-threads", 0));
  options.max_pipeline = static_cast<std::size_t>(cli.get_int("max-pipeline", 1024));
  options.drain_timeout_ms = static_cast<int>(cli.get_int("drain-timeout-ms", 5000));

  // Timeline tracing: an explicit --trace-sample wins over the environment
  // (applied at service construction via ServeOptions::trace_sample);
  // --trace-out with nothing configured arms full sampling so the dump is
  // never silently empty.
  if (cli.has("trace-sample")) {
    options.trace_sample = cli.get_double("trace-sample", 0.0);
  }
  g_trace_out = cli.get_string("trace-out", "");

  ef::serve::ForecastService service(store, options);
  if (!g_trace_out.empty() && !ef::obs::Timeline::enabled()) {
    ef::obs::Timeline::set_sample_rate(1.0);
  }

  ef::serve::Reactor server(service);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "efserve: %s\n", e.what());
    return 1;
  }
  std::size_t model_count = store.size();
  if (const auto info = store.container_info()) model_count += info->models;
  std::printf("efserve listening on %s:%u (%zu model%s, %zu reactor%s; Ctrl-C to stop)\n",
              options.host.c_str(), static_cast<unsigned>(server.port()), model_count,
              model_count == 1 ? "" : "s", server.shard_count(),
              server.shard_count() == 1 ? "" : "s");
  std::fflush(stdout);

  // Windowed rates/quantiles for GET /metrics and the "metrics" verb; one
  // registry snapshot per second, nothing added to the request path.
  ef::obs::WindowedCollector::global().start();
  EVOFORECAST_EVENT("serve.start", {"port", server.port()}, {"models", store.size()});

  wait_for_stop_signal();

  EVOFORECAST_EVENT("serve.stop", {"connections", server.connections_served()});
  std::printf("\nshutting down: draining in-flight requests...\n");
  server.stop();        // graceful drain: answer what was received, flush, close
  service.shutdown();   // then refuse further predicts
  store.stop_polling();
  ef::obs::WindowedCollector::global().stop();
  std::printf("served %llu connections\n",
              static_cast<unsigned long long>(server.connections_served()));

  dump_timeline();
  ef::obs::emit_cli_report(cli);
  return 0;
}
