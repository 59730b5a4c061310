// evobench — one end-to-end and per-layer benchmark for training, fleet
// training and serving (see README.md).
//
//   evobench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//            [--smoke] [--workdir DIR] --out RUN.json [--trace-out TRACE.json]
//
// Runs one workload in this process and writes its run record (metrics,
// correctness, build and host stamp) to --out; with --trace 1 the Chrome
// trace of the layer replays goes to --trace-out. Exit status: 0 when
// every output was correct, 1 when a correctness gate failed, 2 on a
// usage or runtime error. bench/evobench/run.py builds and drives this.
#include <execinfo.h>
#include <unistd.h>

#include <csignal>
#include <ctime>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"
#include "inputs.hpp"
#include "obs/build_info.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using evobench::json_string;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buffer;
}

/// A run that crashes leaves no record, so say where it crashed: the raw
/// stack goes to stderr (resolve with addr2line), then the default action.
void on_fatal_signal(int sig) {
  void* frames[64];
  const int depth = ::backtrace(frames, 64);
  ::backtrace_symbols_fd(frames, depth, STDERR_FILENO);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) std::signal(sig, on_fatal_signal);
  using WorkloadFn = void (*)(const evobench::Options&, evobench::Run&, evobench::Tracer&);
  const std::map<std::string, WorkloadFn> workloads = {
      {"train_paper", evobench::train_paper},     {"train_fleet", evobench::train_fleet},
      {"serve_compute", evobench::serve_compute}, {"serve_cached", evobench::serve_cached},
      {"serve_fleet", evobench::serve_fleet},
  };
  try {
    const ef::util::Cli cli(argc, argv);
    evobench::Options options;
    options.workload = cli.get_string("workload", "");
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    options.seconds = cli.get_double("seconds", 10.0);
    options.trace = cli.get_int("trace", 0) != 0;
    options.smoke = cli.get_bool("smoke");
    options.workdir = cli.get_string("workdir", ".");
    const std::string out_path = cli.get_string("out", "");
    const std::string trace_path = cli.get_string("trace-out", "");
    const auto workload = workloads.find(options.workload);
    if (workload == workloads.end() || out_path.empty() || options.seconds <= 0.0) {
      std::cerr << "usage: evobench --workload "
                   "train_paper|train_fleet|serve_compute|serve_cached|serve_fleet "
                   "[--seed S] [--seconds T] [--trace 0|1] [--smoke] [--workdir DIR] "
                   "--out RUN.json [--trace-out TRACE.json]\n";
      return 2;
    }

    const evobench::Clock::time_point start = evobench::Clock::now();
    evobench::Run run;
    evobench::Tracer tracer;
    workload->second(options, run, tracer);

    std::string argv_json = "[";
    for (int i = 0; i < argc; ++i) {
      if (i) argv_json += ',';
      argv_json += json_string(argv[i]);
    }
    argv_json += "]";
    const std::string header =
        "\"schema\":\"evobench/1\",\"workload\":" + json_string(options.workload) +
        ",\"seed\":" + std::to_string(options.seed) +
        ",\"seconds\":" + evobench::json_number(options.seconds) +
        ",\"trace\":" + (options.trace ? "true" : "false") +
        ",\"smoke\":" + (options.smoke ? "true" : "false") + ",\"argv\":" + argv_json +
        ",\"timestamp\":" + json_string(utc_now()) +
        ",\"build\":" + ef::obs::build_info_json() +
        ",\"host\":{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
        ",\"cpu\":" + json_string(cpu_model()) + "}" +
        ",\"wall_s\":" + evobench::json_number(evobench::seconds_since(start));
    if (!write_file(out_path, run.json(header))) {
      std::cerr << "evobench: cannot write " << out_path << "\n";
      return 2;
    }
    if (options.trace && !trace_path.empty() &&
        !write_file(trace_path, tracer.chrome_json())) {
      std::cerr << "evobench: cannot write " << trace_path << "\n";
      return 2;
    }
    std::cout << "evobench " << options.workload << " seed " << options.seed
              << (options.trace ? " (traced)" : "") << ":\n"
              << run.table();
    return run.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "evobench: " << e.what() << "\n";
    return 2;
  }
}
