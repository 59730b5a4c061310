// obs/build_info.hpp — provenance stamp for reports, baselines and the
// Prometheus exposition.
//
// A benchmark number without its build context is noise: the BENCH_*.json
// trajectory only means something if each point records which commit,
// compiler and build type produced it, and which EVOFORECAST_* knobs were
// set in the environment. build_info() captures all of that once per
// process; the JSON form is embedded in every --metrics-json dump and the
// label form becomes the `build_info` gauge of the /metrics exposition.
//
// The git commit and build type are baked in at CMake configure time
// (EVOFORECAST_GIT_COMMIT / EVOFORECAST_BUILD_TYPE compile definitions), so
// they go stale only until the next reconfigure; the environment is read at
// first call.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace ef::obs {

struct BuildInfo {
  std::string git_commit;  ///< short hash at configure time; "unknown" outside git
  std::string compiler;    ///< compiler id + version the library was built with
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  bool obs_enabled = true; ///< EVOFORECAST_OBS at build time
  /// EVOFORECAST_* environment variables at first call, sorted by name.
  std::vector<std::pair<std::string, std::string>> env;
};

/// Process-wide build metadata (captured once, immutable afterwards).
[[nodiscard]] const BuildInfo& build_info();

/// The same data as one JSON object (no trailing newline), e.g.
/// {"git_commit":"abc","compiler":"gcc 12.2.0","build_type":"Release",
///  "obs_enabled":true,"env":{"EVOFORECAST_MATCH_CPU":"baseline"}}
[[nodiscard]] std::string build_info_json();

}  // namespace ef::obs
