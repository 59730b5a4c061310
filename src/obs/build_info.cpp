#include "obs/build_info.hpp"

#include <algorithm>
#include <cstring>

#include "util/json.hpp"

#ifndef EVOFORECAST_GIT_COMMIT
#define EVOFORECAST_GIT_COMMIT "unknown"
#endif
#ifndef EVOFORECAST_BUILD_TYPE
#define EVOFORECAST_BUILD_TYPE "unknown"
#endif
#ifndef EVOFORECAST_OBS_ENABLED
#define EVOFORECAST_OBS_ENABLED 1
#endif

#if defined(__unix__) || defined(__APPLE__)
extern "C" char** environ;
#define EVOFORECAST_HAVE_ENVIRON 1
#else
#define EVOFORECAST_HAVE_ENVIRON 0
#endif

namespace ef::obs {
namespace {

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#elif defined(_MSC_VER)
  return "msvc " + std::to_string(_MSC_VER);
#else
  return "unknown";
#endif
}

BuildInfo capture() {
  BuildInfo info;
  info.git_commit = EVOFORECAST_GIT_COMMIT;
  info.compiler = compiler_id();
  info.build_type = EVOFORECAST_BUILD_TYPE;
  info.obs_enabled = EVOFORECAST_OBS_ENABLED != 0;
#if EVOFORECAST_HAVE_ENVIRON
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const char* entry = *e;
    if (std::strncmp(entry, "EVOFORECAST_", 12) != 0) continue;
    const char* eq = std::strchr(entry, '=');
    if (!eq) continue;
    info.env.emplace_back(std::string(entry, eq), std::string(eq + 1));
  }
  std::sort(info.env.begin(), info.env.end());
#endif
  return info;
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info = capture();
  return info;
}

std::string build_info_json() {
  const BuildInfo& info = build_info();
  json::Writer out;
  out.begin_object();
  out.key("git_commit").value(info.git_commit);
  out.key("compiler").value(info.compiler);
  out.key("build_type").value(info.build_type);
  out.key("obs_enabled").value(info.obs_enabled);
  out.key("env").begin_object();
  for (const auto& [key, value] : info.env) out.key(key).value(value);
  return out.end_object().end_object().take();
}

}  // namespace ef::obs
