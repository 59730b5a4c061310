#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "util/json.hpp"

namespace ef::fuzz {
namespace {

[[noreturn]] void die(const char* what, const std::string& detail) {
  std::fprintf(stderr, "json_roundtrip invariant violated: %s: %s\n", what, detail.c_str());
  std::abort();
}

}  // namespace

int json_roundtrip(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  std::string error;
  const std::optional<json::Value> value = json::parse(text, error);
  if (!value) {
    // A rejection with no reason would leave protocol clients with an
    // unexplained failure.
    if (error.empty()) die("parse failed without an error message", std::string(text));
    return 0;
  }

  // dump() must emit text the parser accepts back, and a second round trip
  // must be byte-identical (dump is a fixed point over parsed values).
  const std::string once = json::dump(*value);
  std::string error2;
  const std::optional<json::Value> reparsed = json::parse(once, error2);
  if (!reparsed) die(("dump output rejected by parse: " + error2).c_str(), once);
  const std::string twice = json::dump(*reparsed);
  if (once != twice) die("dump/parse/dump not a fixed point", once + " vs " + twice);
  return 0;
}

}  // namespace ef::fuzz
