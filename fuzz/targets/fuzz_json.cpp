// libFuzzer target: util/json parse → dump → parse round trip.
#include "harness/harness.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  return ef::fuzz::json_roundtrip(data, size);
}
