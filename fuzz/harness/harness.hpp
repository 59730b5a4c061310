// fuzz/harness/harness.hpp — the fuzz entry points, compiler-agnostic.
//
// Each function has the libFuzzer contract (return 0, abort() on an invariant
// violation) but a plain name, so the same code drives three consumers:
//
//   * the libFuzzer binaries (fuzz/targets/fuzz_*.cpp) under Clang with
//     -fsanitize=fuzzer,address,undefined,
//   * the standalone replayer (fuzz/replay_main.cpp) for reproducing a crash
//     artifact on any compiler,
//   * the corpus-replay gtest (tests/test_fuzz_corpus.cpp) that runs every
//     committed seed on every build, fuzzer-capable or not.
//
// Harnesses must be deterministic and leak-free per call: libFuzzer runs
// them millions of times in-process and LeakSanitizer attributes any growth
// to the harness.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ef::fuzz {

/// util/json.hpp: parse → dump → parse must be a fixed point, and every
/// rejection must carry a reason.
int json_roundtrip(const std::uint8_t* data, std::size_t size);

/// core::RuleSystem::load on hostile .efr bytes: throws std::runtime_error
/// or yields a system that survives save/load and a forecast, and whose
/// compiled single-window forecast equals a scalar vote written out in the
/// harness.
int efr_load(const std::uint8_t* data, std::size_t size);

/// fleet::FleetReader::from_bytes on hostile .efr v2 container bytes: throws
/// std::runtime_error, or yields a validated index (strictly sorted,
/// binary-search self-consistent) whose materialisable models survive a v1
/// save/load round-trip and a forecast.
int efr2_load(const std::uint8_t* data, std::size_t size);

/// serve::parse_request on one JSON-lines request; the error envelope built
/// from any parse failure must itself be valid protocol JSON, and
/// json::parse must reject the line exactly when parse_request answers
/// bad_json, with the same reason (one tokenizer, one grammar).
int protocol_line(const std::uint8_t* data, std::size_t size);

/// series::read_series_csv on hostile CSV bytes: parses or throws
/// std::runtime_error, never crashes or hangs.
int csv_load(const std::uint8_t* data, std::size_t size);

}  // namespace ef::fuzz
