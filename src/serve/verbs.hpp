// serve/verbs.hpp — one request line in, one reply line out, no sockets.
//
// The reactor (serve/reactor.hpp) owns framing and transport; everything
// between the bytes of a request line and the bytes of its reply lives
// here, so every verb's reply can be tested by calling a function:
//
//   predict                       → ForecastService::predict + to_json
//   ping, models, stats, metrics,
//   events, trace, observe,
//   quality                       → handle_verb
//
// Replies are built with the one JSON writer (util/json.hpp), under the
// request's v1/v2 envelope (serve/protocol.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace ef::serve {

/// The reply (one line, no newline) to one request line: a parse error, a
/// forecast, or a verb. `connections` is what "stats" reports as the
/// transport's connection count.
[[nodiscard]] std::string handle_line(ForecastService& service, std::string_view line,
                                      std::uint64_t connections);

/// The reply to a parsed non-predict request.
[[nodiscard]] std::string handle_verb(ForecastService& service, const Request& request,
                                      std::uint64_t connections);

}  // namespace ef::serve
