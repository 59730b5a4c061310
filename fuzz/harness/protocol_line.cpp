#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace ef::fuzz {
namespace {

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "protocol_line invariant violated: %s\n", what.c_str());
  std::abort();
}

}  // namespace

int protocol_line(const std::uint8_t* data, std::size_t size) {
  const std::string_view line(reinterpret_cast<const char*>(data), size);
  serve::ProtocolError error;
  const std::optional<serve::Request> request = serve::parse_request(line, error);
  if (!request && error.message.empty()) die("rejection without an error message");
  if (!request && error.code == serve::ErrorCode::kNone) die("rejection without an error code");

  // The request parser and the DOM parser share one tokenizer, so they must
  // share one grammar: a syntax error for one is the same syntax error for
  // the other, and nothing else is.
  std::string dom_error;
  const bool dom_ok = json::parse(line, dom_error).has_value();
  const bool bad_json = !request && error.code == serve::ErrorCode::kBadJson;
  if (dom_ok == bad_json) {
    die(std::string("json::parse ") + (dom_ok ? "accepts" : "rejects") +
        " a line parse_request answers with " + error.message);
  }
  if (bad_json && error.message != "bad JSON: " + dom_error) {
    die("syntax errors differ: '" + error.message + "' vs '" + dom_error + "'");
  }

  // Whatever the parse produced, the server answers with protocol JSON. The
  // error envelope quotes the (hostile) error text — and under v2 echoes the
  // hostile id verbatim — so it must survive its own escaping: efstat and
  // the smoke harness parse these lines with the same strict parser.
  const std::string envelope =
      request ? serve::error_json(serve::ErrorCode::kInternal, "fuzz", request->version,
                                  request->id_json)
              : serve::error_json(error);
  std::string parse_error;
  if (!json::parse(envelope, parse_error)) {
    die("error envelope is not valid protocol JSON: " + parse_error + ": " + envelope);
  }

  if (request && request->cmd == serve::Request::Cmd::kPredict) {
    // A parsed predict request has validated fields; horizon fits size_t
    // and the window holds only finite doubles (the JSON layer rejects
    // non-finite numbers).
    if (request->predict.horizon < 1) die("parsed horizon < 1");
    for (const double v : request->predict.window) {
      if (!std::isfinite(v)) die("non-finite window value accepted");
    }
    if (request->version != 1 && request->version != 2) die("parsed version not 1 or 2");
    if (request->version == 1 && !request->id_json.empty()) die("id without v2 envelope");
  }
  return 0;
}

}  // namespace ef::fuzz
