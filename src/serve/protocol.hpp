// serve/protocol.hpp — the JSON-lines wire protocol of efserve (v1 + v2).
//
// One request per line, one response per line, many requests in flight per
// connection (the reactor answers strictly in request order). Requests are
// flat JSON objects, read field by field with the pull tokenizer of
// util/json.hpp (no intermediate DOM); replies are built with its Writer.
// Anything malformed is rejected loudly — an ok=false response, never a
// crash or a silent default.
//
// Error precedence is part of the contract: the whole line is read first,
// so a syntax error anywhere beats a field error; among field errors "id"
// and "v" come first, then the rest in sorted key order; and the id is
// echoed even when it comes after the bad field.
//
// Request fields (see docs/API.md for the full verb/field matrix):
//   "cmd"     : "predict" (default) | "ping" | "models" | "stats" |
//               "metrics" | "events" | "trace" | "observe" | "quality"
//   "v"       : protocol version, 1 or 2 (default 1)
//   "id"      : string or number, echoed in the response    [v2]
//   "model"   : model name (default "default"; for "quality" omitting it
//               means every tracked model)
//   "window"  : array of numbers, most recent value last    [predict]
//   "horizon" : integer >= 1 (default 1)                    [predict]
//   "agg"     : "mean" | "fitness_weighted" | "median" |
//               "best_rule" | "inverse_error" (default "mean")
//   "cache"   : boolean (default true)                      [predict]
//   "value"   : number — the realized value (required)      [observe]
//   "t"       : integer >= 0 observation tick; omitted =
//               the model's current tick + 1                [observe]
//
// Versioning: a request carrying "v":2 — or an "id", which implies v2 —
// gets a v2 response: `"v":2` and the echoed `"id"` immediately after
// "ok", and errors as a structured envelope with a stable machine-readable
// code. Requests with neither field get byte-identical v1 responses, so
// existing clients never see a changed byte.
//
// v1 predict : {"ok":true,"model":...,"version":N,"horizon":N,
//              "abstain":false,"value":V,"votes":N,"cached":false}
// v2 predict : {"ok":true,"v":2,"id":7,"model":...}           (rest as v1),
//              plus "interval":[V-e,V+e] after "value" when the forecast
//              carries an error bound (never on abstention; v1 stays
//              byte-identical and never gains the field)
// v1 error   : {"ok":false,"error":"reason"}
// v2 error   : {"ok":false,"v":2,"id":7,
//              "error":{"code":"unknown_model","message":"reason"}}
// Abstention: same envelope with "abstain":true and no "value" field —
//   abstentions are explicit, per the paper's coverage semantics.
// Numbers are %.17g; a non-finite result (a finite window can still
// overflow a rule's hyperplane) is written as null, in "value" and in the
// "interval" ends alike, so every reply is valid JSON.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "serve/error.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"

namespace ef::serve {

/// Wire-level request: service PredictRequest plus the non-predict commands
/// and the protocol-v2 envelope fields.
struct Request {
  enum class Cmd {
    kPredict,
    kPing,
    kModels,
    kStats,
    kMetrics,
    kEvents,
    kTrace,
    kObserve,
    kQuality,
  };
  Cmd cmd = Cmd::kPredict;
  PredictRequest predict;
  /// "observe" payload: the realized value and its optional explicit tick.
  struct ObserveFields {
    double value = 0.0;
    std::optional<std::uint64_t> t;
  };
  ObserveFields observe;
  /// Whether the request carried an explicit "model" — "quality" without
  /// one reports every tracked model.
  bool has_model = false;
  /// Response envelope version: 2 when the request carried "v":2 or an "id".
  int version = 1;
  /// The request's "id", pre-serialised for verbatim echo ("\"abc\"", "17");
  /// empty = no id.
  std::string id_json;
};

/// Structured parse failure: a stable machine-readable code plus the
/// human-readable reason. The envelope (version/id) is best-effort — when
/// the id was parsed before the failure it is echoed even on errors.
struct ProtocolError {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
  int version = 1;
  std::string id_json;
};

/// Parse one JSON-lines request. Returns nullopt and fills `error` on
/// malformed input (bad JSON, wrong field types, unknown cmd/agg).
[[nodiscard]] std::optional<Request> parse_request(std::string_view line,
                                                   ProtocolError& error);

/// Starts a reply object: `{"ok":<ok>`, then for v2 `"v":2` and the echoed
/// id. Callers add their fields and close the object. The writer's buffer
/// is reserved for a whole predict reply, so one is built in one allocation.
[[nodiscard]] json::Writer reply(bool ok, int version, std::string_view id_json);
[[nodiscard]] inline json::Writer reply(bool ok, const Request& request) {
  return reply(ok, request.version, request.id_json);
}

/// Serialise a predict response under the request's envelope (one line, no
/// trailing newline). ok=false responses route through the error envelope
/// using the response's code.
[[nodiscard]] std::string to_json(const PredictResponse& response,
                                  const Request& request);
/// v1 serialisation (in-process callers, tests).
[[nodiscard]] std::string to_json(const PredictResponse& response);

/// Error-envelope helpers. The v1 form keeps the pre-v2 bare-string bytes;
/// the coded form emits the structured envelope when version >= 2.
[[nodiscard]] std::string error_json(std::string_view reason);
[[nodiscard]] std::string error_json(ErrorCode code, std::string_view reason,
                                     int version = 1, std::string_view id_json = {});
[[nodiscard]] inline std::string error_json(const ProtocolError& error) {
  return error_json(error.code, error.message, error.version, error.id_json);
}

/// JSON string escaping by the writer's string rule (json::append_escaped).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Parse an aggregation name as used by the protocol ("mean", "median", …).
[[nodiscard]] std::optional<core::Aggregation> parse_aggregation(std::string_view name);

}  // namespace ef::serve
