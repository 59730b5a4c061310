#include "serve/protocol.hpp"

#include <cmath>

namespace ef::serve {
namespace {

using Type = json::Reader::Type;

/// Ids are echoed verbatim into every response for this request, so keep
/// them small enough that the echo can never dominate a response line.
constexpr std::size_t kMaxIdBytes = 256;

/// Window capacity taken up front, so a window of the paper's widths (up to
/// 24 lags) is read with one allocation; longer windows grow as usual.
constexpr std::size_t kWindowReserve = 32;

/// The field error a request is answered with: of all the fields that fail,
/// "id"/"v" (the envelope) rank first, then the rest in sorted key order.
/// Keys are unique (the reader rejects duplicates), so the rank is total.
struct FieldError {
  ErrorCode code = ErrorCode::kNone;  ///< kNone: no field failed
  bool envelope = false;
  std::string key;
  std::string message;

  void note(std::string_view field, ErrorCode field_code, std::string field_message) {
    const bool is_envelope = field == "id" || field == "v";
    if (code != ErrorCode::kNone && (envelope != is_envelope ? envelope : key < field)) return;
    envelope = is_envelope;
    key = field;
    code = field_code;
    message = std::move(field_message);
  }
};

std::optional<Request::Cmd> parse_cmd(std::string_view name) {
  using Cmd = Request::Cmd;
  static constexpr std::pair<std::string_view, Cmd> kCmds[] = {
      {"predict", Cmd::kPredict}, {"ping", Cmd::kPing},       {"models", Cmd::kModels},
      {"stats", Cmd::kStats},     {"metrics", Cmd::kMetrics}, {"events", Cmd::kEvents},
      {"trace", Cmd::kTrace},     {"observe", Cmd::kObserve}, {"quality", Cmd::kQuality},
  };
  for (const auto& [text, cmd] : kCmds) {
    if (name == text) return cmd;
  }
  return std::nullopt;
}

}  // namespace

std::optional<core::Aggregation> parse_aggregation(std::string_view name) {
  using core::Aggregation;
  for (const Aggregation a :
       {Aggregation::kMean, Aggregation::kFitnessWeighted, Aggregation::kMedian,
        Aggregation::kBestRule, Aggregation::kInverseError}) {
    if (name == core::to_string(a)) return a;
  }
  return std::nullopt;
}

std::optional<Request> parse_request(std::string_view line, ProtocolError& error) {
  error = {};
  const auto fail = [&error](ErrorCode code, std::string message) {
    error.code = code;
    error.message = std::move(message);
    return std::nullopt;
  };

  // Read every field to the end of the line, remembering only the error
  // that ranks first: a syntax error anywhere still wins.
  json::Reader in(line);
  Request request;
  FieldError field_error;
  bool saw_id = false;
  bool saw_value = false;
  try {
    const Type top = in.value();
    if (top != Type::kObject) {
      in.skip(top);
      in.finish();
      return fail(ErrorCode::kBadRequest, "request must be a JSON object");
    }
    std::string key;
    while (in.next_key()) {
      key.assign(in.text());
      const Type v = in.value();
      // A value of the wrong type: note the error, read past the value.
      const auto reject = [&](ErrorCode code, std::string message) {
        field_error.note(key, code, std::move(message));
        in.skip(v);
      };
      const double num = in.number();  // meaningful when v is kNumber
      if (key == "v") {
        if (v == Type::kNumber && (num == 1.0 || num == 2.0)) {
          request.version = static_cast<int>(num);
        } else {
          reject(ErrorCode::kBadRequest, "\"v\" must be 1 or 2");
        }
      } else if (key == "id") {
        if (v == Type::kString && in.text().size() > kMaxIdBytes) {
          reject(ErrorCode::kBadRequest, "\"id\" exceeds 256 bytes");
        } else if (v == Type::kString || v == Type::kNumber) {
          json::Writer id;
          request.id_json = (v == Type::kString ? id.value(in.text()) : id.value(num)).take();
          saw_id = true;
        } else {
          reject(ErrorCode::kBadRequest, "\"id\" must be a string or a number");
        }
      } else if (key == "cmd") {
        const auto cmd = v == Type::kString ? parse_cmd(in.text()) : std::nullopt;
        if (cmd) {
          request.cmd = *cmd;
        } else if (v == Type::kString) {
          reject(ErrorCode::kUnknownCmd, "unknown cmd '" + std::string(in.text()) + "'");
        } else {
          reject(ErrorCode::kBadRequest, "\"cmd\" must be a string");
        }
      } else if (key == "model") {
        if (v == Type::kString) {
          request.predict.model = in.text();
          request.has_model = true;
        } else {
          reject(ErrorCode::kBadRequest, "\"model\" must be a string");
        }
      } else if (key == "value") {
        if (v == Type::kNumber) {  // the reader admits only finite numbers
          request.observe.value = num;
          saw_value = true;
        } else {
          reject(ErrorCode::kBadRequest, "\"value\" must be a finite number");
        }
      } else if (key == "t") {
        if (v == Type::kNumber && num >= 0.0 && num == std::floor(num) && num <= 1.0e15) {
          request.observe.t = static_cast<std::uint64_t>(num);
        } else {
          reject(ErrorCode::kBadRequest, "\"t\" must be a non-negative integer");
        }
      } else if (key == "window") {
        if (v != Type::kArray) {
          reject(ErrorCode::kBadRequest, "\"window\" must be an array of numbers");
          continue;
        }
        std::vector<double>& window = request.predict.window;
        window.clear();
        window.reserve(kWindowReserve);
        bool numbers_only = true;
        while (in.next_element()) {
          const Type item = in.value();
          if (item == Type::kNumber) {
            window.push_back(in.number());
          } else {
            numbers_only = false;
            in.skip(item);
          }
        }
        if (!numbers_only) {
          field_error.note(key, ErrorCode::kBadRequest,
                           "\"window\" must contain only numbers");
        }
      } else if (key == "horizon") {
        if (v == Type::kNumber && num >= 1.0 && num == std::floor(num) && num <= 1.0e9) {
          request.predict.horizon = static_cast<std::size_t>(num);
        } else {
          reject(ErrorCode::kBadRequest, "\"horizon\" must be a positive integer");
        }
      } else if (key == "agg") {
        const auto agg = v == Type::kString ? parse_aggregation(in.text()) : std::nullopt;
        if (agg) {
          request.predict.agg = *agg;
        } else {
          reject(ErrorCode::kBadRequest, "\"agg\" must be one of mean|fitness_weighted|"
                                         "median|best_rule|inverse_error");
        }
      } else if (key == "cache") {
        if (v == Type::kTrue || v == Type::kFalse) {
          request.predict.use_cache = v == Type::kTrue;
        } else {
          reject(ErrorCode::kBadRequest, "\"cache\" must be a boolean");
        }
      } else {
        reject(ErrorCode::kUnknownField, "unknown field \"" + key + "\"");
      }
    }
    in.finish();
  } catch (const json::Error& e) {
    return fail(ErrorCode::kBadJson, std::string("bad JSON: ") + e.what());
  }

  // An id implies the v2 envelope regardless of key order — {"id":7,"v":1}
  // must not let the "v" key silently drop the echoed id.
  if (saw_id) request.version = 2;
  // A bad id or version leaves the reply in the default v1 envelope; any
  // other error echoes it, even an id that came after the bad field.
  if (!field_error.envelope) {
    error.version = request.version;
    error.id_json = request.id_json;
  }
  if (field_error.code != ErrorCode::kNone) {
    return fail(field_error.code, std::move(field_error.message));
  }

  // Cross-field validation: observe's payload fields belong to observe only,
  // and an observe without a realized value is meaningless.
  if (request.cmd == Request::Cmd::kObserve) {
    if (!saw_value) return fail(ErrorCode::kBadRequest, "observe requires \"value\"");
  } else if (saw_value || request.observe.t.has_value()) {
    return fail(ErrorCode::kBadRequest,
                "\"value\"/\"t\" are only valid with cmd \"observe\"");
  }
  return request;
}

std::string json_escape(std::string_view text) {
  std::string out;
  json::append_escaped(out, text);
  return out;
}

json::Writer reply(bool ok, int version, std::string_view id_json) {
  json::Writer out;
  out.begin_object().key("ok").value(ok);
  if (version >= 2) {
    out.key("v").value(2);
    if (!id_json.empty()) out.key("id").raw(id_json);
  }
  return out;
}

std::string error_json(std::string_view reason) {
  return error_json(ErrorCode::kNone, reason);
}

std::string error_json(ErrorCode code, std::string_view reason, int version,
                       std::string_view id_json) {
  json::Writer out = reply(false, version, id_json);
  out.key("error");
  if (version < 2) {
    out.value(reason);  // v1 keeps the bare-string shape
  } else {
    out.begin_object().key("code").value(to_string(code)).key("message").value(reason);
    out.end_object();
  }
  return out.end_object().take();
}

std::string to_json(const PredictResponse& response, const Request& request) {
  if (!response.ok) {
    return error_json(response.code, response.error, request.version, request.id_json);
  }
  json::Writer out = reply(true, request);
  out.key("model").value(response.model);
  out.key("version").value(response.version);
  out.key("horizon").value(response.horizon);
  out.key("abstain").value(response.abstain);
  if (!response.abstain) {
    out.key("value").value(response.value);
    // v2 only — v1 responses stay byte-identical to the pre-interval wire.
    if (request.version >= 2 && response.bound >= 0.0) {
      out.key("interval").begin_array();
      out.value(response.value - response.bound).value(response.value + response.bound);
      out.end_array();
    }
  }
  out.key("votes").value(response.votes);
  out.key("cached").value(response.cached);
  return out.end_object().take();
}

std::string to_json(const PredictResponse& response) {
  return to_json(response, Request{});
}

}  // namespace ef::serve
