// Wire-protocol hardening: the grammar edge cases a public TCP port sees
// (duplicate keys, overflowing numbers, deep nesting) as parse_request
// reports them, error precedence, the metrics/events observability verbs,
// the v2 envelope (id echo, structured error codes, v1 byte-compatibility)
// and valid JSON for non-finite forecasts. The JSON tokenizer and writer
// themselves are covered in test_json.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/interval.hpp"
#include "core/rule.hpp"
#include "core/rule_system.hpp"
#include "serve/model_store.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"

namespace {

using ef::serve::ErrorCode;
using ef::serve::ProtocolError;
using ef::serve::Request;
using ef::serve::parse_request;

// --- parse_request --------------------------------------------------------

TEST(ParseRequest, PredictFieldsRoundTrip) {
  ProtocolError error;
  const auto request = parse_request(
      R"({"cmd":"predict","model":"m1","window":[1.0,2.0,3.0],"horizon":4,"agg":"median","cache":false})",
      error);
  ASSERT_TRUE(request.has_value()) << error.message;
  EXPECT_EQ(request->cmd, Request::Cmd::kPredict);
  EXPECT_EQ(request->version, 1);
  EXPECT_TRUE(request->id_json.empty());
  EXPECT_EQ(request->predict.model, "m1");
  ASSERT_EQ(request->predict.window.size(), 3u);
  EXPECT_EQ(request->predict.horizon, 4u);
  EXPECT_FALSE(request->predict.use_cache);
}

TEST(ParseRequest, MetricsAndEventsVerbs) {
  ProtocolError error;
  const auto metrics = parse_request(R"({"cmd":"metrics"})", error);
  ASSERT_TRUE(metrics.has_value()) << error.message;
  EXPECT_EQ(metrics->cmd, Request::Cmd::kMetrics);

  const auto events = parse_request(R"({"cmd":"events"})", error);
  ASSERT_TRUE(events.has_value()) << error.message;
  EXPECT_EQ(events->cmd, Request::Cmd::kEvents);

  const auto trace = parse_request(R"({"cmd":"trace"})", error);
  ASSERT_TRUE(trace.has_value()) << error.message;
  EXPECT_EQ(trace->cmd, Request::Cmd::kTrace);
}

TEST(ParseRequest, DuplicateKeysAreAnError) {
  ProtocolError error;
  EXPECT_FALSE(parse_request(R"({"horizon":1,"horizon":2})", error).has_value());
  EXPECT_NE(error.message.find("duplicate"), std::string::npos) << error.message;
  EXPECT_EQ(error.code, ErrorCode::kBadJson);
}

TEST(ParseRequest, OverflowingNumberIsAnError) {
  ProtocolError error;
  EXPECT_FALSE(parse_request(R"({"window":[1e999]})", error).has_value());
  EXPECT_EQ(error.code, ErrorCode::kBadJson);
}

TEST(ParseRequest, DeepNestingIsAnError) {
  std::string deep = R"({"window":)";
  for (int i = 0; i < 20; ++i) deep += '[';
  deep += '1';
  for (int i = 0; i < 20; ++i) deep += ']';
  deep += '}';
  ProtocolError error;
  EXPECT_FALSE(parse_request(deep, error).has_value());
  EXPECT_FALSE(error.message.empty());
}

TEST(ParseRequest, UnknownCmdIsAnError) {
  ProtocolError error;
  EXPECT_FALSE(parse_request(R"({"cmd":"reboot"})", error).has_value());
  EXPECT_NE(error.message.find("cmd"), std::string::npos) << error.message;
  EXPECT_EQ(error.code, ErrorCode::kUnknownCmd);
}


// --- protocol v2 envelope -------------------------------------------------

TEST(ProtocolV2, ExplicitVersionAndStringIdEcho) {
  ProtocolError error;
  const auto request =
      parse_request(R"({"cmd":"ping","v":2,"id":"req-1"})", error);
  ASSERT_TRUE(request.has_value()) << error.message;
  EXPECT_EQ(request->version, 2);
  EXPECT_EQ(request->id_json, "\"req-1\"");
  EXPECT_EQ(ef::serve::reply(true, *request).end_object().take(),
            R"({"ok":true,"v":2,"id":"req-1"})");
}

TEST(ProtocolV2, IdAloneImpliesVersion2) {
  ProtocolError error;
  const auto request = parse_request(R"({"cmd":"ping","id":17})", error);
  ASSERT_TRUE(request.has_value()) << error.message;
  EXPECT_EQ(request->version, 2);
  EXPECT_EQ(request->id_json, "17");
}

TEST(ProtocolV2, IdImpliesVersion2RegardlessOfKeyOrder) {
  // A later "v":1 key must not undo the id-implies-v2 upgrade: both key
  // orders yield the same v2 response with the id echoed.
  ProtocolError error;
  const auto id_first = parse_request(R"({"id":7,"v":1,"cmd":"ping"})", error);
  ASSERT_TRUE(id_first.has_value()) << error.message;
  EXPECT_EQ(id_first->version, 2);
  EXPECT_EQ(id_first->id_json, "7");

  const auto v_first = parse_request(R"({"v":1,"id":7,"cmd":"ping"})", error);
  ASSERT_TRUE(v_first.has_value()) << error.message;
  EXPECT_EQ(v_first->version, 2);
  EXPECT_EQ(v_first->id_json, "7");
}

TEST(ProtocolV2, Version1StaysV1) {
  ProtocolError error;
  const auto request = parse_request(R"({"cmd":"ping","v":1})", error);
  ASSERT_TRUE(request.has_value()) << error.message;
  EXPECT_EQ(request->version, 1);
  EXPECT_EQ(ef::serve::reply(true, *request).end_object().take(), R"({"ok":true})");
}

TEST(ProtocolV2, RejectsUnknownVersionAndBadIds) {
  ProtocolError error;
  EXPECT_FALSE(parse_request(R"({"cmd":"ping","v":3})", error).has_value());
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);

  error = {};
  EXPECT_FALSE(parse_request(R"({"cmd":"ping","v":1.5})", error).has_value());
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);

  error = {};
  EXPECT_FALSE(parse_request(R"({"cmd":"ping","id":true})", error).has_value());
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);

  // An id over the 256-byte cap is refused, not truncated.
  error = {};
  const std::string big(300, 'x');
  EXPECT_FALSE(
      parse_request(R"({"cmd":"ping","id":")" + big + R"("})", error).has_value());
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
}

TEST(ProtocolV2, ErrorsEchoEnvelopeParsedBeforeFailure) {
  // The envelope pass runs first, so a later field error still echoes the id.
  ProtocolError error;
  EXPECT_FALSE(
      parse_request(R"({"id":"a","window":[0.1],"horizon":0})", error).has_value());
  EXPECT_EQ(error.version, 2);
  EXPECT_EQ(error.id_json, "\"a\"");
  const std::string line = ef::serve::error_json(error);
  EXPECT_NE(line.find(R"("v":2)"), std::string::npos) << line;
  EXPECT_NE(line.find(R"("id":"a")"), std::string::npos) << line;
  EXPECT_NE(line.find(R"("error":{"code":")"), std::string::npos) << line;
}

TEST(ProtocolV2, ErrorJsonV1BytesUnchanged) {
  // v1 errors keep the exact pre-v2 bare-string shape.
  EXPECT_EQ(ef::serve::error_json("nope"), R"({"ok":false,"error":"nope"})");
  EXPECT_EQ(ef::serve::error_json(ErrorCode::kUnknownModel, "nope", 1),
            R"({"ok":false,"error":"nope"})");
  EXPECT_EQ(ef::serve::error_json(ErrorCode::kUnknownModel, "nope", 2, "3"),
            R"({"ok":false,"v":2,"id":3,"error":{"code":"unknown_model","message":"nope"}})");
}

TEST(ProtocolV2, PredictResponseCarriesEnvelope) {
  ef::serve::PredictResponse ok;
  ok.ok = true;
  ok.model = "m";
  ok.version = 3;
  ok.horizon = 1;
  ok.value = 0.5;
  ok.votes = 2;

  Request v1;
  EXPECT_EQ(ef::serve::to_json(ok, v1), ef::serve::to_json(ok))
      << "v1 responses must stay byte-identical";

  Request v2;
  v2.version = 2;
  v2.id_json = "\"r\"";
  const std::string line = ef::serve::to_json(ok, v2);
  EXPECT_EQ(line.rfind(R"({"ok":true,"v":2,"id":"r",)", 0), 0u) << line;

  ef::serve::PredictResponse bad;
  bad.ok = false;
  bad.code = ErrorCode::kUnknownModel;
  bad.error = "unknown model";
  const std::string error_line = ef::serve::to_json(bad, v2);
  EXPECT_NE(error_line.find(R"("error":{"code":"unknown_model")"), std::string::npos)
      << error_line;
  EXPECT_EQ(ef::serve::to_json(bad, v1), R"({"ok":false,"error":"unknown model"})");
}

TEST(ParseRequest, ObserveVerbRoundTrip) {
  ProtocolError error;
  const auto request =
      parse_request(R"({"cmd":"observe","model":"demo","value":1.5})", error);
  ASSERT_TRUE(request.has_value()) << error.message;
  EXPECT_EQ(request->cmd, Request::Cmd::kObserve);
  EXPECT_TRUE(request->has_model);
  EXPECT_EQ(request->predict.model, "demo");
  EXPECT_DOUBLE_EQ(request->observe.value, 1.5);
  EXPECT_FALSE(request->observe.t.has_value());

  const auto with_tick =
      parse_request(R"({"cmd":"observe","value":-2.25,"t":7})", error);
  ASSERT_TRUE(with_tick.has_value()) << error.message;
  EXPECT_DOUBLE_EQ(with_tick->observe.value, -2.25);
  ASSERT_TRUE(with_tick->observe.t.has_value());
  EXPECT_EQ(*with_tick->observe.t, 7u);
  // Model defaults like predict: omitted means "default".
  EXPECT_FALSE(with_tick->has_model);
}

TEST(ParseRequest, ObserveRequiresValue) {
  ProtocolError error;
  EXPECT_FALSE(parse_request(R"({"cmd":"observe","model":"m"})", error).has_value());
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  EXPECT_NE(error.message.find("value"), std::string::npos) << error.message;
}

TEST(ParseRequest, ValueAndTickBelongToObserveAlone) {
  // An actual silently attached to another verb would be a lost
  // observation, so it fails loudly on every other cmd.
  ProtocolError error;
  EXPECT_FALSE(parse_request(R"({"window":[0.1],"value":1.0})", error).has_value());
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  EXPECT_FALSE(parse_request(R"({"cmd":"ping","t":3})", error).has_value());
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
}

TEST(ParseRequest, ObserveRejectsMalformedValueAndTick) {
  ProtocolError error;
  EXPECT_FALSE(parse_request(R"({"cmd":"observe","value":"x"})", error).has_value());
  EXPECT_FALSE(parse_request(R"({"cmd":"observe","value":1.0,"t":-1})", error).has_value());
  EXPECT_FALSE(
      parse_request(R"({"cmd":"observe","value":1.0,"t":1.5})", error).has_value());
  EXPECT_FALSE(
      parse_request(R"({"cmd":"observe","value":1.0,"t":1e16})", error).has_value());
}

TEST(ParseRequest, QualityVerbOptionallyFiltersByModel) {
  ProtocolError error;
  const auto all = parse_request(R"({"cmd":"quality"})", error);
  ASSERT_TRUE(all.has_value()) << error.message;
  EXPECT_EQ(all->cmd, Request::Cmd::kQuality);
  EXPECT_FALSE(all->has_model);

  const auto one = parse_request(R"({"cmd":"quality","model":"demo"})", error);
  ASSERT_TRUE(one.has_value()) << error.message;
  EXPECT_TRUE(one->has_model);
  EXPECT_EQ(one->predict.model, "demo");
}

TEST(ProtocolV2, IntervalOnlyOnCoveredV2Responses) {
  ef::serve::PredictResponse response;
  response.ok = true;
  response.model = "m";
  response.version = 1;
  response.horizon = 1;
  response.value = 0.5;
  response.votes = 3;
  response.bound = 0.25;

  // v1 stays byte-compatible: no interval field, ever.
  Request v1;
  EXPECT_EQ(ef::serve::to_json(response, v1).find("interval"), std::string::npos);

  Request v2;
  v2.version = 2;
  const std::string line = ef::serve::to_json(response, v2);
  EXPECT_NE(line.find(R"("value":0.5,"interval":[0.25,0.75])"), std::string::npos)
      << line;

  // No bound (abstention-adjacent paths, multi-step chains): no interval.
  response.bound = -1.0;
  EXPECT_EQ(ef::serve::to_json(response, v2).find("interval"), std::string::npos);

  // Abstentions carry neither value nor interval, whatever the bound says.
  response.abstain = true;
  response.bound = 0.25;
  const std::string abstain_line = ef::serve::to_json(response, v2);
  EXPECT_EQ(abstain_line.find("interval"), std::string::npos) << abstain_line;
  EXPECT_EQ(abstain_line.find("\"value\""), std::string::npos) << abstain_line;
}

// --- error precedence -----------------------------------------------------

TEST(ParseRequest, ErrorPrecedenceTable) {
  // The whole line is read before any error is reported: a syntax error
  // anywhere beats a field error, "id"/"v" rank before other fields, the
  // rest report in sorted key order, and a later id is still echoed.
  struct Row {
    const char* line;
    const char* reply;
  };
  const Row rows[] = {
      {R"({"zzz":1,"cmd":"nope"})", R"({"ok":false,"error":"unknown cmd 'nope'"})"},
      {R"({"window":"x","agg":"bad"})",
       R"({"ok":false,"error":"\"agg\" must be one of mean|fitness_weighted|median|best_rule|inverse_error"})"},
      {R"({"cmd":5,"horizon":)",
       R"({"ok":false,"error":"bad JSON: unexpected end of input at byte 19"})"},
      {R"({"window":"x","id":"late"})",
       R"({"ok":false,"v":2,"id":"late","error":{"code":"bad_request","message":"\"window\" must be an array of numbers"}})"},
      {R"({"zz":1,"zz":2,"cmd":"nope"})",
       R"({"ok":false,"error":"bad JSON: duplicate key \"zz\" at byte 13"})"},
      {R"([1,2])", R"({"ok":false,"error":"request must be a JSON object"})"},
      {R"([1,2)", R"({"ok":false,"error":"bad JSON: unexpected end of input at byte 4"})"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.line);
    ProtocolError error;
    EXPECT_FALSE(parse_request(row.line, error).has_value());
    EXPECT_EQ(ef::serve::error_json(error), row.reply);
  }
}

// --- non-finite forecasts ---------------------------------------------------

TEST(ProtocolV2, NonFiniteForecastIsNullAndTheReplyStaysValidJson) {
  // One all-wildcard D=2 rule y = x1 + x2: a finite window of two 1e308s
  // overflows the hyperplane to inf, which JSON cannot spell.
  ef::core::Rule rule({ef::core::Interval::wildcard(), ef::core::Interval::wildcard()});
  ef::core::PredictingPart part;
  part.fit.coeffs = {1.0, 1.0, 0.0};
  part.fit.max_abs_residual = 0.5;
  part.matches = 5;
  part.fitness = 1.0;
  rule.set_predicting(part);
  ef::core::RuleSystem system;
  system.add_rules({rule}, false, -1.0);
  ef::serve::ModelStore store;
  store.add_system("m", std::move(system));
  ef::serve::ForecastService service(store);

  const struct {
    const char* line;
    const char* reply;
  } cases[] = {
      {R"({"model":"m","window":[1e308,1e308]})",
       R"({"ok":true,"model":"m","version":1,"horizon":1,"abstain":false,"value":null,"votes":1,"cached":false})"},
      {R"({"model":"m","window":[1e308,1e308],"v":2,"cache":false})",
       R"({"ok":true,"v":2,"model":"m","version":1,"horizon":1,"abstain":false,"value":null,"interval":[null,null],"votes":1,"cached":false})"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.line);
    ProtocolError error;
    const auto request = parse_request(c.line, error);
    ASSERT_TRUE(request.has_value()) << error.message;
    const ef::serve::PredictResponse response = service.predict(request->predict);
    ASSERT_TRUE(response.ok) << response.error;
    ASSERT_FALSE(response.abstain);
    EXPECT_TRUE(std::isinf(response.value));
    const std::string reply = ef::serve::to_json(response, *request);
    EXPECT_EQ(reply, c.reply);
    std::string parse_error;
    EXPECT_TRUE(ef::json::parse(reply, parse_error).has_value()) << parse_error;
  }
}

}  // namespace
