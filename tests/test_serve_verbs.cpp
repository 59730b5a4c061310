// The verb handlers of serve/verbs.hpp, called without a socket: the exact
// reply bytes of every non-predict verb under the v1 and v2 envelopes. The
// loopback Reactor tests (test_serve_reactor.cpp) cover the transport.
#include "serve/verbs.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/interval.hpp"
#include "core/rule.hpp"
#include "core/rule_system.hpp"
#include "fleet/container.hpp"
#include "obs/events.hpp"
#include "obs/exposition.hpp"
#include "obs/timeline.hpp"
#include "obs/timeline_export.hpp"
#include "serve/model_store.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"

namespace {

using ef::core::Interval;
using ef::core::Rule;
using ef::core::RuleSystem;
using ef::serve::ForecastService;
using ef::serve::ModelStore;
using ef::serve::ServeOptions;

/// One rule covering [0,1]^2 that predicts the constant `value`.
RuleSystem constant_system(double value) {
  Rule rule({Interval(0.0, 1.0), Interval(0.0, 1.0)});
  ef::core::PredictingPart part;
  part.fit.coeffs = {0.0, 0.0, value};
  part.fit.mean_prediction = value;
  part.fit.max_abs_residual = 0.01;
  part.matches = 4;
  part.fitness = 2.0;
  rule.set_predicting(part);
  RuleSystem system;
  system.add_rules({rule}, false, -1.0);
  return system;
}

/// A store holding model "m" and the service over it.
struct Fixture {
  explicit Fixture(ServeOptions options = {})
      : service(add_model(store), std::move(options)) {}
  static ModelStore& add_model(ModelStore& s) {
    s.add_system("m", constant_system(0.5));
    return s;
  }
  std::string line(std::string_view request, std::uint64_t connections = 0) {
    return ef::serve::handle_line(service, request, connections);
  }
  ModelStore store;
  ForecastService service;
};

std::string number_text(double value) {
  std::string out;
  ef::json::append_number(out, value);
  return out;
}

TEST(ServeVerbs, Ping) {
  Fixture f;
  EXPECT_EQ(f.line(R"({"cmd":"ping"})"), R"({"ok":true,"pong":true})");
  EXPECT_EQ(f.line(R"({"cmd":"ping","id":"p"})"), R"({"ok":true,"v":2,"id":"p","pong":true})");
  EXPECT_EQ(f.line(R"({"cmd":"ping","v":2})"), R"({"ok":true,"v":2,"pong":true})");
}

TEST(ServeVerbs, ModelsWithoutContainer) {
  Fixture f;
  EXPECT_EQ(f.line(R"({"cmd":"models"})"),
            R"({"ok":true,"models":[{"name":"m","version":1,"rules":1,"window":2}]})");
  EXPECT_EQ(f.line(R"({"cmd":"models","id":9})"),
            R"({"ok":true,"v":2,"id":9,"models":[{"name":"m","version":1,"rules":1,"window":2}]})");
}

TEST(ServeVerbs, ModelsWithContainer) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "serve_verbs_models.efr2";
  {
    ef::fleet::FleetWriter writer;
    writer.add("aaa", constant_system(1.0));
    writer.add("b\"b", constant_system(2.0));
    writer.write_file(path.string());
  }
  Fixture f;
  f.store.attach_container(path.string());
  ASSERT_NE(f.store.get("aaa"), nullptr);  // materialises one series

  std::string container = R"("container":{"path":")";
  container += ef::serve::json_escape(path.string());
  container += R"(","generation":1,"bytes":)";
  container += std::to_string(std::filesystem::file_size(path));
  container += R"(,"materialized":1,"series_total":2,"series":["aaa","b\"b"]})";
  EXPECT_EQ(f.line(R"({"cmd":"models"})"),
            R"({"ok":true,"models":[{"name":"m","version":1,"rules":1,"window":2}],)" +
                container + "}");
  EXPECT_EQ(f.line(R"({"cmd":"models","v":2})"),
            R"({"ok":true,"v":2,"models":[{"name":"m","version":1,"rules":1,"window":2}],)" +
                container + "}");
  std::filesystem::remove(path);
}

TEST(ServeVerbs, StatsReportConnectionsAndCache) {
  Fixture f;
  EXPECT_EQ(f.line(R"({"model":"m","window":[0.5,0.5]})"),
            R"({"ok":true,"model":"m","version":1,"horizon":1,"abstain":false,"value":0.5,"votes":1,"cached":false})");
  EXPECT_EQ(f.line(R"({"cmd":"stats"})", 7),
            R"({"ok":true,"connections":7,"cache_hits":0,"cache_misses":1,"cache_entries":1,"cache_evictions":0})");
  EXPECT_EQ(f.line(R"({"cmd":"stats","id":"s"})", 8),
            R"({"ok":true,"v":2,"id":"s","connections":8,"cache_hits":0,"cache_misses":1,"cache_entries":1,"cache_evictions":0})");
}

TEST(ServeVerbs, EventsEmbedTheRecentRing) {
  Fixture f;
  ef::obs::EventLog::global().emit("test.serve_verbs", {{"name", "tab\there"}, {"x", 1.5}});
  std::string events;
  for (const ef::obs::Event& event : ef::obs::EventLog::global().recent()) {
    if (!events.empty()) events += ',';
    events += event.to_json();
  }
  const std::string dropped = std::to_string(ef::obs::EventLog::global().dropped());
  ASSERT_NE(events.find(R"("kind":"test.serve_verbs","name":"tab\there","x":1.5})"),
            std::string::npos)
      << events;
  EXPECT_EQ(f.line(R"({"cmd":"events"})"),
            R"({"ok":true,"dropped":)" + dropped + R"(,"events":[)" + events + "]}");
  EXPECT_EQ(f.line(R"({"cmd":"events","id":1})"),
            R"({"ok":true,"v":2,"id":1,"dropped":)" + dropped + R"(,"events":[)" + events +
                "]}");
}

TEST(ServeVerbs, TraceEmbedsTheChromeDocument) {
  Fixture f;
  std::string head = R"("enabled":)";
  head += ef::obs::Timeline::enabled() ? "true" : "false";
  head += R"(,"sample":)";
  head += number_text(ef::obs::Timeline::sample_rate());
  head += R"(,"trace":)";
  const std::string trace = ef::obs::chrome_trace_json();
  EXPECT_EQ(f.line(R"({"cmd":"trace"})"), "{\"ok\":true," + head + trace + "}");
  EXPECT_EQ(f.line(R"({"cmd":"trace","id":"t"})"),
            R"({"ok":true,"v":2,"id":"t",)" + head + trace + "}");
}

TEST(ServeVerbs, MetricsShipTheExpositionAsOneEscapedString) {
  Fixture f;
  for (const char* request : {R"({"cmd":"metrics"})", R"({"cmd":"metrics","id":2})"}) {
    SCOPED_TRACE(request);
    const std::string reply = f.line(request);
    const std::string head = std::string(request).find("id") != std::string::npos
                                 ? R"({"ok":true,"v":2,"id":2,"format":"prometheus","exposition":")"
                                 : R"({"ok":true,"format":"prometheus","exposition":")";
    EXPECT_EQ(reply.rfind(head, 0), 0u) << reply;
    EXPECT_EQ(reply.substr(reply.size() - 2), "\"}");
    EXPECT_EQ(reply.find('\n'), std::string::npos) << "one line on the wire";
    std::string error;
    const auto doc = ef::json::parse(reply, error);
    ASSERT_TRUE(doc.has_value()) << error;
    const std::string* exposition = doc->as_object()->at("exposition").as_string();
    ASSERT_NE(exposition, nullptr);
#if EVOFORECAST_OBS_ENABLED
    EXPECT_NE(exposition->find("# TYPE"), std::string::npos) << *exposition;
#endif
  }
}

TEST(ServeVerbs, ObserveSucceeds) {
  Fixture f;
  EXPECT_EQ(f.line(R"({"cmd":"observe","model":"m","value":0.5})"),
            R"({"ok":true,"model":"m","tick":1,"matured":0,"overdue":0,"pending":0,"stale":false})");
  EXPECT_EQ(f.line(R"({"cmd":"observe","model":"m","value":0.5,"t":1,"id":"o"})"),
            R"({"ok":true,"v":2,"id":"o","model":"m","tick":1,"matured":0,"overdue":0,"pending":0,"stale":true})");
}

TEST(ServeVerbs, ObserveWithQualityDisabled) {
  ServeOptions options;
  options.quality.ledger_capacity = 0;
  Fixture f(options);
  EXPECT_EQ(f.line(R"({"cmd":"observe","model":"m","value":0.5})"),
            R"({"ok":false,"error":"quality tracking is disabled"})");
  EXPECT_EQ(f.line(R"({"cmd":"observe","model":"m","value":0.5,"id":3})"),
            R"({"ok":false,"v":2,"id":3,"error":{"code":"bad_request","message":"quality tracking is disabled"}})");
  EXPECT_EQ(f.line(R"({"cmd":"quality"})"),
            R"({"ok":true,"enabled":false,"armed":false,"models":[]})");
}

TEST(ServeVerbs, ObserveUnknownModel) {
  Fixture f;
  EXPECT_EQ(f.line(R"({"cmd":"observe","model":"nope","value":0.5})"),
            R"({"ok":false,"error":"unknown model 'nope'"})");
  EXPECT_EQ(f.line(R"({"cmd":"observe","model":"nope","value":0.5,"v":2})"),
            R"({"ok":false,"v":2,"error":{"code":"unknown_model","message":"unknown model 'nope'"}})");
}

TEST(ServeVerbs, QualityReportsNullStatisticsForAFreshModel) {
  Fixture f;
  EXPECT_EQ(f.line(R"({"cmd":"quality"})"),
            R"({"ok":true,"enabled":true,"armed":false,"models":[]})");
  ASSERT_EQ(f.line(R"({"cmd":"observe","model":"m","value":0.5})").rfind(R"({"ok":true)", 0),
            0u);
  const std::string fresh =
      R"({"model":"m","tick":1,"pending":0,"observed":1,"matured":0,"scored":0,"overdue":0,)"
      R"("stale":0,"evicted":0,"window":0,"rmse":null,"mae":null,"smape":null,"coverage":null,)"
      R"("abstain_share":0,"drift":{"drifted":false,"detections":0,"stat":0}})";
  EXPECT_EQ(f.line(R"({"cmd":"quality"})"),
            R"({"ok":true,"enabled":true,"armed":true,"models":[)" + fresh + "]}");
  EXPECT_EQ(f.line(R"({"cmd":"quality","model":"m","id":"q"})"),
            R"({"ok":true,"v":2,"id":"q","enabled":true,"armed":true,"models":[)" + fresh + "]}");
  EXPECT_EQ(f.line(R"({"cmd":"quality","model":"other"})"),
            R"({"ok":true,"enabled":true,"armed":true,"models":[]})");
}

TEST(ServeVerbs, QualityCarriesTheDriftObject) {
  ServeOptions options;
  options.quality.ledger_capacity = 8;
  options.quality.window = 8;
  options.quality.drift.lambda = 2.0;
  options.quality.drift.min_samples = 4;
  options.quality.drift.clear_after = 4;
  Fixture f(options);
  ASSERT_EQ(f.line(R"({"cmd":"observe","model":"m","value":1.0})").rfind(R"({"ok":true)", 0),
            0u);

  // Accurate forecasts, then the actuals jump far away: the observe reply
  // that trips the detector says so.
  std::string tripped;
  for (int i = 0; i < 40 && tripped.empty(); ++i) {
    f.service.quality()->record_forecast("m", 1, 1.0, 0.1, false);
    const std::string reply = f.line(i < 10 ? R"({"cmd":"observe","model":"m","value":1.0})"
                                            : R"({"cmd":"observe","model":"m","value":6.0})");
    if (reply.find(R"("drift":"detected")") != std::string::npos) tripped = reply;
  }
  ASSERT_FALSE(tripped.empty());
  const std::string detected = R"("stale":false,"drift":"detected"})";
  EXPECT_EQ(tripped.substr(tripped.size() - detected.size()), detected);

  const auto snapshot = f.service.quality()->snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  const std::string reply = f.line(R"({"cmd":"quality"})");
  const std::string drift = R"("drift":{"drifted":true,"detections":1,"stat":)" +
                            number_text(snapshot[0].drift_stat) + "}}]}";
  EXPECT_EQ(reply.substr(reply.size() - drift.size()), drift) << reply;
  std::string error;
  EXPECT_TRUE(ef::json::parse(reply, error).has_value()) << error;
}

TEST(ServeVerbs, ParseErrorsAnswerInTheRequestsEnvelope) {
  Fixture f;
  EXPECT_EQ(f.line("garbage"),
            R"({"ok":false,"error":"bad JSON: expected a value at byte 0"})");
  EXPECT_EQ(f.line(R"({"cmd":"nope","id":4})"),
            R"({"ok":false,"v":2,"id":4,"error":{"code":"unknown_cmd","message":"unknown cmd 'nope'"}})");
}

}  // namespace
