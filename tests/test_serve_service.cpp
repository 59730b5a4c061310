// Tests for the serving pipeline: ForecastService (validation, cache
// equivalence, abstention, multi-step, hot-reload under load, graceful
// shutdown), the JSON-lines protocol, and a loopback TCP roundtrip.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cmath>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/interval.hpp"
#include "core/multistep.hpp"
#include "core/rule.hpp"
#include "core/rule_system.hpp"
#include "obs/timeline.hpp"
#include "serve/model_store.hpp"
#include "serve/protocol.hpp"
#include "serve/reactor.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using ef::core::Aggregation;
using ef::core::Interval;
using ef::core::Rule;
using ef::core::RuleSystem;
using ef::serve::ForecastService;
using ef::serve::ModelStore;
using ef::serve::PredictRequest;
using ef::serve::Request;
using ef::serve::ServeOptions;

Rule make_rule(std::vector<Interval> genes, std::vector<double> coeffs, double fitness,
               double error) {
  Rule r(std::move(genes));
  ef::core::PredictingPart part;
  part.fit.coeffs = std::move(coeffs);
  part.fit.mean_prediction = part.fit.coeffs.back();
  part.fit.max_abs_residual = error;
  part.matches = 7;
  part.fitness = fitness;
  r.set_predicting(part);
  return r;
}

/// Overlapping window-3 rules over [0,1]^3 — same shape as the batch tests,
/// different constants, so uncovered probes abstain.
RuleSystem make_system() {
  RuleSystem system;
  std::vector<Rule> rules;
  rules.push_back(make_rule({Interval(0.0, 0.7), Interval::wildcard(), Interval(0.0, 1.0)},
                            {0.2, 0.3, -0.1, 0.3}, 2.0, 0.05));
  rules.push_back(make_rule({Interval(0.1, 0.9), Interval(0.0, 0.8), Interval::wildcard()},
                            {0.1, 0.2, 0.4, 0.1}, 3.0, 0.02));
  rules.push_back(make_rule({Interval::wildcard(), Interval(0.2, 1.0), Interval(0.0, 0.6)},
                            {0.3, 0.3, 0.3, 0.05}, 1.5, 0.1));
  system.add_rules(std::move(rules), false, -1.0);
  return system;
}

/// A system predicting a damped recurrence on all of [0,2]^2 — every
/// iterated step stays covered, so horizon > 1 never abstains.
RuleSystem make_covering_system() {
  Rule rule({Interval(0.0, 2.0), Interval(0.0, 2.0)});
  ef::core::PredictingPart part;
  part.fit.coeffs = {0.3, 0.6, 0.05};
  part.fit.mean_prediction = 0.5;
  part.fit.max_abs_residual = 0.01;
  part.matches = 5;
  part.fitness = 2.0;
  rule.set_predicting(part);
  RuleSystem system;
  system.add_rules({rule}, false, -1.0);
  return system;
}

PredictRequest request_for(std::vector<double> window, std::size_t horizon = 1,
                           Aggregation agg = Aggregation::kMean) {
  PredictRequest req;
  // Not operator=(const char*): gcc 12 raises a -Wrestrict false positive on it here.
  req.model = std::string("m");
  req.window = std::move(window);
  req.horizon = horizon;
  req.agg = agg;
  return req;
}

TEST(ForecastService, ValidationErrorsNeverThrow) {
  ModelStore store;
  store.add_system("m", make_system());
  ForecastService service(store);

  // Unknown model.
  auto r = service.predict(request_for({0.5, 0.5, 0.5}));
  EXPECT_TRUE(r.ok);
  PredictRequest unknown = request_for({0.5, 0.5, 0.5});
  unknown.model = "nope";
  r = service.predict(unknown);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());

  // Empty window.
  r = service.predict(request_for({}));
  EXPECT_FALSE(r.ok);

  // Window length mismatch with the model.
  r = service.predict(request_for({0.5, 0.5}));
  EXPECT_FALSE(r.ok);

  // Horizon 0 and horizon beyond the configured cap.
  r = service.predict(request_for({0.5, 0.5, 0.5}, 0));
  EXPECT_FALSE(r.ok);
  r = service.predict(request_for({0.5, 0.5, 0.5}, 1 << 20));
  EXPECT_FALSE(r.ok);
}

TEST(ForecastService, MatchesCorePredictAndReportsAbstention) {
  ModelStore store;
  const RuleSystem reference = make_system();
  store.add_system("m", make_system());
  ForecastService service(store);

  ef::util::Rng rng(7);
  std::size_t abstentions = 0;
  for (int i = 0; i < 100; ++i) {
    std::vector<double> window{rng.uniform(-0.2, 1.4), rng.uniform(-0.2, 1.4),
                               rng.uniform(-0.2, 1.4)};
    const auto expected = reference.forecast(window).as_optional();
    PredictRequest req = request_for(window);
    req.use_cache = false;
    const auto response = service.predict(req);
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.abstain, !expected.has_value());
    if (expected) {
      EXPECT_EQ(response.value, *expected);
      EXPECT_GT(response.votes, 0u);
    } else {
      ++abstentions;
      EXPECT_EQ(response.votes, 0u);
    }
  }
  EXPECT_GT(abstentions, 0u);
  EXPECT_LT(abstentions, 100u);
}

TEST(ForecastService, CachedEqualsUncachedExactly) {
  ModelStore store;
  store.add_system("m", make_system());
  ForecastService service(store);

  ef::util::Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> window{rng.uniform(-0.2, 1.4), rng.uniform(-0.2, 1.4),
                               rng.uniform(-0.2, 1.4)};
    PredictRequest req = request_for(window);
    const auto cold = service.predict(req);
    const auto warm = service.predict(req);
    ASSERT_TRUE(cold.ok);
    ASSERT_TRUE(warm.ok);
    EXPECT_FALSE(cold.cached);
    EXPECT_TRUE(warm.cached);
    EXPECT_EQ(cold.abstain, warm.abstain);
    if (!cold.abstain) {
      EXPECT_EQ(cold.value, warm.value);  // bit-identical
    }
    EXPECT_EQ(cold.votes, warm.votes);

    // Per-request bypass recomputes but must agree too.
    req.use_cache = false;
    const auto bypass = service.predict(req);
    ASSERT_TRUE(bypass.ok);
    EXPECT_FALSE(bypass.cached);
    EXPECT_EQ(cold.abstain, bypass.abstain);
    if (!cold.abstain) {
      EXPECT_EQ(cold.value, bypass.value);
    }
  }
  const auto stats = service.cache_stats();
  EXPECT_GE(stats.hits, 50u);
}

TEST(ForecastService, NearbyWindowGetsItsOwnAnswer) {
  // The rule's first gene ends exactly at 0.5: the window {0.5, …} votes,
  // and a window 1e-12 past the bound must abstain rather than reuse the
  // first window's cached answer.
  RuleSystem system;
  system.add_rules({make_rule({Interval(0.0, 0.5), Interval(0.0, 1.0)}, {0.4, 0.2, 0.1}, 2.0,
                              0.05)},
                   false, -1.0);
  ModelStore store;
  store.add_system("m", std::move(system));
  ForecastService service(store);

  const auto inside = service.predict(request_for({0.5, 0.25}));
  ASSERT_TRUE(inside.ok);
  ASSERT_FALSE(inside.abstain);
  const auto outside = service.predict(request_for({0.5 + 1e-12, 0.25}));
  ASSERT_TRUE(outside.ok);
  EXPECT_FALSE(outside.cached);
  EXPECT_TRUE(outside.abstain);
  EXPECT_EQ(outside.votes, 0u);
  EXPECT_TRUE(service.predict(request_for({0.5, 0.25})).cached);
}

TEST(ForecastService, CacheDisabledStillCorrect) {
  ModelStore store;
  store.add_system("m", make_system());
  ServeOptions config;
  config.cache.capacity = 0;
  ForecastService service(store, config);

  const auto a = service.predict(request_for({0.5, 0.5, 0.5}));
  const auto b = service.predict(request_for({0.5, 0.5, 0.5}));
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_FALSE(a.cached);
  EXPECT_FALSE(b.cached);
  if (!a.abstain) {
    EXPECT_EQ(a.value, b.value);
  }
}

TEST(ForecastService, MultiStepMatchesIterateForecast) {
  ModelStore store;
  const RuleSystem reference = make_covering_system();
  store.add_system("m", make_covering_system());
  ForecastService service(store);

  const std::vector<double> window{0.8, 1.1};
  for (std::size_t horizon : {1u, 2u, 5u, 12u}) {
    ef::core::MultistepOptions options;
    options.horizon = horizon;
    options.on_abstain = ef::core::ChainAbstention::kAbstain;
    const auto expected = ef::core::iterate_forecast(reference, window, options);

    PredictRequest req = request_for(window, horizon);
    req.use_cache = false;
    const auto response = service.predict(req);
    ASSERT_TRUE(response.ok) << "horizon " << horizon;
    ASSERT_TRUE(expected.has_value());
    EXPECT_FALSE(response.abstain);
    EXPECT_EQ(response.value, *expected) << "horizon " << horizon;

    // And the cached replay agrees.
    req.use_cache = true;
    const auto cold = service.predict(req);
    const auto warm = service.predict(req);
    EXPECT_EQ(cold.value, *expected);
    EXPECT_TRUE(warm.cached);
    EXPECT_EQ(warm.value, *expected);
  }
}

TEST(ForecastService, MultiStepAbstainsWhenChainBreaks) {
  ModelStore store;
  store.add_system("m", make_system());
  ForecastService service(store);

  // This window is covered at step one (rule 1 matches) but sliding it
  // forward pushes the next window outside every rule, so the chain must
  // abstain — and the response says so explicitly rather than fabricating
  // a value.
  const std::vector<double> window{0.0, 5.0, 0.0};
  const RuleSystem reference = make_system();
  ASSERT_TRUE(reference.forecast(window).as_optional().has_value()) << "step one should be covered";
  ef::core::MultistepOptions options;
  options.horizon = 3;
  const auto expected = ef::core::iterate_forecast(reference, window, options);
  ASSERT_FALSE(expected.has_value()) << "chain should break before horizon 3";

  PredictRequest req = request_for(window, 3);
  req.use_cache = false;
  const auto response = service.predict(req);
  ASSERT_TRUE(response.ok);
  EXPECT_TRUE(response.abstain);
  EXPECT_EQ(response.votes, 0u);
}

TEST(ForecastService, ConcurrentPredictsAgreeWithSequential) {
  ModelStore store;
  store.add_system("m", make_system());
  ServeOptions uncached;
  uncached.cache.capacity = 0;
  ForecastService service(store, uncached);

  ef::util::Rng rng(23);
  std::vector<std::vector<double>> probes;
  for (int i = 0; i < 32; ++i) {
    probes.push_back(
        {rng.uniform(-0.2, 1.4), rng.uniform(-0.2, 1.4), rng.uniform(-0.2, 1.4)});
  }

  // 32 predicts racing on one service must answer exactly what the same
  // requests answer one at a time.
  std::vector<ef::serve::PredictResponse> concurrent(probes.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    clients.emplace_back([&, i] { concurrent[i] = service.predict(request_for(probes[i])); });
  }
  for (auto& c : clients) c.join();

  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto expected = service.predict(request_for(probes[i]));
    ASSERT_TRUE(concurrent[i].ok) << "probe " << i;
    EXPECT_EQ(concurrent[i].abstain, expected.abstain) << "probe " << i;
    if (!expected.abstain) {
      EXPECT_EQ(concurrent[i].value, expected.value) << "probe " << i;
      EXPECT_EQ(concurrent[i].bound, expected.bound) << "probe " << i;
    }
    EXPECT_EQ(concurrent[i].votes, expected.votes) << "probe " << i;
  }
}

TEST(ForecastService, HotReloadWithPredictionsInFlightZeroFailures) {
  ModelStore store;
  store.add_system("m", make_covering_system());
  ServeOptions config;
  config.cache.capacity = 0;  // every request exercises the live model
  ForecastService service(store, config);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> completed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto r = service.predict(request_for({0.8, 1.1}));
        if (!r.ok || r.abstain) ++failed;
        ++completed;
      }
    });
  }

  // Swap the model repeatedly while the clients hammer it.
  for (int swap = 0; swap < 20; ++swap) {
    store.add_system("m", make_covering_system());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop = true;
  for (auto& c : clients) c.join();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(completed.load(), 0u);
  EXPECT_EQ(store.get("m")->version(), 21u);
}

TEST(ForecastService, GracefulShutdownDrainsThenRejects) {
  ModelStore store;
  store.add_system("m", make_covering_system());
  ForecastService service(store);

  // Queue a burst of concurrent requests, then shut down while they are in
  // flight: every submitted request must complete (drained, not dropped).
  constexpr int kClients = 16;
  std::vector<ef::serve::PredictResponse> out(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      out[i] = service.predict(request_for({0.8 + 0.001 * i, 1.1}));
    });
  }
  service.shutdown();
  for (auto& c : clients) c.join();

  for (int i = 0; i < kClients; ++i) {
    // A request either completed normally (drained) or was refused because
    // shutdown had already begun — it must never hang or produce a torn
    // response.
    if (out[i].ok) {
      EXPECT_FALSE(out[i].abstain) << "client " << i;
    } else {
      EXPECT_FALSE(out[i].error.empty()) << "client " << i;
    }
  }

  EXPECT_FALSE(service.accepting());
  const auto late = service.predict(request_for({0.8, 1.1}));
  EXPECT_FALSE(late.ok);
  service.shutdown();  // idempotent
}

// --- protocol ---------------------------------------------------------------

#if EVOFORECAST_OBS_ENABLED

TEST(ForecastService, ArmedRequestLandsSameSpanNamesInBothSinks) {
  ModelStore store;
  store.add_system("m", make_system());
  ForecastService service(store);
  ef::obs::Timeline::set_sample_rate(1.0);
  ef::obs::Timeline::reset();

  const auto response = service.predict(request_for({0.5, 0.5, 0.5}));  // a cache miss
  ef::obs::Timeline::set_sample_rate(0.0);
  ASSERT_TRUE(response.ok);

  std::set<std::string> ring;
  for (const auto& span : ef::obs::Timeline::snapshot().spans) ring.insert(span.name);
  std::set<std::string> aggregate;
  for (const auto& span : ef::obs::Timeline::aggregates()) aggregate.insert(span.name);
  const std::set<std::string> expected{"serve.cache", "serve.lookup", "serve.match",
                                       "serve.request", "serve.respond"};
  EXPECT_EQ(ring, expected);
  EXPECT_EQ(aggregate, expected);
}

#endif  // EVOFORECAST_OBS_ENABLED

TEST(Protocol, ParsePredictRequest) {
  ef::serve::ProtocolError error;
  const auto req = ef::serve::parse_request(
      R"({"cmd":"predict","model":"m","window":[0.1,0.2,0.3],"horizon":2,)"
      R"("agg":"median","cache":false})",
      error);
  ASSERT_TRUE(req.has_value()) << error.message;
  EXPECT_EQ(req->cmd, Request::Cmd::kPredict);
  EXPECT_EQ(req->predict.model, "m");
  EXPECT_EQ(req->predict.window, (std::vector<double>{0.1, 0.2, 0.3}));
  EXPECT_EQ(req->predict.horizon, 2u);
  EXPECT_EQ(req->predict.agg, Aggregation::kMedian);
  EXPECT_FALSE(req->predict.use_cache);
}

TEST(Protocol, DefaultsApply) {
  ef::serve::ProtocolError error;
  const auto req = ef::serve::parse_request(R"({"window":[1,2]})", error);
  ASSERT_TRUE(req.has_value()) << error.message;
  EXPECT_EQ(req->cmd, Request::Cmd::kPredict);
  EXPECT_EQ(req->predict.model, "default");
  EXPECT_EQ(req->predict.horizon, 1u);
  EXPECT_EQ(req->predict.agg, Aggregation::kMean);
  EXPECT_TRUE(req->predict.use_cache);
}

TEST(Protocol, OtherCommands) {
  ef::serve::ProtocolError error;
  EXPECT_EQ(ef::serve::parse_request(R"({"cmd":"ping"})", error)->cmd, Request::Cmd::kPing);
  EXPECT_EQ(ef::serve::parse_request(R"({"cmd":"models"})", error)->cmd, Request::Cmd::kModels);
  EXPECT_EQ(ef::serve::parse_request(R"({"cmd":"stats"})", error)->cmd, Request::Cmd::kStats);
}

TEST(Protocol, RejectsMalformedInput) {
  const std::vector<std::string> bad = {
      "",                                           // empty
      "not json",                                   //
      "[1,2,3]",                                    // not an object
      R"({"cmd":"predict","window":[0.1],)",        // truncated
      R"({"cmd":"teleport"})",                      // unknown cmd
      R"({"window":[0.1],"frobnicate":1})",         // unknown field
      R"({"window":"abc"})",                        // wrong type
      R"({"window":[0.1],"horizon":0})",            // horizon < 1
      R"({"window":[0.1],"horizon":1.5})",          // non-integer horizon
      R"({"window":[0.1],"horizon":-3})",           //
      R"({"window":[0.1],"agg":"psychic"})",        // unknown aggregation
      R"({"window":[0.1],"cache":"yes"})",          // wrong bool type
      R"({"window":[0.1,"x"]})",                    // non-number in window
  };
  for (const auto& line : bad) {
    ef::serve::ProtocolError error;
    EXPECT_FALSE(ef::serve::parse_request(line, error).has_value()) << line;
    EXPECT_FALSE(error.message.empty()) << line;
    EXPECT_NE(error.code, ef::serve::ErrorCode::kNone) << line;
  }
}

TEST(Protocol, SerialisesResponses) {
  ef::serve::PredictResponse ok;
  ok.ok = true;
  ok.model = "m";
  ok.version = 3;
  ok.horizon = 1;
  ok.value = 0.5;
  ok.votes = 2;
  const std::string value_json = ef::serve::to_json(ok);
  EXPECT_NE(value_json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(value_json.find("\"value\":0.5"), std::string::npos);
  EXPECT_NE(value_json.find("\"abstain\":false"), std::string::npos);

  ef::serve::PredictResponse abstain = ok;
  abstain.abstain = true;
  abstain.votes = 0;
  const std::string abstain_json = ef::serve::to_json(abstain);
  EXPECT_NE(abstain_json.find("\"abstain\":true"), std::string::npos);
  EXPECT_EQ(abstain_json.find("\"value\""), std::string::npos)
      << "abstentions must not fabricate a value field: " << abstain_json;

  ef::serve::PredictResponse error;
  error.ok = false;
  error.error = "bad \"stuff\"";
  const std::string error_json = ef::serve::to_json(error);
  EXPECT_NE(error_json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(error_json.find("bad \\\"stuff\\\""), std::string::npos);
}

TEST(Protocol, ParseAggregationRoundTrip) {
  using ef::core::Aggregation;
  for (const Aggregation agg :
       {Aggregation::kMean, Aggregation::kFitnessWeighted, Aggregation::kMedian,
        Aggregation::kBestRule, Aggregation::kInverseError}) {
    const auto parsed = ef::serve::parse_aggregation(ef::core::to_string(agg));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, agg);
  }
  EXPECT_FALSE(ef::serve::parse_aggregation("nope").has_value());
}

// --- TCP roundtrip -----------------------------------------------------------

#if defined(__linux__)

/// Minimal blocking JSON-lines client for the loopback roundtrip.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return connected_; }

  [[nodiscard]] std::string roundtrip(const std::string& line) {
    const std::string out = line + "\n";
    if (::send(fd_, out.data(), out.size(), 0) < 0) return {};
    std::string response;
    char c = 0;
    while (::recv(fd_, &c, 1, 0) == 1) {
      if (c == '\n') break;
      response.push_back(c);
    }
    return response;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(Reactor, LoopbackRoundtrip) {
  ModelStore store;
  store.add_system("m", make_system());
  ServeOptions options;
  options.port = 0;  // ephemeral
  ForecastService service(store, options);
  ef::serve::Reactor server(service);
  server.start();
  ASSERT_NE(server.port(), 0);

  LineClient client(server.port());
  ASSERT_TRUE(client.connected());

  EXPECT_NE(client.roundtrip(R"({"cmd":"ping"})").find("\"ok\":true"), std::string::npos);
  EXPECT_NE(client.roundtrip(R"({"cmd":"models"})").find("\"m\""), std::string::npos);

  // Covered predict.
  const std::string hit =
      client.roundtrip(R"({"model":"m","window":[0.5,0.5,0.5]})");
  EXPECT_NE(hit.find("\"ok\":true"), std::string::npos) << hit;
  EXPECT_NE(hit.find("\"abstain\":false"), std::string::npos) << hit;
  EXPECT_NE(hit.find("\"value\":"), std::string::npos) << hit;

  // Explicit abstention: far outside every rule.
  const std::string abstain =
      client.roundtrip(R"({"model":"m","window":[50,50,50]})");
  EXPECT_NE(abstain.find("\"abstain\":true"), std::string::npos) << abstain;
  EXPECT_EQ(abstain.find("\"value\""), std::string::npos) << abstain;

  // Errors come back as ok=false lines, and the connection stays usable.
  EXPECT_NE(client.roundtrip("garbage").find("\"ok\":false"), std::string::npos);
  EXPECT_NE(client.roundtrip(R"({"model":"nope","window":[1,2,3]})").find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(client.roundtrip(R"({"cmd":"stats"})").find("\"ok\":true"), std::string::npos);
  EXPECT_NE(client.roundtrip(R"({"cmd":"ping"})").find("\"ok\":true"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_GE(server.connections_served(), 1u);
}

TEST(Reactor, TraceVerbReplyIsValidJsonAfterNanSampleRate) {
  ModelStore store;
  store.add_system("m", make_system());
  ServeOptions options;
  options.port = 0;
  options.trace_sample = std::nan("");  // not >= 0: the service leaves the rate alone
  ForecastService service(store, options);
  ef::obs::Timeline::set_sample_rate(std::nan(""));
  ef::serve::Reactor server(service);
  server.start();
  LineClient client(server.port());
  ASSERT_TRUE(client.connected());

  const std::string reply = client.roundtrip(R"({"cmd":"trace"})");
  server.stop();
  std::string error;
  const auto parsed = ef::json::parse(reply, error);
  ASSERT_TRUE(parsed.has_value()) << error << ": " << reply;
  const auto* object = parsed->as_object();
  ASSERT_NE(object, nullptr);
  ASSERT_NE(object->at("sample").as_number(), nullptr);
  EXPECT_EQ(*object->at("sample").as_number(), 0.0);
  ASSERT_NE(object->at("enabled").as_bool(), nullptr);
  EXPECT_FALSE(*object->at("enabled").as_bool());
}

TEST(Reactor, ConcurrentClients) {
  ModelStore store;
  store.add_system("m", make_covering_system());
  ServeOptions options;
  options.port = 0;
  ForecastService service(store, options);
  ef::serve::Reactor server(service);
  server.start();

  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      LineClient client(server.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 25; ++i) {
        const auto response =
            client.roundtrip(R"({"model":"m","window":[0.8,1.1]})");
        if (response.find("\"ok\":true") == std::string::npos) ++failures;
      }
    });
  }
  for (auto& c : clients) c.join();
  server.stop();
  EXPECT_EQ(failures.load(), 0u);
}

#endif  // defined(__linux__)

}  // namespace
