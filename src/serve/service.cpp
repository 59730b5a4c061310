#include "serve/service.hpp"

#include <chrono>
#include <optional>
#include <utility>

#include "core/multistep.hpp"
#include "obs/macros.hpp"
#include "obs/timeline.hpp"

namespace ef::serve {
namespace {

/// Latency histogram bounds in microseconds: 1 µs … ~1 s with ~2x steps.
[[maybe_unused]] std::vector<double> latency_bounds_us() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 1.0e6; b *= 2.0) bounds.push_back(b);
  return bounds;
}

void observe_latency_us(double us) {
#if EVOFORECAST_OBS_ENABLED
  static obs::Histogram& hist =
      obs::Registry::global().histogram("serve.request_us", latency_bounds_us());
  hist.observe(us);
#else
  (void)us;
#endif
}

/// Common request epilogue: record latency, ledger the forecast for later
/// accuracy scoring, and flag requests that blew the configured slow
/// threshold into the flight recorder (counter + event with enough context
/// to find the culprit later).
void finish_request([[maybe_unused]] const ServeOptions& options,
                    [[maybe_unused]] const PredictRequest& request,
                    [[maybe_unused]] const PredictResponse& response,
                    std::chrono::steady_clock::time_point start,
                    [[maybe_unused]] std::uint64_t trace_id,
                    QualityTracker* quality) {
  if (quality != nullptr && response.ok) {
    quality->record_forecast(request.model, request.horizon, response.value,
                             response.bound, response.abstain);
  }
  const double us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
          .count();
  observe_latency_us(us);
  if (options.slow_request_us > 0.0 && us >= options.slow_request_us) {
    EVOFORECAST_COUNT("serve.slow_requests", 1);
    EVOFORECAST_EVENT("serve.slow_request", {"model", request.model}, {"us", us},
                      {"horizon", request.horizon}, {"cached", response.cached},
                      {"abstain", response.abstain}, {"trace", trace_id});
    // Slow-request exemplar: keep this trace's full span tree at export even
    // when its head-sample draw said no — the event's "trace" field is the
    // link from the flight recorder into the timeline.
    obs::Timeline::mark_slow(trace_id, us);
  }
}

void fail_response(PredictResponse& response, ErrorCode code, std::string reason) {
  EVOFORECAST_COUNT("serve.errors", 1);
  response.ok = false;
  response.code = code;
  response.error = std::move(reason);
}

}  // namespace

ForecastService::ForecastService(ModelStore& store, ServeOptions options)
    : store_(store), options_(std::move(options)), cache_(options_.cache) {
  if (options_.trace_sample >= 0.0) obs::Timeline::set_sample_rate(options_.trace_sample);
  if (options_.quality.ledger_capacity > 0) {
    quality_ = std::make_unique<QualityTracker>(options_.quality);
  }
}

void ForecastService::shutdown() { accepting_.store(false, std::memory_order_release); }

bool ForecastService::accepting() const noexcept {
  return accepting_.load(std::memory_order_acquire);
}

std::shared_ptr<const LoadedModel> ForecastService::prepare(const PredictRequest& request,
                                                            PredictResponse& response) {
  response.model = request.model;
  response.horizon = request.horizon;

  const auto fail = [&](ErrorCode code, std::string reason) {
    fail_response(response, code, std::move(reason));
    return nullptr;
  };

  if (!accepting()) return fail(ErrorCode::kShuttingDown, "service shutting down");
  if (request.window.empty()) return fail(ErrorCode::kBadWindow, "window must not be empty");
  if (request.window.size() > options_.max_window) {
    return fail(ErrorCode::kBadWindow, "window too long");
  }
  if (request.horizon == 0) return fail(ErrorCode::kBadHorizon, "horizon must be >= 1");
  if (request.horizon > options_.max_horizon) {
    return fail(ErrorCode::kBadHorizon, "horizon too large");
  }

  std::shared_ptr<const LoadedModel> model;
  {
    const obs::Span lookup("serve.lookup");
    model = store_.get(request.model);
  }
  if (!model) {
    return fail(ErrorCode::kUnknownModel, "unknown model '" + request.model + "'");
  }
  response.version = model->version();
  if (model->window() != 0 && request.window.size() != model->window()) {
    return fail(ErrorCode::kWindowMismatch,
                "window length " + std::to_string(request.window.size()) +
                    " does not match model window " + std::to_string(model->window()));
  }
  return model;
}

core::Prediction ForecastService::predict_uncached(
    const std::shared_ptr<const LoadedModel>& model, const PredictRequest& request) {
  if (request.horizon == 1) {
    const obs::Span match("serve.match");
    return model->forecast(request.window, request.agg);
  }

  // Iterated multi-step through the core chain. Any abstaining step
  // abstains the request (paper semantics — no fabricated bridge values on
  // the serving path), and the reply ships no bound.
  obs::Span match("serve.match");
  match.set_arg("steps", static_cast<double>(request.horizon));
  return core::iterate_chain(model->system(), model->planes(), request.window,
                             request.horizon, core::ChainAbstention::kAbstain, request.agg);
}

PredictResponse ForecastService::predict(const PredictRequest& request) {
  // Root span: when tracing is armed, every span below shares this
  // request's trace id.
  const obs::Span trace("serve.request", obs::kRoot);
  const auto start = std::chrono::steady_clock::now();
  EVOFORECAST_COUNT("serve.requests", 1);

  PredictResponse response;
  const std::shared_ptr<const LoadedModel> model = prepare(request, response);
  if (!model) return response;

  const bool use_cache = cache_.capacity() > 0 && request.use_cache;
  WindowCache::Key key;
  std::optional<WindowCache::Value> answer;
  if (use_cache) {
    obs::Span cache_span("serve.cache");
    key = cache_.make_key(model->tag(), static_cast<std::uint32_t>(request.horizon),
                          request.agg, request.window);
    answer = cache_.get(key);
    cache_span.set_arg("hit", answer ? 1.0 : 0.0);
  }
  response.cached = answer.has_value();
  if (!answer) {
    core::Prediction result;
    try {
      result = predict_uncached(model, request);
    } catch (const std::exception& e) {
      fail_response(response, ErrorCode::kInternal,
                    std::string("prediction failed: ") + e.what());
      return response;
    }
    answer = WindowCache::Value{result.abstained, result.value,
                                static_cast<std::uint32_t>(result.votes),
                                result.abstained ? -1.0 : result.bound};
    if (use_cache) cache_.put(std::move(key), *answer);
  }

  const obs::Span respond("serve.respond");
  response.ok = true;
  response.abstain = answer->abstain;
  response.value = answer->value;
  response.bound = answer->bound;
  response.votes = answer->votes;
  if (response.abstain) EVOFORECAST_COUNT("serve.abstentions", 1);
  finish_request(options_, request, response, start, trace.trace_id(), quality_.get());
  return response;
}

}  // namespace ef::serve
