// serve/service.hpp — the in-process forecast service.
//
// ForecastService is the complete serving pipeline: validate → cache
// lookup → one-step (or iterated multi-step) prediction → cache fill →
// instrumented response. It owns the cache but only borrows the ModelStore,
// so several services (or a service plus an offline evaluator) can share one
// store. Tests drive this API directly — no sockets involved; the epoll
// reactor in serve/reactor.hpp is a line-protocol front end over it.
//
// predict() runs the whole pipeline on the calling thread. A cache miss is
// one pass over the model's rules (§3 of the paper: the mean over the rules
// whose intervals match the window), cheap enough that each reactor shard
// answers its requests inline and in order.
//
// Abstention semantics follow the paper: a window matched by no rule gets
// an explicit "abstain" response, never a fabricated value. Multi-step
// requests (horizon > 1) iterate the one-step system, feeding each
// prediction back as the newest input; an abstention at any intermediate
// step abstains the whole chain (core::ChainAbstention::kAbstain policy).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregation.hpp"
#include "core/prediction.hpp"
#include "serve/error.hpp"
#include "serve/model_store.hpp"
#include "serve/options.hpp"
#include "serve/window_cache.hpp"

namespace ef::serve {

struct PredictRequest {
  std::string model = "default";
  std::vector<double> window;  ///< most recent value last
  std::size_t horizon = 1;     ///< steps ahead; > 1 iterates the one-step system
  core::Aggregation agg = core::Aggregation::kMean;
  bool use_cache = true;  ///< per-request bypass (debugging, cache-busting)
};

struct PredictResponse {
  bool ok = false;
  ErrorCode code = ErrorCode::kNone;  ///< machine-readable cause when !ok
  std::string error;                  ///< human-readable reason when !ok
  std::string model;
  std::uint64_t version = 0;
  std::size_t horizon = 1;
  bool abstain = false;
  double value = 0.0;     ///< valid when ok && !abstain
  /// Interval half-width from the voting rules' training errors: the reply
  /// carries [value−bound, value+bound] on the wire (protocol v2). < 0 = no
  /// interval — abstentions, and iterated multi-step chains (a one-step
  /// bound does not compose across fed-back forecasts).
  double bound = -1.0;
  std::size_t votes = 0;  ///< matching rules behind the (final-step) forecast
  bool cached = false;
};

class ForecastService {
 public:
  explicit ForecastService(ModelStore& store, ServeOptions options = {});

  ForecastService(const ForecastService&) = delete;
  ForecastService& operator=(const ForecastService&) = delete;

  /// One forecast, computed on the calling thread. Thread-safe. Never throws
  /// for bad requests — returns ok=false with a code + reason instead (the
  /// protocol layer forwards it).
  [[nodiscard]] PredictResponse predict(const PredictRequest& request);

  /// Refuse further predicts (graceful shutdown). Idempotent.
  void shutdown();
  [[nodiscard]] bool accepting() const noexcept;

  [[nodiscard]] const ModelStore& store() const noexcept { return store_; }
  [[nodiscard]] ModelStore& store() noexcept { return store_; }
  [[nodiscard]] WindowCache::Stats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] const ServeOptions& options() const noexcept { return options_; }
  /// Forecast-quality tracker (ledger / accuracy / drift); null when
  /// ServeOptions::quality.ledger_capacity is 0.
  [[nodiscard]] QualityTracker* quality() noexcept { return quality_.get(); }
  [[nodiscard]] const QualityTracker* quality() const noexcept { return quality_.get(); }

 private:
  /// Validation + model lookup. Returns the model on success; fills
  /// `response` (ok=false, code, error) on failure.
  [[nodiscard]] std::shared_ptr<const LoadedModel> prepare(
      const PredictRequest& request, PredictResponse& response);
  [[nodiscard]] core::Prediction predict_uncached(
      const std::shared_ptr<const LoadedModel>& model, const PredictRequest& request);

  ModelStore& store_;
  ServeOptions options_;
  WindowCache cache_;
  std::unique_ptr<QualityTracker> quality_;  ///< null when quality disabled
  std::atomic<bool> accepting_{true};
};

}  // namespace ef::serve
