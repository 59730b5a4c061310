#include "serve/quality.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/macros.hpp"
#include "obs/timeline.hpp"

namespace ef::serve {
namespace {

/// sMAPE contribution of one matured forecast, in percent (0 when both the
/// prediction and the actual are exactly zero — a perfect forecast of a
/// zero level is not a 200 % error).
double smape_term(double predicted, double actual) {
  const double denom = std::abs(predicted) + std::abs(actual);
  if (denom == 0.0) return 0.0;
  return 200.0 * std::abs(predicted - actual) / denom;
}

}  // namespace

/// One matured forecast's contribution to the rolling window. Kept small:
/// the window ring holds `QualityOptions::window` of these per model.
struct MaturedEntry {
  bool abstained = false;
  bool has_interval = false;
  bool covered = false;
  double abs_err = 0.0;
  double sq_err = 0.0;
  double smape = 0.0;
};

/// One issued, not-yet-matured forecast in the ledger ring.
struct PendingEntry {
  std::uint64_t due_tick = 0;
  double value = 0.0;
  double bound = -1.0;
  bool abstained = false;
  bool valid = false;  ///< false = empty slot / already matured / evicted
};

struct QualityTracker::ModelState {
  explicit ModelState(const QualityOptions& options)
      : ledger(options.ledger_capacity), window_capacity(options.window),
        drift(options.drift) {
    window.reserve(window_capacity);
  }

  mutable std::mutex mutex;
  std::uint64_t tick = 0;

  // Prediction ledger: fixed ring, next_slot overwrites the oldest entry
  // (evicting it if still pending) so recording is O(1) and bounded.
  std::vector<PendingEntry> ledger;
  std::size_t next_slot = 0;

  // Rolling window ring over matured forecasts, plus running sums so the
  // stats are O(1) per maturation (add the newcomer, subtract the evictee).
  std::vector<MaturedEntry> window;
  std::size_t window_capacity = 0;
  std::size_t window_next = 0;
  double sum_abs = 0.0;
  double sum_sq = 0.0;
  double sum_smape = 0.0;
  std::size_t window_scored = 0;
  std::size_t window_intervals = 0;
  std::size_t window_covered = 0;
  std::size_t window_abstained = 0;

  // Lifetime counters.
  std::uint64_t observed = 0;
  std::uint64_t matured = 0;
  std::uint64_t scored = 0;
  std::uint64_t overdue = 0;
  std::uint64_t stale = 0;
  std::uint64_t evicted = 0;

  obs::DriftDetector drift;

  void push_window(const MaturedEntry& entry, std::size_t capacity) {
    if (capacity == 0) return;
    if (window.size() < capacity) {
      window.push_back(entry);
    } else {
      const MaturedEntry& old = window[window_next];
      if (old.abstained) {
        --window_abstained;
      } else {
        sum_abs -= old.abs_err;
        sum_sq -= old.sq_err;
        sum_smape -= old.smape;
        --window_scored;
        if (old.has_interval) {
          --window_intervals;
          if (old.covered) --window_covered;
        }
      }
      window[window_next] = entry;
      window_next = (window_next + 1) % capacity;
    }
    if (entry.abstained) {
      ++window_abstained;
    } else {
      sum_abs += entry.abs_err;
      sum_sq += entry.sq_err;
      sum_smape += entry.smape;
      ++window_scored;
      if (entry.has_interval) {
        ++window_intervals;
        if (entry.covered) ++window_covered;
      }
    }
  }
};

QualityTracker::QualityTracker(QualityOptions options) : options_(options) {
  if (options_.ledger_capacity > 0) {
    provider_id_ = obs::add_exposition_provider(
        [this](std::string& out, const obs::ExpositionOptions& expo) {
          render_prometheus(out, expo);
        });
  }
}

QualityTracker::~QualityTracker() {
  if (provider_id_ != 0) obs::remove_exposition_provider(provider_id_);
}

QualityTracker::ModelState* QualityTracker::state(std::string_view model, bool create) {
  const std::lock_guard lock(map_mutex_);
  const auto it = models_.find(model);
  if (it != models_.end()) return it->second.get();
  if (!create) return nullptr;
  auto inserted = models_.emplace(std::string(model),
                                  std::make_unique<ModelState>(options_));
  return inserted.first->second.get();
}

void QualityTracker::record_forecast(std::string_view model, std::size_t horizon,
                                     double value, double bound, bool abstained) {
  // Disarmed fast path: one relaxed load — the predict pipeline pays
  // nothing until actuals start flowing.
  if (options_.ledger_capacity == 0 || !armed_.load(std::memory_order_relaxed)) return;
  ModelState* st = state(model, /*create=*/false);
  if (st == nullptr) return;  // never observed: not tracked
  if (horizon == 0) return;

  const std::lock_guard lock(st->mutex);
  PendingEntry& slot = st->ledger[st->next_slot];
  if (slot.valid) ++st->evicted;  // ring full: oldest pending forecast drops
  slot.due_tick = st->tick + horizon;
  slot.value = value;
  slot.bound = bound;
  slot.abstained = abstained;
  slot.valid = true;
  st->next_slot = (st->next_slot + 1) % st->ledger.size();
}

void QualityTracker::score(ModelState& st, double actual, ObserveResult& result) {
  for (PendingEntry& entry : st.ledger) {
    if (!entry.valid || entry.due_tick > st.tick) continue;
    entry.valid = false;
    if (entry.due_tick < st.tick) {
      // The actual for this entry's tick never arrived (clock jumped past
      // it): no honest error is computable, drop it.
      ++st.overdue;
      ++result.overdue;
      continue;
    }
    ++st.matured;
    ++result.matured;
    MaturedEntry matured;
    matured.abstained = entry.abstained;
    if (!entry.abstained) {
      ++st.scored;
      const double err = std::abs(entry.value - actual);
      matured.abs_err = err;
      matured.sq_err = err * err;
      matured.smape = smape_term(entry.value, actual);
      matured.has_interval = entry.bound >= 0.0;
      matured.covered = matured.has_interval && err <= entry.bound;
    }
    st.push_window(matured, st.window_capacity);
    if (!entry.abstained) {
      const auto signal = st.drift.update(matured.abs_err);
      if (signal == obs::DriftDetector::Signal::kDetected) result.drift_detected = true;
      if (signal == obs::DriftDetector::Signal::kCleared) result.drift_cleared = true;
    }
  }
  for (const PendingEntry& entry : st.ledger) {
    if (entry.valid) ++result.pending;
  }
}

QualityTracker::ObserveResult QualityTracker::observe(std::string_view model,
                                                      double actual,
                                                      std::optional<std::uint64_t> t) {
  ObserveResult result;
  if (options_.ledger_capacity == 0) return result;
  const obs::Span span("serve.observe");
  if (!armed_.load(std::memory_order_relaxed)) {
    armed_.store(true, std::memory_order_relaxed);
    EVOFORECAST_EVENT("quality.armed", {"model", model});
  }
  ModelState* st = state(model, /*create=*/true);

  bool detected = false;
  bool cleared = false;
  double drift_stat = 0.0;
  std::uint64_t tick_after = 0;
  {
    const std::lock_guard lock(st->mutex);
    if (t.has_value() && *t <= st->tick) {
      ++st->stale;
      result.stale = true;
      result.tick = st->tick;
      for (const PendingEntry& entry : st->ledger) {
        if (entry.valid) ++result.pending;
      }
      EVOFORECAST_COUNT("quality.stale_observations", 1);
      return result;
    }
    st->tick = t.has_value() ? *t : st->tick + 1;
    ++st->observed;
    score(*st, actual, result);
    result.tick = st->tick;
    detected = result.drift_detected;
    cleared = result.drift_cleared;
    drift_stat = st->drift.statistic();
    tick_after = st->tick;
  }

  EVOFORECAST_COUNT("quality.observations", 1);
  if (result.matured > 0) EVOFORECAST_COUNT("quality.matured", result.matured);
  if (result.overdue > 0) EVOFORECAST_COUNT("quality.overdue", result.overdue);
  // Drift edges are events (rare by construction — one per regime change),
  // emitted outside the model lock.
  if (detected) {
    EVOFORECAST_COUNT("quality.drift_detected", 1);
    EVOFORECAST_EVENT("drift.detected", {"model", model}, {"tick", tick_after},
                      {"stat", drift_stat});
  }
  if (cleared) {
    EVOFORECAST_COUNT("quality.drift_cleared", 1);
    EVOFORECAST_EVENT("drift.cleared", {"model", model}, {"tick", tick_after});
  }
#if !EVOFORECAST_OBS_ENABLED
  (void)tick_after;
  (void)drift_stat;
  (void)detected;
  (void)cleared;
#endif
  return result;
}

std::vector<QualityTracker::ModelSnapshot> QualityTracker::snapshot() const {
  std::vector<ModelSnapshot> out;
  const std::lock_guard map_lock(map_mutex_);
  out.reserve(models_.size());
  for (const auto& [name, st] : models_) {
    const std::lock_guard lock(st->mutex);
    ModelSnapshot snap;
    snap.model = name;
    snap.tick = st->tick;
    for (const PendingEntry& entry : st->ledger) {
      if (entry.valid) ++snap.pending;
    }
    snap.observed = st->observed;
    snap.matured = st->matured;
    snap.scored = st->scored;
    snap.overdue = st->overdue;
    snap.stale = st->stale;
    snap.evicted = st->evicted;
    snap.window_n = st->window.size();
    snap.window_scored = st->window_scored;
    snap.window_intervals = st->window_intervals;
    if (st->window_scored > 0) {
      const auto n = static_cast<double>(st->window_scored);
      snap.mae = st->sum_abs / n;
      snap.rmse = std::sqrt(std::max(0.0, st->sum_sq / n));
      snap.smape = st->sum_smape / n;
    }
    if (st->window_intervals > 0) {
      snap.coverage = static_cast<double>(st->window_covered) /
                      static_cast<double>(st->window_intervals);
    }
    if (!st->window.empty()) {
      snap.abstain_share = static_cast<double>(st->window_abstained) /
                           static_cast<double>(st->window.size());
    }
    snap.drifted = st->drift.drifted();
    snap.drift_detections = st->drift.detections();
    snap.drift_stat = st->drift.statistic();
    out.push_back(std::move(snap));
  }
  return out;
}

void QualityTracker::render_prometheus(std::string& out,
                                       const obs::ExpositionOptions& expo) const {
  (void)expo;  // ef_quality_* is a fixed public namespace, not re-prefixed
  std::vector<ModelSnapshot> models = snapshot();

  const std::string armed_name = "ef_quality_armed";
  out += "# TYPE " + armed_name + " gauge\n";
  out += armed_name + (armed() ? " 1\n" : " 0\n");
  const std::string tracked_name = "ef_quality_models";
  out += "# TYPE " + tracked_name + " gauge\n";
  out += tracked_name + " " + std::to_string(models.size()) + "\n";
  if (models.empty()) return;

  // Fleet aggregate: weighted combination of every model's window, then
  // bounded per-model labels for the top-K worst by rolling RMSE. A fleet
  // of thousands of observed series exports K+1 series per family, never
  // one per model.
  ModelSnapshot fleet;
  fleet.model = "_fleet";
  double fleet_sum_sq = 0.0;
  double fleet_sum_abs = 0.0;
  double fleet_sum_smape = 0.0;
  std::size_t fleet_scored = 0;
  std::size_t fleet_intervals = 0;
  double fleet_covered = 0.0;
  std::size_t fleet_window_n = 0;
  std::size_t fleet_abstained = 0;
  for (const ModelSnapshot& m : models) {
    fleet.pending += m.pending;
    fleet.observed += m.observed;
    fleet.matured += m.matured;
    fleet.drift_detections += m.drift_detections;
    fleet.drifted = fleet.drifted || m.drifted;
    const auto n = static_cast<double>(m.window_scored);
    fleet_sum_sq += m.rmse * m.rmse * n;
    fleet_sum_abs += m.mae * n;
    fleet_sum_smape += m.smape * n;
    fleet_scored += m.window_scored;
    fleet_intervals += m.window_intervals;
    fleet_covered += m.coverage * static_cast<double>(m.window_intervals);
    fleet_window_n += m.window_n;
    fleet_abstained +=
        static_cast<std::size_t>(m.abstain_share * static_cast<double>(m.window_n) + 0.5);
  }
  if (fleet_scored > 0) {
    const auto n = static_cast<double>(fleet_scored);
    fleet.rmse = std::sqrt(std::max(0.0, fleet_sum_sq / n));
    fleet.mae = fleet_sum_abs / n;
    fleet.smape = fleet_sum_smape / n;
  }
  if (fleet_intervals > 0) {
    fleet.coverage = fleet_covered / static_cast<double>(fleet_intervals);
  }
  if (fleet_window_n > 0) {
    fleet.abstain_share =
        static_cast<double>(fleet_abstained) / static_cast<double>(fleet_window_n);
  }
  fleet.window_n = fleet_window_n;
  fleet.window_scored = fleet_scored;

  // Worst-first by rolling RMSE; models with no scored window yet sort last.
  std::sort(models.begin(), models.end(),
            [](const ModelSnapshot& a, const ModelSnapshot& b) {
              const double ra = a.window_scored > 0
                                    ? a.rmse
                                    : -std::numeric_limits<double>::infinity();
              const double rb = b.window_scored > 0
                                    ? b.rmse
                                    : -std::numeric_limits<double>::infinity();
              if (ra != rb) return ra > rb;
              return a.model < b.model;
            });
  if (models.size() > options_.top_k) models.resize(options_.top_k);
  models.push_back(std::move(fleet));

  struct Family {
    const char* name;
    const char* type;
    double (*value)(const ModelSnapshot&);
  };
  static constexpr Family kFamilies[] = {
      {"ef_quality_rmse", "gauge",
       [](const ModelSnapshot& m) {
         return m.window_scored > 0 ? m.rmse : std::nan("");
       }},
      {"ef_quality_mae", "gauge",
       [](const ModelSnapshot& m) {
         return m.window_scored > 0 ? m.mae : std::nan("");
       }},
      {"ef_quality_smape", "gauge",
       [](const ModelSnapshot& m) {
         return m.window_scored > 0 ? m.smape : std::nan("");
       }},
      {"ef_quality_coverage_ratio", "gauge",
       [](const ModelSnapshot& m) {
         return m.window_intervals > 0 ? m.coverage : std::nan("");
       }},
      {"ef_quality_abstain_ratio", "gauge",
       [](const ModelSnapshot& m) { return m.abstain_share; }},
      {"ef_quality_window_size", "gauge",
       [](const ModelSnapshot& m) { return static_cast<double>(m.window_n); }},
      {"ef_quality_pending", "gauge",
       [](const ModelSnapshot& m) { return static_cast<double>(m.pending); }},
      {"ef_quality_observed_total", "counter",
       [](const ModelSnapshot& m) { return static_cast<double>(m.observed); }},
      {"ef_quality_matured_total", "counter",
       [](const ModelSnapshot& m) { return static_cast<double>(m.matured); }},
      {"ef_quality_drift_state", "gauge",
       [](const ModelSnapshot& m) { return m.drifted ? 1.0 : 0.0; }},
      {"ef_quality_drift_detected_total", "counter",
       [](const ModelSnapshot& m) { return static_cast<double>(m.drift_detections); }},
  };
  for (const Family& family : kFamilies) {
    out += "# TYPE ";
    out += family.name;
    out += ' ';
    out += family.type;
    out += '\n';
    for (const ModelSnapshot& m : models) {
      obs::labeled_sample(out, family.name, {{"model", m.model}}, family.value(m));
    }
  }
}

}  // namespace ef::serve
