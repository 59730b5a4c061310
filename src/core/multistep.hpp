// multistep.hpp — iterated (recursive) multi-step forecasting.
//
// The paper forecasts horizon τ *directly*: one rule system trained on
// (window → value τ ahead). The classical alternative trains a one-step
// system and iterates it, feeding each prediction back as the newest input.
// Direct vs iterated is a standing question in forecasting; Ablation F
// benches it on this system. Iteration interacts with abstention: if the
// system abstains at any intermediate step the chain breaks — policy below.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/dataset.hpp"
#include "core/rule_system.hpp"

namespace ef::core {

/// What to do when the one-step system abstains mid-chain.
enum class ChainAbstention {
  kAbstain,      ///< the whole multi-step forecast becomes an abstention
  kPersistence,  ///< bridge the gap with the last known/predicted value
};

struct MultistepOptions {
  std::size_t horizon = 1;  ///< total steps ahead
  ChainAbstention on_abstain = ChainAbstention::kAbstain;
  Aggregation aggregation = Aggregation::kMean;
};

/// The chain loop of every entry below and of serve's horizon > 1 replies:
/// `steps` forecasts over `planes` (compiled from `one_step`), each fed back
/// as the newest lag; `values`, when set, receives every step's value.
/// Returns the last step's Prediction with bound −1 (a one-step bound does
/// not compose). An abstaining step ends the chain as an abstention under
/// kAbstain, or is bridged with the last value (0 votes) under kPersistence.
/// Zero steps abstain; an empty window throws std::invalid_argument.
[[nodiscard]] Prediction iterate_chain(const RuleSystem& one_step, const RulePlanes& planes,
                                       std::span<const double> window, std::size_t steps,
                                       ChainAbstention on_abstain, Aggregation how,
                                       std::vector<double>* values = nullptr);

/// Iterate a one-step rule system `options.horizon` steps from `window`
/// (the D most recent values, consecutive — stride-1 systems only; throws
/// std::invalid_argument when horizon == 0 or window is empty).
[[nodiscard]] std::optional<double> iterate_forecast(const RuleSystem& one_step,
                                                     std::span<const double> window,
                                                     const MultistepOptions& options);

/// Iterated forecast for every pattern of a τ-horizon dataset using a
/// one-step system. `data`'s own horizon sets the step count; its stride
/// must be 1. Abstentions per the policy.
[[nodiscard]] series::PartialForecast iterate_forecast_dataset(const RuleSystem& one_step,
                                                               const WindowDataset& data,
                                                               ChainAbstention on_abstain,
                                                               Aggregation aggregation =
                                                                   Aggregation::kMean);

/// Synthesise a whole continuation: the next `steps` values after `window`,
/// each fed back as input for the next (scenario simulation / trajectory
/// preview). Abstention handling per `options.on_abstain`; under kAbstain
/// the trajectory is truncated at the first abstention (possibly empty).
[[nodiscard]] std::vector<double> iterate_trajectory(const RuleSystem& one_step,
                                                     std::span<const double> window,
                                                     std::size_t steps,
                                                     const MultistepOptions& options = {});

}  // namespace ef::core
