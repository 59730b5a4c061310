#include "core/multistep.hpp"

#include <stdexcept>

namespace ef::core {

Prediction iterate_chain(const RuleSystem& one_step, const RulePlanes& planes,
                         std::span<const double> window, std::size_t steps,
                         ChainAbstention on_abstain, Aggregation how,
                         std::vector<double>* values) {
  if (window.empty()) throw std::invalid_argument("iterate_chain: empty window");
  std::vector<double> state(window.begin(), window.end());
  Prediction last;
  for (std::size_t step = 0; step < steps; ++step) {
    const double previous = state.back();
    last = one_step.forecast(planes, state, how);
    if (last.abstained) {
      if (on_abstain == ChainAbstention::kAbstain) return Prediction{};
      last = Prediction{previous, 0, false};  // bridge with the latest level
    }
    last.bound = -1.0;
    if (values) values->push_back(last.value);
    // Slide the window: drop the oldest, append the prediction.
    state.erase(state.begin());
    state.push_back(last.value);
  }
  return last;
}

std::optional<double> iterate_forecast(const RuleSystem& one_step,
                                       std::span<const double> window,
                                       const MultistepOptions& options) {
  if (options.horizon == 0) throw std::invalid_argument("iterate_forecast: horizon == 0");
  return iterate_chain(one_step, one_step.compile_planes(window.size()), window,
                       options.horizon, options.on_abstain, options.aggregation)
      .as_optional();
}

std::vector<double> iterate_trajectory(const RuleSystem& one_step,
                                       std::span<const double> window, std::size_t steps,
                                       const MultistepOptions& options) {
  std::vector<double> trajectory;
  trajectory.reserve(steps);
  (void)iterate_chain(one_step, one_step.compile_planes(window.size()), window, steps,
                      options.on_abstain, options.aggregation, &trajectory);
  return trajectory;
}

series::PartialForecast iterate_forecast_dataset(const RuleSystem& one_step,
                                                 const WindowDataset& data,
                                                 ChainAbstention on_abstain,
                                                 Aggregation aggregation) {
  if (data.stride() != 1) {
    throw std::invalid_argument(
        "iterate_forecast_dataset: iterated forecasting requires stride-1 windows");
  }
  if (data.horizon() == 0) {
    throw std::invalid_argument("iterate_forecast_dataset: dataset horizon is 0");
  }
  const RulePlanes planes = one_step.compile_planes(data.window());
  series::PartialForecast out(data.count());
  for (std::size_t i = 0; i < data.count(); ++i) {
    out[i] = iterate_chain(one_step, planes, data.pattern(i), data.horizon(), on_abstain,
                           aggregation)
                 .as_optional();
  }
  return out;
}

}  // namespace ef::core
