#include "oracle/paper_oracle.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace ef::oracle {

using core::Interval;
using core::LinearFit;
using core::PredictingPart;
using core::Rule;

namespace {

/// Paper §3.1: the window fits the rule when every bounded gene holds its
/// lag, lo <= v <= hi (so NaN fails), and wildcards hold anything.
bool matches(std::span<const Interval> genes, std::span<const double> window) {
  if (genes.size() != window.size()) return false;
  for (std::size_t j = 0; j < genes.size(); ++j) {
    if (genes[j].is_wildcard()) continue;
    if (!(genes[j].lo() <= window[j] && window[j] <= genes[j].hi())) return false;
  }
  return true;
}

/// The hyperplane a_D + Σ a_j·x_j, summed from the intercept up.
double hyperplane(const std::vector<double>& coeffs, std::span<const double> x) {
  double v = coeffs.back();
  for (std::size_t j = 0; j + 1 < coeffs.size() && j < x.size(); ++j) v += coeffs[j] * x[j];
  return v;
}

/// Solve A·w = b for a symmetric positive-definite A (n×n, row-major) by
/// Cholesky, A = L·Lᵀ with L in A's lower triangle, then L·z = b and
/// Lᵀ·w = z. False when a pivot is not a positive finite number.
bool cholesky_solve(std::vector<double>& a, std::vector<double>& b, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    double pivot = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) pivot -= a[j * n + k] * a[j * n + k];
    if (!(pivot > 0.0) || !std::isfinite(pivot)) return false;
    a[j * n + j] = std::sqrt(pivot);
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) v -= a[i * n + k] * a[j * n + k];
      a[i * n + j] = v / a[j * n + j];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= a[i * n + k] * b[k];
    b[i] = v / a[i * n + i];
  }
  for (std::size_t i = n; i-- > 0;) {
    double v = b[i];
    for (std::size_t k = i + 1; k < n; ++k) v -= a[k * n + i] * b[k];
    b[i] = v / a[i * n + i];
  }
  return true;
}

/// Least-squares hyperplane over the matched windows (paper §3.1). This is
/// the specification of the library's summation order:
///   * fewer than D+2 rows, or a system Cholesky cannot solve: the constant
///     model, the targets' mean summed in row order;
///   * otherwise the normal equations (XᵀX)·a = Xᵀy over X = (x, 1): every
///     entry of the upper triangle of XᵀX and of Xᵀy starts at zero and adds
///     one product per row, in row order; the lower triangle mirrors it;
///     a ridge of 1e-8 · trace(XᵀX) / (D+1) is added to the diagonal;
///   * then one pass over the rows takes e_R = max |y − ŷ| and the mean ŷ.
LinearFit fit(const Windows& w, const std::vector<std::size_t>& rows) {
  const std::size_t d = w.d;
  const std::size_t n = d + 1;
  LinearFit f;
  bool solved = false;
  if (rows.size() >= d + 2) {
    std::vector<double> a(n * n, 0.0);
    std::vector<double> b(n, 0.0);
    for (const std::size_t r : rows) {
      const std::vector<double>& x = w.x[r];
      for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = i; j < d; ++j) a[i * n + j] += x[i] * x[j];
        a[i * n + d] += x[i];
        b[i] += x[i] * w.y[r];
      }
      a[d * n + d] += 1.0;
      b[d] += w.y[r];
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) a[i * n + j] = a[j * n + i];
    }
    double trace = 0.0;
    for (std::size_t i = 0; i < n; ++i) trace += a[i * n + i];
    const double ridge = 1e-8 * trace / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) a[i * n + i] += ridge;
    solved = cholesky_solve(a, b, n);
    if (solved) f.coeffs = b;
  }
  if (!solved) {
    double mean = 0.0;
    for (const std::size_t r : rows) mean += w.y[r];
    mean /= static_cast<double>(rows.size());
    f.coeffs.assign(n, 0.0);
    f.coeffs[d] = mean;
    f.degenerate = true;
  }
  double max_residual = 0.0;
  double sum_prediction = 0.0;
  for (const std::size_t r : rows) {
    const double p = hyperplane(f.coeffs, w.x[r]);
    const double residual = std::abs(w.y[r] - p);
    if (residual > max_residual) max_residual = residual;
    sum_prediction += p;
  }
  f.max_abs_residual = max_residual;
  f.mean_prediction = sum_prediction / static_cast<double>(rows.size());
  return f;
}

double fitness_of(const Rule& rule) { return rule.predicting()->fitness; }

/// Paper §3.2: cut [min target, max target] into P equal strata; rule p's
/// gene j spans lag j over the windows whose target lies in stratum p (the
/// last stratum closed on the right), or the whole value range when the
/// stratum is empty.
std::vector<Rule> initial_population(const Windows& w, std::size_t p_count) {
  const double step = (w.target_max - w.target_min) / static_cast<double>(p_count);
  std::vector<Rule> population;
  for (std::size_t p = 0; p < p_count; ++p) {
    const bool last = p + 1 == p_count;
    const double lo = w.target_min + static_cast<double>(p) * step;
    const double hi = last ? w.target_max : w.target_min + static_cast<double>(p + 1) * step;
    std::vector<double> mins;
    std::vector<double> maxs;
    for (std::size_t i = 0; i < w.x.size(); ++i) {
      const double t = w.y[i];
      if (!(lo <= t && (last ? t <= hi : t < hi))) continue;
      if (mins.empty()) {
        mins = maxs = w.x[i];
        continue;
      }
      for (std::size_t j = 0; j < w.d; ++j) {
        if (w.x[i][j] < mins[j]) mins[j] = w.x[i][j];
        if (w.x[i][j] > maxs[j]) maxs[j] = w.x[i][j];
      }
    }
    std::vector<Interval> genes;
    for (std::size_t j = 0; j < w.d; ++j) {
      genes.push_back(mins.empty() ? Interval(w.value_min, w.value_max)
                                   : Interval(mins[j], maxs[j]));
    }
    population.emplace_back(std::move(genes));
  }
  return population;
}

/// The best of `rounds` uniform draws (with replacement); ties keep the
/// earlier draw.
std::size_t tournament(const std::vector<Rule>& population, std::size_t rounds,
                       util::Rng& rng) {
  std::size_t best = rng.index(population.size());
  for (std::size_t r = 1; r < rounds; ++r) {
    const std::size_t c = rng.index(population.size());
    if (fitness_of(population[c]) > fitness_of(population[best])) best = c;
  }
  return best;
}

double clamp(double v, double lo, double hi) { return v < lo ? lo : (hi < v ? hi : v); }

/// Paper §3.1 mutation, gene by gene: with probability mutation_prob the
/// gene is edited — with probability wildcard_toggle_prob the edit toggles
/// the wildcard (a wildcard becomes an interval of width `step` around a
/// uniform centre), otherwise it is one of enlarge, shrink, shift up, shift
/// down, chosen uniformly, by a step uniform in [0, mutation_scale·range).
/// Geometric edits leave a wildcard alone; a shrink past zero width
/// collapses to the midpoint; bounds are clamped to the value range.
void mutate(std::vector<Interval>& genes, const Windows& w, const Config& config,
            util::Rng& rng) {
  const double lo = w.value_min;
  const double hi = w.value_max;
  for (Interval& gene : genes) {
    if (!rng.bernoulli(config.mutation_prob)) continue;
    const bool toggle = rng.bernoulli(config.wildcard_toggle_prob);
    const std::size_t op = toggle ? 4 : rng.index(4);
    const double step = rng.uniform() * config.mutation_scale * (hi - lo);
    if (toggle) {
      if (gene.is_wildcard()) {
        const double centre = rng.uniform(lo, hi);
        gene = Interval(clamp(centre - 0.5 * step, lo, hi), clamp(centre + 0.5 * step, lo, hi));
      } else {
        gene = Interval::wildcard();
      }
      continue;
    }
    if (gene.is_wildcard()) continue;
    double a = gene.lo();
    double b = gene.hi();
    if (op == 0) {  // enlarge
      a -= step;
      b += step;
    } else if (op == 1) {  // shrink
      a += step;
      b -= step;
      if (a > b) a = b = 0.5 * (gene.lo() + gene.hi());
    } else if (op == 2) {  // shift up
      a += step;
      b += step;
    } else {  // shift down
      a -= step;
      b -= step;
    }
    a = clamp(a, lo, hi);
    b = clamp(b, lo, hi);
    if (a > b) std::swap(a, b);
    gene = Interval(a, b);
  }
}

/// Percentage of windows matched by at least one rule.
double coverage_percent(const std::vector<Rule>& rules, const Windows& w) {
  std::size_t covered = 0;
  for (const std::vector<double>& x : w.x) {
    for (const Rule& rule : rules) {
      if (matches(rule.genes(), x)) {
        ++covered;
        break;
      }
    }
  }
  return 100.0 * static_cast<double>(covered) / static_cast<double>(w.x.size());
}

/// One execution of the steady-state engine (paper §3.3).
std::vector<Rule> evolve(const Windows& w, const Config& config, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Rule> population = initial_population(w, config.population_size);
  for (Rule& rule : population) evaluate(rule, w, config);

  for (std::size_t g = 0; g < config.generations; ++g) {
    const std::size_t pa = tournament(population, config.tournament_rounds, rng);
    const std::size_t pb = tournament(population, config.tournament_rounds, rng);
    std::vector<Interval> genes;
    for (std::size_t j = 0; j < w.d; ++j) {
      genes.push_back(rng.bernoulli(0.5) ? population[pa].genes()[j]
                                         : population[pb].genes()[j]);
    }
    mutate(genes, w, config, rng);
    Rule offspring(std::move(genes));
    evaluate(offspring, w, config);

    // Crowding: the individual whose prediction value is nearest (first on
    // ties) is replaced, and only by a fitter offspring.
    std::size_t nearest = 0;
    double nearest_distance = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < population.size(); ++i) {
      const double distance = std::abs(population[i].predicting()->prediction() -
                                       offspring.predicting()->prediction());
      if (distance < nearest_distance) {
        nearest_distance = distance;
        nearest = i;
      }
    }
    if (fitness_of(offspring) > fitness_of(population[nearest])) {
      population[nearest] = std::move(offspring);
    }
  }
  return population;
}

}  // namespace

Windows make_windows(std::span<const double> series, std::size_t d, std::size_t horizon,
                     std::size_t stride) {
  if (d == 0 || stride == 0) throw std::invalid_argument("make_windows: zero D or stride");
  const std::size_t reach = (d - 1) * stride + horizon;
  if (series.size() < reach + 1) throw std::invalid_argument("make_windows: series too short");
  Windows w;
  w.d = d;
  for (std::size_t i = 0; i + reach < series.size(); ++i) {
    std::vector<double> x;
    for (std::size_t j = 0; j < d; ++j) x.push_back(series[i + j * stride]);
    w.x.push_back(x);
    w.y.push_back(series[i + reach]);
  }
  w.value_min = w.value_max = series[0];
  for (const double v : series) {
    if (v < w.value_min) w.value_min = v;
    if (v > w.value_max) w.value_max = v;
  }
  w.target_min = w.target_max = w.y[0];
  for (const double v : w.y) {
    if (v < w.target_min) w.target_min = v;
    if (v > w.target_max) w.target_max = v;
  }
  return w;
}

std::vector<std::size_t> match(std::span<const Interval> genes, const Windows& w) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < w.x.size(); ++i) {
    if (matches(genes, w.x[i])) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> match_rows(std::span<const Interval> genes, const double* rows,
                                    std::size_t count, std::size_t window) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < count; ++i) {
    if (matches(genes, {rows + i * window, window})) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> voters(std::span<const Rule> rules, std::span<const double> window) {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    if (rules[r].predicting() && matches(rules[r].genes(), window)) out.push_back(r);
  }
  return out;
}

void evaluate(Rule& rule, const Windows& w, const Config& config) {
  const std::vector<std::size_t> rows = match(rule.genes(), w);
  PredictingPart part;
  part.matches = rows.size();
  if (rows.empty()) {
    // Nothing to fit: a zero hyperplane at the error bound, scored f_min.
    part.fit.coeffs.assign(w.d + 1, 0.0);
    part.fit.max_abs_residual = config.emax;
    part.fit.degenerate = true;
    part.fitness = config.f_min;
  } else {
    part.fit = fit(w, rows);
    const double e = part.fit.max_abs_residual;
    part.fitness = rows.size() > 1 && e < config.emax
                       ? static_cast<double>(rows.size()) * config.emax - e
                       : config.f_min;
  }
  rule.set_predicting(std::move(part));
}

Result train(const Windows& w, const Config& config) {
  Result result;
  util::Rng seeder(config.seed);
  for (std::size_t e = 0; e < config.max_executions; ++e) {
    const std::uint64_t seed = e == 0 ? config.seed : seeder();
    for (Rule& rule : evolve(w, config, seed)) {
      if (config.discard_unfit && fitness_of(rule) <= config.f_min) continue;
      result.rules.push_back(std::move(rule));
    }
    ++result.executions;
    result.coverage_per_execution.push_back(coverage_percent(result.rules, w));
    if (result.coverage_per_execution.back() >= config.coverage_target_percent) break;
  }
  return result;
}

std::vector<std::optional<double>> forecast(const std::vector<Rule>& rules, const Windows& w) {
  std::vector<std::optional<double>> out;
  for (const std::vector<double>& x : w.x) {
    double sum = 0.0;
    std::size_t votes = 0;
    for (const Rule& rule : rules) {
      if (!matches(rule.genes(), x)) continue;
      sum += hyperplane(rule.predicting()->fit.coeffs, x);
      ++votes;
    }
    out.push_back(votes == 0 ? std::nullopt
                             : std::optional<double>(sum / static_cast<double>(votes)));
  }
  return out;
}

}  // namespace ef::oracle
