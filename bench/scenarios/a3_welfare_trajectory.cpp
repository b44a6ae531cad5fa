// Ablation A3: the emergence of cooperation as a welfare trajectory. From
// an all-stingy start (every GTFT agent at g_1 = 0), the k-IGT dynamics
// climbs the generosity ladder; this scenario tracks the population's
// average generosity and per-interaction welfare over parallel time,
// across beta regimes — the dynamic picture behind the stationary results
// of E3/E4. Each curve is the mean over independent replicas run on the
// batch engine, with a 95% CI band on the welfare column.
#include <algorithm>
#include <string>
#include <vector>

#include "ppg/core/equilibrium.hpp"
#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/exp/replicate.hpp"
#include "ppg/exp/scenario.hpp"

namespace {

using namespace ppg;

scenario_result run_a3(const scenario_context& ctx) {
  scenario_result result;
  const std::size_t n = 400;
  const std::size_t k = 6;
  const double g_max = 0.6;
  const rd_setting setting{4.0, 1.0, 0.8, 0.95};
  const auto grid = generosity_grid(k, g_max);
  const auto payoffs = full_payoff_matrix(setting, k, g_max);
  const std::size_t replicas = ctx.pick<std::size_t>(4, 2);
  result.param("n", n);
  result.param("k", k);
  result.param("g_max", g_max);
  result.param("replicas", replicas);

  const std::uint64_t horizon = 60 * n;  // 60 units of parallel time
  const std::uint64_t stride = 6 * n;
  const std::size_t points = static_cast<std::size_t>(horizon / stride) + 1;

  const auto betas =
      ctx.pick<std::vector<double>>({0.1, 0.3, 0.6}, {0.1, 0.6});
  double final_avg_g_small_beta = 0.0;
  double peak_welfare_small_beta = 0.0;
  std::uint64_t salt = 0;
  for (const double beta : betas) {
    const double alpha = 0.1;
    const auto pop =
        abg_population::from_fractions(n, alpha, beta, 0.9 - beta);
    const igt_protocol proto(k);
    const sim_spec spec(proto, make_igt_census(pop, k, 0),
                        pair_sampling::with_replacement);

    // One replica: the generosity trace followed by the welfare trace,
    // sampled on the shared time grid.
    const auto batch = replicate_census(
        ctx.batch(replicas, salt++), [&](const replica_context&, rng& gen) {
          const auto sim = spec.make_engine(engine_kind::census, gen);
          std::vector<double> trace;
          trace.reserve(2 * points);
          std::vector<double> welfare_trace;
          welfare_trace.reserve(points);
          for (std::uint64_t t = 0; t <= horizon; t += stride) {
            if (t > 0) sim->run(stride);
            const auto census = gtft_level_counts(sim->census(), k);
            std::vector<double> mu(k);
            double avg_g = 0.0;
            for (std::size_t j = 0; j < k; ++j) {
              mu[j] = static_cast<double>(census[j]) /
                      static_cast<double>(pop.num_gtft);
              avg_g += grid[j] * mu[j];
            }
            const auto mu_hat = induced_full_distribution(
                mu, pop.alpha(), pop.beta(), pop.gamma());
            trace.push_back(avg_g);
            welfare_trace.push_back(population_welfare(payoffs, mu_hat) /
                                    setting.to_game().expected_rounds());
          }
          trace.insert(trace.end(), welfare_trace.begin(),
                       welfare_trace.end());
          return trace;
        });

    const auto mean = batch.mean();
    const auto band = batch.ci_half_width();
    double peak_welfare = 0.0;
    for (std::size_t i = 0; i < points; ++i) {
      peak_welfare = std::max(peak_welfare, mean[points + i]);
    }
    if (beta == betas.front()) {
      final_avg_g_small_beta = mean[points - 1];
      peak_welfare_small_beta = peak_welfare;
    }

    auto& table = result.table(
        "beta = " + format_metric(pop.beta(), 3) +
            " (lambda = " + format_metric(pop.lambda(), 3) + ")",
        {"parallel time", "avg generosity", "welfare/round", "95% CI",
         "welfare bar"});
    for (std::size_t i = 0; i < points; ++i) {
      const double w = mean[points + i];
      const auto len = static_cast<std::size_t>(
          std::max(0.0, w / peak_welfare) * 30.0);
      table.add_row(
          {format_metric(static_cast<double>(i * stride) /
                         static_cast<double>(n)),
           format_metric(mean[i], 4), format_metric(w, 4),
           format_metric(band[points + i], 3), std::string(len, '#')});
    }
  }

  result.metric("final_avg_g_small_beta", final_avg_g_small_beta,
                metric_goal::maximize);
  result.metric("peak_welfare_small_beta", peak_welfare_small_beta);
  result.note(
      "Expected shape: for small beta, generosity and welfare climb "
      "together and\nsaturate near the stationary values within O(k log n) "
      "parallel time; for large\nbeta the climb stalls near the bottom and "
      "welfare stays depressed by defection.");
  return result;
}

[[maybe_unused]] const bool registered = register_scenario(
    "a3_welfare_trajectory", "igt,trajectory,welfare,census-engine",
    "Welfare trajectories of the k-IGT dynamics", run_a3);

}  // namespace
