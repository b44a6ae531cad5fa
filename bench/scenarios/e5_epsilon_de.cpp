// Experiment E5 (Theorem 2.9): the normalized mean stationary distribution
// mu of the k-IGT dynamics is an epsilon-approximate distributional
// equilibrium with epsilon = O(1/k).
//
// Three parts:
//  (a) exact Psi(k) decay within the (corrected) admissible regime — the
//      k*Psi column should stabilize;
//  (b) Psi measured from an actual census-engine simulation census;
//  (c) reproduction note — an instance satisfying the paper's *literal*
//      constraints whose equation-(63) bracket is negative: Psi stays
//      Theta(1). The corrected deviation-gain condition (see theory.hpp)
//      separates the two regimes.
#include <algorithm>
#include <cmath>
#include <vector>

#include "ppg/core/equilibrium.hpp"
#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/core/theory.hpp"
#include "ppg/exp/replicate.hpp"
#include "ppg/exp/scenario.hpp"

namespace {

using namespace ppg;

scenario_result run_e5(const scenario_context& ctx) {
  scenario_result result;
  const double alpha = 0.1;
  const double beta = 0.2;  // lambda = 4
  const double gamma = 0.7;
  const auto instance = make_theorem_2_9_instance(beta, gamma, 0.5);
  const auto cond =
      check_theorem_2_9(instance.setting, beta, gamma, instance.g_max);
  result.param("b", instance.setting.b);
  result.param("c", instance.setting.c);
  result.param("delta", instance.setting.delta);
  result.param("s1", instance.setting.s1);
  result.param("g_max", instance.g_max);
  result.param("conditions_hold", cond.all());

  auto& psi_table = result.table(
      "(a) exact Psi(k) under the stationary mean distribution",
      {"k", "Psi", "k*Psi", "best deviation level",
       "L*Var bound (D.1-D.3)"});
  double last_k_psi = 0.0;
  for (const std::size_t k : {2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const igt_equilibrium_analyzer analyzer(instance.setting, alpha, beta,
                                            gamma, k, instance.g_max);
    const auto de = analyzer.stationary_gap();
    const double l_bound =
        second_derivative_bound(instance.setting, instance.g_max) *
        stationary_generosity_variance(beta, k, instance.g_max);
    last_k_psi = de.epsilon * static_cast<double>(k);
    psi_table.add_row({format_metric(static_cast<double>(k)),
                       format_metric(de.epsilon, 4),
                       format_metric(last_k_psi, 4),
                       format_metric(static_cast<double>(de.best_level + 1)),
                       format_metric(l_bound, 3)});
  }

  const std::size_t n = 300;
  const std::size_t replicas = ctx.pick<std::size_t>(4, 2);
  const std::uint64_t samples = ctx.pick<std::uint64_t>(100'000, 30'000);
  const auto sim_ks =
      ctx.pick<std::vector<std::size_t>>({4, 8, 16}, {4, 8});
  result.param("sim_n", n);
  result.param("sim_replicas", replicas);
  result.param("sim_samples", samples);
  auto& sim_table = result.table(
      "(b) Psi of the census measured from the census-engine simulation",
      {"k", "Psi (ideal mu)", "Psi (simulated census)"});
  const auto pop = abg_population::from_fractions(n, alpha, beta, gamma);
  double max_psi_gap = 0.0;
  std::uint64_t salt = 0;
  for (const std::size_t k : sim_ks) {
    const igt_equilibrium_analyzer analyzer(instance.setting, alpha, beta,
                                            gamma, k, instance.g_max);
    const igt_protocol proto(k);
    const sim_spec spec(proto, make_igt_census(pop, k, 0),
                        pair_sampling::with_replacement);
    const auto burn =
        static_cast<std::uint64_t>(igt_mixing_upper_bound(pop, k));
    const auto batch = replicate_time_averaged_census(
        spec, engine_kind::census, burn, samples, ctx.batch(replicas, salt++),
        [&](const census_view& census) {
          const auto z = gtft_level_counts(census, k);
          std::vector<double> mu(k);
          for (std::size_t j = 0; j < k; ++j) {
            mu[j] = static_cast<double>(z[j]) /
                    static_cast<double>(pop.num_gtft);
          }
          return mu;
        });
    const double psi_ideal = analyzer.stationary_gap().epsilon;
    const double psi_sim = analyzer.gap(batch.mean()).epsilon;
    max_psi_gap = std::max(max_psi_gap, std::abs(psi_sim - psi_ideal));
    sim_table.add_row({format_metric(static_cast<double>(k)),
                       format_metric(psi_ideal, 4),
                       format_metric(psi_sim, 4)});
  }

  const rd_setting bad{4.0, 1.0, 0.45, 0.5};
  const auto bad_cond = check_theorem_2_9(bad, 0.2, 0.7, 0.9);
  result.param("bad_paper_conditions_hold", bad_cond.paper_conditions());
  result.param("bad_deviation_coefficient", bad_cond.deviation_coefficient);
  auto& bad_table = result.table(
      "(c) literal-conditions instance with a negative equation-(63) "
      "bracket:\n    Psi does NOT decay",
      {"k", "Psi", "k*Psi", "best deviation level"});
  double bad_last_psi = 0.0;
  for (const std::size_t k : {4u, 16u, 64u}) {
    const igt_equilibrium_analyzer analyzer(bad, 0.1, 0.2, 0.7, k, 0.9);
    const auto de = analyzer.stationary_gap();
    bad_last_psi = de.epsilon;
    bad_table.add_row({format_metric(static_cast<double>(k)),
                       format_metric(de.epsilon, 4),
                       format_metric(de.epsilon * static_cast<double>(k), 4),
                       format_metric(static_cast<double>(de.best_level + 1))});
  }

  result.metric("last_k_psi", last_k_psi);
  result.metric("max_psi_sim_gap", max_psi_gap, metric_goal::minimize);
  result.metric("bad_instance_psi_at_64", bad_last_psi);
  result.note(
      "Expected shape: (a) k*Psi stabilizes (O(1/k) decay), the best "
      "deviation is the\ntop level and the Taylor term L*Var = O(1/k^2) is "
      "dominated; (b) simulated Psi\ntracks the ideal one; (c) Psi ~ "
      "constant with the best deviation at level 1 —\nthe corrected "
      "condition is necessary.");
  return result;
}

[[maybe_unused]] const bool registered = register_scenario(
    "e5_epsilon_de", "igt,equilibrium,census-engine",
    "Epsilon-approximate distributional equilibrium (Theorem 2.9)", run_e5);

}  // namespace
