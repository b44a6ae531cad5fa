// Ablation A1: one-way vs two-way update discipline. The paper adopts the
// standard one-way protocol (only the initiator updates; footnote 3). The
// two-way variant doubles the per-agent update rate without changing the
// up/down ratio, so Theorem 2.7's stationary census should be unchanged
// while convergence roughly doubles in speed — a free 2x if the application
// allows symmetric updates.
#include <algorithm>
#include <vector>

#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/exp/replicate.hpp"
#include "ppg/exp/scenario.hpp"
#include "ppg/stats/empirical.hpp"
#include "ppg/util/table.hpp"

namespace {

using namespace ppg;

std::vector<double> stationary_census(const abg_population& pop,
                                      std::size_t k,
                                      revision_discipline discipline,
                                      std::uint64_t steps, rng gen) {
  const igt_protocol proto(k, discipline);
  const sim_spec spec(proto, make_igt_census(pop, k, 0),
                      pair_sampling::with_replacement);
  const auto sim = spec.make_engine(engine_kind::census, gen);
  sim->run(steps);
  std::vector<double> occupancy(k, 0.0);
  const std::uint64_t samples = steps;
  for (std::uint64_t i = 0; i < samples; ++i) {
    sim->step();
    const auto census = gtft_level_counts(sim->census(), k);
    for (std::size_t j = 0; j < k; ++j) {
      occupancy[j] += static_cast<double>(census[j]);
    }
  }
  for (auto& x : occupancy) {
    x /= static_cast<double>(samples) * static_cast<double>(pop.num_gtft);
  }
  return occupancy;
}

double hitting_time(const abg_population& pop, std::size_t k,
                    revision_discipline discipline, rng& gen) {
  const auto probs = igt_stationary_probs(pop, k);
  double target = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    target += static_cast<double>(j) * probs[j];
  }
  target *= 0.9;
  const igt_protocol proto(k, discipline);
  const sim_spec spec(proto, make_igt_census(pop, k, 0),
                      pair_sampling::with_replacement);
  const auto sim = spec.make_engine(engine_kind::census, gen);
  for (std::uint64_t t = 32; t <= 100'000'000; t += 32) {
    sim->run(32);
    const auto census = gtft_level_counts(sim->census(), k);
    double mean_level = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      mean_level += static_cast<double>(j) * static_cast<double>(census[j]);
    }
    if (mean_level / static_cast<double>(pop.num_gtft) >= target) {
      return static_cast<double>(t);
    }
  }
  return 100'000'000.0;
}

scenario_result run_a1(const scenario_context& ctx) {
  scenario_result result;
  const std::size_t k = 6;
  const std::uint64_t census_steps = ctx.pick<std::uint64_t>(400'000, 120'000);
  const std::size_t replicas = ctx.pick<std::size_t>(6, 3);
  result.param("k", k);
  result.param("census_steps", census_steps);
  result.param("hitting_replicas", replicas);

  std::uint64_t salt = 0;
  auto& census_table = result.table(
      "(a) stationary census is discipline-invariant (TV vs Theorem 2.7)",
      {"beta", "TV one-way", "TV two-way"});
  const auto betas =
      ctx.pick<std::vector<double>>({0.15, 0.3, 0.5}, {0.15, 0.3});
  double max_tv = 0.0;
  for (const double beta : betas) {
    const auto pop =
        abg_population::from_fractions(300, 0.1, beta, 0.9 - beta);
    const auto expected = igt_stationary_probs(pop, k);
    const auto one = stationary_census(pop, k, revision_discipline::one_way,
                                       census_steps, ctx.make_rng(salt++));
    const auto two = stationary_census(pop, k, revision_discipline::two_way,
                                       census_steps, ctx.make_rng(salt++));
    const double tv_one = total_variation(one, expected);
    const double tv_two = total_variation(two, expected);
    max_tv = std::max(max_tv, std::max(tv_one, tv_two));
    census_table.add_row({format_metric(pop.beta(), 3),
                          format_metric(tv_one, 4),
                          format_metric(tv_two, 4)});
  }

  // Mean hitting time over independent replicas, fanned across the batch
  // engine's worker pool.
  const auto mean_hitting_time = [&](const abg_population& pop,
                                     revision_discipline discipline) {
    return replicate_scalar(ctx.batch(replicas, salt++),
                            [&](const replica_context&, rng& gen) {
                              return hitting_time(pop, k, discipline, gen);
                            })
        .mean();
  };

  auto& speed_table = result.table(
      "(b) convergence speedup (hitting-time proxy, replica mean)",
      {"n", "one-way", "two-way", "speedup"});
  const auto ns =
      ctx.pick<std::vector<std::size_t>>({300, 600, 1200}, {300, 600});
  double min_speedup = 1e300;
  for (const std::size_t n : ns) {
    const auto pop = abg_population::from_fractions(n, 0.1, 0.2, 0.7);
    const double one = mean_hitting_time(pop, revision_discipline::one_way);
    const double two = mean_hitting_time(pop, revision_discipline::two_way);
    min_speedup = std::min(min_speedup, one / two);
    speed_table.add_row({format_metric(static_cast<double>(n)),
                         fmt_count(static_cast<std::uint64_t>(one)),
                         fmt_count(static_cast<std::uint64_t>(two)),
                         format_metric(one / two, 4)});
  }

  result.metric("max_tv", max_tv, metric_goal::minimize);
  result.metric("min_speedup", min_speedup, metric_goal::maximize);
  result.note(
      "Expected shape: both disciplines hit the Theorem 2.7 census (TV ~ "
      "0.01); the\ntwo-way variant converges ~2x faster (each interaction "
      "performs up to two\nupdates).");
  return result;
}

[[maybe_unused]] const bool registered = register_scenario(
    "a1_discipline_ablation", "igt,ablation,census-engine",
    "One-way vs two-way IGT update discipline", run_a1);

}  // namespace
