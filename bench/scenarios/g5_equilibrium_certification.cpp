// Experiment G5: equilibrium certification across the game zoo. For every
// zoo entry — the named classics plus seeded random games on q = 2..6
// strategies — the solver stack computes the symmetric Nash set by support
// enumeration and the logit-homotopy limiting point, the certifier derives
// the rule's own predicted limit from the mean-field ODE, and both
// engines' time-averaged censuses are certified against that prediction.
// The one-way logit rule makes the mean-field drift linear (a positive
// column-stochastic response matrix), so every game in the zoo has a unique
// attracting fixed point and the prediction is trusted on all of them; the
// gate pins the solver metrics (equilibrium counts, homotopy convergence)
// and the certification rate, all pure functions of the master seed.
//
// The engines are gated on noise-scaled distances: each run's TV to the
// mean-field trajectory averaged over the same window (which removes the
// slow games' burn-in transient), divided by that TV's batch-means
// standard error. Slow-mixing zoo games make batch means underestimate
// the error and give z a heavy tail, so the gate is a share of runs within
// z_limit per engine, not a threshold on the worst run.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ppg/exp/scenario.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/mean_field.hpp"
#include "ppg/games/solver/certify.hpp"
#include "ppg/games/solver/zoo.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/stats/summary.hpp"
#include "ppg/util/rng.hpp"

namespace {

using namespace ppg;

scenario_result run_g5(const scenario_context& ctx) {
  scenario_result result;
  const double temperature = 0.35;
  const auto n = ctx.pick<std::uint64_t>(10'000, 2'000);
  const double burn_time = 40.0;
  const double average_time = ctx.pick(60.0, 30.0);
  const auto random_per_size = ctx.pick<std::size_t>(4, 1);
  constexpr std::uint64_t batches = 10;
  constexpr double z_limit = 3.0;
  // Sized by the worst zoo citizen: stag-hunt mixes slowly near its logit
  // fixed point, so its time-average carries the largest error (TV ~0.022
  // at n = 10^4). The smoke population is 5x smaller, so the fluctuation
  // scale is sqrt(5)x larger and the tolerance widens with it.
  const double tolerance = ctx.pick(0.03, 0.06);
  result.param("temperature", temperature);
  result.param("n", n);
  result.param("burn_parallel_time", burn_time);
  result.param("average_parallel_time", average_time);
  result.param("random_games_per_size", random_per_size);
  result.param("certify_tolerance", tolerance);
  result.param("batches", batches);
  result.param("z_limit", z_limit);

  const auto zoo =
      make_game_zoo(derive_stream_seed(ctx.seed, 0x675), random_per_size);
  const auto rule = std::make_shared<logit_response_rule>(temperature);
  constexpr engine_kind kinds[] = {engine_kind::census,
                                   engine_kind::multibatch};
  // Each engine's seed salt within a game's four: the first belonged to
  // the agent engine and the third to the batched engine, both retired;
  // they stay unused so the other engines keep their seeds.
  constexpr std::uint64_t kind_salts[] = {1, 3};

  auto& table = result.table(
      "per-game solver structure and two-engine certification",
      {"game", "q", "equilibria", "homotopy residual", "rungs", "certified",
       "max TV to prediction", "max z"});
  std::size_t total_equilibria = 0;
  std::size_t homotopy_converged = 0;
  double homotopy_max_residual = 0.0;
  std::uint64_t homotopy_total_rungs = 0;
  std::size_t certified = 0;
  std::size_t prediction_matched = 0;
  std::size_t verdicts = 0;
  double max_tv_to_prediction = 0.0;
  std::size_t within_z[std::size(kinds)] = {};
  const auto burn_strides = static_cast<std::uint64_t>(burn_time * 10.0);
  const auto strides = static_cast<std::uint64_t>(average_time * 10.0);
  const std::uint64_t batch_strides = strides / batches;
  std::uint64_t salt = 1;
  for (const auto& entry : zoo) {
    const std::size_t q = entry.game.num_strategies();
    const equilibrium_certifier certifier(
        entry.game, rule, revision_discipline::one_way, tolerance);
    total_equilibria += certifier.equilibria().size();
    const auto& homotopy = certifier.limiting_point();
    if (homotopy.converged) ++homotopy_converged;
    homotopy_max_residual =
        std::max(homotopy_max_residual, homotopy.residual);
    homotopy_total_rungs += homotopy.path.size();

    // Uniform initial census over the game's strategies.
    std::vector<std::uint64_t> initial(q, n / q);
    initial[0] += n - (n / q) * q;
    const game_protocol proto(entry.game, rule,
                              revision_discipline::one_way);
    const sim_spec spec(proto, initial);
    // The mean-field trajectory from the same census, averaged at the
    // engines' sampling instants (RK4 at dt 0.02, recorded every 0.1).
    std::vector<double> x0(q);
    for (std::size_t s = 0; s < q; ++s) {
      x0[s] = static_cast<double>(initial[s]) / static_cast<double>(n);
    }
    const auto trajectory = integrate_mean_field(
        mean_field_ode(proto), x0, 0.02, 5 * (burn_strides + strides), 5);
    std::vector<double> expected(q, 0.0);
    for (std::uint64_t i = 1; i <= strides; ++i) {
      for (std::size_t s = 0; s < q; ++s) {
        expected[s] += trajectory.states[burn_strides + i][s];
      }
    }
    for (auto& x : expected) x /= static_cast<double>(strides);

    std::size_t game_certified = 0;
    double game_max_tv = 0.0;
    double game_max_z = 0.0;
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
      rng gen = ctx.make_rng(salt + kind_salts[k]);
      const auto engine = spec.make_engine(kinds[k], gen);
      engine->run(
          static_cast<std::uint64_t>(burn_time * static_cast<double>(n)));
      std::vector<double> mean(q, 0.0);
      std::vector<std::vector<double>> batch_means(batches,
                                                   std::vector<double>(q));
      for (auto& batch : batch_means) {
        for (std::uint64_t i = 0; i < batch_strides; ++i) {
          engine->run(n / 10);  // parallel time 0.1 per stride
          const auto fractions = engine->census().fractions();
          for (std::size_t s = 0; s < q; ++s) {
            mean[s] += fractions[s];
            batch[s] += fractions[s];
          }
        }
        for (auto& x : batch) x /= static_cast<double>(batch_strides);
      }
      for (auto& x : mean) x /= static_cast<double>(strides);
      // TV(mean, expected) is the mean of the batches' projections onto
      // the sign pattern of mean - expected; its standard error is theirs.
      running_summary projections;
      for (const auto& batch : batch_means) {
        double projection = 0.0;
        for (std::size_t s = 0; s < q; ++s) {
          const double sign = mean[s] >= expected[s] ? 0.5 : -0.5;
          projection += sign * (batch[s] - expected[s]);
        }
        projections.add(projection);
      }
      const double z = projections.mean() / projections.std_error();
      if (z <= z_limit) ++within_z[k];
      game_max_z = std::max(game_max_z, z);
      const auto verdict = certifier.certify(mean);
      ++verdicts;
      if (verdict.certified) {
        ++certified;
        ++game_certified;
      }
      if (verdict.rule_predicts_equilibrium) ++prediction_matched;
      game_max_tv = std::max(game_max_tv, verdict.tv_to_prediction);
    }
    salt += 4;
    max_tv_to_prediction = std::max(max_tv_to_prediction, game_max_tv);
    table.add_row(
        {entry.name, format_metric(static_cast<double>(q)),
         format_metric(static_cast<double>(certifier.equilibria().size())),
         format_metric(homotopy.residual, 3),
         format_metric(static_cast<double>(homotopy.path.size())),
         format_metric(static_cast<double>(game_certified)) + "/" +
             std::to_string(std::size(kinds)),
         format_metric(game_max_tv, 4), format_metric(game_max_z, 3)});
  }

  const auto fraction = [](std::size_t count, std::size_t total) {
    return static_cast<double>(count) / static_cast<double>(total);
  };
  result.metric("zoo_games", static_cast<double>(zoo.size()),
                metric_goal::maximize);
  result.metric("zoo_equilibria", static_cast<double>(total_equilibria),
                metric_goal::maximize);
  result.metric("homotopy_converged_fraction",
                fraction(homotopy_converged, zoo.size()),
                metric_goal::maximize);
  result.metric("homotopy_all_converged",
                homotopy_converged == zoo.size() ? 1.0 : 0.0,
                metric_goal::maximize);
  result.metric("homotopy_max_residual", homotopy_max_residual);
  result.metric("homotopy_total_rungs",
                static_cast<double>(homotopy_total_rungs));
  result.metric("certified_fraction", fraction(certified, verdicts),
                metric_goal::maximize);
  result.metric("prediction_match_fraction",
                fraction(prediction_matched, verdicts),
                metric_goal::maximize);
  // Informational: the worst run's raw distance, dominated by whichever
  // zoo game mixes slowest at this seed.
  result.metric("max_tv_to_prediction", max_tv_to_prediction);
  result.metric("min_engine_share_within_z_limit",
                fraction(*std::min_element(std::begin(within_z),
                                           std::end(within_z)),
                         zoo.size()),
                metric_goal::maximize);
  result.note(
      "Expected shape: the homotopy converges on every zoo game (residual\n"
      "at its tolerance), the one-way logit mean field is trusted on all\n"
      "of them, and every engine's time-averaged census certifies — TV to\n"
      "the predicted limit at the O(1/sqrt(n)) fluctuation scale, far\n"
      "inside the tolerance. Per engine, ~90% of runs sit within z_limit\n"
      "of the averaged mean-field trajectory; a biased engine or sampler\n"
      "drops its share far below that.");
  return result;
}

[[maybe_unused]] const bool registered = register_scenario(
    "g5_equilibrium_certification", "games,solver,engines",
    "Two-engine equilibrium certification across the game zoo", run_g5);

}  // namespace
