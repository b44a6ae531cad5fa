// Experiment G2 (generic game-dynamics API): hawk-dove mixed-equilibrium
// convergence. Under the smoothed (logit) best response to the sampled
// partner, the mean-field ODE has a unique interior fixed point near the
// game's mixed ESS (hawk fraction v/c); the scenario relaxes the ODE from
// both corners, then checks that all three engines' time-averaged censuses
// converge to the same point from opposite initial conditions. Each run's
// distance to the fixed point is measured in units of its own batch-means
// standard error, so the gate counts runs that miss by more than noise
// allows rather than thresholding the noisiest run's raw distance. A bias
// of the shared kernel moves every run the same way, so the runs' signed
// z are also pooled: sum / sqrt(runs) is ~N(0, 1) without one.
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ppg/exp/scenario.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/mean_field.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/stats/summary.hpp"

namespace {

using namespace ppg;

scenario_result run_g2(const scenario_context& ctx) {
  scenario_result result;
  const double value = 1.0;
  const double cost = 2.0;
  const double temperature = 0.25;
  const auto n = ctx.pick<std::uint64_t>(100'000, 10'000);
  const double burn_time = 30.0;
  const double average_time = ctx.pick(200.0, 50.0);
  // 20 batches of 10 (smoke 2.5) parallel time each: hawk-dove relaxes in
  // O(1) time, so batch means are nearly independent and z is close to
  // Student t with 19 degrees of freedom, P(|z| > 4) < 10^-3 per run.
  constexpr std::uint64_t batches = 20;
  constexpr double z_limit = 4.0;
  result.param("value", value);
  result.param("cost", cost);
  result.param("temperature", temperature);
  result.param("n", n);
  result.param("burn_parallel_time", burn_time);
  result.param("average_parallel_time", average_time);
  result.param("batches", batches);
  result.param("z_limit", z_limit);

  const auto game = hawk_dove_matrix(value, cost);
  const game_protocol proto(
      game, std::make_shared<logit_response_rule>(temperature));
  const mean_field_ode ode(proto);
  const auto from_hawks =
      relax_to_fixed_point(ode, {0.95, 0.05}, 0.02, 1e-12, 2000.0);
  const auto from_doves =
      relax_to_fixed_point(ode, {0.05, 0.95}, 0.02, 1e-12, 2000.0);
  // The engines below are compared against from_hawks.state, so an
  // unconverged relaxation would silently gate against a meaningless
  // point; the convergence report makes that impossible.
  const bool ode_converged = from_hawks.converged && from_doves.converged;
  result.param("ode_iterations", from_hawks.iterations);
  result.param("ode_residual", from_hawks.residual);
  const double fixed_point_gap =
      std::abs(from_hawks.state[0] - from_doves.state[0]);
  const double hawk_star = from_hawks.state[0];
  const double ess_hawk = value / cost;

  auto& table = result.table(
      "time-averaged hawk fraction vs the mean-field fixed point",
      {"engine", "initial hawks", "time-avg hawks", "fixed point", "TV",
       "z"});
  double max_tv = 0.0;
  double max_z = 0.0;
  double z_sum = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t runs_beyond_z = 0;
  // Four seed salts per initial census: the third belonged to the batched
  // engine, which multibatch absorbed, and stays unused so the other
  // engines keep their seeds.
  constexpr std::pair<engine_kind, std::uint64_t> kinds[] = {
      {engine_kind::agent, 0},
      {engine_kind::census, 1},
      {engine_kind::multibatch, 3}};
  std::uint64_t salt = 1;
  for (const double initial_hawks : {0.95, 0.05}) {
    const auto hawks =
        static_cast<std::uint64_t>(initial_hawks * static_cast<double>(n));
    const sim_spec spec(proto,
                        std::vector<std::uint64_t>{hawks, n - hawks});
    for (const auto& [kind, slot] : kinds) {
      rng gen = ctx.make_rng(salt + slot);
      const auto engine = spec.make_engine(kind, gen);
      engine->run(
          static_cast<std::uint64_t>(burn_time * static_cast<double>(n)));
      const auto batch_strides =
          static_cast<std::uint64_t>(average_time * 10.0) / batches;
      running_summary batch_means;
      for (std::uint64_t b = 0; b < batches; ++b) {
        double sum = 0.0;
        for (std::uint64_t i = 0; i < batch_strides; ++i) {
          engine->run(n / 10);  // parallel time 0.1 per stride
          sum += engine->census().fraction(0);
        }
        batch_means.add(sum / static_cast<double>(batch_strides));
      }
      const double mean_hawks = batch_means.mean();
      const double tv = std::abs(mean_hawks - hawk_star);
      const double signed_z =
          (mean_hawks - hawk_star) / batch_means.std_error();
      const double z = std::abs(signed_z);
      z_sum += signed_z;
      ++runs;
      max_tv = std::max(max_tv, tv);
      max_z = std::max(max_z, z);
      if (!(z <= z_limit)) ++runs_beyond_z;  // a NaN z counts as beyond
      table.add_row({engine_kind_name(kind), format_metric(initial_hawks, 3),
                     format_metric(mean_hawks, 5),
                     format_metric(hawk_star, 5), format_metric(tv, 5),
                     format_metric(z, 3)});
    }
    salt += 4;
  }

  result.metric("hawk_fixed_point", hawk_star);
  result.metric("ess_hawk", ess_hawk);
  result.metric("ess_gap", std::abs(hawk_star - ess_hawk));
  result.metric("fixed_point_gap", fixed_point_gap, metric_goal::minimize);
  // Informational: the noisiest run's raw distance (~2 standard errors
  // at the gated size) and its z.
  result.metric("max_tv_to_mean_field", max_tv);
  result.metric("max_z_to_mean_field", max_z);
  const double pooled_z = z_sum / std::sqrt(static_cast<double>(runs));
  result.metric("pooled_z", pooled_z);
  result.metric("runs_beyond_z_limit", static_cast<double>(runs_beyond_z),
                metric_goal::minimize);
  result.metric("pooled_z_beyond_limit",
                std::abs(pooled_z) <= z_limit ? 0.0 : 1.0,
                metric_goal::minimize);
  result.metric("ode_converged", ode_converged ? 1.0 : 0.0,
                metric_goal::maximize);
  result.note(
      "Expected shape: both ODE relaxations land on one interior fixed\n"
      "point (gap ~0) near the mixed ESS v/c, and every engine's\n"
      "time-averaged census reaches it from either corner with TV at the\n"
      "O(1/sqrt(n)) fluctuation scale: every run's z (TV over its own\n"
      "batch-means standard error) and the pooled z stay within z_limit.");
  return result;
}

[[maybe_unused]] const bool registered = register_scenario(
    "g2_hawk_dove_equilibrium", "games,mean-field,engines",
    "Hawk-dove mixed-equilibrium convergence across engines", run_g2);

}  // namespace
