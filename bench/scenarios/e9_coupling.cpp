// Experiment E9 (Lemma A.5 / Lemma A.8): the shared-randomness coupling.
// Measures the empirical distribution of the coalescence time tau_couple
// from the worst (corner) starts and checks
//   (a) E[tau] against the per-coordinate bound Phi = min{k/|a-b|, k^2} m
//       (converted from moves to steps by 1/(a+b)),
//   (b) the tail bound Pr[tau > 2 Phi log(4m)] <= 1/4,
//   (c) that Proposition A.7's absorption-time closed forms match a direct
//       simulation of the centered walk.
// Replication runs on the batch engine: each table row fans its replicas
// across the worker pool and aggregates deterministically.
#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "ppg/ehrenfest/bounds.hpp"
#include "ppg/ehrenfest/coupling.hpp"
#include "ppg/exp/replicate.hpp"
#include "ppg/exp/scenario.hpp"
#include "ppg/markov/random_walk.hpp"
#include "ppg/stats/summary.hpp"
#include "ppg/util/table.hpp"

namespace {

using namespace ppg;

scenario_result run_e9(const scenario_context& ctx) {
  scenario_result result;
  const std::size_t runs = ctx.pick<std::size_t>(300, 60);
  result.param("coupling_replicas", runs);

  auto& table = result.table(
      "(a,b) corner-start coupling times",
      {"k", "m", "a", "b", "mean tau", "90% tau", "max tau", "Phi/(a+b)",
       "budget 2*Phi*log(4m)", "Pr[tau > budget]"});
  const auto coupling_configs = ctx.pick<std::vector<ehrenfest_params>>(
      {{2, 0.25, 0.25, 20},
       {4, 0.25, 0.25, 20},
       {4, 0.35, 0.15, 20},
       {8, 0.35, 0.15, 20},
       {8, 0.45, 0.05, 40},
       {16, 0.25, 0.25, 10}},
      {{2, 0.25, 0.25, 20}, {4, 0.35, 0.15, 20}, {8, 0.45, 0.05, 40}});
  double max_exceed = 0.0;
  std::uint64_t salt = 0;
  for (const auto& params : coupling_configs) {
    const auto budget = static_cast<std::uint64_t>(mixing_upper_bound(params));
    // Each replica reports its coupling time and whether it coalesced; the
    // fold censors non-coalesced runs at the budget and counts them as
    // exceedances (a run may also coalesce at exactly the budget, which is
    // not an exceedance).
    struct coupling_sample {
      double tau = 0.0;
      bool exceeded = false;
    };
    const auto samples =
        batch_runner(ctx.batch(runs, salt++))
            .run([&](const replica_context&, rng& gen) {
              const auto run = simulate_corner_coupling(params, budget, gen);
              return coupling_sample{
                  static_cast<double>(run.coalesced ? run.coupling_time
                                                    : budget),
                  !run.coalesced};
            });
    running_summary tau;
    std::vector<double> taus;
    taus.reserve(samples.size());
    std::size_t exceed_count = 0;
    for (const auto& sample : samples) {
      tau.add(sample.tau);
      taus.push_back(sample.tau);
      if (sample.exceeded) ++exceed_count;
    }
    const double exceeded =
        static_cast<double>(exceed_count) / static_cast<double>(runs);
    max_exceed = std::max(max_exceed, exceeded);
    table.add_row({format_metric(static_cast<double>(params.k)),
                   format_metric(static_cast<double>(params.m)),
                   format_metric(params.a), format_metric(params.b),
                   format_metric(tau.mean(), 4),
                   format_metric(lower_quantile(std::move(taus), 0.9), 4),
                   format_metric(tau.max(), 4),
                   format_metric(phi_bound(params) / (params.a + params.b), 4),
                   fmt_count(budget), format_metric(exceeded, 3)});
  }

  const std::size_t walk_runs = ctx.pick<std::size_t>(20'000, 4'000);
  result.param("absorption_replicas", walk_runs);
  auto& walk_table = result.table(
      "(c) Proposition A.7 absorption times: closed form vs simulation",
      {"span 2k", "start", "up a", "down b", "closed form E[tau]",
       "simulated E[tau]", "95% CI half-width"});
  double max_absorption_err = 0.0;
  for (const auto& [a, b, span] :
       {std::tuple<double, double, std::int64_t>{0.25, 0.25, 12},
        std::tuple<double, double, std::int64_t>{0.3, 0.15, 12},
        std::tuple<double, double, std::int64_t>{0.4, 0.1, 20}}) {
    const std::int64_t start = span / 2;
    const auto sim = replicate_scalar(
        ctx.batch(walk_runs, salt++),
        [&, a = a, b = b, span = span](const replica_context&, rng& gen) {
          return static_cast<double>(
              simulate_absorption_time({a, b}, span, start, gen));
        });
    const double closed = expected_absorption_time({a, b}, span, start);
    max_absorption_err =
        std::max(max_absorption_err, std::abs(sim.mean() - closed) / closed);
    walk_table.add_row({format_metric(static_cast<double>(span)),
                        format_metric(static_cast<double>(start)),
                        format_metric(a), format_metric(b),
                        format_metric(closed, 5), format_metric(sim.mean(), 5),
                        format_metric(sim.ci_half_width(), 3)});
  }

  result.metric("max_exceed_prob", max_exceed, metric_goal::minimize);
  result.metric("max_absorption_rel_err", max_absorption_err,
                metric_goal::minimize);
  result.note(
      "Expected shape: mean tau well below the Phi-based budget, exceedance "
      "frequency\n<= 0.25 (Lemma A.8), and closed-form absorption times "
      "within the simulation CI.");
  return result;
}

[[maybe_unused]] const bool registered = register_scenario(
    "e9_coupling", "ehrenfest,coupling,simulation",
    "Shared-randomness coupling analysis (Appendix A.4.1)", run_e9);

}  // namespace
