// The three engine workloads. Each times the set-up of its engine (recipe
// parse + sim_spec::make_engine), then advances multibatch engines by run()
// in slices of serve_chunk interactions until the measurement window
// closes. Every slice checks its interaction counter and census
// conservation:
//
//  - hawk_dove_1e8: one engine on one thread; q = 2, so per-round overhead
//    (birthday draw, merge, collision) dominates and outcome splits are
//    cheap. Checked against the mean-field fixed point.
//  - logit_q8_1e8: one engine on one thread; every cell of a random q = 8
//    two-way logit game has support 64, so outcome splits (binomials,
//    geometric skips) dominate.
//  - igt_ensemble: the paper's k-IGT experiment, 16 replicas through
//    batch_runner on 2 threads; a deterministic kernel, so no outcome draws.
//    The pooled GTFT-level census is checked against Theorem 2.7.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/core/population_config.hpp"
#include "ppg/exp/batch_runner.hpp"
#include "ppg/games/mean_field.hpp"
#include "ppg/games/solver/zoo.hpp"
#include "ppg/pp/checkpoint.hpp"
#include "ppg/pp/multibatch_engine.hpp"
#include "ppg/util/error.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ppg::json;

constexpr std::uint64_t large_n = 100'000'000;
constexpr std::size_t igt_k = 8;
constexpr std::uint64_t igt_n = 1'000'000;
constexpr std::size_t igt_replicas = 16;
constexpr std::size_t igt_threads = 2;
constexpr std::uint64_t igt_slices_per_replica = 512;  // 2^25 interactions
/// Set-ups timed before the measured loop; setup_s is their median.
constexpr std::uint64_t setup_repeats = 201;
/// The game of logit_q8_1e8 is fixed, so the workload's cost does not
/// depend on --seed (which seeds the engines).
constexpr std::uint64_t logit_game_seed = 1;

// Oracle tolerances in total variation. The measured distances at this
// commit are ~1e-4 (hawk-dove at n = 1e8) and ~1e-3 (pooled IGT levels),
// so a lawful engine clears them by an order of magnitude or more.
constexpr double hawk_dove_tv_tolerance = 0.01;
constexpr double igt_tv_tolerance = 0.02;

json uniform_counts(std::uint64_t n, std::size_t q) {
  std::vector<std::uint64_t> counts(q, n / q);
  counts.back() += n - (n / q) * q;
  return ppg::json_uint_array(counts);
}

json recipe_doc(json protocol_name, json params, json counts) {
  json protocol = json::object();
  protocol["name"] = std::move(protocol_name);
  protocol["params"] = std::move(params);
  json doc = json::object();
  doc["protocol"] = std::move(protocol);
  doc["initial_counts"] = std::move(counts);
  doc["sampling"] = "distinct";
  return doc;
}

json logit_game(json game, const char* discipline) {
  json rule = json::object();
  rule["name"] = "logit";
  rule["temperature"] = 0.5;
  json params = json::object();
  params["game"] = std::move(game);
  params["rule"] = std::move(rule);
  params["discipline"] = discipline;
  return params;
}

/// The recipe document of an engine workload.
json workload_recipe(const std::string& workload) {
  if (workload == "hawk_dove_1e8") {
    json game = json::object();
    game["name"] = "hawk-dove";
    game["value"] = 1.0;
    game["cost"] = 2.0;
    return recipe_doc("matrix-game", logit_game(std::move(game), "one_way"),
                      uniform_counts(large_n, 2));
  }
  if (workload == "logit_q8_1e8") {
    const auto entry = ppg::random_zoo_game(logit_game_seed, 8, 0);
    json game = json::object();
    game["name"] = "custom";
    json names = json::array();
    json payoffs = json::array();
    const std::size_t q = entry.game.num_strategies();
    for (std::size_t i = 0; i < q; ++i) {
      names.push_back(entry.game.strategy_name(i));
      for (std::size_t j = 0; j < q; ++j) {
        payoffs.push_back(entry.game.payoff(i, j));
      }
    }
    game["strategies"] = std::move(names);
    game["payoffs"] = std::move(payoffs);
    return recipe_doc("matrix-game", logit_game(std::move(game), "two_way"),
                      uniform_counts(large_n, q));
  }
  PPG_CHECK(workload == "igt_ensemble", "unknown workload '" + workload + "'");
  const auto pop = ppg::abg_population::from_fractions(igt_n, 0.1, 0.2, 0.7);
  std::vector<std::uint64_t> counts(2 + igt_k, 0);
  counts[ppg::igt_encoding::ac] = pop.num_ac;
  counts[ppg::igt_encoding::ad] = pop.num_ad;
  counts[ppg::igt_encoding::gtft(0)] = pop.num_gtft;  // all-stingy start
  json params = json::object();
  params["k"] = static_cast<std::uint64_t>(igt_k);
  params["discipline"] = "one_way";
  return recipe_doc("igt", std::move(params), ppg::json_uint_array(counts));
}

/// setup_s: what a new session costs before its first interaction. Parses
/// the recipe (which builds the protocol) and makes its engine
/// `setup_repeats` times, one sample each; the engines are dropped.
void time_setup(const json& doc, std::uint64_t seed, report& out) {
  for (std::uint64_t i = 0; i < setup_repeats; ++i) {
    const auto start = bench_clock::now();
    const auto recipe = ppg::sim_recipe::from_json(doc);
    ppg::rng gen(ppg::derive_stream_seed(seed, 3000 + i));
    const auto engine =
        recipe.spec().make_engine(ppg::engine_kind::multibatch, gen);
    out.sample("setup_s", seconds_since(start));
    out.op(engine->population_size() == recipe.spec().population_size(),
           "setup: engine population differs from the recipe");
  }
}

/// Advances `engine` by one slice and checks that the interaction counter
/// moved by the slice and that the census still sums to n. Returns the
/// seconds spent inside run().
double advance(ppg::sim_engine& engine, report& out, tracer& trace,
               std::uint64_t group) {
  const std::uint64_t before = engine.interactions();
  const auto start = bench_clock::now();
  {
    const tracer::span span(trace, "pp.engine.run", group);
    engine.run(serve_chunk);
  }
  const double run_s = seconds_since(start);
  out.sample("advance_ms", run_s * 1e3);
  std::uint64_t sum = 0;
  for (const std::uint64_t c : engine.census().counts()) sum += c;
  out.op(engine.interactions() == before + serve_chunk &&
             sum == engine.population_size(),
         "advance: counter or census conservation broken");
  return run_s;
}

std::uint64_t rounds_of(const ppg::sim_engine& engine) {
  const auto* multibatch =
      dynamic_cast<const ppg::multibatch_engine*>(&engine);
  PPG_CHECK(multibatch != nullptr, "workload engine is not multibatch");
  return multibatch->rounds();
}

double total_variation(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double tv = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) tv += std::abs(a[i] - b[i]);
  return tv / 2.0;
}

std::vector<double> normalized(const std::vector<std::uint64_t>& counts) {
  double total = 0.0;
  for (const std::uint64_t c : counts) total += static_cast<double>(c);
  std::vector<double> out;
  out.reserve(counts.size());
  for (const std::uint64_t c : counts) {
    out.push_back(static_cast<double>(c) / total);
  }
  return out;
}

/// hawk_dove_1e8 and logit_q8_1e8: one engine, one thread, slices until
/// the measurement window closes.
/// Returns the number of aggregated rounds the loop ran.
std::uint64_t run_single_engine(const options& opts, const json& doc,
                                report& out, tracer& trace,
                                probe_input& probe) {
  time_setup(doc, opts.seed, out);
  const auto recipe = ppg::sim_recipe::from_json(doc);
  ppg::rng gen(ppg::derive_stream_seed(opts.seed, 1000));
  const auto engine =
      recipe.spec().make_engine(ppg::engine_kind::multibatch, gen);
  const std::uint64_t rounds_before = rounds_of(*engine);
  double run_s = 0.0;
  std::uint64_t slices = 0;
  const auto start = bench_clock::now();
  for (; seconds_since(start) < opts.seconds; ++slices) {
    run_s += advance(*engine, out, trace, 1);
  }

  const std::uint64_t interactions = slices * serve_chunk;
  const std::uint64_t rounds = rounds_of(*engine) - rounds_before;
  out.value("run_s", run_s);
  out.value("interactions", static_cast<double>(interactions));
  out.op(engine->interactions() == interactions,
         "engine interaction counter differs from the work issued");

  if (opts.workload == "hawk_dove_1e8") {
    const ppg::mean_field_ode ode(recipe.proto());
    const auto fixed = ppg::relax_to_fixed_point(ode, {0.5, 0.5}, 0.01,
                                                 1e-12, 1e4);
    const double tv =
        total_variation(engine->census().fractions(), fixed.state);
    out.value("oracle_tv", tv);
    out.op(fixed.converged && tv <= hawk_dove_tv_tolerance,
           "hawk-dove census is " + ppg::format_metric(tv, 3) +
               " TV from the mean-field fixed point");
  }
  probe.census = engine->census().counts();
  probe.interactions_per_round =
      static_cast<double>(interactions) / static_cast<double>(rounds);
  return rounds;
}

struct replica_result {
  std::vector<std::uint64_t> levels;  ///< GTFT level census
  std::vector<std::uint64_t> census;
  std::uint64_t rounds = 0;
  double busy_s = 0.0;
};

/// igt_ensemble: batches of 16 replicas x 2^25 interactions on 2 threads
/// until the measurement window closes; every batch is checked. Its run_s
/// is the batches' wall time, so interactions_per_s includes the replica
/// parallelism.
/// Returns the number of aggregated rounds the replicas ran.
std::uint64_t run_ensemble(const options& opts, const json& doc, report& out,
                           tracer& trace, probe_input& probe) {
  time_setup(doc, opts.seed, out);
  const auto recipe = ppg::sim_recipe::from_json(doc);
  const auto pop = ppg::abg_population::from_fractions(igt_n, 0.1, 0.2, 0.7);
  const auto stationary = ppg::igt_stationary_probs(pop, igt_k);

  double busy_total = 0.0;
  double wall_total = 0.0;
  std::uint64_t rounds_total = 0;
  std::uint64_t interactions = 0;
  std::vector<double> straggler;
  double worst_tv = 0.0;
  const auto start = bench_clock::now();
  for (std::uint64_t batch = 0; seconds_since(start) < opts.seconds;
       ++batch) {
    const ppg::batch_runner runner(
        {igt_replicas, ppg::derive_stream_seed(opts.seed, 5000 + batch),
         igt_threads});
    const auto batch_start = bench_clock::now();
    const auto results = runner.run(
        [&](const ppg::replica_context& ctx, ppg::rng& gen) {
          const std::uint64_t group = batch * igt_replicas + ctx.index + 1;
          const tracer::span span(trace, "exp.batch.replica", group);
          const auto replica_start = bench_clock::now();
          replica_result result;
          const auto engine =
              recipe.spec().make_engine(ppg::engine_kind::multibatch, gen);
          for (std::uint64_t s = 0; s < igt_slices_per_replica; ++s) {
            (void)advance(*engine, out, trace, group);
          }
          result.levels = ppg::gtft_level_counts(engine->census(), igt_k);
          result.census = engine->census().counts();
          result.rounds = rounds_of(*engine);
          result.busy_s = seconds_since(replica_start);
          return result;
        });
    wall_total += seconds_since(batch_start);

    std::vector<std::uint64_t> pooled(igt_k, 0);
    std::vector<double> busy;
    for (const auto& r : results) {
      for (std::size_t j = 0; j < igt_k; ++j) pooled[j] += r.levels[j];
      busy.push_back(r.busy_s);
      busy_total += r.busy_s;
      rounds_total += r.rounds;
    }
    interactions += igt_replicas * igt_slices_per_replica * serve_chunk;
    straggler.push_back(*std::max_element(busy.begin(), busy.end()) /
                        median_of(busy));
    const double tv = total_variation(normalized(pooled), stationary);
    worst_tv = std::max(worst_tv, tv);
    out.op(tv <= igt_tv_tolerance,
           "pooled GTFT levels are " + ppg::format_metric(tv, 3) +
               " TV from the Theorem 2.7 stationary law");
    probe.census = results.back().census;
  }
  out.value("run_s", wall_total);
  out.value("interactions", static_cast<double>(interactions));
  out.value("oracle_tv", worst_tv);
  out.value("exp.batch.replica_busy_s", busy_total);
  out.value("exp.batch.pool_idle_frac",
            1.0 - busy_total / (static_cast<double>(igt_threads) * wall_total));
  out.value("exp.batch.straggler_ratio", median_of(straggler));
  probe.interactions_per_round = static_cast<double>(interactions) /
                                 static_cast<double>(rounds_total);
  probe.probe_batch = false;
  return rounds_total;
}

}  // namespace

void run_engine_workload(const options& opts, report& out, tracer& trace) {
  const json doc = workload_recipe(opts.workload);

  probe_input probe;
  probe.recipes.push_back(doc);
  probe.seed = opts.seed;
  const std::uint64_t rounds =
      opts.workload == "igt_ensemble"
          ? run_ensemble(opts, doc, out, trace, probe)
          : run_single_engine(opts, doc, out, trace, probe);
  out.value("peak_rss_mb", peak_rss_mb());

  if (!trace.enabled()) return;
  const double run_busy = trace.total_s("pp.engine.run");
  out.value("pp.engine.run_busy_s", run_busy);
  out.value("pp.multibatch.ns_per_round",
            run_busy * 1e9 / static_cast<double>(rounds));
  run_layer_probes(opts, probe, out, trace);
}

}  // namespace perfbench
