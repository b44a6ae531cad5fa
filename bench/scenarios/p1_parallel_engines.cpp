// Parallel-engines scenario (DESIGN.md §11): the multibatch engine's
// seed-deterministic work profile and replica parallelism through
// batch_runner.
//
//  - Solo multibatch: one dense hawk-dove trajectory; its work counters
//    (rounds, collisions, aggregation factor) are the gated metrics.
//  - Replicas: R multibatch engines sharing one compiled kernel, run
//    through batch_runner at 1 and 4 threads and checked bitwise against a
//    hand-seeded loop under the batch_runner stream law, and for
//    thread-count independence; replica totals gate alongside the flags.
//
// Wall-clock rates are recorded for the trajectory but carry no regression
// goal: CI core counts and cache hierarchies vary, so only
// seed-deterministic quantities gate — the same split every perf scenario
// here uses.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ppg/exp/batch_runner.hpp"
#include "ppg/exp/scenario.hpp"
#include "ppg/games/game_matrix.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/pp/multibatch_engine.hpp"
#include "ppg/util/rng.hpp"
#include "ppg/util/table.hpp"
#include "ppg/util/timer.hpp"

namespace {

using namespace ppg;

/// Dense two-way hawk-dove: every pair randomizes both sides, so every
/// round exercises the MVH tables, the multinomial splits, and the merge.
game_protocol dense_proto() {
  return {hawk_dove_matrix(1.0, 2.0),
          std::make_shared<logit_response_rule>(0.5),
          revision_discipline::two_way};
}

std::vector<std::uint64_t> half_split(std::uint64_t n) {
  return {n / 2, n - n / 2};
}

/// One replica's final census and multibatch work counters.
struct replica_outcome {
  std::vector<std::uint64_t> counts;
  std::uint64_t rounds = 0;
  std::uint64_t collisions = 0;
};

scenario_result run_parallel(const scenario_context& ctx) {
  scenario_result result;
  const auto proto = dense_proto();

  // --- Solo multibatch work profile -----------------------------------
  const std::uint64_t n = ctx.pick<std::uint64_t>(8'000'000, 1'000'000);
  const std::uint64_t steps = ctx.pick<std::uint64_t>(4'000'000, 400'000);
  result.param("n", n);
  result.param("steps", steps);
  result.param("game", "hawk-dove v=1 c=2, logit tau=0.5, two-way");
  multibatch_engine solo(std::make_shared<const kernel_table>(proto),
                         half_split(n), ctx.make_rng(1));
  solo.run(steps);
  const std::uint64_t rounds = solo.rounds();
  const std::uint64_t collisions = solo.collisions();
  // The engine's seed-deterministic work profile: identical on every
  // machine at a fixed (smoke, seed), so exact-value drifts surface in the
  // refresh diff and real regressions (lost aggregation) gate.
  result.metric("mb_rounds", static_cast<double>(rounds),
                metric_goal::maximize);
  result.metric("mb_collisions", static_cast<double>(collisions),
                metric_goal::maximize);
  result.metric("mb_aggregation_factor",
                static_cast<double>(steps) /
                    static_cast<double>(rounds + collisions),
                metric_goal::maximize);

  // --- Replica parallelism through batch_runner ----------------------
  const std::uint64_t en = ctx.pick<std::uint64_t>(1'000'000, 200'000);
  const std::size_t replicas = ctx.pick<std::size_t>(48, 12);
  const std::uint64_t esteps = ctx.pick<std::uint64_t>(250'000, 50'000);
  const std::uint64_t master = derive_stream_seed(ctx.seed, 7);
  result.param("replica_n", en);
  result.param("replicas", replicas);
  result.param("steps_per_replica", esteps);
  const sim_spec spec(proto, half_split(en));
  const auto kernel = std::make_shared<const kernel_table>(proto);
  const auto run_replica = [&](rng& gen) {
    const auto engine = spec.make_engine(engine_kind::multibatch, gen, kernel);
    engine->run(esteps);
    const auto& mb = dynamic_cast<const multibatch_engine&>(*engine);
    return replica_outcome{engine->census().counts(), mb.rounds(),
                           mb.collisions()};
  };

  // The bitwise reference: R hand-seeded engines under the batch_runner
  // stream law, one after another on the calling thread.
  std::vector<std::vector<std::uint64_t>> solo_census(replicas);
  const timer solo_clock;
  for (std::size_t r = 0; r < replicas; ++r) {
    rng gen = make_stream_rng(master, r);
    solo_census[r] = run_replica(gen).counts;
  }
  const double solo_seconds = solo_clock.seconds();

  auto& replica_table = result.table(
      "batch_runner over multibatch engines sharing one kernel vs a "
      "hand-seeded\nloop (same master seed, same stream law; replicas must "
      "be bitwise twins)",
      {"path", "threads", "total interactions/s", "twins"});
  const double total_steps =
      static_cast<double>(replicas) * static_cast<double>(esteps);
  replica_table.add_row({"solo loop", "1",
                         format_metric(total_steps / solo_seconds, 4),
                         "reference"});
  result.metric("ips_solo_loop", total_steps / solo_seconds);

  bool replica_twins = true;
  bool thread_deterministic = true;
  std::uint64_t total_rounds = 0;
  std::uint64_t total_collisions = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const batch_runner runner({replicas, master, threads});
    const timer clock;
    const auto outcomes = runner.run(
        [&](const replica_context&, rng& gen) { return run_replica(gen); });
    const double rate = total_steps / clock.seconds();
    bool twins = true;
    for (std::size_t r = 0; r < replicas; ++r) {
      if (outcomes[r].counts != solo_census[r]) twins = false;
    }
    if (threads == 1) {
      for (const auto& outcome : outcomes) {
        total_rounds += outcome.rounds;
        total_collisions += outcome.collisions;
      }
      replica_twins = twins;
    } else if (!twins) {
      // Solo equality at one thread count plus cross-thread equality is
      // the full contract; a mismatch here is a thread-determinism break.
      thread_deterministic = false;
    }
    result.metric("ips_batch_runner_t" +
                      format_metric(static_cast<double>(threads)),
                  rate);
    replica_table.add_row({"batch_runner",
                           format_metric(static_cast<double>(threads)),
                           format_metric(rate, 4), twins ? "yes" : "NO"});
  }
  // Gated under the ensemble_* names the committed baseline tracks.
  result.metric("ensemble_twins", replica_twins ? 1.0 : 0.0,
                metric_goal::maximize);
  result.metric("ensemble_thread_determinism",
                thread_deterministic ? 1.0 : 0.0, metric_goal::maximize);
  result.metric("ensemble_total_rounds", static_cast<double>(total_rounds),
                metric_goal::maximize);
  result.metric("ensemble_total_collisions",
                static_cast<double>(total_collisions), metric_goal::maximize);

  result.note(
      "Expected shape: bitwise replica twins and thread-independence for "
      "the\nbatch_runner replicas (ensemble_twins = "
      "ensemble_thread_determinism = 1),\nan aggregation factor of order "
      "sqrt(n), and a 4-thread rate that tracks the\nhost's core count "
      "(informational only).");
  return result;
}

[[maybe_unused]] const bool registered = register_scenario(
    "p1_parallel_engines", "parallel,threads,engines,multibatch,perf",
    "Multibatch work profile and batch_runner replica parallelism",
    run_parallel);

}  // namespace
