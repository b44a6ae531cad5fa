// Engine and subsystem throughput scenarios (replacing the old
// google-benchmark bench_throughput binary with registry scenarios whose
// rates land in the same JSON trajectory as every other experiment).
//
//  - throughput_engines: interactions per second of the pluggable
//    simulation engines (census / multibatch, selected via
//    sim_spec::make_engine) on the one-way IGT kernel (dense and dilute)
//    and on dense matrix games (hawk-dove, rock-paper-scissors, and at
//    n = 10^8 a random q = 8 game under two-way logit, whose 64 outcomes
//    per pair the multibatch engine draws as partner-law sums). The census
//    engine's per-interaction cost is O(q) and independent of n; the
//    multibatch engine advances in aggregated ~sqrt(n)-interaction rounds,
//    so it stays sublinear on dense kernels, and in the dilute regime it
//    skips runs of identity interactions in one geometric draw instead.
//  - throughput_batch: aggregate throughput and thread scaling of the
//    batch-replication engine, plus the bit-identical-aggregates
//    determinism check across thread counts.
//  - throughput_micro: single-component rates (count chains, exact-chain
//    distribution step, payoff oracles, rollouts) and the per-call cost of
//    the binomial and hypergeometric samplers at the multibatch engine's
//    draw sizes.
//
// Everything wall-clock-derived (rates AND cross-engine speedups) is
// recorded without a regression goal: CI hardware varies, so only
// seed-deterministic quantities (here: the thread-determinism flag) gate
// the regression check — see scripts/check_bench.py.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/ehrenfest/exact_chain.hpp"
#include "ppg/ehrenfest/process.hpp"
#include "ppg/exp/batch_runner.hpp"
#include "ppg/exp/replicate.hpp"
#include "ppg/exp/scenario.hpp"
#include "ppg/games/closed_form.hpp"
#include "ppg/games/exact_payoff.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/rollout.hpp"
#include "ppg/games/solver/zoo.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/stats/discrete_sampling.hpp"
#include "ppg/stats/summary.hpp"
#include "ppg/util/table.hpp"
#include "ppg/util/timer.hpp"

namespace {

using namespace ppg;

// The one chunk rule for throughput_engines: every engine row is timed in
// run() calls of 2^16 interactions — ppg-serve's scheduler chunk and
// perfbench's slice. A shorter budget truncates multibatch rounds (one
// round is ~sqrt(n) interactions), which then pay their aggregate twice;
// the `_chunk8192` witness rows record that cost at n = 10^8.
constexpr std::uint64_t engine_chunk = std::uint64_t{1} << 16;
constexpr std::uint64_t witness_chunk = 8192;

// A row's seed salt for its engine. The rows' seeds predate the agent and
// batched engines' removal, so census keeps the slot 1 and multibatch the
// slot 3 they had then.
std::uint64_t engine_salt(engine_kind kind) {
  return kind == engine_kind::multibatch ? 3 : 1;
}

// Runs `chunk()` (which performs `items` units of work) until `min_seconds`
// of wall clock accumulate, after one untimed warmup call; returns units
// per second.
template <typename Chunk>
double measure_rate(Chunk&& chunk, double items, double min_seconds) {
  chunk();  // warmup
  const timer clock;
  double total = 0.0;
  do {
    chunk();
    total += items;
  } while (clock.seconds() < min_seconds);
  return total / clock.seconds();
}

// Interactions per second of `engine` advanced in run(chunk) calls.
double engine_rate(sim_engine& engine, std::uint64_t chunk,
                   double min_seconds) {
  return measure_rate([&] { engine.run(chunk); }, static_cast<double>(chunk),
                      min_seconds);
}

// A census-form one-way IGT spec (no per-agent array) with GTFT levels
// initialized at the rounded Theorem 2.7 stationary census, so every row
// measures steady-state throughput rather than the all-stingy transient.
sim_spec igt_spec(const igt_protocol& proto, std::uint64_t n, double alpha,
                  double beta, double gamma) {
  const auto pop = abg_population::from_fractions(n, alpha, beta, gamma);
  const auto probs = igt_stationary_probs(pop, proto.k());
  std::vector<std::uint64_t> counts(proto.num_states(), 0);
  counts[igt_encoding::ac] = pop.num_ac;
  counts[igt_encoding::ad] = pop.num_ad;
  std::uint64_t placed = 0;
  for (std::size_t j = 0; j + 1 < proto.k(); ++j) {
    const auto c = static_cast<std::uint64_t>(
        probs[j] * static_cast<double>(pop.num_gtft));
    counts[igt_encoding::gtft(j)] = c;
    placed += c;
  }
  counts[igt_encoding::gtft(proto.k() - 1)] = pop.num_gtft - placed;
  return sim_spec(proto, std::move(counts));
}

scenario_result run_engines(const scenario_context& ctx) {
  scenario_result result;
  const double min_seconds = ctx.pick(0.5, 0.08);
  const igt_protocol proto(8);
  result.param("k", 8);
  result.param("beta", 0.2);
  result.param("min_seconds_per_row", min_seconds);

  struct row_spec {
    engine_kind kind;
    std::uint64_t n;
    bool dilute;
    bool full_only;  // n = 10^8 rows are skipped in smoke mode
  };
  const std::vector<row_spec> rows = {
      {engine_kind::census, 10'000, false, false},
      {engine_kind::census, 1'000'000, false, false},
      {engine_kind::census, 100'000'000, false, true},
      {engine_kind::multibatch, 10'000, false, false},
      {engine_kind::multibatch, 1'000'000, false, false},
      {engine_kind::multibatch, 100'000'000, false, true},
      {engine_kind::census, 1'000'000, true, false},
      {engine_kind::census, 100'000'000, true, true},
      {engine_kind::multibatch, 1'000'000, true, false},
      {engine_kind::multibatch, 100'000'000, true, true},
  };

  auto& table = result.table(
      "interactions/second on the one-way IGT kernel (dense gamma = 0.7, "
      "dilute\ngamma = 0.05; stationary-census start)",
      {"engine", "n", "regime", "interactions/s"});
  for (const auto& row : rows) {
    if (row.full_only && ctx.smoke) continue;
    const double gamma = row.dilute ? 0.05 : 0.7;
    const sim_spec spec =
        igt_spec(proto, row.n, 1.0 - 0.2 - gamma, 0.2, gamma);
    rng gen =
        ctx.make_rng(row.n + (row.dilute ? 1 : 0) + engine_salt(row.kind) * 7);
    const auto engine = spec.make_engine(row.kind, gen);
    const double ips = engine_rate(*engine, engine_chunk, min_seconds);
    const std::string key = std::string("ips_") +
                            (row.dilute ? "dilute_" : "dense_") +
                            engine_kind_name(row.kind) + "_n" +
                            std::to_string(row.n);
    result.metric(key, ips);
    table.add_row({engine_kind_name(row.kind),
                   fmt_count(row.n), row.dilute ? "dilute" : "dense",
                   format_metric(ips, 4)});
  }

  // Dense matrix games: the workload where nearly every interaction moves
  // the census, so identity skipping buys nothing and only the multibatch
  // engine's aggregated rounds stay sublinear.
  const auto hawk_dove = hawk_dove_matrix(1.0, 2.0);
  const auto rps = rock_paper_scissors_matrix();
  const game_protocol hd_proto(hawk_dove,
                               std::make_shared<logit_response_rule>(0.5));
  const game_protocol rps_proto(
      rps, std::make_shared<proportional_imitation_rule>(0.8));
  const game_protocol q8_proto(random_zoo_game(1, 8, 0).game,
                               std::make_shared<logit_response_rule>(0.5),
                               revision_discipline::two_way);
  result.param("hawk_dove", "v=1 c=2, logit tau=0.5");
  result.param("rps", "proportional imitation rate=0.8");
  result.param("logit_q8", "random_zoo_game(1, 8, 0), two-way logit tau=0.5");
  struct game_row {
    const char* game;  ///< table label
    const char* key;   ///< metric-key fragment (doubles as the rng salt)
    const game_protocol* proto;
    engine_kind kind;
    std::uint64_t n;
    bool full_only;
    std::uint64_t chunk = engine_chunk;
  };
  std::vector<game_row> game_rows;
  for (const auto n : {std::uint64_t{1'000'000}, std::uint64_t{100'000'000}}) {
    const bool full_only = n == 100'000'000;
    for (const auto kind : {engine_kind::census, engine_kind::multibatch}) {
      game_rows.push_back({"hawk-dove", "hawk_dove", &hd_proto, kind, n,
                           full_only});
      game_rows.push_back({"rps", "rps", &rps_proto, kind, n, full_only});
    }
  }
  for (const auto kind : {engine_kind::census, engine_kind::multibatch}) {
    game_rows.push_back(
        {"rand-q8", "logit_q8", &q8_proto, kind, 100'000'000, true});
  }
  const std::vector<game_row> timed_rows = game_rows;
  for (game_row row : timed_rows) {
    if (row.kind != engine_kind::multibatch || row.n != 100'000'000) continue;
    row.chunk = witness_chunk;
    game_rows.push_back(row);
  }
  auto& games_table = result.table(
      "interactions/second on dense games (every interaction samples a "
      "randomized\nkernel outcome)",
      {"game", "engine", "n", "chunk", "interactions/s"});
  for (const auto& row : game_rows) {
    if (row.full_only && ctx.smoke) continue;
    const std::size_t q = row.proto->num_states();
    std::vector<std::uint64_t> counts(q, row.n / q);
    counts.back() += row.n - (row.n / q) * q;
    const sim_spec spec(*row.proto, std::move(counts));
    rng gen = ctx.make_rng(row.n + engine_salt(row.kind) * 7 +
                           static_cast<std::uint64_t>(row.key[0]));
    const auto engine = spec.make_engine(row.kind, gen);
    const double ips = engine_rate(*engine, row.chunk, min_seconds);
    std::string key = "ips_" + std::string(row.key) + "_" +
                      engine_kind_name(row.kind) + "_n" + std::to_string(row.n);
    if (row.chunk != engine_chunk) key += "_chunk" + std::to_string(row.chunk);
    result.metric(key, ips);
    games_table.add_row({row.game, engine_kind_name(row.kind),
                         fmt_count(row.n), std::to_string(row.chunk),
                         format_metric(ips, 4)});
  }

  // Replica parallelism (DESIGN.md §11) on the dense hawk-dove workload:
  // batch_runner over multibatch engines sharing one compiled kernel, at the
  // host's thread count. Wall-clock only — its bitwise determinism gates
  // live in p1_parallel_engines.
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  auto& par_table = result.table(
      "replica parallelism on dense hawk-dove (wall-clock only; "
      "determinism\ngates live in p1_parallel_engines): the median of three "
      "timings, and their range",
      {"path", "threads", "n", "interactions/s", "min", "max"});
  {
    constexpr std::size_t replicas = 16;
    constexpr std::uint64_t en = 1'000'000;
    constexpr std::uint64_t batch_chunks = 5;
    const sim_spec spec(hd_proto, {en / 2, en - en / 2});
    const auto kernel = std::make_shared<const kernel_table>(hd_proto);
    const batch_runner runner({replicas, derive_stream_seed(ctx.seed, 61), hw});
    // Engines persist across batches; replica i only ever touches its own.
    const auto engines = runner.run([&](const replica_context&, rng& gen) {
      return spec.make_engine(engine_kind::multibatch, gen, kernel);
    });
    const auto batch = [&] {
      runner.run([&](const replica_context& replica, rng&) {
        for (std::uint64_t c = 0; c < batch_chunks; ++c) {
          engines[replica.index]->run(engine_chunk);
        }
        return 0;
      });
    };
    const double items =
        static_cast<double>(replicas * batch_chunks * engine_chunk);
    // A multi-threaded row swings with the host's load from one timing to
    // the next, so it is timed three times and reports its spread.
    std::vector<double> ips;
    for (int timing = 0; timing < 3; ++timing) {
      ips.push_back(measure_rate(batch, items, min_seconds));
    }
    std::sort(ips.begin(), ips.end());
    const std::string key =
        "ips_hawk_dove_batch_runner_r16_n" + std::to_string(en);
    result.metric(key, ips[1]);
    result.metric(key + "_min", ips[0]);
    result.metric(key + "_max", ips[2]);
    par_table.add_row({"batch_runner multibatch x16", std::to_string(hw),
                       fmt_count(en), format_metric(ips[1], 4),
                       format_metric(ips[0], 4), format_metric(ips[2], 4)});
  }

  // The seed-deterministic multibatch speedup gate lives in
  // g4_multibatch_dense.
  result.note(
      "Expected shape: census rates independent of n; multibatch >> census "
      "at n >= 10^6:\nin the dilute regime it skips identity interactions "
      "in geometric batches, and\non the dense games, where few or no "
      "interactions are identities, its\naggregated rounds avoid "
      "per-interaction sampling.");
  return result;
}

scenario_result run_batch(const scenario_context& ctx) {
  scenario_result result;
  const std::size_t k = 8;
  const auto pop = abg_population::from_fractions(1000, 0.1, 0.2, 0.7);
  const igt_protocol proto(k);
  const sim_spec spec(proto, make_igt_census(pop, k, 0));
  const std::size_t replicas = 8;
  const std::uint64_t steps = ctx.pick<std::uint64_t>(400'000, 100'000);
  const auto thread_counts =
      ctx.pick<std::vector<std::size_t>>({1, 2, 4, 8}, {1, 2, 4});
  result.param("replicas", replicas);
  result.param("steps_per_replica", steps);

  const auto run_once = [&](std::size_t threads) {
    return replicate_census(
        {replicas, derive_stream_seed(ctx.seed, 99), threads},
        [&](const replica_context&, rng& gen) {
          const auto sim = spec.make_engine(engine_kind::census, gen);
          sim->run(steps);
          return sim->census().fractions();
        });
  };

  auto& table = result.table(
      "census-engine batch replication: aggregate interactions/second vs "
      "worker\nthreads (8 replicas)",
      {"threads", "total interactions/s", "speedup vs 1 thread"});
  double base_rate = 0.0;
  std::vector<double> reference_mean;
  bool deterministic = true;
  for (const std::size_t threads : thread_counts) {
    const timer clock;
    const auto batch = run_once(threads);
    const double seconds = clock.seconds();
    const double rate =
        static_cast<double>(replicas) * static_cast<double>(steps) / seconds;
    if (threads == 1) {
      base_rate = rate;
      reference_mean = batch.mean();
    } else if (batch.mean() != reference_mean) {
      // The determinism contract: aggregates are bit-identical at any
      // thread count (fold order is replica order, not completion order).
      deterministic = false;
    }
    result.metric("batch_ips_t" + format_metric(static_cast<double>(threads)),
                  rate);
    table.add_row({format_metric(static_cast<double>(threads)),
                   format_metric(rate, 4),
                   format_metric(rate / base_rate, 3)});
  }

  result.metric("thread_determinism", deterministic ? 1.0 : 0.0,
                metric_goal::maximize);
  result.note(
      "Expected shape: near-linear speedup up to the physical core count, "
      "and\nbit-identical aggregates at every thread count "
      "(thread_determinism = 1).");
  return result;
}

scenario_result run_micro(const scenario_context& ctx) {
  scenario_result result;
  const double min_seconds = ctx.pick(0.4, 0.06);
  result.param("min_seconds_per_row", min_seconds);
  auto& table = result.table("single-component rates",
                             {"component", "unit", "rate/s"});
  const auto add = [&](const std::string& name, const std::string& unit,
                       double rate) {
    result.metric("rate_" + name, rate);
    table.add_row({name, unit, format_metric(rate, 4)});
  };

  {
    const auto pop = abg_population::from_fractions(1000, 0.1, 0.2, 0.7);
    igt_count_chain chain(pop, 8, 0);
    rng gen = ctx.make_rng(1);
    constexpr std::uint64_t chunk = 16384;
    add("igt_count_chain_step", "steps",
        measure_rate(
            [&] {
              for (std::uint64_t i = 0; i < chunk; ++i) chain.step(gen);
            },
            static_cast<double>(chunk), min_seconds));
  }
  {
    const ehrenfest_params params{8, 0.3, 0.15, 10'000};
    auto process = ehrenfest_process::at_corner(params, false);
    rng gen = ctx.make_rng(2);
    constexpr std::uint64_t chunk = 16384;
    add("ehrenfest_count_vector_step", "steps",
        measure_rate(
            [&] {
              for (std::uint64_t i = 0; i < chunk; ++i) process.step(gen);
            },
            static_cast<double>(chunk), min_seconds));
  }
  {
    const ehrenfest_params params{3, 0.3, 0.15, 20};
    const simplex_index index(params.k, params.m);
    const auto chain = build_ehrenfest_chain(params, index);
    std::vector<double> mu(index.size(),
                           1.0 / static_cast<double>(index.size()));
    add("exact_chain_distribution_step", "state-rows",
        measure_rate([&] { mu = chain.step(mu); },
                     static_cast<double>(index.size()), min_seconds));
  }
  {
    const repeated_donation_game rdg{{3.0, 1.0}, 0.8};
    const auto row = generous_tit_for_tat(0.3, 0.9);
    const auto col = generous_tit_for_tat(0.6, 0.9);
    double sink = 0.0;
    add("exact_payoff_engine", "evals",
        measure_rate([&] { sink += expected_payoff(rdg, row, col); }, 1.0,
                     min_seconds));
    result.param("exact_payoff_sink", sink != 0.0);
  }
  {
    const rd_setting s{3.0, 1.0, 0.8, 0.9};
    double g = 0.0;
    double sink = 0.0;
    constexpr std::uint64_t chunk = 4096;
    add("closed_form_payoff", "evals",
        measure_rate(
            [&] {
              for (std::uint64_t i = 0; i < chunk; ++i) {
                g += 1e-9;
                sink += f_gtft_vs_gtft(s, 0.3 + g, 0.6);
              }
            },
            static_cast<double>(chunk), min_seconds));
    result.param("closed_form_sink", sink != 0.0);
  }
  {
    const repeated_donation_game rdg{{3.0, 1.0}, 0.9};
    const auto row = generous_tit_for_tat(0.3, 0.9);
    const auto col = always_defect();
    rng gen = ctx.make_rng(3);
    double sink = 0.0;
    constexpr std::uint64_t chunk = 1024;
    add("rollout_game", "games",
        measure_rate(
            [&] {
              for (std::uint64_t i = 0; i < chunk; ++i) {
                sink += play_repeated_game(rdg, row, col, gen).row_payoff;
              }
            },
            static_cast<double>(chunk), min_seconds));
    result.param("rollout_sink", sink != 0.0);
  }

  {
    // Per-call cost of the exact samplers at the multibatch engine's draw
    // sizes (DESIGN.md §8): a hawk-dove pool split at n = 10^8 (sd ~40),
    // an IGT pool split at n = 10^6 (sd ~7.5), an IGT initiator draw of
    // mean 0.32 (inversion), igt_ensemble's middle GTFT levels 2051, 8203
    // and 131252 of 617 draws, the two sides of HRUA's walk cutover at
    // variance 144 (sd 11.95 and 12.04), a hawk-dove outcome cell,
    // conditional binomials of a q = 8 logit partner law (n 790, inversion
    // at means 2, 5, 9 and 13, BTRS at 15: the two sides of the cutover at
    // 14), one of mean 20, BTRS at variance 159 and 161 (the two sides of
    // its tail test's walk cutover at 160), the hawk-dove partner law
    // (n 3133, p 0.27), one whole q = 8 logit partner law of 1600 draws
    // from its compiled chain, and the multibatch engine's birthday draw at
    // n = 10^6 and 10^8, with the build of its n = 10^8 table (in us). Each
    // row is the median of three timings taken in round-robin passes over
    // all rows, so a slow stretch of the host lands in one pass of every
    // row rather than in all of one row.
    const double call_seconds = ctx.pick(0.1, 0.01);
    constexpr int passes = 3;
    auto& sampler_table =
        result.table("per-call sampler cost (ns per call)",
                     {"sampler", "total / marked / draws or n p", "ns"});
    rng gen = ctx.make_rng(4);
    std::uint64_t sink = 0;
    constexpr std::uint64_t chunk = 4096;
    struct sampler_row {
      std::string name;
      std::string parameters;
      std::function<void()> run_chunk;  // `chunk` draws
      std::vector<double> ns;           // one timing per pass
    };
    std::vector<sampler_row> rows;
    const auto add_sampler = [&](const std::string& name,
                                 const std::string& parameters, auto draw) {
      const auto run_chunk = [&sink, draw] {
        for (std::uint64_t i = 0; i < chunk; ++i) sink += draw();
      };
      rows.push_back({name, parameters, run_chunk, {}});
    };
    add_sampler("hypergeometric_sd40", "10^8 / 5*10^7 / 6300", [&gen] {
      return sample_hypergeometric(100'000'000, 50'000'000, 6300, gen);
    });
    add_sampler("hypergeometric_sd7_5", "10^6 / 10^5 / 630", [&gen] {
      return sample_hypergeometric(1'000'000, 100'000, 630, gen);
    });
    add_sampler("hypergeometric_mean0_32", "10^6 / 513 / 617", [&gen] {
      return sample_hypergeometric(1'000'000, 513, 617, gen);
    });
    add_sampler("hypergeometric_mean1_3", "10^6 / 2051 / 617", [&gen] {
      return sample_hypergeometric(1'000'000, 2051, 617, gen);
    });
    add_sampler("hypergeometric_mean5_1", "10^6 / 8203 / 617", [&gen] {
      return sample_hypergeometric(1'000'000, 8203, 617, gen);
    });
    add_sampler("hypergeometric_sd8_4", "10^6 / 131252 / 617", [&gen] {
      return sample_hypergeometric(1'000'000, 131'252, 617, gen);
    });
    add_sampler("hypergeometric_sd11_95", "10^6 / 5*10^5 / 572", [&gen] {
      return sample_hypergeometric(1'000'000, 500'000, 572, gen);
    });
    add_sampler("hypergeometric_sd12_04", "10^6 / 5*10^5 / 580", [&gen] {
      return sample_hypergeometric(1'000'000, 500'000, 580, gen);
    });
    add_sampler("binomial_n1500_p0_3", "n 1500 p 0.3",
                [&gen] { return sample_binomial(1500, 0.3, gen); });
    for (const int mean : {2, 5, 9, 13, 15}) {
      const double p = mean / 790.0;
      add_sampler("binomial_mean" + std::to_string(mean),
                  "n 790 p " + format_metric(p, 3),
                  [&gen, p] { return sample_binomial(790, p, gen); });
    }
    add_sampler("binomial_mean20", "n 2000 p 0.01",
                [&gen] { return sample_binomial(2000, 0.01, gen); });
    add_sampler("binomial_var159", "n 1600 p 0.111896",
                [&gen] { return sample_binomial(1600, 0.111896, gen); });
    add_sampler("binomial_var161", "n 1600 p 0.113509",
                [&gen] { return sample_binomial(1600, 0.113509, gen); });
    add_sampler("binomial_n3133_p0_27", "n 3133 p 0.27",
                [&gen] { return sample_binomial(3133, 0.27, gen); });
    const kernel_table logit_q8(
        game_protocol(random_zoo_game(1, 8, 0).game,
                      std::make_shared<logit_response_rule>(0.5),
                      revision_discipline::two_way));
    const kernel_table::partner_law logit_law = logit_q8.law(0);
    std::vector<std::uint64_t> logit_split(logit_law.size);
    add_sampler("multinomial_logit_q8_m1600",
                "m 1600, f(.|0) of the q = 8 logit",
                [&gen, &logit_law, &logit_split] {
                  sample_multinomial_chain(1600, logit_law.chain,
                                           logit_law.size, gen,
                                           logit_split.data());
                  return logit_split[0];
                });
    const collision_run_sampler birthday_1e6(1'000'000);
    const collision_run_sampler birthday_1e8(100'000'000);
    add_sampler("birthday_n1e6", "n 10^6",
                [&gen, &birthday_1e6] { return birthday_1e6.sample(gen); });
    add_sampler("birthday_n1e8", "n 10^8",
                [&gen, &birthday_1e8] { return birthday_1e8.sample(gen); });
    const auto build_table = [&sink] {
      const collision_run_sampler built(100'000'000);
      sink += built.survival().size();
    };
    std::vector<double> table_us;
    const double items = static_cast<double>(chunk);
    const double seconds = call_seconds / passes;
    for (int pass = 0; pass < passes; ++pass) {
      for (auto& row : rows) {
        row.ns.push_back(1e9 / measure_rate(row.run_chunk, items, seconds));
      }
      table_us.push_back(1e6 / measure_rate(build_table, 1.0, seconds));
    }
    for (const auto& row : rows) {
      const double ns = lower_quantile(row.ns, 0.5);
      result.metric("sampler_ns_" + row.name, ns);
      sampler_table.add_row({row.name, row.parameters, format_metric(ns, 4)});
    }
    result.metric("birthday_table_us_n1e8", lower_quantile(table_us, 0.5));
    result.param("sampler_sink", sink > 0);
  }

  result.note(
      "Single-component rates for the trajectory; no regression goals (CI "
      "machines\nvary run to run). Samplers: a binomial costs ~1/3 of a "
      "hypergeometric. From\nvariance 160 (BTRS) and 144 (HRUA) on, the "
      "rejection tests do not grow with\nthe standard deviation; below "
      "those, each walks its acceptance ratio from\nthe mode, ~1.2 sd steps "
      "a candidate. A birthday draw is "
      "a guide lookup and a search of ~2 survival\nentries, flat in n; its "
      "table build is linear in sqrt(n).");
  return result;
}

[[maybe_unused]] const bool registered_engines = register_scenario(
    "throughput_engines", "throughput,engines,perf",
    "Interactions/s of the census and multibatch engines on the IGT kernel "
    "and dense games",
    run_engines);

[[maybe_unused]] const bool registered_batch = register_scenario(
    "throughput_batch", "throughput,batch,threads,perf",
    "Batch-replication thread scaling and the bit-identical determinism "
    "check",
    run_batch);

[[maybe_unused]] const bool registered_micro = register_scenario(
    "throughput_micro", "throughput,micro,perf",
    "Single-component rates: count chains, exact step, payoff oracles, "
    "rollouts",
    run_micro);

}  // namespace
