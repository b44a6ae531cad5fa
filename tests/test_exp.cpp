// Tests for the batch-replication engine: thread-count determinism, RNG
// stream derivation, aggregator merge associativity, the thread pool, and
// the empirical-CDF accumulator it feeds.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/exp/replicate.hpp"
#include "ppg/games/game_matrix.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/util/thread_pool.hpp"

namespace ppg {
namespace {

TEST(StreamSeeds, DeterministicAndDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const auto seed = derive_stream_seed(42, i);
    EXPECT_EQ(seed, derive_stream_seed(42, i));
    seeds.insert(seed);
  }
  // splitmix64's output function is a bijection of the counter, so all
  // derived seeds of one master must be distinct.
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(StreamSeeds, IndependentOfOtherStreams) {
  // Counter-based: stream 7's seed is the same whether or not streams 0-6
  // were ever derived, and across masters the maps differ.
  EXPECT_EQ(derive_stream_seed(1, 7), derive_stream_seed(1, 7));
  EXPECT_NE(derive_stream_seed(1, 7), derive_stream_seed(2, 7));
}

TEST(StreamSeeds, StreamsDoNotOverlap) {
  // Draw a prefix from many streams of one master; across streams the
  // 64-bit outputs must be (essentially) collision-free. Any overlap of
  // stream windows would show up as repeated values.
  std::set<std::uint64_t> draws;
  constexpr int streams = 200;
  constexpr int prefix = 64;
  for (int s = 0; s < streams; ++s) {
    rng gen = make_stream_rng(99, static_cast<std::uint64_t>(s));
    for (int i = 0; i < prefix; ++i) {
      draws.insert(gen());
    }
  }
  EXPECT_EQ(draws.size(), static_cast<std::size_t>(streams * prefix));
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  thread_pool pool(4);
  std::atomic<int> hits{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&hits] { hits.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(hits.load(), 100);
  // The pool stays usable after an idle wait.
  pool.submit([&hits] { hits.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(hits.load(), 101);
}

TEST(ThreadPool, QueuedAndActiveCounters) {
  thread_pool pool(2);
  EXPECT_EQ(pool.queued(), 0u);
  EXPECT_EQ(pool.active(), 0u);

  // Park both workers on a gate, then pile up waiting tasks: the counters
  // must see exactly 2 executing and the rest queued.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> entered{0};
  const auto blocker = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  pool.submit(blocker);
  pool.submit(blocker);
  while (entered.load() < 2) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 5; ++i) {
    pool.submit([] {});
  }
  EXPECT_EQ(pool.active(), 2u);
  EXPECT_EQ(pool.queued(), 5u);

  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  pool.wait_idle();
  // Determinism contract: after wait_idle with no concurrent submitters the
  // pool must be provably drained — observing the counters is side-effect
  // free and never perturbs task order.
  EXPECT_EQ(pool.queued(), 0u);
  EXPECT_EQ(pool.active(), 0u);
}

TEST(BatchRunner, CoversEveryReplicaOnce) {
  const batch_options opts{32, 7, 4};
  const auto indices = batch_runner(opts).run(
      [](const replica_context& ctx, rng&) { return ctx.index; });
  ASSERT_EQ(indices.size(), 32u);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], i);
  }
}

TEST(BatchRunner, ReplicaSeedsMatchDerivation) {
  const batch_options opts{8, 1234, 2};
  const auto seeds = batch_runner(opts).run(
      [](const replica_context& ctx, rng&) { return ctx.seed; });
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], derive_stream_seed(1234, i));
  }
  // The stream law itself: replica i's generator draws exactly what
  // make_stream_rng(master, i) draws, so any driver that seeds engines by
  // that law reproduces the batch's per-replica trajectories.
  const auto draws =
      batch_runner(opts).run([](const replica_context&, rng& gen) {
        std::vector<std::uint64_t> words(16);
        for (auto& w : words) w = gen();
        return words;
      });
  for (std::size_t i = 0; i < draws.size(); ++i) {
    rng twin = make_stream_rng(1234, i);
    for (const std::uint64_t w : draws[i]) EXPECT_EQ(w, twin()) << i;
  }
}

// The acceptance property of the engine: a real simulation batch aggregated
// at 1 worker and at 8 workers produces bit-identical results.
TEST(BatchRunner, AggregatesBitIdenticalAcrossThreadCounts) {
  const auto pop = abg_population::from_fractions(60, 0.1, 0.2, 0.7);
  const std::size_t k = 4;
  const igt_protocol proto(k);
  const sim_spec spec(proto, make_igt_census(pop, k, 0));
  const auto body = [&](const replica_context&, rng& gen) {
    const auto sim = spec.make_engine(engine_kind::census, gen);
    sim->run(2000);
    std::vector<double> census(k);
    const auto z = gtft_level_counts(sim->census(), k);
    for (std::size_t j = 0; j < k; ++j) {
      census[j] = static_cast<double>(z[j]);
    }
    return census;
  };
  const auto serial = replicate_census({16, 2024, 1}, body);
  const auto parallel = replicate_census({16, 2024, 8}, body);
  ASSERT_EQ(serial.count(), 16u);
  ASSERT_EQ(parallel.count(), 16u);
  for (std::size_t j = 0; j < k; ++j) {
    // Exact equality, not near-equality: the engine promises bit-identical
    // reduction order at any thread count.
    EXPECT_EQ(serial.mean()[j], parallel.mean()[j]);
    EXPECT_EQ(serial.ci_half_width()[j], parallel.ci_half_width()[j]);
  }

  // Replicas that share one precompiled kernel across threads, on a dense
  // two-way hawk-dove game: census engines draw every interaction from it,
  // and multibatch rounds exercise the MVH tables and the multinomial
  // splits concurrently.
  const game_protocol dense(hawk_dove_matrix(1.0, 2.0),
                            std::make_shared<logit_response_rule>(0.5),
                            revision_discipline::two_way);
  const sim_spec dense_spec(dense, {25'000, 25'000});
  const auto kernel = std::make_shared<const kernel_table>(dense);
  for (const auto kind : {engine_kind::census, engine_kind::multibatch}) {
    const auto dense_body = [&](const replica_context&, rng& gen) {
      const auto engine = dense_spec.make_engine(kind, gen, kernel);
      engine->run(40'000);
      return engine->census().fractions();
    };
    const auto reference = replicate_census({9, 123, 1}, dense_body);
    for (const std::size_t threads : {3u, 8u}) {
      const auto batch = replicate_census({9, 123, threads}, dense_body);
      ASSERT_EQ(batch.count(), 9u);
      EXPECT_EQ(batch.mean(), reference.mean())
          << engine_kind_name(kind) << ", " << threads << " threads";
      EXPECT_EQ(batch.ci_half_width(), reference.ci_half_width())
          << engine_kind_name(kind) << ", " << threads << " threads";
    }
  }
}

TEST(BatchRunner, ScalarAggregateDeterministicAcrossThreadCounts) {
  const auto body = [](const replica_context& ctx, rng& gen) {
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i) acc += gen.next_double();
    return acc + static_cast<double>(ctx.index);
  };
  const auto a = replicate_scalar({25, 5, 1}, body);
  const auto b = replicate_scalar({25, 5, 3}, body);
  const auto c = replicate_scalar({25, 5, 8}, body);
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.mean(), c.mean());
  EXPECT_EQ(a.std_error(), c.std_error());
  EXPECT_EQ(a.max(), c.max());
}

TEST(BatchRunner, PropagatesReplicaExceptions) {
  const batch_options opts{8, 0, 4};
  EXPECT_THROW(batch_runner(opts).run([](const replica_context& ctx, rng&) {
    if (ctx.index == 5) throw std::runtime_error("replica 5 failed");
    return 0;
  }),
               std::runtime_error);
}

TEST(BatchRunner, RejectsEmptyBatch) {
  EXPECT_THROW(batch_runner({0, 0, 1}), invariant_error);
}

TEST(Aggregators, CensusAggregatorAveragesEachCoordinate) {
  census_aggregator band;
  band.add({0.0, 1.0, 2.0});
  band.add({2.0, 3.0, 4.0});
  ASSERT_EQ(band.dimensions(), 3u);
  const auto mean = band.mean();
  EXPECT_DOUBLE_EQ(mean[0], 1.0);
  EXPECT_DOUBLE_EQ(mean[1], 2.0);
  EXPECT_DOUBLE_EQ(mean[2], 3.0);
  EXPECT_THROW(band.add({1.0}), invariant_error);
}

TEST(SimSpec, ReplicasStartFromIdenticalInitialCondition) {
  const auto pop = abg_population::from_fractions(40, 0.1, 0.2, 0.7);
  const std::size_t k = 3;
  const igt_protocol proto(k);
  const sim_spec spec(proto, make_igt_census(pop, k, 1));
  rng gen_a(1);
  rng gen_b(2);
  const auto first = spec.make_engine(engine_kind::census, gen_a);
  const auto second = spec.make_engine(engine_kind::census, gen_b);
  EXPECT_EQ(first->census().counts(), second->census().counts());
  // Same seed => identical replica trajectories.
  rng gen_c(1);
  const auto third = spec.make_engine(engine_kind::census, gen_c);
  first->run(500);
  third->run(500);
  EXPECT_EQ(first->census().counts(), third->census().counts());
}

TEST(SimSpec, MakeEngineDoesNotShareTheCallersStream) {
  const auto pop = abg_population::from_fractions(40, 0.1, 0.2, 0.7);
  const std::size_t k = 3;
  const igt_protocol proto(k);
  const sim_spec spec(proto, make_igt_census(pop, k, 0));
  // Two simulations drawn from one generator must follow different
  // trajectories, and the caller's generator must have advanced.
  rng gen(9);
  rng untouched(9);
  const auto a = spec.make_engine(engine_kind::census, gen);
  const auto b = spec.make_engine(engine_kind::census, gen);
  a->run(2000);
  b->run(2000);
  EXPECT_NE(a->census().counts(), b->census().counts());
  EXPECT_NE(gen(), untouched());
}

}  // namespace
}  // namespace ppg
