// The batch-replication engine: runs R independent replicas of a stochastic
// experiment across a worker pool and returns the per-replica results in
// replica order.
//
// Determinism contract. Replica i always draws from the generator
// make_stream_rng(master_seed, i) — a counter-based splitmix64 derivation
// that depends on nothing but (master_seed, i) — and results are stored by
// replica index, never by completion order. Aggregation therefore sees the
// identical sequence of inputs whatever the thread count: same master seed
// => bit-identical aggregates at 1 worker and at 64.
//
// Every Monte-Carlo experiment in the paper (stationary censuses, cutoff
// profiles, coupling tails, ε-Nash trajectories) is "replicate + reduce";
// this engine is the single replication loop the bench/ and examples/
// drivers share instead of hand-rolling their own. Replica bodies typically
// build a simulation engine from a shared sim_spec —
// `spec.make_engine(kind, gen)` — so the execution backend (census,
// multibatch) is one more replicated parameter; see replicate.hpp
// for the packaged shapes. Replicas of any kind may share one precompiled
// kernel_table (`spec.make_engine(kind, gen, kernel)`): the table is
// immutable, so sharing it across workers changes no draw.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

#include "ppg/util/error.hpp"
#include "ppg/util/rng.hpp"
#include "ppg/util/thread_pool.hpp"

namespace ppg {

struct batch_options {
  /// Number of independent replicas R.
  std::size_t replicas = 1;
  /// Master seed; replica i uses derive_stream_seed(master_seed, i).
  std::uint64_t master_seed = 0;
  /// Worker threads; 0 means hardware concurrency.
  std::size_t threads = 0;
};

/// Identity of one replica, handed to the experiment body.
struct replica_context {
  /// Replica index in [0, replicas).
  std::size_t index = 0;
  /// The replica's derived seed (for logging / reproduction of one replica).
  std::uint64_t seed = 0;
};

class batch_runner {
 public:
  explicit batch_runner(batch_options opts) : opts_(opts) {
    PPG_CHECK(opts_.replicas >= 1, "a batch needs at least one replica");
    if (opts_.threads == 0) {
      opts_.threads =
          std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
  }

  [[nodiscard]] const batch_options& options() const { return opts_; }

  /// Runs `body(ctx, gen)` once per replica with that replica's own
  /// generator; returns results indexed by replica. The body must not touch
  /// shared mutable state (each call owns its rng and its result slot), and
  /// its result type must be default-constructible (slots are pre-allocated
  /// and filled in completion order). If any replica throws, the first
  /// exception (in replica order) is rethrown after the batch drains.
  template <typename Body>
  auto run(Body&& body) const {
    using result_type =
        std::decay_t<decltype(body(std::declval<const replica_context&>(),
                                   std::declval<rng&>()))>;
    static_assert(!std::is_void_v<result_type>,
                  "replica bodies must return their result by value");
    static_assert(!std::is_same_v<result_type, bool>,
                  "bool results are unsafe: concurrent writes to "
                  "std::vector<bool> slots race on packed bits — return a "
                  "small struct or an int instead");
    static_assert(std::is_default_constructible_v<result_type>,
                  "replica result types must be default-constructible");
    const std::size_t r = opts_.replicas;
    std::vector<result_type> results(r);
    std::vector<std::exception_ptr> errors(r);
    {
      // One task per worker, each pulling replica indices from a shared
      // atomic counter: cheap, balanced, and index-deterministic.
      thread_pool pool(std::min(opts_.threads, r));
      std::atomic<std::size_t> next{0};
      for (std::size_t w = 0; w < pool.size(); ++w) {
        pool.submit([&] {
          for (std::size_t i = next.fetch_add(1); i < r;
               i = next.fetch_add(1)) {
            const replica_context ctx{i,
                                      derive_stream_seed(opts_.master_seed, i)};
            rng gen(ctx.seed);
            try {
              results[i] = body(ctx, gen);
            } catch (...) {
              errors[i] = std::current_exception();
            }
          }
        });
      }
      pool.wait_idle();
    }
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    return results;
  }

  /// Replicate-and-reduce: folds the per-replica results into `accumulator`
  /// in replica order via `accumulator.add(result)`. The fold runs on the
  /// calling thread, so floating-point reduction order — and therefore the
  /// aggregate — is independent of the thread count.
  template <typename Body, typename Accumulator>
  void run_into(Body&& body, Accumulator& accumulator) const {
    for (auto& result : run(body)) {
      accumulator.add(result);
    }
  }

 private:
  batch_options opts_;
};

}  // namespace ppg
