// The shared multibatch round core: the aggregated-round algorithm of the
// multibatch engine (birthday law + MVH pair tables + multinomial outcome
// splits, DESIGN.md §8) factored out of the engine class so that two
// executors can drive it —
//
//   * multibatch_engine: one trajectory;
//   * ensemble_engine: R replicas in lockstep over structure-of-arrays
//     planes, sharing one kernel and one tabulated birthday sampler.
//
// Every draw of a round comes from the trajectory's one generator, in a
// fixed order: the birthday length, the initiator and responder MVH
// samples over the untouched pool, the conditional MVH matching rows, the
// per-cell outcome multinomials, and the collision. A round is therefore
// one exact draw of the census Markov chain's aggregated step, and a
// trajectory is a pure function of its seed and run() chunk schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ppg/pp/kernel.hpp"
#include "ppg/stats/discrete_sampling.hpp"
#include "ppg/util/rng.hpp"

namespace ppg {

/// A pointer view of one trajectory's multibatch round state: the census,
/// the untouched/touched pools (arrays of `width` counts owned by the
/// caller — an engine's vectors or one replica's slice of an ensemble's
/// SoA planes), the RNG, and the round/carry scalars. The executor
/// mutates everything through this view; callers copy the scalars back out
/// after run().
struct multibatch_state {
  std::uint64_t* counts = nullptr;
  std::uint64_t* untouched = nullptr;
  std::uint64_t* touched = nullptr;
  std::size_t width = 0;  ///< state-space width of the three arrays
  std::uint64_t n = 0;
  std::uint64_t untouched_total = 0;
  rng* gen = nullptr;  ///< the trajectory's generator
  std::uint64_t interactions = 0;
  std::uint64_t rounds = 0;
  std::uint64_t collisions = 0;
  /// Collision-free interactions of the current round drawn but not yet
  /// applied (the residual-round carry; see multibatch_engine).
  std::uint64_t pending_free = 0;
  bool collision_pending = false;
};

/// Executes multibatch rounds against multibatch_state views. Holds
/// everything a round needs that is *not* trajectory state: the compiled
/// kernel, the tabulated birthday sampler (one O(sqrt(n)) table shared by
/// every round of every replica), and per-worker scratch buffers.
///
/// Thread contract: concurrent run() calls on *distinct* states are safe
/// iff each caller passes a distinct `worker` index below the set_workers()
/// bound.
class multibatch_executor {
 public:
  /// `width` is the census width (>= kernel->num_states(); higher states
  /// must hold zero agents), `n` the population size. Requires 2 <= n <=
  /// 3e9 (collision-category weights t*u must fit 64 bits).
  multibatch_executor(std::shared_ptr<const kernel_table> kernel,
                      std::size_t width, std::uint64_t n);

  /// Advances the trajectory by `steps` interactions — the multibatch run
  /// loop (rounds, residual carry, collision resolution). `worker` selects
  /// the scratch slot (see the thread contract above).
  void run(multibatch_state& st, std::uint64_t steps, std::size_t worker = 0);

  /// Reserves scratch for `workers` concurrent run() callers (ensemble
  /// mode).
  void set_workers(std::size_t workers);

  /// Runs below this take the sequential per-pair path (the O(q^2)
  /// aggregate tables would cost more than per-pair sampling).
  [[nodiscard]] std::uint64_t aggregate_threshold() const {
    return aggregate_threshold_;
  }

  [[nodiscard]] const kernel_table& kernel() const { return *kernel_; }
  [[nodiscard]] const collision_run_sampler& birthday() const {
    return birthday_;
  }

 private:
  struct worker_scratch {
    std::vector<double> probs;             ///< outcome-split probabilities
    std::vector<std::uint64_t> split;      ///< multinomial outcome counts
    std::vector<std::uint64_t> initiators; ///< initiator census of a run
    std::vector<std::uint64_t> responders; ///< responder census (consumed)
    std::vector<std::uint64_t> row;        ///< one matching row
  };

  void apply_free_aggregate(multibatch_state& st, std::uint64_t free,
                            std::size_t worker);
  void apply_free_sequential(multibatch_state& st, std::uint64_t free);
  /// Applies `m` disjoint (u, v) interactions: removes the pairs from the
  /// census and adds their multinomially split outcomes to the census and
  /// the touched pool.
  void apply_pair_type(multibatch_state& st, agent_state u, agent_state v,
                       std::uint64_t m, worker_scratch& ws);
  void resolve_collision(multibatch_state& st);
  static void merge_touched(multibatch_state& st);

  std::shared_ptr<const kernel_table> kernel_;
  std::size_t width_;
  std::uint64_t n_;
  std::uint64_t aggregate_threshold_;
  collision_run_sampler birthday_;
  std::vector<worker_scratch> scratch_;
};

}  // namespace ppg
