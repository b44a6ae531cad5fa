// The multibatch engine: census-level execution that advances the chain in
// aggregated rounds of ~Theta(sqrt(n)) interactions instead of one at a
// time, with o(1) sampling work per interaction even on *dense* kernels —
// where nearly every interaction changes the census and the batched
// engine's identity-skipping degenerates to one O(q) sampling round per
// interaction.
//
// A round is the run of interactions up to and including the first "agent
// collision". Agents drawn in the current round are *touched*; while every
// interaction involves only untouched agents, the drawn pairs are disjoint,
// so their census effect is exchangeable and can be applied in aggregate.
// The engine stores only the census and the untouched pool; the touched
// pool, by current state, is their difference.
//
//  1. the number of collision-free interactions J before the first
//     interaction re-using a touched agent follows the exact birthday law
//     P(J > j) = prod_{i<j} (n-2i)(n-2i-1) / (n(n-1)), drawn by inversion
//     over a log-survival table built once per population size
//     (stats/discrete_sampling's collision_run_sampler);
//  2. the initiator census A and the responder census B of those J
//     interactions are drawn as multivariate hypergeometrics over the
//     untouched census (initiator sample, then responder sample — any
//     fixed positions of 2J distinct agents drawn uniformly without
//     replacement are a simple random sample). On a partner-keyed kernel
//     (kernel_table::partner_keyed) that is all the round needs: the
//     initiators' new states sum to one multinomial of B_v draws from
//     f(.|v) per responder state v, and the responders' to one of A_u
//     draws from g(.|u) per initiator state u, or B itself when
//     responders stay, whichever initiator met which responder. A and B
//     leave the census and those sums join it; steps 3 and 4 are skipped;
//  3. any other kernel draws a uniform matching by initiator group. It
//     follows the kernel's row shapes (kernel_table::row_shape): each
//     general row draws a q-way row over the responders; the responders
//     left all meet one-way rows and stay put, so each classed row draws a
//     C-way row over their class totals, and the rows that ignore their
//     responder take the rest with no draw. Every such responder has left
//     the untouched pool and stays in its own state, so it is touched with
//     no further bookkeeping;
//  4. the outcome split of each pair type's m pairs draws them one by one
//     with kernel_table::sample (one alias draw each) when m <=
//     alias_pairs_per_outcome() times the pair's support, and as one
//     multinomial over its outcome distribution otherwise (deterministic
//     pairs consume no draws);
//  5. the one colliding interaction is resolved sequentially — its pair is
//     uniform over ordered agent pairs with at least one touched agent —
//     after which the untouched pool is reset to the census and a new round
//     begins.
//
// Every step is an exact decomposition of the sequential scheduler's law,
// so the census at any run() boundary is distribution-identical to the
// agent/census/batched engines (DESIGN.md §8 gives the argument). A
// partner-keyed round costs O(q) hypergeometrics plus D binomials, D the
// partner laws' support points past the first of each law (q(q-1), or
// 2q(q-1) two-way, at full support), whatever J. Any other round costs
// O(q + D + sum over occupied pair cells of min(m_cell, support)), where D
// = q * #general rows + C * #classed rows is the matching's category count
// (q^2 when every row is general, 2k for one-way k-IGT): a cell of m pairs
// pays m O(1) alias draws while m <= 32 * support, and one binomial per
// outcome above that. Either way the collision adds O(q). Rounds shrink
// with n (the birthday law adapts by itself), and rounds below max(16, 4D)
// pairs take a sequential per-pair path, so small populations degrade
// gracefully to exactly the census engine's per-interaction cost.
//
// Every draw of a round comes from the engine's one generator, in a fixed
// order: the birthday length, the initiator and responder MVH samples over
// the untouched pool; then, partner-keyed, the initiator sums by responder
// state and the responder sums by initiator state; otherwise the
// conditional MVH matching rows (general rows, then classed rows), each
// cell's outcome split (its alias draws or its multinomial) as the
// matching row fills it, and the splits of the rows that ignore their
// responder; and last the collision. A round is therefore one exact draw
// of the census Markov chain's aggregated step, and a trajectory is a pure
// function of its seed and run() chunk schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ppg/pp/engine.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/stats/discrete_sampling.hpp"

namespace ppg {

class multibatch_engine final : public census_level_engine {
 public:
  /// Same contract as the batched engine: the census_level_engine contract
  /// under pair_sampling::distinct only, and n capped at ~3e9 so pair
  /// weights c_u * c_v fit in 64 bits.
  multibatch_engine(std::shared_ptr<const kernel_table> kernel,
                    std::vector<std::uint64_t> initial_counts, rng gen);

  void run(std::uint64_t steps) override;

  /// Predicate semantics are per-interaction on every engine, and a round
  /// changes the census mid-aggregate, so run_until steps one interaction
  /// at a time (the base-class loop). Prefer run() with periodic
  /// census checks when aggregation throughput matters.
  using sim_engine::run_until;

  [[nodiscard]] engine_kind kind() const override {
    return engine_kind::multibatch;
  }

  /// Aggregated rounds started and collisions resolved so far: the engine's
  /// seed-deterministic work metric. interactions() / (rounds() +
  /// collisions()) is the aggregation factor — ~sqrt(n) on any kernel.
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }

  /// Collision-free runs shorter than this take the sequential per-pair
  /// path; longer ones are applied in aggregate. It is max(16, 4D), D the
  /// round's draws past its two MVH samples: for a partner-keyed kernel
  /// the partner laws' support points past the first of each law (4q(q-1)
  /// one-way and 8q(q-1) two-way at full support), otherwise the
  /// matching's category count (q per general row, C per classed row;
  /// max(16, 4q^2) when every row is general).
  [[nodiscard]] std::uint64_t aggregate_threshold() const {
    return aggregate_threshold_;
  }

  /// A cell of m disjoint pairs over a kernel support of size S draws its
  /// outcomes one by one from the kernel's alias table when m <= this * S,
  /// and splits them by one multinomial otherwise (DESIGN.md §8 has the
  /// measured crossover).
  [[nodiscard]] static std::uint64_t alias_pairs_per_outcome();

  /// The residual-round carry: collision-free interactions of the current
  /// round drawn but not yet applied because a run() budget truncated the
  /// round (the birthday law is not memoryless, so the remainder carries
  /// across run() calls instead of being redrawn). Zero iff the engine sits
  /// at a round boundary. Exposed so truncation state is inspectable — and
  /// checkpointable — rather than opaque.
  [[nodiscard]] std::uint64_t residual_free() const { return pending_free_; }

  /// Whether the engine is inside a round: a collision-free run has been
  /// drawn (possibly fully applied) and the closing collision has not yet
  /// been resolved. A round applies at least one of its J >= 1 free pairs
  /// before run() can return, so this is exactly "some agent is touched".
  [[nodiscard]] bool mid_round() const { return untouched_total_ < n_; }

  /// Snapshot payload: counts, the untouched pool and its total, the
  /// round/collision counters, and the residual-round carry pending_free —
  /// a checkpoint taken inside a budget-truncated round resumes the same
  /// round, same law, same draws. The fields "touched" (counts minus
  /// untouched) and "collision_pending" (mid_round()) are derived on save.
  [[nodiscard]] json save_state() const override;

  /// Validates the whole snapshot before touching the engine: exact key
  /// set, known state_version, engine == "multibatch", width/population/
  /// state-space agreement, and the round-state invariants (pools
  /// partition the census, untouched_total matches the pool, residual
  /// carry only mid-round, collision_pending == (untouched_total < n)).
  /// Throws invariant_error and leaves the engine unchanged on any
  /// violation.
  void restore_state(const json& snapshot) override;

 private:
  /// Debug-asserted structural invariants of the round state (the
  /// untouched pool fits in the census and sums to its total, carry only
  /// mid-round); active at every run() entry in Debug/ASan builds,
  /// compiled out in Release. restore_state enforces the same relations
  /// unconditionally via PPG_CHECK.
  void check_round_invariants() const;

  void apply_free_aggregate(std::uint64_t free);
  void apply_free_sequential(std::uint64_t free);
  /// The aggregate step of a partner-keyed kernel, once initiators_ and
  /// responders_ hold the run's A and B: removes both from the census and
  /// adds the multinomial outcome sums of the partner laws.
  void apply_partner_keyed();
  /// Splits `m` disjoint (u, v) interactions over the pair's outcomes —
  /// no draw for a deterministic pair, m alias draws while m <= c *
  /// support, one multinomial above — and calls add(initiator', responder',
  /// count) per drawn outcome.
  template <class Add>
  void split_pairs(agent_state u, agent_state v, std::uint64_t m, Add&& add);
  /// Applies `m` disjoint (u, v) interactions to the census: removes the
  /// pairs and adds their outcomes. A one-way row passes its class
  /// representative (or 0 when it ignores its responder) as v; the
  /// responders' own states are then left as they were.
  void apply_pair_type(agent_state u, agent_state v, std::uint64_t m);
  /// Applies the round's colliding interaction and ends the round: every
  /// agent rejoins the untouched pool.
  void resolve_collision();

  /// Agents no interaction of the current round has drawn, by state; the
  /// census itself between rounds. counts_ - untouched_ is the touched pool.
  std::vector<std::uint64_t> untouched_;
  std::uint64_t untouched_total_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t collisions_ = 0;
  /// Collision-free interactions of the current round not yet applied; when
  /// it reaches 0 mid-round, the next interaction collides.
  std::uint64_t pending_free_ = 0;
  /// The birthday law's log-survival table: one O(sqrt(n)) table shared by
  /// every round of the trajectory.
  collision_run_sampler birthday_;
  std::uint64_t aggregate_threshold_;
  // Round scratch, reused across rounds (no per-round allocation).
  std::vector<std::uint64_t> split_;       ///< multinomial outcome counts
  std::vector<std::uint64_t> initiators_;  ///< initiator census of a run
  std::vector<std::uint64_t> responders_;  ///< responder census (consumed)
  std::vector<std::uint64_t> row_;         ///< one matching row
  std::vector<std::uint64_t> class_totals_;  ///< responders left per class
  std::vector<std::uint64_t> touched_pool_;  ///< derived at each collision
};

}  // namespace ppg
