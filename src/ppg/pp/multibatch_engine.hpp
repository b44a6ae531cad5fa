// The multibatch engine: census-level execution of the distinct-pairs
// scheduler that advances the chain either in aggregated rounds of
// ~Theta(sqrt(n)) interactions, with o(1) sampling work per interaction even
// on *dense* kernels where nearly every interaction changes the census, or
// in skip batches that pass over runs of identity interactions in one
// geometric draw, where most interactions cannot change any state. It
// chooses between the two at every round boundary (below).
//
// A round is the run of interactions up to and including the first "agent
// collision". Agents drawn in the current round are *touched*; while every
// interaction involves only untouched agents, the drawn pairs are disjoint,
// so their census effect is exchangeable and can be applied in aggregate.
// The engine's state is the census, the untouched pool and the residual
// carry (below); the touched pool, by current state, is the census less
// the untouched pool, and the engine is mid-round exactly when some agent
// is touched. Inside run(), two-way partner-keyed rounds may also hold
// agents unrevealed by law (step 2), none of them left when run() returns.
//
//  1. the number of collision-free interactions J before the first
//     interaction re-using a touched agent follows the exact birthday law
//     P(J > j) = prod_{i<j} (n-2i)(n-2i-1) / (n(n-1)), drawn by inversion
//     of one uniform over a survival table and its bucket guide, both
//     built once per population size (stats/discrete_sampling's
//     collision_run_sampler);
//  2. the initiator census A and the responder census B of those J
//     interactions are drawn as multivariate hypergeometrics over the
//     untouched census (initiator sample, then responder sample — any
//     fixed positions of 2J distinct agents drawn uniformly without
//     replacement are a simple random sample). On a partner-keyed kernel
//     (kernel_table::partner_keyed) every agent that moves follows the
//     one law f(.|w) of its partner's state w, whichever agent it met, so
//     the round needs no matching and skips steps 3 and 4. One-way, only
//     the initiators move: A leaves the census and one multinomial of
//     B_w draws from f(.|w) per state w joins it. Two-way, every agent
//     moves, and the partners of the 2J agents are those agents
//     themselves: the round draws their census X instead of A and B, and
//     X leaves the census. With few support points, D < 1 + sqrt(pi D)
//     (D below), one multinomial of X_w draws from f(.|w) per state w
//     joins it. Otherwise X_w agents join the *unrevealed* agents of law
//     w with no draw: by deferred decisions, such an agent's state is an
//     undrawn sample of f(.|w) until something reads it. The next rounds'
//     samples, the sequential path and the collision, which pick agents
//     from the untouched or the touched pool, reveal each unrevealed
//     agent they pick by one alias draw of f(.|w). The skip-batch choice,
//     which reads the census, and run(), before it returns, reveal them
//     all: one multinomial per law for the untouched part and one for the
//     touched part. So does a round boundary once the next sample would
//     pick sqrt(pi D) of them on average, 2 E[J] P / n >= sqrt(pi D) for
//     P unrevealed agents, unless the run() budget ends within
//     sqrt(D / pi) E[J] interactions. X is one hypergeometric K for its
//     unrevealed part (none while P = 0), one MVH of 2J - K over the
//     revealed untouched pool, and K picks revealed one by one.
//     When every row is one-way (no general row, not partner-keyed, as in
//     k-IGT), no responder moves and the round needs B only by class: B is
//     then one C-way MVH over the class totals of the untouched pool after
//     A, and the untouched pool keeps counting it. Its per-state
//     composition is drawn only if a run() budget cuts the round: one MVH
//     per class, before run() returns, so the untouched pool is exact at
//     every run() boundary;
//  3. any other kernel draws a uniform matching by initiator group. It
//     follows the kernel's row shapes (kernel_table::row_shape): each
//     general row draws a q-way row over the responders; the responders
//     left all meet one-way rows and stay put, so each classed row draws a
//     C-way row over their class totals, and the rows that ignore their
//     responder take the rest with no draw. Every such responder has left
//     the untouched pool and stays in its own state, so it is touched with
//     no further bookkeeping;
//  4. each pair type's m pairs split over its outcomes by one multinomial
//     over the pair's outcome law, |support| - 1 conditional binomials
//     (deterministic pairs consume no draws);
//  5. the one colliding interaction is resolved sequentially — its pair is
//     uniform over ordered agent pairs with at least one touched agent —
//     after which the untouched pool is reset to the census and a new round
//     begins. After a round that drew B by class, each pool is a per-state
//     part plus a per-class part (B_c touched, and the class totals after
//     A less B_c untouched): an initiator picked from class c takes its
//     state in proportion to the untouched pool after A within c, and a
//     responder picked from class c is sampled as the class's
//     representative, which has its initiator law and stays put.
//
// Every step is an exact decomposition of the sequential scheduler's law,
// so the census at any run() boundary is distribution-identical to the
// agent and census engines' (DESIGN.md §8 gives the argument). A one-way
// partner-keyed round costs 2(q - 1) hypergeometrics plus D binomials, D
// the partner laws' support points past the first of each law (q(q-1) at
// full support), whatever J. A two-way one costs q - 1 hypergeometrics
// and D binomials; when it defers them, q hypergeometrics and ~2J P / n
// alias draws, sqrt(pi D) at most on average, and its D binomials are
// paid once per boundary reveal and twice (untouched and touched parts)
// when run() returns, not per round. Any other round costs
// O(q + D + sum over occupied pair
// cells of (support - 1)) binomials and hypergeometrics, where
// D = q * #general rows + C * #classed rows is the matching's category
// count (q^2 when every row is general, 2k for one-way k-IGT), whatever
// the cells' sizes; a one-way round's responder sample
// costs C - 1 hypergeometrics of those O(q), not q - 1 (k-IGT: 1, not
// q - 1 = k + 1). Either way the collision adds O(q).
// Rounds shrink with n (the birthday law adapts by itself), and a run of
// fewer than max(16, 4D) collision-free pairs — a short round, or the part
// of a round a small run() budget leaves — takes a sequential per-pair
// path, so small populations and single steps cost what the census engine
// pays per interaction.
//
// Skip batches. An ordered state pair whose kernel is a point mass on the
// pair itself is an identity: it can never change any state. Between two
// census changes the census is constant, so the number of identity
// interactions before the next census change is Geometric(p), p the
// non-identity pair mass over n(n-1); one batch draws it, then samples
// and applies the one non-identity interaction. Geometric memorylessness
// lets a run() budget cut a batch with nothing to carry. The mass is an
// exact integer derived from the census in row-collapsed form: for each
// initiator state u, S_u is the static set of responder states v with a
// non-identity pair (u, v), R_u is the sum of the counts over S_u, and the
// mass is sum_u c_u (R_u - [u in S_u]).
//
// The choice. At each round boundary (no agent touched) a cost model
// compares one round with the skip batches that cover the same E[J]
// interactions, E[J] ~ sqrt(pi n / 8) the birthday mean, fixed by n: those
// take ~E[J] * p census changes of O(q) each. Its constants were measured
// once and are compiled in (DESIGN.md §8); it reads no clock. The engine
// runs one batch or one round and decides again at the next boundary,
// re-deriving the mass in O(q) plus, per row, the shorter of S_u and its
// complement (k-IGT: two states in all); a batch's census change is then
// four count updates. A kernel without an identity pair has mass n(n-1)
// on every census, so its choice is made once, at construction, and a
// round pays nothing for it. The choice
// depends only on the census at a boundary, a stopping time, and each
// mechanism is an exact draw of the chain from there, so the trajectory is
// still one; a snapshot at a boundary is the round-boundary snapshot,
// whichever mechanism ran.
//
// Every draw comes from the engine's one generator, in a fixed order. A
// batch draws its geometric, then its pair and the pair's outcome. A round
// draws the birthday length, the initiator and responder MVH samples over
// the untouched pool (the responders' by class when every row is one-way;
// on a two-way partner-keyed kernel instead one MVH of its 2J agents, or,
// when it defers its laws, the sample's unrevealed count, the MVH of its
// revealed part and the reveals of the rest, in pick order); then, on a
// partner-keyed kernel that does not defer, the outcome sums by partner
// state in state order; otherwise the conditional MVH matching rows
// (general rows, then classed rows), each cell's outcome multinomial as
// the matching row fills it, and the multinomials of the rows that ignore
// their responder; and last the collision (its category, both picks, the
// reveal of the initiator and then of the responder if unrevealed, and
// the outcome), or, when the budget cuts a round whose responders were
// drawn by class, their per-class MVHs. A sequential pair reveals each
// side it picks unrevealed before it draws the outcome. Revealing every
// agent, at a boundary or before run() returns, draws law by law in state
// order, the untouched part before the touched part. A trajectory is
// therefore a pure function of its seed and run() chunk schedule.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "ppg/pp/engine.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/stats/discrete_sampling.hpp"

namespace ppg {

class multibatch_engine final : public census_level_engine {
 public:
  /// The census_level_engine contract under pair_sampling::distinct only
  /// (sim_spec::make_engine rejects with_replacement), and n capped at
  /// ~3e9 so pair weights c_u * c_v fit in 64 bits.
  multibatch_engine(std::shared_ptr<const kernel_table> kernel,
                    std::vector<std::uint64_t> initial_counts, rng gen);

  void run(std::uint64_t steps) override;

  /// Predicate semantics are per-interaction on every engine. The census
  /// is constant across a skip batch's identity interactions, so the
  /// predicate is checked once per batch; a round changes the census
  /// mid-aggregate, so rounds step one interaction at a time. Prefer run()
  /// with periodic census checks when aggregation throughput matters.
  std::uint64_t run_until(const census_predicate& converged,
                          std::uint64_t max_steps) override;

  [[nodiscard]] engine_kind kind() const override {
    return engine_kind::multibatch;
  }

  /// collisions(): collisions resolved by this engine object; rounds():
  /// those plus the round open now, if any, since every other round closed
  /// with a collision. The engine's seed-deterministic work metric, which
  /// snapshots do not carry. interactions() / (rounds() + collisions()) is the aggregation
  /// factor — ~sqrt(n) on any kernel.
  [[nodiscard]] std::uint64_t rounds() const {
    return collisions_ + (mid_round() ? 1u : 0u);
  }
  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }

  /// Skip batches advanced by this engine object: one geometric draw plus
  /// at most one census change each. A work counter only, which snapshots
  /// do not carry. Work is rounds() + collisions() + skip_batches().
  [[nodiscard]] std::uint64_t skip_batches() const { return skip_batches_; }

  /// Collision-free runs shorter than this take the sequential per-pair
  /// path; longer ones are applied in aggregate (the cost model reads it
  /// to price a round at the birthday mean). It is max(16, 4D), D the
  /// round's draws past its MVH samples: for a partner-keyed kernel the
  /// partner laws' support points past the first of each law (4q(q-1)
  /// under either discipline at full support), otherwise the matching's
  /// category count (q per general row, C per classed row; max(16, 4q^2)
  /// when every row is general).
  [[nodiscard]] std::uint64_t aggregate_threshold() const {
    return aggregate_threshold_;
  }

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

  /// Snapshot payload: the state and nothing derived from it — counts,
  /// the untouched pool, and the residual-round carry pending_free. A
  /// checkpoint taken inside a budget-truncated round resumes the same
  /// round, same law, same draws.
  [[nodiscard]] json save_state() const override;

  /// Validates the whole snapshot before touching the engine: exact key
  /// set, known state_version, engine == "multibatch", width/population/
  /// state-space agreement, and the three round-state relations (the
  /// untouched pool fits in the census state by state, a carry only while
  /// some agent is touched, 2 * pending_free <= the pool's sum).
  /// Throws invariant_error and leaves the engine unchanged on any
  /// violation.
  void restore_state(const json& snapshot) override;

 private:
  /// Debug-asserted structural invariants of the round state (the
  /// untouched pool fits in the census and sums to its total, carry only
  /// mid-round, no responder left held by class, no agent left unrevealed
  /// and no law's untouched unrevealed count above its total); active
  /// at every run() entry in Debug/ASan builds, compiled out in Release.
  /// restore_state enforces the same relations unconditionally via
  /// PPG_CHECK.
  void check_round_invariants() const;

  /// Whether the next interactions, at a round boundary, go to a skip
  /// batch rather than a round (the class comment's cost model).
  [[nodiscard]] bool skips_pay();
  /// Recomputes R_u and the non-identity mass from the census: at every
  /// decision, so a skip batch reads them current.
  void derive_active_mass();
  /// Advances by one skip batch — the geometric run of identity
  /// interactions plus, if it falls inside `budget`, the next census
  /// change — and returns the interactions consumed, in (0, budget]. A
  /// census with no non-identity mass consumes the whole budget.
  [[nodiscard]] std::uint64_t skip_batch(std::uint64_t budget);
  /// Samples and applies one non-identity interaction to the census and
  /// the untouched pool, equal at a boundary.
  void apply_active();
  /// Advances the round in progress, opening one at a boundary, by at most
  /// `budget` interactions; returns the interactions consumed.
  [[nodiscard]] std::uint64_t advance_round(std::uint64_t budget);

  void apply_free_aggregate(std::uint64_t free);
  /// Draws the per-state composition of the responders an aggregate run
  /// drew by class (one MVH per class over untouched_ restricted to it)
  /// and removes them from untouched_: run() calls it before it returns
  /// inside such a round, so the untouched pool is exact at every run()
  /// boundary.
  void resolve_responder_states();
  void apply_free_sequential(std::uint64_t free);
  /// The aggregate step of a partner-keyed kernel that does not defer its
  /// laws, once the agents that move have left the census and responders_
  /// holds their partners' census (B one-way, all 2J agents two-way): adds
  /// one multinomial of responders_[w] draws from f(.|w) per kernel state
  /// w.
  void apply_partner_laws();
  /// The state of one unrevealed agent of law w: one alias draw of f(.|w).
  [[nodiscard]] agent_state reveal(agent_state law);
  /// Reveals every unrevealed agent: one multinomial per law for the
  /// untouched part, which joins the census and the untouched pool, and
  /// one for the touched part, which joins the census.
  void reveal_all();
  /// Takes the untouched unrevealed agent at `target` (listed by law) out
  /// of the unrevealed counts and returns its revealed state.
  [[nodiscard]] agent_state take_unrevealed(std::uint64_t target);
  /// The untouched agent at `target` of the pool listed by state, then by
  /// law, `excluded` (a revealed agent) removed; an unrevealed agent is
  /// revealed, and counted by its state, before its state is returned.
  [[nodiscard]] agent_state pick_untouched(std::uint64_t target,
                                           agent_state excluded);
  /// Applies `m` disjoint (u, v) interactions to the census: removes the
  /// pairs and adds their outcomes, split by one multinomial over the
  /// pair's outcome law (no draw for a deterministic pair). A one-way row passes its class
  /// representative (or 0 when it ignores its responder) as v; the
  /// responders' own states are then left as they were.
  void apply_pair_type(agent_state u, agent_state v, std::uint64_t m);
  /// Applies the round's colliding interaction and ends the round: every
  /// agent rejoins the untouched pool. Responders still held by class are
  /// picked by class; an initiator among them takes its state in
  /// proportion to untouched_ within the class.
  void resolve_collision();

  /// Agents no interaction of the current round has drawn, by state; the
  /// census itself between rounds. counts_ - untouched_ is the touched pool,
  /// except inside run() while responders_unresolved_: untouched_ then
  /// still counts the run's responders, which are held by class. Inside
  /// run(), counts_ and untouched_ hold revealed agents only.
  std::vector<std::uint64_t> untouched_;
  /// The untouched pool's sum, unrevealed agents included: n exactly at a
  /// round boundary.
  std::uint64_t untouched_total_ = 0;
  /// Two-way partner-keyed kernels that defer their laws only (empty
  /// otherwise): the agents an aggregate run moved whose states are still
  /// undrawn samples of f(.|w), counted by law w, and the untouched part
  /// of those counts. Zero at every run() boundary.
  std::vector<std::uint64_t> unrevealed_;
  std::vector<std::uint64_t> unrevealed_untouched_;
  std::uint64_t unrevealed_total_ = 0;
  std::uint64_t unrevealed_untouched_total_ = 0;
  /// A round boundary reveals every agent once this many are unrevealed
  /// (never when nothing is deferred), unless fewer than reveal_horizon_
  /// interactions of the run() budget are left.
  std::uint64_t reveal_limit_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t reveal_horizon_ = 0;
  std::uint64_t collisions_ = 0;
  /// Collision-free interactions of the current round not yet applied; when
  /// it reaches 0 mid-round, the next interaction collides.
  std::uint64_t pending_free_ = 0;
  /// The birthday law's survival table and guide: O(sqrt(n)) entries
  /// shared by every round of the trajectory.
  collision_run_sampler birthday_;
  std::uint64_t aggregate_threshold_;
  std::uint64_t skip_batches_ = 0;
  /// Skip batches run while the non-identity mass is below this; 0 when
  /// they never pay (no per-boundary work then).
  std::uint64_t skip_mass_limit_ = 0;
  /// n(n-1), the number of ordered pairs of distinct agents.
  double ordered_pairs_ = 0.0;
  /// Initiator states with at least one non-identity pair.
  std::vector<agent_state> active_rows_;
  /// q*q flags: responder_in_row_[u*q + v] iff (u, v) is non-identity.
  std::vector<std::uint8_t> responder_in_row_;
  /// Per state u, the shorter of S_u and its complement: R_u sums the
  /// counts over row_states_[row_begin_[u], row_begin_[u + 1]), or is n
  /// less that sum when row_complement_[u] (k-IGT: at most one state).
  std::vector<std::uint32_t> row_begin_;
  std::vector<agent_state> row_states_;
  std::vector<std::uint8_t> row_complement_;
  /// R_u, the census summed over S_u, as of the last derive_active_mass.
  std::vector<std::uint64_t> row_responder_sum_;
  /// The non-identity pair mass sum_u c_u (R_u - [u in S_u]), likewise.
  std::uint64_t active_weight_ = 0;
  /// Whether aggregate runs draw their responders by class: the kernel is
  /// not partner-keyed and has no general row, so every row is one-way.
  bool responders_by_class_ = false;
  // Round scratch, reused across rounds (no per-round allocation).
  /// Whether class_responders_ holds the current run's responders, still
  /// counted in untouched_; false at every run() boundary.
  bool responders_unresolved_ = false;
  std::vector<std::uint64_t> class_responders_;  ///< B by class, else 0
  std::vector<std::uint64_t> class_pool_;  ///< untouched_ by class, after A
  std::vector<std::uint64_t> split_;       ///< multinomial outcome counts
  std::vector<std::uint64_t> initiators_;  ///< initiator census of a run
  /// Responder census (consumed); a partner-keyed run's partner census.
  std::vector<std::uint64_t> responders_;
  std::vector<std::uint64_t> row_;         ///< one matching row
  std::vector<std::uint64_t> class_totals_;  ///< responders left per class
  std::vector<std::uint64_t> touched_pool_;  ///< derived at each collision
  std::vector<std::uint64_t> untouched_pool_;  ///< likewise
  std::vector<agent_state> class_members_;     ///< one class's states
  std::vector<std::uint64_t> member_counts_;   ///< their untouched_ counts
};

}  // namespace ppg
