// The batched engine: census-level execution that advances through runs of
// *identity* interactions — ordered state pairs whose kernel is a point mass
// on the pair itself, so they can never change any state — in a single
// geometric draw, instead of sampling them one by one. Between two census
// changes the census is constant, hence the number of identity interactions
// before the next non-identity one is Geometric(p) with p the current
// probability mass of non-identity pairs; geometric memorylessness makes
// truncating a batch at a step budget lawful. For kernels whose interactions
// are mostly no-ops — e.g. the one-way k-IGT dynamics, where any interaction
// whose initiator is AC or AD is an identity — this executes far less than
// one sampling operation per interaction (DESIGN.md §3).
//
// Non-identity mass is tracked in row-collapsed form: for each initiator
// state u, S_u is the (static, kernel-derived) set of responder states v
// with a non-identity pair (u, v), and R_u = sum of counts over S_u is
// maintained incrementally as counts change; the total non-identity weight
// is itself maintained by the same add_count pass (a single delta
// expansion of the row products), so a batch costs O(1) beyond the four
// count updates of its census change.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ppg/pp/engine.hpp"
#include "ppg/pp/kernel.hpp"

namespace ppg {

class batched_engine final : public census_level_engine {
 public:
  /// The census_level_engine contract under pair_sampling::distinct (the
  /// standard PP scheduler; sim_spec::make_engine rejects with_replacement).
  /// Population sizes up to ~3e9 are supported: pair weights c_u * c_v must
  /// fit in 64 bits.
  batched_engine(std::shared_ptr<const kernel_table> kernel,
                 std::vector<std::uint64_t> initial_counts, rng gen);

  void run(std::uint64_t steps) override;
  std::uint64_t run_until(const census_predicate& converged,
                          std::uint64_t max_steps) override;

  [[nodiscard]] engine_kind kind() const override {
    return engine_kind::batched;
  }

  /// Number of batches advanced so far: one geometric draw (plus at most
  /// one non-identity interaction) each. The engine's seed-deterministic
  /// work metric — on dense kernels it approaches interactions().
  [[nodiscard]] std::uint64_t batches() const { return batches_; }

  /// Snapshot payload: counts, the batch counter, and the incrementally
  /// maintained non-identity mass. restore_state re-derives the mass from
  /// the snapshot's counts and cross-checks it against the stored value
  /// before committing anything, so a checkpoint whose census and mass
  /// disagree is rejected — leaving the engine unmodified — instead of
  /// silently corrupting the geometric batch law.
  [[nodiscard]] json save_state() const override;
  void restore_state(const json& snapshot) override;

 private:
  /// Computes the responder sums R_u of `counts` into `sums` and returns
  /// the total non-identity mass, touching no member (construction and
  /// restore; every other update is incremental).
  [[nodiscard]] std::uint64_t derive_row_sums(
      const std::vector<std::uint64_t>& counts,
      std::vector<std::uint64_t>& sums) const;

  /// Number of ordered agent pairs realizing initiator row u: the weight of
  /// row u is c_u * (R_u - [u in S_u]).
  [[nodiscard]] std::uint64_t row_weight(std::size_t row) const;

  /// Samples and applies one non-identity interaction (conditional on the
  /// current step being one); `active` is the precomputed active_weight().
  void apply_active(std::uint64_t active);

  /// Advances by one batch — the geometric run of identity interactions
  /// plus, if it falls inside `budget`, the next census change — and
  /// returns the interactions consumed (always in (0, budget]). A frozen
  /// census (no non-identity mass) consumes the whole budget.
  [[nodiscard]] std::uint64_t advance_batch(std::uint64_t budget);

  /// Count update that maintains the row responder sums R_u and the total
  /// non-identity weight active_weight_.
  void add_count(agent_state state, std::int64_t delta);

  std::uint64_t batches_ = 0;
  /// Initiator states with at least one non-identity pair.
  std::vector<agent_state> active_rows_;
  /// q*q flags: responder_in_row_[u*q + v] iff (u, v) is non-identity.
  std::vector<std::uint8_t> responder_in_row_;
  /// Flags active initiator rows (the states listed in active_rows_).
  std::vector<std::uint8_t> is_active_row_;
  /// For each state w, the initiator rows u with w in S_u.
  std::vector<std::vector<agent_state>> rows_with_responder_;
  /// R_u = sum of counts over S_u, maintained incrementally.
  std::vector<std::uint64_t> row_responder_sum_;
  /// Total weight of non-identity pairs, maintained incrementally by
  /// add_count; the next census change is interaction
  /// Geometric(active_weight_ / (n(n-1))) + 1 from now.
  std::uint64_t active_weight_ = 0;
};

}  // namespace ppg
