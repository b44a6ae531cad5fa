#include "ppg/pp/multibatch_engine.hpp"

#include <algorithm>
#include <utility>

#include "ppg/util/error.hpp"

namespace ppg {
namespace {

/// The alias/multinomial crossover c of alias_pairs_per_outcome(). An
/// alias draw costs a fixed ~11-15 ns; a conditional binomial takes
/// geometric skips below mean 10 and one BTRS draw (~40-80 ns) above. The
/// per-cell split timings of throughput_micro (support 2 to 64, DESIGN.md
/// §8) put the alias/multinomial time ratio at ~0.5 for 8 pairs per
/// outcome, 0.6-1.1 for 12 and 1.3-2.2 for 16, so the measured crossing is
/// 8-16 at every support. c stays 32 until both branches are re-measured
/// on the kernels that split cells: each branch has a committed workload
/// (logit_q8_1e8 cells take alias draws, hawk_dove_1e8 cells multinomials).
constexpr std::uint64_t alias_crossover = 32;

}  // namespace

std::uint64_t multibatch_engine::alias_pairs_per_outcome() {
  return alias_crossover;
}

multibatch_engine::multibatch_engine(
    std::shared_ptr<const kernel_table> kernel,
    std::vector<std::uint64_t> initial_counts, rng gen)
    : census_level_engine(std::move(kernel), std::move(initial_counts), gen),
      birthday_(n_) {
  // Collision-category weights (t*u etc.) must not overflow: n^2 < 2^63.
  PPG_CHECK(n_ <= 3'000'000'000ull, "multibatch engine caps n at 3e9");
  // An aggregate round's matching draws over q categories per general row
  // and C per classed row (rows that ignore their responder draw nothing);
  // below ~4 times that many interactions those hypergeometrics cost more
  // than per-pair O(q) sampling, so short runs (small n: the birthday law
  // scales them as ~sqrt(n)) fall back to the sequential path and the
  // engine degrades to census-engine cost. With every row general this is
  // 4q^2.
  using row_shape = kernel_table::row_shape;
  const std::uint64_t matching_draws =
      kernel_->num_states() * kernel_->rows(row_shape::general).size() +
      kernel_->num_responder_classes() *
          kernel_->rows(row_shape::classed).size();
  aggregate_threshold_ = std::max<std::uint64_t>(16, 4 * matching_draws);
  untouched_ = counts_;
  touched_.assign(counts_.size(), 0);
  untouched_total_ = n_;
}

void multibatch_engine::check_round_invariants() const {
#ifdef NDEBUG
  // The PPG_DCHECKs below compile out in Release; skip the O(q) sweep too.
  return;
#else
  std::uint64_t untouched_sum = 0;
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    PPG_DCHECK(untouched_[s] + touched_[s] == counts_[s],
               "multibatch invariant: pools must partition the census");
    untouched_sum += untouched_[s];
  }
  PPG_DCHECK(untouched_sum == untouched_total_,
             "multibatch invariant: stale untouched_total");
  PPG_DCHECK(collision_pending_ || pending_free_ == 0,
             "multibatch invariant: residual carry outside a round");
  PPG_DCHECK(collision_pending_ || untouched_total_ == n_,
             "multibatch invariant: touched agents outside a round");
  PPG_DCHECK(2 * pending_free_ <= untouched_total_,
             "multibatch invariant: residual free run exceeds the untouched "
             "pool");
#endif
}

json multibatch_engine::save_state() const {
  json snapshot = save_counts();
  snapshot["untouched"] = json_uint_array(untouched_);
  snapshot["touched"] = json_uint_array(touched_);
  snapshot["untouched_total"] = untouched_total_;
  snapshot["rounds"] = rounds_;
  snapshot["collisions"] = collisions_;
  snapshot["pending_free"] = pending_free_;
  snapshot["collision_pending"] = collision_pending_;
  return snapshot;
}

void multibatch_engine::restore_state(const json& snapshot) {
  // Everything is parsed and validated into locals first; the engine is
  // mutated only once the whole snapshot has passed.
  const char* where = "multibatch snapshot";
  auto state = check_counts(
      snapshot, {"untouched", "touched", "untouched_total", "rounds",
                 "collisions", "pending_free", "collision_pending"});
  auto untouched = json_require_uint_array(snapshot, "untouched", where);
  auto touched = json_require_uint_array(snapshot, "touched", where);
  const std::size_t width = counts_.size();
  PPG_CHECK(untouched.size() == width && touched.size() == width,
            "multibatch snapshot: state-space width mismatch");
  const std::uint64_t untouched_total =
      json_require_uint(snapshot, "untouched_total", where);
  const std::uint64_t rounds = json_require_uint(snapshot, "rounds", where);
  const std::uint64_t collisions =
      json_require_uint(snapshot, "collisions", where);
  const std::uint64_t pending_free =
      json_require_uint(snapshot, "pending_free", where);
  const bool collision_pending =
      json_require_bool(snapshot, "collision_pending", where);
  std::uint64_t untouched_sum = 0;
  for (std::size_t s = 0; s < width; ++s) {
    PPG_CHECK(touched[s] <= state.counts[s] &&
                  untouched[s] == state.counts[s] - touched[s],
              "multibatch snapshot: pools do not partition the census");
    untouched_sum += untouched[s];
  }
  PPG_CHECK(untouched_sum == untouched_total,
            "multibatch snapshot: untouched_total disagrees with the pool");
  PPG_CHECK(collision_pending || pending_free == 0,
            "multibatch snapshot: residual carry outside a round");
  PPG_CHECK(collision_pending || untouched_total == n_,
            "multibatch snapshot: touched agents outside a round");
  PPG_CHECK(pending_free <= untouched_total / 2,
            "multibatch snapshot: residual free run exceeds the untouched "
            "pool");
  commit(std::move(state));
  untouched_ = std::move(untouched);
  touched_ = std::move(touched);
  untouched_total_ = untouched_total;
  pending_free_ = pending_free;
  collision_pending_ = collision_pending;
  rounds_ = rounds;
  collisions_ = collisions;
}

template <class Add>
void multibatch_engine::split_pairs(agent_state u, agent_state v,
                                    std::uint64_t m, Add&& add) {
  const std::size_t support = kernel_->num_outcomes(u, v);
  if (support == 1) {
    // Deterministic pair: no draws, mirroring every engine's fast path.
    const outcome o = kernel_->outcome_at(u, v, 0);
    add(o.initiator, o.responder, m);
    return;
  }
  if (m <= alias_crossover * support) {
    for (std::uint64_t i = 0; i < m; ++i) {
      const auto [next_initiator, next_responder] =
          kernel_->sample(u, v, gen_);
      add(next_initiator, next_responder, 1);
    }
    return;
  }
  split_.resize(support);
  sample_multinomial(m, kernel_->probabilities(u, v), support, gen_,
                     split_.data());
  for (std::size_t k = 0; k < support; ++k) {
    if (split_[k] == 0) continue;
    const outcome o = kernel_->outcome_at(u, v, k);
    add(o.initiator, o.responder, split_[k]);
  }
}

void multibatch_engine::apply_pair_type(agent_state u, agent_state v,
                                        std::uint64_t m) {
  // The run's initiators and responders are untouched agents, so these
  // removals never exceed the census, whatever outcomes were added first.
  counts_[u] -= m;
  counts_[v] -= m;
  split_pairs(u, v, m,
              [this](agent_state initiator, agent_state responder,
                     std::uint64_t k) {
                counts_[initiator] += k;
                counts_[responder] += k;
                touched_[initiator] += k;
                touched_[responder] += k;
              });
}

void multibatch_engine::apply_initiator_split(agent_state u, agent_state v,
                                              std::uint64_t m) {
  counts_[u] -= m;
  split_pairs(u, v, m,
              [this](agent_state initiator, agent_state /*responder*/,
                     std::uint64_t k) {
                counts_[initiator] += k;
                touched_[initiator] += k;
              });
}

void multibatch_engine::apply_free_aggregate(std::uint64_t free) {
  using row_shape = kernel_table::row_shape;
  const std::size_t width = counts_.size();
  initiators_.resize(width);
  responders_.resize(width);
  row_.resize(width);
  // The 2*free agents of a collision-free run are a uniform sample without
  // replacement from the untouched pool; odd positions (initiators) are a
  // simple random sample, even positions (responders) one from the
  // remainder, and conditioned on both multisets the initiator-responder
  // matching is uniform — realized by splitting the responder multiset
  // across initiator groups with sequential multivariate hypergeometrics.
  sample_multivariate_hypergeometric(untouched_.data(), width, free, gen_,
                                     initiators_.data());
  for (std::size_t s = 0; s < width; ++s) untouched_[s] -= initiators_[s];
  sample_multivariate_hypergeometric(untouched_.data(), width, free, gen_,
                                     responders_.data());
  for (std::size_t s = 0; s < width; ++s) untouched_[s] -= responders_[s];
  untouched_total_ -= 2 * free;
  for (const agent_state u : kernel_->rows(row_shape::general)) {
    if (initiators_[u] == 0) continue;
    sample_multivariate_hypergeometric(responders_.data(), width,
                                       initiators_[u], gen_, row_.data());
    for (std::size_t v = 0; v < width; ++v) {
      responders_[v] -= row_[v];
      if (row_[v] > 0) {
        apply_pair_type(u, static_cast<agent_state>(v), row_[v]);
      }
    }
  }
  // The remaining responders all meet one-way rows, so none of them moves.
  // The matching is uniform and row order is free, so the classed rows
  // split the remainder's class totals — the MVH over merged categories is
  // the MVH over their merged totals — and the rows that ignore their
  // responder take whatever is left without a draw.
  const auto& classed = kernel_->rows(row_shape::classed);
  if (!classed.empty()) {
    const std::size_t classes = kernel_->num_responder_classes();
    class_totals_.assign(classes, 0);
    for (agent_state v = 0; v < kernel_->num_states(); ++v) {
      class_totals_[kernel_->responder_class(v)] += responders_[v];
    }
    for (const agent_state u : classed) {
      if (initiators_[u] == 0) continue;
      sample_multivariate_hypergeometric(class_totals_.data(), classes,
                                         initiators_[u], gen_, row_.data());
      for (std::size_t c = 0; c < classes; ++c) {
        class_totals_[c] -= row_[c];
        if (row_[c] > 0) {
          apply_initiator_split(u, kernel_->class_representative(c),
                                row_[c]);
        }
      }
    }
  }
  for (const agent_state u : kernel_->rows(row_shape::ignores)) {
    if (initiators_[u] > 0) apply_initiator_split(u, 0, initiators_[u]);
  }
  for (std::size_t v = 0; v < width; ++v) touched_[v] += responders_[v];
}

void multibatch_engine::apply_free_sequential(std::uint64_t free) {
  for (std::uint64_t i = 0; i < free; ++i) {
    const agent_state u = locate(untouched_, gen_.next_below(untouched_total_),
                                 no_excluded_state);
    const agent_state v =
        locate(untouched_, gen_.next_below(untouched_total_ - 1), u);
    const auto [next_initiator, next_responder] = kernel_->sample(u, v, gen_);
    --untouched_[u];
    --untouched_[v];
    untouched_total_ -= 2;
    ++touched_[next_initiator];
    ++touched_[next_responder];
    --counts_[u];
    --counts_[v];
    ++counts_[next_initiator];
    ++counts_[next_responder];
  }
}

void multibatch_engine::resolve_collision() {
  const std::uint64_t u_total = untouched_total_;
  const std::uint64_t t_total = n_ - u_total;
  // An ordered pair of distinct agents conditioned on >= 1 touched agent:
  // categories touched-touched, touched-untouched, untouched-touched with
  // weights t(t-1), t*u, u*t (their sum is n(n-1) - u(u-1)).
  const std::uint64_t tt = t_total * (t_total - 1);
  const std::uint64_t tu = t_total * u_total;
  std::uint64_t x = gen_.next_below(tt + 2 * tu);
  agent_state initiator;
  agent_state responder;
  bool initiator_touched;
  bool responder_touched;
  if (x < tt) {
    initiator = locate(touched_, gen_.next_below(t_total), no_excluded_state);
    responder = locate(touched_, gen_.next_below(t_total - 1), initiator);
    initiator_touched = responder_touched = true;
  } else if (x < tt + tu) {
    initiator = locate(touched_, gen_.next_below(t_total), no_excluded_state);
    responder = locate(untouched_, gen_.next_below(u_total), no_excluded_state);
    initiator_touched = true;
    responder_touched = false;
  } else {
    initiator = locate(untouched_, gen_.next_below(u_total), no_excluded_state);
    responder = locate(touched_, gen_.next_below(t_total), no_excluded_state);
    initiator_touched = false;
    responder_touched = true;
  }
  const auto [next_initiator, next_responder] =
      kernel_->sample(initiator, responder, gen_);
  --(initiator_touched ? touched_ : untouched_)[initiator];
  --(responder_touched ? touched_ : untouched_)[responder];
  untouched_total_ -=
      (initiator_touched ? 0u : 1u) + (responder_touched ? 0u : 1u);
  ++touched_[next_initiator];
  ++touched_[next_responder];
  --counts_[initiator];
  --counts_[responder];
  ++counts_[next_initiator];
  ++counts_[next_responder];
}

void multibatch_engine::merge_touched() {
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    untouched_[s] += touched_[s];
    touched_[s] = 0;
  }
  untouched_total_ = n_;
}

void multibatch_engine::run(std::uint64_t steps) {
  check_round_invariants();
  std::uint64_t remaining = steps;
  while (remaining > 0) {
    if (!collision_pending_) {
      // New round: every agent is untouched (merge_touched ran), so the
      // birthday law starts from the full pool.
      pending_free_ = birthday_.sample(gen_);
      collision_pending_ = true;
      ++rounds_;
    }
    if (pending_free_ > 0) {
      // A run truncated by the step budget stays lawful: the remainder is
      // carried in pending_free_ and continues in the next call, so no
      // redraw is needed (and the birthday law is not memoryless).
      const std::uint64_t free = std::min(pending_free_, remaining);
      if (free < aggregate_threshold_) {
        apply_free_sequential(free);
      } else {
        apply_free_aggregate(free);
      }
      pending_free_ -= free;
      remaining -= free;
      interactions_ += free;
    }
    if (remaining == 0) break;
    resolve_collision();
    ++collisions_;
    ++interactions_;
    --remaining;
    collision_pending_ = false;
    merge_touched();
  }
}

}  // namespace ppg
