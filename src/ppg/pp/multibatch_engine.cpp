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
/// on the kernels that still split cells: partner-keyed rounds split none,
/// so no perfbench workload reaches either branch, and of the committed
/// kernels only proportional imitation does (support 2 one-way, <= 4
/// two-way).
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
  // Beyond its two MVH samples, an aggregate round draws D more: a
  // partner-keyed round one binomial per support point past the first of
  // each partner law (q(q-1), or 2q(q-1) two-way, at full support); any
  // other round a matching over q categories per general row and C per
  // classed row (rows that ignore their responder draw nothing). Below ~4D
  // interactions those draws cost more than per-pair O(q) sampling, so
  // short runs (small n: the birthday law scales them as ~sqrt(n)) fall
  // back to the sequential path and the engine degrades to census-engine
  // cost.
  std::uint64_t draws = 0;
  if (kernel_->partner_keyed()) {
    for (agent_state s = 0; s < kernel_->num_states(); ++s) {
      draws += kernel_->initiator_law(s).size - 1;
      if (!kernel_->responders_stay()) {
        draws += kernel_->responder_law(s).size - 1;
      }
    }
  } else {
    using row_shape = kernel_table::row_shape;
    draws = kernel_->num_states() * kernel_->rows(row_shape::general).size() +
            kernel_->num_responder_classes() *
                kernel_->rows(row_shape::classed).size();
  }
  aggregate_threshold_ = std::max<std::uint64_t>(16, 4 * draws);
  untouched_ = counts_;
  untouched_total_ = n_;
}

void multibatch_engine::check_round_invariants() const {
#ifdef NDEBUG
  // The PPG_DCHECKs below compile out in Release; skip the O(q) sweep too.
  return;
#else
  std::uint64_t untouched_sum = 0;
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    PPG_DCHECK(untouched_[s] <= counts_[s],
               "multibatch invariant: untouched pool exceeds the census");
    untouched_sum += untouched_[s];
  }
  PPG_DCHECK(untouched_sum == untouched_total_,
             "multibatch invariant: stale untouched_total");
  PPG_DCHECK(mid_round() || pending_free_ == 0,
             "multibatch invariant: residual carry outside a round");
  PPG_DCHECK(2 * pending_free_ <= untouched_total_,
             "multibatch invariant: residual free run exceeds the untouched "
             "pool");
#endif
}

json multibatch_engine::save_state() const {
  json snapshot = save_counts();
  snapshot["untouched"] = json_uint_array(untouched_);
  std::vector<std::uint64_t> touched(counts_.size());
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    touched[s] = counts_[s] - untouched_[s];
  }
  snapshot["touched"] = json_uint_array(touched);
  snapshot["untouched_total"] = untouched_total_;
  snapshot["rounds"] = rounds_;
  snapshot["collisions"] = collisions_;
  snapshot["pending_free"] = pending_free_;
  snapshot["collision_pending"] = mid_round();
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
  // With the check above: collision_pending == (untouched_total < n). A
  // round applies at least one free pair before run() can return, so a
  // round in progress always has touched agents.
  PPG_CHECK(!collision_pending || untouched_total < n_,
            "multibatch snapshot: round in progress without touched agents");
  PPG_CHECK(pending_free <= untouched_total / 2,
            "multibatch snapshot: residual free run exceeds the untouched "
            "pool");
  commit(std::move(state));
  untouched_ = std::move(untouched);
  untouched_total_ = untouched_total;
  pending_free_ = pending_free;
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
  // The m initiators are agents of state u, so removing them first never
  // goes below zero.
  counts_[u] -= m;
  split_pairs(u, v, m,
              [this](agent_state initiator, agent_state responder,
                     std::uint64_t k) {
                counts_[initiator] += k;
                counts_[responder] += k;
              });
  // The responders leave after the outcomes land. On a general row they
  // are agents of state v. A classed or ignoring row passes its class
  // representative as v, and every outcome puts the responder back in v,
  // so the adds above returned m to counts_[v] and it ends where it
  // started, whatever states the responders hold.
  counts_[v] -= m;
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
  if (kernel_->partner_keyed()) {
    apply_partner_keyed();
    return;
  }
  // Each row's initiators draw their partners from the responders still
  // unmatched, by one MVH over `pool`; partner(j) is the state whose
  // outcome law category j's pairs take.
  const auto match = [this](const std::vector<agent_state>& rows,
                            std::vector<std::uint64_t>& pool,
                            const auto& partner) {
    for (const agent_state u : rows) {
      if (initiators_[u] == 0) continue;
      sample_multivariate_hypergeometric(pool.data(), pool.size(),
                                         initiators_[u], gen_, row_.data());
      for (std::size_t j = 0; j < pool.size(); ++j) {
        pool[j] -= row_[j];
        if (row_[j] > 0) apply_pair_type(u, partner(j), row_[j]);
      }
    }
  };
  match(kernel_->rows(row_shape::general), responders_,
        [](std::size_t v) { return static_cast<agent_state>(v); });
  // The remaining responders all meet one-way rows, so none of them moves:
  // having left the untouched pool, each is touched in its own state. The
  // matching is uniform and row order is free, so the classed rows split
  // the remainder's class totals — the MVH over merged categories is the
  // MVH over their merged totals — and the rows that ignore their
  // responder take whatever is left without a draw.
  const auto& classed = kernel_->rows(row_shape::classed);
  if (!classed.empty()) {
    class_totals_.assign(kernel_->num_responder_classes(), 0);
    for (agent_state v = 0; v < kernel_->num_states(); ++v) {
      class_totals_[kernel_->responder_class(v)] += responders_[v];
    }
    match(classed, class_totals_, [this](std::size_t c) {
      return kernel_->class_representative(c);
    });
  }
  for (const agent_state u : kernel_->rows(row_shape::ignores)) {
    if (initiators_[u] > 0) apply_pair_type(u, 0, initiators_[u]);
  }
}

void multibatch_engine::apply_partner_keyed() {
  // Which initiator met which responder cannot change the census: the
  // initiators facing responders in state v leave by B_v draws of
  // f(.|v), and the responders facing initiators in state u by A_u draws
  // of g(.|u), whatever the matching.
  const std::size_t width = counts_.size();
  const bool responders_stay = kernel_->responders_stay();
  // A multinomial of m = 0, or over one state, draws nothing.
  const auto add = [this](std::uint64_t m, kernel_table::partner_law law) {
    split_.resize(law.size);
    sample_multinomial(m, law.probabilities, law.size, gen_, split_.data());
    for (std::size_t k = 0; k < law.size; ++k) {
      counts_[law.states[k]] += split_[k];
    }
  };
  for (std::size_t s = 0; s < width; ++s) {
    counts_[s] -= initiators_[s] + (responders_stay ? 0 : responders_[s]);
  }
  for (agent_state v = 0; v < width; ++v) {
    add(responders_[v], kernel_->initiator_law(v));
  }
  if (responders_stay) return;
  for (agent_state u = 0; u < width; ++u) {
    add(initiators_[u], kernel_->responder_law(u));
  }
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
    --counts_[u];
    --counts_[v];
    ++counts_[next_initiator];
    ++counts_[next_responder];
  }
}

void multibatch_engine::resolve_collision() {
  // The touched pool is every agent the round has drawn: the census minus
  // the untouched pool.
  touched_pool_.resize(counts_.size());
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    touched_pool_[s] = counts_[s] - untouched_[s];
  }
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
  if (x < tt) {
    initiator =
        locate(touched_pool_, gen_.next_below(t_total), no_excluded_state);
    responder = locate(touched_pool_, gen_.next_below(t_total - 1), initiator);
  } else if (x < tt + tu) {
    initiator =
        locate(touched_pool_, gen_.next_below(t_total), no_excluded_state);
    responder = locate(untouched_, gen_.next_below(u_total), no_excluded_state);
  } else {
    initiator = locate(untouched_, gen_.next_below(u_total), no_excluded_state);
    responder =
        locate(touched_pool_, gen_.next_below(t_total), no_excluded_state);
  }
  const auto [next_initiator, next_responder] =
      kernel_->sample(initiator, responder, gen_);
  --counts_[initiator];
  --counts_[responder];
  ++counts_[next_initiator];
  ++counts_[next_responder];
  // The round ends: every agent rejoins the untouched pool.
  untouched_ = counts_;
  untouched_total_ = n_;
}

void multibatch_engine::run(std::uint64_t steps) {
  check_round_invariants();
  std::uint64_t remaining = steps;
  while (remaining > 0) {
    if (!mid_round()) {
      // New round: every agent is untouched, so the birthday law starts
      // from the full pool. J >= 1 and remaining > 0, so at least one
      // free pair lands below and the round stays open until its
      // collision.
      pending_free_ = birthday_.sample(gen_);
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
  }
}

}  // namespace ppg
