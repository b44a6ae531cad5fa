#include "ppg/pp/multibatch_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ppg/util/error.hpp"

namespace ppg {

multibatch_engine::multibatch_engine(
    std::shared_ptr<const kernel_table> kernel,
    std::vector<std::uint64_t> initial_counts, rng gen)
    : census_level_engine(std::move(kernel), std::move(initial_counts), gen),
      birthday_(n_) {
  // birthday_ caps n at 3e9 before it allocates, which also keeps the
  // collision-category weights (t*u etc.) from overflowing: n^2 < 2^63.
  // Beyond its MVH samples (one q-way MVH of all 2J agents on a two-way
  // partner-keyed kernel; otherwise an initiator MVH and a responder MVH,
  // q-way, or C-way when the responders are drawn by class), an aggregate
  // round draws D more: a partner-keyed round one binomial per support
  // point past the first of each partner law (q(q-1) at full support under
  // either discipline); any other round a matching over q categories per
  // general row and C per classed row (rows that ignore their responder
  // draw nothing). Below ~4D interactions those draws cost more than
  // per-pair O(q) sampling, so short runs (small n: the birthday law
  // scales them as ~sqrt(n)) fall back to the sequential path and the
  // engine degrades to census-engine cost. The class-level responder MVH
  // makes a one-way round cheaper by up to q - C hypergeometrics, which D
  // leaves out: the threshold is the same for both responder draws.
  using row_shape = kernel_table::row_shape;
  std::uint64_t draws = 0;
  if (kernel_->partner_keyed()) {
    for (agent_state s = 0; s < kernel_->num_states(); ++s) {
      draws += kernel_->law(s).size - 1;
    }
  } else {
    draws = kernel_->num_states() * kernel_->rows(row_shape::general).size() +
            kernel_->num_responder_classes() *
                kernel_->rows(row_shape::classed).size();
  }
  aggregate_threshold_ = std::max<std::uint64_t>(16, 4 * draws);
  untouched_ = counts_;
  untouched_total_ = n_;
  responders_by_class_ = !kernel_->partner_keyed() &&
                         kernel_->rows(row_shape::general).empty();
  class_responders_.assign(kernel_->num_responder_classes(), 0);

  // Skip batches: the non-identity pairs, by initiator row.
  const std::size_t q = kernel_->num_states();
  responder_in_row_.assign(q * q, 0);
  row_responder_sum_.assign(q, 0);
  row_begin_.assign(1, 0);
  row_complement_.assign(q, 0);
  std::size_t non_identity_pairs = 0;
  for (agent_state u = 0; u < q; ++u) {
    std::size_t row_size = 0;
    for (agent_state v = 0; v < q; ++v) {
      if (kernel_->identity(u, v)) continue;
      ++row_size;
      responder_in_row_[u * q + v] = 1;
    }
    if (row_size > 0) active_rows_.push_back(u);
    non_identity_pairs += row_size;
    row_complement_[u] = 2 * row_size > q ? 1 : 0;
    for (agent_state v = 0; v < q; ++v) {
      if (responder_in_row_[u * q + v] != row_complement_[u]) {
        row_states_.push_back(v);
      }
    }
    row_begin_.push_back(static_cast<std::uint32_t>(row_states_.size()));
  }
  // The cost model (DESIGN.md §8): one round against the skip batches of
  // the same E[J] interactions, which make E[J] * mass / n(n-1) census
  // changes. E[J] is sqrt(pi n / 8) to within 0.2 (summing the birthday
  // table would cost an exp per entry at every construction). The
  // constants are nanoseconds measured on the throughput workloads: a
  // round runs E[J] sequential pairs of 5 + 2.5q plus 500 for its birthday
  // draw and collision, or, when E[J] reaches the aggregate threshold, 200
  // plus 140 per MVH category and per draw of D; a census change costs
  // 60 + 9q (a geometric, two O(q) scans and four count updates). That fit
  // predates re-deriving the mass at each boundary and is kept as it is:
  // a refit would change which mechanism runs (DESIGN.md §8).
  ordered_pairs_ = static_cast<double>(n_) * static_cast<double>(n_ - 1);
  const double mean_run =
      std::sqrt(3.141592653589793 * static_cast<double>(n_) / 8.0);
  const auto states = static_cast<double>(q);
  // The MVH categories a round draws: q for the initiators, or for all 2J
  // agents of a two-way partner-keyed round, plus the responders' q or C.
  std::size_t mvh_categories = q;
  if (!kernel_->partner_keyed() || kernel_->responders_stay()) {
    mvh_categories +=
        responders_by_class_ ? kernel_->num_responder_classes() : q;
  }
  const double round_ns =
      mean_run < static_cast<double>(aggregate_threshold_)
          ? 500.0 + mean_run * (5.0 + 2.5 * states)
          : 200.0 + 140.0 * static_cast<double>(mvh_categories + draws);
  const double change_ns = 60.0 + 9.0 * states;
  const double limit = round_ns * ordered_pairs_ / (mean_run * change_ns);
  if (non_identity_pairs == q * q) {
    // Every census has mass n(n-1): decide once.
    skip_mass_limit_ = limit > ordered_pairs_
                           ? std::numeric_limits<std::uint64_t>::max()
                           : 0;
  } else {
    skip_mass_limit_ = limit >= 0x1p64
                           ? std::numeric_limits<std::uint64_t>::max()
                           : static_cast<std::uint64_t>(limit);
  }
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
  PPG_DCHECK(!responders_unresolved_,
             "multibatch invariant: responders left unresolved by class");
#endif
}

json multibatch_engine::save_state() const {
  json snapshot = save_counts();
  snapshot["untouched"] = json_uint_array(untouched_);
  snapshot["pending_free"] = pending_free_;
  return snapshot;
}

void multibatch_engine::restore_state(const json& snapshot) {
  // Everything is parsed and validated into locals first; the engine is
  // mutated only once the whole snapshot has passed.
  const char* where = "multibatch snapshot";
  auto state = check_counts(snapshot, {"untouched", "pending_free"});
  auto untouched = json_require_uint_array(snapshot, "untouched", where);
  PPG_CHECK(untouched.size() == counts_.size(),
            "multibatch snapshot: state-space width mismatch");
  const std::uint64_t pending_free =
      json_require_uint(snapshot, "pending_free", where);
  // Each entry fits in its count and the counts sum to n, so the sum
  // cannot wrap.
  std::uint64_t untouched_total = 0;
  for (std::size_t s = 0; s < untouched.size(); ++s) {
    PPG_CHECK(untouched[s] <= state.counts[s],
              "multibatch snapshot: untouched pool exceeds the census");
    untouched_total += untouched[s];
  }
  // A round applies at least one free pair before run() can return, so a
  // carry without a touched agent was never written.
  PPG_CHECK(untouched_total < n_ || pending_free == 0,
            "multibatch snapshot: residual carry outside a round");
  PPG_CHECK(pending_free <= untouched_total / 2,
            "multibatch snapshot: residual free run exceeds the untouched "
            "pool");
  commit(std::move(state));
  untouched_ = std::move(untouched);
  untouched_total_ = untouched_total;
  pending_free_ = pending_free;
}

void multibatch_engine::apply_pair_type(agent_state u, agent_state v,
                                        std::uint64_t m) {
  // The m initiators are agents of state u, so removing them first never
  // goes below zero.
  counts_[u] -= m;
  const auto land = [this, u, v](std::size_t k, std::uint64_t count) {
    const outcome o = kernel_->outcome_at(u, v, k);
    counts_[o.initiator] += count;
    counts_[o.responder] += count;
  };
  const std::size_t support = kernel_->num_outcomes(u, v);
  if (support == 1) {
    // Deterministic pair: no draws, mirroring every engine's fast path.
    land(0, m);
  } else {
    // The law of m independent draws of the pair's outcome.
    split_.resize(support);
    sample_multinomial(m, kernel_->probabilities(u, v), support, gen_,
                       split_.data());
    for (std::size_t k = 0; k < support; ++k) {
      if (split_[k] > 0) land(k, split_[k]);
    }
  }
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
  untouched_total_ -= 2 * free;
  // The 2*free agents of a collision-free run are a uniform sample without
  // replacement from the untouched pool.
  if (kernel_->partner_keyed() && !kernel_->responders_stay()) {
    // Every agent of the run moves by the law of its partner's state, and
    // the partners of the 2*free agents are those agents themselves: one
    // MVH of them all is both the census that leaves and the partner
    // census.
    sample_multivariate_hypergeometric(untouched_.data(), width, 2 * free,
                                       gen_, responders_.data());
    for (std::size_t s = 0; s < width; ++s) {
      untouched_[s] -= responders_[s];
      counts_[s] -= responders_[s];
    }
    apply_partner_laws();
    return;
  }
  // Otherwise odd positions (initiators) are a simple random sample, even
  // positions (responders) one from the remainder, and conditioned on both
  // multisets the initiator-responder matching is uniform — realized by
  // splitting the responder multiset across initiator groups with
  // sequential multivariate hypergeometrics.
  sample_multivariate_hypergeometric(untouched_.data(), width, free, gen_,
                                     initiators_.data());
  for (std::size_t s = 0; s < width; ++s) untouched_[s] -= initiators_[s];
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
  if (responders_by_class_) {
    // Every row is one-way, so no responder moves, and the round needs B
    // only by class: the MVH over merged categories is the MVH over their
    // merged totals. untouched_ keeps counting B, by state unknown, until
    // the collision picks from it or run() returns
    // (resolve_responder_states).
    class_pool_.assign(class_responders_.size(), 0);
    for (agent_state v = 0; v < kernel_->num_states(); ++v) {
      class_pool_[kernel_->responder_class(v)] += untouched_[v];
    }
    sample_multivariate_hypergeometric(class_pool_.data(), class_pool_.size(),
                                       free, gen_, class_responders_.data());
    responders_unresolved_ = true;
    class_totals_ = class_responders_;
  } else {
    sample_multivariate_hypergeometric(untouched_.data(), width, free, gen_,
                                       responders_.data());
    for (std::size_t s = 0; s < width; ++s) untouched_[s] -= responders_[s];
    if (kernel_->partner_keyed()) {
      // One-way: only the initiators move, each by the law of its
      // responder's state, whichever responder it met.
      for (std::size_t s = 0; s < width; ++s) counts_[s] -= initiators_[s];
      apply_partner_laws();
      return;
    }
    match(kernel_->rows(row_shape::general), responders_,
          [](std::size_t v) { return static_cast<agent_state>(v); });
    // The remaining responders all meet one-way rows, so none of them
    // moves: having left the untouched pool, each is touched in its own
    // state. The matching is uniform and row order is free, so the classed
    // rows split the remainder's class totals.
    class_totals_.assign(class_responders_.size(), 0);
    for (agent_state v = 0; v < kernel_->num_states(); ++v) {
      class_totals_[kernel_->responder_class(v)] += responders_[v];
    }
  }
  // The classed rows split the class totals, and the rows that ignore
  // their responder take whatever is left without a draw.
  match(kernel_->rows(row_shape::classed), class_totals_,
        [this](std::size_t c) { return kernel_->class_representative(c); });
  for (const agent_state u : kernel_->rows(row_shape::ignores)) {
    if (initiators_[u] > 0) apply_pair_type(u, 0, initiators_[u]);
  }
}

void multibatch_engine::resolve_responder_states() {
  // Within each class, B is a simple random sample of its class total from
  // the class's part of the untouched pool: one MVH per class.
  for (std::size_t c = 0; c < class_responders_.size(); ++c) {
    class_members_.clear();
    member_counts_.clear();
    for (agent_state v = 0; v < kernel_->num_states(); ++v) {
      if (kernel_->responder_class(v) != c) continue;
      class_members_.push_back(v);
      member_counts_.push_back(untouched_[v]);
    }
    sample_multivariate_hypergeometric(member_counts_.data(),
                                       member_counts_.size(),
                                       class_responders_[c], gen_,
                                       row_.data());
    for (std::size_t i = 0; i < class_members_.size(); ++i) {
      untouched_[class_members_[i]] -= row_[i];
    }
  }
  class_responders_.assign(class_responders_.size(), 0);
  responders_unresolved_ = false;
}

void multibatch_engine::apply_partner_laws() {
  // The laws exist for the kernel's states only; a census wider than the
  // kernel holds no agent past them. A multinomial of m = 0, or over one
  // state, draws nothing.
  for (agent_state w = 0; w < kernel_->num_states(); ++w) {
    const kernel_table::partner_law law = kernel_->law(w);
    split_.resize(law.size);
    sample_multinomial_chain(responders_[w], law.chain, law.size, gen_,
                             split_.data());
    for (std::size_t k = 0; k < law.size; ++k) {
      counts_[law.states[k]] += split_[k];
    }
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
  // Both pools are indexed like one census over q states and then C
  // classes. A state entry holds agents of known state; a class entry
  // holds agents known only by class c, each a uniform member of the
  // untouched pool's class c before the run's responders left it — which
  // untouched_ still counts while they are unresolved. The touched pool is
  // the census minus untouched_, plus the unresolved responders by class;
  // the untouched pool is untouched_, or its class totals less those
  // responders.
  const std::size_t width = counts_.size();
  const std::size_t classes = class_responders_.size();
  touched_pool_.resize(width + classes);
  untouched_pool_.resize(width + classes);
  for (std::size_t s = 0; s < width; ++s) {
    touched_pool_[s] = counts_[s] - untouched_[s];
    untouched_pool_[s] = responders_unresolved_ ? 0 : untouched_[s];
  }
  for (std::size_t c = 0; c < classes; ++c) {
    touched_pool_[width + c] = class_responders_[c];
    untouched_pool_[width + c] =
        responders_unresolved_ ? class_pool_[c] - class_responders_[c] : 0;
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
    responder =
        locate(untouched_pool_, gen_.next_below(u_total), no_excluded_state);
  } else {
    initiator =
        locate(untouched_pool_, gen_.next_below(u_total), no_excluded_state);
    responder =
        locate(touched_pool_, gen_.next_below(t_total), no_excluded_state);
  }
  if (initiator >= width) {
    // A member of class c: its state is that of a uniform agent of the
    // class in untouched_.
    const std::size_t c = initiator - width;
    std::uint64_t y = gen_.next_below(class_pool_[c]);
    for (agent_state v = 0;; ++v) {
      if (kernel_->responder_class(v) != c) continue;
      if (y < untouched_[v]) {
        initiator = v;
        break;
      }
      y -= untouched_[v];
    }
  }
  // Every row is one-way here, so the responder stays, and its class fixes
  // the initiator's law: any member stands in for it, with the same draws.
  if (responder >= width) {
    responder = kernel_->class_representative(responder - width);
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
  class_responders_.assign(classes, 0);
  responders_unresolved_ = false;
}

bool multibatch_engine::skips_pay() {
  if (skip_mass_limit_ == 0) return false;
  derive_active_mass();
  return active_weight_ < skip_mass_limit_;
}

void multibatch_engine::derive_active_mass() {
  const std::size_t q = kernel_->num_states();
  std::uint64_t mass = 0;
  for (const agent_state u : active_rows_) {
    std::uint64_t sum = 0;
    for (std::uint32_t i = row_begin_[u]; i < row_begin_[u + 1]; ++i) {
      sum += counts_[row_states_[i]];
    }
    if (row_complement_[u] != 0) sum = n_ - sum;
    row_responder_sum_[u] = sum;
    // c_u = 0 makes the term 0 even when sum - 1 wraps.
    mass += counts_[u] * (sum - responder_in_row_[u * q + u]);
  }
  active_weight_ = mass;
}

void multibatch_engine::apply_active() {
  const std::size_t q = kernel_->num_states();
  std::uint64_t target = gen_.next_below(active_weight_);
  for (const agent_state u : active_rows_) {
    const std::uint64_t row_sum =
        row_responder_sum_[u] - responder_in_row_[u * q + u];
    const std::uint64_t weight = counts_[u] * row_sum;
    if (target >= weight) {
      target -= weight;
      continue;
    }
    // Row u holds the interaction. Decompose target = slot * row_sum + r:
    // the remainder r is uniform over the responder slots of the row and
    // independent of the (discarded) initiator-agent slot.
    std::uint64_t r = target % row_sum;
    for (agent_state v = 0; v < q; ++v) {
      if (responder_in_row_[u * q + v] == 0) continue;
      const std::uint64_t c = counts_[v] - (v == u ? 1u : 0u);
      if (r >= c) {
        r -= c;
        continue;
      }
      const auto [next_initiator, next_responder] = kernel_->sample(u, v, gen_);
      // At a boundary the untouched pool is the census: both move.
      --counts_[u];
      --counts_[v];
      ++counts_[next_initiator];
      ++counts_[next_responder];
      --untouched_[u];
      --untouched_[v];
      ++untouched_[next_initiator];
      ++untouched_[next_responder];
      return;
    }
    break;
  }
  PPG_CHECK(false, "active pair sampling target out of range");
}

std::uint64_t multibatch_engine::skip_batch(std::uint64_t budget) {
  ++skip_batches_;
  if (active_weight_ == 0) {
    // Every reachable interaction is an identity: the census is frozen, so
    // the whole budget elapses without a change.
    interactions_ += budget;
    return budget;
  }
  const double p = static_cast<double>(active_weight_) / ordered_pairs_;
  // Identity interactions before the next census change; memorylessness
  // lets the next batch redraw when this one is cut at the budget.
  const std::uint64_t skip = p >= 1.0 ? 0ull : gen_.next_geometric(p);
  if (skip >= budget) {
    interactions_ += budget;
    return budget;
  }
  interactions_ += skip + 1;
  apply_active();
  return skip + 1;
}

std::uint64_t multibatch_engine::advance_round(std::uint64_t budget) {
  if (!mid_round()) {
    // New round: every agent is untouched, so the birthday law starts
    // from the full pool. J >= 1 and budget > 0, so at least one free pair
    // lands below and the round stays open until its collision.
    pending_free_ = birthday_.sample(gen_);
  }
  // A run truncated by the budget stays lawful: the remainder is carried
  // in pending_free_ and continues in the next call, so no redraw is
  // needed (and the birthday law is not memoryless).
  const std::uint64_t free = std::min(pending_free_, budget);
  if (free > 0) {
    if (free < aggregate_threshold_) {
      apply_free_sequential(free);
    } else {
      apply_free_aggregate(free);
    }
    pending_free_ -= free;
  }
  std::uint64_t used = free;
  if (used < budget) {
    resolve_collision();
    ++collisions_;
    ++used;
  }
  interactions_ += used;
  return used;
}

void multibatch_engine::run(std::uint64_t steps) {
  check_round_invariants();
  std::uint64_t remaining = steps;
  while (remaining > 0) {
    remaining -= !mid_round() && skips_pay() ? skip_batch(remaining)
                                             : advance_round(remaining);
  }
  // The round goes on in the next call, and that call and any snapshot
  // taken before it need the untouched pool by state.
  if (responders_unresolved_) resolve_responder_states();
}

std::uint64_t multibatch_engine::run_until(const census_predicate& converged,
                                           std::uint64_t max_steps) {
  check_round_invariants();
  std::uint64_t executed = 0;
  // Stepping a round singly takes the sequential path (1 < the aggregate
  // threshold), so no responder is ever left held by class here.
  while (executed < max_steps && !converged(census())) {
    executed += !mid_round() && skips_pay() ? skip_batch(max_steps - executed)
                                            : advance_round(1);
  }
  return executed;
}

}  // namespace ppg
