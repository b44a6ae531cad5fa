#include "ppg/pp/batched_engine.hpp"

#include <utility>

#include "ppg/util/error.hpp"

namespace ppg {

batched_engine::batched_engine(std::shared_ptr<const kernel_table> kernel,
                               std::vector<std::uint64_t> initial_counts,
                               rng gen)
    : census_level_engine(std::move(kernel), std::move(initial_counts), gen) {
  // c_u * c_v must not overflow: n^2 < 2^63 keeps every weight and the
  // non-identity mass (at most n(n-1) total) in range.
  PPG_CHECK(n_ <= 3'000'000'000ull, "batched engine caps n at 3e9");
  const std::size_t q = kernel_->num_states();
  responder_in_row_.assign(q * q, 0);
  is_active_row_.assign(q, 0);
  rows_with_responder_.assign(q, {});
  for (agent_state u = 0; u < q; ++u) {
    bool row_active = false;
    for (agent_state v = 0; v < q; ++v) {
      if (kernel_->identity(u, v)) continue;
      row_active = true;
      responder_in_row_[u * q + v] = 1;
      rows_with_responder_[v].push_back(u);
    }
    if (row_active) {
      active_rows_.push_back(u);
      is_active_row_[u] = 1;
    }
  }
  active_weight_ = derive_row_sums(counts_, row_responder_sum_);
}

std::uint64_t batched_engine::derive_row_sums(
    const std::vector<std::uint64_t>& counts,
    std::vector<std::uint64_t>& sums) const {
  const std::size_t q = kernel_->num_states();
  sums.assign(q, 0);
  for (agent_state u = 0; u < q; ++u) {
    for (agent_state v = 0; v < q; ++v) {
      if (responder_in_row_[u * q + v] != 0) {
        sums[u] += counts[v];
      }
    }
  }
  std::uint64_t mass = 0;
  for (const auto u : active_rows_) {
    const std::uint64_t self = responder_in_row_[u * q + u];
    mass += counts[u] * (sums[u] - self);
  }
  return mass;
}

json batched_engine::save_state() const {
  json snapshot = save_counts();
  snapshot["batches"] = batches_;
  snapshot["active_weight"] = active_weight_;
  return snapshot;
}

void batched_engine::restore_state(const json& snapshot) {
  const char* where = "batched snapshot";
  auto state = check_counts(snapshot, {"batches", "active_weight"});
  std::vector<std::uint64_t> sums;
  const std::uint64_t mass = derive_row_sums(state.counts, sums);
  PPG_CHECK(json_require_uint(snapshot, "active_weight", where) == mass,
            "batched snapshot: stored non-identity mass disagrees with the "
            "census (corrupt checkpoint)");
  const std::uint64_t batches = json_require_uint(snapshot, "batches", where);
  commit(std::move(state));
  row_responder_sum_ = std::move(sums);
  active_weight_ = mass;
  batches_ = batches;
}

std::uint64_t batched_engine::row_weight(std::size_t row) const {
  const std::size_t q = kernel_->num_states();
  const std::uint64_t self = responder_in_row_[row * q + row];
  return counts_[row] * (row_responder_sum_[row] - self);
}

void batched_engine::add_count(agent_state state, std::int64_t delta) {
  // Single-pass incremental update of the total weight: expanding the row
  // products c_u * (R_u - s_u) around the count change gives
  //   d(active) = delta * [ (R_state - s_state)           (row rescales)
  //                       + sum_{u : state in S_u} c_u ]  (R_u shifts)
  // where the first term reads R_state *before* its own shift and the sum
  // reads c_u *after* the count update (so the u == state cross term uses
  // the new count). One extra accumulate inside the loop the responder
  // sums already needed, one multiply at the end — no per-batch re-sum
  // over active_rows_.
  const std::size_t q = kernel_->num_states();
  std::int64_t scaled = 0;
  if (is_active_row_[state] != 0) {
    scaled = static_cast<std::int64_t>(row_responder_sum_[state] -
                                       responder_in_row_[state * q + state]);
  }
  counts_[state] = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(counts_[state]) + delta);
  for (const auto u : rows_with_responder_[state]) {
    row_responder_sum_[u] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(row_responder_sum_[u]) + delta);
    scaled += static_cast<std::int64_t>(counts_[u]);
  }
  active_weight_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(active_weight_) + delta * scaled);
}

void batched_engine::apply_active(std::uint64_t active) {
  const std::size_t q = kernel_->num_states();
  std::uint64_t target = gen_.next_below(active);
  for (const auto u : active_rows_) {
    const std::uint64_t w = row_weight(u);
    if (target >= w) {
      target -= w;
      continue;
    }
    // Row u holds the interaction. Decompose target = slot * row_sum + r:
    // the remainder r is uniform over the responder slots of the row and
    // independent of the (discarded) initiator-agent slot.
    const std::uint64_t self = responder_in_row_[u * q + u];
    const std::uint64_t row_sum = row_responder_sum_[u] - self;
    std::uint64_t r = target % row_sum;
    for (agent_state v = 0; v < q; ++v) {
      if (!responder_in_row_[u * q + v]) continue;
      const std::uint64_t c = counts_[v] - (v == u ? 1u : 0u);
      if (r >= c) {
        r -= c;
        continue;
      }
      const auto [next_initiator, next_responder] = kernel_->sample(u, v, gen_);
      add_count(u, -1);
      add_count(v, -1);
      add_count(next_initiator, 1);
      add_count(next_responder, 1);
      return;
    }
    break;
  }
  PPG_CHECK(false, "active pair sampling target out of range");
}

std::uint64_t batched_engine::advance_batch(std::uint64_t budget) {
  ++batches_;
  const std::uint64_t active = active_weight_;
  if (active == 0) {
    // Every reachable interaction is an identity: the census is frozen, so
    // the whole budget elapses without a change.
    interactions_ += budget;
    return budget;
  }
  const double total = static_cast<double>(n_) * static_cast<double>(n_ - 1);
  const double p = static_cast<double>(active) / total;
  // Identity interactions before the next census change; geometric
  // memorylessness lets us redraw when a previous batch was truncated at a
  // step budget.
  const std::uint64_t skip = p >= 1.0 ? 0ull : gen_.next_geometric(p);
  if (skip >= budget) {
    interactions_ += budget;
    return budget;
  }
  interactions_ += skip + 1;
  apply_active(active);
  return skip + 1;
}

void batched_engine::run(std::uint64_t steps) {
  std::uint64_t remaining = steps;
  while (remaining > 0) {
    remaining -= advance_batch(remaining);
  }
}

std::uint64_t batched_engine::run_until(const census_predicate& converged,
                                        std::uint64_t max_steps) {
  std::uint64_t executed = 0;
  // The census is unchanged across the skipped identity interactions, so
  // checking the predicate once per batch is exact.
  while (executed < max_steps) {
    if (converged(census())) return executed;
    executed += advance_batch(max_steps - executed);
  }
  return executed;
}

}  // namespace ppg
