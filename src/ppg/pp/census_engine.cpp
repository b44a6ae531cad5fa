#include "ppg/pp/census_engine.hpp"

#include <utility>

namespace ppg {

census_engine::census_engine(std::shared_ptr<const kernel_table> kernel,
                             std::vector<std::uint64_t> initial_counts,
                             rng gen, pair_sampling sampling)
    : census_level_engine(std::move(kernel), std::move(initial_counts), gen),
      sampling_(sampling) {}

void census_engine::run(std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) {
    if (sampling_ == pair_sampling::with_replacement &&
        gen_.next_below(n_) == 0) {
      // A self-interaction (probability 1/n): the ordered pair lands on one
      // agent twice; only the initiator update applies, mirroring the agent
      // engine's self-pair handling.
      const agent_state u =
          locate(counts_, gen_.next_below(n_), no_excluded_state);
      const auto [next_initiator, next_responder] =
          kernel_->sample(u, u, gen_);
      (void)next_responder;
      --counts_[u];
      ++counts_[next_initiator];
      ++interactions_;
      continue;
    }
    // Ordered pair of distinct agents: initiator state u with probability
    // c_u / n, then responder state v with probability (c_v - [v==u]) /
    // (n-1) — the census marginal of a uniform ordered agent pair.
    const agent_state u =
        locate(counts_, gen_.next_below(n_), no_excluded_state);
    const agent_state v = locate(counts_, gen_.next_below(n_ - 1), u);
    const auto [next_initiator, next_responder] = kernel_->sample(u, v, gen_);
    --counts_[u];
    --counts_[v];
    ++counts_[next_initiator];
    ++counts_[next_responder];
    ++interactions_;
  }
}

json census_engine::save_state() const { return save_counts(); }

void census_engine::restore_state(const json& snapshot) {
  commit(check_counts(snapshot));
}

}  // namespace ppg
