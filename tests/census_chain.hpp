// The exact census chain of a population protocol, a test-only oracle (not
// linked into libppg). Agents are anonymous and meet in uniformly random
// ordered pairs, so the census is the state of a Markov chain
// (Chatzigiannakis–Spirakis): from census x an ordered pair of states (u, v)
// meets with probability x_u (x_v - [u = v]) / n(n - 1) under
// pair_sampling::distinct, or x_u x_v / n^2 under with_replacement, where
// one agent drawn twice (mass x_u / n^2 of the (u, u) pair) applies only the
// initiator's update; the pair's kernel outcomes then carry that mass to
// their target censuses. The engines are checked against the law
// finite_chain::evolve(δ_x0, t) of this chain, and the chain itself against
// a literal enumeration of agent pairs (tests/test_pp.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "ppg/markov/chain.hpp"
#include "ppg/pp/census.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/util/error.hpp"

namespace ppg::testing {

/// The censuses reachable from x0, numbered in breadth-first order
/// (censuses[0] == x0), and the one-step chain over them.
struct census_chain {
  std::uint64_t n = 0;
  std::vector<std::vector<std::uint64_t>> censuses;
  std::map<std::vector<std::uint64_t>, std::size_t> index;
  finite_chain chain{1};

  /// The law after t interactions from x0: evolve(δ_x0, t).
  [[nodiscard]] std::vector<double> law_after(std::uint64_t t) const {
    std::vector<double> delta(censuses.size(), 0.0);
    delta[0] = 1.0;
    return chain.evolve(std::move(delta), static_cast<std::size_t>(t));
  }

  /// The law after t interactions of a scalar census statistic:
  /// value -> mass.
  template <typename Statistic>
  [[nodiscard]] std::map<double, double> statistic_law_after(
      std::uint64_t t, const Statistic& statistic) const {
    const std::vector<double> law = law_after(t);
    std::map<double, double> out;
    for (std::size_t i = 0; i < law.size(); ++i) {
      out[statistic(census_view(censuses[i], n))] += law[i];
    }
    return out;
  }
};

/// Builds the chain over the censuses reachable from x0 (states at or past
/// the kernel's q must be empty); throws past `max_censuses`.
inline census_chain build_census_chain(const kernel_table& kernel,
                                       const std::vector<std::uint64_t>& x0,
                                       pair_sampling sampling,
                                       std::size_t max_censuses = 12'500) {
  using counts = std::vector<std::uint64_t>;
  const std::size_t q = kernel.num_states();
  census_chain out;
  for (std::size_t s = 0; s < x0.size(); ++s) {
    PPG_CHECK(s < q || x0[s] == 0, "census outside the kernel's states");
    out.n += x0[s];
  }
  PPG_CHECK(out.n >= 2, "a protocol needs at least two agents");
  const auto n = static_cast<double>(out.n);
  const double pairs =
      sampling == pair_sampling::distinct ? n * (n - 1.0) : n * n;

  const auto visit = [&out, max_censuses](const counts& x) {
    if (out.index.emplace(x, out.censuses.size()).second) {
      PPG_CHECK(out.censuses.size() < max_censuses,
                "census chain exceeds its size cap");
      out.censuses.push_back(x);
    }
  };
  // Row i as (target census, mass) terms; numbered once the breadth-first
  // scan has found every reachable census.
  std::vector<std::vector<std::pair<counts, double>>> rows;
  // Carries `mass` of the pair (u, v) at x through its outcomes; one agent
  // drawn twice moves as the initiator only.
  const auto split = [&](const counts& x, agent_state u, agent_state v,
                         double mass, bool one_agent) {
    for (std::size_t k = 0; k < kernel.num_outcomes(u, v); ++k) {
      const outcome o = kernel.outcome_at(u, v, k);
      counts y = x;
      --y[u];
      ++y[o.initiator];
      if (!one_agent) {
        --y[v];
        ++y[o.responder];
      }
      visit(y);
      rows.back().emplace_back(std::move(y), mass * o.probability);
    }
  };
  visit(x0);
  for (std::size_t i = 0; i < out.censuses.size(); ++i) {
    const counts x = out.censuses[i];
    rows.emplace_back();
    for (agent_state u = 0; u < q; ++u) {
      for (agent_state v = 0; v < q; ++v) {
        const std::uint64_t same = u == v ? 1 : 0;
        if (x[u] == 0 || x[v] == same) continue;
        // Two distinct agents: x_u (x_v - [u = v]) of the ordered pairs.
        split(x, u, v,
              static_cast<double>(x[u]) * static_cast<double>(x[v] - same) /
                  pairs,
              false);
      }
      // with_replacement also draws each of the x_u agents twice.
      if (sampling == pair_sampling::with_replacement && x[u] > 0) {
        split(x, u, u, static_cast<double>(x[u]) / pairs, true);
      }
    }
  }
  out.chain = finite_chain(out.censuses.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (const auto& [y, mass] : rows[i]) {
      out.chain.add_transition(i, out.index.at(y), mass);
    }
  }
  return out;
}

}  // namespace ppg::testing
