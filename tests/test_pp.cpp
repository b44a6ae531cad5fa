// Tests for the population-protocol core: the census view, and the exact
// census chain (tests/census_chain.hpp) that the engines are checked
// against — pinned here to the literal scheduler, which enumerates ordered
// agent pairs, and to the paper's k-IGT count chain, equation (5).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "census_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/core/population_config.hpp"
#include "ppg/ehrenfest/exact_chain.hpp"
#include "ppg/ehrenfest/simplex.hpp"
#include "ppg/games/game_matrix.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/census.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/pp/protocols/approximate_majority.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

TEST(CensusView, ViewsCounts) {
  const std::vector<std::uint64_t> counts = {1, 2, 3};
  const census_view view(counts, 6);
  EXPECT_EQ(view.population_size(), 6u);
  EXPECT_EQ(view.num_state_kinds(), 3u);
  EXPECT_EQ(view.count(2), 3u);
  EXPECT_DOUBLE_EQ(view.fraction(1), 1.0 / 3.0);
  EXPECT_EQ(view.fractions(), (std::vector<double>{1.0 / 6.0, 2.0 / 6.0, 0.5}));
  EXPECT_THROW((void)view.count(3), invariant_error);
}

// A deterministic toy protocol: the responder takes the larger state.
class max_protocol final : public protocol {
 public:
  [[nodiscard]] std::size_t num_states() const override { return 4; }
  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state initiator, agent_state responder) const override {
    return {{initiator, std::max(initiator, responder), 1.0}};
  }
};

TEST(Protocol, DefaultStateNames) {
  const max_protocol proto;
  EXPECT_EQ(proto.state_name(2), "s2");
}

// The literal scheduler's one-step law from census x: lay the agents out,
// enumerate every ordered agent pair (i, j) — i != j under distinct, all
// n^2 under with_replacement — and apply each kernel outcome to the
// layout, the responder's update only when j != i.
std::map<std::vector<std::uint64_t>, double> literal_row(
    const kernel_table& kernel, const std::vector<std::uint64_t>& x,
    pair_sampling sampling) {
  std::vector<agent_state> agents;
  for (std::size_t s = 0; s < x.size(); ++s) {
    agents.insert(agents.end(), x[s], static_cast<agent_state>(s));
  }
  const std::size_t n = agents.size();
  const bool distinct = sampling == pair_sampling::distinct;
  const double pairs = static_cast<double>(distinct ? n * (n - 1) : n * n);
  std::map<std::vector<std::uint64_t>, double> row;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (distinct && i == j) continue;
      for (std::size_t k = 0; k < kernel.num_outcomes(agents[i], agents[j]);
           ++k) {
        const outcome o = kernel.outcome_at(agents[i], agents[j], k);
        std::vector<agent_state> next = agents;
        next[i] = o.initiator;
        if (j != i) next[j] = o.responder;
        std::vector<std::uint64_t> y(x.size(), 0);
        for (const agent_state s : next) ++y[s];
        row[y] += o.probability / pairs;
      }
    }
  }
  return row;
}

TEST(CensusChain, RowsMatchTheLiteralSchedulerEntrywise) {
  // Approximate majority moves only the responder, deterministically; the
  // two-way logit RPS kernel moves both agents of a pair, over 9 outcomes,
  // so under with_replacement its self-pairs must drop the responder's
  // update.
  const approximate_majority_protocol majority;
  const game_protocol logit(rock_paper_scissors_matrix(),
                            std::make_shared<logit_response_rule>(0.7),
                            revision_discipline::two_way);
  for (const protocol* proto :
       std::initializer_list<const protocol*>{&majority, &logit}) {
    const kernel_table kernel(*proto);
    const std::size_t q = kernel.num_states();
    for (const auto sampling :
         {pair_sampling::distinct, pair_sampling::with_replacement}) {
      for (std::uint64_t n = 2; n <= 6; ++n) {
        const simplex_index every(q, n);
        auto x = every.first();
        do {
          const auto chain = testing::build_census_chain(kernel, x, sampling);
          ASSERT_EQ(chain.censuses.front(), x);
          auto expected = literal_row(kernel, x, sampling);
          for (const auto& t : chain.chain.row(0)) {
            const auto& y = chain.censuses[t.target];
            const auto it = expected.find(y);
            ASSERT_NE(it, expected.end()) << "an oracle transition the "
                                             "literal scheduler never makes";
            EXPECT_NEAR(t.probability, it->second, 1e-15);
            expected.erase(it);
          }
          EXPECT_TRUE(expected.empty())
              << expected.size() << " literal transitions missing";
        } while (every.next(x));
      }
    }
  }
}

std::string describe(const std::vector<std::uint64_t>& z) {
  std::string out = "(";
  for (std::size_t j = 0; j < z.size(); ++j) {
    out += (j == 0 ? "" : ", ") + std::to_string(z[j]);
  }
  return out + ")";
}

// Which term of equation (5) carries the GTFT levels from z to w.
std::string equation5_term(const std::vector<std::uint64_t>& z,
                           const std::vector<std::uint64_t>& w) {
  for (std::size_t j = 0; j + 1 < z.size(); ++j) {
    if (w[j] + 1 == z[j] && w[j + 1] == z[j + 1] + 1) {
      return "up-move from level " + std::to_string(j) +
             " (a GTFT initiator meets a non-AD responder)";
    }
    if (w[j] == z[j] + 1 && w[j + 1] + 1 == z[j + 1]) {
      return "down-move from level " + std::to_string(j + 1) +
             " (a GTFT initiator meets an AD responder)";
    }
  }
  return "holding mass (identity pairs, and moves capped at levels 0 and "
         "k - 1)";
}

// The k-IGT census chain, built from the kernel the engines run
// (igt_ladder_rule on the IGT game, one-way) and projected onto the GTFT
// levels — AC and AD agents never move, so the reachable censuses are in
// bijection with the level simplex — against the count chain of
// equation (5), build_ehrenfest_chain(igt_ehrenfest_params(pop, k)). The
// paper's probabilities are those of the with-replacement scheduler: a
// GTFT agent drawn twice meets a non-AD responder (itself) and moves up,
// which equation (5) counts in 1 - beta. Returns the largest entrywise gap.
double equation5_gap(const abg_population& pop, std::size_t k,
                     pair_sampling sampling, double tolerance) {
  const game_protocol proto(igt_game_matrix(k),
                            std::make_shared<igt_ladder_rule>(k));
  const kernel_table kernel(proto);
  const auto chain = testing::build_census_chain(
      kernel, make_igt_census(pop, k, 0), sampling);
  const simplex_index levels(k, pop.num_gtft);
  EXPECT_EQ(chain.censuses.size(), levels.size());
  const finite_chain ehrenfest =
      build_ehrenfest_chain(igt_ehrenfest_params(pop, k), levels);
  double gap = 0.0;
  for (std::size_t i = 0; i < chain.censuses.size(); ++i) {
    const auto z =
        gtft_level_counts(census_view(chain.censuses[i], pop.n()), k);
    std::map<std::size_t, double> row;
    for (const auto& t : chain.chain.row(i)) {
      row[levels.rank(gtft_level_counts(
          census_view(chain.censuses[t.target], pop.n()), k))] +=
          t.probability;
    }
    for (const auto& t : ehrenfest.row(levels.rank(z))) {
      row[t.target] -= t.probability;
    }
    for (const auto& [target, difference] : row) {
      gap = std::max(gap, std::abs(difference));
      EXPECT_LE(std::abs(difference), tolerance)
          << "equation (5)'s " << equation5_term(z, levels.unrank(target))
          << " differs at z = " << describe(z);
    }
  }
  return gap;
}

TEST(CensusChain, IgtLevelsFollowEquation5Exactly) {
  const abg_population pops[] = {{2, 3, 7}, {1, 1, 10}, {4, 2, 6}, {3, 5, 4}};
  for (const auto& pop : pops) {
    for (const std::size_t k : {2u, 3u, 4u}) {
      SCOPED_TRACE("(ac, ad, gtft) = (" + std::to_string(pop.num_ac) + ", " +
                   std::to_string(pop.num_ad) + ", " +
                   std::to_string(pop.num_gtft) + "), k = " +
                   std::to_string(k));
      (void)equation5_gap(pop, k, pair_sampling::with_replacement, 1e-15);
      // Distinct pairs change an up- or down-move of the x_j GTFT agents at
      // level j by x_j n_AD / n^2 (n - 1), largest at x_j = m: the gap is
      // gamma beta / (n - 1), the O(1/n) of DESIGN.md §4.
      const double n = static_cast<double>(pop.n());
      const double bound = pop.gamma() * pop.beta() / (n - 1.0);
      const double gap =
          equation5_gap(pop, k, pair_sampling::distinct, bound + 1e-15);
      EXPECT_NEAR(gap, bound, 1e-15);
      std::cout << "  distinct vs equation (5): (" << pop.num_ac << ", "
                << pop.num_ad << ", " << pop.num_gtft << "), k = " << k
                << ": largest entrywise gap " << gap << " (bound "
                << bound << ")\n";
    }
  }
}

}  // namespace
}  // namespace ppg
