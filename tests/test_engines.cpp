// Engine equivalence suite: the agent, census, and multibatch engines
// execute the same interaction law for a given (protocol, initial
// census, sampling) triple. Pinned here via (a) exact agreement of the
// compiled kernel with outcome_distribution, (b) bitwise agent-engine/
// legacy-simulation agreement under shared seeds, (c) two-sample
// chi-square cross-checks of replica statistics at a fixed parallel time
// for IGT, approximate majority, rumor, and leader election, and (d)
// agreement of census-engine stationary statistics with igt_count_chain
// (equation (5)) and the Theorem 2.7 closed form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "engine_agreement.hpp"
#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/solver/zoo.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/census_engine.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/pp/multibatch_engine.hpp"
#include "ppg/pp/protocols/approximate_majority.hpp"
#include "ppg/pp/protocols/leader_election.hpp"
#include "ppg/pp/protocols/rumor.hpp"
#include "ppg/stats/chi_square.hpp"
#include "ppg/stats/distributions.hpp"
#include "ppg/stats/empirical.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

TEST(Kernel, IgtKernelSamplesItsOutcomeDistribution) {
  rng gen(1);
  for (const auto discipline :
       {revision_discipline::one_way, revision_discipline::two_way}) {
    const igt_protocol proto(5, discipline);
    const kernel_table kernel(proto);
    for (agent_state i = 0; i < proto.num_states(); ++i) {
      for (agent_state r = 0; r < proto.num_states(); ++r) {
        EXPECT_TRUE(kernel.deterministic(i, r));
        const auto dist = proto.outcome_distribution(i, r);
        ASSERT_EQ(dist.size(), 1u);
        const auto before = gen.save();
        const auto sampled = kernel.sample(i, r, gen);
        EXPECT_EQ(gen.save(), before) << "a deterministic pair drew";
        EXPECT_EQ(dist[0].initiator, sampled.first);
        EXPECT_EQ(dist[0].responder, sampled.second);
        EXPECT_EQ(kernel.identity(i, r), sampled == std::make_pair(i, r));
      }
    }
  }
}

class bad_sum_protocol final : public protocol {
 public:
  [[nodiscard]] std::size_t num_states() const override { return 2; }
  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state initiator, agent_state responder) const override {
    return {{initiator, responder, 0.7}};  // sums to 0.7
  }
};

TEST(Kernel, ContractViolationsAreRejected) {
  EXPECT_THROW(kernel_table{bad_sum_protocol{}}, invariant_error);
}

// One fixed outcome list for every ordered pair.
class listed_protocol final : public protocol {
 public:
  explicit listed_protocol(std::vector<outcome> outcomes)
      : outcomes_(std::move(outcomes)) {}
  [[nodiscard]] std::size_t num_states() const override { return 8; }
  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state /*initiator*/, agent_state /*responder*/) const override {
    return outcomes_;
  }

 private:
  std::vector<outcome> outcomes_;
};

// The pair's alias table: slot thresholds lie in [0, 1], the slot masses
// reconstruct every outcome_at probability, and 2e5 draws of sample (every
// engine's per-pair draw) fit those probabilities (outcomes of the tested
// pairs are distinct state pairs, so a draw identifies its outcome).
void expect_alias_law(const kernel_table& kernel, agent_state u,
                      agent_state v, std::uint64_t seed) {
  const std::size_t support = kernel.num_outcomes(u, v);
  const double slot_mass = 1.0 / static_cast<double>(support);
  std::vector<double> mass(support, 0.0);
  for (std::size_t s = 0; s < support; ++s) {
    const auto slot = kernel.alias_at(u, v, s);
    EXPECT_GE(slot.threshold, 0.0) << "slot " << s;
    EXPECT_LE(slot.threshold, 1.0) << "slot " << s;
    ASSERT_LT(slot.alias, support) << "slot " << s;
    mass[s] += slot.threshold * slot_mass;
    mass[slot.alias] += (1.0 - slot.threshold) * slot_mass;
  }
  std::vector<double> probs(support);
  std::map<std::pair<agent_state, agent_state>, std::size_t> index_of;
  for (std::size_t k = 0; k < support; ++k) {
    const outcome o = kernel.outcome_at(u, v, k);
    probs[k] = o.probability;
    EXPECT_NEAR(mass[k], probs[k], 1e-12) << "outcome " << k;
    ASSERT_TRUE(index_of.emplace(std::make_pair(o.initiator, o.responder), k)
                    .second);
  }
  rng gen(seed);
  std::vector<std::uint64_t> observed(support, 0);
  constexpr int draws = 200'000;
  for (int i = 0; i < draws; ++i) {
    ++observed[index_of.at(kernel.sample(u, v, gen))];
  }
  EXPECT_GT(chi_square_gof(observed, probs).p_value, 1e-4);
}

TEST(Kernel, SampleDrawsTheKernelLawFromItsAliasTable) {
  const kernel_table three(
      listed_protocol({{0, 1, 0.5}, {1, 1, 0.3}, {2, 0, 0.2}}));
  expect_alias_law(three, 0, 0, 11);
  // A near-1e-6 outcome: the table is built from the pair's own
  // probabilities, so the tiny one survives to 1e-12.
  const kernel_table five(listed_protocol({{0, 0, 0.4},
                                           {0, 1, 1.2e-6},
                                           {1, 0, 0.3},
                                           {1, 1, 0.2 - 1.2e-6},
                                           {2, 2, 0.1}}));
  expect_alias_law(five, 3, 4, 12);
  // A dense two-way logit cell: all 64 (initiator', responder') outcomes.
  const game_protocol logit(random_zoo_game(1, 8, 0).game,
                            std::make_shared<logit_response_rule>(0.5),
                            revision_discipline::two_way);
  const kernel_table dense(logit);
  ASSERT_EQ(dense.num_outcomes(2, 5), 64u);
  expect_alias_law(dense, 2, 5, 13);
}

TEST(Kernel, MultiOutcomeSampleTakesOneWord) {
  // A second word is drawn only on a Lemire rejection, probability
  // support / 2^64 per draw.
  const kernel_table three(
      listed_protocol({{0, 1, 0.5}, {1, 1, 0.3}, {2, 0, 0.2}}));
  rng gen(21);
  for (int i = 0; i < 1000; ++i) {
    rng advanced = gen;
    (void)advanced();
    (void)three.sample(5, 6, gen);
    ASSERT_EQ(gen.save(), advanced.save()) << "draw " << i;
  }
}

// A one-way logit game whose strategies 1 and 2 earn the same payoffs
// against every opponent: responders 1 and 2 induce the same initiator
// law, so C = 2 < q = 3 and every (random) row is classed.
game_protocol duplicated_column_logit() {
  return game_protocol(
      game_matrix({"a", "b", "c"}, {1.0, 0.0, 0.0,  //
                                    2.0, 3.0, 3.0,  //
                                    0.0, 1.0, 1.0}),
      std::make_shared<logit_response_rule>(1.0));
}

std::uint64_t threshold_of(std::shared_ptr<const kernel_table> kernel) {
  std::vector<std::uint64_t> counts(kernel->num_states(), 10);
  return multibatch_engine(std::move(kernel), std::move(counts), rng(1))
      .aggregate_threshold();
}

TEST(Kernel, ResponderClassesCompile) {
  using row_shape = kernel_table::row_shape;
  using rows = std::vector<agent_state>;
  for (const std::size_t k : {3u, 8u}) {
    const auto kernel =
        std::make_shared<const kernel_table>(igt_protocol(k));
    const std::size_t q = kernel->num_states();
    EXPECT_EQ(kernel->rows(row_shape::ignores),
              (rows{igt_encoding::ac, igt_encoding::ad}));
    rows gtft;
    for (std::size_t level = 0; level < k; ++level) {
      gtft.push_back(igt_encoding::gtft(level));
    }
    EXPECT_EQ(kernel->rows(row_shape::classed), gtft);
    EXPECT_TRUE(kernel->rows(row_shape::general).empty());
    // {AC, g_1..g_k} | {AD}, numbered by smallest member.
    ASSERT_EQ(kernel->num_responder_classes(), 2u);
    EXPECT_EQ(kernel->class_representative(0), igt_encoding::ac);
    EXPECT_EQ(kernel->class_representative(1), igt_encoding::ad);
    for (agent_state v = 0; v < q; ++v) {
      EXPECT_EQ(kernel->responder_class(v), v == igt_encoding::ad ? 1u : 0u);
    }
    // The matching draws over C = 2 classes for each of the k GTFT rows.
    EXPECT_EQ(threshold_of(kernel), std::max<std::uint64_t>(16, 8 * k));
  }

  const game_protocol one_way_hawk_dove(
      hawk_dove_matrix(1.0, 3.0), std::make_shared<logit_response_rule>(0.5));
  const game_protocol two_way_logit(random_zoo_game(1, 8, 0).game,
                                    std::make_shared<logit_response_rule>(0.5),
                                    revision_discipline::two_way);
  const game_protocol one_way_rps(
      rock_paper_scissors_matrix(),
      std::make_shared<proportional_imitation_rule>(0.8));
  // The threshold is 4D for D the draws past the MVH samples: a q x q
  // matching for RPS, and the q(q-1) binomials of the partner laws for the
  // partner-keyed logit kernels (q = 2 one-way, q = 8 two-way), which
  // draw one law per partner state under either discipline.
  const std::pair<const protocol*, std::uint64_t> all_general[] = {
      {&one_way_hawk_dove, 16}, {&two_way_logit, 4 * 8 * 7},
      {&one_way_rps, 4 * 3 * 3}};
  for (const auto& [proto, threshold] : all_general) {
    const auto kernel = std::make_shared<const kernel_table>(*proto);
    const std::uint64_t q = kernel->num_states();
    EXPECT_EQ(kernel->rows(row_shape::general).size(), q);
    EXPECT_EQ(threshold_of(kernel), threshold);
  }

  const auto duplicated =
      std::make_shared<const kernel_table>(duplicated_column_logit());
  EXPECT_EQ(duplicated->rows(row_shape::classed).size(), 3u);
  ASSERT_EQ(duplicated->num_responder_classes(), 2u);
  EXPECT_EQ(duplicated->responder_class(0), 0u);
  EXPECT_EQ(duplicated->responder_class(1), 1u);
  EXPECT_EQ(duplicated->responder_class(2), 1u);
  EXPECT_EQ(duplicated->class_representative(1), 1u);
  EXPECT_EQ(threshold_of(duplicated), 4u * 3u * 2u);

  // Identity rows ignore their responder: rumor's susceptible initiator,
  // approximate majority's blank one.
  const kernel_table rumor{rumor_protocol{}};
  EXPECT_EQ(rumor.rows(row_shape::ignores),
            rows{rumor_protocol::state_susceptible});
  EXPECT_EQ(rumor.rows(row_shape::general),
            rows{rumor_protocol::state_informed});
  using amp = approximate_majority_protocol;
  const auto majority = std::make_shared<const kernel_table>(amp{});
  EXPECT_EQ(majority->rows(row_shape::ignores), rows{amp::state_blank});
  EXPECT_EQ(majority->rows(row_shape::general),
            (rows{amp::state_x, amp::state_y}));
  EXPECT_EQ(threshold_of(majority), 4u * 3u * 2u);
}

// Each pair's outcome law is the product of an initiator law keyed on the
// responder and a responder law keyed on the initiator, as listed below;
// the kernel is partner-keyed only when the two lists are one law.
// Pair (1, 1) can be spoiled: `bend` moves mass from its products'
// anti-diagonal points to its diagonal ones, which keeps both of its
// marginals, and `drop` omits its point (1, 1).
class product_protocol final : public protocol {
 public:
  using law = std::vector<double>;
  product_protocol(std::vector<law> initiator, std::vector<law> responder,
                   double bend = 0.0, bool drop = false)
      : initiator_(std::move(initiator)),
        responder_(std::move(responder)),
        bend_(bend),
        drop_(drop) {}
  [[nodiscard]] std::size_t num_states() const override {
    return initiator_.size();
  }
  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state u, agent_state v) const override {
    std::vector<outcome> dist;
    const std::size_t q = num_states();
    for (agent_state x = 0; x < q; ++x) {
      for (agent_state y = 0; y < q; ++y) {
        double p = initiator_[v][x] * responder_[u][y];
        if (u == 1 && v == 1) {
          p += x == y ? bend_ : -bend_;
          if (drop_ && x == 1 && y == 1) continue;
        }
        if (p > 0.0) dist.push_back({x, y, p});
      }
    }
    return dist;
  }

 private:
  std::vector<law> initiator_;
  std::vector<law> responder_;
  double bend_;
  bool drop_;
};

// A one-way kernel: the initiator draws from laws[responder] over the
// states listed there, the responder stays.
class one_way_protocol final : public protocol {
 public:
  explicit one_way_protocol(std::vector<std::vector<double>> laws)
      : laws_(std::move(laws)) {}
  [[nodiscard]] std::size_t num_states() const override {
    return laws_.size();
  }
  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state /*initiator*/, agent_state v) const override {
    std::vector<outcome> dist;
    for (agent_state x = 0; x < laws_[v].size(); ++x) {
      if (laws_[v][x] > 0.0) dist.push_back({x, v, laws_[v][x]});
    }
    return dist;
  }

 private:
  std::vector<std::vector<double>> laws_;
};

// The stored law equals `expected` on its support, in state order.
void expect_partner_law(kernel_table::partner_law law,
                        const std::vector<double>& expected,
                        const std::string& where) {
  std::size_t k = 0;
  for (agent_state x = 0; x < expected.size(); ++x) {
    if (expected[x] <= 0.0) continue;
    ASSERT_LT(k, law.size) << where;
    EXPECT_EQ(law.states[k], x) << where;
    EXPECT_NEAR(law.probabilities[k], expected[x], 1e-15) << where;
    ++k;
  }
  EXPECT_EQ(k, law.size) << where;
}

TEST(Kernel, PartnerKeyedCompiles) {
  const auto logit = std::make_shared<logit_response_rule>(0.5);
  const auto hawk_dove = hawk_dove_matrix(1.0, 3.0);
  const auto zoo = random_zoo_game(1, 8, 0).game;
  struct keyed_case {
    std::string label;
    game_protocol proto;
    std::shared_ptr<const update_rule> rule;
    game_matrix game;
  };
  const keyed_case keyed[] = {
      {"one-way hawk-dove", game_protocol(hawk_dove, logit), logit,
       hawk_dove},
      {"one-way duplicated column", duplicated_column_logit(),
       std::make_shared<logit_response_rule>(1.0),
       duplicated_column_logit().game()},
      {"two-way hawk-dove",
       game_protocol(hawk_dove, logit, revision_discipline::two_way), logit,
       hawk_dove},
      {"two-way q = 8",
       game_protocol(zoo, logit, revision_discipline::two_way), logit, zoo},
  };
  for (const auto& c : keyed) {
    const kernel_table kernel(c.proto);
    ASSERT_TRUE(kernel.partner_keyed()) << c.label;
    const bool one_way = c.proto.discipline() == revision_discipline::one_way;
    EXPECT_EQ(kernel.responders_stay(), one_way) << c.label;
    for (agent_state s = 0; s < kernel.num_states(); ++s) {
      // Logit ignores its own strategy, so `self` is arbitrary.
      expect_partner_law(kernel.law(s), c.rule->revise(c.game, 0, s),
                         c.label + " f(.|" + std::to_string(s) + ")");
    }
  }

  const game_protocol igt_two_way(igt_game_matrix(3),
                                  std::make_shared<igt_ladder_rule>(3),
                                  revision_discipline::two_way);
  const game_protocol proportional(
      rock_paper_scissors_matrix(),
      std::make_shared<proportional_imitation_rule>(0.8));
  const game_protocol imitate(hawk_dove,
                              std::make_shared<imitate_if_better_rule>());
  const igt_protocol igt(8);
  const rumor_protocol rumor;
  const approximate_majority_protocol majority;
  const leader_election_protocol leader;
  for (const protocol* proto : std::initializer_list<const protocol*>{
           &igt, &igt_two_way, &proportional, &imitate, &rumor, &majority,
           &leader}) {
    EXPECT_FALSE(kernel_table(*proto).partner_keyed())
        << proto->num_states() << "-state kernel";
  }

  // Crafted two-way products of one law: detected as they stand; rejected
  // once pair (1, 1) is off the product by 1e-9 at each point of a 2 x 2
  // block (its marginals unchanged, so only the product test sees it).
  const std::vector<std::vector<double>> f = {{0.3, 0.7}, {0.6, 0.4}};
  EXPECT_TRUE(kernel_table(product_protocol(f, f)).partner_keyed());
  EXPECT_FALSE(kernel_table(product_protocol(f, f, 1e-9)).partner_keyed());
  // Products whose responders move by another law than their initiators:
  // a different law, or the same one with 1e-9 moved between two points.
  const std::vector<std::vector<double>> g = {{0.2, 0.8}, {0.9, 0.1}};
  EXPECT_FALSE(kernel_table(product_protocol(f, g)).partner_keyed());
  const std::vector<std::vector<double>> nudged = {{0.3 + 1e-9, 0.7 - 1e-9},
                                                   {0.6, 0.4}};
  EXPECT_FALSE(kernel_table(product_protocol(f, nudged)).partner_keyed());
  // A product point of mass 1e-10 missing from pair (1, 1) (the kernel's
  // own check allows 1e-9 of missing mass).
  const std::vector<std::vector<double>> thin = {{0.3, 0.7},
                                                 {1.0 - 1e-5, 1e-5}};
  EXPECT_TRUE(kernel_table(product_protocol(thin, thin)).partner_keyed());
  EXPECT_FALSE(
      kernel_table(product_protocol(thin, thin, 0.0, true)).partner_keyed());
  EXPECT_TRUE(kernel_table(one_way_protocol(thin)).partner_keyed());
  // One-way, a point of mass 5e-10 missing from every pair of responder 1:
  // the marginals agree, but f(.|1) covers only 1 - 5e-10.
  const kernel_table short_mass(one_way_protocol({{0.3, 0.7}, {1.0 - 5e-10}}));
  EXPECT_FALSE(short_mass.partner_keyed());
  // The partner-keyed test judged the raw masses above; the stored laws
  // are normalized, so every pair's probabilities() sum to 1.
  for (agent_state u = 0; u < 2; ++u) {
    for (agent_state v = 0; v < 2; ++v) {
      const double* p = short_mass.probabilities(u, v);
      EXPECT_NEAR(std::accumulate(p, p + short_mass.num_outcomes(u, v), 0.0),
                  1.0, 1e-15)
          << "pair (" << u << ", " << v << ")";
    }
  }
}

TEST(Engines, MultibatchRequiresDistinctSampling) {
  const rumor_protocol proto;
  const sim_spec spec(proto, std::vector<std::uint64_t>{3, 1},
                      pair_sampling::with_replacement);
  rng gen(5);
  EXPECT_THROW((void)spec.make_engine(engine_kind::multibatch, gen),
               invariant_error);
  EXPECT_NO_THROW((void)spec.make_engine(engine_kind::census, gen));
}

TEST(Engines, MultibatchCapsNAt3e9) {
  // make_engine rejects n above 3e9; the birthday sampler's constructor
  // checks it before it reserves its O(sqrt(n)) table.
  const rumor_protocol proto;
  const sim_spec spec(
      proto, std::vector<std::uint64_t>{1'500'000'000, 1'500'000'001});
  rng gen(5);
  EXPECT_THROW((void)spec.make_engine(engine_kind::multibatch, gen),
               invariant_error);
}

TEST(Engines, AgentEngineGroupsItsCensusByAscendingState) {
  // The agent engine lays a census out as agents grouped by ascending
  // state; its draws pick agents by index, so this layout fixes every
  // agent-engine trajectory.
  const approximate_majority_protocol proto;
  const sim_spec spec(proto, std::vector<std::uint64_t>{2, 0, 3});
  rng gen(7);
  const auto engine = spec.make_engine(engine_kind::agent, gen);
  const auto& agent = dynamic_cast<const simulation&>(*engine);
  EXPECT_EQ(agent.agents().states(), (std::vector<agent_state>{0, 0, 2, 2, 2}));
  EXPECT_EQ(agent.census().counts(), spec.initial_counts());
}

TEST(Engines, MakeEngineRejectsAKernelOfAnotherProtocol) {
  // A precompiled kernel must come from the spec's protocol; make_engine
  // checks the state-space size for every census-level kind.
  const rumor_protocol proto;
  const sim_spec spec(proto, std::vector<std::uint64_t>{3, 1, 0});
  const auto foreign =
      std::make_shared<const kernel_table>(approximate_majority_protocol{});
  ASSERT_NE(foreign->num_states(), proto.num_states());
  rng gen(6);
  for (const auto kind : {engine_kind::census, engine_kind::multibatch}) {
    try {
      (void)spec.make_engine(kind, gen, foreign);
      ADD_FAILURE() << engine_kind_name(kind) << " accepted a foreign kernel";
    } catch (const invariant_error& e) {
      EXPECT_NE(std::string(e.what()).find("kernel does not match"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Engines, AgreeOnIgtAtFixedParallelTime) {
  const std::size_t k = 4;
  const auto pop = abg_population::from_fractions(240, 0.1, 0.25, 0.65);
  const igt_protocol proto(k);
  const sim_spec spec(proto, make_igt_census(pop, k, 0));
  const std::uint64_t steps = 40 * pop.n();  // parallel time 40
  const auto statistic = [&](const census_view& census) {
    const auto z = gtft_level_counts(census, k);
    double level_mass = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      level_mass += static_cast<double>(j) * static_cast<double>(z[j]);
    }
    return level_mass;
  };
  constexpr std::size_t replicas = 300;
  const auto agent = testing::replica_statistics(
      spec, engine_kind::agent, replicas, steps, 90, statistic);
  const auto census = testing::replica_statistics(
      spec, engine_kind::census, replicas, steps, 91, statistic);
  const auto multibatch = testing::replica_statistics(
      spec, engine_kind::multibatch, replicas, steps, 292, statistic);
  EXPECT_GT(testing::two_sample_p(agent, census, 8), 1e-4);
  EXPECT_GT(testing::two_sample_p(agent, multibatch, 8), 1e-4);
}

TEST(Engines, AgreeOnApproximateMajorityAtFixedParallelTime) {
  using amp = approximate_majority_protocol;
  const amp proto;
  std::vector<std::uint64_t> counts(3, 0);
  counts[amp::state_x] = 60;
  counts[amp::state_y] = 40;
  counts[amp::state_blank] = 20;
  const sim_spec spec(proto, counts);
  const std::uint64_t steps = 2 * 120;  // parallel time 2: mid-dynamics
  const auto statistic = [](const census_view& census) {
    return static_cast<double>(census.count(amp::state_x)) -
           static_cast<double>(census.count(amp::state_y));
  };
  constexpr std::size_t replicas = 300;
  const auto agent = testing::replica_statistics(
      spec, engine_kind::agent, replicas, steps, 93, statistic);
  const auto census = testing::replica_statistics(
      spec, engine_kind::census, replicas, steps, 94, statistic);
  const auto multibatch = testing::replica_statistics(
      spec, engine_kind::multibatch, replicas, steps, 295, statistic);
  EXPECT_GT(testing::two_sample_p(agent, census, 8), 1e-4);
  EXPECT_GT(testing::two_sample_p(agent, multibatch, 8), 1e-4);
}

TEST(Engines, AgreeOnRumorAtFixedParallelTime) {
  const rumor_protocol proto;
  std::vector<std::uint64_t> counts(2, 0);
  counts[rumor_protocol::state_susceptible] = 149;
  counts[rumor_protocol::state_informed] = 1;
  const sim_spec spec(proto, counts);
  const std::uint64_t steps = 3 * 150;  // parallel time 3: mid-spread
  const auto statistic = [](const census_view& census) {
    return static_cast<double>(census.count(rumor_protocol::state_informed));
  };
  constexpr std::size_t replicas = 300;
  const auto agent = testing::replica_statistics(
      spec, engine_kind::agent, replicas, steps, 96, statistic);
  const auto census = testing::replica_statistics(
      spec, engine_kind::census, replicas, steps, 97, statistic);
  const auto multibatch = testing::replica_statistics(
      spec, engine_kind::multibatch, replicas, steps, 298, statistic);
  EXPECT_GT(testing::two_sample_p(agent, census, 8), 1e-4);
  EXPECT_GT(testing::two_sample_p(agent, multibatch, 8), 1e-4);
}

TEST(Engines, AgreeOnLeaderElectionAtFixedParallelTime) {
  const leader_election_protocol proto;
  std::vector<std::uint64_t> counts(2, 0);
  counts[leader_election_protocol::state_leader] = 150;
  const sim_spec spec(proto, counts);
  const std::uint64_t steps = 2 * 150;  // parallel time 2: mid-election
  const auto statistic = [](const census_view& census) {
    return static_cast<double>(
        census.count(leader_election_protocol::state_leader));
  };
  constexpr std::size_t replicas = 300;
  const auto agent = testing::replica_statistics(
      spec, engine_kind::agent, replicas, steps, 110, statistic);
  const auto census = testing::replica_statistics(
      spec, engine_kind::census, replicas, steps, 111, statistic);
  const auto multibatch = testing::replica_statistics(
      spec, engine_kind::multibatch, replicas, steps, 312, statistic);
  EXPECT_GT(testing::two_sample_p(agent, census, 8), 1e-4);
  EXPECT_GT(testing::two_sample_p(agent, multibatch, 8), 1e-4);
}

TEST(Engines, MultibatchMixesSkipBatchesAndRoundsLawfully) {
  // Rumor from one informed agent at n = 20,000. For i informed agents the
  // non-identity mass is i(n - i) / n(n - 1): below ~0.15, skip batches
  // cost less than a round of ~89 pairs, so one trajectory starts in skip
  // batches, switches to aggregate rounds as the rumor spreads, and back
  // to skip batches near the end. At parallel time 10 (~ln n, mid-spread)
  // 160 of the 200 compared runs have taken both (the rest have not yet
  // reached ~18% informed), and the census must follow the census
  // engine's law.
  const rumor_protocol proto;
  constexpr std::uint64_t n = 20'000;
  const sim_spec spec(proto, std::vector<std::uint64_t>{n - 1, 1});
  const std::uint64_t steps = 10 * n;
  const auto informed = [](const census_view& census) {
    return static_cast<double>(census.count(rumor_protocol::state_informed));
  };
  constexpr std::size_t replicas = 200;
  const auto census = testing::replica_statistics(
      spec, engine_kind::census, replicas, steps, 120, informed);
  std::vector<double> multibatch;
  std::size_t mixed = 0;
  for (std::size_t r = 0; r < replicas; ++r) {
    rng gen = make_stream_rng(121, r);
    const auto engine = spec.make_engine(engine_kind::multibatch, gen);
    engine->run(steps);
    const auto& mb = dynamic_cast<const multibatch_engine&>(*engine);
    if (mb.rounds() > 0 && mb.skip_batches() > 0) ++mixed;
    multibatch.push_back(informed(engine->census()));
  }
  EXPECT_GT(mixed, replicas * 3 / 4);
  EXPECT_GT(testing::two_sample_p(census, multibatch, 8), 1e-4);
}

TEST(Engines, ChiSquareCrossCheckDetectsDifferentLaws) {
  // Negative control for the helper: the same engine at different parallel
  // times follows different laws, which the test statistic must flag.
  const rumor_protocol proto;
  std::vector<std::uint64_t> counts(2, 0);
  counts[rumor_protocol::state_susceptible] = 149;
  counts[rumor_protocol::state_informed] = 1;
  const sim_spec spec(proto, counts);
  const auto statistic = [](const census_view& census) {
    return static_cast<double>(census.count(rumor_protocol::state_informed));
  };
  const auto early = testing::replica_statistics(
      spec, engine_kind::census, 300, 150, 99, statistic);
  const auto late = testing::replica_statistics(
      spec, engine_kind::census, 300, 3 * 150, 100, statistic);
  EXPECT_LT(testing::two_sample_p(early, late, 8), 1e-6);
}

TEST(Engines, CensusEngineMatchesCountChainStationary) {
  // Equation (5): with idealized (with-replacement) sampling, the level
  // census of the census engine and igt_count_chain follow the same chain,
  // whose stationary law is the Theorem 2.7 closed form.
  const std::size_t k = 5;
  const auto pop = abg_population::from_fractions(200, 0.1, 0.25, 0.65);
  const igt_protocol proto(k);
  const sim_spec spec(proto, make_igt_census(pop, k, 0),
                      pair_sampling::with_replacement);
  const auto burn =
      static_cast<std::uint64_t>(igt_mixing_upper_bound(pop, k));
  const std::uint64_t samples = 300'000;
  const auto m = static_cast<double>(pop.num_gtft);

  rng gen(101);
  const auto engine = spec.make_engine(engine_kind::census, gen);
  engine->run(burn);
  std::vector<double> from_engine(k, 0.0);
  for (std::uint64_t i = 0; i < samples; ++i) {
    engine->step();
    const auto z = gtft_level_counts(engine->census(), k);
    for (std::size_t j = 0; j < k; ++j) {
      from_engine[j] += static_cast<double>(z[j]);
    }
  }
  for (auto& x : from_engine) x /= static_cast<double>(samples) * m;

  igt_count_chain chain(pop, k, 0);
  rng chain_gen(102);
  chain.run(burn, chain_gen);
  std::vector<double> from_chain(k, 0.0);
  for (std::uint64_t i = 0; i < samples; ++i) {
    chain.step(chain_gen);
    const auto& z = chain.counts();
    for (std::size_t j = 0; j < k; ++j) {
      from_chain[j] += static_cast<double>(z[j]);
    }
  }
  for (auto& x : from_chain) x /= static_cast<double>(samples) * m;

  const auto closed_form = igt_stationary_probs(pop, k);
  EXPECT_LT(total_variation(from_engine, closed_form), 0.03);
  EXPECT_LT(total_variation(from_chain, closed_form), 0.03);
  EXPECT_LT(total_variation(from_engine, from_chain), 0.05);
}

TEST(Engines, CensusEngineRunsHundredMillionAgents) {
  // The acceptance-scale configuration: n = 10^8 with no per-agent array.
  const std::size_t k = 8;
  const igt_protocol proto(k);
  std::vector<std::uint64_t> counts(2 + k, 0);
  counts[igt_encoding::ac] = 10'000'000;
  counts[igt_encoding::ad] = 20'000'000;
  counts[igt_encoding::gtft(0)] = 70'000'000;
  const sim_spec spec(proto, counts);
  EXPECT_EQ(spec.population_size(), 100'000'000u);
  rng gen(103);
  const auto engine = spec.make_engine(engine_kind::census, gen);
  engine->run(100'000);
  EXPECT_EQ(engine->interactions(), 100'000u);
  std::uint64_t total = 0;
  for (const auto c : engine->census().counts()) total += c;
  EXPECT_EQ(total, 100'000'000u);
}

TEST(Engines, MultibatchSkipsIdentityInteractionsAtScale) {
  // Dilute GTFT population at n = 10^8: ~99.9% of interactions are
  // identities, so skip batches cost less than rounds and the engine never
  // samples those interactions individually.
  const std::size_t k = 8;
  const igt_protocol proto(k);
  std::vector<std::uint64_t> counts(2 + k, 0);
  counts[igt_encoding::ac] = 79'900'000;
  counts[igt_encoding::ad] = 20'000'000;
  counts[igt_encoding::gtft(0)] = 100'000;
  const sim_spec spec(proto, counts);
  rng gen(104);
  const auto engine = spec.make_engine(engine_kind::multibatch, gen);
  engine->run(10'000'000);
  EXPECT_EQ(engine->interactions(), 10'000'000u);
  std::uint64_t total = 0;
  for (const auto c : engine->census().counts()) total += c;
  EXPECT_EQ(total, 100'000'000u);
  const auto& mb = dynamic_cast<const multibatch_engine&>(*engine);
  EXPECT_EQ(mb.rounds(), 0u);
  EXPECT_GT(mb.skip_batches(), 0u);
  // One batch per census change: ~8 per 10^4 interactions here.
  EXPECT_LT(mb.skip_batches(), 10'000'000u / 100);
}

TEST(Engines, MultibatchAggregatesDenseKernelsAtScale) {
  // Dense GTFT population at n = 10^8: most interactions change the
  // census, so skip batches would make one census change per few
  // interactions and the engine advances in ~sqrt(n)-sized aggregated
  // rounds instead. The census is one state wider than the kernel (the
  // extra state stays empty): the classed GTFT rows' class totals must
  // read only the kernel's states.
  const std::size_t k = 8;
  const igt_protocol proto(k);
  std::vector<std::uint64_t> counts(2 + k + 1, 0);
  counts[igt_encoding::ac] = 10'000'000;
  counts[igt_encoding::ad] = 20'000'000;
  counts[igt_encoding::gtft(0)] = 70'000'000;
  const sim_spec spec(proto, counts);
  rng gen(108);
  const auto engine = spec.make_engine(engine_kind::multibatch, gen);
  engine->run(10'000'000);
  EXPECT_EQ(engine->interactions(), 10'000'000u);
  std::uint64_t total = 0;
  for (const auto c : engine->census().counts()) total += c;
  EXPECT_EQ(total, 100'000'000u);
  const auto* multibatch =
      dynamic_cast<const multibatch_engine*>(engine.get());
  ASSERT_NE(multibatch, nullptr);
  // ~sqrt(n)-interaction rounds: the work metric is thousands of times
  // below the interaction count (the bound is loose on purpose).
  EXPECT_LT(multibatch->rounds() + multibatch->collisions(), 100'000u);
}

TEST(Engines, MultibatchPartnerKeyedRoundsReadOnlyTheKernelsStates) {
  // Two-way logit hawk-dove is partner-keyed, and its laws exist for the
  // kernel's two states only; the census is one state wider (it stays
  // empty), so a round must not look up a law for the extra state.
  const game_protocol proto(hawk_dove_matrix(1.0, 3.0),
                            std::make_shared<logit_response_rule>(0.5),
                            revision_discipline::two_way);
  ASSERT_TRUE(kernel_table(proto).partner_keyed());
  const sim_spec spec(proto, std::vector<std::uint64_t>{500'000, 500'000, 0});
  rng gen(110);
  const auto engine = spec.make_engine(engine_kind::multibatch, gen);
  engine->run(100'000);
  EXPECT_EQ(engine->interactions(), 100'000u);
  EXPECT_EQ(engine->census().count(0) + engine->census().count(1),
            1'000'000u);
  EXPECT_EQ(engine->census().count(2), 0u);
}

TEST(Engines, MultibatchRoundsSurviveBudgetTruncation) {
  // run() boundaries land mid-round; the residual collision-free run is
  // carried across calls, so odd-sized chunks must keep the interaction
  // accounting and the census intact.
  const igt_protocol proto(3);
  const auto pop = abg_population::from_fractions(500, 0.2, 0.3, 0.5);
  const sim_spec spec(proto, make_igt_census(pop, 3, 0));
  rng gen(109);
  const auto engine = spec.make_engine(engine_kind::multibatch, gen);
  std::uint64_t done = 0;
  for (const std::uint64_t chunk : {7u, 1u, 123u, 5u, 999u, 13u, 2048u}) {
    engine->run(chunk);
    done += chunk;
    EXPECT_EQ(engine->interactions(), done);
    std::uint64_t total = 0;
    for (const auto c : engine->census().counts()) total += c;
    EXPECT_EQ(total, 500u);
  }
}

// A multibatch engine still in its first round, with no collision, after
// run(steps) from a fresh start: its snapshot's untouched pool and its
// census.
struct open_round {
  std::vector<std::uint64_t> untouched;
  std::vector<std::uint64_t> counts;
};

// Runs `engines` fresh multibatch engines of `spec` (stream seed `seed`,
// aggregate threshold `threshold`) by run(steps) each and keeps those
// whose round is still open, with no collision: they have applied the
// first `steps` interactions of a collision-free run, whose 2 * steps
// agents X are a uniform subset of the initial census x0. Each state's
// count removed from the untouched pool, x0 - X, must then fit the
// hypergeometric pmf (chi-square per state).
std::vector<open_round> expect_open_rounds_remove_a_uniform_subset(
    const sim_spec& spec, const std::vector<std::uint64_t>& x0,
    std::uint64_t steps, std::uint64_t threshold, std::uint64_t seed) {
  const std::uint64_t n = std::accumulate(x0.begin(), x0.end(),
                                          std::uint64_t{0});
  const std::uint64_t agents = 2 * steps;
  constexpr std::size_t engines = 12'000;
  std::vector<std::vector<std::uint64_t>> removed(
      x0.size(), std::vector<std::uint64_t>(agents + 1, 0));
  std::vector<open_round> kept;
  for (std::size_t r = 0; r < engines; ++r) {
    rng gen = make_stream_rng(seed, r);
    const auto engine = spec.make_engine(engine_kind::multibatch, gen);
    const auto& mb = dynamic_cast<const multibatch_engine&>(*engine);
    EXPECT_EQ(mb.aggregate_threshold(), threshold);
    engine->run(steps);
    if (mb.rounds() != 1 || mb.collisions() != 0) continue;
    auto untouched =
        json_require_uint_array(engine->save_state(), "untouched", "snapshot");
    EXPECT_EQ(std::accumulate(untouched.begin(), untouched.end(),
                              std::uint64_t{0}),
              n - agents);
    for (std::size_t s = 0; s < x0.size(); ++s) {
      EXPECT_LE(untouched[s], x0[s]);
      EXPECT_LE(x0[s] - untouched[s], agents);
      ++removed[s][std::min(x0[s] - untouched[s], agents)];
    }
    kept.push_back({std::move(untouched), engine->census().counts()});
  }
  // P(J >= steps) ~ exp(-2 * (steps - 1)^2 / n): ~0.82 at 100 of 10^5.
  EXPECT_GT(kept.size(), engines / 2);
  for (std::size_t s = 0; s < x0.size(); ++s) {
    std::vector<double> pmf(agents + 1);
    for (std::uint64_t x = 0; x <= agents; ++x) {
      pmf[x] = hypergeometric_pmf(n, x0[s], agents, x);
    }
    EXPECT_GT(chi_square_gof(removed[s], pmf).p_value, 1e-4) << "state " << s;
  }
  return kept;
}

TEST(Engines, MultibatchUntouchedPoolAfterABudgetCutIsExact) {
  // One-way k = 3 IGT at n = 10^5: threshold 24, rounds of ~198 pairs.
  // The aggregate run drew the responders by class; a resolution that did
  // not draw their states within each class by MVH (say, a fill in state
  // order) fails the untouched pool's hypergeometric law.
  const igt_protocol proto(3);
  const std::vector<std::uint64_t> x0 = {15'000, 25'000, 20'000, 25'000,
                                         15'000};
  (void)expect_open_rounds_remove_a_uniform_subset(sim_spec(proto, x0), x0,
                                                   100, 24, 2501);
}

TEST(Engines, MultibatchTwoWayPartnerKeyedRoundDrawsItsAgentsExactly) {
  // Two-way logit hawk-dove at n = 10^5, off its fixed point: threshold
  // 16, rounds of ~198 pairs, and run(100) leaves 200 agents X drawn.
  // (a) The untouched pool is x0 - X; a round that drew fewer agents and
  //     scaled them up fails its hypergeometric law.
  // (b) Every one of those agents revised by the law of its partner's
  //     state, and the partners' states are X itself, so the census of
  //     hawks is x0_0 - X_0 + Bin(X_0, f(0|0)) + Bin(200 - X_0, f(0|1));
  //     a round that keyed each agent's law on its own state, or on the
  //     wrong partner, fails here.
  const game_matrix game = hawk_dove_matrix(1.0, 3.0);
  const auto logit = std::make_shared<logit_response_rule>(0.5);
  const game_protocol proto(game, logit, revision_discipline::two_way);
  const std::vector<std::uint64_t> x0 = {20'000, 80'000};
  constexpr std::uint64_t n = 100'000;
  constexpr std::uint64_t agents = 200;
  const auto kept = expect_open_rounds_remove_a_uniform_subset(
      sim_spec(proto, x0), x0, agents / 2, 16, 3001);
  // Hawks after the run, offset by agents - x0_0: in [0, 2 * agents].
  std::vector<std::uint64_t> hawks(2 * agents + 1, 0);
  for (const open_round& round : kept) {
    const std::uint64_t hawk = round.counts[0];
    ASSERT_LE(hawk + agents, x0[0] + 2 * agents);
    ASSERT_GE(hawk + agents, x0[0]);
    ++hawks[hawk + agents - x0[0]];
  }
  std::vector<double> change(2 * agents + 1, 0.0);
  const double after_hawk = logit->revise(game, 0, 0)[0];
  const double after_dove = logit->revise(game, 0, 1)[0];
  for (std::uint64_t x = 0; x <= agents; ++x) {
    const double drawn = hypergeometric_pmf(n, x0[0], agents, x);
    // The hawks among X leave and Bin(x, f(0|0)) + Bin(agents - x, f(0|1))
    // come back: the change is that sum less x.
    for (std::uint64_t a = 0; a <= x; ++a) {
      const double from_hawks = drawn * binomial_pmf(x, after_hawk, a);
      for (std::uint64_t b = 0; b <= agents - x; ++b) {
        change[a + b + agents - x] +=
            from_hawks * binomial_pmf(agents - x, after_dove, b);
      }
    }
  }
  EXPECT_GT(chi_square_gof(hawks, change).p_value, 1e-4);
}

TEST(Engines, MultibatchFrozenCensusBurnsTheBudget) {
  // All agents informed: every pair is an identity, non-identity mass 0,
  // so one skip batch takes each whole budget and no round is drawn.
  const rumor_protocol proto;
  std::vector<std::uint64_t> counts(2, 0);
  counts[rumor_protocol::state_informed] = 50;
  const sim_spec spec(proto, counts);
  rng gen(105);
  const auto engine = spec.make_engine(engine_kind::multibatch, gen);
  engine->run(5000);
  EXPECT_EQ(engine->interactions(), 5000u);
  EXPECT_EQ(engine->census().count(rumor_protocol::state_informed), 50u);
  const auto executed = engine->run_until(
      [](const census_view& census) { return census.count(0) > 0; }, 1000);
  EXPECT_EQ(executed, 1000u);
  EXPECT_EQ(engine->interactions(), 6000u);
  const auto& mb = dynamic_cast<const multibatch_engine&>(*engine);
  EXPECT_EQ(mb.rounds(), 0u);
  EXPECT_EQ(mb.skip_batches(), 2u);
}

TEST(Engines, MultibatchSkipBatchWaitIsOnePlusGeometricOfTheExactMass) {
  // Dilute one-way k = 8 IGT at n = 200: 10 GTFT agents at level 0, 5 AC,
  // 185 AD. Only a GTFT initiator updates, and at level 0 only against an
  // AC or GTFT responder, so the non-identity ordered pairs number
  // g (a + g) less the g self-pairs: 10 * 15 - 10 = 140 of n(n - 1). The
  // self-pair term moves p by 1/14, and skip batches pay here (the limit is
  // ~58% of n(n - 1)), so run_until(census changed) is one skip batch and
  // returns 1 + Geometric(p) exactly. Its mean 1/p is checked by z over
  // 2 * 10^4 engines: a 7% shift is ~10 standard errors.
  const std::size_t k = 8;
  const igt_protocol proto(k);
  constexpr std::uint64_t a = 5;
  constexpr std::uint64_t d = 185;
  constexpr std::uint64_t g = 10;
  constexpr std::uint64_t n = a + d + g;
  std::vector<std::uint64_t> x0(2 + k, 0);
  x0[igt_encoding::ac] = a;
  x0[igt_encoding::ad] = d;
  x0[igt_encoding::gtft(0)] = g;
  const sim_spec spec(proto, x0);
  const double p = static_cast<double>(g * (a + g) - g) /
                   static_cast<double>(n * (n - 1));
  const auto changed = [&x0](const census_view& census) {
    return census.counts() != x0;
  };
  constexpr std::size_t engines = 20'000;
  double sum = 0.0;
  for (std::size_t r = 0; r < engines; ++r) {
    rng gen = make_stream_rng(2901, r);
    const auto engine = spec.make_engine(engine_kind::multibatch, gen);
    const auto waited = engine->run_until(changed, 10'000'000);
    const auto& mb = dynamic_cast<const multibatch_engine&>(*engine);
    ASSERT_EQ(mb.skip_batches(), 1u);
    ASSERT_EQ(mb.rounds(), 0u);
    ASSERT_TRUE(changed(engine->census()));
    sum += static_cast<double>(waited);
  }
  // 1 + Geometric(p) has mean 1/p and variance (1 - p)/p^2.
  const double mean = sum / static_cast<double>(engines);
  const double se = std::sqrt((1.0 - p) / (p * p) / engines);
  EXPECT_LT(std::abs(mean - 1.0 / p) / se, 4.0)
      << "mean wait " << mean << " against 1/p = " << 1.0 / p;
}

TEST(Engines, RunUntilConvergesOnEveryEngine) {
  const rumor_protocol proto;
  std::vector<std::uint64_t> counts(2, 0);
  counts[rumor_protocol::state_susceptible] = 99;
  counts[rumor_protocol::state_informed] = 1;
  const sim_spec spec(proto, counts);
  for (const auto kind :
       {engine_kind::agent, engine_kind::census, engine_kind::multibatch}) {
    rng gen(106);
    const auto engine = spec.make_engine(kind, gen);
    const auto executed =
        engine->run_until(rumor_protocol::all_informed, 10'000'000);
    ASSERT_LT(executed, 10'000'000u) << engine_kind_name(kind);
    EXPECT_TRUE(rumor_protocol::all_informed(engine->census()));
    EXPECT_EQ(engine->interactions(), executed);
  }
}

TEST(Engines, SnapshotCadenceIsUniformAcrossEngines) {
  const igt_protocol proto(3);
  const auto pop = abg_population::from_fractions(40, 0.2, 0.3, 0.5);
  const sim_spec spec(proto, make_igt_census(pop, 3, 0));
  for (const auto kind :
       {engine_kind::agent, engine_kind::census, engine_kind::multibatch}) {
    rng gen(107);
    const auto engine = spec.make_engine(kind, gen);
    const auto snaps = engine->run_with_snapshots(25, 10);
    ASSERT_EQ(snaps.size(), 3u) << engine_kind_name(kind);
    EXPECT_EQ(snaps[0].interactions, 10u);
    EXPECT_EQ(snaps[1].interactions, 20u);
    EXPECT_EQ(snaps[2].interactions, 25u);
    for (const auto& snap : snaps) {
      std::uint64_t total = 0;
      for (const auto c : snap.counts) total += c;
      EXPECT_EQ(total, pop.n());
    }
  }
}

}  // namespace
}  // namespace ppg
