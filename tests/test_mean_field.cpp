// The mean-field extraction: drift correctness against closed-form limits
// (one-way rumor -> logistic growth; proportional imitation on a zero-sum
// game -> replicator dynamics), simplex invariance of the RK4 integrator,
// and the satellite cross-check of the k-IGT kernel's mean-field fixed
// point against the Theorem 2.7 closed form and the census engine at
// n = 10^6.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/core/theory.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/mean_field.hpp"
#include "ppg/games/strategy.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/pp/protocols/rumor.hpp"
#include "ppg/stats/empirical.hpp"
#include "ppg/util/error.hpp"

namespace ppg {
namespace {

TEST(MeanField, RumorDriftIsLogisticGrowth) {
  // One-way rumor: only the (informed, susceptible) pair changes anything,
  // so dx_I/dt = x_I (1 - x_I) — logistic growth with the exact solution
  // x(t) = x0 / (x0 + (1 - x0) e^{-t}).
  const rumor_protocol proto;
  const mean_field_ode ode(proto);
  const double x0 = 0.02;
  std::vector<double> x = {1.0 - x0, x0};
  const double dt = 0.01;
  for (int step = 1; step <= 800; ++step) {
    x = rk4_simplex_step(ode, x, dt);
    const double t = static_cast<double>(step) * dt;
    const double exact = x0 / (x0 + (1.0 - x0) * std::exp(-t));
    ASSERT_NEAR(x[rumor_protocol::state_informed], exact, 1e-7)
        << "t = " << t;
  }
}

TEST(MeanField, DriftConservesMassAndTheSimplexIsInvariant) {
  const game_protocol proto(rock_paper_scissors_matrix(),
                            std::make_shared<logit_response_rule>(0.3));
  const mean_field_ode ode(proto);
  ASSERT_EQ(ode.dimension(), 3u);
  const auto trajectory =
      integrate_mean_field(ode, {0.6, 0.3, 0.1}, 0.01, 2000, 100);
  for (const auto& state : trajectory.states) {
    double total = 0.0;
    for (const double v : state) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    double drift_sum = 0.0;
    for (const double d : ode.drift(state)) drift_sum += d;
    EXPECT_NEAR(drift_sum, 0.0, 1e-12);
  }
}

TEST(MeanField, ProportionalImitationIsReplicatorOnZeroSumGames) {
  // For a zero-sum game the encounter-payoff comparison sees the full
  // fitness difference, so the mean field is exactly the replicator field
  // scaled by 2 * rate / payoff_span (DESIGN.md §7).
  const double rate = 0.7;
  const auto game = rock_paper_scissors_matrix();
  const game_protocol proto(
      game, std::make_shared<proportional_imitation_rule>(rate));
  const mean_field_ode ode(proto);
  const double scale = 2.0 * rate / game.payoff_span();
  for (const auto& x : {std::vector<double>{0.2, 0.3, 0.5},
                        std::vector<double>{0.6, 0.2, 0.2},
                        std::vector<double>{1.0 / 3, 1.0 / 3, 1.0 / 3}}) {
    const auto drift = ode.drift(x);
    const auto replicator = replicator_drift(game, x);
    for (std::size_t u = 0; u < 3; ++u) {
      EXPECT_NEAR(drift[u], scale * replicator[u], 1e-12);
    }
  }
}

TEST(MeanField, ImitationConvergesToDefectionOnTheDonationGame) {
  const game_protocol proto(donation_matrix(),
                            std::make_shared<imitate_if_better_rule>());
  const mean_field_ode ode(proto);
  const auto fixed =
      relax_to_fixed_point(ode, {0.9, 0.1}, 0.05, 1e-10, 500.0);
  ASSERT_TRUE(fixed.converged);
  EXPECT_NEAR(fixed.state[1], 1.0, 1e-6);  // all-defect
}

// One fixed outcome list for every ordered pair of a q = 2 protocol.
class listed_protocol final : public protocol {
 public:
  explicit listed_protocol(std::vector<outcome> outcomes)
      : outcomes_(std::move(outcomes)) {}
  [[nodiscard]] std::size_t num_states() const override { return 2; }
  [[nodiscard]] std::vector<outcome> outcome_distribution(
      agent_state /*initiator*/, agent_state /*responder*/) const override {
    return outcomes_;
  }

 private:
  std::vector<outcome> outcomes_;
};

// The ODE is built from the compiled kernel_table, so it rejects every
// kernel the engines reject: a distribution summing to 0.7 (whose drift
// would not sum to 0), a negative probability, an out-of-range state.
TEST(MeanField, RejectsInvalidKernelsAndBadStates) {
  const listed_protocol bad_sum({{0, 1, 0.7}});
  const listed_protocol negative({{0, 0, 1.5}, {1, 1, -0.5}});
  const listed_protocol out_of_range({{0, 2, 1.0}});
  EXPECT_THROW(mean_field_ode{bad_sum}, invariant_error);
  EXPECT_THROW(mean_field_ode{negative}, invariant_error);
  EXPECT_THROW(mean_field_ode{out_of_range}, invariant_error);
  const mean_field_ode ode(rumor_protocol{});
  EXPECT_THROW((void)ode.drift({0.5}), invariant_error);
  EXPECT_THROW((void)integrate_mean_field(ode, {0.7, 0.7}, 0.01, 1),
               invariant_error);
  EXPECT_THROW((void)rk4_simplex_step(ode, {0.5, 0.5}, 0.0),
               invariant_error);
}

TEST(MeanField, IgtFixedPointMatchesTheTheorem27ClosedForm) {
  const std::size_t k = 5;
  const auto pop = abg_population::from_fractions(1000, 0.1, 0.25, 0.65);
  const igt_protocol proto(k);
  const mean_field_ode ode(proto);
  // Everyone's fractions: AC, AD, then all GTFT mass at level 0.
  std::vector<double> x0(2 + k, 0.0);
  x0[igt_encoding::ac] = pop.alpha();
  x0[igt_encoding::ad] = pop.beta();
  x0[igt_encoding::first_gtft] = pop.gamma();
  const auto fixed = relax_to_fixed_point(ode, x0, 0.05, 1e-12, 5000.0);
  ASSERT_TRUE(fixed.converged);
  // AC/AD are fixed strategies: their fractions never move.
  EXPECT_NEAR(fixed.state[igt_encoding::ac], pop.alpha(), 1e-9);
  EXPECT_NEAR(fixed.state[igt_encoding::ad], pop.beta(), 1e-9);
  // The level occupancy at the fixed point is the Theorem 2.7 mean
  // stationary distribution mu(j) ∝ lambda^{j-1}.
  std::vector<double> occupancy(k);
  for (std::size_t j = 0; j < k; ++j) {
    occupancy[j] = fixed.state[igt_encoding::gtft(j)] / pop.gamma();
  }
  const auto expected = igt_stationary_probs(pop, k);
  EXPECT_LT(total_variation(occupancy, expected), 1e-8);
  // And the induced average generosity matches Proposition 2.8.
  const double g_max = 0.9;  // igt_game_matrix default grid
  const auto grid = generosity_grid(k, g_max);
  double avg = 0.0;
  for (std::size_t j = 0; j < k; ++j) avg += grid[j] * occupancy[j];
  EXPECT_NEAR(avg, average_stationary_generosity(pop.beta(), k, g_max),
              1e-8);
}

TEST(MeanField, IgtFixedPointMatchesTheCensusEngineAtMillionAgents) {
  // The deterministic limit against the stochastic engine at n = 10^6:
  // burn past the level-marginal relaxation, then time-average the level
  // census. Fluctuations at this scale are O(1/sqrt(gamma n)) ~ 1e-3.
  const std::size_t k = 5;
  const auto pop =
      abg_population::from_fractions(1'000'000, 0.1, 0.25, 0.65);
  const igt_protocol proto(k);
  const mean_field_ode ode(proto);
  std::vector<double> x0(2 + k, 0.0);
  x0[igt_encoding::ac] = pop.alpha();
  x0[igt_encoding::ad] = pop.beta();
  x0[igt_encoding::first_gtft] = pop.gamma();
  const auto fixed = relax_to_fixed_point(ode, x0, 0.05, 1e-12, 5000.0);
  ASSERT_TRUE(fixed.converged);

  std::vector<std::uint64_t> counts(2 + k, 0);
  counts[igt_encoding::ac] = pop.num_ac;
  counts[igt_encoding::ad] = pop.num_ad;
  counts[igt_encoding::gtft(0)] = pop.num_gtft;
  const sim_spec spec(proto, counts);
  rng gen(515);
  const auto engine = spec.make_engine(engine_kind::multibatch, gen);
  engine->run(30 * pop.n());  // parallel-time-30 burn-in
  const std::uint64_t samples = 200'000;
  const std::uint64_t stride = 50;
  std::vector<double> occupancy(k, 0.0);
  for (std::uint64_t i = 0; i < samples / stride; ++i) {
    engine->run(stride);
    const auto z = gtft_level_counts(engine->census(), k);
    for (std::size_t j = 0; j < k; ++j) {
      occupancy[j] += static_cast<double>(z[j]);
    }
  }
  const double total_mass =
      static_cast<double>(samples / stride) *
      static_cast<double>(pop.num_gtft);
  for (auto& x : occupancy) x /= total_mass;

  std::vector<double> predicted(k);
  for (std::size_t j = 0; j < k; ++j) {
    predicted[j] = fixed.state[igt_encoding::gtft(j)] / pop.gamma();
  }
  EXPECT_LT(total_variation(occupancy, predicted), 0.02);
}

}  // namespace
}  // namespace ppg
