// The solver subsystem's contracts (DESIGN.md §12): support enumeration
// reproduces closed-form equilibria to machine precision with the right
// stability classification, the logit homotopy follows the principal
// branch to a Nash point (selecting the risk-dominant corner in
// coordination games) with residuals at its tolerance, the two solvers
// agree on random games, and the certification layer certifies an engine's
// stationary census only when the mean-field prediction is trusted and
// reproduced.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "ppg/games/game_matrix.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/mean_field.hpp"
#include "ppg/games/solver/certify.hpp"
#include "ppg/games/solver/enumeration.hpp"
#include "ppg/games/solver/homotopy.hpp"
#include "ppg/games/solver/zoo.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/util/error.hpp"
#include "ppg/util/rng.hpp"

namespace ppg {
namespace {

double linf_gap(const std::vector<double>& a, const std::vector<double>& b) {
  double gap = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    gap = std::max(gap, std::abs(a[i] - b[i]));
  }
  return gap;
}

TEST(SupportEnumeration, HawkDoveMixedEssMatchesClosedForm) {
  const double value = 1.0;
  const double cost = 2.0;
  const auto equilibria =
      enumerate_symmetric_equilibria(hawk_dove_matrix(value, cost));
  ASSERT_EQ(equilibria.size(), 1u);  // neither corner is Nash
  const auto& mixed = equilibria[0];
  EXPECT_FALSE(mixed.pure);
  ASSERT_EQ(mixed.support, (std::vector<std::size_t>{0, 1}));
  EXPECT_NEAR(mixed.mix[0], value / cost, 1e-15);
  EXPECT_NEAR(mixed.mix[1], 1.0 - value / cost, 1e-15);
  // Equilibrium payoff v = x^T A x at the v/c mix: (v/2)(1 - v/c) + ...
  EXPECT_NEAR(mixed.payoff, 0.25, 1e-15);
  EXPECT_LE(mixed.residual, 1e-12);
  EXPECT_EQ(mixed.stability, equilibrium_stability::ess);
}

TEST(SupportEnumeration, RpsInteriorPointIsNeutrallyStable) {
  const auto equilibria =
      enumerate_symmetric_equilibria(rock_paper_scissors_matrix());
  ASSERT_EQ(equilibria.size(), 1u);
  const auto& interior = equilibria[0];
  ASSERT_EQ(interior.support, (std::vector<std::size_t>{0, 1, 2}));
  for (const double w : interior.mix) EXPECT_NEAR(w, 1.0 / 3.0, 1e-15);
  EXPECT_NEAR(interior.payoff, 0.0, 1e-15);
  // Zero-sum: the symmetric part of the payoff matrix vanishes, so no
  // mutant gains and none is repelled — neutral stability, not ESS.
  EXPECT_EQ(interior.stability, equilibrium_stability::neutrally_stable);
}

TEST(SupportEnumeration, StagHuntCornersAreEssMixedIsUnstable) {
  const auto equilibria =
      enumerate_symmetric_equilibria(stag_hunt_matrix(4.0, 3.0));
  ASSERT_EQ(equilibria.size(), 3u);
  // (size, lexicographic) order: stag corner, hare corner, then the mix.
  EXPECT_TRUE(equilibria[0].pure);
  EXPECT_EQ(equilibria[0].support, (std::vector<std::size_t>{0}));
  EXPECT_EQ(equilibria[0].stability, equilibrium_stability::ess);
  EXPECT_NEAR(equilibria[0].payoff, 4.0, 1e-15);
  EXPECT_TRUE(equilibria[1].pure);
  EXPECT_EQ(equilibria[1].support, (std::vector<std::size_t>{1}));
  EXPECT_EQ(equilibria[1].stability, equilibrium_stability::ess);
  EXPECT_NEAR(equilibria[1].payoff, 3.0, 1e-15);
  // Indifference: 4 x_S = 3 x_S + 3 x_H => x_S = 3/4, the basin boundary.
  EXPECT_FALSE(equilibria[2].pure);
  EXPECT_NEAR(equilibria[2].mix[0], 0.75, 1e-15);
  EXPECT_NEAR(equilibria[2].mix[1], 0.25, 1e-15);
  EXPECT_EQ(equilibria[2].stability, equilibrium_stability::unstable);
}

TEST(SupportEnumeration, PrisonersDilemmaDefectionIsTheUniqueEss) {
  const auto equilibria =
      enumerate_symmetric_equilibria(donation_matrix());
  ASSERT_EQ(equilibria.size(), 1u);
  EXPECT_TRUE(equilibria[0].pure);
  EXPECT_EQ(equilibria[0].support, (std::vector<std::size_t>{1}));
  EXPECT_EQ(equilibria[0].stability, equilibrium_stability::ess);
}

TEST(BestResponseCycles, RpsCyclesAndStagHuntDoesNot) {
  const auto rps = find_best_response_cycles(rock_paper_scissors_matrix());
  // R is beaten by P, P by S, S by R: one 3-cycle, no fixed point.
  EXPECT_EQ(rps.best_response, (std::vector<std::size_t>{1, 2, 0}));
  EXPECT_TRUE(rps.has_nontrivial_cycle);
  ASSERT_EQ(rps.cycles.size(), 1u);
  EXPECT_EQ(rps.cycles[0], (std::vector<std::size_t>{0, 1, 2}));

  const auto stag = find_best_response_cycles(stag_hunt_matrix());
  // Both corners are strict Nash: two fixed points, nothing cycles.
  EXPECT_EQ(stag.best_response, (std::vector<std::size_t>{0, 1}));
  EXPECT_FALSE(stag.has_nontrivial_cycle);
  ASSERT_EQ(stag.cycles.size(), 2u);
}

TEST(LogitHomotopy, HawkDoveConvergesToTheMixedEss) {
  // The v/c mix balances the logit response at every temperature, so the
  // whole path sits on it and the endpoint hits the ESS at solver
  // precision, not just O(end_temperature).
  const auto result = follow_logit_path(hawk_dove_matrix(1.0, 2.0));
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.residual, 1e-8);
  EXPECT_NEAR(result.mix[0], 0.5, 1e-8);
  EXPECT_FALSE(result.path.empty());
  for (const auto& record : result.path) {
    EXPECT_LE(record.residual, 1e-8);
    EXPECT_GT(record.temperature, 0.0);
  }
  // The ladder is monotone decreasing and ends at the requested floor.
  for (std::size_t i = 1; i < result.path.size(); ++i) {
    EXPECT_LT(result.path[i].temperature, result.path[i - 1].temperature);
  }
  EXPECT_DOUBLE_EQ(result.temperature, homotopy_end_temperature);
}

TEST(LogitHomotopy, StagHuntSelectsTheRiskDominantCorner) {
  // Hare risk-dominates stag for (4, 3): (4-3)^2 < (3-0)^2, and the
  // principal branch through the barycenter tracks basin size, so the
  // path must land on all-hare even though all-stag pays more.
  const auto result = follow_logit_path(stag_hunt_matrix(4.0, 3.0));
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.residual, 1e-8);
  EXPECT_GT(result.mix[1], 0.999);
  EXPECT_LE(result.nash_gap, 1e-6);
}

TEST(LogitHomotopy, AgreesWithSupportEnumerationOnRandomGames) {
  for (std::size_t q = 2; q <= 4; ++q) {
    for (std::size_t index = 0; index < 6; ++index) {
      const auto entry = random_zoo_game(20240901, q, index);
      const auto equilibria = enumerate_symmetric_equilibria(entry.game);
      ASSERT_FALSE(equilibria.empty()) << entry.name;
      const auto followed = follow_logit_path(entry.game);
      EXPECT_TRUE(followed.converged) << entry.name;
      EXPECT_LE(followed.residual, 1e-8) << entry.name;
      double nearest = 2.0;
      for (const auto& eq : equilibria) {
        nearest = std::min(nearest, linf_gap(eq.mix, followed.mix));
      }
      // The endpoint is the QRE at T = 1e-3, an O(T) smoothing of the
      // limiting Nash point on a generic game.
      EXPECT_LE(nearest, 0.02)
          << entry.name << ": homotopy endpoint is not near any "
          << "enumerated equilibrium";
    }
  }
}

TEST(SupportEnumeration, EveryZooEquilibriumSatisfiesTheNashInequalities) {
  const auto zoo = make_game_zoo(1234);
  for (const auto& entry : zoo) {
    const auto equilibria = enumerate_symmetric_equilibria(entry.game);
    ASSERT_FALSE(equilibria.empty()) << entry.name;
    const double scale = std::max(1.0, entry.game.payoff_span());
    for (const auto& eq : equilibria) {
      for (std::size_t s = 0; s < entry.game.num_strategies(); ++s) {
        EXPECT_LE(entry.game.expected_payoff(s, eq.mix),
                  eq.payoff + 1e-8 * scale)
            << entry.name << ": strategy " << s << " improves on the "
            << "claimed equilibrium";
      }
    }
  }
}

TEST(Certification, EngineCensusIsCertifiedOnHawkDove) {
  const equilibrium_certifier certifier(
      hawk_dove_matrix(1.0, 2.0),
      std::make_shared<logit_response_rule>(0.25));
  ASSERT_TRUE(certifier.prediction_trusted());
  ASSERT_EQ(certifier.equilibria().size(), 1u);

  // A census engine's time-averaged census must reproduce the prediction.
  const game_protocol proto(hawk_dove_matrix(1.0, 2.0),
                            std::make_shared<logit_response_rule>(0.25));
  const std::uint64_t n = 10'000;
  const sim_spec spec(proto, {n / 2, n / 2});
  rng gen(20240902);
  const auto engine = spec.make_engine(engine_kind::census, gen);
  engine->run(20 * n);  // burn-in
  std::vector<double> mean(2, 0.0);
  const std::uint64_t strides = 300;
  for (std::uint64_t i = 0; i < strides; ++i) {
    engine->run(n / 10);
    for (std::size_t s = 0; s < 2; ++s) {
      mean[s] += engine->census().fraction(static_cast<agent_state>(s));
    }
  }
  for (auto& x : mean) x /= static_cast<double>(strides);

  const auto verdict = certifier.certify(mean);
  EXPECT_TRUE(verdict.certified);
  EXPECT_LE(verdict.tv_to_prediction, 0.02);
  EXPECT_EQ(verdict.nearest_equilibrium, 0u);
  EXPECT_TRUE(verdict.rule_predicts_equilibrium);
}

TEST(Certification, CensusFarFromEveryEquilibriumFailsCertification) {
  const equilibrium_certifier certifier(
      hawk_dove_matrix(1.0, 2.0),
      std::make_shared<logit_response_rule>(0.25));
  ASSERT_TRUE(certifier.prediction_trusted());
  // An all-hawk census: nowhere near the unique mixed equilibrium or the
  // smoothed prediction.
  const auto verdict = certifier.certify({0.98, 0.02});
  EXPECT_FALSE(verdict.certified);
  EXPECT_GT(verdict.tv_to_prediction, 0.1);
  EXPECT_GT(verdict.tv_to_equilibrium, 0.1);
  EXPECT_GT(verdict.nash_gap, 0.0);
}

TEST(Certification, UntrustedPredictionNeverCertifies) {
  // Weighted zero-sum rock-paper-scissors: under proportional imitation
  // the mean field is exactly the replicator flow, whose orbits are the
  // closed level curves of sum_i x*_i log x_i around the interior
  // equilibrium x* = (3, 2, 1)/6. The barycenter is off x*, so the
  // relaxation circulates forever instead of converging — the textbook
  // untrusted-prediction case of DESIGN.md §12.
  game_matrix weighted(
      {"R", "P", "S"},
      {0.0, -1.0, 2.0, 1.0, 0.0, -3.0, -2.0, 3.0, 0.0});
  const equilibrium_certifier certifier(
      weighted, std::make_shared<proportional_imitation_rule>(1.0));
  EXPECT_FALSE(certifier.prediction_trusted());
  // Even the prediction endpoint itself is refused: distance zero, but
  // the point the distance is measured to means nothing.
  const auto verdict = certifier.certify(certifier.prediction().state);
  EXPECT_FALSE(verdict.certified);
  EXPECT_DOUBLE_EQ(verdict.tv_to_prediction, 0.0);
}

TEST(MeanField, RelaxationReportsItsIterationCount) {
  const game_protocol proto(hawk_dove_matrix(1.0, 2.0),
                            std::make_shared<logit_response_rule>(0.25));
  const mean_field_ode ode(proto);
  const auto report =
      relax_to_fixed_point(ode, {0.9, 0.1}, 0.02, 1e-10, 2000.0);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.iterations, 0u);
  EXPECT_NEAR(report.time,
              static_cast<double>(report.iterations) * 0.02, 1e-9);
  EXPECT_LE(report.residual, 1e-10);

  // An unreachable tolerance exhausts the horizon and says so: the report
  // distinguishes "converged" from "ran out of time" explicitly.
  const auto unconverged =
      relax_to_fixed_point(ode, {0.9, 0.1}, 0.02, 1e-18, 1.0);
  EXPECT_FALSE(unconverged.converged);
  // 1.0 / 0.02 steps, +-1 for the accumulated-time comparison at the edge.
  EXPECT_GE(unconverged.iterations, 50u);
  EXPECT_LE(unconverged.iterations, 51u);
  EXPECT_GT(unconverged.residual, 0.0);
}

TEST(GameZoo, IsDeterministicInItsSeed) {
  const auto a = make_game_zoo(7);
  const auto b = make_game_zoo(7);
  const auto c = make_game_zoo(8);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 6u + 5u * 4u);  // named classics + 4 per q in [2, 6]
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    const std::size_t q = a[i].game.num_strategies();
    ASSERT_EQ(q, b[i].game.num_strategies());
    for (std::size_t r = 0; r < q; ++r) {
      for (std::size_t col = 0; col < q; ++col) {
        EXPECT_EQ(a[i].game.payoff(r, col), b[i].game.payoff(r, col));
        any_differs = any_differs ||
                      a[i].game.payoff(r, col) != c[i].game.payoff(r, col);
      }
    }
  }
  EXPECT_TRUE(any_differs);  // a different seed draws different payoffs
}

TEST(BestResponses, TieToleranceControlsDegenerateGames) {
  // All payoffs equal: every strategy is a best response at any tolerance.
  const game_matrix flat({"a", "b", "c"},
                         {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(flat.best_responses({0.5, 0.3, 0.2}),
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(flat.best_responses({0.5, 0.3, 0.2}, 0.0),
            (std::vector<std::size_t>{0, 1, 2}));

  // A tie at floating-point noise scale: reported as a joint best response
  // at the default tolerance, split only by an exact (tol = 0) comparison.
  const double noise = 1e-13;
  const game_matrix near_tie({"a", "b"}, {1.0, 1.0, 1.0 + noise, 1.0 + noise});
  EXPECT_EQ(near_tie.best_responses({0.5, 0.5}),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(near_tie.best_responses({0.5, 0.5}, 0.0),
            (std::vector<std::size_t>{1}));

  // A real payoff gap: invisible at the default tolerance, merged once the
  // tolerance is loosened past the gap.
  const game_matrix gapped({"a", "b"}, {1.0, 1.0, 1.01, 1.01});
  EXPECT_EQ(gapped.best_responses({0.5, 0.5}),
            (std::vector<std::size_t>{1}));
  EXPECT_EQ(gapped.best_responses({0.5, 0.5}, 0.05),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(gapped.best_responses_to_pure(0),
            (std::vector<std::size_t>{1}));
  EXPECT_EQ(gapped.best_responses_to_pure(0, 0.05),
            (std::vector<std::size_t>{0, 1}));

  EXPECT_THROW((void)flat.best_responses({0.5, 0.3, 0.2}, -1e-9),
               invariant_error);
  EXPECT_THROW((void)flat.best_responses_to_pure(0, -1e-9), invariant_error);
}

}  // namespace
}  // namespace ppg
