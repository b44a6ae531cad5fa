// equilibrium_zoo: the solver stack end to end. Enumerate the symmetric
// Nash equilibria of classic games with stability labels, read the
// best-response structure, trace the logit homotopy to see which
// equilibrium the principal branch selects, then close the loop: run an
// engine and certify its time-averaged census against the rule's own
// predicted limit — including a game where the prediction is rightly
// refused because the dynamics never settle.
#include <iostream>
#include <memory>
#include <vector>

#include "ppg/games/game_matrix.hpp"
#include "ppg/games/solver/certify.hpp"
#include "ppg/games/solver/enumeration.hpp"
#include "ppg/games/solver/homotopy.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/util/table.hpp"

namespace {

using namespace ppg;

void print_equilibria(const game_matrix& game) {
  const auto equilibria = enumerate_symmetric_equilibria(game);
  text_table out({"equilibrium", "payoff", "stability", "residual"});
  for (const auto& eq : equilibria) {
    std::string mix = "(";
    for (std::size_t s = 0; s < eq.mix.size(); ++s) {
      if (s > 0) mix += " ";
      mix += fmt(eq.mix[s], 3);
    }
    mix += eq.pure ? ") pure" : ") mixed";
    out.add_row({mix, fmt(eq.payoff, 3),
                 equilibrium_stability_name(eq.stability),
                 fmt_sci(eq.residual)});
  }
  out.print(std::cout);
}

}  // namespace

int main() {
  std::cout << "== Computing and certifying equilibria ==\n\n";

  // 1. Support enumeration: the full symmetric Nash set, classified.
  std::cout << "Stag hunt (stag=4 payoff, hare=3 safe): three equilibria —\n"
               "two strict pure ESS and the unstable mixed threshold "
               "between\ntheir basins.\n";
  const auto stag = stag_hunt_matrix();
  print_equilibria(stag);

  std::cout << "\nRock-paper-scissors: one interior point; zero-sum games\n"
               "are never strictly stable, only neutrally so.\n";
  const auto rps = rock_paper_scissors_matrix();
  print_equilibria(rps);

  // 2. Best-response structure: RPS cycles, stag hunt does not.
  const auto rps_cycles = find_best_response_cycles(rps);
  std::cout << "\nRPS best-response graph has a cycle of length "
            << rps_cycles.cycles.front().size()
            << " (rock -> paper -> scissors -> rock); the stag hunt's\n"
               "best-response graph has "
            << find_best_response_cycles(stag).cycles.size()
            << " fixed points and no cycle.\n";

  // 3. The logit homotopy: follow the quantal-response branch from the
  // high-temperature barycenter down to (near) zero temperature. Where
  // enumeration lists every equilibrium, the homotopy *selects* one — on
  // the stag hunt, the risk-dominant hare corner, not the payoff-dominant
  // stag corner.
  const auto path = follow_logit_path(stag);
  std::cout << "\nLogit homotopy on the stag hunt: " << path.path.size()
            << " temperature rungs, " << path.total_iterations
            << " Newton iterations, final residual "
            << fmt_sci(path.residual) << ".\n"
            << "Selected mix (stag, hare) = (" << fmt(path.mix[0], 4)
            << ", " << fmt(path.mix[1], 4)
            << ") — risk dominance, not payoff dominance.\n";

  // 4. Certification: compute the equilibrium set once per recipe, then
  // hold any engine's time-averaged census against the rule's predicted
  // limit.
  const std::uint64_t n = 100'000;
  const auto hd = hawk_dove_matrix(1.0, 2.0);
  const equilibrium_certifier certifier(
      hd, std::make_shared<logit_response_rule>(0.25));
  const game_protocol proto(hd, std::make_shared<logit_response_rule>(0.25),
                            revision_discipline::one_way);
  const sim_spec spec(proto, {n / 2, n - n / 2});
  rng gen(21);
  const auto engine = spec.make_engine(engine_kind::multibatch, gen);
  engine->run(20 * n);  // burn-in, parallel time 20
  std::vector<double> mean(hd.num_strategies(), 0.0);
  const std::uint64_t strides = 300;
  for (std::uint64_t i = 0; i < strides; ++i) {
    engine->run(n / 10);
    const auto fractions = engine->census().fractions();
    for (std::size_t s = 0; s < mean.size(); ++s) mean[s] += fractions[s];
  }
  for (auto& x : mean) x /= static_cast<double>(strides);
  const auto verdict = certifier.certify(mean);
  std::cout << "\nHawk-dove on the multibatch engine (n = " << n << "):\n"
            << "  time-averaged census = (" << fmt(mean[0], 4) << ", "
            << fmt(mean[1], 4) << ")\n"
            << "  nearest equilibrium  = #" << verdict.nearest_equilibrium
            << " at TV " << fmt(verdict.tv_to_equilibrium, 4)
            << " (the mixed ESS at hawk = v/c)\n"
            << "  TV to rule's limit   = "
            << fmt(verdict.tv_to_prediction, 4) << ", census Nash gap "
            << fmt_sci(verdict.nash_gap) << "\n"
            << "  certified: " << (verdict.certified ? "yes" : "no")
            << " (prediction trusted, census within tolerance)\n";

  // 5. The refusal case: proportional imitation on a weighted zero-sum RPS
  // is the replicator flow, whose orbits circle the interior equilibrium
  // forever. The relaxation never converges, so the certifier reports
  // distances but refuses to certify anything — even the exact
  // equilibrium itself.
  const game_matrix spun(
      {"rock", "paper", "scissors"},
      {0.0, -1.0, 2.0, 1.0, 0.0, -3.0, -2.0, 3.0, 0.0});
  const equilibrium_certifier untrusted(
      spun, std::make_shared<proportional_imitation_rule>(1.0));
  std::cout << "\nWeighted zero-sum RPS under proportional imitation:\n"
            << "  prediction trusted: "
            << (untrusted.prediction_trusted() ? "yes" : "no")
            << " (replicator orbits close around the interior point;\n"
               "   there is no limit to compare against, so nothing\n"
               "   certifies — see bench g1 for the matched cycle periods)\n";
  return 0;
}
