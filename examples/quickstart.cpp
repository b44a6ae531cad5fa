// Quickstart: simulate the k-IGT dynamics in an (alpha, beta, gamma)
// population and compare the long-run distribution of generosity levels to
// the closed-form stationary law of Theorem 2.7.
//
// The measurement runs as a batch of 4 independent replicas on the
// batch-replication engine: one sim_spec describes the experiment, an
// engine_kind picks the execution backend (here the census engine, which
// simulates the count vector directly — agents are anonymous, so the
// census is the chain's whole state), the batch engine fans the replicas
// across a worker pool (deterministically — the numbers below are
// bit-identical at any thread count), and the census aggregator reduces
// them to a mean estimate with replica-level confidence intervals.
//
// Build & run:   ./build/examples/quickstart
#include <cstddef>
#include <iostream>

#include "ppg/core/igt_protocol.hpp"
#include "ppg/core/igt_count_chain.hpp"
#include "ppg/exp/replicate.hpp"
#include "ppg/stats/empirical.hpp"
#include "ppg/util/table.hpp"

int main() {
  using namespace ppg;

  // An (alpha, beta, gamma) = (0.2, 0.2, 0.6) population of 500 agents.
  const auto pop = abg_population::from_fractions(500, 0.2, 0.2, 0.6);
  const std::size_t k = 6;  // six generosity levels

  std::cout << "Population: " << pop.num_ac << " AC, " << pop.num_ad
            << " AD, " << pop.num_gtft << " GTFT agents; k = " << k
            << " levels\n\n";

  // The replica recipe: agent-level IGT dynamics, every GTFT agent starting
  // at the stingiest level g_1 = 0.
  const igt_protocol proto(k);
  const sim_spec spec(proto, make_igt_census(pop, k, 0));

  // Burn in past the mixing time (Theorem 2.7: O(k n log n) interactions),
  // then time-average the level census — once per replica.
  const std::uint64_t burn =
      static_cast<std::uint64_t>(igt_mixing_upper_bound(pop, k));
  const std::uint64_t samples = 100'000;
  const batch_options opts{/*replicas=*/4, /*master_seed=*/2024,
                           /*threads=*/0};
  std::cout << "Running " << opts.replicas << " replicas ("
            << fmt_count(burn) << " burn-in + " << fmt_count(samples)
            << " sampled interactions each) on the batch engine...\n";

  const auto batch = replicate_time_averaged_census(
      spec, engine_kind::census, burn, samples, opts,
      [&](const census_view& census) {
        const auto z = gtft_level_counts(census, k);
        std::vector<double> occupancy(k);
        for (std::size_t j = 0; j < k; ++j) {
          occupancy[j] = static_cast<double>(z[j]) /
                         static_cast<double>(pop.num_gtft);
        }
        return occupancy;
      });

  // Compare with Theorem 2.7: multinomial with p_j ∝ (1/beta - 1)^{j-1}.
  const auto expected = igt_stationary_probs(pop, k);
  const auto measured = batch.mean();
  const auto ci = batch.ci_half_width();

  text_table table({"level", "generosity g_j", "measured", "+- 95% CI",
                    "Theorem 2.7"});
  const auto grid = generosity_grid(k, 1.0);
  for (std::size_t j = 0; j < k; ++j) {
    table.add_row({"g" + std::to_string(j + 1), fmt(grid[j], 3),
                   fmt(measured[j], 4), fmt(ci[j], 4), fmt(expected[j], 4)});
  }
  table.print(std::cout);
  std::cout << "\nTV distance (measured vs predicted): "
            << fmt(total_variation(measured, expected), 4) << "\n\n";

  std::cout << "Level occupancy (replica-averaged):\n";
  for (std::size_t j = 0; j < k; ++j) {
    const auto bar = static_cast<std::size_t>(measured[j] * 44.0);
    std::cout << "[g" << j + 1 << "] " << std::string(bar, '#') << ' '
              << fmt(measured[j], 3) << "\n";
  }
  return 0;
}
