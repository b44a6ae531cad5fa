// Exporting raw trajectories: runs the k-IGT dynamics on the census engine
// and writes the level census as CSV, one row per unit of parallel time, for
// external plotting — the raw data behind figures like the welfare
// trajectories of bench A3. The rows come from run_with_snapshots, which
// every engine kind offers.
//
// Usage: ./census_traces > trace.csv
#include <cstdint>
#include <iostream>
#include <vector>

#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/pp/engine.hpp"

int main() {
  using namespace ppg;

  const auto pop = abg_population::from_fractions(400, 0.1, 0.2, 0.7);
  const std::size_t k = 5;

  const igt_protocol proto(k);
  const sim_spec spec(proto, make_igt_census(pop, k, 0));
  rng gen(99);
  const auto sim = spec.make_engine(engine_kind::census, gen);

  const std::uint64_t stride = pop.n();  // one unit of parallel time
  std::vector<census_snapshot> rows;
  rows.push_back({sim->interactions(), sim->census().counts()});
  const auto snapshots = sim->run_with_snapshots(100 * stride, stride);
  rows.insert(rows.end(), snapshots.begin(), snapshots.end());

  std::cout << "interactions,parallel_time,AC,AD";
  for (std::size_t j = 1; j <= k; ++j) {
    std::cout << ",g" << j;
  }
  std::cout << '\n';
  for (const auto& row : rows) {
    std::cout << row.interactions << ','
              << static_cast<double>(row.interactions) /
                     static_cast<double>(pop.n());
    for (const auto c : row.counts) {
      std::cout << ',' << c;
    }
    std::cout << '\n';
  }

  std::cerr << "wrote " << rows.size()
            << " census rows (one per unit of parallel time); stationary "
               "prediction for the top level: "
            << igt_stationary_probs(pop, k).back() *
                   static_cast<double>(pop.num_gtft)
            << " agents\n";
  return 0;
}
