// The k-IGT count chain {z_t} (Section 2.2.1): the level-census process of
// the GTFT subpopulation. Per equation (5) it is exactly the
// (k, gamma(1-beta), gamma*beta, gamma*n)-Ehrenfest process; this wrapper
// exposes it with IGT vocabulary and the closed-form stationary law of
// Theorem 2.7, plus conversions between level censuses and distributions
// over the generosity grid G.
#pragma once

#include <cstdint>
#include <vector>

#include "ppg/core/population_config.hpp"
#include "ppg/ehrenfest/coordinate_walk.hpp"

namespace ppg {

class igt_count_chain {
 public:
  /// All GTFT agents start at `initial_level`.
  igt_count_chain(const abg_population& pop, std::size_t k,
                  std::size_t initial_level);

  /// Explicit per-agent initial levels.
  igt_count_chain(const abg_population& pop, std::size_t k,
                  std::vector<std::uint32_t> initial_levels);

  /// One *population* interaction (most steps leave the census unchanged —
  /// they are interactions whose initiator is not GTFT; the embedded
  /// Ehrenfest chain steps with the correct unconditional probabilities).
  void step(rng& gen);
  void run(std::uint64_t steps, rng& gen);

  /// Current level census z_t (length k, sums to m = num_gtft).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return walk_.counts();
  }
  [[nodiscard]] std::uint64_t interactions() const { return walk_.time(); }
  [[nodiscard]] const abg_population& population_config() const {
    return pop_;
  }
  [[nodiscard]] std::size_t k() const { return k_; }

  /// The underlying Ehrenfest parameters (Section 2.4).
  [[nodiscard]] const ehrenfest_params& ehrenfest() const {
    return walk_.params();
  }

  /// Normalized census: the paper's mu_t in Delta(G).
  /// Paper result (Theorem 2.7's level law), checked by tests/test_igt.cpp.
  [[nodiscard]] std::vector<double> level_distribution() const;

 private:
  abg_population pop_;
  std::size_t k_;
  coordinate_walk walk_;
};

/// Theorem 2.7 stationary probabilities over levels:
/// p_j ∝ (1/beta - 1)^{j-1}.
[[nodiscard]] std::vector<double> igt_stationary_probs(
    const abg_population& pop, std::size_t k);

/// Theorem 2.7 mixing-time upper bound in total population interactions:
/// 2 Phi log(4m) from Lemma A.8 applied to the embedded Ehrenfest chain with
/// a = gamma(1-beta), b = gamma*beta, m = gamma*n. One chain step is one
/// population interaction (the gamma factors in a and b account for
/// interactions that do not move the census), so no rescaling is needed;
/// the bound is O(k n log n / |1-2beta|) as stated in the theorem.
[[nodiscard]] double igt_mixing_upper_bound(const abg_population& pop,
                                            std::size_t k);

/// Theorem 2.7 lower bound Omega(kn): the diameter bound k*m/2 expressed in
/// population interactions.
[[nodiscard]] double igt_mixing_lower_bound(const abg_population& pop,
                                            std::size_t k);

}  // namespace ppg
