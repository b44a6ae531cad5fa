// Lazy biased random walks on integer intervals, with the closed-form
// absorption quantities used in the paper's coupling analysis
// (Appendix A.4.1, Propositions A.6 / A.7).
//
// The walk increments with probability `up`, decrements with probability
// `down`, and holds otherwise (up + down <= 1).
#pragma once

#include <cstdint>
#include <vector>

#include "ppg/markov/chain.hpp"
#include "ppg/util/rng.hpp"

namespace ppg {

/// Parameters of a lazy +-1 walk.
struct walk_params {
  double up = 0.5;
  double down = 0.5;
};

/// Expected number of steps for the walk started at `start` on
/// {0, 1, ..., span} (absorbing at both ends) to be absorbed. Uses the
/// standard gambler's-ruin closed form; the lazy hold probability rescales
/// time by 1/(up + down).
[[nodiscard]] double expected_absorption_time(walk_params params,
                                              std::int64_t span,
                                              std::int64_t start);

/// Probability that the walk started at `start` on {0, ..., span} is
/// absorbed at `span` (the upper barrier); equation (25) of the paper after
/// recentring {-k, ..., k} to {0, ..., 2k}.
/// Paper result, checked by tests/test_markov.cpp.
[[nodiscard]] double upper_absorption_probability(walk_params params,
                                                  std::int64_t span,
                                                  std::int64_t start);

/// Simulates the absorption time of the lazy walk; used to cross-check the
/// closed forms.
[[nodiscard]] std::uint64_t simulate_absorption_time(walk_params params,
                                                     std::int64_t span,
                                                     std::int64_t start,
                                                     rng& gen);

/// Builds the finite_chain of the lazy walk on {0, ..., size-1} with
/// *reflecting* (truncating) barriers: attempts to leave the interval hold
/// in place, exactly like the per-coordinate dynamics of the coordinate
/// representation of the Ehrenfest process (proof of Theorem 2.5).
/// Paper result, checked by tests/test_markov.cpp.
[[nodiscard]] finite_chain reflecting_walk_chain(std::size_t size,
                                                 walk_params params);

/// Stationary distribution of the reflecting walk: geometric weights
/// pi_j ∝ (up/down)^j on {0, ..., size-1}.
/// Paper result, checked by tests/test_markov.cpp.
[[nodiscard]] std::vector<double> reflecting_walk_stationary(
    std::size_t size, walk_params params);

}  // namespace ppg
