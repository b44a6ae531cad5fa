// One-dimensional projections of the Ehrenfest process.
//
// For k = 2 the count chain is fully determined by its first coordinate,
// whose transition matrix over {0, ..., m} is the birth-death chain of
// expression (11) in the paper (Appendix A.1). Working in this projected
// space costs O(m) states instead of O(m) simplex points — the same here —
// but crucially the *transition matrix* is tridiagonal, so exact TV-decay
// curves are cheap even for m in the thousands. This enables the
// large-m cutoff measurements of experiment E8.
#pragma once

#include <cstdint>
#include <vector>

#include "ppg/ehrenfest/process.hpp"
#include "ppg/markov/chain.hpp"

namespace ppg {

/// The projected first-coordinate chain of a (2, a, b, m)-Ehrenfest process
/// (expression (11)): from load x of urn 1,
///   x -> x+1 with probability b (m-x)/m,
///   x -> x-1 with probability a x/m,
///   x -> x   otherwise.
[[nodiscard]] finite_chain two_urn_projected_chain(
    const ehrenfest_params& params);

/// Proposition A.1 stationary law of the projection: Binomial(m, p) over
/// the urn-1 load with p = 1/(1 + lambda).
[[nodiscard]] std::vector<double> two_urn_projected_stationary(
    const ehrenfest_params& params);

/// For general k, the *aggregate* load of a prefix of urns {1, ..., j} is
/// not Markov; but the per-ball level marginal is the reflecting walk on
/// {0, ..., k-1} (see reflecting_walk_chain). This helper returns the exact
/// marginal distribution of a single ball's level after t steps of the
/// (k, a, b, m) process, starting from level `start` — each ball's level
/// evolves as an independent lazy walk selected with probability 1/m per
/// step, so the t-step marginal is the reflecting walk evolved under a
/// binomially-thinned clock. Computed exactly by conditioning on the
/// number of times the ball was selected (truncated at negligible tail
/// mass).
/// Paper result, checked by tests/test_birth_death.cpp.
[[nodiscard]] std::vector<double> single_ball_marginal(
    const ehrenfest_params& params, std::size_t start, std::uint64_t t);

}  // namespace ppg
