// Sparse finite Markov chain representation.
//
// Used for exact analysis of small state spaces: the 4-state repeated-game
// round chain, reflecting random walks, and fully enumerated Ehrenfest
// simplices (Definition 2.3) where |∆^m_k| = C(m+k-1, k-1) is modest.
#pragma once

#include <cstddef>
#include <vector>

namespace ppg {

/// One outgoing transition: probability of moving to `target`.
struct transition {
  std::size_t target = 0;
  double probability = 0.0;
};

/// Row-sparse transition matrix over states {0, ..., size-1}.
class finite_chain {
 public:
  explicit finite_chain(std::size_t num_states);

  /// Adds probability mass to the (from -> to) transition. Repeated calls
  /// accumulate.
  void add_transition(std::size_t from, std::size_t to, double probability);

  [[nodiscard]] std::size_t num_states() const { return rows_.size(); }
  [[nodiscard]] const std::vector<transition>& row(std::size_t from) const;

  /// Probability of the (from -> to) transition (0 if absent).
  [[nodiscard]] double probability(std::size_t from, std::size_t to) const;

  /// True if every row sums to 1 within tol and all entries are
  /// non-negative.
  /// Test oracle: tests/test_ehrenfest_exact.cpp checks built chains.
  [[nodiscard]] bool is_stochastic(double tol = 1e-9) const;

  /// One step of distribution evolution: returns mu * P.
  [[nodiscard]] std::vector<double> step(const std::vector<double>& mu) const;

  /// Evolves a distribution t steps.
  /// Test oracle: the exact census chain's law (tests/census_chain.hpp).
  [[nodiscard]] std::vector<double> evolve(std::vector<double> mu,
                                           std::size_t t) const;

  /// Maximum over all states x of the detailed-balance residual
  /// |pi(x) P(x,y) - pi(y) P(y,x)|; zero for reversible chains with
  /// stationary pi.
  [[nodiscard]] double detailed_balance_residual(
      const std::vector<double>& pi) const;

  /// True if the chain is irreducible (single strongly connected component
  /// over edges with positive probability).
  /// Test oracle: tests/test_ehrenfest_exact.cpp checks built chains.
  [[nodiscard]] bool is_irreducible() const;

 private:
  std::vector<std::vector<transition>> rows_;
};

}  // namespace ppg
