#include "ppg/games/solver/enumeration.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ppg/linalg/lu.hpp"
#include "ppg/linalg/matrix.hpp"
#include "ppg/util/error.hpp"

namespace ppg {

namespace {

/// Payoff slack. Enumeration scales it by max(1, payoff span): a deviation
/// may earn at most v + slack for the Nash test, strategies within it of v
/// form the best-response face, and a second-order form must exceed it to
/// count as an invasion. The pure best-response graph uses it unscaled.
constexpr double tie_tol = 1e-9;
/// Minimum support weight: solutions with any x_j below this are rejected
/// for support S (their closure appears under a smaller support).
constexpr double support_tol = 1e-9;
/// Two equilibria closer than this in L-infinity are duplicates (a
/// degenerate game can produce one point under several supports).
constexpr double dedupe_tol = 1e-7;

/// Solution of one support's indifference system, before the Nash test.
struct support_solution {
  std::vector<double> mix;  ///< full-length, zeros off the support
  double payoff = 0.0;
  double residual = 0.0;
  bool valid = false;
};

/// Solves { sum_j a(i,j) x_j - v = 0 (i in S); sum_j x_j = 1 } for the
/// support weights and the common payoff v. Invalid when the system is
/// singular or any weight falls below support_tol.
support_solution solve_support(const game_matrix& g,
                               const std::vector<std::size_t>& support) {
  const std::size_t m = support.size();
  matrix system(m + 1, m + 1);
  std::vector<double> rhs(m + 1, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      system(i, j) = g.payoff(support[i], support[j]);
    }
    system(i, m) = -1.0;  // the -v column of the indifference rows
  }
  for (std::size_t j = 0; j < m; ++j) system(m, j) = 1.0;
  rhs[m] = 1.0;

  support_solution out;
  std::vector<double> solution;
  try {
    solution = lu_decomposition(std::move(system)).solve(std::move(rhs));
  } catch (const invariant_error&) {
    return out;  // singular: this support carries no isolated equilibrium
  }
  for (std::size_t j = 0; j < m; ++j) {
    if (!(solution[j] >= support_tol)) return out;  // also rejects NaN
  }
  out.mix.assign(g.num_strategies(), 0.0);
  double total = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    out.mix[support[j]] = solution[j];
    total += solution[j];
  }
  out.payoff = solution[m];
  out.residual = std::abs(total - 1.0);
  for (auto& w : out.mix) w /= total;
  for (std::size_t j = 0; j < m; ++j) {
    out.residual = std::max(
        out.residual,
        std::abs(g.expected_payoff(support[j], out.mix) - out.payoff));
  }
  out.valid = true;
  return out;
}

/// z^T C z for C = (A + A^T)/2 — the quadratic form of the second-order
/// (ESS) condition; the antisymmetric part of A never contributes.
double symmetric_form(const game_matrix& g, const std::vector<double>& z) {
  double q = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    if (z[i] == 0.0) continue;
    for (std::size_t j = 0; j < z.size(); ++j) {
      if (z[j] == 0.0) continue;
      q += z[i] * z[j] * 0.5 * (g.payoff(i, j) + g.payoff(j, i));
    }
  }
  return q;
}

/// True iff C restricted to the tangent space of the simplex face on
/// `face` (directions e_{face[k]} - e_{face[0]}) is negative definite,
/// by Sylvester's criterion on the negated restricted form.
bool negative_definite_on_face(const game_matrix& g,
                               const std::vector<std::size_t>& face) {
  const std::size_t m = face.size() - 1;
  if (m == 0) return true;  // zero-dimensional tangent space: vacuous
  matrix restricted(m, m);
  const auto c = [&](std::size_t i, std::size_t j) {
    return 0.5 * (g.payoff(i, j) + g.payoff(j, i));
  };
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t l = 0; l < m; ++l) {
      const std::size_t a = face[k + 1];
      const std::size_t b = face[l + 1];
      const std::size_t o = face[0];
      // (e_a - e_o)^T C (e_b - e_o), negated for the positive-definite test.
      restricted(k, l) = -(c(a, b) - c(a, o) - c(o, b) + c(o, o));
    }
  }
  for (std::size_t k = 1; k <= m; ++k) {
    matrix leading(k, k);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) leading(i, j) = restricted(i, j);
    }
    try {
      if (!(lu_decomposition(std::move(leading)).determinant() > 0.0)) {
        return false;
      }
    } catch (const invariant_error&) {
      return false;  // numerically singular minor: not definite
    }
  }
  return true;
}

equilibrium_stability classify(const game_matrix& g,
                               const symmetric_equilibrium& eq) {
  const std::size_t q = g.num_strategies();
  const double scale = std::max(1.0, g.payoff_span());
  // The best-response face: strategies within tie_tol of the equilibrium
  // payoff. Mutants outside it are strictly repelled to first order, so
  // stability is decided entirely on this face.
  std::vector<std::size_t> face;
  for (std::size_t i = 0; i < q; ++i) {
    if (g.expected_payoff(i, eq.mix) >= eq.payoff - tie_tol * scale) {
      face.push_back(i);
    }
  }
  if (face.size() <= 1) return equilibrium_stability::ess;  // strict Nash
  if (negative_definite_on_face(g, face)) return equilibrium_stability::ess;

  // Probe feasible invasion directions for a strictly positive form. Mass
  // may move from any support strategy toward any face strategy, and sums
  // of two such moves stay feasible (x has positive weight to give on the
  // support side); a positive value certifies a mutant that invades.
  const bool face_equals_support = face.size() == eq.support.size();
  std::vector<std::vector<double>> probes;
  for (const std::size_t a : face) {
    for (const std::size_t b : eq.support) {
      if (a == b) continue;
      std::vector<double> z(q, 0.0);
      z[a] += 1.0;
      z[b] -= 1.0;
      probes.push_back(std::move(z));
    }
  }
  const double positive = tie_tol * scale;
  const std::size_t pairwise = probes.size();
  for (std::size_t i = 0; i < pairwise; ++i) {
    for (std::size_t j = i + 1; j < pairwise; ++j) {
      std::vector<double> z(q, 0.0);
      for (std::size_t s = 0; s < q; ++s) z[s] = probes[i][s] + probes[j][s];
      probes.push_back(std::move(z));
    }
  }
  for (const auto& z : probes) {
    if (symmetric_form(g, z) > positive) {
      return equilibrium_stability::unstable;
    }
  }
  // No invader among the probes and the definiteness test failed: a
  // neutral direction exists. With face == support every probe direction
  // is feasible in both signs and the probes span the tangent space, so
  // the point is neutrally stable; a proper face leaves feasible cone
  // directions the finite probe set cannot certify either way.
  return face_equals_support ? equilibrium_stability::neutrally_stable
                             : equilibrium_stability::indeterminate;
}

}  // namespace

const char* equilibrium_stability_name(equilibrium_stability s) {
  switch (s) {
    case equilibrium_stability::ess:
      return "ESS";
    case equilibrium_stability::neutrally_stable:
      return "neutrally-stable";
    case equilibrium_stability::unstable:
      return "unstable";
    case equilibrium_stability::indeterminate:
      return "indeterminate";
  }
  return "unknown";
}

std::vector<symmetric_equilibrium> enumerate_symmetric_equilibria(
    const game_matrix& g) {
  const std::size_t q = g.num_strategies();
  PPG_CHECK(q <= 12,
            "support enumeration sweeps 2^q supports; use the homotopy "
            "follower for q > 12");
  const double scale = std::max(1.0, g.payoff_span());

  // Supports in (size, lexicographic) order, so pure equilibria list first
  // and duplicates resolve toward the smallest support.
  std::vector<std::uint32_t> masks;
  masks.reserve((std::size_t{1} << q) - 1);
  for (std::uint32_t mask = 1; mask < (std::uint32_t{1} << q); ++mask) {
    masks.push_back(mask);
  }
  std::stable_sort(masks.begin(), masks.end(),
                   [](std::uint32_t a, std::uint32_t b) {
                     const int pa = __builtin_popcount(a);
                     const int pb = __builtin_popcount(b);
                     return pa != pb ? pa < pb : a < b;
                   });

  std::vector<symmetric_equilibrium> found;
  for (const std::uint32_t mask : masks) {
    std::vector<std::size_t> support;
    for (std::size_t s = 0; s < q; ++s) {
      if ((mask >> s) & 1u) support.push_back(s);
    }
    auto solution = solve_support(g, support);
    if (!solution.valid) continue;
    bool nash = true;
    for (std::size_t i = 0; i < q && nash; ++i) {
      if ((mask >> i) & 1u) continue;
      nash = g.expected_payoff(i, solution.mix) <=
             solution.payoff + tie_tol * scale;
    }
    if (!nash) continue;
    bool duplicate = false;
    for (const auto& other : found) {
      double gap = 0.0;
      for (std::size_t s = 0; s < q; ++s) {
        gap = std::max(gap, std::abs(other.mix[s] - solution.mix[s]));
      }
      if (gap < dedupe_tol) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    symmetric_equilibrium eq;
    eq.mix = std::move(solution.mix);
    eq.support = std::move(support);
    eq.payoff = solution.payoff;
    eq.residual = solution.residual;
    eq.pure = eq.support.size() == 1;
    eq.stability = classify(g, eq);
    found.push_back(std::move(eq));
  }
  return found;
}

best_response_cycles find_best_response_cycles(const game_matrix& g) {
  const std::size_t q = g.num_strategies();
  best_response_cycles out;
  out.best_response.resize(q);
  for (std::size_t s = 0; s < q; ++s) {
    // best_responses_to_pure reports every strategy within the tie
    // tolerance of the maximum, ascending; the lowest index wins a tie.
    out.best_response[s] = g.best_responses_to_pure(s, tie_tol).front();
  }
  // Cycle extraction in the functional graph: walk each unvisited node;
  // a walk that re-enters itself closes exactly one new cycle.
  std::vector<std::uint8_t> state(q, 0);  // 0 new, 1 on this walk, 2 done
  for (std::size_t start = 0; start < q; ++start) {
    if (state[start] != 0) continue;
    std::vector<std::size_t> walk;
    std::size_t node = start;
    while (state[node] == 0) {
      state[node] = 1;
      walk.push_back(node);
      node = out.best_response[node];
    }
    if (state[node] == 1) {
      const auto entry = std::find(walk.begin(), walk.end(), node);
      std::vector<std::size_t> cycle(entry, walk.end());
      std::rotate(cycle.begin(),
                  std::min_element(cycle.begin(), cycle.end()), cycle.end());
      out.has_nontrivial_cycle =
          out.has_nontrivial_cycle || cycle.size() >= 2;
      out.cycles.push_back(std::move(cycle));
    }
    for (const std::size_t visited : walk) state[visited] = 2;
  }
  std::sort(out.cycles.begin(), out.cycles.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return out;
}

}  // namespace ppg
