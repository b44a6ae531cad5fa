// Shared helpers for the engine-agreement suites (test_engines,
// test_game_dynamics): per-replica census statistics across engines, a
// one-sample chi-square against the exact census chain's law
// (census_chain.hpp), and a two-sample chi-square homogeneity test for
// comparing two engines where the chain is too large to evolve.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "census_chain.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/stats/chi_square.hpp"
#include "ppg/util/rng.hpp"

namespace ppg::testing {

/// Runs `replicas` independent engines of `kind` for `steps` interactions
/// each and collects a scalar census statistic per replica.
inline std::vector<double> replica_statistics(
    const sim_spec& spec, engine_kind kind, std::size_t replicas,
    std::uint64_t steps, std::uint64_t master,
    const std::function<double(const census_view&)>& statistic) {
  std::vector<double> out;
  out.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    rng gen = make_stream_rng(master, r);
    const auto engine = spec.make_engine(kind, gen);
    engine->run(steps);
    out.push_back(statistic(engine->census()));
  }
  return out;
}

/// Runs `replicas` independent engines of `kind` on `kernel` for `steps`
/// interactions each and counts the censuses they end in, indexed as the
/// chain's (a census the chain cannot reach throws).
inline std::vector<std::uint64_t> ending_census_counts(
    const sim_spec& spec, engine_kind kind,
    const std::shared_ptr<const kernel_table>& kernel, std::size_t replicas,
    std::uint64_t steps, std::uint64_t master, const census_chain& chain) {
  std::vector<std::uint64_t> out(chain.censuses.size(), 0);
  for (std::size_t r = 0; r < replicas; ++r) {
    rng gen = make_stream_rng(master, r);
    const auto engine = spec.make_engine(kind, gen, kernel);
    engine->run(steps);
    ++out[chain.index.at(engine->census().counts())];
  }
  return out;
}

/// One-sample chi-square of scalar samples against an exact discrete law
/// (value -> probability), binned at the law's quantiles into at most
/// `bins` bins; returns the upper-tail p-value, or 0 when a sample takes a
/// value the law gives no mass.
inline double exact_p(const std::vector<double>& samples,
                      const std::map<double, double>& law, std::size_t bins) {
  double total = 0.0;
  for (const auto& [value, mass] : law) total += mass;
  std::vector<double> edges;  // edges[b - 1] is bin b's smallest value
  std::vector<double> probs(1, 0.0);
  double below = 0.0;
  for (const auto& [value, mass] : law) {
    const double next_bin = total * static_cast<double>(probs.size()) /
                            static_cast<double>(bins);
    if (probs.size() < bins && probs.back() > 0.0 && below >= next_bin) {
      edges.push_back(value);
      probs.push_back(0.0);
    }
    probs.back() += mass;
    below += mass;
  }
  for (double& p : probs) p /= total;
  std::vector<std::uint64_t> observed(probs.size(), 0);
  for (const double x : samples) {
    const auto it = law.find(x);
    if (it == law.end() || it->second <= 0.0) return 0.0;  // impossible
    ++observed[static_cast<std::size_t>(
        std::upper_bound(edges.begin(), edges.end(), x) - edges.begin())];
  }
  if (probs.size() < 2) return 1.0;  // a point mass that every sample hit
  return chi_square_gof(observed, probs).p_value;
}

/// Two-sample chi-square homogeneity test on scalar samples, binned at the
/// pooled quantiles; returns the upper-tail p-value.
inline double two_sample_p(const std::vector<double>& a,
                           const std::vector<double>& b, std::size_t bins) {
  std::vector<double> pooled = a;
  pooled.insert(pooled.end(), b.begin(), b.end());
  std::sort(pooled.begin(), pooled.end());
  std::vector<double> edges;
  for (std::size_t i = 1; i < bins; ++i) {
    const double e = pooled[i * pooled.size() / bins];
    if (edges.empty() || e > edges.back()) edges.push_back(e);
  }
  const auto bin_of = [&](double x) {
    return static_cast<std::size_t>(
        std::upper_bound(edges.begin(), edges.end(), x) - edges.begin());
  };
  std::vector<double> oa(edges.size() + 1, 0.0);
  std::vector<double> ob(edges.size() + 1, 0.0);
  for (const double x : a) oa[bin_of(x)] += 1.0;
  for (const double x : b) ob[bin_of(x)] += 1.0;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double statistic = 0.0;
  double dof = -1.0;
  for (std::size_t i = 0; i < oa.size(); ++i) {
    if (oa[i] + ob[i] == 0.0) continue;
    const double d = std::sqrt(nb / na) * oa[i] - std::sqrt(na / nb) * ob[i];
    statistic += d * d / (oa[i] + ob[i]);
    dof += 1.0;
  }
  if (dof < 1.0) return 1.0;  // all mass in one bin: distributions agree
  return chi_square_tail(statistic, dof);
}

}  // namespace ppg::testing
