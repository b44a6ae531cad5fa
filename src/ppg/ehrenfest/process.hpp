// The (k, a, b, m)-Ehrenfest process (Definition 2.3): a Markov chain on the
// integer simplex ∆^m_k = {x in N^k : sum x = m}. At each step a ball is
// drawn proportionally to urn load; it moves one urn up with probability a,
// one urn down with probability b, and stays otherwise (movement off the
// ends is truncated into a hold).
//
// This file provides the count-vector simulation; coordinate_walk.hpp
// provides the equivalent O(1)-per-step ball-coordinate representation used
// in the paper's coupling proof.
#pragma once

#include <cstdint>
#include <vector>

#include "ppg/util/rng.hpp"

namespace ppg {

/// Parameters of the (k, a, b, m)-Ehrenfest process.
struct ehrenfest_params {
  std::size_t k = 2;     ///< number of urns (dimensions), k >= 2
  double a = 0.25;       ///< up-move probability
  double b = 0.25;       ///< down-move probability
  std::uint64_t m = 10;  ///< number of balls

  [[nodiscard]] bool valid() const {
    return k >= 2 && a > 0.0 && b > 0.0 && a + b <= 1.0 + 1e-12 && m >= 1;
  }

  /// The bias ratio lambda = a/b that parameterizes the stationary law.
  [[nodiscard]] double lambda() const { return a / b; }
};

/// Count-vector simulation of the process. State: counts[j] = number of
/// balls in urn j (0-indexed; urn j here is the paper's urn j+1).
class ehrenfest_process {
 public:
  ehrenfest_process(ehrenfest_params params,
                    std::vector<std::uint64_t> initial_counts);

  /// All m balls in urn 0 (`bottom`) or urn k-1 (`top`): the extreme corner
  /// states used as worst-case starts in mixing measurements.
  [[nodiscard]] static ehrenfest_process at_corner(ehrenfest_params params,
                                                   bool top);

  /// One step of the chain (one potential ball move).
  void step(rng& gen);

  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }
  [[nodiscard]] std::uint64_t time() const { return time_; }
  [[nodiscard]] const ehrenfest_params& params() const { return params_; }

 private:
  ehrenfest_params params_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t time_ = 0;
};

}  // namespace ppg
