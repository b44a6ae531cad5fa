// Deterministic pseudo-random number generation.
//
// All stochastic components of the library draw from ppg::rng, a xoshiro256**
// generator seeded through splitmix64. We implement the generator and the
// derived distributions (bounded integers, reals, Bernoulli, geometric)
// ourselves instead of using <random> distributions so that simulation results
// are bit-reproducible across standard libraries and platforms.
#pragma once

#include <array>
#include <cstdint>

#include "ppg/util/error.hpp"

namespace ppg {

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 2^256-1 period.
/// Satisfies UniformRandomBitGenerator so it can also feed <random> if needed.
class rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64,
  /// as recommended by the xoshiro authors.
  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next 64 uniformly random bits.
  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) via Lemire's unbiased multiply-shift
  /// rejection method. Requires bound >= 1.
  std::uint64_t next_below(std::uint64_t bound) {
    PPG_CHECK(bound >= 1, "next_below requires a positive bound");
    // Lemire's method: multiply-shift with rejection of the biased low range.
    std::uint64_t x = (*this)();
    unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<unsigned __int128>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1) with 53 random mantissa bits.
  double next_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial: true with probability p (clamped to [0, 1]).
  bool next_bernoulli(double p);

  /// Number of failures before the first success of a Bernoulli(p) sequence
  /// (support {0, 1, 2, ...}). Requires p in (0, 1]. Draws whose inversion
  /// exceeds the 64-bit range (possible for p below ~1e-18) are clamped to
  /// the largest representable count, so the cast is always defined;
  /// callers that cap a draw at a step budget never observe the clamp.
  std::uint64_t next_geometric(double p);

  /// Derives an independent generator (for sub-streams) by jumping the state
  /// through splitmix64 of a fresh draw; cheap and collision-resistant enough
  /// for simulation sub-streams.
  rng split();

  /// The full 256-bit generator state — the generator's exact position in
  /// its stream. save() on one process and restore() on another continues
  /// the identical draw sequence; this is the substrate of the engines'
  /// bit-exact checkpoint/resume contract (pp/checkpoint.hpp).
  [[nodiscard]] std::array<std::uint64_t, 4> save() const { return state_; }

  /// Restores a state previously captured by save(). The all-zero state is
  /// rejected: it is xoshiro's fixed point and is never produced by seeding
  /// or stepping, so it can only mean a corrupt checkpoint.
  void restore(const std::array<std::uint64_t, 4>& state);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

/// The `stream`-th derived seed of a master seed: the (stream+1)-th output of
/// splitmix64 started at `master`. Counter-based (O(1) per index), so replica
/// i's seed does not depend on how many other replicas exist or in what order
/// they are created — the foundation of the batch engine's determinism.
/// splitmix64's output function is a bijection of its counter, so distinct
/// streams of one master never collide.
[[nodiscard]] std::uint64_t derive_stream_seed(std::uint64_t master,
                                               std::uint64_t stream);

/// Generator for replica `stream` of `master`: rng(derive_stream_seed(...)).
[[nodiscard]] rng make_stream_rng(std::uint64_t master, std::uint64_t stream);

}  // namespace ppg
