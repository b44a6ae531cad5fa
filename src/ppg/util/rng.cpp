#include "ppg/util/rng.hpp"

#include <cmath>

namespace ppg {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

rng::rng(std::uint64_t seed) {
  // splitmix64 guarantees the state is not all-zero (a fixed point of
  // xoshiro) for any seed, since its outputs are a bijection of the counter.
  for (auto& word : state_) {
    word = splitmix64(seed);
  }
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;  // unreachable in practice; defensive against UB in rotl
  }
}

bool rng::next_bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

std::uint64_t rng::next_geometric(double p) {
  PPG_CHECK(p > 0.0 && p <= 1.0, "next_geometric requires p in (0, 1]");
  if (p == 1.0) return 0;
  // Inversion: floor(log(U) / log1p(-p)) for U uniform on (0, 1). log1p
  // keeps the denominator accurate for p near 0, where log(1-p) would lose
  // all precision to cancellation.
  double u = next_double();
  while (u <= 0.0) u = next_double();
  const double skips = std::floor(std::log(u) / std::log1p(-p));
  // For tiny p the inversion can exceed the 64-bit range (p = 1e-300 gives
  // skips ~ 1e302); the double -> uint64 cast would then be undefined.
  // Clamp to the largest representable skip count — callers always cap a
  // geometric draw at a finite step budget, so the clamp is unobservable.
  constexpr double max_skips = 18446744073709549568.0;  // largest ok double
  if (skips >= max_skips) return static_cast<std::uint64_t>(max_skips);
  return static_cast<std::uint64_t>(skips);
}

rng rng::split() {
  return rng((*this)());
}

void rng::restore(const std::array<std::uint64_t, 4>& state) {
  PPG_CHECK(state[0] != 0 || state[1] != 0 || state[2] != 0 || state[3] != 0,
            "rng::restore: the all-zero state is not a reachable xoshiro "
            "state (corrupt checkpoint?)");
  state_ = state;
}

std::uint64_t derive_stream_seed(std::uint64_t master, std::uint64_t stream) {
  // Jump the splitmix64 counter directly to position `stream`: adding the
  // golden-ratio increment (stream+1) times is one multiplication.
  std::uint64_t counter = master + stream * 0x9e3779b97f4a7c15ull;
  return splitmix64(counter);
}

rng make_stream_rng(std::uint64_t master, std::uint64_t stream) {
  return rng(derive_stream_seed(master, stream));
}

}  // namespace ppg
