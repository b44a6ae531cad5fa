// The protocol abstraction and its transition kernel. A population protocol
// is described once by its state-pair kernel (outcome_distribution); the
// kernel_table below is the flattened, validated form the census, batched
// and multibatch engines sample from, so per-interaction work is independent
// of the population size. Execution backends live in pp/engine.hpp. See
// DESIGN.md §2 for the kernel contract.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ppg/pp/population.hpp"
#include "ppg/util/rng.hpp"

namespace ppg {

/// One support point of a transition kernel: the post-interaction
/// (initiator, responder) states and their probability.
struct outcome {
  agent_state initiator = 0;
  agent_state responder = 0;
  double probability = 1.0;
};

/// A population protocol: a (possibly randomized) transition function over
/// ordered pairs of states.
///
/// Protocols have two equivalent descriptions and may implement either:
///  - the *kernel view*: outcome_distribution(q_i, q_r) enumerates the finite
///    distribution over post-interaction pairs (override it and has_kernel);
///    interact() then defaults to sampling that distribution, so kernel
///    protocols only write one function;
///  - the *sampling view*: interact(q_i, q_r, gen) draws the post-interaction
///    pair directly. Protocols whose randomness is impractical to enumerate
///    (e.g. igt_action_protocol's repeated-game rollouts) implement only this
///    and are restricted to the agent engine.
/// Deterministic protocols get a fast path for free: a single-support-point
/// distribution is applied without consuming random draws.
class protocol {
 public:
  virtual ~protocol() = default;
  protocol() = default;
  protocol(const protocol&) = default;
  protocol& operator=(const protocol&) = default;

  /// Size of the local state space.
  [[nodiscard]] virtual std::size_t num_states() const = 0;

  /// Whether outcome_distribution is implemented. Engines that execute at
  /// the census level (census, batched, multibatch) require a kernel.
  [[nodiscard]] virtual bool has_kernel() const { return false; }

  /// The finite distribution over post-interaction (q_i', q_r') pairs for an
  /// ordered (initiator, responder) state pair. Probabilities must be
  /// positive and sum to 1. The default implementation throws; override it
  /// together with has_kernel.
  [[nodiscard]] virtual std::vector<outcome> outcome_distribution(
      agent_state initiator, agent_state responder) const;

  /// New (initiator, responder) states after an interaction. The default
  /// implementation samples outcome_distribution (consuming one uniform draw
  /// only when the distribution has more than one support point).
  [[nodiscard]] virtual std::pair<agent_state, agent_state> interact(
      agent_state initiator, agent_state responder, rng& gen) const;

  /// Human-readable state name (for traces and examples).
  [[nodiscard]] virtual std::string state_name(agent_state state) const;
};

/// Flattened, validated kernel of a protocol over its q = num_states()
/// ordered state pairs. Construction checks, for every pair, that outcome
/// states are in range and probabilities are positive and sum to 1 (up to
/// 1e-9); deterministic pairs (a single support point) are sampled without
/// consuming random draws.
class kernel_table {
 public:
  explicit kernel_table(const protocol& proto);

  [[nodiscard]] std::size_t num_states() const { return q_; }

  /// Whether the pair's distribution is a point mass on (initiator,
  /// responder) itself — the interaction can never change any state.
  [[nodiscard]] bool identity(agent_state initiator,
                              agent_state responder) const {
    return identity_[index(initiator, responder)];
  }

  /// Whether the pair's distribution has a single support point.
  [[nodiscard]] bool deterministic(agent_state initiator,
                                   agent_state responder) const;

  /// Whether every pair is deterministic.
  [[nodiscard]] bool fully_deterministic() const {
    return fully_deterministic_;
  }

  /// Samples (q_i', q_r') for the ordered pair; consumes one uniform draw
  /// only when the pair has more than one support point.
  [[nodiscard]] std::pair<agent_state, agent_state> sample(
      agent_state initiator, agent_state responder, rng& gen) const;

  /// Number of support points of the pair's distribution.
  [[nodiscard]] std::size_t num_outcomes(agent_state initiator,
                                         agent_state responder) const {
    const std::size_t pair = index(initiator, responder);
    return offsets_[pair + 1] - offsets_[pair];
  }

  /// The `k`-th support point of the pair's distribution, with its
  /// (non-cumulative) probability — the enumeration the multibatch engine
  /// draws its per-pair multinomial outcome splits over.
  [[nodiscard]] outcome outcome_at(agent_state initiator,
                                   agent_state responder,
                                   std::size_t k) const;

 private:
  struct entry {
    agent_state initiator = 0;
    agent_state responder = 0;
    double cumulative = 0.0;  ///< inclusive cumulative probability
  };

  [[nodiscard]] std::size_t index(agent_state initiator,
                                  agent_state responder) const {
    return static_cast<std::size_t>(initiator) * q_ +
           static_cast<std::size_t>(responder);
  }

  std::size_t q_;
  std::vector<std::uint32_t> offsets_;  ///< q_*q_ + 1 entry offsets
  std::vector<entry> entries_;
  std::vector<std::uint8_t> identity_;
  bool fully_deterministic_ = true;
};

}  // namespace ppg
