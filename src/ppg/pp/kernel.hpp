// The protocol abstraction and its transition kernel. A population protocol
// is described once by its state-pair kernel (outcome_distribution); the
// kernel_table below is the flattened, validated form every engine samples
// from, so per-interaction work is independent of the population size.
// Execution backends live in pp/engine.hpp. See DESIGN.md §2 for the kernel
// contract.
#pragma once

#include <array>
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
/// ordered pairs of states, described once by its kernel:
/// outcome_distribution(q_i, q_r) enumerates the finite distribution over
/// post-interaction pairs. Every engine, the agent engine included, compiles
/// it into a kernel_table and draws each interaction from
/// kernel_table::sample.
class protocol {
 public:
  virtual ~protocol() = default;
  protocol() = default;
  protocol(const protocol&) = default;
  protocol& operator=(const protocol&) = default;

  /// Size of the local state space.
  [[nodiscard]] virtual std::size_t num_states() const = 0;

  /// The finite distribution over post-interaction (q_i', q_r') pairs for an
  /// ordered (initiator, responder) state pair. Outcome states must be below
  /// num_states(), and probabilities positive and summing to 1;
  /// kernel_table's constructor checks both.
  [[nodiscard]] virtual std::vector<outcome> outcome_distribution(
      agent_state initiator, agent_state responder) const = 0;

  /// Human-readable state name (for traces and examples).
  [[nodiscard]] virtual std::string state_name(agent_state state) const;
};

/// Flattened, validated kernel of a protocol over its q = num_states()
/// ordered state pairs. Construction checks, for every pair, that outcome
/// states are in range and probabilities are positive and sum to 1 (up to
/// 1e-9); deterministic pairs (a single support point) are sampled without
/// consuming random draws. Every pair with more than one support point gets
/// a Vose alias table, so sample() draws one outcome in O(1) whatever the
/// support.
///
/// Construction also compiles the *responder classes* the multibatch
/// engine's round matches against. An initiator row u is *one-way* when no
/// outcome of any pair (u, v) moves the responder; such a row needs the
/// responder's state only through the initiator distribution it induces.
/// Responders v and v' share a class when every one-way row gives them the
/// same (initiator', probability) sequence, compared exactly — the common
/// refinement of the one-way rows' responder partitions. One scan in state
/// order compiles them: each responder joins the first class whose
/// representative (its smallest member) matches it on every
/// responder-dependent one-way row, or else starts a new class, so classes
/// are numbered by smallest member. Each row then takes one of three
/// shapes (row_shape).
///
/// Last, construction recognizes a *partner-keyed* kernel: one where an
/// initiator's next state depends only on its responder's state, and the
/// responder's only on its initiator's, independently. Every pair (u, v)
/// must have pair (0, v)'s initiator marginal f(.|v), pointwise within
/// 1e-12. Unless no outcome moves its responder (responders_stay()), it
/// must also have pair (u, 0)'s responder marginal g(.|u), each support
/// point's mass must be f(x|v) g(y|u) within 1e-12, and those products
/// must cover mass 1 within 1e-12. Two-way logit is such a kernel (the
/// rule ignores its own strategy, and two-way revision is the independent
/// product), and so is one-way logit. The multibatch engine then draws a
/// round's outcomes from the partner laws alone, without a matching.
class kernel_table {
 public:
  /// How an initiator row's outcome depends on its responder.
  enum class row_shape : std::uint8_t {
    /// Any row that is neither of the below: some outcome moves the
    /// responder, or the row is one-way but every responder is its own
    /// class (C = q), where classing buys nothing.
    general,
    /// One-way, and depends on the responder only through its class, with
    /// fewer classes than states (C < q): k-IGT's GTFT rows.
    classed,
    /// One-way with the same initiator distribution for every responder:
    /// k-IGT's AC and AD rows, and every identity row.
    ignores,
  };

  /// Slot s of a pair's alias table over its K support points: it carries
  /// mass threshold / K of outcome s and (1 - threshold) / K of outcome
  /// `alias`, so outcome k's probability is the sum of its slot masses.
  struct alias_slot {
    double threshold = 1.0;  ///< in [0, 1]; 1 means the slot never aliases
    std::uint32_t alias = 0;  ///< outcome index k, relative to the pair
  };

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

  /// Number of support points of the pair's distribution.
  [[nodiscard]] std::size_t num_outcomes(agent_state initiator,
                                         agent_state responder) const {
    const std::size_t pair = index(initiator, responder);
    return offsets_[pair + 1] - offsets_[pair];
  }

  /// The `k`-th support point of the pair's distribution, with its stored
  /// probability — the enumeration the multibatch engine splits a cell's
  /// pairs over when it takes the multinomial branch.
  [[nodiscard]] outcome outcome_at(agent_state initiator,
                                   agent_state responder,
                                   std::size_t k) const;

  /// The pair's num_outcomes probabilities, in outcome_at order: the
  /// vector a multinomial split of the pair's cell draws from.
  [[nodiscard]] const double* probabilities(agent_state initiator,
                                            agent_state responder) const {
    return probabilities_.data() + offsets_[index(initiator, responder)];
  }

  /// Draws (q_i', q_r') for the ordered pair: every engine's per-pair
  /// draw. A deterministic pair returns its outcome without a draw. Any
  /// other pair draws from its alias table with one 64-bit word (a further
  /// word with probability below support / 2^64): a uniform slot, then a
  /// uniform against the slot's threshold — O(1) whatever the support, and
  /// the kernel's law to within 2^-53 + 2 * support * 2^-64 per draw (a
  /// partner-keyed round's laws are within q^2 * 1e-12 / 2; see
  /// partner_keyed()). The states are not range-checked: engines reject
  /// agents in states >= num_states() before they sample.
  [[nodiscard]] std::pair<agent_state, agent_state> sample(
      agent_state initiator, agent_state responder, rng& gen) const {
    const std::size_t pair = index(initiator, responder);
    const std::uint32_t begin = offsets_[pair];
    const std::uint64_t size = offsets_[pair + 1] - begin;
    if (size == 1) {
      return {entries_[begin].initiator, entries_[begin].responder};
    }
    // Lemire's multiply-shift with rejection, as in rng::next_below: the
    // high word is the uniform slot, and the low word, uniform on a grid
    // of spacing size / 2^64 given the slot, supplies the threshold test's
    // 53-bit uniform.
    unsigned __int128 product = static_cast<unsigned __int128>(gen()) * size;
    if (static_cast<std::uint64_t>(product) < size) {
      const std::uint64_t reject = -size % size;
      while (static_cast<std::uint64_t>(product) < reject) {
        product = static_cast<unsigned __int128>(gen()) * size;
      }
    }
    const std::size_t s = begin + static_cast<std::size_t>(product >> 64);
    const double u =
        static_cast<double>(static_cast<std::uint64_t>(product) >> 11) *
        0x1.0p-53;
    const alias_slot& slot = alias_[s];
    const std::size_t e = u < slot.threshold ? s : begin + slot.alias;
    return {entries_[e].initiator, entries_[e].responder};
  }

  /// One partner's law in a partner-keyed kernel: the states of positive
  /// mass, in increasing order, and their probabilities. Only the support
  /// is stored, because sample_multinomial puts its rounding remainder in
  /// the last category it is given.
  struct partner_law {
    const agent_state* states = nullptr;
    const double* probabilities = nullptr;
    std::size_t size = 0;
  };

  /// Whether the kernel is partner-keyed (class comment). Drawing a pair's
  /// outcome as f(.|v) x g(.|u), or f(.|v) with the responder kept, is
  /// then the kernel's law within 1e-12 per support point: total
  /// variation within q^2 * 1e-12 / 2 per draw, against sample()'s 2^-53.
  [[nodiscard]] bool partner_keyed() const { return !law_offsets_.empty(); }

  /// Whether no outcome of any pair moves its responder.
  [[nodiscard]] bool responders_stay() const { return responders_stay_; }

  /// f(.|v): the initiator's next-state law given responder state v, in a
  /// partner-keyed kernel.
  [[nodiscard]] partner_law initiator_law(agent_state responder) const {
    return law(responder);
  }

  /// g(.|u): the responder's next-state law given initiator state u, in a
  /// partner-keyed kernel whose responders do not stay.
  [[nodiscard]] partner_law responder_law(agent_state initiator) const {
    return law(q_ + initiator);
  }

  /// The `s`-th slot of the pair's alias table (s < num_outcomes);
  /// exposed for the law tests.
  [[nodiscard]] alias_slot alias_at(agent_state initiator,
                                    agent_state responder,
                                    std::size_t s) const;

  /// The initiator rows of one shape, in increasing state order.
  [[nodiscard]] const std::vector<agent_state>& rows(row_shape s) const {
    return rows_[static_cast<std::size_t>(s)];
  }

  /// C, the number of responder classes (1 when no row is one-way and
  /// responder-dependent). Classed rows exist only when C < q.
  [[nodiscard]] std::size_t num_responder_classes() const {
    return representatives_.size();
  }

  /// The class of responder state `responder`, in [0, C).
  [[nodiscard]] std::uint32_t responder_class(agent_state responder) const {
    return classes_[responder];
  }

  /// The smallest state of class `c`: a classed row u applies the
  /// outcome law of the pair (u, class_representative(c)) to every
  /// responder of the class.
  [[nodiscard]] agent_state class_representative(std::size_t c) const {
    return representatives_[c];
  }

 private:
  struct entry {
    agent_state initiator = 0;
    agent_state responder = 0;
  };

  [[nodiscard]] std::size_t index(agent_state initiator,
                                  agent_state responder) const {
    return static_cast<std::size_t>(initiator) * q_ +
           static_cast<std::size_t>(responder);
  }

  /// Whether pairs (u, a) and (u, b) have the same (initiator',
  /// probability) sequence, compared exactly.
  [[nodiscard]] bool same_initiator_law(agent_state u, agent_state a,
                                        agent_state b) const;
  void compile_responder_classes();
  void compile_partner_laws();
  [[nodiscard]] partner_law law(std::size_t k) const {
    const std::uint32_t begin = law_offsets_[k];
    return {law_states_.data() + begin, law_probabilities_.data() + begin,
            law_offsets_[k + 1] - begin};
  }

  std::size_t q_;
  std::vector<std::uint32_t> offsets_;  ///< q_*q_ + 1 entry offsets
  std::vector<entry> entries_;
  std::vector<double> probabilities_;  ///< parallel to entries_
  std::vector<alias_slot> alias_;      ///< parallel to entries_
  std::vector<std::uint8_t> identity_;
  std::array<std::vector<agent_state>, 3> rows_;  ///< rows by shape
  std::vector<std::uint32_t> classes_;            ///< per responder state
  std::vector<agent_state> representatives_;      ///< per class
  bool responders_stay_ = true;
  /// Partner laws, empty unless partner-keyed: f(.|v) for v < q, then
  /// g(.|u) at q + u unless responders stay; supports only.
  std::vector<std::uint32_t> law_offsets_;
  std::vector<agent_state> law_states_;
  std::vector<double> law_probabilities_;
};

}  // namespace ppg
