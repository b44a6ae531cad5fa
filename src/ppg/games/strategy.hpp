// Strategies for repeated games.
//
// The engine implements general *memory-one* strategies (cooperation
// probability conditioned on the previous joint state), which subsume every
// strategy the paper uses — AC, AD, and GTFT are all memory-one — plus the
// classics (TFT, GRIM, Win-Stay-Lose-Shift) used in tests and examples.
#pragma once

#include <array>
#include <vector>

#include "ppg/games/donation.hpp"

namespace ppg {

/// A memory-one strategy: probability of cooperating in round 1, and
/// probability of cooperating in round r+1 given the joint state of round r
/// *from this player's perspective* (their own action first).
struct memory_one_strategy {
  double initial_cooperation = 1.0;
  /// Indexed by game_state (mine, opponent's): CC, CD, DC, DD.
  std::array<double, num_game_states> cooperate_given{1.0, 1.0, 1.0, 1.0};

  /// All probabilities within [0, 1].
  [[nodiscard]] bool valid() const;

  /// Probability of cooperating after observing joint state `s` (from this
  /// player's perspective).
  [[nodiscard]] double response(game_state s) const {
    return cooperate_given[static_cast<std::size_t>(s)];
  }
};

/// AC: cooperate unconditionally.
[[nodiscard]] memory_one_strategy always_cooperate();

/// AD: defect unconditionally.
[[nodiscard]] memory_one_strategy always_defect();

/// TFT: repeat the opponent's previous action; cooperates in round 1 with
/// probability s1 (classically 1).
[[nodiscard]] memory_one_strategy tit_for_tat(double s1 = 1.0);

/// GTFT with generosity g (Section 1.1.2): round 1 cooperates w.p. s1;
/// afterwards repeats the opponent's action w.p. 1-g and cooperates w.p. g
/// (equivalently: C after opponent-C always, C w.p. g after opponent-D).
[[nodiscard]] memory_one_strategy generous_tit_for_tat(double g, double s1);

/// GRIM trigger: cooperate until anyone defects, then defect forever.
/// (Memory-one approximation: cooperate only after mutual cooperation.)
[[nodiscard]] memory_one_strategy grim(double s1 = 1.0);

/// Win-Stay-Lose-Shift (Pavlov): repeat your action after R or T, switch
/// after S or P.
[[nodiscard]] memory_one_strategy win_stay_lose_shift(double s1 = 1.0);

/// The paper's strategy set S = {AC, AD, g_1, ..., g_k}.
enum class strategy_kind : std::uint8_t { ac = 0, ad = 1, gtft = 2 };

/// A strategy in the paper's set: AC, AD, or GTFT with a generosity value.
struct paper_strategy {
  strategy_kind kind = strategy_kind::gtft;
  double generosity = 0.0;  ///< meaningful only for kind == gtft

  [[nodiscard]] static paper_strategy ac() { return {strategy_kind::ac, 0.0}; }
  [[nodiscard]] static paper_strategy ad() { return {strategy_kind::ad, 0.0}; }
  [[nodiscard]] static paper_strategy gtft(double g) {
    return {strategy_kind::gtft, g};
  }

  /// Lowers to the memory-one engine representation. `s1` is the initial
  /// cooperation probability shared by all GTFT agents (Definition 2.1).
  [[nodiscard]] memory_one_strategy to_memory_one(double s1) const;
};

/// The discretized generosity grid G = {g_1, ..., g_k} with
/// g_j = g_max * (j-1)/(k-1) (Definition 2.1). Requires k >= 2.
[[nodiscard]] std::vector<double> generosity_grid(std::size_t k,
                                                  double g_max);

/// Execution noise (the robustness motivation of Section 1.1.2): each
/// *performed* action flips with probability `noise`. Because memory-one
/// strategies condition on the executed (observed) actions, the noisy game
/// between two strategies is *exactly* the noise-free game between their
/// perturbed versions with every cooperation probability mapped
/// p -> p(1-noise) + (1-p)noise. This function applies that map.
[[nodiscard]] memory_one_strategy perturbed(const memory_one_strategy& s,
                                            double noise);

}  // namespace ppg
