// The k-IGT (Incremental Generosity Tuning) dynamics as a population
// protocol (Definition 2.1).
//
// Agent state encoding: 0 = AC, 1 = AD, 2 + j = GTFT with generosity level
// j in {0, ..., k-1} (level j is the paper's g_{j+1}). Only a GTFT initiator
// ever updates (one-way protocol):
//   level j  meets AC or GTFT  ->  level min(j+1, k-1)
//   level j  meets AD          ->  level max(j-1, 0)
//
// igt_protocol keys transitions on the responder's *strategy type* (the
// paper's Definition 2.1): it is the generic game_protocol compilation of
// igt_game_matrix with igt_ladder_rule, kept as the canonical name;
// tests/test_game_dynamics.cpp pins its kernel pointwise to a hand-written
// Definition 2.1 transition function.
#pragma once

#include <cstdint>
#include <vector>

#include "ppg/core/population_config.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/pp/census.hpp"

namespace ppg {

/// State-encoding helpers shared by igt_protocol, igt_game_matrix and
/// igt_ladder_rule, which follow the same ordering.
struct igt_encoding {
  static constexpr agent_state ac = 0;
  static constexpr agent_state ad = 1;
  static constexpr agent_state first_gtft = 2;

  [[nodiscard]] static bool is_gtft(agent_state s) { return s >= first_gtft; }
  /// GTFT level of a GTFT state. Test oracle: the reference IGT update in
  /// tests/test_game_dynamics.cpp.
  [[nodiscard]] static std::size_t level(agent_state s);
  [[nodiscard]] static agent_state gtft(std::size_t level);
};

/// Definition 2.1 dynamics (type-keyed transitions): the game_protocol
/// compilation of the paper's strategy set and laddered adjustment rule.
/// The kernel is deterministic (a single support point per pair); it is
/// what every engine executes, cross-checked against igt_count_chain
/// (equation (5)) in the tests.
///
/// The revision_discipline chooses whether only the initiator updates (the
/// paper's one-way protocol, footnote 3) or both agents do (a natural
/// ablation: the census stationary law is unchanged — each agent's level
/// performs the same reflected walk — but the clock runs roughly twice as
/// fast).
class igt_protocol final : public game_protocol {
 public:
  explicit igt_protocol(
      std::size_t k,
      revision_discipline discipline = revision_discipline::one_way);

  [[nodiscard]] std::size_t k() const { return k_; }

 private:
  std::size_t k_;
};

/// The initial census (length 2 + k, in igt_encoding order) of an
/// (alpha, beta, gamma) population whose GTFT agents all start at `level`,
/// in {0, ..., k-1}.
[[nodiscard]] std::vector<std::uint64_t> make_igt_census(
    const abg_population& pop, std::size_t k, std::size_t level);

/// Extracts the GTFT level census (length-k count vector, the z_t of the
/// paper) from the census of a simulation run under igt_protocol, on any
/// engine.
[[nodiscard]] std::vector<std::uint64_t> gtft_level_counts(
    const census_view& agents, std::size_t k);

}  // namespace ppg
