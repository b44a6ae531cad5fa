#include "ppg/core/igt_protocol.hpp"

#include <memory>

#include "ppg/util/error.hpp"

namespace ppg {

std::size_t igt_encoding::level(agent_state s) {
  PPG_CHECK(is_gtft(s), "state is not a GTFT level");
  return s - first_gtft;
}

agent_state igt_encoding::gtft(std::size_t level) {
  return first_gtft + static_cast<agent_state>(level);
}

igt_protocol::igt_protocol(std::size_t k, revision_discipline discipline)
    // Definition 2.1 as a generic compilation: the paper's strategy set
    // (igt_game_matrix keeps the igt_encoding state order and the AC/AD/gj
    // names) under the laddered adjustment rule. The rule is payoff-blind,
    // so the default rd_setting only decorates the matrix with payoffs for
    // callers that inspect game().
    : game_protocol(igt_game_matrix(k),
                    std::make_shared<igt_ladder_rule>(k), discipline),
      k_(k) {}

std::vector<std::uint64_t> make_igt_census(const abg_population& pop,
                                           std::size_t k, std::size_t level) {
  PPG_CHECK(pop.valid(), "invalid population");
  PPG_CHECK(k >= 2, "k-IGT requires k >= 2");
  PPG_CHECK(level < k, "GTFT level out of range for this k");
  std::vector<std::uint64_t> counts(igt_encoding::first_gtft + k, 0);
  counts[igt_encoding::ac] = pop.num_ac;
  counts[igt_encoding::ad] = pop.num_ad;
  counts[igt_encoding::gtft(level)] = pop.num_gtft;
  return counts;
}

std::vector<std::uint64_t> gtft_level_counts(const census_view& agents,
                                             std::size_t k) {
  std::vector<std::uint64_t> counts(k, 0);
  for (std::size_t level = 0; level < k; ++level) {
    counts[level] = agents.count(igt_encoding::gtft(level));
  }
  return counts;
}

}  // namespace ppg
