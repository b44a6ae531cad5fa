#include "ppg/games/strategy.hpp"

#include <vector>

#include "ppg/util/error.hpp"

namespace ppg {

bool memory_one_strategy::valid() const {
  auto in_unit = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!in_unit(initial_cooperation)) return false;
  for (const double p : cooperate_given) {
    if (!in_unit(p)) return false;
  }
  return true;
}

memory_one_strategy always_cooperate() {
  return {1.0, {1.0, 1.0, 1.0, 1.0}};
}

memory_one_strategy always_defect() {
  return {0.0, {0.0, 0.0, 0.0, 0.0}};
}

memory_one_strategy tit_for_tat(double s1) {
  PPG_CHECK(s1 >= 0.0 && s1 <= 1.0, "s1 must be a probability");
  return {s1, {1.0, 0.0, 1.0, 0.0}};
}

memory_one_strategy generous_tit_for_tat(double g, double s1) {
  PPG_CHECK(g >= 0.0 && g <= 1.0, "generosity must be a probability");
  PPG_CHECK(s1 >= 0.0 && s1 <= 1.0, "s1 must be a probability");
  // After opponent C: repeat C w.p. (1-g) plus generous C w.p. g -> 1.
  // After opponent D: repeat D w.p. (1-g), generous C w.p. g -> g.
  return {s1, {1.0, g, 1.0, g}};
}

memory_one_strategy grim(double s1) {
  PPG_CHECK(s1 >= 0.0 && s1 <= 1.0, "s1 must be a probability");
  return {s1, {1.0, 0.0, 0.0, 0.0}};
}

memory_one_strategy win_stay_lose_shift(double s1) {
  PPG_CHECK(s1 >= 0.0 && s1 <= 1.0, "s1 must be a probability");
  // After CC (payoff R, win): stay with C. After CD (S, lose): shift to D.
  // After DC (T, win): stay with D. After DD (P, lose): shift to C.
  return {s1, {1.0, 0.0, 0.0, 1.0}};
}

memory_one_strategy paper_strategy::to_memory_one(double s1) const {
  switch (kind) {
    case strategy_kind::ac:
      return always_cooperate();
    case strategy_kind::ad:
      return always_defect();
    case strategy_kind::gtft:
      return generous_tit_for_tat(generosity, s1);
  }
  PPG_CHECK(false, "unknown strategy kind");
}

memory_one_strategy perturbed(const memory_one_strategy& s, double noise) {
  PPG_CHECK(s.valid(), "invalid strategy");
  PPG_CHECK(noise >= 0.0 && noise <= 1.0, "noise must be a probability");
  auto flip = [noise](double p) {
    return p * (1.0 - noise) + (1.0 - p) * noise;
  };
  memory_one_strategy out;
  out.initial_cooperation = flip(s.initial_cooperation);
  for (std::size_t i = 0; i < num_game_states; ++i) {
    out.cooperate_given[i] = flip(s.cooperate_given[i]);
  }
  return out;
}

std::vector<double> generosity_grid(std::size_t k, double g_max) {
  PPG_CHECK(k >= 2, "the paper's grid requires k >= 2");
  PPG_CHECK(g_max >= 0.0 && g_max <= 1.0,
            "maximum generosity must be a probability");
  std::vector<double> grid(k);
  for (std::size_t j = 0; j < k; ++j) {
    grid[j] = g_max * static_cast<double>(j) / static_cast<double>(k - 1);
  }
  return grid;
}

}  // namespace ppg
