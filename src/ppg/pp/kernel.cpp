#include "ppg/pp/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ppg/util/error.hpp"

namespace ppg {
namespace {

/// Vose's alias method over `dist`'s probabilities normalized by their sum
/// `total`. Writes dist.size() slots; `work` holds at least dist.size()
/// indices: the stack of slots with mass < 1 grows up from its front, the
/// stack of slots with mass >= 1 down from its back.
void build_alias(const std::vector<outcome>& dist, double total,
                 kernel_table::alias_slot* slots, std::uint32_t* work) {
  const auto size = static_cast<std::uint32_t>(dist.size());
  const double scale = static_cast<double>(size) / total;
  std::uint32_t small = 0;
  std::uint32_t large = size;
  for (std::uint32_t k = 0; k < size; ++k) {
    slots[k] = {dist[k].probability * scale, k};
    if (slots[k].threshold < 1.0) {
      work[small++] = k;
    } else {
      work[--large] = k;
    }
  }
  // One large outcome at a time tops up small slots until its own mass
  // falls below 1, then joins the small stack. rest - (1 - p_l) >= 0 in
  // floating point too, since rest >= 1 >= 1 - p_l.
  while (small > 0 && large < size) {
    const std::uint32_t g = work[large++];
    double rest = slots[g].threshold;
    while (rest >= 1.0 && small > 0) {
      const std::uint32_t l = work[--small];
      slots[l].alias = g;
      rest -= 1.0 - slots[l].threshold;
    }
    slots[g].threshold = rest;
    if (rest < 1.0) {
      work[small++] = g;
    } else {
      work[--large] = g;
    }
  }
  // Leftovers on either stack hold mass 1 up to rounding: full slots.
  while (small > 0) slots[work[--small]].threshold = 1.0;
  while (large < size) slots[work[large++]].threshold = 1.0;
}

}  // namespace

std::string protocol::state_name(agent_state state) const {
  return "s" + std::to_string(state);
}

kernel_table::kernel_table(const protocol& proto) : q_(proto.num_states()) {
  PPG_CHECK(q_ >= 1, "protocol must have at least one state");
  offsets_.reserve(q_ * q_ + 1);
  identity_.assign(q_ * q_, 0);
  offsets_.push_back(0);
  std::vector<std::uint32_t> work;  // alias build scratch, reused per pair
  for (agent_state i = 0; i < q_; ++i) {
    for (agent_state r = 0; r < q_; ++r) {
      const auto dist = proto.outcome_distribution(i, r);
      PPG_CHECK(!dist.empty(), "empty outcome distribution");
      if (i == 0 && r == 0) {
        // Size both tables from the first pair: exact for kernels whose
        // pairs share one support size (dense games, deterministic IGT).
        entries_.reserve(q_ * q_ * dist.size());
        probabilities_.reserve(q_ * q_ * dist.size());
        alias_.reserve(q_ * q_ * dist.size());
      }
      double total = 0.0;
      bool is_identity = true;
      for (const auto& o : dist) {
        PPG_CHECK(o.initiator < q_ && o.responder < q_,
                  "kernel outcome state out of range");
        PPG_CHECK(o.probability > 0.0, "kernel probabilities must be > 0");
        total += o.probability;
        entries_.push_back({o.initiator, o.responder});
        probabilities_.push_back(o.probability);
        is_identity = is_identity && o.initiator == i && o.responder == r;
      }
      PPG_CHECK(std::abs(total - 1.0) <= 1e-9,
                "kernel probabilities must sum to 1");
      alias_.resize(entries_.size());
      if (dist.size() > 1) {
        if (work.size() < dist.size()) work.resize(dist.size());
        build_alias(dist, total, alias_.data() + (alias_.size() - dist.size()),
                    work.data());
      }
      identity_[index(i, r)] = is_identity ? 1 : 0;
      offsets_.push_back(static_cast<std::uint32_t>(entries_.size()));
    }
  }
  compile_responder_classes();
  compile_partner_laws();
}

bool kernel_table::same_initiator_law(agent_state u, agent_state a,
                                      agent_state b) const {
  const std::uint32_t begin_a = offsets_[index(u, a)];
  const std::uint32_t begin_b = offsets_[index(u, b)];
  const std::uint32_t size = offsets_[index(u, a) + 1] - begin_a;
  if (offsets_[index(u, b) + 1] - begin_b != size) return false;
  for (std::uint32_t k = 0; k < size; ++k) {
    if (entries_[begin_a + k].initiator != entries_[begin_b + k].initiator ||
        probabilities_[begin_a + k] != probabilities_[begin_b + k]) {
      return false;
    }
  }
  return true;
}

void kernel_table::compile_responder_classes() {
  std::vector<row_shape> shapes(q_, row_shape::general);
  // The one-way rows that depend on their responder.
  std::vector<agent_state> dependent;
  for (agent_state u = 0; u < q_; ++u) {
    // One-way unless some outcome moves the responder; stop at the first.
    bool one_way = true;
    for (agent_state v = 0; one_way && v < q_; ++v) {
      for (std::uint32_t e = offsets_[index(u, v)];
           one_way && e < offsets_[index(u, v) + 1]; ++e) {
        one_way = entries_[e].responder == v;
      }
    }
    if (!one_way) {
      responders_stay_ = false;
      continue;
    }
    bool ignores = true;
    for (agent_state v = 1; ignores && v < q_; ++v) {
      ignores = same_initiator_law(u, 0, v);
    }
    if (ignores) {
      shapes[u] = row_shape::ignores;
    } else {
      shapes[u] = row_shape::classed;  // until C is known
      dependent.push_back(u);
    }
  }

  // Each responder joins the first class whose representative has its
  // initiator law on every dependent row, or else starts a new class.
  // same_initiator_law is exact equality, so the classes are its
  // equivalence classes, and scanning in state order numbers them by
  // smallest member.
  classes_.resize(q_);
  representatives_.clear();
  for (agent_state v = 0; v < q_; ++v) {
    const auto same_class = [&](agent_state representative) {
      return std::all_of(dependent.begin(), dependent.end(),
                         [&](agent_state u) {
                           return same_initiator_law(u, representative, v);
                         });
    };
    const auto c = static_cast<std::uint32_t>(
        std::find_if(representatives_.begin(), representatives_.end(),
                     same_class) -
        representatives_.begin());
    if (c == representatives_.size()) representatives_.push_back(v);
    classes_[v] = c;
  }

  for (auto& rows : rows_) rows.clear();
  for (agent_state u = 0; u < q_; ++u) {
    if (shapes[u] == row_shape::classed && representatives_.size() == q_) {
      shapes[u] = row_shape::general;
    }
    rows_[static_cast<std::size_t>(shapes[u])].push_back(u);
  }
}

void kernel_table::compile_partner_laws() {
  constexpr double tolerance = 1e-12;
  // The initiator (or responder) marginal of pair (u, v), densely.
  const auto marginal = [this](agent_state u, agent_state v, bool responder,
                               double* out) {
    std::fill(out, out + q_, 0.0);
    const std::size_t pair = index(u, v);
    for (std::uint32_t e = offsets_[pair]; e < offsets_[pair + 1]; ++e) {
      out[responder ? entries_[e].responder : entries_[e].initiator] +=
          probabilities_[e];
    }
  };
  // f[v * q + x] = f(x|v) from pairs (0, v); g[u * q + y] = g(y|u) from
  // pairs (u, 0).
  std::vector<double> f(q_ * q_);
  std::vector<double> g(responders_stay_ ? 0 : q_ * q_);
  for (agent_state v = 0; v < q_; ++v) marginal(0, v, false, &f[v * q_]);
  for (agent_state u = 0; u < g.size() / q_; ++u) {
    marginal(u, 0, true, &g[u * q_]);
  }
  std::vector<double> scratch(q_);
  const auto matches = [&](const double* law) {
    for (std::size_t x = 0; x < q_; ++x) {
      if (std::abs(scratch[x] - law[x]) > tolerance) return false;
    }
    return true;
  };
  const auto covers = [](double mass) {
    return std::abs(mass - 1.0) <= tolerance;
  };
  for (agent_state u = 0; u < q_; ++u) {
    for (agent_state v = 0; v < q_; ++v) {
      const double* fv = &f[v * q_];
      marginal(u, v, false, scratch.data());
      if (!matches(fv)) return;
      if (responders_stay_) continue;
      const double* gu = &g[u * q_];
      marginal(u, v, true, scratch.data());
      if (!matches(gu)) return;
      double covered = 0.0;
      for (std::uint32_t e = offsets_[index(u, v)];
           e < offsets_[index(u, v) + 1]; ++e) {
        const double product =
            fv[entries_[e].initiator] * gu[entries_[e].responder];
        if (std::abs(probabilities_[e] - product) > tolerance) return;
        covered += product;
      }
      if (!covers(covered)) return;
    }
  }
  // Under responders stay, a pair's law is f(.|v) itself, which must then
  // cover mass 1.
  for (agent_state v = 0; responders_stay_ && v < q_; ++v) {
    if (!covers(std::accumulate(&f[v * q_], &f[v * q_] + q_, 0.0))) return;
  }

  law_offsets_.push_back(0);
  for (std::size_t k = 0; k < f.size() + g.size(); k += q_) {
    const double* law = k < f.size() ? &f[k] : &g[k - f.size()];
    for (agent_state x = 0; x < q_; ++x) {
      if (law[x] <= 0.0) continue;
      law_states_.push_back(x);
      law_probabilities_.push_back(law[x]);
    }
    law_offsets_.push_back(static_cast<std::uint32_t>(law_states_.size()));
  }
}

outcome kernel_table::outcome_at(agent_state initiator, agent_state responder,
                                 std::size_t k) const {
  const std::size_t pair = index(initiator, responder);
  const std::uint32_t begin = offsets_[pair];
  PPG_CHECK(begin + k < offsets_[pair + 1], "outcome index out of range");
  const entry& o = entries_[begin + k];
  return {o.initiator, o.responder, probabilities_[begin + k]};
}

kernel_table::alias_slot kernel_table::alias_at(agent_state initiator,
                                                agent_state responder,
                                                std::size_t s) const {
  const std::size_t pair = index(initiator, responder);
  const std::uint32_t begin = offsets_[pair];
  PPG_CHECK(begin + s < offsets_[pair + 1], "alias slot out of range");
  return alias_[begin + s];
}

bool kernel_table::deterministic(agent_state initiator,
                                 agent_state responder) const {
  const std::size_t pair = index(initiator, responder);
  return offsets_[pair + 1] - offsets_[pair] == 1;
}

}  // namespace ppg
