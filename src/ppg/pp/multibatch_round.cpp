#include "ppg/pp/multibatch_round.hpp"

#include <algorithm>

#include "ppg/util/error.hpp"

namespace ppg {
namespace {

constexpr agent_state no_excluded_state = static_cast<agent_state>(-1);

/// The state holding the `target`-th agent (0-indexed) of the pool when its
/// agents are ordered by state; `excluded` removes one agent of that state
/// first (no_excluded_state removes none).
agent_state locate(const std::uint64_t* pool, std::size_t width,
                   std::uint64_t target, agent_state excluded) {
  for (std::size_t s = 0; s < width; ++s) {
    const std::uint64_t c = pool[s] - (s == excluded ? 1u : 0u);
    if (target < c) return static_cast<agent_state>(s);
    target -= c;
  }
  PPG_CHECK(false, "multibatch sampling target out of range");
}

}  // namespace

multibatch_executor::multibatch_executor(
    std::shared_ptr<const kernel_table> kernel, std::size_t width,
    std::uint64_t n)
    : kernel_(std::move(kernel)), width_(width), n_(n), birthday_(n) {
  PPG_CHECK(kernel_ != nullptr, "multibatch executor needs a kernel");
  PPG_CHECK(width_ >= kernel_->num_states(),
            "census state space smaller than the protocol's");
  PPG_CHECK(n_ >= 2, "a protocol needs at least two agents");
  // Collision-category weights (t*u etc.) must not overflow: n^2 < 2^63.
  PPG_CHECK(n_ <= 3'000'000'000ull, "multibatch engine caps n at 3e9");
  const auto q = static_cast<std::uint64_t>(kernel_->num_states());
  // Below ~4q^2 interactions the aggregate path's O(q^2) hypergeometric
  // table costs more than per-pair O(q) sampling, so short runs (small n:
  // the birthday law scales them as ~sqrt(n)) fall back to the sequential
  // path and the engine degrades to census-engine cost.
  aggregate_threshold_ = std::max<std::uint64_t>(16, 4 * q * q);
  scratch_.resize(1);
}

void multibatch_executor::set_workers(std::size_t workers) {
  scratch_.resize(std::max<std::size_t>(1, workers));
}

void multibatch_executor::apply_pair_type(multibatch_state& st, agent_state u,
                                          agent_state v, std::uint64_t m,
                                          worker_scratch& ws) {
  // The run's initiators and responders are untouched agents, so these
  // removals never exceed the census, whatever outcomes were added first.
  st.counts[u] -= m;
  st.counts[v] -= m;
  const std::size_t support = kernel_->num_outcomes(u, v);
  if (support == 1) {
    // Deterministic pair: no draws, mirroring every engine's fast path.
    const outcome o = kernel_->outcome_at(u, v, 0);
    st.counts[o.initiator] += m;
    st.counts[o.responder] += m;
    st.touched[o.initiator] += m;
    st.touched[o.responder] += m;
    return;
  }
  ws.probs.resize(support);
  ws.split.resize(support);
  for (std::size_t k = 0; k < support; ++k) {
    ws.probs[k] = kernel_->outcome_at(u, v, k).probability;
  }
  sample_multinomial(m, ws.probs.data(), support, *st.gen, ws.split.data());
  for (std::size_t k = 0; k < support; ++k) {
    if (ws.split[k] == 0) continue;
    const outcome o = kernel_->outcome_at(u, v, k);
    st.counts[o.initiator] += ws.split[k];
    st.counts[o.responder] += ws.split[k];
    st.touched[o.initiator] += ws.split[k];
    st.touched[o.responder] += ws.split[k];
  }
}

void multibatch_executor::apply_free_aggregate(multibatch_state& st,
                                               std::uint64_t free,
                                               std::size_t worker) {
  worker_scratch& ws = scratch_[worker];
  const std::size_t width = st.width;
  ws.initiators.resize(width);
  ws.responders.resize(width);
  ws.row.resize(width);
  // The 2*free agents of a collision-free run are a uniform sample without
  // replacement from the untouched pool; odd positions (initiators) are a
  // simple random sample, even positions (responders) one from the
  // remainder, and conditioned on both multisets the initiator-responder
  // matching is uniform — realized by splitting the responder multiset
  // across initiator groups with sequential multivariate hypergeometrics.
  sample_multivariate_hypergeometric(st.untouched, width, free, *st.gen,
                                     ws.initiators.data());
  for (std::size_t s = 0; s < width; ++s) st.untouched[s] -= ws.initiators[s];
  sample_multivariate_hypergeometric(st.untouched, width, free, *st.gen,
                                     ws.responders.data());
  for (std::size_t s = 0; s < width; ++s) st.untouched[s] -= ws.responders[s];
  st.untouched_total -= 2 * free;
  const std::size_t q = kernel_->num_states();
  for (std::size_t u = 0; u < q; ++u) {
    if (ws.initiators[u] == 0) continue;
    sample_multivariate_hypergeometric(ws.responders.data(), width,
                                       ws.initiators[u], *st.gen,
                                       ws.row.data());
    for (std::size_t v = 0; v < width; ++v) {
      ws.responders[v] -= ws.row[v];
      if (ws.row[v] > 0) {
        apply_pair_type(st, static_cast<agent_state>(u),
                        static_cast<agent_state>(v), ws.row[v], ws);
      }
    }
  }
}

void multibatch_executor::apply_free_sequential(multibatch_state& st,
                                                std::uint64_t free) {
  rng& gen = *st.gen;
  for (std::uint64_t i = 0; i < free; ++i) {
    const agent_state u = locate(st.untouched, st.width,
                                 gen.next_below(st.untouched_total),
                                 no_excluded_state);
    const agent_state v = locate(st.untouched, st.width,
                                 gen.next_below(st.untouched_total - 1), u);
    const auto [next_initiator, next_responder] = kernel_->sample(u, v, gen);
    --st.untouched[u];
    --st.untouched[v];
    st.untouched_total -= 2;
    ++st.touched[next_initiator];
    ++st.touched[next_responder];
    --st.counts[u];
    --st.counts[v];
    ++st.counts[next_initiator];
    ++st.counts[next_responder];
  }
}

void multibatch_executor::resolve_collision(multibatch_state& st) {
  rng& gen = *st.gen;
  const std::uint64_t u_total = st.untouched_total;
  const std::uint64_t t_total = st.n - u_total;
  // An ordered pair of distinct agents conditioned on >= 1 touched agent:
  // categories touched-touched, touched-untouched, untouched-touched with
  // weights t(t-1), t*u, u*t (their sum is n(n-1) - u(u-1)).
  const std::uint64_t tt = t_total * (t_total - 1);
  const std::uint64_t tu = t_total * u_total;
  std::uint64_t x = gen.next_below(tt + 2 * tu);
  agent_state initiator;
  agent_state responder;
  bool initiator_touched;
  bool responder_touched;
  if (x < tt) {
    initiator = locate(st.touched, st.width, gen.next_below(t_total),
                       no_excluded_state);
    responder = locate(st.touched, st.width, gen.next_below(t_total - 1),
                       initiator);
    initiator_touched = responder_touched = true;
  } else if (x < tt + tu) {
    initiator = locate(st.touched, st.width, gen.next_below(t_total),
                       no_excluded_state);
    responder = locate(st.untouched, st.width, gen.next_below(u_total),
                       no_excluded_state);
    initiator_touched = true;
    responder_touched = false;
  } else {
    initiator = locate(st.untouched, st.width, gen.next_below(u_total),
                       no_excluded_state);
    responder = locate(st.touched, st.width, gen.next_below(t_total),
                       no_excluded_state);
    initiator_touched = false;
    responder_touched = true;
  }
  const auto [next_initiator, next_responder] =
      kernel_->sample(initiator, responder, gen);
  --(initiator_touched ? st.touched : st.untouched)[initiator];
  --(responder_touched ? st.touched : st.untouched)[responder];
  st.untouched_total -=
      (initiator_touched ? 0u : 1u) + (responder_touched ? 0u : 1u);
  ++st.touched[next_initiator];
  ++st.touched[next_responder];
  --st.counts[initiator];
  --st.counts[responder];
  ++st.counts[next_initiator];
  ++st.counts[next_responder];
}

void multibatch_executor::merge_touched(multibatch_state& st) {
  for (std::size_t s = 0; s < st.width; ++s) {
    st.untouched[s] += st.touched[s];
    st.touched[s] = 0;
  }
  st.untouched_total = st.n;
}

void multibatch_executor::run(multibatch_state& st, std::uint64_t steps,
                              std::size_t worker) {
  PPG_DCHECK(worker < scratch_.size(),
             "multibatch executor: worker index out of range");
  std::uint64_t remaining = steps;
  while (remaining > 0) {
    if (!st.collision_pending) {
      // New round: every agent is untouched (merge_touched ran), so the
      // birthday law starts from the full pool.
      st.pending_free = birthday_.sample(*st.gen);
      st.collision_pending = true;
      ++st.rounds;
    }
    if (st.pending_free > 0) {
      // A run truncated by the step budget stays lawful: the remainder is
      // carried in pending_free and continues in the next call, so no
      // redraw is needed (and the birthday law is not memoryless).
      const std::uint64_t free = std::min(st.pending_free, remaining);
      if (free < aggregate_threshold_) {
        apply_free_sequential(st, free);
      } else {
        apply_free_aggregate(st, free, worker);
      }
      st.pending_free -= free;
      remaining -= free;
      st.interactions += free;
    }
    if (remaining == 0) break;
    resolve_collision(st);
    ++st.collisions;
    ++st.interactions;
    --remaining;
    st.collision_pending = false;
    merge_touched(st);
  }
}

}  // namespace ppg
