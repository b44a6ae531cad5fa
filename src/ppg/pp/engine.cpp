#include "ppg/pp/engine.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "ppg/pp/census_engine.hpp"
#include "ppg/pp/multibatch_engine.hpp"
#include "ppg/util/error.hpp"

namespace ppg {

const char* engine_kind_name(engine_kind kind) {
  switch (kind) {
    case engine_kind::agent:
      return "agent";
    case engine_kind::census:
      return "census";
    case engine_kind::multibatch:
      return "multibatch";
  }
  return "unknown";
}

engine_kind engine_kind_from_name(std::string_view name) {
  for (const auto kind :
       {engine_kind::agent, engine_kind::census, engine_kind::multibatch}) {
    if (name == engine_kind_name(kind)) return kind;
  }
  PPG_CHECK(name != "batched",
            "engine kind 'batched' was folded into 'multibatch', which skips "
            "identity interactions itself; a batched checkpoint cannot be "
            "restored (DESIGN.md §9)");
  PPG_CHECK(false, "unknown engine kind '" + std::string(name) + "'");
}

json sim_engine::snapshot_envelope(std::uint64_t interactions,
                                   const rng& gen) const {
  json snapshot = json::object();
  snapshot["state_version"] = engine_state_version;
  snapshot["engine"] = engine_kind_name(kind());
  snapshot["interactions"] = interactions;
  const auto state = gen.save();
  snapshot["rng"] =
      json_uint_array({state[0], state[1], state[2], state[3]});
  return snapshot;
}

sim_engine::snapshot_core sim_engine::check_snapshot_envelope(
    const json& snapshot) const {
  const char* where = "engine snapshot";
  const std::uint64_t version =
      json_require_uint(snapshot, "state_version", where);
  PPG_CHECK(version == engine_state_version,
            "engine snapshot: unsupported state_version " +
                std::to_string(version) + " (this build reads " +
                std::to_string(engine_state_version) + ")");
  const std::string& name = json_require_string(snapshot, "engine", where);
  PPG_CHECK(name == engine_kind_name(kind()),
            "engine snapshot: kind mismatch — snapshot is '" + name +
                "', restoring engine is '" + engine_kind_name(kind()) + "'");
  snapshot_core core;
  core.interactions = json_require_uint(snapshot, "interactions", where);
  const auto words = json_require_uint_array(snapshot, "rng", where);
  PPG_CHECK(words.size() == 4,
            "engine snapshot: rng state must be 4 words of 64 bits");
  core.gen.restore({words[0], words[1], words[2], words[3]});
  return core;
}

std::uint64_t sim_engine::run_until(const census_predicate& converged,
                                    std::uint64_t max_steps) {
  std::uint64_t executed = 0;
  while (executed < max_steps && !converged(census())) {
    step();
    ++executed;
  }
  return executed;
}

std::vector<census_snapshot> sim_engine::run_with_snapshots(
    std::uint64_t steps, std::uint64_t snapshot_every) {
  PPG_CHECK(snapshot_every > 0, "snapshot interval must be positive");
  std::vector<census_snapshot> snapshots;
  std::uint64_t done = 0;
  while (done < steps) {
    const std::uint64_t chunk = std::min(snapshot_every, steps - done);
    run(chunk);
    done += chunk;
    snapshots.push_back({interactions(), census().counts()});
  }
  return snapshots;
}

double sim_engine::parallel_time() const {
  const census_view now = census();
  return static_cast<double>(interactions()) /
         static_cast<double>(now.population_size());
}

namespace {

/// Whether every state is below q, so kernel_table::sample, which does not
/// range-check, can take it.
bool all_below(const std::vector<agent_state>& states, std::size_t q) {
  return std::all_of(states.begin(), states.end(),
                     [q](agent_state s) { return s < q; });
}

/// The number of agents in a census; a sum past 2^64 - 1 is rejected
/// rather than wrapped.
std::uint64_t census_size(const std::vector<std::uint64_t>& counts) {
  std::uint64_t n = 0;
  for (const auto c : counts) {
    PPG_CHECK(!__builtin_add_overflow(n, c, &n),
              "census counts sum past 2^64 - 1");
  }
  return n;
}

}  // namespace

simulation::simulation(const protocol& proto, population agents, rng gen,
                       pair_sampling sampling,
                       std::shared_ptr<const kernel_table> kernel)
    : kernel_(std::move(kernel)),
      agents_(std::move(agents)),
      gen_(gen),
      sampling_(sampling) {
  PPG_CHECK(agents_.num_state_kinds() >= proto.num_states(),
            "population state space smaller than the protocol's");
  PPG_CHECK(agents_.size() >= 2, "a protocol needs at least two agents");
  if (kernel_ == nullptr) {
    kernel_ = std::make_shared<const kernel_table>(proto);
  }
  PPG_CHECK(kernel_->num_states() == proto.num_states(),
            "precompiled kernel does not match the protocol");
  PPG_CHECK(all_below(agents_.states(), kernel_->num_states()),
            "agent engine: agents in states outside the protocol's space");
}

void simulation::run(std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) {
    const interaction pair =
        sampling_ == pair_sampling::distinct
            ? sample_distinct_pair(agents_.size(), gen_)
            : sample_with_replacement_pair(agents_.size(), gen_);
    const agent_state initiator = agents_.state_of(pair.initiator);
    const agent_state responder = agents_.state_of(pair.responder);
    // Kernel outcomes are range-checked when the table is compiled and the
    // pair indices come from the scheduler, so the applications below take
    // the debug-checked fast path.
    const auto [next_initiator, next_responder] =
        kernel_->sample(initiator, responder, gen_);
    agents_.apply_interaction(pair.initiator, next_initiator);
    // Self-interactions can occur under with_replacement sampling; applying
    // the responder update second would clobber the initiator's: skip it.
    if (pair.responder != pair.initiator) {
      agents_.apply_interaction(pair.responder, next_responder);
    }
    ++interactions_;
  }
}

json simulation::save_state() const {
  json snapshot = snapshot_envelope(interactions_, gen_);
  std::vector<std::uint64_t> states;
  states.reserve(agents_.size());
  for (const auto state : agents_.states()) {
    states.push_back(state);
  }
  snapshot["states"] = json_uint_array(states);
  return snapshot;
}

void simulation::restore_state(const json& snapshot) {
  json_require_keys(
      snapshot, {"state_version", "engine", "interactions", "rng", "states"},
      "agent snapshot");
  const auto core = check_snapshot_envelope(snapshot);
  const auto raw =
      json_require_uint_array(snapshot, "states", "agent snapshot");
  PPG_CHECK(raw.size() == agents_.size(),
            "agent snapshot: population size mismatch");
  std::vector<agent_state> states;
  states.reserve(raw.size());
  for (const auto state : raw) {
    PPG_CHECK(state < agents_.num_state_kinds(),
              "agent snapshot: state outside the population's space");
    states.push_back(static_cast<agent_state>(state));
  }
  PPG_CHECK(all_below(states, kernel_->num_states()),
            "agent snapshot: agents in states outside the protocol's space");
  // The population constructor re-derives the census from the states, so a
  // restored engine can never disagree with its own counts.
  agents_ = population(std::move(states), agents_.num_state_kinds());
  interactions_ = core.interactions;
  gen_ = core.gen;
}

census_level_engine::census_level_engine(
    std::shared_ptr<const kernel_table> kernel,
    std::vector<std::uint64_t> initial_counts, rng gen)
    : kernel_(std::move(kernel)),
      counts_(std::move(initial_counts)),
      gen_(gen) {
  PPG_CHECK(kernel_ != nullptr, "census-level engines need a kernel");
  PPG_CHECK(counts_.size() >= kernel_->num_states(),
            "census state space smaller than the protocol's");
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    PPG_CHECK(s < kernel_->num_states() || counts_[s] == 0,
              "census-level engine: agents in states outside the "
              "protocol's space");
  }
  n_ = census_size(counts_);
  PPG_CHECK(n_ >= 2, "a protocol needs at least two agents");
}

json census_level_engine::save_counts() const {
  json snapshot = snapshot_envelope(interactions_, gen_);
  snapshot["counts"] = json_uint_array(counts_);
  return snapshot;
}

census_level_engine::counts_state census_level_engine::check_counts(
    const json& snapshot,
    std::initializer_list<std::string_view> extra_keys) const {
  const std::string where = std::string(engine_kind_name(kind())) + " snapshot";
  std::vector<std::string_view> keys = {"state_version", "engine",
                                        "interactions", "rng", "counts"};
  keys.insert(keys.end(), extra_keys);
  json_require_keys(snapshot, keys, where);
  auto core = check_snapshot_envelope(snapshot);
  counts_state state{core.interactions, core.gen,
                     json_require_uint_array(snapshot, "counts", where)};
  PPG_CHECK(state.counts.size() == counts_.size(),
            where + ": state-space width mismatch");
  for (std::size_t s = 0; s < state.counts.size(); ++s) {
    PPG_CHECK(s < kernel_->num_states() || state.counts[s] == 0,
              where + ": agents in states outside the protocol's space");
  }
  PPG_CHECK(census_size(state.counts) == n_,
            where + ": population size mismatch");
  return state;
}

void census_level_engine::commit(counts_state state) {
  counts_ = std::move(state.counts);
  interactions_ = state.interactions;
  gen_ = state.gen;
}

namespace {

/// Expands a census into a population, grouped by ascending state. Agents
/// are anonymous, so any ordering induces the same interaction law; this one
/// fixes where the agent engine's draws land.
population agents_from_counts(const std::vector<std::uint64_t>& counts) {
  std::vector<agent_state> states;
  states.reserve(static_cast<std::size_t>(census_size(counts)));
  for (std::size_t s = 0; s < counts.size(); ++s) {
    for (std::uint64_t i = 0; i < counts[s]; ++i) {
      states.push_back(static_cast<agent_state>(s));
    }
  }
  return population(std::move(states), counts.size());
}

}  // namespace

sim_spec::sim_spec(const protocol& proto,
                   std::vector<std::uint64_t> initial_counts,
                   pair_sampling sampling)
    : proto_(&proto),
      initial_counts_(std::move(initial_counts)),
      sampling_(sampling) {
  PPG_CHECK(initial_counts_.size() >= proto_->num_states(),
            "census state space smaller than the protocol's");
  n_ = census_size(initial_counts_);
  PPG_CHECK(n_ >= 2, "a protocol needs at least two agents");
}

std::unique_ptr<sim_engine> sim_spec::make_engine(
    engine_kind kind, rng& gen,
    std::shared_ptr<const kernel_table> kernel) const {
  if (kernel == nullptr) {
    kernel = std::make_shared<const kernel_table>(*proto_);
  }
  PPG_CHECK(kernel->num_states() == proto_->num_states(),
            "precompiled kernel does not match the protocol");
  PPG_CHECK(kind == engine_kind::agent || kind == engine_kind::census ||
                sampling_ == pair_sampling::distinct,
            std::string(engine_kind_name(kind)) +
                " engine supports pair_sampling::distinct only; use the "
                "census engine for with_replacement sampling");
  switch (kind) {
    case engine_kind::agent:
      return std::make_unique<simulation>(
          *proto_, agents_from_counts(initial_counts_), gen.split(), sampling_,
          std::move(kernel));
    case engine_kind::census:
      return std::make_unique<census_engine>(
          std::move(kernel), initial_counts_, gen.split(), sampling_);
    case engine_kind::multibatch:
      return std::make_unique<multibatch_engine>(std::move(kernel),
                                                 initial_counts_, gen.split());
  }
  PPG_CHECK(false, "unknown engine kind");
}

}  // namespace ppg
