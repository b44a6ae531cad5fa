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
    case engine_kind::census:
      return "census";
    case engine_kind::multibatch:
      return "multibatch";
  }
  return "unknown";
}

engine_kind engine_kind_from_name(std::string_view name) {
  for (const auto kind : {engine_kind::census, engine_kind::multibatch}) {
    if (name == engine_kind_name(kind)) return kind;
  }
  PPG_CHECK(name != "batched",
            "engine kind 'batched' was folded into 'multibatch', which skips "
            "identity interactions itself; a batched checkpoint cannot be "
            "restored (DESIGN.md §9)");
  PPG_CHECK(name != "agent",
            "engine kind 'agent' was retired: agents are anonymous, so the "
            "census is the whole state, and the exact census chain replaced "
            "the per-agent reference; an agent checkpoint cannot be restored "
            "(DESIGN.md §9)");
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
  PPG_CHECK(kind == engine_kind::census || sampling_ == pair_sampling::distinct,
            std::string(engine_kind_name(kind)) +
                " engine supports pair_sampling::distinct only; use the "
                "census engine for with_replacement sampling");
  switch (kind) {
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
