#include "ppg/pp/ensemble_engine.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "ppg/pp/engine.hpp"
#include "ppg/pp/multibatch_engine.hpp"
#include "ppg/util/error.hpp"

namespace ppg {

ensemble_engine::ensemble_engine(
    const protocol& proto, const std::vector<std::uint64_t>& initial_counts,
    std::uint64_t master_seed, std::size_t replicas, pair_sampling sampling,
    std::shared_ptr<const kernel_table> kernel)
    : kernel_(kernel ? std::move(kernel)
                     : std::make_shared<const kernel_table>(proto)),
      replicas_(replicas),
      width_(initial_counts.size()),
      n_([&] {
        std::uint64_t n = 0;
        for (const auto c : initial_counts) n += c;
        return n;
      }()),
      master_seed_(master_seed),
      executor_(kernel_, width_, n_) {
  PPG_CHECK(replicas_ >= 1, "an ensemble needs at least one replica");
  PPG_CHECK(sampling == pair_sampling::distinct,
            "ensemble engine supports pair_sampling::distinct only");
  PPG_CHECK(kernel_->num_states() == proto.num_states(),
            "ensemble engine: precompiled kernel does not match the "
            "protocol");
  for (std::size_t s = 0; s < width_; ++s) {
    PPG_CHECK(s < kernel_->num_states() || initial_counts[s] == 0,
              "ensemble engine: agents in states outside the protocol's "
              "space");
  }
  counts_.resize(replicas_ * width_);
  untouched_.resize(replicas_ * width_);
  touched_.assign(replicas_ * width_, 0);
  for (std::size_t r = 0; r < replicas_; ++r) {
    std::copy(initial_counts.begin(), initial_counts.end(),
              counts_.data() + r * width_);
    std::copy(initial_counts.begin(), initial_counts.end(),
              untouched_.data() + r * width_);
  }
  untouched_total_.assign(replicas_, n_);
  interactions_.assign(replicas_, 0);
  rounds_.assign(replicas_, 0);
  collisions_.assign(replicas_, 0);
  pending_free_.assign(replicas_, 0);
  collision_pending_.assign(replicas_, 0);
  gens_.reserve(replicas_);
  for (std::size_t r = 0; r < replicas_; ++r) {
    // The batch_runner composition, verbatim: replica r's spec generator is
    // make_stream_rng(master, r), and make_engine seeds the engine from its
    // split() — so replica r here is the bitwise twin of a solo multibatch
    // engine inside batch_runner replica r.
    rng base = make_stream_rng(master_seed_, r);
    gens_.push_back(base.split());
  }
}

std::vector<std::uint64_t> ensemble_engine::replica_census(
    std::size_t r) const {
  PPG_CHECK(r < replicas_, "ensemble replica index out of range");
  const std::uint64_t* base = counts_.data() + r * width_;
  return {base, base + width_};
}

std::uint64_t ensemble_engine::total_interactions() const {
  std::uint64_t total = 0;
  for (const auto x : interactions_) total += x;
  return total;
}

std::uint64_t ensemble_engine::total_rounds() const {
  std::uint64_t total = 0;
  for (const auto x : rounds_) total += x;
  return total;
}

std::uint64_t ensemble_engine::total_collisions() const {
  std::uint64_t total = 0;
  for (const auto x : collisions_) total += x;
  return total;
}

std::vector<double> ensemble_engine::mean_fractions() const {
  std::vector<double> mean(width_, 0.0);
  for (std::size_t r = 0; r < replicas_; ++r) {
    const std::uint64_t* counts = replica_counts(r);
    for (std::size_t s = 0; s < width_; ++s) {
      mean[s] += static_cast<double>(counts[s]);
    }
  }
  const double denom =
      static_cast<double>(replicas_) * static_cast<double>(n_);
  for (auto& x : mean) x /= denom;
  return mean;
}

json ensemble_engine::save_state() const {
  json snapshot = json::object();
  snapshot["state_version"] = engine_state_version;
  snapshot["engine"] = "multibatch-ensemble";
  snapshot["master_seed"] = master_seed_;
  json replicas = json::array();
  for (std::size_t r = 0; r < replicas_; ++r) {
    multibatch_snapshot state;
    const std::uint64_t* base = counts_.data() + r * width_;
    state.counts.assign(base, base + width_);
    base = untouched_.data() + r * width_;
    state.untouched.assign(base, base + width_);
    base = touched_.data() + r * width_;
    state.touched.assign(base, base + width_);
    state.untouched_total = untouched_total_[r];
    state.interactions = interactions_[r];
    state.rounds = rounds_[r];
    state.collisions = collisions_[r];
    state.pending_free = pending_free_[r];
    state.collision_pending = collision_pending_[r] != 0;
    state.gen = gens_[r];
    replicas.push_back(dump_multibatch_snapshot(state));
  }
  snapshot["replicas"] = std::move(replicas);
  return snapshot;
}

void ensemble_engine::restore_state(const json& snapshot) {
  const char* where = "ensemble snapshot";
  json_require_keys(snapshot,
                    {"state_version", "engine", "master_seed", "replicas"},
                    where);
  const std::uint64_t version =
      json_require_uint(snapshot, "state_version", where);
  PPG_CHECK(version == engine_state_version,
            "ensemble snapshot: unsupported state_version " +
                std::to_string(version) + " (this build reads " +
                std::to_string(engine_state_version) + ")");
  const std::string& name = json_require_string(snapshot, "engine", where);
  PPG_CHECK(name == "multibatch-ensemble",
            "ensemble snapshot: engine kind is '" + name + "'");
  const std::uint64_t master_seed =
      json_require_uint(snapshot, "master_seed", where);
  const auto& entries = json_require_array(snapshot, "replicas", where);
  PPG_CHECK(entries.size() == replicas_,
            "ensemble snapshot: replica count mismatch — snapshot has " +
                std::to_string(entries.size()) + ", engine has " +
                std::to_string(replicas_));
  // Validate every entry before touching any plane, so a bad snapshot
  // leaves the ensemble unchanged.
  std::vector<multibatch_snapshot> states;
  states.reserve(replicas_);
  for (const auto& entry : entries) {
    states.push_back(
        parse_multibatch_snapshot(entry, width_, n_, kernel_->num_states()));
  }
  for (std::size_t r = 0; r < replicas_; ++r) {
    auto& state = states[r];
    std::copy(state.counts.begin(), state.counts.end(),
              counts_.data() + r * width_);
    std::copy(state.untouched.begin(), state.untouched.end(),
              untouched_.data() + r * width_);
    std::copy(state.touched.begin(), state.touched.end(),
              touched_.data() + r * width_);
    untouched_total_[r] = state.untouched_total;
    interactions_[r] = state.interactions;
    rounds_[r] = state.rounds;
    collisions_[r] = state.collisions;
    pending_free_[r] = state.pending_free;
    collision_pending_[r] = state.collision_pending ? 1 : 0;
    gens_[r] = state.gen;
  }
  master_seed_ = master_seed;
}

void ensemble_engine::set_threads(std::size_t threads) {
  if (threads <= 1) {
    pool_.reset();
    executor_.set_workers(1);
    return;
  }
  if (!pool_ || pool_->size() != threads) {
    pool_ = std::make_unique<thread_pool>(threads);
  }
  executor_.set_workers(threads);
}

void ensemble_engine::run(std::uint64_t steps) {
  const auto advance = [&](std::size_t worker, std::size_t r) {
    // Every round draw advances the generator; a local copy keeps those
    // writes off the cache lines neighbouring replicas' generators share.
    rng gen = gens_[r];
    multibatch_state st;
    st.counts = counts_.data() + r * width_;
    st.untouched = untouched_.data() + r * width_;
    st.touched = touched_.data() + r * width_;
    st.width = width_;
    st.n = n_;
    st.untouched_total = untouched_total_[r];
    st.gen = &gen;
    st.interactions = interactions_[r];
    st.rounds = rounds_[r];
    st.collisions = collisions_[r];
    st.pending_free = pending_free_[r];
    st.collision_pending = collision_pending_[r] != 0;
    executor_.run(st, steps, worker);
    untouched_total_[r] = st.untouched_total;
    interactions_[r] = st.interactions;
    rounds_[r] = st.rounds;
    collisions_[r] = st.collisions;
    pending_free_[r] = st.pending_free;
    collision_pending_[r] = st.collision_pending ? 1 : 0;
    gens_[r] = gen;
  };
  if (pool_) {
    pool_->run_sharded(replicas_, advance);
  } else {
    for (std::size_t r = 0; r < replicas_; ++r) advance(0, r);
  }
}

}  // namespace ppg
