// The uniform simulation-engine interface: both execution backends —
// census-only sampler, multibatch sampler (aggregated rounds and
// identity-skipping batches) — expose the same surface (step / run /
// run_until / run_with_snapshots / census / interactions / parallel_time),
// so drivers and experiments are written once and the backend is a runtime
// choice (sim_spec::make_engine). They share one shell,
// census_level_engine, that owns their count vector, construction checks
// and snapshot codec.
// The protocol abstraction itself lives in pp/kernel.hpp.
// See DESIGN.md §3 for the engine architecture.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string_view>
#include <vector>

#include "ppg/pp/census.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/util/error.hpp"
#include "ppg/util/json.hpp"

namespace ppg {

/// How the scheduler draws the interacting pair (DESIGN.md §4).
enum class pair_sampling : std::uint8_t {
  distinct,          ///< ordered pair of distinct agents (standard PP model)
  with_replacement,  ///< independent draws (paper's idealized probabilities)
};

/// Which execution backend runs a sim_spec.
enum class engine_kind : std::uint8_t {
  census,   ///< count vector only; samples the ordered *state* pair in O(q)
  /// census + aggregated ~sqrt(n)-interaction rounds (exact birthday /
  /// hypergeometric law, one multinomial outcome split per pair type),
  /// o(1) work per interaction even on dense kernels, or geometric batches
  /// that skip identity interactions, whichever costs less at each round
  /// boundary. Distinct pair sampling only.
  multibatch,
};

[[nodiscard]] const char* engine_kind_name(engine_kind kind);

/// Inverse of engine_kind_name; throws ppg::invariant_error on an unknown
/// name (strict checkpoint parsing), and with a message saying why on the
/// names of retired engines: "batched", which the multibatch engine
/// absorbed, and "agent", whose reference role the exact census chain took.
[[nodiscard]] engine_kind engine_kind_from_name(std::string_view name);

/// Version stamped into every engine snapshot ("state_version"). Additive
/// changes keep the version; anything that changes the meaning of an
/// existing field bumps it, and restore_state rejects versions it does not
/// know. See DESIGN.md §9.
inline constexpr std::uint64_t engine_state_version = 1;

/// Interface of a running simulation. All engines implement the exact same
/// interaction law for a given (protocol, initial census, pair_sampling)
/// triple — they differ only in state representation and per-interaction
/// cost, so results are exchangeable at the distribution level (engines
/// consume random draws differently, so trajectories are not bitwise equal
/// across kinds; see DESIGN.md §3).
class sim_engine {
 public:
  sim_engine() = default;
  virtual ~sim_engine() = default;

  /// Executes one interaction.
  void step() { run(1); }

  /// Executes `steps` interactions. Each engine advances in its own unit:
  /// one interaction (census), or one aggregated round or one geometric
  /// batch of identity interactions (multibatch).
  virtual void run(std::uint64_t steps) = 0;

  /// Runs until `converged(census())` is true or `max_steps` is reached;
  /// returns the number of interactions executed in this call.
  virtual std::uint64_t run_until(const census_predicate& converged,
                                  std::uint64_t max_steps);

  /// Runs `steps` interactions, recording a census every `snapshot_every`
  /// interactions (including one at the end).
  [[nodiscard]] std::vector<census_snapshot> run_with_snapshots(
      std::uint64_t steps, std::uint64_t snapshot_every);

  /// The current census.
  [[nodiscard]] virtual census_view census() const = 0;

  /// Total interactions executed since construction.
  [[nodiscard]] virtual std::uint64_t interactions() const = 0;

  /// Which backend this is.
  [[nodiscard]] virtual engine_kind kind() const = 0;

  /// The engine's *complete* dynamical state as a versioned, JSON-
  /// serializable snapshot: census, interaction counter, any cross-run()
  /// carry (the multibatch residual round), and the full 256-bit RNG
  /// position. Restoring the snapshot into a fresh engine of
  /// the same kind built from the same spec — in this process or another —
  /// continues the trajectory bit-exactly: a run that passes through
  /// save_state()/restore_state() at a run() boundary is indistinguishable,
  /// draw for draw, from one that does not. Protocol identity and the
  /// initial condition are *not* in the snapshot; pair a snapshot with its
  /// spec via pp/checkpoint.hpp's self-describing checkpoint files.
  [[nodiscard]] virtual json save_state() const = 0;

  /// Restores a snapshot produced by save_state() on an engine of the same
  /// kind and spec. Strict: unknown keys, a foreign engine name, a version
  /// this build does not know, or counts inconsistent with the engine's
  /// population all throw ppg::invariant_error and leave the engine
  /// unmodified — every engine validates the whole snapshot before it
  /// commits any of it.
  virtual void restore_state(const json& snapshot) = 0;

  [[nodiscard]] std::uint64_t population_size() const {
    return census().population_size();
  }

  /// Parallel time: interactions / n (standard PP normalization).
  [[nodiscard]] double parallel_time() const;

 protected:
  /// The snapshot fields every engine shares, in canonical order:
  /// {"state_version", "engine", "interactions", "rng"}. Engine-specific
  /// fields are appended by the caller.
  [[nodiscard]] json snapshot_envelope(std::uint64_t interactions,
                                       const rng& gen) const;

  /// Validates the shared fields of `snapshot` (version known, engine name
  /// == this kind) and returns the restored interaction counter and RNG.
  struct snapshot_core {
    std::uint64_t interactions = 0;
    rng gen;
  };
  [[nodiscard]] snapshot_core check_snapshot_envelope(
      const json& snapshot) const;

  /// Copy/move are protected: concrete engines stay copyable, but copying
  /// or assigning through a sim_engine& would slice away the derived state.
  sim_engine(const sim_engine&) = default;
  sim_engine(sim_engine&&) = default;
  sim_engine& operator=(const sim_engine&) = default;
  sim_engine& operator=(sim_engine&&) = default;
};

/// The shell of the census-level engines (census, multibatch): the
/// state they share is the per-state count vector, so the shell owns it —
/// the compiled kernel, counts, population size, generator and interaction
/// counter — together with its construction checks and its snapshot codec
/// (the shared envelope plus "counts"). Each derived engine adds only its
/// own sampling law and its own extra snapshot fields.
class census_level_engine : public sim_engine {
 public:
  [[nodiscard]] census_view census() const override { return {counts_, n_}; }
  [[nodiscard]] std::uint64_t interactions() const override {
    return interactions_;
  }

 protected:
  /// `initial_counts[s]` is the number of agents starting in state s; its
  /// length is the census width (may exceed the kernel's state count, but
  /// states outside the kernel's space must be empty). `kernel` must be
  /// non-null; sim_spec::make_engine compiles it and checks it against the
  /// protocol.
  census_level_engine(std::shared_ptr<const kernel_table> kernel,
                      std::vector<std::uint64_t> initial_counts, rng gen);

  /// Marks "no excluded agent" for locate.
  static constexpr agent_state no_excluded_state = static_cast<agent_state>(-1);

  /// The state holding the `target`-th agent (0-indexed) of `pool` when its
  /// agents are ordered by state; `excluded` removes one agent of that
  /// state first (no_excluded_state removes none).
  [[nodiscard]] static agent_state locate(
      const std::vector<std::uint64_t>& pool, std::uint64_t target,
      agent_state excluded) {
    for (std::size_t s = 0; s < pool.size(); ++s) {
      const std::uint64_t c = pool[s] - (s == excluded ? 1u : 0u);
      if (target < c) return static_cast<agent_state>(s);
      target -= c;
    }
    PPG_CHECK(false, "census sampling target out of range");
  }

  /// The shared snapshot: the envelope followed by "counts". Engines with
  /// extra state append their fields to it.
  [[nodiscard]] json save_counts() const;

  /// A parsed and validated snapshot core, not yet committed.
  struct counts_state {
    std::uint64_t interactions = 0;
    rng gen;
    std::vector<std::uint64_t> counts;
  };

  /// Parses and validates a snapshot's envelope and counts into locals —
  /// exact key set (the shared keys plus `extra_keys`), known version,
  /// this engine's kind, width, population size and state-space agreement
  /// — without touching the engine, so the caller can check its own extra
  /// fields before anything is committed.
  [[nodiscard]] counts_state check_counts(
      const json& snapshot,
      std::initializer_list<std::string_view> extra_keys = {}) const;

  /// Commits a validated snapshot core.
  void commit(counts_state state);

  std::shared_ptr<const kernel_table> kernel_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
  rng gen_;
  std::uint64_t interactions_ = 0;
};

/// A seedless recipe for a simulation: protocol, initial census (agents per
/// state), and sampling discipline. Replica R of a batch is
/// `make_engine(kind, gen_R)` — every replica starts from the identical
/// initial condition and differs only in its RNG stream, which is what the
/// batch engine needs to fan one configuration out across a worker pool.
/// The protocol must outlive the spec and every engine built from it.
///
/// Agents are anonymous, so the census fixes the run's law; the engines
/// never allocate per-agent state, so they scale to populations far beyond
/// what an agent array can hold.
class sim_spec {
 public:
  sim_spec(const protocol& proto, std::vector<std::uint64_t> initial_counts,
           pair_sampling sampling = pair_sampling::distinct);

  /// A fresh engine of the requested kind at the initial condition. The
  /// engine is seeded from gen.split(), so it owns an independent stream:
  /// the caller's generator never shares draws with the engine (making two
  /// engines from one generator yields two *different* trajectories). The
  /// multibatch engine requires pair_sampling::distinct.
  ///
  /// A null `kernel` compiles one from the protocol, for every kind. A
  /// non-null `kernel` hands the engine of any kind a precompiled kernel
  /// table instead — the batch-replica and ppg-serve warm-cache path; it
  /// never changes any draw (the table is immutable shared data) and must
  /// match the protocol's canonical form (checked on the state-space size;
  /// the caller owns semantic equality).
  [[nodiscard]] std::unique_ptr<sim_engine> make_engine(
      engine_kind kind, rng& gen,
      std::shared_ptr<const kernel_table> kernel = nullptr) const;

  /// The initial census.
  [[nodiscard]] const std::vector<std::uint64_t>& initial_counts() const {
    return initial_counts_;
  }
  [[nodiscard]] std::uint64_t population_size() const { return n_; }
  [[nodiscard]] std::size_t num_state_kinds() const {
    return initial_counts_.size();
  }

  [[nodiscard]] const protocol& proto() const { return *proto_; }
  [[nodiscard]] pair_sampling sampling() const { return sampling_; }

 private:
  const protocol* proto_;
  std::vector<std::uint64_t> initial_counts_;
  std::uint64_t n_ = 0;
  pair_sampling sampling_;
};

}  // namespace ppg
