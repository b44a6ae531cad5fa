// Scenario C1 (checkpoint layer): the bit-exact resume contract, exercised
// at bench scale on every engine kind. For each backend, one run goes
// straight to the horizon while its twin (same seed, same run() chunk
// schedule) is checkpointed mid-run, serialized to bytes, restored as a
// fresh process would restore it, and continued. The gated metrics are the
// census divergence between the two trajectories (exactly 0.0 by contract)
// and the snapshot-equality flag comparing the resumed engine's complete
// serialized state — RNG position, carries, counters — against the
// uninterrupted twin's. Checkpoint sizes are recorded informationally: they
// document what a ppg-serve session snapshot costs on the wire.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ppg/exp/scenario.hpp"
#include "ppg/pp/checkpoint.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/util/json.hpp"
#include "ppg/util/table.hpp"
#include "ppg/util/timer.hpp"

namespace {

using namespace ppg;

scenario_result run_c1(const scenario_context& ctx) {
  scenario_result result;
  const auto n = ctx.pick<std::uint64_t>(1'000'000, 10'000);
  const auto horizon = ctx.pick<std::uint64_t>(2'000'000, 20'000);
  const std::uint64_t cut = horizon / 2;
  const std::uint64_t cadence = horizon / 10;
  result.param("n", n);
  result.param("horizon", horizon);
  result.param("checkpoint_at", cut);
  result.param("protocol", "igt k=3 one_way");

  const sim_recipe recipe(
      "igt", json::parse(R"({"k": 3, "discipline": "one_way"})"),
      std::vector<std::uint64_t>(5, n / 5), pair_sampling::distinct);

  auto& table = result.table(
      "bit-exact resume per engine (census divergence is gated at 0)",
      {"engine", "census diff", "state match", "checkpoint bytes",
       "save+restore ms"});
  // Each engine's seed salt. Salt 1 belonged to the agent engine and salt
  // 3 to the batched engine, both retired; they stay unused so the others
  // keep their seeds.
  constexpr std::pair<engine_kind, std::uint64_t> kinds[] = {
      {engine_kind::census, 2}, {engine_kind::multibatch, 4}};
  for (const auto& [kind, salt] : kinds) {
    const std::string name = engine_kind_name(kind);
    rng gen_full = ctx.make_rng(salt);
    const auto full = recipe.spec().make_engine(kind, gen_full);
    const auto full_snaps = full->run_with_snapshots(horizon, cadence);

    rng gen_cut = ctx.make_rng(salt);
    const auto interrupted = recipe.spec().make_engine(kind, gen_cut);
    const auto before = interrupted->run_with_snapshots(cut, cadence);

    const timer roundtrip_clock;
    const std::string file =
        save_checkpoint(recipe, *interrupted).dump_string();
    restored_sim resumed = restore_checkpoint(json::parse(file));
    const double roundtrip_ms = roundtrip_clock.seconds() * 1e3;
    const auto after =
        resumed.engine->run_with_snapshots(horizon - cut, cadence);

    // Total absolute census divergence across every shared snapshot: the
    // contract makes this identically zero.
    std::uint64_t census_diff = 0;
    for (std::size_t i = 0; i < full_snaps.size(); ++i) {
      const auto& got =
          i < before.size() ? before[i] : after[i - before.size()];
      for (std::size_t s = 0; s < got.counts.size(); ++s) {
        const auto a = got.counts[s];
        const auto b = full_snaps[i].counts[s];
        census_diff += a > b ? a - b : b - a;
      }
    }
    const bool state_match =
        resumed.engine->save_state() == full->save_state();

    result.metric("census_diff_" + name, static_cast<double>(census_diff),
                  metric_goal::minimize);
    result.metric("state_match_" + name, state_match ? 1.0 : 0.0,
                  metric_goal::maximize);
    // Wire size and round-trip latency are informational: a snapshot
    // scales with q, not n.
    result.metric("checkpoint_bytes_" + name,
                  static_cast<double>(file.size()));
    table.add_row({name, format_metric(static_cast<double>(census_diff)),
                   state_match ? "yes" : "NO",
                   format_metric(static_cast<double>(file.size())),
                   format_metric(roundtrip_ms, 3)});
  }

  result.note(
      "Expected shape: census_diff identically 0 and state_match 1 for "
      "every\nengine — save/restore through bytes is an identity on the "
      "trajectory when\nthe resumed run keeps the interrupted run's chunk "
      "schedule (DESIGN.md §9).");
  return result;
}

[[maybe_unused]] const bool registered = register_scenario(
    "c1_checkpoint_resume", "checkpoint,engines",
    "Bit-exact checkpoint/resume across both engine kinds", run_c1);

}  // namespace
