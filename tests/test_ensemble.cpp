// The SoA ensemble engine's contracts (DESIGN.md §11): its replicas are
// bitwise twins of solo multibatch engines under the batch_runner stream
// law, results never depend on the thread count, snapshots resume
// bit-exactly through the shared solo schema, and the ensemble agrees in
// distribution with all four single-trajectory engines.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine_agreement.hpp"
#include "ppg/exp/ensemble_runner.hpp"
#include "ppg/exp/replicate.hpp"
#include "ppg/games/game_matrix.hpp"
#include "ppg/games/game_protocol.hpp"
#include "ppg/games/update_rule.hpp"
#include "ppg/pp/ensemble_engine.hpp"
#include "ppg/util/error.hpp"
#include "ppg/util/json.hpp"
#include "ppg/util/rng.hpp"

namespace ppg {
namespace {

/// Dense two-way hawk-dove: every pair randomizes both sides, so rounds
/// exercise the MVH tables and the multinomial splits.
game_protocol dense_proto() {
  return {hawk_dove_matrix(1.0, 2.0),
          std::make_shared<logit_response_rule>(0.5),
          revision_discipline::two_way};
}

std::vector<std::uint64_t> half_split(std::uint64_t n) {
  return {n / 2, n - n / 2};
}

TEST(EnsembleEngine, ReplicasAreBitwiseTwinsOfSoloMultibatch) {
  const auto proto = dense_proto();
  const std::uint64_t n = 100'000;
  const std::uint64_t master = 77;
  const std::size_t replicas = 6;
  const sim_spec spec(proto, half_split(n));
  ensemble_engine ensemble(proto, half_split(n), master, replicas);
  ensemble.set_threads(4);
  // One shared chunk schedule: a burn run plus single steps.
  ensemble.run(30'000);
  for (int i = 0; i < 5; ++i) ensemble.step();
  for (std::size_t r = 0; r < replicas; ++r) {
    rng gen = make_stream_rng(master, r);
    const auto solo = spec.make_engine(engine_kind::multibatch, gen);
    solo->run(30'000);
    for (int i = 0; i < 5; ++i) solo->step();
    EXPECT_EQ(ensemble.replica_census(r), solo->census().counts())
        << "replica " << r;
    EXPECT_EQ(ensemble.interactions(r), solo->interactions());
  }
  EXPECT_EQ(ensemble.total_interactions(),
            replicas * (30'000ull + 5ull));
  EXPECT_GT(ensemble.total_rounds(), 0u);
  EXPECT_GT(ensemble.total_collisions(), 0u);
}

TEST(EnsembleEngine, ThreadCountNeverChangesResults) {
  const auto proto = dense_proto();
  const std::uint64_t n = 50'000;
  const std::size_t replicas = 9;
  std::vector<std::vector<std::uint64_t>> reference;
  for (const std::size_t threads : {1u, 3u, 8u}) {
    ensemble_engine ensemble(proto, half_split(n), 123, replicas);
    ensemble.set_threads(threads);
    ensemble.run(40'000);
    std::vector<std::vector<std::uint64_t>> censuses;
    censuses.reserve(replicas);
    for (std::size_t r = 0; r < replicas; ++r) {
      censuses.push_back(ensemble.replica_census(r));
    }
    if (reference.empty()) {
      reference = censuses;
    } else {
      EXPECT_EQ(censuses, reference) << "at " << threads << " threads";
    }
  }
}

TEST(EnsembleEngine, TimeAveragedCensusBitwiseEqualsTheReplicatePath) {
  const auto proto = dense_proto();
  const sim_spec spec(proto, half_split(20'000));
  const auto project = [](const census_view& view) {
    return view.fractions();
  };
  batch_options bopts;
  bopts.replicas = 5;
  bopts.master_seed = 2024;
  bopts.threads = 2;
  const auto solo = replicate_time_averaged_census(
      spec, engine_kind::multibatch, 10'000, 50, bopts, project);
  ensemble_options eopts;
  eopts.replicas = 5;
  eopts.master_seed = 2024;
  eopts.threads = 2;
  const auto ensemble =
      ensemble_time_averaged_census(spec, 10'000, 50, eopts, project);
  ASSERT_EQ(ensemble.count(), solo.count());
  const auto solo_mean = solo.mean();
  const auto ensemble_mean = ensemble.mean();
  ASSERT_EQ(ensemble_mean.size(), solo_mean.size());
  for (std::size_t j = 0; j < solo_mean.size(); ++j) {
    EXPECT_EQ(ensemble_mean[j], solo_mean[j]) << "coordinate " << j;
  }
}

TEST(EnsembleEngine, SaveRestoreResumesBitExactly) {
  const auto proto = dense_proto();
  const std::uint64_t n = 100'000;
  const std::uint64_t master = 4711;
  const std::size_t replicas = 5;

  // The uninterrupted twin runs the whole schedule in one life.
  ensemble_engine reference(proto, half_split(n), master, replicas);
  reference.set_threads(3);
  reference.run(30'000);

  // The checkpointed copy saves mid-schedule; the snapshot crosses a
  // dump/parse byte boundary, exactly like a file or wire round trip.
  ensemble_engine source(proto, half_split(n), master, replicas);
  source.run(17'123);  // odd chunk: replicas park mid-round
  const json snapshot =
      json::parse(source.save_state().dump_string(false));

  // Restore into an ensemble built from a different master seed at a
  // different thread count: the snapshot's RNG positions must win, and
  // the continuation must match the twin bit for bit under the remaining
  // schedule (run(a); run(b) == run(a+b) does NOT hold for multibatch, so
  // the chunk boundaries are aligned: 17'123 + 12'877 = 30'000).
  ensemble_engine resumed(proto, half_split(n), master + 999, replicas);
  resumed.set_threads(2);
  resumed.restore_state(snapshot);
  EXPECT_EQ(resumed.master_seed(), master);
  source.run(12'877);
  resumed.run(12'877);
  for (std::size_t r = 0; r < replicas; ++r) {
    EXPECT_EQ(resumed.replica_census(r), source.replica_census(r))
        << "replica " << r;
    EXPECT_EQ(resumed.interactions(r), source.interactions(r));
  }
  EXPECT_EQ(resumed.save_state().dump_string(false),
            source.save_state().dump_string(false));

  // And both equal the uninterrupted twin under the same chunk schedule.
  ensemble_engine twin(proto, half_split(n), master, replicas);
  twin.run(17'123);
  twin.run(12'877);
  EXPECT_EQ(resumed.save_state().dump_string(false),
            twin.save_state().dump_string(false));
}

TEST(EnsembleEngine, ReplicaSnapshotEntriesAreTheSoloSchema) {
  const auto proto = dense_proto();
  const std::uint64_t n = 100'000;
  const std::uint64_t master = 3141;
  const std::size_t replicas = 3;
  const sim_spec spec(proto, half_split(n));
  ensemble_engine ensemble(proto, half_split(n), master, replicas);
  ensemble.run(23'456);
  const json snapshot = ensemble.save_state();
  const auto& entries =
      json_require_array(snapshot, "replicas", "ensemble snapshot");
  ASSERT_EQ(entries.size(), replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    // Replica r's entry is byte-identical to the snapshot of the solo
    // multibatch engine it twins — the schemas are shared, not parallel.
    rng gen = make_stream_rng(master, r);
    const auto solo = spec.make_engine(engine_kind::multibatch, gen);
    solo->run(23'456);
    EXPECT_EQ(entries[r].dump_string(false),
              solo->save_state().dump_string(false))
        << "replica " << r;
    // And it restores into a solo engine directly.
    rng fresh(1);
    auto other = spec.make_engine(engine_kind::multibatch, fresh);
    other->restore_state(entries[r]);
    EXPECT_EQ(other->census().counts(), ensemble.replica_census(r));
  }
}

/// Copies an ensemble snapshot, replacing its "replicas" array — the json
/// type is append-only, so tampering rebuilds rather than mutates in place.
json with_replicas(const json& snapshot, const std::vector<json>& entries) {
  json copy = json::object();
  for (const auto& [key, value] : snapshot.members()) {
    if (key == "replicas") {
      json replaced = json::array();
      for (const auto& entry : entries) replaced.push_back(entry);
      copy[key] = std::move(replaced);
    } else {
      copy[key] = value;
    }
  }
  return copy;
}

TEST(EnsembleEngine, RestoreRejectsTamperedSnapshots) {
  const auto proto = dense_proto();
  const std::uint64_t n = 10'000;
  ensemble_engine ensemble(proto, half_split(n), 55, 2);
  ensemble.run(5'000);
  const json good = ensemble.save_state();
  const std::string before = good.dump_string(false);
  const auto& entries =
      json_require_array(good, "replicas", "ensemble snapshot");

  json wrong_version = good;
  wrong_version["state_version"] = std::uint64_t{99};
  EXPECT_THROW(ensemble.restore_state(wrong_version), invariant_error);

  json wrong_engine = good;
  wrong_engine["engine"] = "multibatch";
  EXPECT_THROW(ensemble.restore_state(wrong_engine), invariant_error);

  json missing_key = json::object();
  for (const auto& [key, value] : good.members()) {
    if (key != "master_seed") missing_key[key] = value;
  }
  EXPECT_THROW(ensemble.restore_state(missing_key), invariant_error);

  const json wrong_replicas = with_replicas(good, {entries[0]});
  EXPECT_THROW(ensemble.restore_state(wrong_replicas), invariant_error);

  // A per-replica violation (pools no longer partition the census) is
  // caught by the shared solo validation, and the failed restore leaves
  // the ensemble untouched.
  auto counts = json_require_uint_array(entries[1], "counts", "replica");
  counts[0] += 1;
  json bad_entry = entries[1];
  bad_entry["counts"] = json_uint_array(counts);
  const json bad_pools = with_replicas(good, {entries[0], bad_entry});
  EXPECT_THROW(ensemble.restore_state(bad_pools), invariant_error);
  EXPECT_EQ(ensemble.save_state().dump_string(false), before);
}

TEST(EnsembleEngine, AgreesInDistributionWithAllFourEngines) {
  const auto proto = dense_proto();
  const std::uint64_t n = 1000;
  const std::uint64_t steps = 3000;
  const std::size_t replicas = 160;
  const sim_spec spec(proto, half_split(n));
  const auto hawk_fraction = [](const census_view& view) {
    return view.fraction(0);
  };
  // A master seed disjoint from the engines' below, so the two samples are
  // independent (at an equal seed the multibatch sample would be the
  // ensemble's bitwise twin — a different, stronger test above).
  ensemble_engine ensemble(proto, half_split(n), 900, replicas);
  ensemble.set_threads(3);
  ensemble.run(steps);
  std::vector<double> ensemble_sample;
  ensemble_sample.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    const auto counts = ensemble.replica_census(r);
    ensemble_sample.push_back(
        census_view(counts, n).fraction(0));
  }
  for (const auto kind : {engine_kind::agent, engine_kind::census,
                          engine_kind::batched, engine_kind::multibatch}) {
    const auto engine_sample = testing::replica_statistics(
        spec, kind, replicas, steps, 901, hawk_fraction);
    const double p =
        testing::two_sample_p(ensemble_sample, engine_sample, 8);
    EXPECT_GT(p, 1e-3) << "ensemble vs " << engine_kind_name(kind);
  }
}

}  // namespace
}  // namespace ppg
