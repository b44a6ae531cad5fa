// Crash-recovery suite for the checkpoint layer: RNG state capture, the
// sim_recipe JSON round trip for every built-in registry entry, strict-parse
// rejection of malformed documents, and the bit-exact resume contract —
// checkpoint mid-run (including mid-residual for the multibatch engine),
// restore through a dump/parse cycle as a fresh process would, and assert
// the continued trajectory is bitwise identical to the uninterrupted twin
// with the same run() schedule (DESIGN.md §9).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "ppg/pp/checkpoint.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/pp/multibatch_engine.hpp"
#include "ppg/pp/protocol_registry.hpp"
#include "ppg/pp/protocols/rumor.hpp"
#include "ppg/util/error.hpp"
#include "ppg/util/json.hpp"
#include "ppg/util/rng.hpp"

namespace ppg {
namespace {

constexpr engine_kind all_kinds[] = {engine_kind::agent, engine_kind::census,
                                     engine_kind::multibatch};

// --- RNG state capture ----------------------------------------------------

TEST(RngState, SaveRestoreContinuesIdenticalStream) {
  rng source(8801);
  for (int i = 0; i < 17; ++i) (void)source();
  const auto mark = source.save();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(source());

  rng other(12345);  // unrelated position; restore overwrites it entirely
  other.restore(mark);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(other(), expected[static_cast<std::size_t>(i)]);
  }
}

TEST(RngState, AllZeroStateRejected) {
  rng gen(1);
  EXPECT_THROW(gen.restore({0, 0, 0, 0}), invariant_error);
}

// --- sim_recipe round trip ------------------------------------------------

json parse_recipe_doc(const std::string& text) { return json::parse(text); }

void expect_recipe_round_trip(const std::string& text) {
  const json doc = parse_recipe_doc(text);
  const sim_recipe recipe = sim_recipe::from_json(doc);
  const json out = recipe.to_json();
  // Canonical form is a fixed point: dump → parse → to_json is byte-stable.
  const sim_recipe again = sim_recipe::from_json(json::parse(
      out.dump_string()));
  EXPECT_EQ(again.to_json().dump_string(), out.dump_string());
  EXPECT_EQ(again.to_json(), out);
  EXPECT_EQ(recipe.spec().initial_counts(), again.spec().initial_counts());
  EXPECT_EQ(recipe.sampling(), again.sampling());
  EXPECT_EQ(recipe.proto().num_states(), again.proto().num_states());
}

TEST(SimRecipe, ParameterlessProtocolsRoundTrip) {
  expect_recipe_round_trip(R"({"protocol": {"name": "rumor", "params": {}},
    "initial_counts": [90, 10], "sampling": "distinct"})");
  expect_recipe_round_trip(
      R"({"protocol": {"name": "approximate-majority", "params": {}},
    "initial_counts": [40, 30, 30], "sampling": "with_replacement"})");
  expect_recipe_round_trip(
      R"({"protocol": {"name": "leader-election", "params": {}},
    "initial_counts": [64, 0], "sampling": "distinct"})");
}

TEST(SimRecipe, IgtRoundTrip) {
  expect_recipe_round_trip(
      R"({"protocol": {"name": "igt",
                       "params": {"k": 4, "discipline": "one_way"}},
    "initial_counts": [20, 20, 20, 20, 20, 20], "sampling": "distinct"})");
}

TEST(SimRecipe, MatrixGameRoundTrip) {
  expect_recipe_round_trip(
      R"({"protocol": {"name": "matrix-game",
                       "params": {"game": {"name": "hawk-dove",
                                           "value": 2.0, "cost": 3.0},
                                  "rule": {"name": "logit",
                                           "temperature": 0.5},
                                  "discipline": "two_way"}},
    "initial_counts": [60, 40], "sampling": "distinct"})");
  expect_recipe_round_trip(
      R"({"protocol": {"name": "matrix-game",
                       "params": {"game": {"name": "donation",
                                           "b": 3.0, "c": 1.0},
                                  "rule": {"name": "proportional-imitation",
                                           "rate": 0.25},
                                  "discipline": "one_way"}},
    "initial_counts": [50, 50], "sampling": "distinct"})");
}

TEST(SimRecipe, StrictParseRejectsMalformedDocuments) {
  // Missing key.
  EXPECT_THROW(sim_recipe::from_json(parse_recipe_doc(
                   R"({"protocol": {"name": "rumor", "params": {}},
                       "initial_counts": [9, 1]})")),
               invariant_error);
  // Unknown key.
  EXPECT_THROW(sim_recipe::from_json(parse_recipe_doc(
                   R"({"protocol": {"name": "rumor", "params": {}},
                       "initial_counts": [9, 1], "sampling": "distinct",
                       "extra": 1})")),
               invariant_error);
  // Wrong type.
  EXPECT_THROW(sim_recipe::from_json(parse_recipe_doc(
                   R"({"protocol": {"name": "rumor", "params": {}},
                       "initial_counts": "nope", "sampling": "distinct"})")),
               invariant_error);
  // Unknown protocol / sampling names.
  EXPECT_THROW(sim_recipe::from_json(parse_recipe_doc(
                   R"({"protocol": {"name": "gossip", "params": {}},
                       "initial_counts": [9, 1], "sampling": "distinct"})")),
               invariant_error);
  EXPECT_THROW(sim_recipe::from_json(parse_recipe_doc(
                   R"({"protocol": {"name": "rumor", "params": {}},
                       "initial_counts": [9, 1], "sampling": "sorted"})")),
               invariant_error);
  // Parameterless protocols reject stray params.
  EXPECT_THROW(sim_recipe::from_json(parse_recipe_doc(
                   R"({"protocol": {"name": "rumor", "params": {"k": 3}},
                       "initial_counts": [9, 1], "sampling": "distinct"})")),
               invariant_error);
}

TEST(SimRecipe, StrictParseRejectsUnknownGameAndRule) {
  EXPECT_THROW(
      (void)game_matrix_from_json(json::parse(R"({"name": "chess"})")),
      invariant_error);
  EXPECT_THROW(
      (void)update_rule_from_json(json::parse(R"({"name": "replicate"})")),
      invariant_error);
  EXPECT_THROW((void)game_matrix_from_json(json::parse(
                   R"({"name": "hawk-dove", "value": 2.0})")),
               invariant_error);
  EXPECT_THROW((void)update_rule_from_json(json::parse(
                   R"({"name": "logit", "temperature": 0.5, "beta": 1.0})")),
               invariant_error);
}

// --- bit-exact resume across all three engines ----------------------------

const char* igt_recipe_text() {
  return R"({"protocol": {"name": "igt",
                          "params": {"k": 3, "discipline": "one_way"}},
    "initial_counts": [60, 60, 60, 60, 60], "sampling": "distinct"})";
}

const char* hawk_dove_recipe_text() {
  return R"({"protocol": {"name": "matrix-game",
                          "params": {"game": {"name": "hawk-dove",
                                              "value": 2.0, "cost": 3.0},
                                     "rule": {"name": "logit",
                                              "temperature": 0.4},
                                     "discipline": "two_way"}},
    "initial_counts": [160, 140], "sampling": "distinct"})";
}

const char* rumor_recipe_text() {
  return R"({"protocol": {"name": "rumor", "params": {}},
    "initial_counts": [280, 20], "sampling": "distinct"})";
}

// Runs the saved/restored trajectory against the uninterrupted twin. Both
// runs use the same snapshot cadence, so the run() chunk schedule — part of
// the draw schedule for the aggregated engines — is identical; the
// checkpoint sits at a chunk boundary (t_checkpoint a multiple of cadence).
// With `mid_round`, the engine must be multibatch and the checkpoint must
// land inside a round.
void expect_bit_exact_resume(const std::string& recipe_text, engine_kind kind,
                             std::uint64_t seed, bool mid_round = false) {
  constexpr std::uint64_t t_checkpoint = 4000;
  constexpr std::uint64_t t_total = 9000;
  constexpr std::uint64_t cadence = 1000;

  const sim_recipe recipe = sim_recipe::from_json(json::parse(recipe_text));

  rng gen_full(seed);
  const auto full = recipe.spec().make_engine(kind, gen_full);
  const auto full_snaps = full->run_with_snapshots(t_total, cadence);

  rng gen_cut(seed);
  const auto cut = recipe.spec().make_engine(kind, gen_cut);
  const auto before = cut->run_with_snapshots(t_checkpoint, cadence);
  if (mid_round) {
    const auto* mb = dynamic_cast<const multibatch_engine*>(cut.get());
    ASSERT_NE(mb, nullptr);
    ASSERT_TRUE(mb->mid_round()) << "the checkpoint fell on a round boundary";
  }

  // Through bytes, as a fresh process would read the file.
  const std::string file = save_checkpoint(recipe, *cut).dump_string();
  restored_sim resumed = restore_checkpoint(json::parse(file));
  ASSERT_EQ(resumed.engine->kind(), kind);
  ASSERT_EQ(resumed.engine->interactions(), t_checkpoint);
  const auto after =
      resumed.engine->run_with_snapshots(t_total - t_checkpoint, cadence);

  ASSERT_EQ(before.size() + after.size(), full_snaps.size());
  for (std::size_t i = 0; i < full_snaps.size(); ++i) {
    const auto& got =
        i < before.size() ? before[i] : after[i - before.size()];
    EXPECT_EQ(got.interactions, full_snaps[i].interactions);
    EXPECT_EQ(got.counts, full_snaps[i].counts)
        << engine_kind_name(kind) << " diverged at snapshot " << i;
  }
  // The resumed engine's *entire* state — RNG position included — matches
  // the uninterrupted twin's.
  EXPECT_EQ(resumed.engine->save_state(), full->save_state());
}

TEST(Checkpoint, BitExactResumeIgt) {
  for (const auto kind : all_kinds) {
    expect_bit_exact_resume(igt_recipe_text(), kind, 501);
  }
}

TEST(Checkpoint, BitExactResumeHawkDoveLogit) {
  for (const auto kind : all_kinds) {
    expect_bit_exact_resume(hawk_dove_recipe_text(), kind, 502);
  }
}

// The recipe above at n = 10^5: rounds of ~200 pairs against an aggregate
// threshold of 16, so they take the partner-keyed path, and the
// checkpoint at 4000 interactions lands inside one.
TEST(Checkpoint, BitExactResumeHawkDoveLogitPartnerKeyedRound) {
  const char* recipe_text =
      R"({"protocol": {"name": "matrix-game",
                       "params": {"game": {"name": "hawk-dove",
                                           "value": 2.0, "cost": 3.0},
                                  "rule": {"name": "logit",
                                           "temperature": 0.4},
                                  "discipline": "two_way"}},
          "initial_counts": [53334, 46666], "sampling": "distinct"})";
  const sim_recipe recipe = sim_recipe::from_json(json::parse(recipe_text));
  const kernel_table kernel(recipe.spec().proto());
  ASSERT_TRUE(kernel.partner_keyed());
  rng gen(506);
  const auto engine = recipe.spec().make_engine(engine_kind::multibatch, gen);
  const auto& mb = dynamic_cast<const multibatch_engine&>(*engine);
  EXPECT_EQ(mb.aggregate_threshold(), 16u);
  engine->run(4000);
  EXPECT_GT(mb.interactions(), 8 * mb.aggregate_threshold() * mb.rounds());
  expect_bit_exact_resume(recipe_text, engine_kind::multibatch, 506, true);
}

// Proportional-imitation RPS at n = 10^5: its kernel is not partner-keyed
// and every row is general, so rounds of ~199 pairs against a threshold of
// 36 draw a q x q matching and split each randomized cell by one
// multinomial; the checkpoint at 4000 interactions lands inside one.
TEST(Checkpoint, BitExactResumeProportionalRpsSplitCellRound) {
  const char* recipe_text =
      R"({"protocol": {"name": "matrix-game",
                       "params": {"game": {"name": "rock-paper-scissors",
                                           "win": 1.0, "loss": 1.0},
                                  "rule": {"name": "proportional-imitation",
                                           "rate": 0.8},
                                  "discipline": "one_way"}},
          "initial_counts": [45000, 35000, 20000], "sampling": "distinct"})";
  const sim_recipe recipe = sim_recipe::from_json(json::parse(recipe_text));
  const kernel_table kernel(recipe.spec().proto());
  ASSERT_FALSE(kernel.partner_keyed());
  EXPECT_EQ(kernel.rows(kernel_table::row_shape::general).size(), 3u);
  // The three pairs whose initiator loses split over two outcomes.
  std::size_t split_pairs = 0;
  for (agent_state u = 0; u < 3; ++u) {
    for (agent_state v = 0; v < 3; ++v) {
      split_pairs += kernel.num_outcomes(u, v) == 2 ? 1u : 0u;
    }
  }
  EXPECT_EQ(split_pairs, 3u);
  rng gen(507);
  const auto engine = recipe.spec().make_engine(engine_kind::multibatch, gen);
  const auto& mb = dynamic_cast<const multibatch_engine&>(*engine);
  EXPECT_EQ(mb.aggregate_threshold(), 36u);
  engine->run(4000);
  EXPECT_GT(mb.interactions(), 4 * mb.aggregate_threshold() * mb.rounds());
  expect_bit_exact_resume(recipe_text, engine_kind::multibatch, 507, true);
}

TEST(Checkpoint, BitExactResumeRumor) {
  for (const auto kind : all_kinds) {
    expect_bit_exact_resume(rumor_recipe_text(), kind, 503);
  }
}

// Dilute one-way k = 8 IGT at n = 10^6: 2% GTFT agents, so ~98% of
// interactions are identities and the multibatch engine runs skip batches
// only. The checkpoint at 4000 interactions cuts a skip batch, which
// carries nothing: the resumed engine redraws its geometric.
TEST(Checkpoint, BitExactResumeInsideSkipBatches) {
  const char* recipe_text =
      R"({"protocol": {"name": "igt",
                       "params": {"k": 8, "discipline": "one_way"}},
          "initial_counts": [780000, 200000, 20000, 0, 0, 0, 0, 0, 0, 0],
          "sampling": "distinct"})";
  const sim_recipe recipe = sim_recipe::from_json(json::parse(recipe_text));
  rng gen(508);
  const auto engine = recipe.spec().make_engine(engine_kind::multibatch, gen);
  const auto& mb = dynamic_cast<const multibatch_engine&>(*engine);
  for (int chunk = 0; chunk < 4; ++chunk) engine->run(1000);
  EXPECT_EQ(mb.rounds(), 0u);
  EXPECT_GT(mb.skip_batches(), 4u);
  expect_bit_exact_resume(recipe_text, engine_kind::multibatch, 508);
}

TEST(Checkpoint, BatchedCheckpointsAreRejectedByName) {
  // The batched engine was folded into multibatch; its checkpoints carry a
  // schema no engine reads, and the rejection says why.
  const sim_recipe recipe =
      sim_recipe::from_json(json::parse(rumor_recipe_text()));
  rng gen(509);
  const auto engine = recipe.spec().make_engine(engine_kind::census, gen);
  engine->run(500);
  json file = save_checkpoint(recipe, *engine);
  json snapshot = file["engine"];
  snapshot["engine"] = "batched";
  snapshot["batches"] = std::uint64_t{17};
  snapshot["active_weight"] = std::uint64_t{5600};
  file["engine"] = snapshot;
  for (const auto& attempt :
       std::vector<std::function<void()>>{
           [] { (void)engine_kind_from_name("batched"); },
           [&file] { (void)restore_checkpoint(file); }}) {
    try {
      attempt();
      ADD_FAILURE() << "accepted the engine name 'batched'";
    } catch (const invariant_error& e) {
      EXPECT_NE(std::string(e.what()).find("folded into 'multibatch'"),
                std::string::npos)
          << e.what();
    }
  }
}

// The multibatch engine's rounds span ~sqrt(n) interactions, so a run()
// budget routinely truncates a round mid-flight; the carry (pending free
// pairs + the unresolved collision split) must survive the checkpoint.
// Runs both twins in `chunk`-interaction run() calls until the cut one is
// mid-round with free pairs pending, checkpoints it, and checks that the
// resumed engine continues the uninterrupted twin draw for draw.
void expect_mid_round_resume(const std::string& recipe_text,
                             std::uint64_t chunk, std::uint64_t seed) {
  const sim_recipe recipe = sim_recipe::from_json(json::parse(recipe_text));

  rng gen_full(seed);
  const auto full = recipe.spec().make_engine(engine_kind::multibatch,
                                              gen_full);
  rng gen_cut(seed);
  const auto cut = recipe.spec().make_engine(engine_kind::multibatch,
                                             gen_cut);

  // Advance both twins in lockstep until the cut engine is mid-round with
  // free pairs still pending.
  const auto* mb = dynamic_cast<const multibatch_engine*>(cut.get());
  ASSERT_NE(mb, nullptr);
  bool found = false;
  for (int i = 0; i < 200 && !found; ++i) {
    full->run(chunk);
    cut->run(chunk);
    found = mb->residual_free() > 0;
  }
  ASSERT_TRUE(found) << "never saw a truncated round with pending pairs";
  ASSERT_TRUE(mb->mid_round());

  const std::string file = save_checkpoint(recipe, *cut).dump_string();
  restored_sim resumed = restore_checkpoint(json::parse(file));
  const auto* rmb =
      dynamic_cast<const multibatch_engine*>(resumed.engine.get());
  ASSERT_NE(rmb, nullptr);
  EXPECT_EQ(rmb->residual_free(), mb->residual_free());
  EXPECT_TRUE(rmb->mid_round());

  // Identical run() schedules from here on: the continued trajectory must
  // match the uninterrupted twin draw for draw.
  for (int i = 0; i < 50; ++i) {
    full->run(chunk);
    resumed.engine->run(chunk);
    ASSERT_EQ(resumed.engine->interactions(), full->interactions());
    const auto a = full->census();
    const auto b = resumed.engine->census();
    for (agent_state s = 0; s < a.num_state_kinds(); ++s) {
      ASSERT_EQ(b.count(s), a.count(s)) << "state " << s << " at chunk " << i;
    }
  }
  EXPECT_EQ(resumed.engine->save_state(), full->save_state());
}

TEST(Checkpoint, MultibatchResumesMidResidualRound) {
  // 7 is far below a round length at n = 300. Two-way logit has no
  // identity pair, so the engine runs rounds at every boundary.
  expect_mid_round_resume(hawk_dove_recipe_text(), 7, 604);
}

// At n = 10^5 a one-way IGT round has ~200 collision-free pairs, and the
// derived aggregate threshold is 24: 100-interaction chunks split rounds
// into aggregate parts whose GTFT rows draw over the responder classes,
// so the checkpoint carries the residual of a classed round.
TEST(Checkpoint, MultibatchResumesMidClassedRound) {
  const char* recipe_text =
      R"({"protocol": {"name": "igt",
                       "params": {"k": 3, "discipline": "one_way"}},
          "initial_counts": [20000, 20000, 20000, 20000, 20000],
          "sampling": "distinct"})";
  const sim_recipe recipe = sim_recipe::from_json(json::parse(recipe_text));
  const kernel_table kernel(recipe.spec().proto());
  EXPECT_EQ(kernel.rows(kernel_table::row_shape::classed).size(), 3u);
  rng gen(605);
  const auto engine = recipe.spec().make_engine(engine_kind::multibatch, gen);
  EXPECT_EQ(dynamic_cast<const multibatch_engine&>(*engine)
                .aggregate_threshold(),
            24u);
  expect_mid_round_resume(recipe_text, 100, 605);
}

// The paper's workload shape: one-way k = 8 IGT at n = 10^6 from the
// all-stingy start (threshold 64, rounds of ~627 pairs). The first run(500)
// is one aggregate part of an open round, whose responders were drawn by
// class and resolved by state before run() returned; the checkpoint
// carries that round.
TEST(Checkpoint, MultibatchResumesMidOneWayIgtRoundAtWorkloadShape) {
  const char* recipe_text =
      R"({"protocol": {"name": "igt",
                       "params": {"k": 8, "discipline": "one_way"}},
          "initial_counts": [100000, 200000, 700000, 0, 0, 0, 0, 0, 0, 0],
          "sampling": "distinct"})";
  const sim_recipe recipe = sim_recipe::from_json(json::parse(recipe_text));
  rng gen(606);
  const auto engine = recipe.spec().make_engine(engine_kind::multibatch, gen);
  const auto& mb = dynamic_cast<const multibatch_engine&>(*engine);
  EXPECT_EQ(mb.aggregate_threshold(), 64u);
  engine->run(500);
  ASSERT_EQ(mb.rounds(), 1u);
  ASSERT_GT(mb.residual_free(), 0u) << "the first round ended inside 500";
  expect_mid_round_resume(recipe_text, 500, 606);
}

// --- recipe fingerprints ---------------------------------------------------

TEST(Fingerprint, InvariantUnderSourceFormatting) {
  // The fingerprint hashes the *canonical* form, so whitespace, key order
  // of the source text, and number spelling in the input must not matter.
  const sim_recipe tidy = sim_recipe::from_json(json::parse(
      R"({"protocol": {"name": "rumor", "params": {}},
          "initial_counts": [280, 20], "sampling": "distinct"})"));
  const sim_recipe scrambled = sim_recipe::from_json(json::parse(
      "{\"sampling\":\"distinct\",\"initial_counts\":[280,20],"
      "\"protocol\":{\"params\":{},\"name\":\"rumor\"}}"));
  EXPECT_EQ(recipe_fingerprint(tidy), recipe_fingerprint(scrambled));
}

TEST(Fingerprint, SensitiveToEveryRecipeField) {
  const auto fingerprint_of = [](const char* text) {
    return recipe_fingerprint(sim_recipe::from_json(json::parse(text)));
  };
  const std::uint64_t base = fingerprint_of(
      R"({"protocol": {"name": "rumor", "params": {}},
          "initial_counts": [280, 20], "sampling": "distinct"})");
  // Census, sampling, and protocol changes all move the fingerprint.
  EXPECT_NE(base, fingerprint_of(
                      R"({"protocol": {"name": "rumor", "params": {}},
          "initial_counts": [281, 19], "sampling": "distinct"})"));
  EXPECT_NE(base, fingerprint_of(
                      R"({"protocol": {"name": "rumor", "params": {}},
          "initial_counts": [280, 20], "sampling": "with_replacement"})"));
  EXPECT_NE(base,
            fingerprint_of(
                R"({"protocol": {"name": "approximate-majority", "params": {}},
          "initial_counts": [280, 20, 0], "sampling": "distinct"})"));
}

TEST(Fingerprint, StableAcrossProcessRestarts) {
  // json_fingerprint must be a pure function of the document bytes — no
  // per-process salting — or the serve kernel cache would never warm up
  // across sessions created from identical client requests.
  const json doc = json::parse(R"({"name": "rumor", "params": {}})");
  EXPECT_EQ(json_fingerprint(doc), json_fingerprint(json::parse(
                                       R"({"name":"rumor","params":{}})")));
  EXPECT_NE(json_fingerprint(doc),
            json_fingerprint(json::parse(R"({"name": "rumor"})")));
}

TEST(Checkpoint, RestoreWithPrecompiledKernelIsBitExact) {
  // The serve warm-cache path: restoring with a shared precompiled kernel
  // must continue the trajectory exactly like a fresh compile.
  const sim_recipe recipe =
      sim_recipe::from_json(json::parse(hawk_dove_recipe_text()));
  const auto kernel = std::make_shared<const kernel_table>(recipe.proto());
  for (const auto kind : {engine_kind::census, engine_kind::multibatch}) {
    rng gen(604);
    const auto engine = recipe.spec().make_engine(kind, gen);
    engine->run(4096);
    const json checkpoint = save_checkpoint(recipe, *engine);

    auto plain = restore_checkpoint(checkpoint);
    auto shared = restore_checkpoint(checkpoint, kernel);
    plain.engine->run(4096);
    shared.engine->run(4096);
    EXPECT_EQ(plain.engine->save_state(), shared.engine->save_state())
        << engine_kind_name(kind);
  }
}

// --- snapshot round trip and strictness -----------------------------------

TEST(Checkpoint, AgentRestoreRejectsStatesOutsideTheKernel) {
  // A census one state wider than rumor's q = 2: a snapshot may name state
  // 2 without leaving the population's space, but the kernel has no row
  // for it, so restore_state must refuse it and keep the engine as it was.
  const rumor_protocol rumor;
  const sim_spec spec(rumor, std::vector<std::uint64_t>{30, 2, 0});
  rng gen(903);
  const auto engine = spec.make_engine(engine_kind::agent, gen);
  engine->run(200);
  const json good = engine->save_state();
  auto states = json_require_uint_array(good, "states", "agent snapshot");
  states.front() = 2;
  json bad = good;
  bad["states"] = json_uint_array(states);
  try {
    engine->restore_state(bad);
    ADD_FAILURE() << "accepted an agent outside the kernel's states";
  } catch (const invariant_error& e) {
    EXPECT_NE(std::string(e.what()).find("outside the protocol's space"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(engine->save_state(), good);
}

TEST(Checkpoint, SnapshotIsAFixedPointOfRestore) {
  const sim_recipe recipe =
      sim_recipe::from_json(json::parse(igt_recipe_text()));
  for (const auto kind : all_kinds) {
    rng gen(705);
    const auto engine = recipe.spec().make_engine(kind, gen);
    engine->run(3137);  // deliberately not a round/batch boundary
    const json snapshot = engine->save_state();
    EXPECT_EQ(json::parse(snapshot.dump_string()), snapshot);

    rng scratch(0);
    const auto fresh = recipe.spec().make_engine(kind, scratch);
    fresh->restore_state(snapshot);
    EXPECT_EQ(fresh->save_state(), snapshot) << engine_kind_name(kind);
    EXPECT_EQ(fresh->interactions(), engine->interactions());
  }
}

TEST(Checkpoint, RestoreRejectsTamperedSnapshots) {
  const sim_recipe recipe =
      sim_recipe::from_json(json::parse(rumor_recipe_text()));
  rng gen(806);
  const auto engine = recipe.spec().make_engine(engine_kind::census, gen);
  engine->run(500);
  const json good = engine->save_state();

  const auto fresh_engine = [&recipe](engine_kind kind) {
    rng scratch(0);
    return recipe.spec().make_engine(kind, scratch);
  };

  {  // Foreign engine name.
    auto e = fresh_engine(engine_kind::multibatch);
    EXPECT_THROW(e->restore_state(good), invariant_error);
  }
  {  // Unknown state version.
    json bad = good;
    bad["state_version"] = std::uint64_t{99};
    auto e = fresh_engine(engine_kind::census);
    EXPECT_THROW(e->restore_state(bad), invariant_error);
  }
  {  // Unknown key.
    json bad = good;
    bad["surprise"] = std::uint64_t{1};
    auto e = fresh_engine(engine_kind::census);
    EXPECT_THROW(e->restore_state(bad), invariant_error);
  }
  {  // All-zero RNG state (corrupt).
    json bad = good;
    bad["rng"] = json_uint_array({0, 0, 0, 0});
    auto e = fresh_engine(engine_kind::census);
    EXPECT_THROW(e->restore_state(bad), invariant_error);
  }
  {  // Unsupported outer schema version.
    json file = save_checkpoint(recipe, *engine);
    file["schema_version"] = std::uint64_t{2};
    EXPECT_THROW((void)restore_checkpoint(file), invariant_error);
  }

  // Every kind validates the whole snapshot before it commits any of it: a
  // tampered snapshot restored into an engine whose state differs from the
  // snapshot's is rejected with a message naming the broken field, and the
  // target is left byte-for-byte as it was.
  const sim_recipe hd_recipe =
      sim_recipe::from_json(json::parse(hawk_dove_recipe_text()));
  const auto expect_rejected = [](sim_engine& target, const json& bad,
                                  const std::string& why) {
    const std::string before = target.save_state().dump_string(false);
    try {
      target.restore_state(bad);
      ADD_FAILURE() << "accepted a snapshot with " << why;
    } catch (const invariant_error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
    }
    EXPECT_EQ(target.save_state().dump_string(false), before) << why;
  };
  const auto diverged_target = [&hd_recipe](engine_kind kind) {
    rng target_gen(808);
    auto target = hd_recipe.spec().make_engine(kind, target_gen);
    target->run(300);
    return target;
  };
  for (const auto kind : all_kinds) {
    SCOPED_TRACE(engine_kind_name(kind));
    rng source_gen(809);
    const auto source = hd_recipe.spec().make_engine(kind, source_gen);
    source->run(500);
    const json snapshot = source->save_state();
    const auto target = diverged_target(kind);
    ASSERT_NE(target->save_state(), snapshot);
    const char* where = "tampered snapshot";
    if (kind == engine_kind::agent) {
      auto states = json_require_uint_array(snapshot, "states", where);
      states.back() = 99;
      json bad = snapshot;
      bad["states"] = json_uint_array(states);
      expect_rejected(*target, bad, "state outside the population's space");
      continue;
    }
    {  // One agent too many: the census no longer sums to the population.
      auto counts = json_require_uint_array(snapshot, "counts", where);
      ++counts.back();
      json bad = snapshot;
      bad["counts"] = json_uint_array(counts);
      expect_rejected(*target, bad, "population size mismatch");
    }
  }

  // The multibatch round state, from a snapshot taken mid-round with free
  // pairs pending: each tampered copy breaks exactly one invariant, and
  // the rejection names that invariant.
  rng mb_gen(807);
  const auto mb_engine = hd_recipe.spec().make_engine(engine_kind::multibatch,
                                                      mb_gen);
  const auto& mb = dynamic_cast<const multibatch_engine&>(*mb_engine);
  for (int i = 0; i < 200 && mb.residual_free() == 0; ++i) mb_engine->run(7);
  ASSERT_GT(mb.residual_free(), 0u) << "never parked mid-round";
  const json mid = mb_engine->save_state();
  const auto mb_target = diverged_target(engine_kind::multibatch);
  ASSERT_NE(mb_target->save_state(), mid);
  const char* where = "multibatch snapshot";
  const auto counts = json_require_uint_array(mid, "counts", where);
  const auto untouched = json_require_uint_array(mid, "untouched", where);
  const std::uint64_t untouched_total =
      std::accumulate(untouched.begin(), untouched.end(), std::uint64_t{0});
  {  // An untouched pool that does not fit in the census.
    auto over = untouched;
    over[0] = counts[0] + 1;
    json bad = mid;
    bad["untouched"] = json_uint_array(over);
    expect_rejected(*mb_target, bad, "untouched pool exceeds the census");
  }
  {  // pending_free > 0 with no agent touched.
    json bad = mid;
    bad["untouched"] = json_uint_array(counts);
    expect_rejected(*mb_target, bad, "residual carry outside a round");
  }
  {  // 2 * pending_free > the untouched pool.
    json bad = mid;
    bad["pending_free"] = untouched_total / 2 + 1;
    expect_rejected(*mb_target, bad,
                    "residual free run exceeds the untouched pool");
  }
  // The untampered snapshot still restores.
  mb_target->restore_state(mid);
  EXPECT_EQ(mb_target->save_state().dump_string(false),
            mid.dump_string(false));
}

}  // namespace
}  // namespace ppg
