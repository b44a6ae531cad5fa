// Tests for the ppg-bench experiment harness: scenario registry semantics,
// --filter selection, the JSON writer/parser (escaping + round-trip of a
// scenario_result), flag parsing, artifact schema, and the determinism
// contract two identical --smoke --seed runs must satisfy.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ppg/exp/harness.hpp"
#include "ppg/exp/replicate.hpp"
#include "ppg/exp/scenario.hpp"
#include "ppg/util/error.hpp"
#include "ppg/util/json.hpp"

namespace {

using namespace ppg;

scenario_result trivial_scenario(const scenario_context&) {
  scenario_result result;
  result.metric("answer", 42.0);
  return result;
}

TEST(ScenarioRegistry, RegisterAndFind) {
  scenario_registry registry;
  registry.register_scenario("alpha", "tag1,tag2", "first", trivial_scenario);
  registry.register_scenario("beta", "tag2", "second", trivial_scenario);
  ASSERT_NE(registry.find("alpha"), nullptr);
  EXPECT_EQ(registry.find("alpha")->description, "first");
  EXPECT_EQ(registry.find("missing"), nullptr);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(ScenarioRegistry, DuplicateNameThrows) {
  scenario_registry registry;
  registry.register_scenario("alpha", "", "first", trivial_scenario);
  EXPECT_THROW(
      registry.register_scenario("alpha", "", "again", trivial_scenario),
      invariant_error);
}

TEST(ScenarioRegistry, EmptyNameOrBodyThrows) {
  scenario_registry registry;
  EXPECT_THROW(registry.register_scenario("", "", "x", trivial_scenario),
               invariant_error);
  EXPECT_THROW(registry.register_scenario("ok", "", "x", nullptr),
               invariant_error);
}

TEST(ScenarioRegistry, FilterMatchesNamesAndTags) {
  scenario_registry registry;
  registry.register_scenario("e1_stationary", "ehrenfest,exact", "",
                             trivial_scenario);
  registry.register_scenario("e11_mixing", "igt,simulation", "",
                             trivial_scenario);
  registry.register_scenario("a1_ablation", "igt,ablation", "",
                             trivial_scenario);

  // Empty filter selects everything, name-sorted.
  const auto all = registry.match("");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name, "a1_ablation");
  EXPECT_EQ(all[1]->name, "e11_mixing");
  EXPECT_EQ(all[2]->name, "e1_stationary");

  // Substring regex over names: "e1" matches both e1_* and e11_*.
  EXPECT_EQ(registry.match("e1").size(), 2u);
  // Anchors narrow it down.
  const auto anchored = registry.match("^e1_");
  ASSERT_EQ(anchored.size(), 1u);
  EXPECT_EQ(anchored[0]->name, "e1_stationary");
  // Tag matches select too: "igt" is a tag of two scenarios.
  EXPECT_EQ(registry.match("^igt$").size(), 2u);
  // No match is empty, not an error.
  EXPECT_TRUE(registry.match("zzz").empty());
  // Malformed regex throws.
  EXPECT_THROW(registry.match("["), invariant_error);
}

TEST(FormatMetric, ShortestRoundTrip) {
  // The std::to_string bug this replaces: fixed six decimals lose
  // precision (to_string(2.0/3.0) == "0.666667") and pad integers
  // ("2.000000"). format_metric is shortest-round-trip.
  EXPECT_EQ(format_metric(2.0), "2");
  EXPECT_EQ(format_metric(0.1), "0.1");
  const double lambda = 2.0 / 3.0;
  EXPECT_EQ(std::stod(format_metric(lambda)), lambda);
  // Rounded display: shortest form of the rounded value.
  EXPECT_EQ(format_metric(lambda, 4), "0.6667");
  EXPECT_EQ(format_metric(2.0, 4), "2");
  EXPECT_EQ(format_metric(1234.5678, 2), "1200");
  EXPECT_EQ(format_metric(0.0), "0");
}

TEST(Json, EscapingRoundTrip) {
  json doc = json::object();
  doc["quote\"backslash\\"] = "tab\tnewline\ncontrol\x01";
  doc["unicode"] = std::string("caf\xc3\xa9");  // UTF-8 passes through
  const std::string text = doc.dump_string();
  EXPECT_NE(text.find("\\\""), std::string::npos);
  EXPECT_NE(text.find("\\\\"), std::string::npos);
  EXPECT_NE(text.find("\\t"), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  const json parsed = json::parse(text);
  EXPECT_EQ(parsed, doc);
}

TEST(Json, ParserAcceptsStandardEscapes) {
  const json parsed =
      json::parse(R"({"s": "a\/b A 😀", "n": [1, -2.5e3]})");
  EXPECT_EQ(parsed.find("s")->as_string(),
            "a/b A \xf0\x9f\x98\x80");  // surrogate pair -> U+1F600
  EXPECT_EQ(parsed.find("n")->items()[1].as_number(), -2500.0);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), invariant_error);
  EXPECT_THROW(json::parse("[1,]"), invariant_error);
  EXPECT_THROW(json::parse("{\"a\": 1} trailing"), invariant_error);
  EXPECT_THROW(json::parse("\"unterminated"), invariant_error);
  EXPECT_THROW(json::parse("{\"a\": 1, \"a\": 2}"), invariant_error);
  EXPECT_THROW(json::parse("nul"), invariant_error);
}

TEST(Json, ParseLimitsRejectOversizedInput) {
  json::parse_limits limits;
  limits.max_bytes = 16;
  EXPECT_NO_THROW((void)json::parse(R"({"a": 1})", limits));
  try {
    (void)json::parse(R"({"key": "0123456789"})", limits);
    FAIL() << "oversized input was accepted";
  } catch (const invariant_error& e) {
    // The error must point at both sizes, so a client learns the cap.
    const std::string what = e.what();
    EXPECT_NE(what.find("21 bytes"), std::string::npos) << what;
    EXPECT_NE(what.find("16-byte limit"), std::string::npos) << what;
  }
  // max_bytes == 0 means unlimited (the trusted-input default).
  limits.max_bytes = 0;
  EXPECT_NO_THROW((void)json::parse(R"({"key": "0123456789"})", limits));
}

TEST(Json, ParseLimitsRejectDeepNesting) {
  json::parse_limits limits;
  limits.max_depth = 4;
  EXPECT_NO_THROW((void)json::parse("[[[[1]]]]", limits));  // exactly 4 deep
  try {
    (void)json::parse("[[[[[1]]]]]", limits);
    FAIL() << "over-deep input was accepted";
  } catch (const invariant_error& e) {
    EXPECT_NE(std::string(e.what()).find("deeper than 4 levels"),
              std::string::npos)
        << e.what();
  }
  // Objects and arrays share the one depth budget: 4 mixed levels pass,
  // a fifth of either kind is refused.
  EXPECT_NO_THROW((void)json::parse(R"({"a": [{"b": [1]}]})", limits));
  EXPECT_THROW((void)json::parse(R"({"a": [{"b": [[1]]}]})", limits),
               invariant_error);
  EXPECT_THROW((void)(json::parse("x", json::parse_limits{0, 0})),
               invariant_error);  // a zero depth budget is a caller bug
}

TEST(Json, DefaultParseDepthIsBounded) {
  // The unlimited-bytes default still bounds recursion: 4000 open brackets
  // must fail with the depth error, not a stack overflow.
  const std::string deep(4000, '[');
  try {
    (void)json::parse(deep);
    FAIL() << "unbounded nesting was accepted";
  } catch (const invariant_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper"), std::string::npos)
        << e.what();
  }
}

TEST(Json, LargeUnsignedIntegersStayExact) {
  // Seeds above 2^53 must not be routed through double: the artifact
  // exists so a run can be reproduced from its recorded parameters.
  const std::uint64_t seed = 9007199254740993ull;  // 2^53 + 1
  json doc = json::object();
  doc["seed"] = seed;
  const std::string text = doc.dump_string(false);
  EXPECT_NE(text.find("9007199254740993"), std::string::npos);
  const json parsed = json::parse(text);
  EXPECT_EQ(parsed.find("seed")->as_uint64(), seed);
  EXPECT_EQ(json::parse("18446744073709551615").as_uint64(),
            ~std::uint64_t{0});
  // Small integers written from int compare equal to their re-parsed
  // (exact) form.
  EXPECT_EQ(json::parse(json(400).dump_string()), json(400));
}

TEST(Json, NumbersSurviveRoundTrip) {
  json doc = json::array();
  doc.push_back(1.0 / 3.0);
  doc.push_back(6.59e-17);
  doc.push_back(1e300);
  doc.push_back(-0.0);
  const json parsed = json::parse(doc.dump_string(false));
  for (std::size_t i = 0; i < doc.size(); ++i) {
    EXPECT_EQ(parsed.items()[i].as_number(), doc.items()[i].as_number());
  }
}

TEST(ScenarioResult, JsonRoundTrip) {
  scenario_result result;
  result.param("n", 400);
  result.param("engine", "census");
  result.metric("max_tv", 0.0123456789012345, metric_goal::minimize);
  result.metric("speedup", 11.5, metric_goal::maximize);
  result.metric("untracked", 1.0);
  auto& table = result.table("sweep \"quoted\"", {"k", "value"});
  table.add_row({"2", format_metric(1.0 / 3.0)});
  result.note("line one\nline two");

  const json fragment = result.to_json();
  const json parsed = json::parse(fragment.dump_string());
  EXPECT_EQ(parsed, fragment);
  EXPECT_EQ(parsed.find("params")->find("n")->as_number(), 400.0);
  EXPECT_EQ(parsed.find("metrics")->find("max_tv")->as_number(),
            0.0123456789012345);
  EXPECT_EQ(parsed.find("metric_goals")->find("max_tv")->as_string(), "min");
  EXPECT_EQ(parsed.find("metric_goals")->find("speedup")->as_string(), "max");
  EXPECT_EQ(parsed.find("metric_goals")->find("untracked"), nullptr);
  const auto& rows = parsed.find("tables")->items()[0].find("rows")->items();
  EXPECT_EQ(std::stod(rows[0].items()[1].as_string()), 1.0 / 3.0);
}

TEST(ScenarioResult, MetricOverwriteKeepsOnePerName) {
  scenario_result result;
  result.metric("x", 1.0);
  result.metric("x", 2.0, metric_goal::minimize);
  ASSERT_EQ(result.metrics().size(), 1u);
  EXPECT_EQ(result.metrics()[0].first, "x");
  EXPECT_EQ(result.metrics()[0].second, 2.0);
}

TEST(ScenarioTable, RowWidthEnforced) {
  scenario_result result;
  auto& table = result.table("t", {"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), invariant_error);
}

TEST(HarnessArgs, ParseAllFlags) {
  const auto options = parse_harness_args(
      {"--smoke", "--filter", "e1.*", "--seed", "7", "--threads", "3",
       "--json", "out.json"});
  EXPECT_TRUE(options.smoke);
  EXPECT_EQ(options.filter, "e1.*");
  EXPECT_EQ(options.seed, 7u);
  EXPECT_EQ(options.threads, 3u);
  EXPECT_EQ(options.json_path, "out.json");
  EXPECT_FALSE(options.list);

  EXPECT_THROW(parse_harness_args({"--bogus"}), invariant_error);
  EXPECT_THROW(parse_harness_args({"--seed"}), invariant_error);
  EXPECT_THROW(parse_harness_args({"--seed", "abc"}), invariant_error);
  // strtoull would silently wrap these; the parser must reject them.
  EXPECT_THROW(parse_harness_args({"--seed", "-1"}), invariant_error);
  EXPECT_THROW(parse_harness_args({"--seed", "99999999999999999999"}),
               invariant_error);
  // A full 64-bit seed survives parsing exactly.
  EXPECT_EQ(parse_harness_args({"--seed", "18446744073709551615"}).seed,
            ~std::uint64_t{0});
}

// A toy Monte-Carlo scenario: all randomness flows from ctx.seed through
// the batch engine, so the harness determinism contract applies.
scenario_result monte_carlo_scenario(const scenario_context& ctx) {
  scenario_result result;
  const std::size_t replicas = ctx.pick<std::size_t>(8, 4);
  const auto agg = replicate_scalar(
      ctx.batch(replicas), [](const replica_context&, rng& gen) {
        double total = 0.0;
        for (int i = 0; i < 1000; ++i) total += gen.next_double();
        return total;
      });
  result.param("replicas", replicas);
  result.metric("mean", agg.mean(), metric_goal::minimize);
  result.metric("extra_draw", ctx.make_rng(1).next_double());
  return result;
}

// Runs the harness once and returns the parsed artifact.
json run_once(scenario_registry& registry, const harness_options& options) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_harness(options, registry, out, err);
  EXPECT_EQ(code, 0) << err.str();
  std::ifstream file(options.json_path);
  std::stringstream text;
  text << file.rdbuf();
  return json::parse(text.str());
}

TEST(Harness, SmokeRunsAreDeterministic) {
  scenario_registry registry;
  registry.register_scenario("mc", "toy", "deterministic toy",
                             monte_carlo_scenario);
  harness_options options;
  options.smoke = true;
  options.seed = 42;
  const std::string path_a = testing::TempDir() + "ppg_det_a.json";
  const std::string path_b = testing::TempDir() + "ppg_det_b.json";
  options.json_path = path_a;
  const json first = run_once(registry, options);
  options.json_path = path_b;
  const json second = run_once(registry, options);

  // Two --smoke --seed 42 runs produce bitwise-identical metrics (wall_s
  // and timestamp legitimately differ).
  const json* metrics_a = first.find("scenarios")->items()[0].find("metrics");
  const json* metrics_b =
      second.find("scenarios")->items()[0].find("metrics");
  EXPECT_EQ(*metrics_a, *metrics_b);

  // A different seed changes the metrics.
  options.seed = 43;
  const json third = run_once(registry, options);
  EXPECT_NE(*third.find("scenarios")->items()[0].find("metrics"), *metrics_a);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(Harness, ArtifactSchema) {
  scenario_registry registry;
  registry.register_scenario("mc", "toy", "toy", monte_carlo_scenario);
  harness_options options;
  options.smoke = true;
  const scenario_context ctx{options.smoke, options.seed, options.threads};
  std::vector<harness_run> runs;
  runs.push_back({"mc", registry.find("mc")->run(ctx), 0.5});
  const json artifact = harness_artifact(runs, options);

  EXPECT_EQ(artifact.find("schema_version")->as_number(),
            static_cast<double>(bench_schema_version));
  ASSERT_NE(artifact.find("git_sha"), nullptr);
  ASSERT_NE(artifact.find("build_type"), nullptr);
  ASSERT_NE(artifact.find("timestamp"), nullptr);
  EXPECT_TRUE(artifact.find("smoke")->as_bool());
  const auto& scenario = artifact.find("scenarios")->items()[0];
  EXPECT_EQ(scenario.find("name")->as_string(), "mc");
  EXPECT_EQ(scenario.find("wall_s")->as_number(), 0.5);
  ASSERT_NE(scenario.find("params"), nullptr);
  ASSERT_NE(scenario.find("metrics"), nullptr);
  ASSERT_NE(scenario.find("metric_goals"), nullptr);
  ASSERT_NE(scenario.find("tables"), nullptr);
  ASSERT_NE(scenario.find("notes"), nullptr);
}

TEST(Harness, ListAndFilterExitCodes) {
  scenario_registry registry;
  registry.register_scenario("mc", "toy", "toy", monte_carlo_scenario);
  std::ostringstream out;
  std::ostringstream err;

  harness_options list_options;
  list_options.list = true;
  EXPECT_EQ(run_harness(list_options, registry, out, err), 0);
  EXPECT_NE(out.str().find("mc"), std::string::npos);

  harness_options no_match;
  no_match.filter = "nothing-matches";
  EXPECT_EQ(run_harness(no_match, registry, out, err), 2);

  harness_options bad_regex;
  bad_regex.filter = "[";
  EXPECT_EQ(run_harness(bad_regex, registry, out, err), 2);
}

}  // namespace
