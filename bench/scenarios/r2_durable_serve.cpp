// Scenario R2 (serve durability layer): crash-safety of ppg-serve as a
// bench gate. One in-process serve_app runs with a filesystem session
// store; the scenario measures what durability costs (spill overhead over
// a store-less twin, boot-time recovery latency) and gates the three
// robustness flags that must never regress:
//
//   recovery_bit_exact — a session recovered from the store continues
//     byte-identically to a restore of its last spilled checkpoint;
//   quarantine_detected — a deliberately corrupted spill is quarantined at
//     boot (and reported) while healthy sessions still recover;
//   drain_spilled — drain() leaves the on-disk generation carrying exactly
//     the engine's final interaction count.
//
// The flags are deterministic (1.0 by construction of the §13 contract);
// overhead and latency are informational.
#include <dirent.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "ppg/exp/scenario.hpp"
#include "ppg/serve/server.hpp"
#include "ppg/util/atomic_file.hpp"
#include "ppg/util/error.hpp"
#include "ppg/util/json.hpp"
#include "ppg/util/table.hpp"
#include "ppg/util/timer.hpp"

namespace {

using namespace ppg;

http_request make_request(const std::string& method, const std::string& target,
                          const std::string& body = "") {
  http_request request;
  request.method = method;
  request.target = target;
  request.body = body;
  return request;
}

void remove_tree(const std::string& where) {
  DIR* dir = ::opendir(where.c_str());
  if (dir != nullptr) {
    while (dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string child = where + "/" + name;
      if (::unlink(child.c_str()) != 0) remove_tree(child);
    }
    ::closedir(dir);
  }
  ::rmdir(where.c_str());
}

/// POSTs and asserts 2xx (scenario-level sanity, not a gated metric).
http_response must(serve_app& app, const http_request& request) {
  http_response response = app.handle(request);
  PPG_CHECK(response.status < 300,
            request.method + " " + request.target + " -> " +
                std::to_string(response.status) + " " + response.body);
  return response;
}

scenario_result run_r2(const scenario_context& ctx) {
  scenario_result result;
  const auto n = ctx.pick<std::uint64_t>(200'000, 5'000);
  const auto rounds = ctx.pick<std::uint64_t>(16, 4);
  const auto budget = ctx.pick<std::uint64_t>(1'000'000, 10'000);
  result.param("n", n);
  result.param("rounds", rounds);
  result.param("budget_per_round", budget);
  result.param("protocol", "approximate-majority multibatch");

  json recipe = json::parse(
      R"({"protocol": {"name": "approximate-majority", "params": {}},
          "sampling": "distinct"})");
  json counts = json::array();
  counts.push_back(n * 3 / 5);
  counts.push_back(n - n * 3 / 5);
  counts.push_back(std::uint64_t{0});
  recipe["initial_counts"] = std::move(counts);

  const auto create_body = [&](std::uint64_t seed) {
    json body = json::object();
    body["recipe"] = recipe;
    body["engine"] = "multibatch";
    body["seed"] = seed;
    return body.dump_string(false);
  };
  const std::string advance_body =
      "{\"interactions\": " + std::to_string(budget) + "}";

  std::string dir_template = "/tmp/ppg_bench_r2_XXXXXX";
  char* made = ::mkdtemp(dir_template.data());
  PPG_CHECK(made != nullptr, "r2_durable_serve: mkdtemp failed");
  const std::string store_dir = std::string(made) + "/store";

  // Full mode amortizes spills over 64 chunks (a realistic production
  // cadence: ~4 mid-advance spills per 10^6-interaction round); smoke mode
  // spills aggressively so the mid-advance path is still exercised fast.
  serve_config durable_config;
  durable_config.store_dir = store_dir;
  durable_config.chunk = 4096;
  durable_config.spill_every_chunks = ctx.pick<std::uint64_t>(64, 2);
  serve_config plain_config = durable_config;
  plain_config.store_dir.clear();

  // --- spill overhead: the identical request sequence (create s1, then
  // `rounds` advances) timed with and without a store.
  const auto timed_requests = [&](serve_app& app) {
    const timer clock;
    (void)must(app, make_request("POST", "/sessions", create_body(1)));
    for (std::uint64_t round = 0; round < rounds; ++round) {
      (void)must(app,
                 make_request("POST", "/sessions/s1/advance", advance_body));
    }
    return clock.seconds();
  };
  double plain_s = 0.0;
  {
    serve_app plain(plain_config);
    plain_s = timed_requests(plain);
  }

  std::string final_checkpoint;
  double durable_s = 0.0;
  {
    serve_app durable(durable_config);
    durable_s = timed_requests(durable);
    // Untimed: s2 exists only for the quarantine step below.
    (void)must(durable, make_request("POST", "/sessions", create_body(2)));
    final_checkpoint =
        must(durable, make_request("GET", "/sessions/s1/checkpoint")).body;
    // No drain: the serve_app dies like a crashed daemon — the idle spill
    // already made the last advance recoverable.
  }
  const double overhead_pct =
      plain_s > 0.0 ? (durable_s / plain_s - 1.0) * 100.0 : 0.0;

  // --- recovery: reboot on the store, continue bit-exactly.
  const timer recovery_clock;
  serve_app rebooted(durable_config);
  const double recovery_ms = recovery_clock.seconds() * 1e3;

  bool recovery_bit_exact =
      must(rebooted, make_request("GET", "/sessions/s1/checkpoint")).body ==
      final_checkpoint;
  const json clone_info = json::parse(
      must(rebooted,
           make_request("POST", "/sessions/restore", final_checkpoint))
          .body);
  const std::string clone_id = clone_info.find("id")->as_string();
  for (const std::string& id : {std::string("s1"), clone_id}) {
    (void)must(rebooted,
               make_request("POST", "/sessions/" + id + "/advance",
                            advance_body));
  }
  recovery_bit_exact =
      recovery_bit_exact &&
      must(rebooted, make_request("GET", "/sessions/s1/checkpoint")).body ==
          must(rebooted,
               make_request("GET", "/sessions/" + clone_id + "/checkpoint"))
              .body;

  // --- drain: the on-disk envelope must carry the final interaction count.
  rebooted.drain();
  std::string spill_bytes;
  std::string io_error;
  PPG_CHECK(read_file(store_dir + "/s1.session.json", &spill_bytes, &io_error),
            "r2_durable_serve: " + io_error);
  const store_file spilled = parse_store_envelope(json::parse(spill_bytes));
  const std::uint64_t spilled_interactions = json_require_uint(
      json_require(spilled.checkpoint, "engine", "checkpoint"),
      "interactions", "engine snapshot");
  const bool drain_spilled = spilled_interactions == (rounds + 1) * budget;

  // --- quarantine: corrupt s2's spill, boot again, s1 must still recover.
  PPG_CHECK(atomic_write_file(store_dir + "/s2.session.json",
                              "{torn mid-write", &io_error),
            "r2_durable_serve: " + io_error);
  serve_app after_corruption(durable_config);
  const json stats = json::parse(
      must(after_corruption, make_request("GET", "/stats")).body);
  const json* durability = stats.find("durability");
  const bool quarantine_detected =
      durability != nullptr &&
      durability->find("quarantined")->size() == 1 &&
      durability->find("recovered_sessions")->as_uint64() >= 1;

  result.metric("recovery_bit_exact", recovery_bit_exact ? 1.0 : 0.0,
                metric_goal::maximize);
  result.metric("quarantine_detected", quarantine_detected ? 1.0 : 0.0,
                metric_goal::maximize);
  result.metric("drain_spilled", drain_spilled ? 1.0 : 0.0,
                metric_goal::maximize);
  result.metric("spill_overhead_pct", overhead_pct);
  result.metric("recovery_ms", recovery_ms);

  auto& table = result.table(
      "crash-safety gates (all three flags must be 1)",
      {"check", "value"});
  table.add_row({"recovery_bit_exact", recovery_bit_exact ? "yes" : "NO"});
  table.add_row({"quarantine_detected", quarantine_detected ? "yes" : "NO"});
  table.add_row({"drain_spilled", drain_spilled ? "yes" : "NO"});
  table.add_row({"spill overhead", format_metric(overhead_pct, 2) + " %"});
  table.add_row({"recovery latency", format_metric(recovery_ms, 3) + " ms"});

  result.note(
      "Expected shape: the three flags are identically 1 — recovery replays "
      "the\nlast spilled generation bit-exactly (DESIGN.md §13), corruption "
      "is\nquarantined rather than fatal, and drain persists the final "
      "state. Spill\noverhead is fsync-bound and scales with the cadence: "
      "this scenario spills\nfar more often than the daemon's defaults "
      "(chunk 2^16, spill_every 16)\nprecisely to exercise the mid-advance "
      "path, so its overhead reads high.");

  remove_tree(made);  // the scenario leaves no /tmp residue behind
  return result;
}

[[maybe_unused]] const bool registered = register_scenario(
    "r2_durable_serve", "serve,durability,robustness",
    "Crash-safe ppg-serve: spill overhead, bit-exact recovery, quarantine",
    run_r2);

}  // namespace
