// The scenario registry: every experiment in bench/ is a named,
// parameterized function returning a structured scenario_result instead of
// a one-off main(). The single `ppg-bench` driver (exp/harness.hpp) lists,
// filters, runs, prints, and serializes scenarios uniformly, so a new
// experiment is one registered function — no CLI, timing, or output code.
//
//   ppg::scenario_result run_my_exp(const ppg::scenario_context& ctx) {
//     ppg::scenario_result result;
//     result.param("n", 400);
//     auto& table = result.table("sweep", {"k", "TV"});
//     ...
//     table.add_row({ppg::format_metric(k), ppg::format_metric(tv)});
//     result.metric("max_tv", tv, ppg::metric_goal::minimize);
//     return result;
//   }
//   const bool registered = ppg::register_scenario(
//       "my_exp", "igt,stationary", "One-line description", run_my_exp);
//
// All randomness must derive from ctx.seed (typically via ctx.batch()), so
// two runs with equal (smoke, seed, threads) produce identical metrics —
// the determinism contract CI's regression check relies on.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "ppg/exp/batch_runner.hpp"
#include "ppg/util/json.hpp"

namespace ppg {

/// Regression direction of a tracked metric. `none` records the value in
/// the artifact without regression checking; `minimize`/`maximize` mark it
/// for scripts/check_bench.py, which fails CI when a goal-tagged metric
/// degrades by more than the threshold against the committed baseline.
enum class metric_goal { none, minimize, maximize };

/// One formatted table of a scenario's human-readable output. Cells are
/// pre-rendered strings — numeric cells through format_metric — so the
/// printed table and the JSON artifact contain byte-identical values.
struct scenario_table {
  std::string title;
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;

  /// Appends one row; must match the header width.
  void add_row(std::vector<std::string> cells);
};

/// Everything one scenario run produced: the parameters it actually used
/// (smoke mode may shrink them), a flat ordered metrics map (the regression
/// surface), the human tables, and free-form commentary notes.
class scenario_result {
 public:
  /// Records a parameter of this run (population size, replica count, ...).
  void param(const std::string& name, json value);

  /// Records a named metric. Re-recording a name overwrites the value (and
  /// goal), so loops can keep a running extremum cheaply.
  void metric(const std::string& name, double value,
              metric_goal goal = metric_goal::none);

  /// Starts a new table and returns a reference for adding rows; stable
  /// for the life of the result (tables are stored in a deque), so a
  /// scenario may fill several tables interleaved.
  scenario_table& table(std::string title, std::vector<std::string> headers);

  /// Appends one commentary line (the "expected shape" prose of a bench).
  void note(std::string text);

  [[nodiscard]] const std::vector<std::pair<std::string, double>>& metrics()
      const {
    return metrics_;
  }
  [[nodiscard]] const std::deque<scenario_table>& tables() const {
    return tables_;
  }

  /// Renders the human view: every table via util/table, then the notes.
  void print(std::ostream& out) const;

  /// The artifact fragment: {params, metrics, metric_goals, tables, notes}.
  /// wall_s is stamped by the harness, not here.
  [[nodiscard]] json to_json() const;

 private:
  json params_ = json::object();
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<metric_goal> goals_;
  std::deque<scenario_table> tables_;
  std::vector<std::string> notes_;
};

/// Execution context handed to scenario bodies by the harness.
struct scenario_context {
  /// Reduced-cost mode: scenarios shrink sweeps, replicas, and sample
  /// counts so the whole suite finishes in CI's smoke budget.
  bool smoke = false;
  /// Master seed; all scenario randomness must derive from it.
  std::uint64_t seed = 42;
  /// Worker threads for batch replication; 0 = hardware concurrency.
  std::size_t threads = 0;

  /// Picks the full-run or smoke-run value of a tunable.
  template <typename T>
  [[nodiscard]] T pick(T full, T reduced) const {
    return smoke ? reduced : full;
  }

  /// batch_options for a replicated sub-experiment. `salt` decorrelates
  /// independent sub-experiments of one scenario (distinct salts give
  /// disjoint seed streams derived from the master seed).
  [[nodiscard]] batch_options batch(std::size_t replicas,
                                    std::uint64_t salt = 0) const {
    return {replicas, derive_stream_seed(seed, salt), threads};
  }

  /// A generator for inline (non-replicated) scenario randomness.
  [[nodiscard]] rng make_rng(std::uint64_t salt = 0) const {
    return rng(derive_stream_seed(seed, salt));
  }
};

/// A registered experiment: unique name, comma-separated tags (both are
/// matched by the driver's --filter regex), a one-line description, and the
/// body.
struct scenario_info {
  std::string name;
  std::string tags;
  std::string description;
  std::function<scenario_result(const scenario_context&)> run;
};

/// Name-keyed collection of scenarios. The global() instance is what the
/// ppg-bench driver serves; tests build their own instances.
class scenario_registry {
 public:
  /// The process-wide registry that static registration targets.
  static scenario_registry& global();

  /// Registers a scenario; throws invariant_error on a duplicate name or an
  /// empty name/body.
  void register_scenario(scenario_info info);
  void register_scenario(
      std::string name, std::string tags, std::string description,
      std::function<scenario_result(const scenario_context&)> run);

  /// Lookup by exact name; nullptr when absent.
  [[nodiscard]] const scenario_info* find(const std::string& name) const;

  /// All scenarios whose name or any comma-separated tag matches the
  /// ECMAScript regex (std::regex_search; empty filter selects all),
  /// in name order. Throws invariant_error on a malformed regex.
  [[nodiscard]] std::vector<const scenario_info*> match(
      const std::string& filter) const;

  /// All scenarios in name order.
  [[nodiscard]] std::vector<const scenario_info*> list() const;

  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }

 private:
  std::vector<scenario_info> scenarios_;
};

/// Static-initialization helper: registers into the global registry and
/// returns true, so scenario translation units can self-register with
///   const bool registered = register_scenario("name", "tags", "desc", fn);
bool register_scenario(
    std::string name, std::string tags, std::string description,
    std::function<scenario_result(const scenario_context&)> run);

}  // namespace ppg
