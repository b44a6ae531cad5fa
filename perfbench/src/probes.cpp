// Layer probes of the traced run. Each probe calls one layer through its
// public entry point, at the parameters the workload produced, and records
// the layer's time or work count under the per-layer metric name that
// perfbench/run.py reports. They run after the measured loop, so they never
// perturb the end-to-end numbers.
#include <sys/types.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ppg/exp/batch_runner.hpp"
#include "ppg/pp/checkpoint.hpp"
#include "ppg/pp/kernel.hpp"
#include "ppg/pp/multibatch_engine.hpp"
#include "ppg/serve/client.hpp"
#include "ppg/serve/scheduler.hpp"
#include "ppg/serve/server.hpp"
#include "ppg/serve/store.hpp"
#include "ppg/stats/discrete_sampling.hpp"
#include "ppg/util/atomic_file.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ppg::json;

/// Fixed work over which the multibatch round counters are read, so they
/// repeat exactly for a seed.
constexpr std::uint64_t counter_work = std::uint64_t{1} << 22;
constexpr std::size_t sampler_batches = 9;

double us_since(bench_clock::time_point start) {
  return seconds_since(start) * 1e6;
}

/// Times `batch` calls of `draw` per sample, `sampler_batches` samples;
/// records nanoseconds per call. `draw` returns a value folded into a sink
/// so the calls cannot be elided.
template <typename Draw>
void time_sampler(report& out, const std::string& name, std::size_t batch,
                  Draw&& draw) {
  std::uint64_t sink = 0;
  for (std::size_t b = 0; b < sampler_batches; ++b) {
    const auto start = bench_clock::now();
    for (std::size_t i = 0; i < batch; ++i) sink += draw();
    out.sample(name, us_since(start) * 1e3 / static_cast<double>(batch));
  }
  out.add("probe.sink", static_cast<double>(sink % 2));
}

/// Exact multibatch work counters over `counter_work` interactions of a
/// fresh engine of the workload's first recipe.
void probe_round_counters(const probe_input& input, report& out) {
  const auto recipe = ppg::sim_recipe::from_json(input.recipes.front());
  ppg::rng gen(ppg::derive_stream_seed(input.seed, 77));
  const auto engine =
      recipe.spec().make_engine(ppg::engine_kind::multibatch, gen);
  for (std::uint64_t done = 0; done < counter_work; done += serve_chunk) {
    engine->run(serve_chunk);
  }
  const auto& multibatch = dynamic_cast<const ppg::multibatch_engine&>(*engine);
  out.value("pp.multibatch.rounds", static_cast<double>(multibatch.rounds()));
  out.value("pp.multibatch.collisions",
            static_cast<double>(multibatch.collisions()));
  out.value("pp.multibatch.interactions_per_round",
            static_cast<double>(counter_work) /
                static_cast<double>(multibatch.rounds()));
}

/// Kernel compile and the sampler families, at the workload's parameters:
/// its population size, its census, its mean round size J, and its
/// densest kernel cell.
void probe_samplers(const probe_input& input, report& out, tracer& trace) {
  const auto recipe = ppg::sim_recipe::from_json(input.recipes.front());
  for (std::size_t i = 0; i < 5; ++i) {
    const tracer::span span(trace, "pp.kernel.compile", 0);
    const auto start = bench_clock::now();
    const ppg::kernel_table kernel(recipe.proto());
    out.sample("pp.kernel.compile_s", seconds_since(start));
  }
  const ppg::kernel_table kernel(recipe.proto());
  const std::uint64_t n = recipe.spec().population_size();
  const std::size_t q = kernel.num_states();
  ppg::rng gen(ppg::derive_stream_seed(input.seed, 78));

  for (std::size_t i = 0; i < 3; ++i) {
    const tracer::span span(trace, "stats.birthday_table", 0);
    const auto start = bench_clock::now();
    const ppg::collision_run_sampler table(n);
    out.sample("stats.birthday_table_s", seconds_since(start));
  }
  const ppg::collision_run_sampler birthday(n);
  time_sampler(out, "stats.birthday_sample_ns", 1 << 16,
               [&] { return birthday.sample(gen); });

  // One matching row draws an initiator group of ~J/q agents from the
  // responder census; one cell then splits ~J/q^2 pairs over its outcomes.
  const double round = std::max(1.0, input.interactions_per_round);
  const auto row_draws = static_cast<std::uint64_t>(
      std::max(1.0, round / static_cast<double>(q)));
  const auto cell_pairs = static_cast<std::uint64_t>(
      std::max(1.0, round / static_cast<double>(q * q)));
  std::vector<std::uint64_t> row(q);
  time_sampler(out, "stats.mvh_row_ns", 1 << 13, [&] {
    ppg::sample_multivariate_hypergeometric(input.census.data(), q, row_draws,
                                            gen, row.data());
    return row[0];
  });

  std::size_t densest_u = 0;
  std::size_t densest_v = 0;
  for (std::size_t u = 0; u < q; ++u) {
    for (std::size_t v = 0; v < q; ++v) {
      const auto a = static_cast<ppg::agent_state>(u);
      const auto b = static_cast<ppg::agent_state>(v);
      if (kernel.num_outcomes(a, b) >
          kernel.num_outcomes(static_cast<ppg::agent_state>(densest_u),
                              static_cast<ppg::agent_state>(densest_v))) {
        densest_u = u;
        densest_v = v;
      }
    }
  }
  const auto du = static_cast<ppg::agent_state>(densest_u);
  const auto dv = static_cast<ppg::agent_state>(densest_v);
  std::vector<double> probs;
  for (std::size_t k = 0; k < kernel.num_outcomes(du, dv); ++k) {
    probs.push_back(kernel.outcome_at(du, dv, k).probability);
  }
  std::vector<std::uint64_t> split(probs.size());
  time_sampler(out, "stats.multinomial_cell_ns", 1 << 12, [&] {
    ppg::sample_multinomial(cell_pairs, probs.data(), probs.size(), gen,
                            split.data());
    return split[0];
  });
  // The first conditional binomial of that split.
  time_sampler(out, "stats.binomial_ns", 1 << 14, [&] {
    return ppg::sample_binomial(cell_pairs, probs.front(), gen);
  });
  out.value("probe.row_draws", static_cast<double>(row_draws));
  out.value("probe.cell_pairs", static_cast<double>(cell_pairs));
  out.value("probe.cell_support", static_cast<double>(probs.size()));
}

/// The checkpoint document of a fresh engine of the first recipe, advanced
/// one slice: the largest body the serve protocol carries. Times
/// save_checkpoint on that engine.
json sample_checkpoint(const probe_input& input, report& out, tracer& trace) {
  const auto recipe = ppg::sim_recipe::from_json(input.recipes.front());
  ppg::rng gen(ppg::derive_stream_seed(input.seed, 79));
  const auto engine =
      recipe.spec().make_engine(ppg::engine_kind::multibatch, gen);
  engine->run(serve_chunk);
  json doc;
  for (std::size_t i = 0; i < 50; ++i) {
    const tracer::span span(trace, "pp.checkpoint.save", 0);
    const auto start = bench_clock::now();
    doc = ppg::save_checkpoint(recipe, *engine);
    out.sample("pp.checkpoint.save_us", us_since(start));
  }
  return doc;
}

void probe_json(const json& checkpoint, report& out, tracer& trace) {
  const std::string bytes = checkpoint.dump_string(true);
  ppg::json::parse_limits limits;  // ppg-serve's request-body bounds
  limits.max_bytes = 4u * 1024 * 1024;
  limits.max_depth = 64;
  for (std::size_t i = 0; i < 50; ++i) {
    {
      const tracer::span span(trace, "util.json.parse", 0);
      const auto start = bench_clock::now();
      const json doc = json::parse(bytes, limits);
      out.sample("util.json.parse_us", us_since(start));
      out.op(doc == checkpoint, "json: checkpoint did not round-trip");
    }
    const tracer::span span(trace, "util.json.dump", 0);
    const auto start = bench_clock::now();
    const std::string again = checkpoint.dump_string(true);
    out.sample("util.json.dump_us", us_since(start));
    out.op(again == bytes, "json: dump is not byte-stable");
  }
}

/// file_ops that forwards to the real syscalls and times each one.
class timing_file_ops final : public ppg::file_ops {
 public:
  explicit timing_file_ops(report& out) : out_(&out) {}

  ssize_t write_fd(int fd, const void* data, std::size_t size) override {
    const auto start = bench_clock::now();
    const ssize_t written = ppg::file_ops::write_fd(fd, data, size);
    out_->sample("util.atomic_file.write_us", us_since(start));
    return written;
  }
  int fsync_fd(int fd) override {
    const auto start = bench_clock::now();
    const int status = ppg::file_ops::fsync_fd(fd);
    out_->sample("util.atomic_file.fsync_us", us_since(start));
    return status;
  }
  int rename_file(const std::string& from, const std::string& to) override {
    const auto start = bench_clock::now();
    const int status = ppg::file_ops::rename_file(from, to);
    out_->sample("util.atomic_file.rename_us", us_since(start));
    return status;
  }

 private:
  report* out_;
};

/// Writes the spill envelope of the sample checkpoint the way the store
/// does, through the timing file_ops.
void probe_atomic_file(const options& opts, const probe_input& input,
                       const json& checkpoint, report& out, tracer& trace) {
  ppg::store_file file;
  file.id = "s1";
  file.generation = 1;
  file.seed = input.seed;
  file.checkpoint = checkpoint;
  const std::string bytes = ppg::store_envelope(file).dump_string(true);
  const auto dir = std::filesystem::path(opts.work_dir) / "atomic-probe";
  std::filesystem::create_directories(dir);
  timing_file_ops ops(out);
  for (std::size_t i = 0; i < 30; ++i) {
    const tracer::span span(trace, "util.atomic_file.write", 0);
    std::string error;
    const bool ok = ppg::atomic_write_file(
        (dir / "s1.session.json").string(), bytes, &error, ops);
    out.op(ok, "atomic write: " + error);
  }
  std::filesystem::remove_all(dir);
}

/// A session_store that times every spill of the filesystem store it wraps.
class timing_store final : public ppg::session_store {
 public:
  timing_store(std::unique_ptr<ppg::session_store> inner, report& out)
      : inner_(std::move(inner)), out_(&out) {}

  bool spill(const ppg::store_file& file, std::string* error) override {
    const auto start = bench_clock::now();
    const bool ok = inner_->spill(file, error);
    out_->sample("serve.store.spill_us", us_since(start));
    return ok;
  }
  ppg::store_scan scan() override { return inner_->scan(); }
  void remove(const std::string& id) override { inner_->remove(id); }
  bool quarantine(const std::string& id, const std::string& reason) override {
    return inner_->quarantine(id, reason);
  }
  [[nodiscard]] json stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<ppg::session_store> inner_;
  report* out_;
};

struct scripted_request {
  std::string route;  ///< create | advance | census | checkpoint | delete
  std::string method;
  std::string target;  ///< "{id}" stands for the current session id
  std::string body;
  int expect = 200;
};

/// The serve request stream of `input.cycles` session cycles.
std::vector<scripted_request> serve_script(const probe_input& input) {
  std::vector<scripted_request> script;
  json advance = json::object();
  advance["interactions"] = input.advance_budget;
  const std::string advance_body = advance.dump_string(false);
  for (std::uint64_t c = 0; c < input.cycles; ++c) {
    json create = json::object();
    create["recipe"] = input.recipes[c % input.recipes.size()];
    create["engine"] = "multibatch";
    create["seed"] = ppg::derive_stream_seed(input.seed, 9000 + c);
    script.push_back(
        {"create", "POST", "/sessions", create.dump_string(false), 201});
    for (std::uint64_t a = 1; a <= input.advances_per_cycle; ++a) {
      script.push_back({"advance", "POST", "/sessions/{id}/advance",
                        advance_body, 200});
      script.push_back({"census", "GET", "/sessions/{id}/census", "", 200});
      if (a % 4 == 0) {
        script.push_back(
            {"checkpoint", "GET", "/sessions/{id}/checkpoint", "", 200});
      }
    }
    script.push_back({"delete", "DELETE", "/sessions/{id}", "", 200});
  }
  return script;
}

std::string with_id(const std::string& target, const std::string& id) {
  const std::size_t at = target.find("{id}");
  if (at == std::string::npos) return target;
  return target.substr(0, at) + id + target.substr(at + 4);
}

/// Replays the script against a fresh serve_app: once through
/// serve_app::handle directly, once over loopback HTTP through an
/// in-process http_server. Returns per-request times in microseconds.
std::vector<double> replay(const options& opts,
                           const std::vector<scripted_request>& script,
                           bool over_http, report& out, tracer& trace,
                           std::uint64_t* slices, double* hit_rate) {
  ppg::serve_config config;
  config.threads = 2;
  config.connection_threads = 1;
  config.chunk = serve_chunk;
  const auto dir = std::filesystem::path(opts.work_dir) /
                   (over_http ? "replay-http" : "replay-app");
  std::filesystem::remove_all(dir);
  ppg::serve_app app(config, std::make_unique<timing_store>(
                                 ppg::make_fs_store(dir.string()), out));
  std::unique_ptr<ppg::http_server> server;
  std::unique_ptr<ppg::serve_client> client;
  if (over_http) {
    server = std::make_unique<ppg::http_server>(app, config);
    server->start();
    ppg::client_config client_config;
    client_config.port = server->port();
    client = std::make_unique<ppg::serve_client>(client_config);
  }
  std::vector<double> times;
  std::string id;
  for (const auto& request : script) {
    const std::string target = with_id(request.target, id);
    int status = 0;
    std::string body;
    const auto start = bench_clock::now();
    if (over_http) {
      const tracer::span span(trace, "serve.http.request", 0);
      auto response = client->request(request.method, target, request.body,
                                      request.method == "GET");
      status = response.status;
      body = std::move(response.body);
    } else {
      const tracer::span span(trace, "serve.app.handle", 0);
      ppg::http_request http;
      http.method = request.method;
      http.target = target;
      http.body = request.body;
      auto response = app.handle(http);
      status = response.status;
      body = std::move(response.body);
    }
    const double us = us_since(start);
    times.push_back(us);
    if (!over_http) out.sample("serve.app.handle_us." + request.route, us);
    out.op(status == request.expect,
           "replay " + request.route + ": status " + std::to_string(status));
    if (status == request.expect && request.route == "create") {
      id = json::parse(body).find("id")->as_string();
    }
    if (status == request.expect && request.route == "advance" &&
        slices != nullptr) {
      *slices += json::parse(body).find("slices")->as_uint64();
    }
  }
  if (hit_rate != nullptr) {
    const auto hits = static_cast<double>(app.kernels().hits());
    const auto misses = static_cast<double>(app.kernels().misses());
    *hit_rate = hits / (hits + misses);
  }
  if (client != nullptr) {
    out.add("serve.client.retries",
            static_cast<double>(client->stats().retries));
  }
  if (server != nullptr) server->stop();
  std::filesystem::remove_all(dir);
  return times;
}

void probe_serve(const options& opts, const probe_input& input, report& out,
                 tracer& trace) {
  const auto script = serve_script(input);
  std::uint64_t slices = 0;
  double hit_rate = 0.0;
  const auto handled =
      replay(opts, script, false, out, trace, &slices, &hit_rate);
  const auto round_trips =
      replay(opts, script, true, out, trace, nullptr, nullptr);
  std::vector<double> overhead;
  for (std::size_t i = 0; i < handled.size(); ++i) {
    overhead.push_back(round_trips[i] - handled[i]);
  }
  out.samples("serve.http.overhead_us", overhead);
  out.value("serve.scheduler.slices", static_cast<double>(slices));
  out.value("serve.kernel_cache.hit_rate", hit_rate);
}

/// fair_scheduler::advance against a bare run() of the same budget on a
/// twin engine: both engines draw the identical trajectory, so the
/// difference is the scheduler's handoff cost alone.
void probe_scheduler(const probe_input& input, report& out, tracer& trace) {
  const auto recipe = ppg::sim_recipe::from_json(input.recipes.front());
  const std::uint64_t seed = ppg::derive_stream_seed(input.seed, 80);
  ppg::rng gen_a(seed);
  ppg::rng gen_b(seed);
  const auto scheduled =
      recipe.spec().make_engine(ppg::engine_kind::multibatch, gen_a);
  const auto bare =
      recipe.spec().make_engine(ppg::engine_kind::multibatch, gen_b);
  ppg::fair_scheduler scheduler(1, serve_chunk);
  const std::uint64_t budget = input.advance_budget;
  for (std::size_t i = 0; i < 40; ++i) {
    double scheduled_us = 0.0;
    double bare_us = 0.0;
    const auto run_scheduled = [&] {
      const tracer::span span(trace, "serve.scheduler.advance", 0);
      const auto start = bench_clock::now();
      (void)scheduler.advance(*scheduled, budget);
      scheduled_us = us_since(start);
    };
    const auto run_bare = [&] {
      const tracer::span span(trace, "pp.engine.run", 0);
      const auto start = bench_clock::now();
      for (std::uint64_t left = budget; left > 0;) {
        const std::uint64_t step = std::min(left, serve_chunk);
        bare->run(step);
        left -= step;
      }
      bare_us = us_since(start);
    };
    if (i % 2 == 0) {
      run_scheduled();
      run_bare();
    } else {
      run_bare();
      run_scheduled();
    }
    out.sample("serve.scheduler.overhead_us", scheduled_us - bare_us);
  }
  out.op(scheduled->census().counts() == bare->census().counts(),
         "scheduler: chunked advance diverged from the bare run");
}

/// batch_runner over 4 replicas of the workload's engine on 2 threads.
void probe_batch(const probe_input& input, report& out, tracer& trace) {
  const auto recipe = ppg::sim_recipe::from_json(input.recipes.front());
  constexpr std::size_t threads = 2;
  const ppg::batch_runner runner(
      {4, ppg::derive_stream_seed(input.seed, 7000), threads});
  const auto start = bench_clock::now();
  const auto busy = runner.run([&](const ppg::replica_context& ctx,
                                   ppg::rng& gen) {
    const tracer::span span(trace, "exp.batch.replica", ctx.index + 1);
    const auto replica_start = bench_clock::now();
    const auto engine =
        recipe.spec().make_engine(ppg::engine_kind::multibatch, gen);
    for (std::uint64_t done = 0; done < (std::uint64_t{1} << 20);
         done += serve_chunk) {
      engine->run(serve_chunk);
    }
    return seconds_since(replica_start);
  });
  const double wall = seconds_since(start);
  double total = 0.0;
  for (const double b : busy) total += b;
  out.value("exp.batch.replica_busy_s", total);
  out.value("exp.batch.pool_idle_frac",
            1.0 - total / (static_cast<double>(threads) * wall));
  out.value("exp.batch.straggler_ratio",
            *std::max_element(busy.begin(), busy.end()) / median_of(busy));
}

}  // namespace

void run_layer_probes(const options& opts, const probe_input& input,
                      report& out, tracer& trace) {
  probe_round_counters(input, out);
  probe_samplers(input, out, trace);
  const json checkpoint = sample_checkpoint(input, out, trace);
  probe_json(checkpoint, out, trace);
  probe_atomic_file(opts, input, checkpoint, out, trace);
  probe_serve(opts, input, out, trace);
  probe_scheduler(input, out, trace);
  if (input.probe_batch) probe_batch(input, out, trace);
}

}  // namespace perfbench
