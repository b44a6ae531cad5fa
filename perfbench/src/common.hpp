// Shared plumbing of the perfbench binary: the run report that run.py
// reduces into metrics, the in-memory span tracer of the traced run, and
// small clock and process helpers.
//
// The binary never computes percentiles itself. It records raw samples
// (one value per operation) and scalar values under stable names, and
// prints them as one JSON document; run.py turns them into the metrics
// BENCHMARK.json names, so there is exactly one percentile implementation
// (perfbench/run.py, covered by perfbench/test_perfbench.py).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ppg/util/json.hpp"

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] double seconds_since(bench_clock::time_point start);

/// Command-line options shared by every workload.
struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory for stores and traces
};

/// Everything one run measured. Operations are counted as attempted, and a
/// failed request or failed correctness check counts as a failed operation.
///
/// A series keeps at most `max_kept` samples: past that it keeps every 2nd,
/// then every 4th, ... sample, evenly spread over the run. Its storage is
/// reserved once, so the benchmark's own memory stays the same whatever the
/// run's speed and peak_rss_mb measures the program rather than the
/// sample count.
class report {
 public:
  /// Counts one operation; a false `ok` also records why it failed.
  void op(bool ok, const std::string& what);
  /// Adds one sample to the named series (units are part of the name).
  void sample(const std::string& name, double value);
  void samples(const std::string& name, const std::vector<double>& values);
  void value(const std::string& name, double value);
  void add(const std::string& name, double delta);

  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;

  /// {"attempted", "failed", "failures", "values", "samples"}.
  [[nodiscard]] ppg::json to_json() const;

 private:
  /// One series' samples, thinned by `stride`.
  struct kept_samples {
    std::vector<double> values;
    std::uint64_t seen = 0;
    std::uint64_t stride = 1;
  };
  static constexpr std::size_t max_kept = 1 << 14;

  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< the first few failure messages
  std::map<std::string, double> values_;
  std::map<std::string, kept_samples> samples_;
};

/// In-memory span recorder. Spans are opened around calls into a layer of
/// the program; each records its name, start, end, the span that was open
/// on the same thread when it began (its parent), and a group id shared by
/// all spans of one request, session or replica. Disabled tracers record
/// nothing, so the end-to-end run pays one branch per span.
class tracer {
 public:
  explicit tracer(bool enabled) : enabled_(enabled) {}

  class span {
   public:
    span(tracer& owner, const char* name, std::uint64_t group);
    ~span();
    span(const span&) = delete;
    span& operator=(const span&) = delete;

   private:
    tracer* owner_;
    const char* name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t group_;
    bench_clock::time_point start_;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::size_t size() const;

  /// Durations (microseconds) of every span called `name`.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;
  /// Sum of the durations (seconds) of every span called `name`.
  [[nodiscard]] double total_s(const std::string& name) const;

  /// Writes the spans in Chrome trace-event format (chrome://tracing,
  /// Perfetto) and prints a per-name count / total / self-time summary to
  /// stderr. Self time is a span's duration minus its children's.
  void write(const std::string& path) const;

 private:
  struct record {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t group;
    std::uint64_t thread;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  bool enabled_;
  const bench_clock::time_point epoch_ = bench_clock::now();
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<record> records_;
};

/// VmHWM (peak resident set) of this process from /proc/self/status, in
/// MB. Returns 0 when the field is unreadable.
[[nodiscard]] double peak_rss_mb();

/// Median of a sample (0 for an empty one) — used only to pick workload
/// parameters for the layer probes, never to report a metric.
[[nodiscard]] double median_of(std::vector<double> values);

}  // namespace perfbench
