#include "common.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <thread>
#include <unordered_map>

#include "ppg/util/error.hpp"

namespace perfbench {
namespace {

constexpr std::size_t max_failure_messages = 8;

/// The innermost open span on this thread (0 = none): a new span's parent.
thread_local std::uint64_t open_span = 0;

std::uint64_t thread_number() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

}  // namespace

double seconds_since(bench_clock::time_point start) {
  return std::chrono::duration<double>(bench_clock::now() - start).count();
}

void report::op(bool ok, const std::string& what) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < max_failure_messages) failures_.push_back(what);
}

void report::sample(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  kept_samples& kept = samples_[name];
  if (kept.seen == 0) kept.values.reserve(max_kept);
  if (kept.seen++ % kept.stride != 0) return;
  kept.values.push_back(value);
  if (kept.values.size() < max_kept) return;
  std::size_t half = 0;
  for (std::size_t i = 0; i < kept.values.size(); i += 2, ++half) {
    kept.values[half] = kept.values[i];
  }
  kept.values.resize(half);
  kept.stride *= 2;
}

void report::samples(const std::string& name,
                     const std::vector<double>& values) {
  for (const double v : values) sample(name, v);
}

void report::value(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  values_[name] = value;
}

void report::add(const std::string& name, double delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  values_[name] += delta;
}

std::uint64_t report::attempted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::uint64_t report::failed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

ppg::json report::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ppg::json doc = ppg::json::object();
  doc["attempted"] = attempted_;
  doc["failed"] = failed_;
  ppg::json failures = ppg::json::array();
  for (const auto& message : failures_) failures.push_back(message);
  doc["failures"] = std::move(failures);
  ppg::json values = ppg::json::object();
  for (const auto& [name, value] : values_) values[name] = value;
  doc["values"] = std::move(values);
  ppg::json samples = ppg::json::object();
  for (const auto& [name, kept] : samples_) {
    ppg::json series = ppg::json::array();
    for (const double v : kept.values) series.push_back(v);
    samples[name] = std::move(series);
  }
  doc["samples"] = std::move(samples);
  return doc;
}

tracer::span::span(tracer& owner, const char* name, std::uint64_t group)
    : owner_(&owner), name_(name), group_(group) {
  if (!owner_->enabled_) return;
  {
    const std::lock_guard<std::mutex> lock(owner_->mutex_);
    id_ = owner_->next_id_++;
  }
  parent_ = open_span;
  open_span = id_;
  start_ = bench_clock::now();
}

tracer::span::~span() {
  if (!owner_->enabled_) return;
  const auto end = bench_clock::now();
  open_span = parent_;
  const auto ns = [&](bench_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t - owner_->epoch_)
        .count();
  };
  const std::lock_guard<std::mutex> lock(owner_->mutex_);
  owner_->records_.push_back(
      {name_, id_, parent_, group_, thread_number(), ns(start_), ns(end)});
}

std::size_t tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::vector<double> tracer::durations_us(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const auto& r : records_) {
    if (name == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    }
  }
  return out;
}

double tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const double us : durations_us(name)) total += us / 1e6;
  return total;
}

void tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& r : records_) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  struct totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, totals> by_name;
  std::ofstream out(path);
  PPG_CHECK(out.good(), "cannot write trace file '" + path + "'");
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& r : records_) {
    const std::int64_t duration = r.end_ns - r.start_ns;
    auto& t = by_name[r.name];
    ++t.count;
    t.total_ns += duration;
    const auto children = child_ns.find(r.id);
    t.self_ns += duration - (children == child_ns.end() ? 0 : children->second);
    out << (first ? "" : ",") << "\n{\"name\":\"" << ppg::json_escape(r.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
        << ",\"ts\":"
        << ppg::format_metric(static_cast<double>(r.start_ns) / 1e3)
        << ",\"dur\":"
        << ppg::format_metric(static_cast<double>(duration) / 1e3)
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"group\":" << r.group << "}}";
    first = false;
  }
  out << "\n]}\n";
  std::cerr << "perfbench: " << records_.size() << " spans written to " << path
            << "\n  span                                  count     total_s"
               "      self_s\n";
  for (const auto& [name, t] : by_name) {
    std::string padded = name;
    padded.resize(std::max<std::size_t>(padded.size(), 36), ' ');
    std::cerr << "  " << padded << "  " << t.count << "  "
              << ppg::format_metric(static_cast<double>(t.total_ns) / 1e9, 4)
              << "  "
              << ppg::format_metric(static_cast<double>(t.self_ns) / 1e9, 4)
              << "\n";
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  return 0.0;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid =
      values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

}  // namespace perfbench
