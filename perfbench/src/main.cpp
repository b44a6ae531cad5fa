// perfbench: runs one workload for a fixed measurement window and prints
// what it measured as one JSON document on the last line of stdout. It is
// driven by perfbench/run.py, which builds it and reduces the document to
// the metrics named in BENCHMARK.json.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Exit status 0 means the run completed (its failed-operation count may
// still be non-zero); 2 is a usage error, 1 an unexpected exception.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    usage(flag + ": '" + text + "' is not a number");
  }
  if (used != text.size()) usage(flag + ": '" + text + "' is not a number");
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::options opts;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      opts.trace = parse_uint(flag, value) != 0;
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (opts.workload.empty() || opts.work_dir.empty()) {
    usage("--workload and --work-dir are required");
  }

  try {
    perfbench::report out;
    perfbench::tracer trace(opts.trace);
    perfbench::run_engine_workload(opts, out, trace);
    if (trace.enabled()) {
      out.value("trace.spans", static_cast<double>(trace.size()));
      trace.write(opts.work_dir + "/trace-" + opts.workload + ".json");
    }
    std::cout << out.to_json().dump_string(false) << std::endl;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
