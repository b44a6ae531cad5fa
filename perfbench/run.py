#!/usr/bin/env python3
"""Repository benchmark: builds ppg and the perfbench binary from source,
runs one workload for a fixed window, checks its outputs, and prints the
metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload hawk_dove_1e8 --seed 1 \
        --seconds 30 --trace 0

Run it from the repository root. With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 a separate traced run holds the
per-layer metrics, and the spans are kept in .perfbench/traces/. Build
output and scratch files go to .perfbench/ and nowhere else.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
BUILD = os.path.join(WORK, "build")
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
BACKED_PERCENTILES = (50, 90, 99, 99.9, 99.99)

# Which end-to-end metric each per-layer metric should move, and on which
# workloads. Printed by every traced run; perfbench/README.md explains it.
# The serve layers are probed in process on every workload, but no bounded
# workload drives ppg-serve yet, so they move no end-to-end metric here.
ENGINES = ("hawk_dove_1e8", "logit_q8_1e8", "igt_ensemble")
SERVE = "ppg-serve request latency (no bounded workload yet)"
LAYER_MAP = {
    "pp.engine.run_busy_s": ("interactions_per_s", ENGINES),
    "pp.multibatch.rounds": ("interactions_per_s", ENGINES),
    "pp.multibatch.collisions": ("interactions_per_s", ENGINES),
    "pp.multibatch.interactions_per_round": ("interactions_per_s", ENGINES),
    "pp.multibatch.ns_per_round": ("interactions_per_s", ("hawk_dove_1e8",)),
    "pp.kernel.compile_s": ("setup_s", ENGINES),
    "pp.checkpoint.save_us": (SERVE, ()),
    "stats.birthday_table_s": ("setup_s", ENGINES),
    "stats.birthday_sample_ns": ("interactions_per_s", ("hawk_dove_1e8",)),
    "stats.mvh_row_ns": ("interactions_per_s", ("igt_ensemble",)),
    "stats.multinomial_cell_ns": ("interactions_per_s", ("logit_q8_1e8",)),
    "stats.binomial_ns": ("interactions_per_s", ("logit_q8_1e8",)),
    "exp.batch.replica_busy_s": ("interactions_per_s", ("igt_ensemble",)),
    "exp.batch.pool_idle_frac": ("interactions_per_s", ("igt_ensemble",)),
    "exp.batch.straggler_ratio": ("interactions_per_s", ("igt_ensemble",)),
    "util.json.parse_us": (SERVE, ()),
    "util.json.dump_us": (SERVE, ()),
    "util.atomic_file.write_us": (SERVE, ()),
    "util.atomic_file.fsync_us": (SERVE, ()),
    "util.atomic_file.rename_us": (SERVE, ()),
    "serve.app.handle_us.create": (SERVE, ()),
    "serve.app.handle_us.advance": (SERVE, ()),
    "serve.app.handle_us.census": (SERVE, ()),
    "serve.app.handle_us.checkpoint": (SERVE, ()),
    "serve.app.handle_us.delete": (SERVE, ()),
    "serve.http.overhead_us": (SERVE, ()),
    "serve.store.spill_p50_us": (SERVE, ()),
    "serve.store.spill_p99_us": (SERVE, ()),
    "serve.store.spills": (SERVE, ()),
    "serve.scheduler.overhead_us": (SERVE, ()),
    "serve.scheduler.slices": (SERVE, ()),
    "serve.kernel_cache.hit_rate": (SERVE, ()),
    "serve.client.retries": ("failed/attempted", ()),
    "trace.spans": ("tracing overhead on interactions_per_s", ENGINES),
    "trace.interactions_per_s": ("tracing overhead on interactions_per_s",
                                 ENGINES),
}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# --- statistics -----------------------------------------------------------

def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between the
    closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def backed_percentile(count):
    """The highest of BACKED_PERCENTILES with at least ten samples beyond
    it, or None when even the median lacks ten."""
    best = None
    for p in BACKED_PERCENTILES:
        if count * (100 - p) / 100.0 >= 10 - 1e-9:
            best = p
    return best


# --- BENCHMARK.json -------------------------------------------------------

def validate_benchmark(doc):
    """Checks BENCHMARK.json against the rules its readers rely on (key
    set, name and unit syntax, bounds); returns a list of problems."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(doc) != keys:
        return [f"top-level keys {sorted(doc)} != {sorted(keys)}"]
    command = doc["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in command)):
        problems.append("command must be 1..32 strings of <= 200 chars")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must hold 1..16 directories")
    else:
        for path in paths:
            if (not isinstance(path, str) or not PATH_RE.match(path) or
                    path.startswith("/") or ".." in path.split("/")):
                problems.append(f"bad path {path!r}")
    for arg in command if isinstance(command, list) else []:
        if isinstance(arg, str) and (arg.startswith("/") or
                                     ".." in arg.split("/")):
            problems.append(f"command argument {arg!r} leaves the repo")
    seconds = doc["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and
            1 <= seconds <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    names = []

    def check_entries(section, lo, hi, fields):
        entries = doc[section]
        if not (isinstance(entries, list) and lo <= len(entries) <= hi):
            problems.append(f"{section} must hold {lo}..{hi} entries")
            return
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) != fields:
                problems.append(f"{section} entry {entry!r} needs exactly "
                                f"{sorted(fields)}")
                continue
            name = entry["name"]
            if not isinstance(name, str) or not NAME_RE.match(name):
                problems.append(f"bad name {name!r} in {section}")
            names.append(name)
            if "unit" in fields and not (isinstance(entry["unit"], str) and
                                         UNIT_RE.match(entry["unit"])):
                problems.append(f"bad unit {entry['unit']!r} of {name}")
            if "better" in fields and entry["better"] not in ("lower",
                                                              "higher"):
                problems.append(f"better of {name} must be lower or higher")
            if "bound" in fields:
                bound = entry["bound"]
                if not (isinstance(bound, (int, float)) and
                        not isinstance(bound, bool) and 0 < bound <= 0.25):
                    problems.append(f"bound of {name} must be in (0, 0.25]")
            if "why" in fields:
                why = entry["why"]
                if not (isinstance(why, str) and why and len(why) <= 200 and
                        "\n" not in why):
                    problems.append(f"why of {name} must be one line of "
                                    "<= 200 chars")

    check_entries("workloads", 2, 8, {"name", "why"})
    check_entries("end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    check_entries("per_layer", 1, 128, {"name", "unit", "better"})
    if len(names) != len(set(names)):
        problems.append("names must be unique")
    setup = [e for e in doc["end_to_end"]
             if isinstance(e, dict) and e.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, better lower")
    elif any(isinstance(e, dict) and e.get("bound", 0) > setup[0]["bound"]
             for e in doc["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    return problems


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    problems = validate_benchmark(doc)
    if problems:
        raise SystemExit("perfbench: BENCHMARK.json: " + "; ".join(problems))
    return doc


# --- build ----------------------------------------------------------------

def build():
    """Configures (once) and builds the perfbench package; returns the
    perfbench binary. Build output goes to stderr."""
    os.makedirs(WORK, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


# --- runs -----------------------------------------------------------------

def run_binary(binary, args, work_dir):
    """Runs the perfbench binary and returns its JSON document."""
    out = subprocess.run([binary, "--work-dir", work_dir] + args,
                         stdout=subprocess.PIPE, text=True, check=True,
                         timeout=RUN_TIMEOUT_S)
    return json.loads(out.stdout.strip().splitlines()[-1])


# --- reduction ------------------------------------------------------------

def e2e_value(name, raw):
    values, samples = raw["values"], raw["samples"]
    if name == "setup_s":
        return statistics.median(samples["setup_s"])
    if name == "interactions_per_s":
        return values["interactions"] / values["run_s"]
    if name == "peak_rss_mb":
        return values["peak_rss_mb"]
    raise KeyError(name)


def layer_value(name, raw):
    values, samples = raw["values"], raw["samples"]
    if name in values:
        return values[name]
    if name in samples:
        return statistics.median(samples[name])
    match = re.match(r"^serve\.store\.spill_p(\d+)_us$", name)
    if match:
        return percentile(samples["serve.store.spill_us"],
                          float(match.group(1)))
    if name == "serve.store.spills":
        return len(samples["serve.store.spill_us"])
    if name == "trace.interactions_per_s":
        return values["interactions"] / values["run_s"]
    raise KeyError(name)


def print_timings(raw):
    """One row per timing series: sample count, median, and the highest
    percentile with at least ten samples beyond it."""
    print(f"{'series':34} {'n':>7} {'p50':>12} {'backed':>7} {'value':>12}")
    for name in sorted(raw["samples"]):
        series = raw["samples"][name]
        if not series:
            continue
        backed = backed_percentile(len(series))
        tail = "-" if backed is None else f"{percentile(series, backed):.6g}"
        print(f"{name:34} {len(series):7d} {percentile(series, 50):12.6g} "
              f"{'p' + format(backed, 'g') if backed else '-':>7} {tail:>12}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 1

    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=os.path.join(WORK, "tmp"))
    binary_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
    try:
        raw = run_binary(binary, binary_args, work_dir)
        trace_file = os.path.join(work_dir, f"trace-{args.workload}.json")
        if os.path.exists(trace_file):
            kept = os.path.join(WORK, "traces",
                                f"trace-{args.workload}-seed{args.seed}.json")
            os.makedirs(os.path.dirname(kept), exist_ok=True)
            shutil.move(trace_file, kept)
            log(f"spans kept in {os.path.relpath(kept, ROOT)}")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError) as error:
        log(f"run failed: {error}")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    try:
        for entry in bench[section]:
            reduce = layer_value if args.trace else e2e_value
            metrics[entry["name"]] = {"value": reduce(entry["name"], raw),
                                      "unit": entry["unit"]}
    except (KeyError, ValueError, ZeroDivisionError) as error:
        log(f"perfbench did not report {error}")
        return 1

    print_timings(raw)
    print("values: " + ", ".join(f"{k}={v:.6g}"
                                 for k, v in sorted(raw["values"].items())))
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(error_rate {failed / max(attempted, 1):.3g})")
    for message in raw["failures"]:
        print(f"  failure: {message}")
    if args.trace:
        print(f"{'per-layer metric':38} {'value':>14} {'unit':6}  "
              "moves  (on workloads)")
        for name, metric in metrics.items():
            target, on = LAYER_MAP[name]
            print(f"{name:38} {metric['value']:14.6g} {metric['unit']:6}  "
                  f"{target}  ({', '.join(on) or '-'})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
