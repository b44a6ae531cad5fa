#!/usr/bin/env python3
"""Compare a ppg-bench JSON artifact against the committed baseline, or
regenerate the baseline from a fresh full run.

Compare (the CI gate):
    check_bench.py NEW_JSON BASELINE_JSON [--threshold 0.30] [--atol 1e-9]

Fails (exit 1) when:
  - the schema versions differ,
  - a baseline scenario is missing from the new artifact, or
  - a goal-tagged metric regresses by more than --threshold:
      goal "min": new > old * (1 + threshold)   (e.g. a TV distance grew)
      goal "max": new < old * (1 - threshold)   (e.g. an engine speedup fell)
    Values within --atol of each other (or both below it) never fail —
    machine-precision metrics (detailed-balance residuals ~1e-17) jitter in
    the last bit across compilers, which is not a regression.

Compare two runs (the thread-determinism gate):
    check_bench.py --compare-runs A_JSON B_JSON [--atol 0]

Fails (exit 1) when any goal-tagged metric differs between the two
artifacts by more than --atol (default 0: goal-tagged metrics are
seed-deterministic by repo convention, so two runs of the same suite at
the same seed — e.g. --threads 1 vs --threads $(nproc) — must agree
bitwise), or when a scenario or gated metric is present in one artifact
but not the other. Untagged metrics (wall-clock rates) are ignored.

Refresh (after an intentional metric change or a new scenario):
    check_bench.py --refresh [--bench build/bench/ppg-bench]
                             [--baseline BENCH_baseline.json]

Runs the bench binary in full (non-smoke) mode, prints the diff of gated
metrics against the current baseline — regressions are reported but do not
fail, since a refresh is by definition intentional — and rewrites the
baseline file. Baseline scenarios or gated metrics absent from the fresh
run are reported loudly (they are about to be dropped from the gate), so a
renamed or deleted metric never disappears silently. Commit the diff it
prints.

Trend (warn-only, never fails on a drop):
    check_bench.py --trend DIR

Reads the perfbench trajectory in DIR: one JSON file per perf-touching
change, read in natural name order. Each file holds, per workload, the
median end-to-end metrics of alternated parent/change perfbench runs made
side by side ("parent", "change"), each metric's direction ("better":
"higher" or "lower"), the seeds and a host note. It prints every metric's
parent -> change ratio and warns when that ratio is worse than 25%: the
parent and the change ran in the same sitting, so the ratio is a
like-for-like comparison. Next to each row it prints the previous file's
change median, marked as another sitting; rates from different sittings
drift with the host, so that column never warns. Exit status is 0 unless a
file cannot be read.

Goal tags come from each scenario's "metric_goals" map in the baseline (the
contract the baseline froze); goal-tagged metrics that are new since the
baseline are reported as a reminder to regenerate it. Untagged metrics are
listed for the trajectory but never fail the check. The scenarios tag only
machine-robust quantities (accuracy of seeded deterministic runs, in-process
speedup ratios) — raw wall-clock rates stay untagged because CI hardware
varies run to run.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile


def load(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        sys.exit(f"check_bench: cannot load {path}: {error}")


def scenario_map(artifact):
    return {s["name"]: s for s in artifact.get("scenarios", [])}


def compare(new, baseline, threshold, atol):
    """Returns (rows, failures, warnings) for the gated-metric diff.

    Each failure is a (kind, message) pair, kind in {"schema", "missing",
    "regression"}, so callers can filter structurally (--refresh keeps only
    regressions) instead of by message substring."""
    failures = []
    warnings = []

    if new.get("schema_version") != baseline.get("schema_version"):
        failures.append(
            ("schema",
             f"schema_version mismatch: new={new.get('schema_version')} "
             f"baseline={baseline.get('schema_version')}"))

    new_scenarios = scenario_map(new)
    base_scenarios = scenario_map(baseline)

    for name in sorted(base_scenarios):
        if name not in new_scenarios:
            failures.append(
                ("missing", f"scenario '{name}' missing from new artifact"))
            # Enumerate the gated metrics the missing scenario takes with
            # it, so the failure names every metric leaving the gate.
            goals = base_scenarios[name].get("metric_goals", {})
            for metric in sorted(goals):
                failures.append(
                    ("missing",
                     f"{name}.{metric} ({goals[metric]}) gated in the "
                     "baseline but its scenario is missing"))
    for name in sorted(new_scenarios):
        if name not in base_scenarios:
            warnings.append(f"scenario '{name}' not in baseline — "
                            "regenerate BENCH_baseline.json to track it")

    rows = []
    for name in sorted(set(base_scenarios) & set(new_scenarios)):
        base_metrics = base_scenarios[name].get("metrics", {})
        base_goals = base_scenarios[name].get("metric_goals", {})
        new_metrics = new_scenarios[name].get("metrics", {})
        new_goals = new_scenarios[name].get("metric_goals", {})

        for metric in sorted(new_goals):
            if metric not in base_goals:
                warnings.append(
                    f"{name}.{metric} is goal-tagged but absent from the "
                    "baseline — regenerate BENCH_baseline.json to track it")

        for metric in sorted(base_goals):
            goal = base_goals[metric]
            if metric not in new_metrics:
                failures.append(
                    ("missing",
                     f"{name}.{metric} missing from new artifact"))
                continue
            old_value = base_metrics[metric]
            new_value = new_metrics[metric]
            verdict = "ok"
            if abs(new_value - old_value) > atol:
                if goal == "min" and new_value > old_value * (
                        1 + threshold) and new_value > atol:
                    verdict = "REGRESSED"
                elif goal == "max" and new_value < old_value * (
                        1 - threshold):
                    verdict = "REGRESSED"
            change = ("n/a" if abs(old_value) <= atol else
                      f"{(new_value - old_value) / abs(old_value):+.1%}")
            rows.append((name, metric, goal, old_value, new_value, change,
                         verdict))
            if verdict == "REGRESSED":
                failures.append(
                    ("regression",
                     f"{name}.{metric} ({goal}): baseline {old_value:.6g} "
                     f"-> {new_value:.6g} ({change})"))
    return rows, failures, warnings


def compare_runs(path_a, path_b, atol):
    """Zero-tolerance agreement check between two runs of the same suite.

    Goal-tagged metrics are seed-deterministic by repo convention, so two
    artifacts produced at the same (smoke, seed) — at any thread counts —
    must agree on every one of them. Returns a list of failure messages."""
    run_a = load(path_a)
    run_b = load(path_b)
    failures = []
    if run_a.get("schema_version") != run_b.get("schema_version"):
        failures.append(
            f"schema_version mismatch: {path_a}={run_a.get('schema_version')} "
            f"{path_b}={run_b.get('schema_version')}")
    scenarios_a = scenario_map(run_a)
    scenarios_b = scenario_map(run_b)
    for name in sorted(set(scenarios_a) ^ set(scenarios_b)):
        where = path_b if name in scenarios_a else path_a
        failures.append(f"scenario '{name}' missing from {where}")
    checked = 0
    for name in sorted(set(scenarios_a) & set(scenarios_b)):
        a = scenarios_a[name]
        b = scenarios_b[name]
        gated = sorted(set(a.get("metric_goals", {}))
                       | set(b.get("metric_goals", {})))
        for metric in gated:
            missing = [path for path, s in ((path_a, a), (path_b, b))
                       if metric not in s.get("metrics", {})]
            if missing:
                failures.append(f"{name}.{metric} missing from "
                                f"{' and '.join(missing)}")
                continue
            value_a = a["metrics"][metric]
            value_b = b["metrics"][metric]
            checked += 1
            if abs(value_a - value_b) > atol:
                failures.append(
                    f"{name}.{metric} differs: {value_a!r} vs {value_b!r} "
                    f"(|diff| = {abs(value_a - value_b):.6g} > atol {atol:g})")
    if failures:
        print(f"check_bench: --compare-runs: {len(failures)} mismatch(es) "
              f"between {path_a} and {path_b}:")
        for message in failures:
            print(f"  - {message}")
        return 1
    print(f"check_bench: --compare-runs OK — {checked} goal-tagged "
          f"metric(s) agree within atol {atol:g}")
    return 0


def print_rows(rows):
    if not rows:
        return
    name_w = max(len(r[0]) for r in rows)
    metric_w = max(len(r[1]) for r in rows)
    print(f"{'scenario':<{name_w}}  {'metric':<{metric_w}}  goal  "
          f"{'baseline':>12}  {'new':>12}  {'change':>8}  verdict")
    for name, metric, goal, old, cur, change, verdict in rows:
        print(f"{name:<{name_w}}  {metric:<{metric_w}}  {goal:<4}  "
              f"{old:>12.6g}  {cur:>12.6g}  {change:>8}  {verdict}")


def refresh(args):
    """Regenerates the baseline from a full (non-smoke) run and prints the
    diff of gated metrics against the previous baseline."""
    if not os.path.exists(args.bench):
        sys.exit(f"check_bench: bench binary not found at {args.bench} "
                 "(build it, or pass --bench)")
    with tempfile.NamedTemporaryFile(
            suffix=".json", prefix="bench-refresh-",
            dir=os.path.dirname(os.path.abspath(args.baseline)),
            delete=False) as handle:
        fresh_path = handle.name
    print(f"check_bench: running full suite: {args.bench} "
          f"--json {fresh_path}")
    run = subprocess.run(
        [args.bench, "--json", fresh_path],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if run.returncode != 0:
        os.unlink(fresh_path)
        sys.stderr.write(run.stderr)
        sys.exit(f"check_bench: bench run failed (exit {run.returncode})")
    fresh = load(fresh_path)

    if os.path.exists(args.baseline):
        baseline = load(args.baseline)
        rows, failures, warnings = compare(fresh, baseline, args.threshold,
                                           args.atol)
        print_rows(rows)
        for warning in warnings:
            print(f"warning: {warning}")
        dropped = [msg for kind, msg in failures if kind == "missing"]
        if dropped:
            print(f"\ncheck_bench: WARNING — {len(dropped)} baseline "
                  "scenario(s)/gated metric(s) absent from the fresh run "
                  "and about to be DROPPED from the gate:")
            for message in dropped:
                print(f"  - {message}")
        moved = [msg for kind, msg in failures if kind == "regression"]
        if moved:
            print(f"\ncheck_bench: {len(moved)} gated metric(s) moved past "
                  "the threshold (intentional for a refresh):")
            for message in moved:
                print(f"  - {message}")
    else:
        print(f"check_bench: no previous baseline at {args.baseline}; "
              "writing a fresh one")

    # Keep the harness's own serialization so baseline diffs stay clean.
    os.replace(fresh_path, args.baseline)
    gated = sum(len(s.get("metric_goals", {}))
                for s in fresh.get("scenarios", []))
    print(f"\ncheck_bench: wrote {args.baseline} "
          f"({len(fresh.get('scenarios', []))} scenario(s), "
          f"{gated} gated metric(s)); review and commit the diff")
    return 0


TREND_DROP = 0.25


def trend(directory):
    """Prints the perfbench trajectory in `directory` and warns on any
    end-to-end metric whose same-sitting parent -> change ratio is worse
    than TREND_DROP. The previous file's change median is printed beside
    each row but never compared: it comes from another sitting. Never
    fails on a drop."""
    def natural(name):
        return [int(part) if part.isdigit() else part
                for part in re.split(r"(\d+)", name)]

    try:
        names = sorted((n for n in os.listdir(directory)
                        if n.endswith(".json")), key=natural)
    except OSError as error:
        sys.exit(f"check_bench: cannot read {directory}: {error}")
    if not names:
        print(f"check_bench: --trend: no trajectory files in {directory}")
        return 0

    def worse(old, new, better):
        """The fraction by which `new` is worse than `old` (<= 0 when it
        is not worse)."""
        if old <= 0:
            return 0.0
        change = (new - old) / old
        return -change if better == "higher" else change

    warnings = []
    previous = None
    print(f"{'file':<14} {'workload':<16} {'metric':<20} {'parent':>11} "
          f"{'change':>11} {'ratio':>7}  previous file's change "
          "(another sitting)")
    for name in names:
        doc = load(os.path.join(directory, name))
        try:
            better = doc["better"]
            workloads = doc["workloads"]
            for workload, entry in sorted(workloads.items()):
                for metric, direction in sorted(better.items()):
                    old = entry["parent"][metric]
                    new = entry["change"][metric]
                    ratio = new / old if old else float("nan")
                    last = ""
                    if previous and workload in previous[1]:
                        value = previous[1][workload]["change"].get(metric)
                        if value is not None:
                            last = f"{value:.4g} in {previous[0]}"
                    print(f"{name:<14} {workload:<16} {metric:<20} "
                          f"{old:>11.4g} {new:>11.4g} {ratio:>7.3f}  {last}")
                    if worse(old, new, direction) > TREND_DROP:
                        warnings.append(
                            f"{name}: {workload}.{metric} {old:.4g} -> "
                            f"{new:.4g} against its parent")
        except (KeyError, TypeError, AttributeError) as error:
            sys.exit(f"check_bench: malformed trajectory file {name}: "
                     f"missing {error}")
        previous = (name, workloads)
    for message in warnings:
        print(f"warning: {message}")
    print(f"check_bench: --trend: {len(names)} file(s), "
          f"{len(warnings)} warning(s) (parent -> change moves worse than "
          f"{TREND_DROP:.0%}; warn-only)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="ppg-bench regression check against a baseline artifact")
    parser.add_argument("new_json", nargs="?",
                        help="artifact to check (compare mode)")
    parser.add_argument("baseline_json", nargs="?",
                        help="baseline to check against (compare mode)")
    parser.add_argument("--refresh", action="store_true",
                        help="regenerate the baseline from a full "
                             "(non-smoke) run and print the gated diff")
    parser.add_argument("--compare-runs", nargs=2,
                        metavar=("A_JSON", "B_JSON"),
                        help="require every goal-tagged metric to agree "
                             "between two runs of the same suite "
                             "(zero tolerance unless --atol is raised)")
    parser.add_argument("--trend", metavar="DIR",
                        help="print the perfbench trajectory in DIR and "
                             "warn on parent -> change moves worse than "
                             "25%% (never fails on a drop)")
    parser.add_argument("--bench", default="build/bench/ppg-bench",
                        help="bench binary for --refresh "
                             "(default build/bench/ppg-bench)")
    parser.add_argument("--baseline", default="BENCH_baseline.json",
                        help="baseline path for --refresh "
                             "(default BENCH_baseline.json)")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="fractional regression allowed (default 0.30)")
    parser.add_argument("--atol", type=float, default=None,
                        help="absolute noise floor (default 1e-9; "
                             "0 in --compare-runs mode)")
    args = parser.parse_args()

    if args.trend:
        if args.refresh or args.compare_runs or args.new_json:
            parser.error("--trend takes only its directory")
        return trend(args.trend)
    if args.compare_runs:
        if args.refresh or args.new_json or args.baseline_json:
            parser.error("--compare-runs takes exactly its two artifacts")
        atol = args.atol if args.atol is not None else 0.0
        return compare_runs(args.compare_runs[0], args.compare_runs[1], atol)
    if args.atol is None:
        args.atol = 1e-9

    if args.refresh:
        if args.new_json or args.baseline_json:
            parser.error("--refresh takes no positional artifacts")
        return refresh(args)
    if not args.new_json or not args.baseline_json:
        parser.error("compare mode needs NEW_JSON and BASELINE_JSON "
                     "(or pass --refresh)")

    new = load(args.new_json)
    baseline = load(args.baseline_json)
    rows, failures, warnings = compare(new, baseline, args.threshold,
                                       args.atol)
    print_rows(rows)
    for warning in warnings:
        print(f"warning: {warning}")
    if failures:
        print(f"\ncheck_bench: {len(failures)} failure(s):")
        for _, message in failures:
            print(f"  - {message}")
        return 1
    print(f"\ncheck_bench: OK — {len(rows)} goal-tagged metric(s) within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
