#!/usr/bin/env python3
"""Alternated perfbench A/B of a parent commit against the working tree.

    python3 scripts/ab_perf.py --parent HEAD~1 --pairs 10 --seconds 10 \
        --seeds 61-70 --change "what the change does" \
        --out bench/trajectory/NAME.json

Run it from the repository root. The parent is exported with `git archive`
(local, no network) into .perfbench/ab/parent-<sha>/ and kept there, so a
second A/B against the same commit reuses its build. The working tree,
uncommitted edits included, is the change. Each side runs through its own
perfbench/run.py, which builds that side's perfbench before it runs.

For each workload, pair i runs seed i on both sides back to back, the
parent first in even pairs and the change first in odd ones, so a host that
drifts during a sitting slows both sides alike. The output file has the
bench/trajectory/ schema that `check_bench.py --trend` reads. The script
prints, per workload and end-to-end metric, the change/parent ratio of the
medians, the pairs in which the change was ahead, the range of the pair
ratios, and the gap between the medians against the parent's interquartile
range: a gain is claimable when the change is ahead in at least 9 of 10
pairs and the gap, in the better direction, exceeds that range.

    python3 scripts/ab_perf.py --parent HEAD~1 --pairs 10 --seeds 1-10 \
        --bench throughput_engines.ips_logit_q8_multibatch_n100000000 \
        --change "what the change does" [--out FILE]

With --bench, the pairs run ppg-bench instead: each ROW is SCENARIO.METRIC,
an ungated (wall-clock) row of a ppg-bench JSON artifact. Each side builds
its own ppg-bench into .perfbench/bench-build/ of its tree, and pair i runs
`ppg-bench --filter '^(SCENARIO|...)$' --seed SEED --json ...` in full
mode on both sides in the same alternated order. The same statistics are
printed per row: a row whose name has an `ips` or `rate` token is better
higher, one with an `ns`, `us`, `ms` or `s` token better lower. --out, if
given, keeps every run's value (not the bench/trajectory/ schema).
"""

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".perfbench", "ab")
CLAIM_SHARE = 0.9


# --- statistics -----------------------------------------------------------

def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between the
    closest ranks, as perfbench/run.py reduces its timings."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def median(values):
    return percentile(values, 50)


def compare(parent, change, better):
    """Summary of one metric over paired runs: parent[i] and change[i] are
    the same seed's values. `better` is "higher" or "lower"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("compare needs equal, non-empty pair lists")
    if better not in ("higher", "lower"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    pair_ratios = [c / p if p else float("nan")
                   for p, c in zip(parent, change)]
    ahead = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    parent_median = median(parent)
    change_median = median(change)
    iqr = percentile(parent, 75) - percentile(parent, 25)
    gap = sign * (change_median - parent_median)  # > 0: the change is better
    return {
        "parent": parent_median,
        "change": change_median,
        "ratio": change_median / parent_median if parent_median else
        float("nan"),
        "pair_ratio_median": median(pair_ratios),
        "pair_ratio_min": min(pair_ratios),
        "pair_ratio_max": max(pair_ratios),
        "ahead": ahead,
        "pairs": len(parent),
        "gap": gap,
        "parent_iqr": iqr,
        "claimable": (ahead >= CLAIM_SHARE * len(parent) and gap > iqr),
    }


def parse_seeds(text):
    """'61-70' or '1,3,5' (or a mix, '1-3,7') as a list of ints."""
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = (int(x) for x in part.split("-", 1))
            if hi < lo:
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(lo, hi + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise ValueError("no seeds")
    return seeds


def order(pair):
    """The sides of pair `pair` in run order: the parent first in even
    pairs, the change first in odd ones."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


# --- ppg-bench rows -------------------------------------------------------

def parse_row(text):
    """'SCENARIO.METRIC' as (scenario, metric)."""
    scenario, dot, metric = text.partition(".")
    if not dot or not scenario or not metric:
        raise ValueError(f"bench row {text!r} is not SCENARIO.METRIC")
    return scenario, metric


def row_direction(metric):
    """Whether a wall-clock row is better "higher" (a rate) or "lower" (a
    time), read from the `_`-separated tokens of its name."""
    tokens = metric.split("_")
    if "ips" in tokens or "rate" in tokens:
        return "higher"
    if any(t in tokens for t in ("ns", "us", "ms", "s")):
        return "lower"
    raise ValueError(f"bench row {metric!r} names neither a rate (an ips or "
                     "rate token) nor a time (an ns, us, ms or s token)")


def bench_filter(rows):
    """The ppg-bench --filter regex that runs exactly the rows' scenarios."""
    names = sorted({scenario for scenario, _ in rows})
    return "^(" + "|".join(re.escape(n) for n in names) + ")$"


def row_value(artifact, scenario, metric):
    """The row's value in a ppg-bench JSON artifact; a gated row, being
    seed-deterministic, is refused (compare it with check_bench.py
    --compare-runs instead)."""
    for entry in artifact["scenarios"]:
        if entry["name"] != scenario:
            continue
        if metric not in entry["metrics"]:
            break
        if entry["metric_goals"].get(metric, "none") != "none":
            raise ValueError(f"bench row {scenario}.{metric} is gated")
        return entry["metrics"][metric]
    raise ValueError(f"bench row {scenario}.{metric} is not in the artifact")


# --- git and runs ---------------------------------------------------------

def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export_parent(rev):
    """The parent tree at .perfbench/ab/parent-<sha>/, exported once."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(AB_DIR, "parent-" + sha[:12])
    if not os.path.exists(os.path.join(tree, "BENCHMARK.json")):
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit(f"ab_perf: git archive {sha} failed")
    return sha, tree


def run_side(tree, workload, seed, seconds):
    """One perfbench/run.py run in `tree`; returns its last-line JSON."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def build_bench(tree):
    """Configures (once) and builds ppg-bench in `tree`; returns the binary.
    Build output goes to stderr."""
    build = os.path.join(tree, ".perfbench", "bench-build")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", tree, "-B", build,
                        "-DCMAKE_BUILD_TYPE=Release", "-DPPG_BUILD_TESTS=OFF",
                        "-DPPG_BUILD_EXAMPLES=OFF"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build, "-j", str(os.cpu_count() or 1),
                    "--target", "ppg_bench"], stdout=sys.stderr, check=True)
    return os.path.join(build, "bench", "ppg-bench")


def run_bench(binary, regex, seed):
    """One full-mode ppg-bench run of the scenarios `regex` selects;
    returns its JSON artifact."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.json")
        subprocess.run([binary, "--filter", regex, "--seed", str(seed),
                        "--json", path], stdout=subprocess.DEVNULL,
                       check=True)
        with open(path) as f:
            return json.load(f)


def describe_host():
    """CPU model, visible CPUs, OS and compiler, as far as they are known."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        compiler = subprocess.run(["c++", "--version"], check=True,
                                  stdout=subprocess.PIPE,
                                  text=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        compiler = "unknown compiler"
    return (f"{cpu}, {os.cpu_count()} CPUs visible, {platform.system()} "
            f"{platform.release()}, {compiler}, Release; one run at a time")


def end_to_end_metrics(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}


# --- report ---------------------------------------------------------------

def print_report(workload, summaries):
    width = max([20] + [len(metric) for metric in summaries])
    print(f"\n{workload}")
    print(f"  {'metric':{width}} {'parent':>11} {'change':>11} {'ratio':>7} "
          f"{'pair ratios: median':>20} {'range':>13} {'ahead':>7} "
          f"{'gap/IQR':>8}  claim")
    for metric, s in summaries.items():
        spread = f"{s['pair_ratio_min']:.3f}-{s['pair_ratio_max']:.3f}"
        vs_iqr = (f"{s['gap'] / s['parent_iqr']:.2f}" if s["parent_iqr"]
                  else "inf" if s["gap"] > 0 else "-")
        print(f"  {metric:{width}} {s['parent']:>11.4g} {s['change']:>11.4g} "
              f"{s['ratio']:>7.3f} {s['pair_ratio_median']:>20.3f} "
              f"{spread:>13} {s['ahead']:>3}/{s['pairs']:<3} {vs_iqr:>8}  "
              f"{'yes' if s['claimable'] else 'no'}")


def ab_workloads(args, seeds, sha, trees):
    """The perfbench pairs: one trajectory file over the workloads."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        known = [w["name"] for w in json.load(f)["workloads"]]
    workloads = args.workloads or known
    for workload in workloads:
        if workload not in known:
            sys.exit(f"ab_perf: unknown workload {workload!r}; one of {known}")
    better = end_to_end_metrics(ROOT)
    doc = {
        "change": args.change,
        "parent_commit": sha[:7],
        "host": describe_host(),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds} --trace 0",
        "pairing": "alternated: each seed runs parent and change back to "
                   "back, the first side alternating from pair to pair; "
                   "medians over the pairs",
        "better": better,
        "workloads": {},
    }
    for workload in workloads:
        runs = {side: {m: [] for m in better} for side in trees}
        failed = 0
        correct = True
        for pair, seed in enumerate(seeds):
            for side in order(pair):
                result = run_side(trees[side], workload, seed, args.seconds)
                failed += result["failed"]
                correct = correct and result["correct"]
                for metric in better:
                    runs[side][metric].append(
                        result["metrics"][metric]["value"])
            print(f"ab_perf: {workload} pair {pair + 1}/{args.pairs} "
                  f"(seed {seed}) done", file=sys.stderr, flush=True)
        summaries = {m: compare(runs["parent"][m], runs["change"][m], d)
                     for m, d in better.items()}
        print_report(workload, summaries)
        doc["workloads"][workload] = {
            "seeds": seeds,
            "pairs": args.pairs,
            "failed": failed,
            "correct": correct,
            "parent": {m: s["parent"] for m, s in summaries.items()},
            "change": {m: s["change"] for m, s in summaries.items()},
            "change_wins": {m: s["ahead"] for m, s in summaries.items()},
            "runs_by_seed": runs,
        }
    return doc


def ab_bench(args, seeds, sha, trees):
    """The ppg-bench pairs over the --bench rows."""
    try:
        rows = [parse_row(text) for text in args.bench]
        better = {f"{sc}.{m}": row_direction(m) for sc, m in rows}
    except ValueError as e:
        sys.exit(f"ab_perf: {e}")
    regex = bench_filter(rows)
    binaries = {side: build_bench(tree) for side, tree in trees.items()}
    runs = {side: {row: [] for row in better} for side in trees}
    for pair, seed in enumerate(seeds):
        for side in order(pair):
            artifact = run_bench(binaries[side], regex, seed)
            for scenario, metric in rows:
                try:
                    value = row_value(artifact, scenario, metric)
                except ValueError as e:
                    sys.exit(f"ab_perf: {side}: {e}")
                runs[side][f"{scenario}.{metric}"].append(value)
        print(f"ab_perf: ppg-bench pair {pair + 1}/{args.pairs} "
              f"(seed {seed}) done", file=sys.stderr, flush=True)
    summaries = {row: compare(runs["parent"][row], runs["change"][row], d)
                 for row, d in better.items()}
    print_report("ppg-bench " + regex, summaries)
    return {
        "change": args.change,
        "parent_commit": sha[:7],
        "host": describe_host(),
        "command": f"ppg-bench --filter '{regex}' --seed S --json FILE",
        "pairing": "alternated: each seed runs parent and change back to "
                   "back, the first side alternating from pair to pair; "
                   "medians over the pairs",
        "better": better,
        "seeds": seeds,
        "parent": {row: s["parent"] for row, s in summaries.items()},
        "change": {row: s["change"] for row, s in summaries.items()},
        "change_wins": {row: s["ahead"] for row, s in summaries.items()},
        "runs_by_seed": runs,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        help="perfbench window per run (not with --bench)")
    parser.add_argument("--seeds", required=True,
                        help="one seed per pair: '61-70' or '1,3,5'")
    parser.add_argument("--workloads", nargs="+",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--bench", nargs="+", metavar="ROW",
                        help="ppg-bench rows SCENARIO.METRIC instead of "
                             "perfbench workloads")
    parser.add_argument("--change", required=True,
                        help="one line on what the change does")
    parser.add_argument("--out", help="trajectory file (required without "
                                      "--bench)")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if len(seeds) != args.pairs:
        parser.error(f"--seeds names {len(seeds)} seed(s) for "
                     f"{args.pairs} pair(s)")
    if args.bench:
        if args.seconds is not None or args.workloads:
            parser.error("--bench takes neither --seconds nor --workloads")
    elif args.seconds is None or args.seconds < 1 or not args.out:
        parser.error("perfbench pairs need --seconds >= 1 and --out")

    sha, parent_tree = export_parent(args.parent)
    trees = {"parent": parent_tree, "change": ROOT}
    if args.bench:
        doc = ab_bench(args, seeds, sha, trees)
    else:
        doc = ab_workloads(args, seeds, sha, trees)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print(f"\nab_perf: wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
