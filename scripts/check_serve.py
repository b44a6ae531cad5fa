#!/usr/bin/env python3
"""End-to-end smoke test of the ppg-serve daemon over real HTTP.

    check_serve.py PATH_TO_PPG_SERVE

Starts the daemon on an ephemeral port (parsing the "listening on" line it
prints), then drives one full session lifecycle through the wire protocol:

  - GET  /healthz                 -> 200, status ok
  - POST /sessions                -> 201, a census session with a fixed seed
  - POST /sessions (same proto)   -> 201 with kernel_cache_hit true
  - POST /sessions/{id}/advance   -> 200, interactions advance exactly
  - GET  /sessions/{id}/census    -> 200, counts sum to the population
  - GET  /sessions/{id}/checkpoint-> 200, body passes check_checkpoint.py's
                                     v1 schema rules (imported directly)
  - POST /sessions/restore        -> 201, clone continues; advancing both
                                     identically keeps checkpoints
                                     byte-identical
  - DELETE /sessions/{id}         -> 200 once, then 404
  - error paths: unknown id 404, malformed recipe 400, wrong method 405
  - GET /stats                    -> 200, per-session interactions and
                                     kernel-cache hit counters add up
  - /proc/<pid>/task/*/status     -> every thread but the main one has
                                     SIGTERM and SIGINT in SigBlk, so only
                                     main can take the shutdown signal

Before that it runs the binary with flag values that do not fit their
field (a port past 65535, a signed port, timeouts past INT_MAX, a count
past 2^64) and requires each to exit 2 without printing a listening line.

Exits nonzero with a pointed message on the first violation, and always
tears the daemon down. This is the CI complement to tests/test_serve.cpp:
the C++ suite drives serve_app in-process; this script proves the shipped
binary speaks the protocol over an actual socket.
"""

import os
import re
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_checkpoint import Violation, check_spec, check_engine  # noqa: E402
from serve_http import Failure, fail, request  # noqa: E402

RECIPE = {
    "protocol": {"name": "approximate-majority", "params": {}},
    "initial_counts": [600, 400, 0],
    "sampling": "distinct",
}


# Each value used to wrap silently: port 70000 bound 4464, -65535 bound
# port 1, and a timeout of 2^32 (or >= 2^31) disabled the deadline.
OUT_OF_RANGE = [
    ["--port", "70000"],
    ["--port", "-65535"],
    ["--port", "+80"],
    ["--read-timeout-ms", "4294967296"],
    ["--write-timeout-ms", "2147483648"],
    ["--chunk", "18446744073709551616"],
]


def check_usage_errors(binary):
    """Every out-of-range value is a usage error: exit 2 before binding."""
    for flags in OUT_OF_RANGE:
        # --port 0 first, so a binary that accepts the value binds an
        # ephemeral port; the timeout then kills it.
        args = [binary, "--port", "0", *flags]
        try:
            done = subprocess.run(
                args, capture_output=True, text=True, timeout=10
            )
        except subprocess.TimeoutExpired:
            fail(f"{' '.join(flags)}: daemon started instead of exiting 2")
        if "listening on" in done.stdout or done.returncode != 2:
            fail(
                f"{' '.join(flags)}: exit {done.returncode}, "
                f"stdout {done.stdout!r}, stderr {done.stderr!r}"
            )
    return len(OUT_OF_RANGE)


def start_daemon(binary):
    daemon = subprocess.Popen(
        [binary, "--port", "0", "--chunk", "4096"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = daemon.stdout.readline()
    match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
    if not match:
        daemon.kill()
        fail(f"daemon did not announce a port (got {line!r})")
    return daemon, int(match.group(1))


def run_smoke(port):
    health = request(port, "GET", "/healthz")
    if health.get("status") != "ok":
        fail(f"/healthz: {health}")

    created = request(
        port,
        "POST",
        "/sessions",
        {"recipe": RECIPE, "engine": "census", "seed": 2024},
        expect=201,
    )
    sid = created["id"]
    if created["kernel_cache_hit"]:
        fail("first session reported a warm kernel cache")

    twin = request(
        port,
        "POST",
        "/sessions",
        {"recipe": RECIPE, "engine": "census", "seed": 2024},
        expect=201,
    )
    if not twin["kernel_cache_hit"]:
        fail("second session on the same protocol missed the kernel cache")

    advanced = request(
        port, "POST", f"/sessions/{sid}/advance", {"interactions": 50000}
    )
    if advanced["interactions"] != 50000:
        fail(f"advance: expected 50000 interactions, got {advanced}")

    census = request(port, "GET", f"/sessions/{sid}/census")
    population = sum(RECIPE["initial_counts"])
    if sum(census["counts"]) != population:
        fail(f"census does not sum to n={population}: {census}")

    checkpoint = request(port, "GET", f"/sessions/{sid}/checkpoint")
    try:
        n, width = check_spec(checkpoint["spec"])
        check_engine(checkpoint["engine"], n, width)
    except Violation as violation:
        fail(f"checkpoint failed v1 schema validation: {violation}")
    if checkpoint["engine"]["interactions"] != 50000:
        fail("checkpoint interaction counter disagrees with the advance")

    clone = request(port, "POST", "/sessions/restore", checkpoint, expect=201)
    if not clone["restored"] or clone["interactions"] != 50000:
        fail(f"restore: {clone}")
    for session in (sid, clone["id"]):
        request(
            port, "POST", f"/sessions/{session}/advance",
            {"interactions": 30000},
        )
    original = request(port, "GET", f"/sessions/{sid}/checkpoint")
    resumed = request(port, "GET", f"/sessions/{clone['id']}/checkpoint")
    if original != resumed:
        fail("restored session diverged from the original after advancing")

    # Error paths speak proper statuses.
    request(port, "GET", "/sessions/s999/census", expect=404)
    request(port, "PUT", "/sessions", expect=405)
    request(
        port, "POST", "/sessions",
        {"recipe": {"bogus": True}, "engine": "census"}, expect=400,
    )
    request(port, "DELETE", f"/sessions/{clone['id']}", expect=200)
    request(port, "DELETE", f"/sessions/{clone['id']}", expect=404)

    stats = request(port, "GET", "/stats")
    by_id = {s["id"]: s for s in stats["sessions"]}
    if sid not in by_id or by_id[sid]["interactions"] != 80000:
        fail(f"stats does not report the session's interactions: {stats}")
    if stats["kernel_cache"]["hits"] < 2:  # twin + restore both warm
        fail(f"kernel cache hits not counted: {stats['kernel_cache']}")
    return stats


def check_signal_masks(pid):
    """Every non-main thread must block SIGTERM and SIGINT (bits signo-1 of
    the SigBlk mask); otherwise the kernel may run the shutdown handler on a
    worker and the main thread, parked in sigsuspend, never wakes."""
    required = (1 << (signal.SIGTERM - 1)) | (1 << (signal.SIGINT - 1))
    task_dir = f"/proc/{pid}/task"
    workers = 0
    for tid in sorted(os.listdir(task_dir)):
        if int(tid) == pid:
            continue
        try:
            with open(f"{task_dir}/{tid}/status") as status:
                fields = dict(
                    line.split(":", 1) for line in status if ":" in line
                )
        except FileNotFoundError:
            continue  # the thread exited between listdir and open
        blocked = int(fields["SigBlk"].strip(), 16)
        if blocked & required != required:
            fail(
                f"thread {tid} ({fields['Name'].strip()}) leaves "
                f"SIGTERM/SIGINT unblocked: SigBlk={fields['SigBlk'].strip()}"
            )
        workers += 1
    if workers == 0:
        fail(f"no worker threads found under {task_dir}")
    return workers


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip())
        return 2
    try:
        refused = check_usage_errors(argv[1])
    except Failure as failure:
        print(f"FAIL: {failure}")
        return 1
    daemon, port = start_daemon(argv[1])
    try:
        stats = run_smoke(port)
        workers = check_signal_masks(daemon.pid)
    except Failure as failure:
        print(f"FAIL: {failure}")
        return 1
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=10)
        except subprocess.TimeoutExpired:
            daemon.kill()
            print("FAIL: daemon did not exit on SIGTERM")
            return 1
    print(
        f"OK   ppg-serve on 127.0.0.1:{port}: full session lifecycle, "
        f"{stats['requests']} requests, "
        f"{stats['kernel_cache']['hits']} warm kernel hits, "
        f"{workers} worker threads block SIGTERM/SIGINT, "
        f"{refused} out-of-range flag values refused"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
