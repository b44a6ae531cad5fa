#!/usr/bin/env python3
"""Crash-recovery gate for the ppg-serve durable session store.

    check_crash_recovery.py PATH_TO_PPG_SERVE [STORE_DIR]

Drives the shipped binary through the full DESIGN.md §13 story over real
sockets and real SIGKILL:

  1. Boot with --store, create a census and a multibatch session, advance
     both (periodic spills land every --spill-every chunks).
  2. Fire a long advance and SIGKILL the daemon mid-flight — no drain, no
     goodbye. Parse the spill envelopes straight off the disk.
  3. Reboot on the same store directory. Both sessions must come back
     under their original ids, marked recovered, and the recovered state
     must equal the last spilled generation exactly.
  4. Bit-exactness: restore a twin from the spilled checkpoint document
     over the wire, advance twin and recovered session identically, and
     require byte-identical served checkpoints.
  5. Graceful drain: SIGTERM must exit 0 and leave the final state on disk.
  6. Corruption: truncate one spill, reboot — the daemon must boot anyway,
     quarantine the file, report it in /stats, and still recover the
     healthy session.

On success the store directory is removed; on failure it is left in place
(CI uploads it as a diagnostic artifact). Exits nonzero on any violation.
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from serve_http import Failure, fail, request  # noqa: E402

SPILL_EVERY = 4
CHUNK = 2048


def start_daemon(binary, store_dir):
    daemon = subprocess.Popen(
        [
            binary,
            "--port", "0",
            "--chunk", str(CHUNK),
            "--store", store_dir,
            "--spill-every", str(SPILL_EVERY),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    port = None
    for _ in range(10):
        line = daemon.stdout.readline()
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        daemon.kill()
        fail("daemon did not announce a port")
    return daemon, port


def sigterm_and_expect_clean_exit(daemon, what):
    daemon.send_signal(signal.SIGTERM)
    try:
        code = daemon.wait(timeout=10)
    except subprocess.TimeoutExpired:
        daemon.kill()
        fail(f"{what}: daemon did not exit on SIGTERM")
    if code != 0:
        fail(f"{what}: SIGTERM exit code {code}, expected 0 (drained)")


def read_envelope(store_dir, sid):
    path = os.path.join(store_dir, f"{sid}.session.json")
    with open(path, "r", encoding="utf-8") as spill:
        doc = json.load(spill)
    for key in ("store_version", "id", "generation", "seed", "checkpoint"):
        if key not in doc:
            fail(f"spill envelope {path} is missing '{key}'")
    if doc["id"] != sid:
        fail(f"spill envelope {path} carries id {doc['id']!r}")
    return doc


def run_gate(binary, store_dir):
    recipe_census = {
        "protocol": {"name": "rumor", "params": {}},
        "initial_counts": [2800, 200],
        "sampling": "distinct",
    }
    recipe_multibatch = {
        "protocol": {"name": "approximate-majority", "params": {}},
        "initial_counts": [6000, 4000, 0],
        "sampling": "distinct",
    }

    # --- 1. boot, create, advance: spills land as we go.
    daemon, port = start_daemon(binary, store_dir)
    try:
        for body in (
            {"recipe": recipe_census, "engine": "census", "seed": 11},
            {"recipe": recipe_multibatch, "engine": "multibatch", "seed": 22},
        ):
            request(port, "POST", "/sessions", body, expect=201)
        for sid in ("s1", "s2"):
            request(
                port, "POST", f"/sessions/{sid}/advance",
                {"interactions": 40000},
            )

        # --- 2. SIGKILL mid-advance: the periodic spill is all that survives.
        def doomed_advance():
            try:
                request(
                    port, "POST", "/sessions/s2/advance",
                    {"interactions": 50_000_000},
                )
            except Exception:
                pass  # the daemon dies under this request by design

        background = threading.Thread(target=doomed_advance, daemon=True)
        background.start()
        time.sleep(0.3)  # let the advance cross a few spill strides
    finally:
        daemon.kill()
        daemon.wait(timeout=10)
    background.join(timeout=10)

    spilled = {sid: read_envelope(store_dir, sid) for sid in ("s1", "s2")}
    if spilled["s2"]["generation"] < 1:
        fail("s2 was never spilled before the kill")

    # --- 3. reboot on the same store: original ids, recovered flags, and
    # state equal to the last spilled generation.
    daemon, port = start_daemon(binary, store_dir)
    try:
        for sid in ("s1", "s2"):
            info = request(port, "GET", f"/sessions/{sid}")
            if not info.get("recovered"):
                fail(f"{sid} did not report recovered=true: {info}")
            if not info.get("durable"):
                fail(f"{sid} recovered without durability: {info}")
            if info["generation"] != spilled[sid]["generation"]:
                fail(
                    f"{sid}: recovered generation {info['generation']} != "
                    f"spilled {spilled[sid]['generation']}"
                )
            served = json.loads(
                request(port, "GET", f"/sessions/{sid}/checkpoint", raw=True)
            )
            if served != spilled[sid]["checkpoint"]:
                fail(f"{sid}: recovered state is not the spilled generation")
        stats = request(port, "GET", "/stats")
        if stats["durability"]["recovered_sessions"] != 2:
            fail(f"expected 2 recovered sessions: {stats['durability']}")

        # --- 4. bit-exact continuation: the recovered session and a twin
        # restored from the spilled checkpoint advance in lockstep.
        twin = request(
            port, "POST", "/sessions/restore",
            spilled["s2"]["checkpoint"], expect=201,
        )
        if twin["id"] in ("s1", "s2"):
            fail(f"restore reused a recovered id: {twin['id']}")
        for sid in ("s2", twin["id"]):
            request(
                port, "POST", f"/sessions/{sid}/advance",
                {"interactions": 30000},
            )
        recovered_ckpt = request(
            port, "GET", "/sessions/s2/checkpoint", raw=True
        )
        twin_ckpt = request(
            port, "GET", f"/sessions/{twin['id']}/checkpoint", raw=True
        )
        if recovered_ckpt != twin_ckpt:
            fail("recovered session diverged from its solo twin")
    except Failure:
        daemon.kill()
        daemon.wait(timeout=10)
        raise
    else:
        # --- 5. graceful drain spills the final state and exits 0.
        sigterm_and_expect_clean_exit(daemon, "drain")
    final = read_envelope(store_dir, "s2")
    served = json.loads(recovered_ckpt)
    if final["checkpoint"] != served:
        fail("drain did not spill s2's final state")

    # --- 6. a corrupted spill is quarantined, never fatal.
    s1_path = os.path.join(store_dir, "s1.session.json")
    with open(s1_path, "r+", encoding="utf-8") as spill:
        spill.truncate(40)
    daemon, port = start_daemon(binary, store_dir)
    try:
        request(port, "GET", "/sessions/s1", expect=404)  # quarantined
        request(port, "GET", "/sessions/s2")  # healthy one recovered
        stats = request(port, "GET", "/stats")
        quarantined = stats["durability"]["quarantined"]
        if len(quarantined) != 1 or "s1.session.json" not in quarantined[0]:
            fail(f"quarantine not reported in /stats: {quarantined}")
        quarantine_dir = os.path.join(store_dir, "quarantine")
        if not any("s1" in name for name in os.listdir(quarantine_dir)):
            fail("quarantine/ does not hold the corrupt spill")
    except Failure:
        daemon.kill()
        daemon.wait(timeout=10)
        raise
    else:
        sigterm_and_expect_clean_exit(daemon, "post-quarantine shutdown")

    return spilled["s2"]["generation"]


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip())
        return 2
    binary = argv[1]
    store_dir = argv[2] if len(argv) == 3 else "crash-recovery-store"
    shutil.rmtree(store_dir, ignore_errors=True)
    try:
        generation = run_gate(binary, store_dir)
    except Failure as failure:
        print(f"FAIL: {failure}")
        print(f"      (store left at {store_dir!r} for inspection)")
        return 1
    shutil.rmtree(store_dir, ignore_errors=True)
    print(
        "OK   ppg-serve crash recovery: SIGKILL mid-advance, rebooted from "
        f"generation {generation}, bit-exact continuation, corrupt spill "
        "quarantined"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
