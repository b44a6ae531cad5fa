#!/usr/bin/env python3
"""Validate a ppg checkpoint file against the v1 schema (DESIGN.md §9).

    check_checkpoint.py CHECKPOINT_JSON [...]

Checks, per file:
  - the outer envelope: schema_version == 1, keys exactly
    {schema_version, spec, engine};
  - the spec header: protocol {name, params}, a nonempty initial census of
    nonnegative integers summing to at least 2 and below 2^64, a known
    sampling discipline;
  - the engine snapshot: state_version == 1, a known engine kind ("batched"
    and "agent" are rejected: the first was folded into multibatch, the
    second retired for the exact census chain), the shared fields (interactions, the 4-word xoshiro256 state, not all
    zero), and the kind-specific payload — including census consistency
    (counts sum to the spec's population size) and the multibatch round
    relations (the untouched pool fits in the census state by state, a
    residual carry only while some agent is touched, and 2 * pending_free
    at most the untouched pool).

This is the only checkpoint shape: one engine's snapshot under its spec
header. A replicated run is checkpointed as one such file per replica, so
any other envelope (a multi-replica document included) is rejected.

Exits 1 with a pointed message on the first violation per file. This is the
CI complement to the C++ strict parser: it proves the on-disk format is
what DESIGN.md promises, independent of the code that wrote it.
"""

import json
import sys

SCHEMA_VERSION = 1
STATE_VERSION = 1
SAMPLINGS = {"distinct", "with_replacement"}
ENGINE_COMMON = {"state_version", "engine", "interactions", "rng"}
ENGINE_KEYS = {
    "census": ENGINE_COMMON | {"counts"},
    "multibatch": ENGINE_COMMON | {"counts", "untouched", "pending_free"},
}


class Violation(Exception):
    pass


def fail(msg):
    raise Violation(msg)


def require_keys(doc, keys, where):
    if not isinstance(doc, dict):
        fail(f"{where}: expected an object")
    missing = set(keys) - doc.keys()
    extra = doc.keys() - set(keys)
    if missing:
        fail(f"{where}: missing key(s) {sorted(missing)}")
    if extra:
        fail(f"{where}: unknown key(s) {sorted(extra)}")


def require_uint(doc, key, where):
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        fail(f"{where}: '{key}' must be a nonnegative integer")
    return value


def require_uint_array(doc, key, where, length=None):
    value = doc.get(key)
    if not isinstance(value, list) or any(
        not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in value
    ):
        fail(f"{where}: '{key}' must be an array of nonnegative integers")
    if length is not None and len(value) != length:
        fail(f"{where}: '{key}' must have {length} entries, has {len(value)}")
    return value


def check_spec(spec):
    where = "spec"
    require_keys(spec, {"protocol", "initial_counts", "sampling"}, where)
    require_keys(spec["protocol"], {"name", "params"}, "spec.protocol")
    if not isinstance(spec["protocol"]["name"], str):
        fail("spec.protocol: 'name' must be a string")
    if not isinstance(spec["protocol"]["params"], dict):
        fail("spec.protocol: 'params' must be an object")
    counts = require_uint_array(spec, "initial_counts", where)
    if not counts or sum(counts) < 2:
        fail("spec: initial_counts must describe at least 2 agents")
    if sum(counts) >= 1 << 64:
        fail("spec: initial_counts sum past 2^64 - 1 (the C++ census is "
             "64-bit)")
    if spec["sampling"] not in SAMPLINGS:
        fail(f"spec: unknown sampling '{spec['sampling']}'")
    return sum(counts), len(counts)


def check_engine(snapshot, population, width):
    kind = snapshot.get("engine") if isinstance(snapshot, dict) else None
    if kind == "batched":
        fail("engine: engine kind 'batched' was folded into 'multibatch'; "
             "a batched checkpoint cannot be restored")
    if kind == "agent":
        fail("engine: engine kind 'agent' was retired: agents are anonymous, "
             "so the census is the whole state; an agent checkpoint cannot "
             "be restored")
    if kind not in ENGINE_KEYS:
        fail(f"engine: unknown engine kind {kind!r}")
    where = f"engine[{kind}]"
    require_keys(snapshot, ENGINE_KEYS[kind], where)
    if require_uint(snapshot, "state_version", where) != STATE_VERSION:
        fail(f"{where}: unsupported state_version")
    require_uint(snapshot, "interactions", where)
    rng = require_uint_array(snapshot, "rng", where, length=4)
    if all(w == 0 for w in rng):
        fail(f"{where}: all-zero rng state (xoshiro fixed point; corrupt)")
    if any(w >= 1 << 64 for w in rng):
        fail(f"{where}: rng word out of 64-bit range")

    counts = require_uint_array(snapshot, "counts", where, length=width)
    if sum(counts) != population:
        fail(f"{where}: counts sum to {sum(counts)}, spec has n={population}")
    if kind == "multibatch":
        untouched = require_uint_array(snapshot, "untouched", where, width)
        for s in range(width):
            if untouched[s] > counts[s]:
                fail(f"{where}: untouched pool exceeds the census at state "
                     f"{s}")
        pending = require_uint(snapshot, "pending_free", where)
        if pending and sum(untouched) == population:
            fail(f"{where}: pending_free > 0 with no agent touched")
        if 2 * pending > sum(untouched):
            fail(f"{where}: pending pairs exceed the untouched pool")


def check_file(path):
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        fail("checkpoint: expected a JSON object")
    if require_uint(doc, "schema_version", "checkpoint") != SCHEMA_VERSION:
        fail("checkpoint: unsupported schema_version")
    require_keys(doc, {"schema_version", "spec", "engine"}, "checkpoint")
    population, width = check_spec(doc["spec"])
    check_engine(doc["engine"], population, width)
    return (
        f"{doc['engine']['engine']} engine at "
        f"{doc['engine']['interactions']} interactions"
    )


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip())
        return 2
    status = 0
    for path in argv[1:]:
        try:
            summary = check_file(path)
        except Violation as violation:
            print(f"FAIL {path}: {violation}")
            status = 1
        except (OSError, json.JSONDecodeError) as error:
            print(f"FAIL {path}: {error}")
            status = 1
        else:
            print(f"OK   {path}: valid v{SCHEMA_VERSION} checkpoint "
                  f"({summary})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
