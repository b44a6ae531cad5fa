#!/usr/bin/env python3
"""Fail when a libppg.a function that no shipped program reaches is not
in the committed allowlist, or when an allowlist entry has gone stale.

    check_reachability.py

The scan:
  1. Build the repository in Release with tests off, and perfbench/ (which
     builds the library again, one directory up) with the same flags:
         CMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections"
         CMAKE_CXX_FLAGS_RELEASE="-O1 -fno-inline -DNDEBUG"
         CMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
     -fno-inline keeps every function out of line, so a function that is
     called only from inside its own file still shows up as reached;
     --gc-sections drops every function section no program references.
  2. Take libppg.a's strong text symbols (`nm -C --defined-only`, type T).
  3. Remove every symbol defined in a production binary: ppg-bench,
     ppg-serve, each example and perfbench.

What is left is the library code only tests use. Each such function must
have a line in scripts/reachability_allowlist.txt:

    <demangled symbol> | <kind> | <reason>

where kind is one of oracle, paper, planned, debug (see the file's header)
and reason names the test, the PAPER.md result or the ROADMAP item that
keeps it. The check fails (exit 1) on an unreached function with no line,
on a line whose function is now reached or no longer exists, and on a
malformed line. perfbench/ is read, never written: both builds live in a
temporary directory, removed afterwards, and use one job per CPU this
process may run on.
"""

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "scripts", "reachability_allowlist.txt")
KINDS = ("oracle", "paper", "planned", "debug")
SCAN_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Release",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_CXX_FLAGS_RELEASE=-O1 -fno-inline -DNDEBUG",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def build(source, build_dir, extra):
    subprocess.run(["cmake", "-S", source, "-B", build_dir, *SCAN_FLAGS,
                    *extra], check=True, stdout=subprocess.DEVNULL)
    jobs = len(os.sched_getaffinity(0))
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs)],
                   check=True, stdout=subprocess.DEVNULL)


def nm_lines(path):
    return subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                          capture_output=True, text=True).stdout.splitlines()


def library_functions(archive):
    """Maps each strong text symbol of the archive to its object file, as
    (position in the archive, member name): two directories may each hold a
    member of the same name."""
    functions = {}
    member = None
    for line in nm_lines(archive):
        if line.endswith(".o:"):
            member = (0 if member is None else member[0] + 1, line[:-1])
            continue
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] == "T":
            functions[parts[2]] = member
    return functions


def defined_symbols(binary):
    return {parts[2] for parts in (line.split(" ", 2)
                                   for line in nm_lines(binary))
            if len(parts) == 3}


def production_binaries(main_dir, perfbench_dir):
    binaries = [os.path.join(main_dir, "bench", "ppg-bench"),
                os.path.join(main_dir, "serve", "ppg-serve"),
                os.path.join(perfbench_dir, "perfbench")]
    examples = os.path.join(main_dir, "examples")
    binaries += sorted(os.path.join(examples, name)
                       for name in os.listdir(examples)
                       if os.access(os.path.join(examples, name), os.X_OK)
                       and os.path.isfile(os.path.join(examples, name)))
    return binaries


def read_allowlist(path):
    """Returns ({symbol: (kind, reason)}, [errors])."""
    entries, errors = {}, []
    with open(path) as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [part.strip() for part in line.rsplit(" | ", 2)]
            if len(parts) != 3 or not all(parts):
                errors.append(f"line {number}: want 'symbol | kind | reason'")
                continue
            symbol, kind, reason = parts
            if kind not in KINDS:
                errors.append(f"line {number}: kind '{kind}' is not one of "
                              f"{', '.join(KINDS)}")
            if symbol in entries:
                errors.append(f"line {number}: '{symbol}' is listed twice")
            entries[symbol] = (kind, reason)
    return entries, errors


def main():
    allowed, errors = read_allowlist(ALLOWLIST)
    with tempfile.TemporaryDirectory(prefix="ppg-reachability-") as work:
        main_dir = os.path.join(work, "main")
        perfbench_dir = os.path.join(work, "perfbench")
        build(ROOT, main_dir, ["-DPPG_BUILD_TESTS=OFF"])
        build(os.path.join(ROOT, "perfbench"), perfbench_dir, [])
        functions = library_functions(os.path.join(main_dir, "libppg.a"))
        reached = set()
        binaries = production_binaries(main_dir, perfbench_dir)
        for binary in binaries:
            reached |= defined_symbols(binary)

    unreached = {symbol: obj for symbol, obj in functions.items()
                 if symbol not in reached}
    for symbol in sorted(unreached):
        if symbol not in allowed:
            errors.append(f"unreached and not allowlisted: {symbol} "
                          f"({unreached[symbol][1]})")
    for symbol in sorted(allowed):
        if symbol in reached:
            errors.append(f"allowlisted but reached: {symbol}")
        elif symbol not in functions:
            errors.append(f"allowlisted but not in libppg.a: {symbol}")

    objects = set(unreached.values())
    print(f"{len(functions)} out-of-line functions in libppg.a; "
          f"{len(binaries)} production binaries reach "
          f"{len(functions) - len(unreached)}; {len(unreached)} unreached "
          f"in {len(objects)} object files; {len(allowed)} allowlisted")
    for error in errors:
        print("FAIL:", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
