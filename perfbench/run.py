#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark (perfbench/bench.exe) is built with dune into .bench_build,
without dune's shared cache, so the build writes only inside the checkout.
Build output goes to stderr; the benchmark's report goes to stdout, and
its last line is the JSON result.

With --trace 0 the run is cut into PARTS processes, one after another,
each measuring S / PARTS seconds on the same inputs. Each metric is the
median over the parts, so one process that lands in a slow state (a
neighbour's burst, an unlucky placement of its domains) moves the figure
little. `attempted` and `failed` are summed over the parts. With
--trace 1 one process measures all S seconds.

The result's metric names are checked against BENCHMARK.json (end_to_end
with --trace 0, per_layer with --trace 1). Exits non-zero, without a
result, when the checkout cannot be built or the output does not match.
"""

import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
TIMEOUT_S = 170
PARTS = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, capture):
    try:
        return subprocess.run(
            cmd,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    except FileNotFoundError as e:
        fail(str(e))


def option(args, key):
    return args[args.index(key) + 1] if key in args else None


def with_option(args, key, value):
    i = args.index(key)
    return args[: i + 1] + [value] + args[i + 2 :]


def merge(results):
    """One result from the parts': medians of the metrics, summed counts."""
    names = results[0]["metrics"]
    if any(r["metrics"].keys() != names.keys() for r in results):
        fail("the parts printed different metrics")
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {
                "value": statistics.median(r["metrics"][name]["value"] for r in results),
                "unit": m["unit"],
            }
            for name, m in names.items()
        },
    }


def main():
    args = sys.argv[1:]
    trace = option(args, "--trace")
    seconds = option(args, "--seconds")
    if trace not in ("0", "1") or seconds is None or not seconds.isdigit() or int(seconds) < 1:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}

    build = run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled",
         "./perfbench/bench.exe"],
        timeout=900,
        capture=False,
    )
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    parts = 1 if trace == "1" else PARTS
    part_args = with_option(args, "--seconds", repr(int(seconds) / parts))
    deadline = time.monotonic() + TIMEOUT_S
    results = []
    for _ in range(parts):
        bench = run([exe] + part_args, timeout=deadline - time.monotonic(), capture=True)
        lines = bench.stdout.splitlines()
        if not lines:
            fail(f"no output (exit {bench.returncode})")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            fail(f"last line is not a JSON result (exit {bench.returncode})")
        if bench.returncode not in (0, 1) or (bench.returncode == 0) != result["correct"]:
            fail(f"exit {bench.returncode} does not match the result")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            fail("metric names or units differ from BENCHMARK.json")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results.append(result)

    result = merge(results)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
