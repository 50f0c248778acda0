#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload store_write --seed 1 --seconds 12 --trace 0

Builds perfbench/perfbench.exe and bin/incll_server.exe from the
checkout's sources with dune, runs one workload, and passes its output
through. The last line of stdout is one JSON object with the keys
"correct", "attempted", "failed" and "metrics"; with --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. Every file the run writes stays inside the checkout:
dune's _build/ and the reports, traces and sockets under .perfbench/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def stop_group(pgid):
    """SIGKILL whatever is left of the benchmark's process group (a server
    whose client died) and wait until the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sources = ("dune-project", "lib", "bin/incll_server.ml", "perfbench/dune")
    missing = [p for p in sources if not os.path.exists(p)]
    if missing:
        return fail("not at the root of a checkout (missing %s)" % ", ".join(missing), 2)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/perfbench.exe", "bin/incll_server.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e, 3)
    if build.returncode != 0:
        return fail("build failed", 3)

    cmd = [
        "_build/default/perfbench/perfbench.exe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", "_build/default/bin/incll_server.exe",
        "--out-dir", ".perfbench",
    ]
    # Own process group, so a timeout also stops the server it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        return fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    stop_group(proc.pid)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        return fail("benchmark exited with %d" % proc.returncode, 5)
    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        sys.stderr.write(out)
        return fail("last line is not a result object", 6)
    want = expected_metrics(args.trace == 1)
    if names != want:
        sys.stderr.write(out)
        return fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
                    % (sorted(want - names), sorted(names - want)), 7)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
