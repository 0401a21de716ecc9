#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 15 --trace 0

The program is built with dune into .bench_build/, then run with the
same arguments.  Its standard output is passed through: every metric
by name with its unit, and as the last line one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is the
program's: 0 when every answer matched the reference, 1 on a mismatch.
Any other failure (not a checkout of this repository, a failed build,
a time-out) exits with another non-zero code and prints no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ("ladder", "bmc-deep", "tables", "serve")
# one run must end within 180 s; leave room for the build check
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(2, "run from the repository root (missing %s)" % needed)

    # the program's behaviour must not depend on the caller's DIAMBOUND_*
    # settings (backend, chaos seed, tracing, logging, ...)
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIAMBOUND_")}
    # nor on the caller's OCaml runtime settings: the program runs with
    # the runtime's defaults, as its users run it
    env.pop("OCAMLRUNPARAM", None)
    # dune from PATH, else through opam's environment
    dune = ["dune"] if shutil.which("dune") or not shutil.which("opam") \
        else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                "./perfbench/perfbench.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(build.stdout)
        fail(3, "build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising
        fail(4, "run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines(keepends=True)
    problem = None
    if run.returncode not in (0, 1):
        problem = "program failed with exit code %d" % run.returncode
    else:
        problem = metrics_problem(lines[-1] if lines else "", args.trace)
    if problem:
        # no result line on a failed run
        sys.stdout.write("".join(lines[:-1]))
        fail(5, problem)
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


def metrics_problem(result_line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this mode: end_to_end untraced, per_layer traced."""
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    try:
        got = set(json.loads(result_line)["metrics"])
    except (ValueError, KeyError, TypeError):
        return "no result line"
    want = {m["name"] for m in declared}
    if got != want:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(want - got), sorted(got - want))
    return None


if __name__ == "__main__":
    main()
