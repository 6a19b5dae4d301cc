#!/usr/bin/env python3
"""Entry point of the serving benchmark (see perfbench/README.md).

Builds the benchmark binary from this checkout's sources, runs one workload
and prints its result; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload huge_docs --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --record-expected 0 127

--trace 1 runs the traced per-layer pass instead and writes its spans to
.bench_build/spans/<workload>-seed<seed>.jsonl.  --record-expected
re-records perfbench/expected_f1.json, the entity/relation F1 every seed's
quality set must reproduce.  Everything the benchmark builds or writes goes
under .bench_build/ at the root of the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
EXPECTED = os.path.join(HERE, "expected_f1.json")
WORKLOADS = ("huge_docs", "chat_sessions", "hostile_live")
# A run measures --seconds plus roughly 15 s of untimed preparation.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no tenet sources at %s/src; run from a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        # Build logs go to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_binary(args, timeout=RUN_TIMEOUT_S):
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % timeout)
    return done.returncode, done.stdout


def load_expected():
    if not os.path.isfile(EXPECTED):
        return {}
    with open(EXPECTED) as f:
        return json.load(f)


def record(first, last):
    expected = load_expected()
    for workload in WORKLOADS:
        work = os.path.join(OUT, "work", "record-" + workload)
        code, out = run_binary(["--workload", workload, "--record-seeds",
                                "%d-%d" % (first, last), "--work-dir", work],
                               timeout=None)
        shutil.rmtree(work, ignore_errors=True)
        if code != 0:
            fail("recording %s failed" % workload)
        expected.setdefault(workload, {}).update(
            json.loads(out.strip().splitlines()[-1]))
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", nargs=2, type=int,
                        metavar=("FIRST", "LAST"))
    args = parser.parse_args()
    if args.record_expected is None and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.record_expected is not None:
        record(*args.record_expected)
        return 0

    work = os.path.join(OUT, "work", "%s-%d" % (args.workload, os.getpid()))
    command = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
    if args.trace:
        spans = os.path.join(OUT, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    recorded = load_expected().get(args.workload, {}).get(str(args.seed))
    if recorded is not None:
        command += ["--expect-f1", "%r,%r" % tuple(recorded)]
    try:
        code, out = run_binary(command)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
