#!/usr/bin/env python3
"""Entry point of the xseq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/bench.exe with dune from the checkout it sits in, then
runs one workload in one process.  The last line of standard output is
one JSON object {correct, attempted, failed, metrics}.  --selftest shows
that the answer check fires on a corrupted answer and that the
single-client counts of serve-paged repeat exactly under one seed.
See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["query-mem", "serve-paged", "ingest-mixed"]

# A run ends within 180 s; the build is allowed the first-run budget.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Counts a single client makes exactly the same under one seed.
DETERMINISTIC = [
    "match.probes_per_query",
    "store.page_reads_per_query",
    "protocol.bytes_in_per_req",
    "protocol.bytes_out_per_req",
    "store.snapshot_bytes",
    "server.probes_per_query",
    "server.page_reads_per_query",
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib", "xseq"))):
        return fail("the xseq sources (dune-project, lib/) are not beside "
                    "perfbench/; run from a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune is not on PATH")
    # The shared dune cache lives outside the checkout; keep every write
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ROOT, "--display", "quiet",
             "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    return 0 if r.returncode == 0 else fail("build failed")


def bench(args, capture=False):
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE if capture else None,
                           text=True)
    except subprocess.TimeoutExpired:
        return (fail("run timed out"), None)
    return (r.returncode, r.stdout)


def selftest():
    code, _ = bench(["--selftest"])
    if code != 0:
        return fail("oracle self-test failed")
    runs = []
    for _ in range(2):
        code, out = bench(["--workload", "serve-paged", "--seed", "7",
                           "--seconds", "1", "--trace", "1"], capture=True)
        if code != 0:
            return fail("serve-paged traced run failed")
        runs.append(json.loads(out.strip().splitlines()[-1])["metrics"])
    bad = 0
    for name in DETERMINISTIC:
        a, b = runs[0][name]["value"], runs[1][name]["value"]
        same = a == b
        bad += not same
        print("determinism %-30s %s %r %r" % (name, "ok  " if same else "DIFF", a, b))
    if bad:
        return fail("%d single-client counts differ between two runs" % bad)
    print("selftest: ok")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    # The window the bounds in BENCHMARK.json were set on (run_seconds).
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    code = build()
    if code != 0:
        return code
    if a.selftest:
        return selftest()
    if a.workload is None:
        return fail("--workload is required")
    code, _ = bench(["--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", repr(a.seconds), "--trace", str(a.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
