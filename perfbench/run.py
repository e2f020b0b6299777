#!/usr/bin/env python3
"""Build and run the repository benchmark, or summarize recorded runs.

Run from the repository root:

    python3 perfbench/run.py --workload edgecloud --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --summarize

The benchmark is a Go module of its own (perfbench/go.mod) that uses
the repository's packages through a local replace directive. It is
built from source into .bench_build/ with every Go cache and temporary
directory inside the checkout. All arguments except --summarize are
passed to the benchmark binary; its last output line is the result.
--workload all runs the four workloads one after another.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench-bin")
RESULTS = os.path.join(BUILD, "perfbench", "results.jsonl")
WORKLOADS = ["edgecloud", "bigtables", "flowchurn", "reconfig"]


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
        # The go command keeps its env file and telemetry under the user
        # config directory; point that inside the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
    })
    # Memory the Go runtime hands back to the kernel is released with
    # MADV_FREE rather than MADV_DONTNEED, so the pages stay mapped
    # while the machine has memory to spare and a later allocation
    # reuses them without a page fault. With MADV_DONTNEED the large
    # applies spent half their time faulting released pages back in,
    # and on a virtual machine a fault's price moved with the host's
    # load by up to 70% between runs.
    env["GODEBUG"] = ",".join(filter(None, [os.environ.get("GODEBUG", ""), "madvdontneed=0"]))
    return env


def build():
    """Compile the benchmark; the Go build cache makes reruns cheap."""
    os.makedirs(BUILD, exist_ok=True)
    cmd = ["go", "build", "-o", BINARY, "."]
    proc = subprocess.run(cmd, cwd=HERE, env=go_env(), stdout=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def summarize():
    """Median and quartiles of every metric over the recorded runs, per
    workload and run kind, with the host record of each group."""
    if not os.path.exists(RESULTS):
        sys.exit("perfbench: no recorded runs in " + RESULTS)
    groups = {}
    with open(RESULTS) as fh:
        for line in fh:
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"], json.dumps(rec["host"], sort_keys=True))
            groups.setdefault(key, []).append(rec)
    for (workload, trace, host), recs in sorted(groups.items()):
        print("%s trace=%s runs=%d host=%s" % (workload, int(trace), len(recs), host))
        print("  %-34s %14s %14s %14s %10s" % ("metric", "median", "q1", "q3", "iqr/med"))
        fails = [r["fail_ratio"] for r in recs]
        print("  %-34s %14.6g" % ("fail_ratio (max)", max(fails)))
        names = sorted({n for r in recs for n in r["metrics"]})
        for name in names:
            vals = [r["metrics"][name]["value"] for r in recs if name in r["metrics"]]
            unit = recs[0]["metrics"].get(name, {}).get("unit", "")
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            print("  %-34s %14.6g %14.6g %14.6g %10.4f %s" % (name, med, q1, q3, spread, unit))


def main():
    args = sys.argv[1:]
    if "--summarize" in args:
        summarize()
        return
    build()
    runs = [args]
    if "--workload" in args:
        i = args.index("--workload") + 1
        if i < len(args) and args[i] == "all":
            runs = [args[:i] + [w] + args[i + 1:] for w in WORKLOADS]
    code = 0
    for run_args in runs:
        proc = subprocess.run([BINARY] + run_args, cwd=ROOT, env=go_env())
        code = code or proc.returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
