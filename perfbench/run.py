#!/usr/bin/env python3
"""Run one workload of the lowpart benchmark and print its result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 30 --trace 0

builds the harness (perfbench/main.ml) and the `lowpart` binary with dune
into .bench_build/, runs the workload, saves the full record (metrics,
workload identity, host diagnostics) under .bench_out/ and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. Workloads: paper_cold, corpus_scale, serve_warm (see
perfbench/NOTES.md).

Two more modes:

    python3 perfbench/run.py --steadiness [--seconds S]
        runs each workload in two sets of five seeds and prints, per
        end-to-end metric, each set's median and quartiles, the spread,
        the gap between the sets and the metric's bound.

    python3 perfbench/run.py --compare A.json B.json
        compares two saved records; refuses when their identities differ.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
HARNESS = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
LOWPART = os.path.join(BUILD_DIR, "default", "bin", "lowpart.exe")
WORKLOADS = ["paper_cold", "corpus_scale", "serve_warm"]
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
RUNS_PER_SET = 5


def harness_timeout(seconds):
    """The harness's window cap (keep_going in main.ml), plus time for
    the set-ups, the layer probe and the calibration loops."""
    return max(4 * seconds, 100) + 50


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "./perfbench/main.exe", "./bin/lowpart.exe"]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850)
    if proc.returncode != 0:
        raise SystemExit("perfbench: build failed")


def stop_group(proc):
    """Kill whatever is left of the harness's process group, reap the
    harness, and wait until no member of the group remains."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_harness(args):
    """Run the harness in its own process group, so that the serve
    daemon it spawns is stopped with it whatever happens."""
    cmd = [HARNESS, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--lowpart", LOWPART]
    if args.corpus_seeds:
        cmd += ["--corpus-seeds", args.corpus_seeds]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=harness_timeout(args.seconds))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        stop_group(proc)
    if proc.returncode != 0 or not out:
        raise SystemExit(f"perfbench: harness failed ({proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def run_once(args):
    os.makedirs(OUT_DIR, exist_ok=True)
    build()
    record = run_harness(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    log(f"perfbench: record {path}; host {record['host']}")
    for err in record["errors"]:
        log(f"perfbench: error: {err}")
    print(json.dumps({k: record[k] for k in RESULT_KEYS}))


def quartiles(values):
    """(q1, median, q3), as the steadiness check takes them."""
    return tuple(statistics.quantiles(values, n=4))


def steadiness(args):
    """Two sets of runs per workload, interleaved so that host drift
    falls on both sets alike."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for w in WORKLOADS:
        sets = ([], [])
        for i in range(RUNS_PER_SET):
            for s in (0, 1):
                seed = 1 + i + s * RUNS_PER_SET
                cmd = [sys.executable, __file__, "--workload", w,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", "0"]
                t = time.time()
                out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                     check=True).stdout
                result = json.loads(out.strip().splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"perfbench: {w} seed {seed} failed")
                sets[s].append(result["metrics"])
                log(f"perfbench: {w} seed {seed} done in {time.time() - t:.1f}s")
        print(f"\n{w}: two sets of {RUNS_PER_SET} runs")
        print(f"{'metric':22} {'set A median [q1, q3]':>30} "
              f"{'set B median [q1, q3]':>30} {'spread':>7} {'gap':>7} "
              f"{'bound':>6}")
        rows = {}
        for m in bounds:
            a = [r[m]["value"] for r in sets[0]]
            b = [r[m]["value"] for r in sets[1]]
            qa, qb, qall = quartiles(a), quartiles(b), quartiles(a + b)
            spread = (qall[2] - qall[0]) / qall[1] if qall[1] else 0.0
            gap = abs(qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            rows[m] = {"a": qa, "b": qb, "spread": spread, "gap": gap,
                       "bound": bounds[m]}
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
            print(f"{m:22} {fmt(qa):>30} {fmt(qb):>30} {spread:7.3f} "
                  f"{gap:7.3f} {bounds[m]:6.2f}")
        report[w] = rows
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1)


def compare(paths):
    a, b = (json.load(open(p)) for p in paths)
    if a["identity"] != b["identity"]:
        keys = sorted(k for k in set(a["identity"]) | set(b["identity"])
                      if a["identity"].get(k) != b["identity"].get(k))
        print(f"perfbench: refusing to compare: identities differ in "
              f"{', '.join(keys)}")
        raise SystemExit(3)
    if a["trace"] != b["trace"]:
        print("perfbench: refusing to compare a traced with an untraced run")
        raise SystemExit(3)
    for m, va in a["metrics"].items():
        x, y = va["value"], b["metrics"][m]["value"]
        delta = f"{100 * (y - x) / x:+.1f}%" if x else "n/a"
        print(f"{m:28} {x:12.5g} {y:12.5g} {delta:>8} {va['unit']}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corpus-seeds",
                   help="generator seeds of the corpus_scale entries, "
                        "comma-separated (default: the tracked seeds)")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--compare", nargs=2, metavar="RECORD")
    args = p.parse_args()
    if args.compare:
        compare(args.compare)
    elif args.steadiness:
        steadiness(args)
    elif args.workload:
        run_once(args)
    else:
        p.error("one of --workload, --steadiness, --compare is required")


if __name__ == "__main__":
    main()
