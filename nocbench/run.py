#!/usr/bin/env python3
"""Builds and runs the steady-state NoC benchmark.

Run from anywhere inside a checkout of the repository:

  python3 nocbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload. The last line of standard output is the
      JSON result. --trace 1 also writes a Chrome trace-event file to
      .bench_build/nocbench-traces/NAME-seedN.json.

  python3 nocbench/run.py steady [--runs 10] [--seconds S] [--workload NAME ...]
      Two sets of runs (seeds 1..runs each). Prints each end-to-end
      metric's median and quartiles per workload and set, and whether
      the two sets agree within BENCHMARK.json's bounds.

  python3 nocbench/run.py controls
      Runs the negative controls: every output check must fail on a
      doctored result or on a scenario built to trip it.

  python3 nocbench/run.py digest --workload NAME --seed N [--shards 1]
      One round at the given shard count; prints its digest (--shards 1
      regenerates the 1-shard reference of that workload and seed).

The build goes to .bench_build/nocbench and uses the repository's own
CMake defaults (Release).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "nocbench"
TRACES = ROOT / ".bench_build" / "nocbench-traces"
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("nocbench: no library sources next to the benchmark; run it "
                 "inside a checkout of the repository")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)] + gen,
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("nocbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                        "nocbench", "nocbench_controls"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("nocbench: build failed")


def run_binary(argv, echo=True):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        r = subprocess.run([str(BUILD / "nocbench")] + argv, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("nocbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if echo:
        sys.stderr.write(r.stderr)
        sys.stdout.write(r.stdout)
    return r.returncode, r.stdout.splitlines()


def one_run(a):
    argv = ["--workload", a.workload, "--seed", str(a.seed), "--seconds",
            str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        argv += ["--trace-out",
                 str(TRACES / ("%s-seed%d.json" % (a.workload, a.seed)))]
    code, lines = run_binary(argv)
    if code == 0 and not metrics_match_spec(lines, a.trace):
        return 1
    return code


def metrics_match_spec(lines, trace):
    """True if the run printed exactly BENCHMARK.json's metrics (names and
    units) for its mode: end-to-end untraced, per-layer traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        got = {k: v["unit"] for k, v in json.loads(lines[-1])["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        got = None
    if got != want:
        sys.stderr.write("nocbench: printed metrics %s differ from "
                         "BENCHMARK.json's %s\n" % (got, want))
        return False
    return True


def steady(a):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = a.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seconds = a.seconds or spec["run_seconds"]
    ok = True
    for name in names:
        sets = []
        for set_no in (1, 2):
            runs = []
            for seed in range(1, a.runs + 1):
                code, lines = run_binary(
                    ["--workload", name, "--seed", str(seed), "--seconds",
                     str(seconds), "--trace", "0"], echo=False)
                result = json.loads(lines[-1]) \
                    if code == 0 and metrics_match_spec(lines, 0) else None
                digest = next((l.split()[-1] for l in lines
                               if l.startswith("workload ")), None)
                if result is None or not result["correct"]:
                    print("%s set %d seed %d: run failed or incorrect" %
                          (name, set_no, seed))
                    print("\n".join(lines[:-1]))
                    ok = False
                    continue
                runs.append((seed, digest, result))
            sets.append(runs)
        print("== %s" % name)
        digests = [{s: d for s, d, _ in runs} for runs in sets]
        if digests[0] != digests[1]:
            print("  digests differ between the two sets")
            ok = False
        shares = [sum(r["failed"] for _, _, r in runs) /
                  max(1, sum(r["attempted"] for _, _, r in runs))
                  for runs in sets]
        print("  failed share: set1 %.6g set2 %.6g" % tuple(shares))
        if shares[0] != shares[1]:
            ok = False
        if min(len(runs) for runs in sets) < 4:
            print("  too few good runs to compare")
            ok = False
            continue
        for m in metrics:
            meds = []
            line = "  %-18s" % m["name"]
            for runs in sets:
                vals = [r["metrics"][m["name"]]["value"] for _, _, r in runs]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                meds.append(q2)
                line += "  med %.6g q1 %.6g q3 %.6g spread %.4f" % (q2, q1, q3, spread)
                if spread > m["bound"]:
                    line += " [SPREAD>bound]"
                    ok = False
                if spread > m["bound"] / 3:
                    line += " [>bound/3]"
            worse = (meds[1] - meds[0]) / meds[0] if m["better"] == "lower" \
                else (meds[0] - meds[1]) / meds[0]
            line += "  drift %+.4f (bound %.2f)" % (worse, m["bound"])
            if worse > m["bound"]:
                line += " [DRIFT>bound]"
                ok = False
            print(line)
    print("steady: %s" % ("sets agree within bounds" if ok else "NOT steady"))
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("steady", "controls", "digest"):
        cmd = argv.pop(0)
    else:
        cmd = "run"
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append" if cmd == "steady" else "store")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--shards", type=int, default=1)
    a = p.parse_args(argv)
    build()
    if cmd == "steady":
        return steady(a)
    if cmd == "controls":
        return subprocess.run([str(BUILD / "nocbench_controls")]).returncode
    if not a.workload:
        p.error("--workload is required")
    if cmd == "digest":
        code, _ = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                              "--seconds", "1", "--trace", "0", "--rounds", "1",
                              "--shards", str(a.shards)])
        return code
    if a.seconds is None:
        p.error("--seconds is required")
    return one_run(a)


if __name__ == "__main__":
    sys.exit(main())
