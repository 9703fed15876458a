"""Steadiness check: two sets of runs of the same code, at different times.

    python3 perfbench/steady.py

Runs `run.py` on every workload once per seed, for a first set of RUNS
seeds and then, after the first set has finished, for a second set of
RUNS other seeds.  For each workload, end-to-end metric and set it prints the median,
the quartiles and the spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives them), and checks what
BENCHMARK.json promises: every spread within the metric's bound, the two
medians of each metric within the bound of each other (B/A - 1, either
way), and the same share of failed operations in both sets.  One traced run per
workload gives the tracing overhead (traced wall_s minus the untraced
wall_s of the same seed).  Everything is also written to perfbench/out/steady-<time>.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # runs per workload and set


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - start
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds, workloads = bench["run_seconds"], [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = {"A": range(1, RUNS + 1), "B": range(101, 101 + RUNS)}

    raw: dict = {}
    for set_name, seeds in sets.items():
        for seed in seeds:
            for workload in workloads:
                result = run_once(workload, seed, seconds, 0)
                raw.setdefault(workload, {}).setdefault(set_name, []).append(result)
                print(f"set {set_name} seed {seed} {workload}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                      + f" failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    traced = {w: run_once(w, 1, seconds, 1) for w in workloads}

    ok = True
    report: dict = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                                "platform": platform.platform()},
                    "seconds": seconds, "runs": RUNS, "workloads": {}}
    print(f"{'workload':12} {'metric':12} {'set':3} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        entry: dict = {"sets": {}}
        for set_name in sets:
            results = raw[workload][set_name]
            if not all(r["correct"] for r in results):
                ok = False
                print(f"{workload} set {set_name}: a run reported correct = false")
            entry["sets"][set_name] = {
                name: summary([r["metrics"][name]["value"] for r in results]) for name in bounds
            }
            entry["sets"][set_name]["failed_share"] = sorted(
                {r["failed"] / r["attempted"] for r in results}
            )
        for name, bound in bounds.items():
            a, b = entry["sets"]["A"][name], entry["sets"]["B"][name]
            for set_name, s in (("A", a), ("B", b)):
                flag = "" if s["spread"] <= bound else "  SPREAD > BOUND"
                ok &= not flag
                print(f"{workload:12} {name:12} {set_name:3} {s['median']:10.5g} {s['q1']:10.5g} "
                      f"{s['q3']:10.5g} {s['spread']:7.3f} {bound:6.2f}{flag}")
            drift = b["median"] / a["median"] - 1
            flag = "" if abs(drift) <= bound else "  DRIFT > BOUND"
            ok &= not flag
            print(f"{workload:12} {name:12} B/A {drift:+10.3f}{flag}")
        shares = entry["sets"]["A"]["failed_share"] + entry["sets"]["B"]["failed_share"]
        if len(set(shares)) != 1:
            ok = False
            print(f"{workload}: failed shares differ: {shares}")
        untraced = raw[workload]["A"][0]["metrics"]["wall_s"]["value"]  # seed 1, as traced
        trace_file = os.path.join(HERE, "out", f"trace-{workload}-seed1.json")
        with open(trace_file, encoding="utf-8") as fh:
            traced_wall = json.load(fh)["traced_wall_s"]
        entry["tracing_overhead_s"] = traced_wall - untraced
        entry["run_elapsed_s"] = statistics.median(
            r["elapsed_s"] for set_name in sets for r in raw[workload][set_name]
        )
        entry["per_layer"] = {k: v["value"] for k, v in traced[workload]["metrics"].items()}
        print(f"{workload:12} failed share {shares[0]:.4f}; tracing overhead "
              f"{traced_wall - untraced:+.3f} s on wall_s {untraced:.3f} s")
        report["workloads"][workload] = entry
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"{'steady' if ok else 'NOT steady'}; details in {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
