"""Run one workload of the resip benchmark and print its metrics.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each round is a fresh interpreter
(worker.py) that sets up, runs one generated input and exits, as one
`resip` call does; rounds repeat until --seconds have passed (at least
MIN_ROUNDS).  Round r of seed s always gets the same input.  Every
operation is checked against the oracles in this directory.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones: setup_s, wall_s, op_ms_p50 and peak_rss_mb, each a median
over the run.  With --trace 1 the rounds run under tracing.py and the
metrics are the per-layer ones; the full trace is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
MIN_ROUNDS = 3
MIN_SETUPS = 9  # set-up samples per run; extra set-up-only workers make up the count
ROUND_TIMEOUT_S = 120
# The speed of a shared machine drifts with the load other tenants put on
# its cores: on a 2-vCPU VM a fixed pure-Python loop ran in either about
# 5.5-7.5 ms or about 8.5-11.5 ms, switching within seconds, and every
# timing of the program moves with it (CPU time as much as wall time).
# Each worker times worker.calibration_loop right after set-up and after
# its round, and the timings are reported scaled to a machine on which that
# loop takes REFERENCE_CALIBRATION_S.  A round's wall time, operation times
# and span times are multiplied by REFERENCE_CALIBRATION_S / (the mean
# calibration time of that round's worker), so each is scaled by the speed
# measured around it; set-up times, too short to bracket, by the run's mean
# calibration time.  The mean, not the median: single samples fall into one
# of the two speeds, and the mean follows the share of time spent in each.
# Over eight 6-round obstruction runs the spread of op_ms_p50 was 0.33 raw,
# 0.13 scaled by the run's mean and 0.05 scaled round by round.
REFERENCE_CALIBRATION_S = 0.010

# per-layer metrics summed over spans or read from outputs; every other
# per-layer metric is "<span name>.<calls|ms>", read from one span of the trace
DERIVED_METRICS = (
    "setup.import_sympy_ms",
    "setup.import_jsonschema_ms",
    "setup.import_resip_ms",
    "sympy.calls",
    "sympy.ms",
    "classify.examined_subspaces",
    "witness.substitution_rounds",
)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_worker(workload: str, job: dict | None, traced: bool) -> tuple[dict, float, str]:
    """Run one round in a fresh interpreter; returns its output, the
    monotonic time it was started at and its standard error."""
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "worker.py"), workload, "1" if traced else "0"]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, input=json.dumps(job or {}), capture_output=True, text=True,
        timeout=ROUND_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout), spawned, proc.stderr


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import time of sympy and jsonschema, and the self time of
    resip's own modules, in ms, from `python -X importtime` output."""
    sympy = jsonschema = resip = 0.0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)", line)
        if not m:
            continue
        self_us, cumulative_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "sympy":
            sympy = cumulative_us / 1000.0
        elif name == "jsonschema":
            jsonschema = cumulative_us / 1000.0
        elif name == "resip" or name.startswith("resip."):
            resip += self_us / 1000.0
    return {
        "setup.import_sympy_ms": sympy,
        "setup.import_jsonschema_ms": jsonschema,
        "setup.import_resip_ms": resip,
    }


def layer_values(workload: str, names, output: dict, stderr: str) -> dict[str, float]:
    trace = output["trace"]
    values = {}
    for name in names:
        if name not in DERIVED_METRICS:
            span, field = name.rsplit(".", 1)
            values[name] = trace.get(span, {}).get(field, 0)
    sympy = [v for k, v in trace.items() if k.startswith("sympy.")]
    values["sympy.calls"] = sum(v["calls"] for v in sympy)
    values["sympy.ms"] = sum(v["ms"] for v in sympy)
    examined = rounds = 0
    if workload != "pgroup":
        for entry in json.loads(output["report"])["entries"]:
            result = entry.get("result") or {}
            for verdict in result.get("verdicts", []):
                examined += (verdict.get("obstruction") or {}).get("examined_subspaces", 0)
            cert = result.get("certificate") or {}
            if cert.get("kind") == "magnus":
                rounds += cert["data"]["induced_order"]
    values["classify.examined_subspaces"] = examined
    values["witness.substitution_rounds"] = rounds
    values.update(import_times(stderr))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = args.trace == 1
    units = metric_units("per_layer" if traced else "end_to_end")

    if not os.path.isfile(os.path.join(ROOT, "src", "resip", "cli.py")):
        print("no resip sources under src/resip; run from a checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src", "resip"), quiet=1)

    deadline = time.monotonic() + args.seconds
    attempted = failed = 0
    wrong: list[str] = []
    setups, walls, op_ms, rss, calibration = [], [], [], [], []
    raw_walls, raw_op_ms = [], []
    layers: list[dict] = []
    traces: list[dict] = []
    r = 0
    while r < MIN_ROUNDS or time.monotonic() < deadline:
        job, expect = workloads.build(args.workload, args.seed, r)
        output, spawned, stderr = run_worker(args.workload, job, traced)
        outcomes = checks.check(args.workload, job, expect, output)
        attempted += len(outcomes)
        failed += sum(1 for v in outcomes.values() if v == checks.FAILED)
        wrong += [f"round {r} {k}: {v}" for k, v in outcomes.items() if v not in (checks.OK, checks.FAILED)]
        setups.append(output["ready"] - spawned)
        round_scale = REFERENCE_CALIBRATION_S / statistics.fmean(output["calibration_s"])
        raw_walls.append(output["wall_s"])
        raw_op_ms.extend(output["op_ms"])
        walls.append(output["wall_s"] * round_scale)
        op_ms.extend(ms * round_scale for ms in output["op_ms"])
        rss.append(output["peak_rss_mb"])
        calibration.extend(output["calibration_s"])
        if traced:
            values = layer_values(args.workload, units, output, stderr)
            layers.append({name: value * (round_scale if units[name] == "ms" else 1)
                           for name, value in values.items()})
            traces.append(output["trace"])
        r += 1
    while not traced and len(setups) < MIN_SETUPS:
        output, spawned, _ = run_worker(args.workload, None, False)
        setups.append(output["ready"] - spawned)
        calibration.extend(output["calibration_s"])
    scale = REFERENCE_CALIBRATION_S / statistics.fmean(calibration)

    for line in wrong[:20]:
        print("WRONG", line, file=sys.stderr)
    if traced:
        metrics = {name: {"value": statistics.median(v[name] for v in layers), "unit": unit}
                   for name, unit in units.items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": r,
                       "traced_wall_s": statistics.median(walls), "per_round": layers,
                       "spans": traces}, fh, indent=1)
    else:
        measured = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(raw_walls),
            "op_ms_p50": statistics.median(raw_op_ms),
        }
        values = {
            "setup_s": statistics.median(setups) * scale,
            "wall_s": statistics.median(walls),
            "op_ms_p50": statistics.median(op_ms),
            "peak_rss_mb": statistics.median(rss),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        for name, value in measured.items():
            print(f"measured {name} = {value:.6g} {units[name]} (before scaling)", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"rounds {r}, operations {attempted}, failed {failed}, wrong {len(wrong)}; "
          f"set-up timings scaled by {scale:.4f} (mean calibration {statistics.fmean(calibration) * 1000:.3f} ms)",
          file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
