"""One benchmark round in a fresh interpreter, as one `resip` call is.

Usage: python3 perfbench/worker.py <workload> <trace 0|1>, with the job
(a task file, or a list of p-group lab calls) as JSON on standard input.

Set-up comes first and is exactly what a `resip` call pays before its
first task: import resip.cli and load the task-file schema through
parse_task_file.  The worker prints one JSON document: the monotonic time
at which set-up ended, the round's wall time, per-operation times, the
calibration samples, its peak resident memory, the program's outputs and,
in a traced round, the per-layer calls and self times.
"""

import gc
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = '{"version": 1, "tasks": [{"kind": "bs", "q": 2}]}'
CALIBRATION_SAMPLES = 3  # taken right after set-up and again after the round


def calibration_loop() -> int:
    """A fixed piece of pure-Python work (integer arithmetic and dict
    updates, like resip's kernels); its time tracks the machine's speed.
    It allocates no objects the garbage collector tracks, so its time does
    not depend on how much the program has loaded."""
    table: dict = {}
    for i in range(40_000):
        key = (i % 97) * 89 + i % 89
        table[key] = table.get(key, 0) + i
    return len(table)


def calibrate(samples: int = CALIBRATION_SAMPLES) -> list[float]:
    times = []
    for _ in range(samples):
        gc.disable()
        try:
            start = time.perf_counter()
            calibration_loop()
            times.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return times


def run_taskfile(job: dict) -> dict:
    import json

    from resip import cli

    text = json.dumps(job)
    start = time.perf_counter()
    taskfile = cli.parse_task_file(text)
    entries = cli.run_tasks(taskfile)
    report = cli.emit_report(entries)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "op_ms": [e.elapsed_ms for e in entries],
        "report": report,
    }


def _pgroup_result(call: str, value):
    if call == "all_subgroups":
        return sorted(len(h) for h in value)
    if call == "derived_subgroup":
        return sorted([list(row) for row in g] for g in value)
    return value


def run_pgroup(job: dict, calibration: list[float]) -> dict:
    """Each call on a freshly built group; wall_s is the sum of building
    and calling, so the calibration sample taken after every call (the
    calls are the benchmark's own loop) stays out of it."""
    from resip import pgrouplab

    op_ms, results, wall = [], {}, 0.0
    for op in job["ops"]:
        start = time.perf_counter()
        gens = [tuple(tuple(row) for row in g) for g in op["generators"]]
        group = pgrouplab.generate_group(gens, op["modulus"])
        call = op["call"]
        t0 = time.perf_counter()
        if call in ("all_subgroups", "derived_subgroup"):
            value = getattr(group, call)()
        else:
            value = getattr(pgrouplab, call)(group)
        end = time.perf_counter()
        op_ms.append((end - t0) * 1000.0)
        wall += end - start
        results[op["id"]] = {"order": group.order, "value": _pgroup_result(call, value)}
        calibration += calibrate(1)
    return {"wall_s": wall, "op_ms": op_ms, "results": results}


def main() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from resip import cli

    cli.parse_task_file(PROBE)
    ready = time.monotonic()
    import json
    import resource

    workload, traced = sys.argv[1], sys.argv[2] == "1"
    job = json.loads(sys.stdin.read())
    calibration = calibrate()
    out: dict = {"ready": ready, "calibration_s": calibration}
    if job:
        tracer = None
        if traced:
            import tracing

            tracer = tracing.install()
        out.update(run_pgroup(job, calibration) if workload == "pgroup" else run_taskfile(job))
        if tracer is not None:
            out["trace"] = tracer.stats()
            tracer.uninstall()
    calibration += calibrate()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out))


if __name__ == "__main__":
    main()
