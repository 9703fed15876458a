"""The traced run changes no output byte, and uninstalling restores resip."""

import json
import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from resip import cli, classify, pgrouplab  # noqa: E402


def _report(job: dict) -> str:
    return cli.emit_report(cli.run_tasks(cli.parse_task_file(json.dumps(job))))


def _jobs() -> list[dict]:
    batch = workloads.build("batch", 1, 0)[0]
    witness = workloads.build("witness", 1, 0)[0]
    obstruction = workloads.build("obstruction", 1, 0)[0]
    # the rank-4 search slots take seconds; the rank-3 ones run the same code
    obstruction["tasks"] = [t for t in obstruction["tasks"] if not t["id"].startswith("pattern-4")]
    return [batch, witness, obstruction]


def test_report_is_byte_identical_with_and_without_wrappers():
    jobs = _jobs()
    plain = [_report(job) for job in jobs]
    tracer = tracing.install()
    try:
        traced = [_report(job) for job in jobs]
        stats = tracer.stats()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert stats["cli.parse_task_file"]["calls"] == len(jobs)
    assert stats["classify.p_power_order_quotient_exists"]["calls"] > 0
    assert stats["magnus.SeriesSubstitution.call"]["calls"] > 0
    assert stats["braid.is_cyclotomic_product"]["ms"] > 0


def test_uninstall_restores_every_binding():
    before = (cli.torus_residually_p, classify.is_unipotent_mod, pgrouplab.FinitePGroup.__dict__["mul"])
    tracer = tracing.install()
    assert cli.torus_residually_p is not before[0]
    assert classify.is_unipotent_mod is not before[1]
    tracer.uninstall()
    after = (cli.torus_residually_p, classify.is_unipotent_mod, pgrouplab.FinitePGroup.__dict__["mul"])
    assert after == before


def test_self_time_excludes_nested_spans():
    tracer = tracing.install()
    try:
        group = pgrouplab.ut3_group(3)
        pgrouplab.frattini_data(group)
        stats = tracer.stats()
    finally:
        tracer.uninstall()
    frattini = stats["pgrouplab.frattini_data"]
    nested = stats["pgrouplab.all_subgroups"]["ms"] + stats["pgrouplab.closure"]["ms"]
    assert frattini["calls"] == 1 and nested > 0
    assert stats["pgrouplab.FinitePGroup.mul"]["calls"] > 1000


def test_every_span_metric_names_a_traced_span():
    spans = {name for _, _, name, _ in tracing.TARGETS}
    for name, unit in run.metric_units("per_layer").items():
        if name in run.DERIVED_METRICS:
            continue
        span, field = name.rsplit(".", 1)
        assert span in spans, name
        assert (field, unit) in (("calls", "count"), ("ms", "ms")), name
