"""The report of every shipped task file, byte for byte.

Each file under ``tests/golden/`` is the standard output of
``resip run --tasks tasks/<name>.json``.  A change to a kernel must leave
every report byte the same; a change that alters a report on purpose
rewrites the golden file in the same commit and says why.
"""

import pathlib

import pytest

from resip.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
TASKS = sorted((ROOT / "tasks").glob("*.json"))


def test_every_task_file_has_a_golden_report():
    golden = sorted(p.name for p in (ROOT / "tests" / "golden").glob("*.json"))
    assert golden == [p.name for p in TASKS]


@pytest.mark.parametrize("path", TASKS, ids=[p.stem for p in TASKS])
def test_report_matches_golden(path, capsys):
    assert main(["run", "--tasks", str(path)]) == 0
    expected = (ROOT / "tests" / "golden" / path.name).read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("path", TASKS, ids=[p.stem for p in TASKS])
def test_report_needs_no_normal_form(path, capsys, monkeypatch):
    # the lattice chain's rank and index come off the characteristic
    # polynomial, so no verdict builds a Hermite or Smith normal form
    from resip import intlin

    def refuse(rows):
        raise AssertionError("a normal form was computed")

    monkeypatch.setattr(intlin, "hermite_normal_form", refuse)
    monkeypatch.setattr(intlin, "smith_normal_form", refuse)
    assert main(["run", "--tasks", str(path)]) == 0
    expected = (ROOT / "tests" / "golden" / path.name).read_text()
    assert capsys.readouterr().out == expected


def _fibered_task_count(path) -> int:
    from resip.cli import parse_task_file

    return sum(task.kind == "fibered" for task in parse_task_file(path.read_text()).tasks)


FIBERED = [p for p in TASKS if _fibered_task_count(p)]


@pytest.mark.parametrize("path", FIBERED, ids=[p.stem for p in FIBERED])
def test_fibered_reports_need_no_rank_loop(path, capsys, monkeypatch):
    # the free-fiber obstruction is read off charpoly(M) at 1, so no
    # fibered verdict row-reduces a power of M - I
    from resip import classify

    def refuse(*args):
        raise AssertionError("a rank was computed")

    monkeypatch.setattr(classify, "_column_space", refuse)
    monkeypatch.setattr(classify, "rref_mod", refuse)
    assert main(["run", "--tasks", str(path)]) == 0
    expected = (ROOT / "tests" / "golden" / path.name).read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("path", FIBERED, ids=[p.stem for p in FIBERED])
def test_fibered_tasks_build_the_h1_action_once(path, capsys, monkeypatch):
    from resip import classify

    calls = []
    real = classify.abelianization_matrix
    monkeypatch.setattr(classify, "abelianization_matrix", lambda phi: calls.append(phi) or real(phi))
    assert main(["run", "--tasks", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == _fibered_task_count(path)


def test_braid_cover_reports_build_no_automorphism(capsys, monkeypatch):
    # braid-cover tasks read the cover homology off colored Fox Jacobians:
    # while one runs, building the Artin automorphism, a FreeEndo or an
    # image word, or applying an endo, raises
    from resip import braid, cli, freegrp

    def refuse(*args, **kwargs):
        raise AssertionError("the braid-cover path expanded the braid")

    patches = [
        (braid, "artin_endo"), (braid, "_compose"), (freegrp, "_compose"),
        (freegrp, "substitute"), (freegrp, "apply_endo"), (freegrp.FreeEndo, "__init__"),
        (freegrp.FreeWord, "__init__"), (freegrp.FreeWord, "_trusted"),
    ]
    genuine = cli.run_task

    def run_task(task, caps):
        if task.kind != "braid-cover":
            return genuine(task, caps)
        with pytest.MonkeyPatch.context() as mp:
            for owner, name in patches:
                mp.setattr(owner, name, refuse)
            return genuine(task, caps)

    monkeypatch.setattr(cli, "run_task", run_task)
    path = ROOT / "tasks" / "beta-braid.json"
    assert main(["run", "--tasks", str(path)]) == 0
    expected = (ROOT / "tests" / "golden" / path.name).read_text()
    assert capsys.readouterr().out == expected
