"""Task-file driving, report determinism, and exit codes."""

import enum
import json
import pathlib
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import report_text_by_dumps
from resip.cli import (
    TASK_FIELDS,
    ReportEntry,
    _json_text,
    _matrix_from_text,
    emit_report,
    main,
    parse_task_file,
    run_tasks,
)
from resip.caps import DEFAULT_CAPS, Caps, parse_caps
from resip.errors import SchemaError


SOL_TASKS = json.dumps(
    {
        "version": 1,
        "tasks": [
            {"id": "sol", "kind": "torus", "matrix": [[2, 1], [1, 1]], "primes": [2, 3, 5]},
            {"id": "cube", "kind": "primes", "matrix": [[13, 8], [8, 5]]},
            {"kind": "bs", "q": 10},
            {
                "id": "beta",
                "kind": "fibered",
                "rank": 3,
                "images": ["x1 x3 X1", "x1", "X3 x2 x3"],
                "inverse": ["x2", "X2 x1 x2 x3 X2 X1 x2", "X2 x1 x2"],
                "primes": [2, 3, 5],
            },
            {
                "id": "cover",
                "kind": "braid-cover",
                "strands": 3,
                "braid": "s1 S2",
                "modulus": 2,
                "assignments": [1, 1, 1],
                "divisors": [[1, -3, 1]],
            },
            {"id": "sl2", "kind": "sl2-power", "matrix": [[2, 1], [1, 1]], "p": 3},
        ],
    }
)


def test_parse_valid_file():
    tf = parse_task_file(SOL_TASKS)
    assert tf.version == 1
    assert len(tf.tasks) == 6
    # ids default to the task's position in the file
    assert tf.tasks[2].id == "2"
    assert tf.tasks[0].payload["matrix"] == [[2, 1], [1, 1]]


def test_parse_rejections_carry_paths():
    with pytest.raises(SchemaError) as e:
        parse_task_file("not json {")
    assert "JSON" in e.value.reason
    with pytest.raises(SchemaError) as e:
        parse_task_file(json.dumps({"version": 2, "tasks": []}))
    assert e.value.path == "$.version"
    with pytest.raises(SchemaError) as e:
        parse_task_file(
            json.dumps({"version": 1, "tasks": [{"kind": "torus"}]})
        )
    assert e.value.path == "$.tasks[0]"
    with pytest.raises(SchemaError) as e:
        parse_task_file(
            json.dumps({"version": 1, "tasks": [{"kind": "nonsense", "q": 1}]})
        )
    assert "$.tasks[0]" in e.value.path


def test_reports_are_deterministic():
    tf = parse_task_file(SOL_TASKS)
    first = emit_report(run_tasks(tf), "json")
    assert first == emit_report(run_tasks(tf), "json")
    doc = json.loads(first)
    assert doc["version"] == "resip-report/1"
    ids = [e["id"] for e in doc["entries"]]
    assert ids == ["sol", "cube", "2", "beta", "cover", "sl2"]


def test_report_contents():
    tf = parse_task_file(SOL_TASKS)
    doc = json.loads(emit_report(run_tasks(tf), "json"))
    by_id = {e["id"]: e for e in doc["entries"]}
    sol = by_id["sol"]["result"]
    assert all(v["outcome"] == "NotResiduallyP" for v in sol["verdicts"])
    assert by_id["cube"]["result"]["prime_set"]["primes"] == [2]
    assert by_id["2"]["result"]["residually_p_primes"]["primes"] == [3]
    beta = {v["p"]: v["outcome"] for v in by_id["beta"]["result"]["verdicts"]}
    assert beta == {2: "NotResiduallyP", 3: "ResiduallyP", 5: "NotResiduallyP"}
    cover = by_id["cover"]["result"]
    assert cover["cover_rank"] == 5
    assert cover["divisors"][0]["divides"] is True
    assert by_id["sl2"]["result"]["k"] == 4


def test_semantic_errors_embed_not_raise():
    tf = parse_task_file(
        json.dumps(
            {
                "version": 1,
                "tasks": [{"id": "bad", "kind": "bs", "q": 0}],
            }
        )
    )
    entries = run_tasks(tf)
    assert entries[0].status == "error"
    assert entries[0].error["type"] == "InvalidSpec"


def test_big_integers_become_strings():
    assert _json_text(2 ** 53) == f'"{2 ** 53}"'
    assert _json_text(-(2 ** 60)) == f'"{-(2 ** 60)}"'
    assert _json_text(2 ** 53 - 1) == str(2 ** 53 - 1)
    assert _json_text({"a": [True, None, 7]}) == '{\n  "a": [\n    true,\n    null,\n    7\n  ]\n}'


# Scalars of every type a report may hold.  Strings come from a fixed
# alphabet with control characters, quotes, backslashes and non-ASCII
# letters (drawing from all of Unicode would rebuild Hypothesis's
# character tables on every run).
_TEXT = st.text(alphabet='ab "\\/\x00\x1f\x7f\n\t\u00e9\u03bb\u2028\U0001f600', max_size=8)
_EDGES = [2 ** 53 - 1, -(2 ** 53 - 1), 2 ** 53, -(2 ** 53), 2 ** 70]
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(_EDGES),
    st.floats(),
    _TEXT,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)


class _Level(enum.IntEnum):
    LOW = 3
    HIGH = 7


@settings(max_examples=300, deadline=None, database=None)
@given(_VALUES)
@example({"b": [], "a": {}, "c": ()})
@example([2 ** 53 - 1, -(2 ** 53 - 1), 2 ** 53, -(2 ** 53), True, False, None])
@example({"\u00e9\x00": "\u03bb\x1f\U0001f600", "": [float("nan"), float("inf"), -0.0, 1e300]})
# the one-join path for lists of exact ints, and what must stay off it
@example([1, True, 0])
@example([2 ** 53 - 1, 2 ** 53])
@example((3, -4))
@example([[1, 2], [], [True]])
@example([1, _Level.HIGH, 2])
@example({"level": _Level.LOW, "n": 5})
def test_json_text_matches_json_dumps(value):
    assert _json_text(value) == report_text_by_dumps(value)


def test_empty_report_is_pinned():
    assert emit_report([]) == '{\n  "entries": [],\n  "version": "resip-report/1"\n}\n'
    assert emit_report([], "text") == "\n"


@pytest.mark.parametrize(
    "value", [Fraction(1, 2), {1, 2}, {"a": [1, Fraction(1, 3)]}, ({"x"},), {"k": frozenset()}]
)
def test_json_text_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)
    with pytest.raises(TypeError):  # as the oracle does
        report_text_by_dumps(value)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": 1, 2: "b"}, {"a": {(1,): 0}}])
def test_json_text_refuses_a_key_that_is_no_string_each_time(value):
    for _ in range(2):  # a refused shape leaves no layout behind
        with pytest.raises(TypeError):
            _json_text(value)


def test_json_text_holds_a_bounded_table_of_dict_layouts(monkeypatch):
    from resip import cli

    monkeypatch.setattr(cli, "_LAYOUTS", {})
    values = [{f"k{i}": i, "a": [i], "z": None} for i in range(cli._LAYOUT_BOUND + 50)]
    for indent in ("", "    "):
        for value in values:
            assert _json_text(value, indent) == _json_text(dict(reversed(value.items())), indent)
    assert len(cli._LAYOUTS) == cli._LAYOUT_BOUND
    for value in values[-3:]:  # shapes past the bound are written without a layout entry
        assert _json_text(value) == report_text_by_dumps(value)


def test_verify_witness_json_output_is_pinned(tmp_path, capsys):
    # the certificate the shipped beta-braid task file yields at p = 3
    golden = pathlib.Path(__file__).parent / "golden" / "beta-braid.json"
    entries = json.loads(golden.read_text())["entries"]
    [cert] = [e["result"]["certificate"] for e in entries if e["result"].get("certificate")]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["verify-witness", "--certificate", str(path), "--format", "json"]) == 0
    checks = (
        "monodromy_reconstructed",
        "element_in_fiber",
        "depth_minimal",
        "survival_coefficient",
        "h1_unipotent_mod_p",
        "induced_order_matches",
        "induced_order_p_power",
        "order_exponent",
        "kernel_invariance",
        "fiber_order_bound",
    )
    rows = ",\n".join(f'    [\n      "{name}",\n      true\n    ]' for name in checks)
    expected = '{\n  "certificate_ok": true,\n  "checks": [\n' + rows + "\n  ]\n}\n"
    assert capsys.readouterr().out == expected


def test_matrix_text_and_caps_parsing():
    assert _matrix_from_text("2 1; 1 1") == [[2, 1], [1, 1]]
    caps = parse_caps("magnus_degree=9")
    assert caps.magnus_degree == 9
    # empty items are skipped; the base is overridden, not replaced
    caps = parse_caps(" , max_rank=3,, magnus_degree=5 ,", caps)
    assert caps == DEFAULT_CAPS.with_overrides(magnus_degree=5, max_rank=3)
    assert parse_caps("magnus_degree=4,magnus_degree=6").magnus_degree == 6
    with pytest.raises(ValueError):
        parse_caps("magnus_degree=soon")
    with pytest.raises(ValueError):
        parse_caps("magnus_degree")
    with pytest.raises(KeyError):
        parse_caps("flux_capacitor=1")


def test_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(SOL_TASKS)
    assert main(["run", "--tasks", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 7, "tasks": []}))
    assert main(["run", "--tasks", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "schema error at $.version" in err

    capped = tmp_path / "capped.json"
    capped.write_text(
        json.dumps(
            {
                "version": 1,
                "tasks": [
                    {
                        "id": "w",
                        "kind": "witness",
                        "rank": 3,
                        "images": ["x1 x3 X1", "x1", "X3 x2 x3"],
                        "inverse": ["x2", "X2 x1 x2 x3 X2 X1 x2", "X2 x1 x2"],
                        "p": 3,
                        "element": {"t": 0, "w": "x1 X2"},
                    }
                ],
            }
        )
    )
    assert main(["run", "--tasks", str(capped), "--caps", "max_rank=2"]) == 3
    capsys.readouterr()


def test_flag_shorthand_maps_to_run(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(SOL_TASKS)
    assert main(["--tasks", str(good), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "task sol [torus]" in out
    assert "ms" in out  # text format keeps timings; json never does


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_the_subcommands(flag, capsys):
    # --help starts with "--" but is not run's shorthand: it prints the
    # top-level usage, as -h does
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: resip [-h]")
    for command in ("run", "torus", "primes", "bs", "fibered", "braid-cover", "witness",
                    "extension", "sl2-power", "verify-witness"):
        assert command in out
    assert "--tasks" not in out


def test_single_task_subcommands(capsys):
    assert main(["primes", "--matrix", "13 8; 8 5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"][0]["result"]["prime_set"]["primes"] == [2]

    assert main(["bs", "--q", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"][0]["result"]["residually_p_primes"]["primes"] == [3]

    assert main(["torus", "--matrix", "2 1; 1 1", "--primes", "2,3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["entries"][0]["result"]["verdicts"]) == 2


def test_sl2_power_takes_no_cap(tmp_path, capsys):
    sl2 = ["sl2-power", "--matrix", "2 1; 1 1"]
    assert main(sl2 + ["--p", "1000003"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"][0]["result"] == {"k": 1000004, "p": 1000003}

    try:
        code = main(sl2 + ["--p", "5", "--cap", "5"])
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
    assert code == 2
    capsys.readouterr()

    assert "cap" not in TASK_FIELDS
    capped = tmp_path / "capped.json"
    task = {"kind": "sl2-power", "matrix": [[2, 1], [1, 1]], "p": 5, "cap": 5}
    capped.write_text(json.dumps({"version": 1, "tasks": [task]}))
    assert main(["run", "--tasks", str(capped)]) == 2
    assert "schema error at $.tasks[0]" in capsys.readouterr().err


def test_verify_witness_round_trip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    task = tmp_path / "task.json"
    task.write_text(
        json.dumps(
            {
                "version": 1,
                "tasks": [
                    {
                        "id": "w",
                        "kind": "witness",
                        "rank": 3,
                        "images": ["x1 x3 X1", "x1", "X3 x2 x3"],
                        "inverse": ["x2", "X2 x1 x2 x3 X2 X1 x2", "X2 x1 x2"],
                        "p": 3,
                        "element": {"t": 0, "w": "x1 X2"},
                    }
                ],
            }
        )
    )
    assert main(["run", "--tasks", str(task)]) == 0
    doc = json.loads(capsys.readouterr().out)
    result = doc["entries"][0]["result"]
    assert result["status"] == "certificate"
    assert result["verification"]["ok"] is True
    cert.write_text(json.dumps(result["certificate"]))

    assert main(["verify-witness", "--certificate", str(cert)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certificate_ok"] is True

    broken = json.loads(cert.read_text())
    broken["data"]["evidence_coefficient"] = 0
    cert.write_text(json.dumps(broken))
    assert main(["verify-witness", "--certificate", str(cert)]) == 1
    capsys.readouterr()


def test_env_caps_respected(tmp_path, monkeypatch, capsys):
    task = tmp_path / "task.json"
    task.write_text(
        json.dumps(
            {
                "version": 1,
                "tasks": [
                    {
                        "id": "w",
                        "kind": "witness",
                        "rank": 3,
                        "images": ["x1 x3 X1", "x1", "X3 x2 x3"],
                        "inverse": ["x2", "X2 x1 x2 x3 X2 X1 x2", "X2 x1 x2"],
                        "p": 3,
                        "element": {"t": 0, "w": "x1 X2"},
                    }
                ],
            }
        )
    )
    monkeypatch.setenv("RESIP_CAPS", "max_rank=2")
    assert main(["run", "--tasks", str(task)]) == 3
    capsys.readouterr()
    monkeypatch.setenv("RESIP_CAPS", "magnus_degree=banana")
    assert main(["run", "--tasks", str(task)]) == 2
    capsys.readouterr()


BETA_WITNESS = [
    "witness",
    "--images", "x1 x3 X1; x1; X3 x2 x3",
    "--inverse", "x2; X2 x1 x2 x3 X2 X1 x2; X2 x1 x2",
    "--p", "3",
    "--w", "x1 X2",
]


@pytest.mark.parametrize("text", ["magnus_degree=3,", " magnus_degree = 3 ", ",,max_rank=6", ""])
def test_caps_flag_and_environment_accept_the_same_text(monkeypatch, capsys, text):
    assert main(["bs", "--q", "3", "--caps", text]) == 0
    monkeypatch.setenv("RESIP_CAPS", text)
    assert main(["bs", "--q", "3"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, message",
    [
        ("magnus_degree=banana", "bad cap value 'banana' for magnus_degree"),
        ("magnus_degree", "bad cap override 'magnus_degree', expected KEY=VALUE"),
        ("flux_capacitor=1", "unknown caps: ['flux_capacitor']"),
        ("magnus_degree=-3", "cap magnus_degree must be an integer >= 1, got -3"),
        ("max_rank=6,max_rank=0", "cap max_rank must be an integer >= 1, got 0"),
    ],
)
def test_caps_flag_and_environment_reject_the_same_text(monkeypatch, capsys, text, message):
    assert main(["bs", "--q", "3", "--caps", text]) == 2
    from_flag = capsys.readouterr()
    monkeypatch.setenv("RESIP_CAPS", text)
    assert main(["bs", "--q", "3"]) == 2
    from_env = capsys.readouterr()
    assert from_flag.out == from_env.out == ""
    assert from_flag.err == from_env.err
    assert message in from_env.err


def test_caps_below_one_exit_2_before_any_search(monkeypatch, capsys):
    argv = ["witness", "--images", "x1;x2", "--inverse", "x1;x2", "--p", "3", "--w", "x1"]
    assert main(argv + ["--caps", "magnus_degree=-3"]) == 2
    from_flag = capsys.readouterr()
    monkeypatch.setenv("RESIP_CAPS", "magnus_degree=-3")
    assert main(argv) == 2
    from_env = capsys.readouterr()
    assert from_flag.out == from_env.out == ""
    assert "cap magnus_degree must be an integer >= 1, got -3" in from_env.err
    bad = ({"max_rank": 0}, {"sieve_bound": -1}, {"genus": True}, {"magnus_degree": 2.0})
    for values in bad:
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            DEFAULT_CAPS.with_overrides(**values)
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        Caps(magnus_degree=0)


def test_caps_flags_win_over_environment(monkeypatch, capsys):
    monkeypatch.setenv("RESIP_CAPS", "max_rank=2")
    assert main(BETA_WITNESS + ["--caps", "max_rank=6"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("RESIP_CAPS", "max_rank=6")
    assert main(BETA_WITNESS + ["--caps", "magnus_degree=8", "--caps", "max_rank=2"]) == 3
    entry = _entry(capsys)
    assert entry == {
        "id": "0",
        "kind": "witness",
        "status": "cap",
        "error": {"type": "CapExceeded", "message": "max_rank: cap 2 exceeded"},
    }


def test_verify_witness_depth_beyond_the_cap_exits_3(tmp_path, capsys):
    # a commutator first shows in the Magnus series at degree 2
    assert main(BETA_WITNESS + ["--w", "x1 x2 X1 X2"]) == 0
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(_entry(capsys)["result"]["certificate"]))
    args = ["verify-witness", "--certificate", str(cert)]
    assert main(args + ["--caps", "magnus_degree=1"]) == 3
    assert capsys.readouterr().err == "cap exceeded: magnus_degree: cap 1 exceeded\n"


def test_primes_up_to_beyond_the_sieve_cap_exits_3_without_sieving(tmp_path, capsys, monkeypatch):
    from resip import cli

    sieved = []
    genuine = cli.primes_up_to

    def counted(bound):
        sieved.append(bound)
        return genuine(bound)

    monkeypatch.setattr(cli, "primes_up_to", counted)
    assert main(["torus", "--matrix", "2 1; 1 1", "--primes-up-to", str(10**12)]) == 3
    assert _entry(capsys) == {
        "id": "0",
        "kind": "torus",
        "status": "cap",
        "error": {"type": "CapExceeded", "message": "sieve_bound: cap 100000 exceeded"},
    }
    assert sieved == []
    # one task past the cap is one cap entry; the others still run
    beta = {
        "kind": "fibered",
        "rank": 3,
        "images": ["x1 x3 X1", "x1", "X3 x2 x3"],
        "inverse": ["x2", "X2 x1 x2 x3 X2 X1 x2", "X2 x1 x2"],
    }
    tasks = [
        {"id": "small", "kind": "torus", "matrix": [[2, 1], [1, 1]], "primes_up_to": 30},
        dict(beta, id="huge", primes_up_to=10**6),
        dict(beta, id="at-cap", primes_up_to=1000),
    ]
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": tasks}))
    assert main(["run", "--tasks", str(path), "--caps", "sieve_bound=1000"]) == 3
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [e["status"] for e in entries] == ["ok", "cap", "ok"]
    assert entries[1]["error"]["message"] == "sieve_bound: cap 1000 exceeded"
    assert sieved == [30, 1000]


@pytest.mark.parametrize("argv,message", [
    (["extension", "--check", "circle-bundle", "--genus", str(10**12), "--euler", "3"],
     "genus: cap 500 exceeded"),
    (["braid-cover", "--strands", "3", "--braid", "s1 S2", "--modulus", str(10**12),
      "--assignments", "1,1,1"], "cover_rank: cap 101 exceeded"),
])
def test_genus_and_cover_rank_past_their_caps_exit_3_at_once(argv, message, capsys):
    # 10^12 would ask for a 2g x 2g form or rows of n * m entries; the
    # caps refuse it before either is built
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    entry = _entry(capsys)
    assert (entry["status"], entry["error"]) == (
        "cap", {"type": "CapExceeded", "message": message})


def test_a_task_past_the_genus_or_cover_rank_cap_leaves_the_others_running(tmp_path, capsys):
    circle = {"kind": "extension", "check": "circle-bundle", "euler": 3}
    cover = {"kind": "braid-cover", "strands": 3, "braid": "s1 S2", "assignments": [1, 1, 1]}
    tasks = [
        dict(circle, id="genus-at-cap", genus=4),
        dict(circle, id="genus-huge", genus=10**12),
        dict(cover, id="rank-at-cap", modulus=2),  # rank 2 * (3 - 1) + 1 = 5
        dict(cover, id="rank-huge", modulus=10**12),
        {"id": "after", "kind": "bs", "q": 3},
    ]
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": tasks}))
    assert main(["run", "--tasks", str(path), "--caps", "genus=4,cover_rank=5"]) == 3
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [e["status"] for e in entries] == ["ok", "cap", "ok", "cap", "ok"]
    assert [entries[i]["error"]["message"] for i in (1, 3)] == [
        "genus: cap 4 exceeded", "cover_rank: cap 5 exceeded"]


def test_a_cocycle_task_refuses_only_what_the_form_constructor_refuses(tmp_path, capsys):
    # every square integer form is a cocycle, modulus or not, so the one
    # failing task is the form that is not square
    cocycle = {"kind": "extension", "check": "cocycle"}
    tasks = [
        dict(cocycle, id="ragged", form=[[0, 1], [0]]),
        dict(cocycle, id="mod-3", form=[[0, 1], [0, 0]], coeff_modulus=3),
        dict(cocycle, id="over-z", form=[[0, 1], [0, 0]]),
    ]
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": tasks}))
    assert main(["run", "--tasks", str(path)]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [e["status"] for e in entries] == ["error", "ok", "ok"]
    assert entries[0]["error"] == {"type": "InvalidSpec", "message": "bilinear form must be square and nonempty"}
    assert "result" not in entries[0]
    for entry in entries[1:]:
        assert entry["result"] == {"check": "cocycle", "report": {"ok": True, "violation": None}}


def test_strand_count_past_the_cover_rank_cap_is_refused_before_the_braid(tmp_path, capsys, monkeypatch):
    # rank 2 * (10^6 - 1) + 1: refused from the payload's integers, before
    # the braid's permutation (one entry per strand) is built
    from resip import cli

    def refuse(*args):
        raise AssertionError("the braid was read")

    monkeypatch.setattr(cli, "parse_braid", refuse)
    cover = {"kind": "braid-cover", "braid": "s1", "modulus": 2}
    tasks = [
        dict(cover, id="strands-huge", strands=10**6, assignments=[1, 1]),
        {"id": "after", "kind": "bs", "q": 3},
    ]
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": tasks}))
    start = time.perf_counter()
    assert main(["run", "--tasks", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [e["status"] for e in entries] == ["cap", "ok"]
    assert entries[0]["error"] == {"type": "CapExceeded", "message": "cover_rank: cap 101 exceeded"}


def test_errors_module_defines_the_five_outcomes():
    from resip import errors

    classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert classes == {"ResipError", "InvalidSpec", "SchemaError", "CapExceeded", "InternalInvariant"}


@pytest.mark.parametrize("argv, message", [
    (["bs", "--q", "0"], "q must be >= 1, got 0"),
    (["fibered", "--images", "x1", "--inverse", "x1"], "rank-1 fibers are torus/BS territory"),
    (["torus", "--matrix", "1 2; 3"], "matrix must be square"),
    # s1 sends chi = (1, 0, 0) mod 2 to (0, 1, 0), no multiple of chi
    (["braid-cover", "--strands", "3", "--braid", "s1", "--modulus", "2", "--assignments", "1,0,0"],
     "endomorphism does not preserve the cover subgroup"),
], ids=["bs", "fibered", "torus", "braid-cover"])
def test_unusable_values_are_invalid_spec_entries(capsys, argv, message):
    assert main(argv) == 0
    entry = _entry(capsys)
    assert (entry["status"], entry["error"]) == ("error", {"type": "InvalidSpec", "message": message})


def test_non_prime_certificate_exits_2(tmp_path, capsys):
    cert = {
        "p": 4,
        "kind": "stable_letter",
        "rank": 2,
        "monodromy_images": ["x1", "x2"],
        "monodromy_inverse": ["x1", "x2"],
        "survivor_t": 5,
        "survivor_word": "1",
        "data": {"j": 2, "quotient_order": 16, "residue": 5},
    }
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["verify-witness", "--certificate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "InvalidSpec: 4 is not prime" in captured.err


def _entry(capsys) -> dict:
    doc = json.loads(capsys.readouterr().out)
    (entry,) = doc["entries"]
    return entry


def test_non_prime_p_is_an_error_entry(capsys):
    assert main(["sl2-power", "--matrix", "2 1; 1 1", "--p", "4"]) == 0
    entry = _entry(capsys)
    assert entry["status"] == "error" and "result" not in entry
    assert entry["error"] == {"type": "InvalidSpec", "message": "4 is not prime"}

    args = ["witness", "--images", "x1;x2", "--inverse", "x1;x2", "--p", "4", "--t", "5"]
    assert main(args) == 0
    entry = _entry(capsys)
    assert entry["status"] == "error" and "result" not in entry
    assert entry["error"]["type"] == "InvalidSpec"


def test_non_prime_in_a_prime_list_is_one_invalid_spec_entry(capsys):
    for argv in (
        ["torus", "--matrix", "2 1; 1 1", "--primes", "3,4"],
        ["fibered", "--images", "x1 x2; x2", "--inverse", "x1 X2; x2", "--primes", "2,4"],
    ):
        assert main(argv) == 0
        entry = _entry(capsys)
        assert entry["status"] == "error" and "result" not in entry
        assert entry["error"] == {"type": "InvalidSpec", "message": "4 is not prime"}


@pytest.mark.parametrize("braid", ["s" + "1" * 5000, "s1 S\u0662"], ids=["5000-digit-index", "arabic-indic-digit"])
def test_bad_braid_in_a_task_file_is_one_invalid_spec_entry(tmp_path, capsys, braid):
    task = {"kind": "braid-cover", "strands": 3, "braid": braid, "modulus": 2, "assignments": [1, 1, 1]}
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": [task]}))
    assert main(["run", "--tasks", str(path)]) == 0
    entry = _entry(capsys)
    assert entry["status"] == "error" and "result" not in entry
    assert entry["error"]["type"] == "InvalidSpec"


def test_text_reports_summarize_witness_and_extension_results(capsys):
    assert main(BETA_WITNESS + ["--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("task 0 [witness] ok")
    assert lines[1].startswith("  certificate kind magnus, data {'degree': 1, ")
    assert "'evidence_monomial': [1]" in lines[1]
    assert lines[2:] == ["  re-verification: True"]
    assert main(["extension", "--check", "heisenberg", "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("task 0 [extension] ok")
    assert lines[1:] == ["  heisenberg: ok=True"]


def test_braid_cover_text_report_shows_the_cyclotomic_test(capsys):
    # the quotient's cyclotomic test is reported for each divisor that divides
    args = ["braid-cover", "--strands", "3", "--braid", "s1 S2", "--modulus", "2",
            "--assignments", "1,1,1", "--divisor", "1 -3 1", "--divisor", "1 1", "--divisor", "1 -1"]
    assert main(args) == 0
    divisors = _entry(capsys)["result"]["divisors"]
    assert [d.get("quotient_cyclotomic_product") for d in divisors] == [True, None, False]
    assert main(args + ["--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "  divisible by [1, -3, 1]: True, quotient cyclotomic product: True",
        "  divisible by [1, 1]: False",
        "  divisible by [1, -1]: True, quotient cyclotomic product: False",
    ]


def test_witness_without_unipotence_reports_undecided(capsys):
    # beta's H_1 action is not unipotent mod 5, and t^0 w needs the Magnus route
    reason = "H_1 action not unipotent mod 5; the certificate route requires it"
    assert main(BETA_WITNESS + ["--p", "5"]) == 0
    assert _entry(capsys)["result"] == {"status": "undecided", "reason": reason}
    assert main(BETA_WITNESS + ["--p", "5", "--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [f"  undecided: {reason}"]


def test_bad_tasks_do_not_abort_the_batch(monkeypatch):
    from resip import cli

    cover = {
        "kind": "braid-cover",
        "strands": 3,
        "braid": "s1 S2",
        "modulus": 2,
        "assignments": [1, 1, 1],
    }
    doc = {
        "version": 1,
        "tasks": [
            {"id": "before", "kind": "bs", "q": 10},
            dict(cover, id="zero", divisors=[[0]]),
            dict(cover, id="non-monic", divisors=[[2, 1]]),
            {"id": "crash", "kind": "bs", "q": 4},
            dict(cover, id="after", divisors=[[1, -3, 1]]),
        ],
    }

    def bs_classify(spec):
        if spec.q == 4:
            raise ZeroDivisionError("integer division by zero")
        return real_bs_classify(spec)

    real_bs_classify = cli.bs_classify
    monkeypatch.setattr(cli, "bs_classify", bs_classify)
    entries = run_tasks(parse_task_file(json.dumps(doc)))
    status = {e.id: (e.status, e.error and e.error["type"]) for e in entries}
    assert status == {
        "before": ("ok", None),
        "zero": ("error", "InvalidSpec"),
        "non-monic": ("error", "InvalidSpec"),
        "crash": ("error", "ZeroDivisionError"),
        "after": ("ok", None),
    }
    assert entries[0].result["residually_p_primes"]["primes"] == [3]
    assert entries[4].result["divisors"][0]["divides"] is True
    assert entries[3].error["message"] == "integer division by zero"


def test_internal_invariant_reaches_the_report(monkeypatch):
    from resip import classify

    # no power of A - I is zero mod any prime
    monkeypatch.setattr(classify, "_power_chain", lambda a, modulus: [1] * a.n)
    doc = {"version": 1, "tasks": [{"kind": "torus", "matrix": [[1, 1], [0, 1]], "primes": [3]}]}
    (entry,) = run_tasks(parse_task_file(json.dumps(doc)))
    assert (entry.status, entry.error["type"]) == ("error", "InternalInvariant")


@pytest.mark.parametrize("cert", ['{"p": 3}', "[]", "not json", '{"p": 3, "kind": "cube"}'])
def test_malformed_certificate_exits_2(tmp_path, capsys, cert):
    path = tmp_path / "cert.json"
    path.write_text(cert)
    assert main(["verify-witness", "--certificate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    where = "$.kind" if "cube" in cert else "$"  # the table names the bad value's path
    assert f"schema error at {where}: malformed certificate" in captured.err


def _beta_certificates() -> dict:
    """The magnus, stable-letter and product certificates of beta at 3,
    as the JSON objects verify-witness reads."""
    from resip.braid import artin_endo, beta_braid
    from resip.freegrp import MappingTorusElement, MappingTorusSpec, parse_word
    from resip.witness import combine_witnesses, find_p_quotient_witness

    spec = MappingTorusSpec(artin_endo(beta_braid()))
    magnus = find_p_quotient_witness(spec, MappingTorusElement(0, parse_word("x1 X2", 3)), 3)
    letter = find_p_quotient_witness(spec, MappingTorusElement(1, parse_word("1", 3)), 3)
    product = combine_witnesses([magnus.certificate, letter.certificate])
    certs = {
        "magnus": magnus.certificate,
        "stable_letter": letter.certificate,
        "product": product,
    }
    return {kind: json.loads(_json_text(c.to_dict())) for kind, c in certs.items()}


# each integer field of each kind, as a path into the certificate
_CERT_INT_FIELDS = [
    ("magnus", ("p",)),
    ("magnus", ("rank",)),
    ("magnus", ("survivor_t",)),
    *(
        ("magnus", ("data", key))
        for key in (
            "degree",
            "precision",
            "order_exponent",
            "induced_order",
            "evidence_coefficient",
            "fiber_order_bound",
            "total_order_bound",
        )
    ),
    ("magnus", ("data", "evidence_monomial", 0)),
    ("stable_letter", ("survivor_t",)),
    *(("stable_letter", ("data", key)) for key in ("j", "quotient_order", "residue")),
    ("product", ("p",)),
    ("product", ("data", "total_order_bound")),
    ("product", ("data", "count")),
    ("product", ("components", 0, "rank")),
    ("product", ("components", 1, "data", "j")),
]


def _replace(doc, path, new):
    for key in path[:-1]:
        doc = doc[key]
    old, doc[path[-1]] = doc[path[-1]], new
    return old


def _field_id(x) -> str:
    return x if isinstance(x, str) else ".".join(map(str, x))


@pytest.mark.parametrize("kind,path", _CERT_INT_FIELDS, ids=_field_id)
def test_certificate_floats_and_booleans_exit_2(tmp_path, capsys, kind, path):
    # 3.9 used to pass as 3, and 2.0 or true as the integer they equal
    cert = _beta_certificates()[kind]
    value = _replace(cert, path, None)
    assert type(value) is int
    for bad in (float(value), value + 0.5, value == 1):
        _replace(cert, path, bad)
        (tmp_path / "cert.json").write_text(json.dumps(cert))
        assert main(["verify-witness", "--certificate", str(tmp_path / "cert.json")]) == 2, bad
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not an integer" in captured.err
    if isinstance(path[-1], int):  # a monomial's letters are never wide
        return
    # a string of digits stands for an integer, as wide ones are written
    _replace(cert, path, str(value))
    (tmp_path / "cert.json").write_text(json.dumps(cert))
    assert main(["verify-witness", "--certificate", str(tmp_path / "cert.json")]) == 0
    assert json.loads(capsys.readouterr().out)["certificate_ok"] is True


def _forged(kind: str, path: tuple, value) -> dict:
    """The beta certificate of the kind with the value at path set."""
    cert = doc = _beta_certificates()[kind]
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value
    return cert


def _verify(tmp_path, capsys, cert: dict) -> tuple:
    (tmp_path / "cert.json").write_text(json.dumps(cert))
    status = main(["verify-witness", "--certificate", str(tmp_path / "cert.json")])
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# every value has the right shape, but one stored claim is false: exit 1,
# with the check of that claim failing and no other
@pytest.mark.parametrize(
    "kind, path, value, check",
    [
        ("magnus", ("data", "total_order_bound"), 7, "fiber_order_bound"),
        ("magnus", ("data", "evidence_monomial"), [], "survival_coefficient"),
        ("product", ("data", "count"), 99, "order_bound_product"),
        ("product", ("survivor_t",), 5, "same_mapping_torus"),
        ("product", ("survivor_word",), "x1", "same_mapping_torus"),
    ],
    ids=lambda x: _field_id(x) if isinstance(x, tuple) else None,
)
def test_false_stored_claims_exit_1(tmp_path, capsys, kind, path, value, check):
    status, out, err = _verify(tmp_path, capsys, _forged(kind, path, value))
    assert (status, err) == (1, "")
    assert [name for name, ok in json.loads(out)["checks"] if not ok] == [check]


# what the certificate table refuses, at the JSON path it names
@pytest.mark.parametrize(
    "kind, path, value, where",
    [
        ("magnus", ("data", "evidence_coefficient"), "x", "$.data.evidence_coefficient"),
        ("magnus", ("data", "evidence_monomial"), ["1"], "$.data.evidence_monomial[0]"),
        ("stable_letter", ("data", "j"), [2], "$.data.j"),
        ("product", ("components", 1, "p"), "three", "$.components[1].p"),
        ("product", ("components", 0, "data"), [], "$.components[0].data"),
        ("magnus", ("data", "precision"), 5, "$.data.precision"),
        ("magnus", ("extra",), 1, "$"),
        ("magnus", ("data", "j"), 1, "$.data"),
        ("stable_letter", ("components",), [], "$.components"),
        ("stable_letter", ("survivor_word",), "x9", "$"),
    ],
    ids=lambda x: _field_id(x) if isinstance(x, tuple) else None,
)
def test_certificate_table_refusals_exit_2(tmp_path, capsys, kind, path, value, where):
    status, out, err = _verify(tmp_path, capsys, _forged(kind, path, value))
    assert (status, out) == (2, "")
    assert err.startswith(f"schema error at {where}: malformed certificate: ")


def test_missing_certificate_keys_exit_2(tmp_path, capsys):
    cert = _beta_certificates()["magnus"]
    del cert["data"]["induced_order"]
    assert _verify(tmp_path, capsys, cert)[2] == (
        "schema error at $.data: malformed certificate: missing induced_order\n"
    )
    del cert["survivor_t"]
    assert _verify(tmp_path, capsys, cert)[2] == (
        "schema error at $: malformed certificate: missing survivor_t\n"
    )


def test_unreadable_inputs_exit_2(tmp_path, capsys):
    assert main(["verify-witness", "--certificate", str(tmp_path / "missing.json")]) == 2
    assert "cannot read input" in capsys.readouterr().err
    assert main(["torus", "--matrix", "2 x"]) == 2
    assert "schema error at --matrix: bad integer literal" in capsys.readouterr().err


def test_removed_subspace_caps_are_unknown(monkeypatch, capsys):
    assert main(["bs", "--q", "3", "--caps", "subspace_vectors=5"]) == 2
    assert "unknown caps" in capsys.readouterr().err
    monkeypatch.setenv("RESIP_CAPS", "subspace_count=1")
    assert main(["bs", "--q", "3"]) == 2
    assert "unknown caps" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["group_order=1", "subgroup_count=1", "magnus_depth=9"])
def test_caps_no_command_reads_are_unknown(cap, monkeypatch, capsys):
    # the p-group lab's bounds are pgrouplab constants, and the Magnus depth
    # ladder is bounded by magnus_degree
    key = cap.partition("=")[0]
    assert main(["bs", "--q", "6", "--caps", cap]) == 2
    assert capsys.readouterr().err == (
        f"schema error at $: unknown caps: ['{key}'] (--caps or RESIP_CAPS)\n"
    )
    monkeypatch.setenv("RESIP_CAPS", cap)
    assert main(["bs", "--q", "6"]) == 2
    assert f"unknown caps: ['{key}']" in capsys.readouterr().err


# For each Caps key: a command, the override that it goes past, and the
# override one step higher, under which it answers.
_CAP_CASES = {
    "magnus_degree": (
        ["witness", "--images", "x1;x2", "--inverse", "x1;x2", "--p", "3", "--w", "x1 x1 x1"],
        "magnus_degree=2", "magnus_degree=3"),
    "max_rank": (BETA_WITNESS, "max_rank=2", "max_rank=3"),
    "sieve_bound": (
        ["torus", "--matrix", "2 1; 1 1", "--primes-up-to", "101"], "sieve_bound=100", "sieve_bound=101"),
    "genus": (
        ["extension", "--check", "circle-bundle", "--genus", "3", "--euler", "1"], "genus=2", "genus=3"),
    "cover_rank": (  # rank m(n - 1) + 1 = 5
        ["braid-cover", "--strands", "3", "--braid", "s1 S2", "--modulus", "2",
         "--assignments", "1,1,1"], "cover_rank=4", "cover_rank=5"),
}


@pytest.mark.parametrize("key", Caps._fields)
def test_each_cap_key_names_the_cap_it_raises(key, capsys):
    argv, past, raised = _CAP_CASES[key]  # a new key needs a case
    assert main(argv + ["--caps", past]) == 3
    entry = _entry(capsys)
    assert entry["status"] == "cap" and entry["error"]["type"] == "CapExceeded"
    assert entry["error"]["message"].startswith(f"{key}: cap ")
    assert main(argv + ["--caps", raised]) == 0
    assert _entry(capsys)["status"] == "ok"


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses the command line
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["sl2-power", "--matrix", "2 1; 1 1", "--p", "5", "--cap", "magnus_degree=3"],
        ["torus", "--matrix", "2 1; 1 1", "--primes-up", "50"],
    ],
)
def test_flag_prefixes_are_refused(capsys, argv):
    assert _exit_code(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_removed_witness_knobs_exit_2(tmp_path, capsys):
    assert _exit_code(BETA_WITNESS + ["--exploratory"]) == 2
    capsys.readouterr()
    for cap in ("order_iterations=1", "max_layer=4", "combine_witnesses=4", "layer_basis=64",
                "generating_set_size=4"):
        assert main(BETA_WITNESS + ["--caps", cap]) == 2
        assert "unknown caps" in capsys.readouterr().err
    assert set(DEFAULT_CAPS._fields) == {
        "magnus_degree", "max_rank", "sieve_bound", "genus", "cover_rank",
    }
    assert "exploratory" not in TASK_FIELDS
    task = {
        "kind": "witness",
        "rank": 2,
        "images": ["x2", "x1"],
        "inverse": ["x2", "x1"],
        "p": 3,
        "element": {"t": 0, "w": "x1"},
        "exploratory": True,
    }
    path = tmp_path / "exploratory.json"
    path.write_text(json.dumps({"version": 1, "tasks": [task]}))
    assert main(["run", "--tasks", str(path)]) == 2
    assert "schema error at $.tasks[0]" in capsys.readouterr().err


def test_large_prime_witness_exits_0_and_reverifies(tmp_path, capsys):
    args = ["witness", "--images", "x1 x2;x2", "--inverse", "x1 X2;x2", "--p", "7919"]
    assert main(args + ["--w", "x1 x2 X1 X2"]) == 0
    result = _entry(capsys)["result"]
    assert result["certificate"]["data"]["induced_order"] == 7919
    assert result["verification"]["ok"] is True
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(result["certificate"]))
    assert main(["verify-witness", "--certificate", str(cert)]) == 0
    assert json.loads(capsys.readouterr().out)["certificate_ok"] is True


def test_non_unipotent_certificate_exits_1(tmp_path, capsys):
    # a valid identity-monodromy certificate with the Sol monodromy swapped in
    args = ["witness", "--images", "x1;x2", "--inverse", "x1;x2", "--p", "7993"]
    assert main(args + ["--w", "x1 x2 X1 X2"]) == 0
    cert = dict(
        _entry(capsys)["result"]["certificate"],
        monodromy_images=["x1 x1 x2", "x1 x2"],
        monodromy_inverse=["x1 X2", "x2 X1 x2"],
    )
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["verify-witness", "--certificate", str(path)]) == 1
    failed = [name for name, ok in json.loads(capsys.readouterr().out)["checks"] if not ok]
    assert failed == ["h1_unipotent_mod_p", "induced_order_matches", "induced_order_p_power"]


class _ClosedPipe:
    """A standard output whose reader has gone: every write and flush
    raises BrokenPipeError, as a pipe closed early by ``head`` does."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write


def test_closed_stdout_is_not_an_input_error(tmp_path, monkeypatch, capsys):
    assert main(BETA_WITNESS + ["--w", "x1 x2 X1 X2"]) == 0
    cert = dict(_entry(capsys)["result"]["certificate"])
    good = tmp_path / "good.json"
    good.write_text(json.dumps(cert))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(cert, data=dict(cert["data"], evidence_coefficient=0))))
    # the exit status is the run's own: 0, 1 or 3, with nothing on stderr
    for args, status in (
        (["bs", "--q", "3"], 0),
        (["bs", "--q", "3", "--format", "text"], 0),
        (["verify-witness", "--certificate", str(good)], 0),
        (["verify-witness", "--certificate", str(bad), "--format", "text"], 1),
        (BETA_WITNESS + ["--caps", "max_rank=2"], 3),
    ):
        monkeypatch.setattr("sys.stdout", _ClosedPipe())
        assert main(args) == status, args
        monkeypatch.undo()
        assert capsys.readouterr().err == "", args


_CLOSED_PIPE_AT_EXIT = """
import io
import sys

from resip.cli import main


class Closed(io.RawIOBase):
    def writable(self):
        return True

    def write(self, b):
        raise BrokenPipeError(32, "Broken pipe")


sys.stdout = io.TextIOWrapper(io.BufferedWriter(Closed()), encoding="utf-8")
sys.exit(main(["bs", "--q", "3"]))
"""


def test_closed_stdout_leaves_nothing_for_the_exit_flush():
    # a buffered stdout fails only when it is flushed; the interpreter's
    # flush at exit would print "Exception ignored" and exit 120
    import os
    import pathlib
    import subprocess
    import sys

    import resip

    src = str(pathlib.Path(resip.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _CLOSED_PIPE_AT_EXIT], capture_output=True, text=True, env=env
    )
    assert (done.returncode, done.stderr) == (0, "")


def test_missing_task_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["run", "--tasks", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot read input: [Errno 2] No such file or directory: '{missing}'\n"


def test_input_that_is_not_utf8_exits_2(tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"version": 1, "tasks": [{"id": "\xe9", "kind": "bs", "q": 3}]}')
    for args in (["run", "--tasks", str(latin)], ["verify-witness", "--certificate", str(latin)]):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot read input: 'utf-8' codec can't decode byte 0xe9")


# ---------------------------------------------------------------------------
# the task format, one rule at a time: an accepted and a rejected value,
# and the JSON path the rejection carries

TORUS = {"kind": "torus", "matrix": [[2, 1], [1, 1]], "primes": [2]}
FIBERED = {"kind": "fibered", "rank": 2, "images": ["x2", "x1"], "inverse": ["x2", "x1"],
           "primes_up_to": 5}
BS = {"kind": "bs", "q": 3}
COVER = {"kind": "braid-cover", "strands": 3, "braid": "s1 S2", "modulus": 2,
         "assignments": [1, 1, 1]}
WITNESS = {"kind": "witness", "rank": 2, "images": ["x2", "x1"], "inverse": ["x2", "x1"],
           "p": 3, "element": {"t": 0, "w": "x1"}}
HEISENBERG = {"kind": "extension", "check": "heisenberg"}
CIRCLE = {"kind": "extension", "check": "circle-bundle", "genus": 2, "euler": 3}
COCYCLE = {"kind": "extension", "check": "cocycle", "form": [[0, 1], [0, 0]]}
SL2 = {"kind": "sl2-power", "matrix": [[2, 1], [1, 1]], "p": 5}


def _doc(*tasks, **top) -> str:
    return json.dumps(dict({"version": 1, "tasks": list(tasks)}, **top))


def _rejected_at(text: str) -> str:
    with pytest.raises(SchemaError) as e:
        parse_task_file(text)
    return e.value.path


@pytest.mark.parametrize(
    "task, key, good, bad, where",
    [
        (TORUS, "matrix", [["-12", 1], [1, "0"]], [[1, 2], []], ".matrix[1]"),
        (TORUS, "matrix", [[7]], [], ".matrix"),
        (TORUS, "matrix", [[2, 1], [1, 1]], [[2, "1 "], [1, 1]], ".matrix[0][1]"),
        (COCYCLE, "form", [["3", 1], [0, 0]], [[0, 1.5], [0, 0]], ".form[0][1]"),
        (TORUS, "primes", ["2", 3], [2, 3.0], ".primes[1]"),
        (FIBERED, "primes_up_to", "30", "3O", ".primes_up_to"),
        (BS, "q", "-" + "9" * 30, "12\n", ".q"),
        (BS, "q", 10, True, ".q"),
        (FIBERED, "images", ["x2", "x1"], [], ".images"),
        (FIBERED, "inverse", ["x2", "x1"], ["x2", 1], ".inverse[1]"),
        (BS, "id", "first", 1, ".id"),
        (COVER, "braid", "s1", ["s1"], ".braid"),
        (WITNESS, "element", {"t": "-4", "w": "x1"}, {"t": 0, "w": "x1", "u": 1}, ".element"),
        (WITNESS, "element", {"t": 2, "w": ""}, {"t": 0.5, "w": "x1"}, ".element.t"),
        (WITNESS, "element", {"t": 2, "w": "x2"}, {"t": 0, "w": 2}, ".element.w"),
        (HEISENBERG, "check", "heisenberg", "Heisenberg", ".check"),
        (FIBERED, "rank", 1, 0, ".rank"),
        (COVER, "strands", 2, 1, ".strands"),
        (COVER, "modulus", 1, 0, ".modulus"),
        (SL2, "p", 2, 1, ".p"),
        (SL2, "p", 5, 5.0, ".p"),
        (SL2, "p", 5, "5", ".p"),
        (CIRCLE, "genus", 1, 0, ".genus"),
        (COCYCLE, "coeff_modulus", 2, 1, ".coeff_modulus"),
        (CIRCLE, "euler", -3, "3", ".euler"),
        (COVER, "assignments", [1, -1, 0], [1, "1"], ".assignments[1]"),
        (COVER, "divisors", [[1, -3, 1], [5]], [[1], []], ".divisors[1]"),
        (BS, "kind", "bs", "nonsense", ".kind"),
    ],
)
def test_task_value_rules(task, key, good, bad, where):
    parse_task_file(_doc(dict(task, **{key: good})))
    assert _rejected_at(_doc(dict(task, **{key: bad}))) == "$.tasks[0]" + where


@pytest.mark.parametrize(
    "good, bad",
    [
        (TORUS, dict(TORUS, cap=5)),
        (BS, ["bs", 3]),
        (BS, {"q": 3}),
        (TORUS, {"kind": "torus", "matrix": [[1]]}),
        ({"kind": "torus", "matrix": [[1]], "primes_up_to": 7}, {"kind": "torus", "primes": [2]}),
        ({"kind": "primes", "matrix": [[1]]}, {"kind": "primes"}),
        (FIBERED, {k: v for k, v in FIBERED.items() if k != "primes_up_to"}),
        (FIBERED, {k: v for k, v in FIBERED.items() if k != "inverse"}),
        ({"kind": "bs", "q": 3, "p": 2}, {"kind": "bs", "p": 2}),
        (COVER, {k: v for k, v in COVER.items() if k != "assignments"}),
        (WITNESS, {k: v for k, v in WITNESS.items() if k != "element"}),
        (HEISENBERG, {"kind": "extension", "genus": 2, "euler": 3}),
        (dict(HEISENBERG, form=[[1]]), dict(CIRCLE, check="cocycle")),
        (CIRCLE, {k: v for k, v in CIRCLE.items() if k != "euler"}),
        (COCYCLE, {k: v for k, v in COCYCLE.items() if k != "form"}),
        (SL2, {k: v for k, v in SL2.items() if k != "p"}),
        (TORUS, dict(TORUS, primes_up_to=7)),
        (FIBERED, dict(FIBERED, primes=[2])),
    ],
)
def test_task_key_rules(good, bad):
    parse_task_file(_doc(good))
    assert _rejected_at(_doc(BS, bad)) == "$.tasks[1]"


PRIME_COMMANDS = [
    ["torus", "--matrix", "2 1; 1 1"],
    ["fibered", "--images", "x2; x1", "--inverse", "x2; x1"],
]


@pytest.mark.parametrize("argv", PRIME_COMMANDS, ids=["torus", "fibered"])
def test_an_empty_primes_flag_exits_2_and_names_it(argv, capsys):
    assert main(argv + ["--primes", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("schema error at --primes: bad integer literal")


@pytest.mark.parametrize("argv", PRIME_COMMANDS, ids=["torus", "fibered"])
def test_primes_and_primes_up_to_flags_exclude_each_other(argv, capsys):
    assert _exit_code(argv + ["--primes", "3", "--primes-up-to", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --primes-up-to: not allowed with argument --primes" in captured.err


@pytest.mark.parametrize(
    "text, where",
    [
        (_doc(version=2), "$.version"),
        (_doc(version="1"), "$.version"),
        (_doc(version=1.0), "$.version"),
        (_doc(version=True), "$.version"),
        (_doc(BS, extra=1), "$"),
        (json.dumps({"version": 1}), "$"),
        (json.dumps([]), "$"),
        (_doc(tasks={"0": BS}), "$.tasks"),
    ],
)
def test_top_level_rules(text, where):
    parse_task_file(_doc(BS))
    assert _rejected_at(text) == where


def test_bigints_become_ints():
    torus = dict(TORUS, matrix=[["-12", 1], ["007", "9" * 30]], primes=["2", 3], id="t")
    witness = dict(WITNESS, element={"t": "-4", "w": "x1"})
    first, second, third = parse_task_file(
        _doc(torus, witness, dict(FIBERED, primes_up_to="30"))
    ).tasks
    assert (first.id, first.kind) == ("t", "torus")
    assert first.payload == {"matrix": [[-12, 1], [7, int("9" * 30)]], "primes": [2, 3]}
    assert (second.id, second.payload["element"]) == ("1", {"t": -4, "w": "x1"})
    assert third.payload["primes_up_to"] == 30


def test_schema_errors_exit_2_with_their_path(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text(_doc(dict(SL2, p=5.0)))
    assert main(["run", "--tasks", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("schema error at $.tasks[0].p: 5.0 is not an integer")
    # the single-task subcommands pass through the same validator
    assert main(["sl2-power", "--matrix", "2 1; 1 1", "--p", "1"]) == 2
    assert capsys.readouterr().err.startswith("schema error at $.tasks[0].p:")
    assert main(["braid-cover", "--strands", "1", "--braid", "", "--modulus", "2",
                 "--assignments", "1"]) == 2
    assert capsys.readouterr().err.startswith("schema error at $.tasks[0].strands:")
    assert main(["extension", "--check", "circle-bundle", "--genus", "2"]) == 2
    assert capsys.readouterr().err == "schema error at $.tasks[0]: missing euler\n"


def test_non_square_matrix_is_an_error_entry():
    (entry,) = run_tasks(parse_task_file(_doc(dict(SL2, matrix=[[1, 2], [3]]))))
    assert (entry.status, entry.error) == (
        "error", {"type": "InvalidSpec", "message": "matrix must be square"}
    )


def test_overlong_integers_are_schema_errors(tmp_path, capsys):
    digits = "7" * 5000
    path = tmp_path / "long.json"
    path.write_text('{"version": 1, "tasks": [{"kind": "bs", "q": %s}]}' % digits)
    assert main(["run", "--tasks", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("schema error at $: not valid JSON: Exceeds the limit")
    path.write_text(_doc(dict(BS, q=digits)))
    assert main(["run", "--tasks", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "schema error at $.tasks[0].q: integer of 5000 characters is too long\n"
    assert main(["bs", "--q", digits]) == 2
    assert capsys.readouterr().err.startswith("schema error at $.tasks[0].q:")


def test_deeply_nested_input_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["run", "--tasks", str(path)]) == 2
    assert capsys.readouterr().err.startswith("schema error at $: not valid JSON:")
    assert main(["verify-witness", "--certificate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("schema error at $: malformed certificate")


def test_deeply_nested_components_exit_2(tmp_path, capsys):
    # JSON nests 600 deep, within the parser's reach; the table's does not
    product = _beta_certificates()["product"]
    cert = product
    for _ in range(300):
        cert = dict(product, components=[cert, product["components"][1]])
    status, out, err = _verify(tmp_path, capsys, cert)
    assert (status, out) == (2, "")
    assert err.startswith("schema error at $: malformed certificate: RecursionError: ")


def _wide_gcd_tasks() -> str:
    # every entry has 4300 digits, so the reader accepts it, and det = 1;
    # the gcd it reports, 2^14285, has 4301: more than str() converts
    a = 1 + 2 ** 14284
    return json.dumps({"version": 1, "tasks": [
        {"id": "wide", "kind": "primes", "matrix": [[a, a - 1], [a + 1, a]]},
        {"id": "torus", "kind": "torus", "matrix": [[2, 1], [1, 1]], "primes": [2, 3]},
    ]})


_WIDE_MESSAGE = (
    "the result holds an integer of more than 4300 digits, the limit of "
    "sys.get_int_max_str_digits(), so it cannot be written"
)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_an_unwritable_integer_is_one_error_entry(tmp_path, capsys, fmt):
    path = tmp_path / "tasks.json"
    path.write_text(_wide_gcd_tasks())
    assert main(["run", "--tasks", str(path), "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        wide, torus = json.loads(out)["entries"]
        assert wide == {
            "id": "wide", "kind": "primes", "status": "error",
            "error": {"type": "InvalidSpec", "message": _WIDE_MESSAGE},
        }
        assert torus["status"] == "ok" and len(torus["result"]["verdicts"]) == 2
    else:
        lines = out.splitlines()
        assert lines[0].startswith("task wide [primes] error")
        assert lines[1] == f"  InvalidSpec: {_WIDE_MESSAGE}"
        assert lines[2].startswith("task torus [torus] ok")
        assert lines[3:] == ["  p=2: NotResiduallyP", "  p=3: NotResiduallyP", "  residually nilpotent: False"]


def test_the_writer_turns_the_entry_itself_into_an_error():
    entries = run_tasks(parse_task_file(_wide_gcd_tasks()))
    assert [e.status for e in entries] == ["ok", "ok"]
    json_report = emit_report(entries)
    wide = entries[0]
    assert (wide.status, wide.result) == ("error", None)
    assert wide.error == {"type": "InvalidSpec", "message": _WIDE_MESSAGE}
    # written again, the error entry gives the same report
    assert emit_report(entries) == json_report
    assert json.loads(json_report)["entries"][0]["status"] == "error"



@pytest.mark.parametrize(
    "fmt, writer, limited",
    [
        pytest.param("json", "_json_text", True, id="json-_json_text"),
        pytest.param("text", "_summarize", True, id="text-_summarize"),
        pytest.param("json", "_json_text", False, id="json-_json_text-no-limit"),
        pytest.param("text", "_summarize", False, id="text-_summarize-no-limit"),
    ],
)
def test_a_writer_fault_of_another_kind_is_not_relabelled(monkeypatch, fmt, writer, limited):
    # a ValueError from an entry that holds no integer too long to write is
    # a fault of the writer: it is raised, and the entry is left as it was;
    # also on a Python before 3.10.7, which has no digit limit to read
    from resip import cli

    if not limited:
        monkeypatch.delattr(sys, "get_int_max_str_digits")
    def refuse(*args):
        raise ValueError("a writer fault")

    monkeypatch.setattr(cli, writer, refuse)
    result = {"gcd": 10 ** 4299, "rows": [[-(10 ** 4299) + 1]]}  # 4300 digits
    entry = ReportEntry("wide", "primes", "ok", result=result)
    with pytest.raises(ValueError, match="a writer fault"):
        emit_report([entry], fmt)
    assert (entry.status, entry.result, entry.error) == ("ok", result, None)
