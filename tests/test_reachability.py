"""Every function under src/resip runs for some command or for the README's
library block, or has a stated reason to stay.

A fresh interpreter sets a profile hook before it imports resip, so calls
made at import time count, and then runs the commands of ``corpus``
through ``resip.cli.main``:

* each shipped task file through ``run``, as JSON and as text;
* each subcommand once;
* ``verify-witness`` on every certificate in the golden reports, plus one
  forged copy (exit 1) and one malformed copy (exit 2), and on a product
  of two copies of the golden magnus certificate (exit 0) and of one with
  a wrong count (exit 1);
* the large inputs and refusals that CI runs: ``bs`` at q = 2^90 - 1,
  ``sl2-power`` at p = 2^127 - 1, the 4301-digit ``primes`` entry, the
  rank-4 witness whose certificate is too wide to write, and the
  10^6-strand cover;
* a cap hit, an unknown cap and a malformed task file;
* a 4 x 4 torus whose charpoly(A - I) needs a Hensel lift, which no
  shipped task file does, and a ``bs`` whose q - 1 is a prime n above
  3.317 * 10^24 with n + 1 not a power of two, so that the strong Lucas
  test runs its ladder.

It then runs the README's "Library in one minute" block, the documented
library surface, and reports what it reached apart from the commands.

A function defined under src/resip (found with ``ast``) and that nothing
reached must be listed in ``UNREACHED`` with one of these reasons:
perfbench/tracing.py looks it up; a ROADMAP item names it as a future
caller; a test compares a reached route against it; it serves only
another listed function, whose body loads its name (annotations and
docstrings do not count); or it is a dunder that
``record.Record`` defines, which every record inherits.  An ``__init__``
is named by its class.  ``pgrouplab`` is listed whole: only the
``pgroup`` benchmark workload reaches it (ROADMAP item 17), and none of
its functions may run.  A listed function that is reached, or that is
no longer defined, fails, and so does a reason that does not hold.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from test_readme import _library_block

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "resip"

# The reasons, as (kind, argument).
TRACER = ("tracer", None)  # perfbench/tracing.py looks it up
VALUE = ("value", None)  # a dunder that record.Record defines


def roadmap(item: int) -> tuple:
    """ROADMAP item `item` names it as a future caller."""
    return ("roadmap", item)


def reference(test: str) -> tuple:
    """The test file `test` compares a reached route against it."""
    return ("reference", test)


def serves(name: str) -> tuple:
    """It serves only `name`, a listed function whose body names it."""
    return ("serves", name)


UNREACHED_MODULES = {"pgrouplab": "only the pgroup workload reaches it (ROADMAP item 17)"}

UNREACHED = {
    "braid.CoverGraph.chi": serves("braid.endo_preserves_cover"),
    "braid.CoverGraph.schreier_basis_words": reference("tests/oracles.py"),
    "braid.endo_preserves_cover": reference("tests/test_braid.py"),
    "braid.induced_cover_homology": TRACER,
    "classify.ObstructionResult.__init__": serves("classify.p_power_order_quotient_exists"),
    "classify._column_space": serves("classify.p_power_order_quotient_exists"),
    "classify.p_power_order_quotient_exists": TRACER,
    "classify.torus_residually_p": TRACER,
    "freegrp.FreeWord.from_letters": serves("braid.CoverGraph.schreier_basis_words"),
    "freegrp.is_mod_p_torelli": roadmap(13),
    "intlin.ModMatrix.__init__": reference("tests/test_obstruction.py"),
    "intlin.ModMatrix.__mul__": TRACER,
    "intlin.ModMatrix._trusted": serves("intlin.ModMatrix.__mul__"),
    "intlin.ModMatrix.n": serves("intlin.ModMatrix.__mul__"),
    "intlin.ModMatrix.reduce": serves("classify.p_power_order_quotient_exists"),
    "intlin._add_columns": serves("intlin.hermite_normal_form"),
    "intlin._add_rows": serves("intlin._invariant_factors.clear_column"),
    "intlin._check_modulus": serves("intlin.ModMatrix.__init__"),
    "intlin._gcdex": serves("intlin.hermite_normal_form"),
    "intlin._invariant_factors": serves("intlin.smith_normal_form"),
    "intlin._invariant_factors.clear_column": serves("intlin._invariant_factors"),
    "intlin._invariant_factors.clear_row": serves("intlin._invariant_factors"),
    "intlin._is_prime_power": serves("intlin._check_modulus"),
    "intlin.hermite_normal_form": TRACER,
    "intlin.smith_normal_form": TRACER,
    "magnus.TruncatedSeries.__mul__": TRACER,
    "magnus.TruncatedSeries._compatible": serves("magnus.TruncatedSeries.__mul__"),
    "magnus.magnus_depth": TRACER,
    "record.Record.__delattr__": VALUE,
    "record.Record.__hash__": VALUE,
    "record.Record.__reduce__": VALUE,
    "record.Record.__repr__": VALUE,
    "record.Record.__setattr__": VALUE,
    "witness.combine_witnesses": roadmap(8),
    "witness.induced_automorphism_order": TRACER,
}

BETA = ["--images", "x1 x3 X1; x1; X3 x2 x3", "--inverse", "x2; X2 x1 x2 x3 X2 X1 x2; X2 x1 x2"]

# A tiny driver: read the commands and the library block, hook every
# call, run them, and print the (file, first line) of each function under
# src/resip that ran, for the commands and for the block apart.
_DRIVER = """
import contextlib, io, json, os, sys
codes = set()
sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
job = json.load(sys.stdin)
from resip import cli
for argv, want in job["commands"]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    if status != want:
        sys.exit(f"{argv}: exit {status}, not {want}: {out.getvalue()[-2000:]}")
commands, codes = codes, set()
exec(job["library"], {})
sys.setprofile(None)
src = os.path.dirname(os.path.abspath(cli.__file__))
print(json.dumps({name: sorted({(os.path.relpath(c.co_filename, src), c.co_firstlineno)
                                for c in ran if os.path.dirname(c.co_filename) == src})
                  for name, ran in (("commands", commands), ("library", codes))}))
"""


def _golden_certificates() -> list[dict]:
    found = []

    def walk(node):
        if isinstance(node, dict):
            cert = node.get("certificate")
            if isinstance(cert, dict) and "kind" in cert:
                found.append(cert)
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    for path in sorted((ROOT / "tests" / "golden").glob("*.json")):
        walk(json.loads(path.read_text()))
    return found


def corpus(work: pathlib.Path) -> list:
    """(argv, exit status) of every command the trace runs; files it needs
    are written under work."""

    def file(name, doc) -> str:
        path = work / name
        path.write_text(json.dumps(doc))
        return str(path)

    runs = []
    for path in sorted((ROOT / "tasks").glob("*.json")):
        runs += [(["run", "--tasks", str(path), "--format", fmt], 0) for fmt in ("json", "text")]
    certs = _golden_certificates()
    for i, cert in enumerate(certs):
        runs.append((["verify-witness", "--certificate", file(f"cert-{i}.json", cert)], 0))
    magnus = next(c for c in certs if c["kind"] == "magnus")
    forged = dict(magnus["data"], total_order_bound=int(magnus["data"]["total_order_bound"]) + 1)
    malformed = dict(magnus["data"], evidence_coefficient="x")
    bound = int(magnus["data"]["total_order_bound"])
    product = dict(magnus, kind="product", survivor_t=0, survivor_word="1",
                   data={"total_order_bound": bound ** 2, "count": 2}, components=[magnus, magnus])
    miscounted = dict(product, data=dict(product["data"], count=3))
    runs += [
        (["verify-witness", "--certificate", file("forged.json", dict(magnus, data=forged))], 1),
        (["verify-witness", "--certificate", file("malformed.json", dict(magnus, data=malformed))], 2),
        (["verify-witness", "--certificate", file("product.json", product)], 0),
        (["verify-witness", "--certificate", file("miscounted.json", miscounted)], 1),
    ]
    a = 1 + 2 ** 14284  # the gcd 2^14285 has 4301 digits
    wide = {"version": 1, "tasks": [{"id": "wide", "kind": "primes", "matrix": [[a, a - 1], [a + 1, a]]}]}
    runs += [
        (["torus", "--matrix", "2 1; 1 1", "--primes", "2,3,5"], 0),
        (["torus", "--matrix", "2 1 0 0; 1 1 0 0; 0 0 5 2; 0 0 2 1", "--primes", "2,3"], 0),
        (["primes", "--matrix", "13 8; 8 5"], 0),
        (["bs", "--q", "10"], 0),
        (["bs", "--q", str(2 ** 90 - 1)], 0),
        (["bs", "--q", str(10 ** 25 + 14)], 0),  # q - 1 = 10^25 + 13 is prime
        (["fibered"] + BETA, 0),
        (["braid-cover", "--strands", "3", "--braid", "s1 S2", "--modulus", "2",
          "--assignments", "1,1,1", "--divisor", "1 -3 1"], 0),
        (["witness"] + BETA + ["--p", "3", "--w", "x1 x2 X1 X2"], 0),
        (["witness"] + BETA + ["--p", "3", "--t", "2"], 0),
        (["witness", "--images", "x1;x2;x3;x4", "--inverse", "x1;x2;x3;x4", "--p", "2",
          "--w", " ".join(["x1"] * 8)], 0),
        (["extension", "--check", "heisenberg"], 0),
        (["extension", "--check", "circle-bundle", "--genus", "2", "--euler", "3"], 0),
        (["sl2-power", "--matrix", "2 1; 1 1", "--p", "5"], 0),
        (["sl2-power", "--matrix", "2 1; 1 1", "--p", str(2 ** 127 - 1)], 0),
        (["run", "--tasks", file("wide.json", wide)], 0),
        (["witness", "--images", "x1;x2", "--inverse", "x1;x2", "--p", "3", "--w", "x1 x1 x1",
          "--caps", "magnus_degree=2"], 3),
        (["braid-cover", "--strands", "1000000", "--braid", "s1", "--modulus", "2",
          "--assignments", "1,1"], 3),
        (["bs", "--q", "6", "--caps", "group_order=1"], 2),
        (["run", "--tasks", file("malformed-task.json", {"version": 1, "tasks": [{"kind": "torus"}]})], 2),
    ]
    return runs


@pytest.fixture(scope="module")
def trace(tmp_path_factory) -> dict:
    """"commands" and "library" -> the (file name, first line) of every
    function under src/resip that the corpus, or the README's library
    block, ran in a fresh interpreter."""
    work = tmp_path_factory.mktemp("reachability")
    env = {k: v for k, v in os.environ.items() if k != "RESIP_CAPS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    job = {"commands": corpus(work), "library": _library_block()}
    done = subprocess.run(
        [sys.executable, "-c", _DRIVER], input=json.dumps(job),
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return {part: {tuple(site) for site in sites} for part, sites in json.loads(done.stdout).items()}


@pytest.fixture(scope="module")
def reached(trace) -> set:
    return trace["commands"] | trace["library"]


def _functions() -> dict:
    """module.qualified.name -> (file name, first line, ast node) of every
    function defined under src/resip; a decorated function starts at its
    first decorator, as its code object does."""
    out = {}

    def visit(node, prefix, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[prefix + child.name] = (name, first, child)
                visit(child, prefix + child.name + ".", name)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem + ".", path.name)
    return out


FUNCTIONS = _functions()


def _in_listed_module(name: str) -> bool:
    return name.split(".")[0] in UNREACHED_MODULES


def test_every_unreached_function_is_listed(reached):
    missing = sorted(
        name
        for name, (file, first, _) in FUNCTIONS.items()
        if (file, first) not in reached and name not in UNREACHED and not _in_listed_module(name)
    )
    assert missing == [], "nothing reaches these: call them, delete them, or list a reason"


def test_no_listed_function_is_reached_or_gone(reached):
    gone = sorted(set(UNREACHED) - set(FUNCTIONS))
    assert gone == [], "listed but no longer defined"
    ran = sorted(
        name
        for name, (file, first, _) in FUNCTIONS.items()
        if (file, first) in reached and (name in UNREACHED or _in_listed_module(name))
    )
    assert ran == [], "listed as unreached, yet a command or the library block runs it"
    assert all((SRC / f"{module}.py").exists() for module in UNREACHED_MODULES)


def _tracer_names() -> set:
    names = set()
    for node in ast.parse((ROOT / "perfbench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id in ("TARGETS", "SYMPY_IMPORTED"):
            value = ast.literal_eval(node.value)
            if node.targets[0].id == "TARGETS":
                names |= {f"{module.split('.')[1]}.{path}" for module, path, _, _ in value}
            else:  # bound in resip.intlin
                names |= {f"intlin.{name}" for name in value}
    return names


def _roadmap_item(number: int) -> str:
    text = (ROOT / "ROADMAP.md").read_text()
    match = re.search(rf"^{number}\. .*?(?=^\d+\. |\Z)", text, re.M | re.S)
    assert match, f"ROADMAP has no item {number}"
    return match.group(0)


def _mentions(text: str, word: str) -> bool:
    return re.search(rf"(?<!\w){re.escape(word)}(?!\w)", text) is not None


def _loaded_names(function: ast.AST) -> set:
    """The names and attribute names that the body of a function node
    loads, its nested functions' bodies included; its signature, any
    annotation and its docstring name nothing here."""
    body = ast.Module(body=function.body, type_ignores=[])
    annotations = set()
    for node in ast.walk(body):
        if isinstance(node, ast.arg):
            parts = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parts = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            parts = [node.annotation]
        else:
            continue
        annotations |= {id(sub) for part in parts if part is not None for sub in ast.walk(part)}
    names = set()
    for node in ast.walk(body):
        if id(node) in annotations or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _reason_holds(name: str, reason: tuple) -> bool:
    parts = name.split(".")
    # an __init__ is named by its class
    word = parts[-2] if parts[-1] == "__init__" else parts[-1]
    kind, arg = reason
    if kind == "tracer":
        return name in _tracer_names()
    if kind == "value":
        return parts[:2] == ["record", "Record"] and word.startswith("__") and word.endswith("__")
    if kind == "roadmap":
        return _mentions(_roadmap_item(arg), word)
    if kind == "reference":
        return _mentions((ROOT / arg).read_text(), word)
    if kind == "serves":
        return arg in UNREACHED and word in _loaded_names(FUNCTIONS[arg][2])
    return False


def test_each_listed_reason_holds():
    wrong = sorted(
        f"{name}: {reason}"
        for name, reason in UNREACHED.items()
        if name in FUNCTIONS and not _reason_holds(name, reason)
    )
    assert wrong == []


def test_every_reason_is_of_a_checked_kind():
    kinds = {kind for kind, _ in UNREACHED.values()}
    assert kinds <= {"tracer", "roadmap", "reference", "serves", "value"}
    values = [name for name, (kind, _) in UNREACHED.items() if kind == "value"]
    assert values and all(name.startswith("record.Record.__") for name in values)


def test_the_readme_block_reaches_the_braid_library(trace):
    for name in ("braid.beta_braid", "braid.artin_endo", "freegrp._compose"):
        file, first, _ = FUNCTIONS[name]
        assert (file, first) in trace["library"], name


def test_serves_reads_the_body_not_the_signature():
    # _column_space names ModMatrix only in its annotation
    assert not _reason_holds("intlin.ModMatrix.__init__", serves("classify._column_space"))
    assert _reason_holds("classify._column_space", serves("classify.p_power_order_quotient_exists"))
