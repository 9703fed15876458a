"""Every function under src/resip runs for some command, or has a stated reason to stay.

A fresh interpreter sets a profile hook before it imports resip, so calls
made at import time count, and then runs the commands of ``corpus``
through ``resip.cli.main``:

* each shipped task file through ``run``, as JSON and as text;
* each subcommand once;
* ``verify-witness`` on every certificate in the golden reports, plus one
  forged copy (exit 1) and one malformed copy (exit 2);
* the large inputs and refusals that CI runs: ``bs`` at q = 2^90 - 1,
  ``sl2-power`` at p = 2^127 - 1, the 4301-digit ``primes`` entry, the
  rank-4 witness whose certificate is too wide to write, and the
  10^6-strand cover;
* a cap hit, an unknown cap and a malformed task file;
* a 4 x 4 torus whose charpoly(A - I) needs a Hensel lift, which no
  shipped task file does, and a ``bs`` whose q - 1 is a prime n above
  3.317 * 10^24 with n + 1 not a power of two, so that the strong Lucas
  test runs its ladder.

A function defined under src/resip (found with ``ast``) and that no
call reached must be listed in ``UNREACHED`` with one of these reasons:
perfbench/tracing.py looks it up; the README names it; a ROADMAP item
names it as a future caller; a test compares a reached route against it;
it is an operator or constructor of a value type; or it serves only
another listed function.  ``pgrouplab`` is listed whole: only the
``pgroup`` benchmark workload reaches it (ROADMAP item 17), and none of
its functions may run for a command.  A listed function that a command
reaches, or that is no longer defined, fails, and so does a reason that
does not hold.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "resip"

# The reasons, as (kind, argument).
TRACER = ("tracer", None)  # perfbench/tracing.py looks it up
README = ("readme", None)  # the README names it
VALUE = ("value", None)  # an operator or constructor of a value type


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
    "braid.BraidWord.__mul__": VALUE,
    "braid.BraidWord.__pow__": VALUE,
    "braid.BraidWord.inverse": VALUE,
    "braid.CoverGraph.chi": serves("braid.endo_preserves_cover"),
    "braid.CoverGraph.schreier_basis_words": reference("tests/oracles.py"),
    "braid._elementary_endo": serves("braid.artin_endo"),
    "braid.artin_endo": README,
    "braid.beta_braid": README,
    "braid.endo_preserves_cover": reference("tests/test_braid.py"),
    "braid.induced_cover_homology": TRACER,
    "classify.ObstructionResult.__init__": VALUE,
    "classify._column_space": serves("classify.p_power_order_quotient_exists"),
    "classify.p_power_order_quotient_exists": TRACER,
    "classify.torus_residually_p": TRACER,
    "freegrp.FreeEndo.from_letters": VALUE,
    "freegrp.FreeEndo.from_letters.words": serves("freegrp.FreeEndo.from_letters"),
    "freegrp.FreeEndo.identity": VALUE,
    "freegrp.FreeEndo.inverse_endo": VALUE,
    "freegrp.FreeWord.__len__": VALUE,
    "freegrp.FreeWord.__mul__": VALUE,
    "freegrp.FreeWord.from_letters": VALUE,
    "freegrp.FreeWord.generator": VALUE,
    "freegrp.FreeWord.inverse": VALUE,
    "freegrp._compose": serves("braid.artin_endo"),
    "freegrp.commutator": VALUE,
    "freegrp.compose_endos": VALUE,
    "freegrp.conjugate": VALUE,
    "freegrp.endo_power": VALUE,
    "freegrp.inner_automorphism": VALUE,
    "freegrp.is_mod_p_torelli": roadmap(13),
    "freegrp.nielsen_transvection": VALUE,
    "freegrp.nielsen_transvection.moved": serves("freegrp.nielsen_transvection"),
    "intlin.IntMatrix.__add__": VALUE,
    "intlin.IntMatrix.__mul__": VALUE,
    "intlin.IntMatrix.__pow__": VALUE,
    "intlin.IntMatrix.__sub__": VALUE,
    "intlin.IntMatrix._check_dim": serves("intlin.IntMatrix.__add__"),
    "intlin.IntMatrix.identity": VALUE,
    "intlin.ModMatrix.__init__": VALUE,
    "intlin.ModMatrix.__mul__": TRACER,
    "intlin.ModMatrix._trusted": VALUE,
    "intlin.ModMatrix.identity": VALUE,
    "intlin.ModMatrix.n": serves("intlin.ModMatrix.__mul__"),
    "intlin.ModMatrix.reduce": VALUE,
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
    "magnus.TruncatedSeries.__add__": VALUE,
    "magnus.TruncatedSeries.__hash__": VALUE,
    "magnus.TruncatedSeries.__mul__": TRACER,
    "magnus.TruncatedSeries.__repr__": VALUE,
    "magnus.TruncatedSeries.__sub__": VALUE,
    "magnus.TruncatedSeries._compatible": serves("magnus.TruncatedSeries.__mul__"),
    "magnus.TruncatedSeries._plus": serves("magnus.TruncatedSeries.__add__"),
    "magnus.TruncatedSeries.one": VALUE,
    "magnus.magnus_depth": TRACER,
    "record.Record.__delattr__": VALUE,
    "record.Record.__hash__": VALUE,
    "record.Record.__reduce__": VALUE,
    "record.Record.__repr__": VALUE,
    "record.Record.__setattr__": VALUE,
    "witness._order_bound": serves("witness.combine_witnesses"),
    "witness._same_torus": roadmap(8),
    "witness.combine_witnesses": roadmap(8),
    "witness.induced_automorphism_order": TRACER,
}

BETA = ["--images", "x1 x3 X1; x1; X3 x2 x3", "--inverse", "x2; X2 x1 x2 x3 X2 X1 x2; X2 x1 x2"]

# A tiny driver: read the corpus, hook every call, run it, and print the
# (file, first line) of each function under src/resip that ran.
_DRIVER = """
import contextlib, io, json, os, sys
codes = set()
sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
corpus = json.load(sys.stdin)
from resip import cli
for argv, want in corpus:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    if status != want:
        sys.exit(f"{argv}: exit {status}, not {want}: {out.getvalue()[-2000:]}")
sys.setprofile(None)
src = os.path.dirname(os.path.abspath(cli.__file__))
print(json.dumps(sorted({(os.path.relpath(c.co_filename, src), c.co_firstlineno)
                         for c in codes if os.path.dirname(c.co_filename) == src})))
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
    runs += [
        (["verify-witness", "--certificate", file("forged.json", dict(magnus, data=forged))], 1),
        (["verify-witness", "--certificate", file("malformed.json", dict(magnus, data=malformed))], 2),
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
def reached(tmp_path_factory) -> set:
    """(file name, first line) of every function under src/resip that the
    corpus ran, in a fresh interpreter."""
    work = tmp_path_factory.mktemp("reachability")
    env = {k: v for k, v in os.environ.items() if k != "RESIP_CAPS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-c", _DRIVER], input=json.dumps(corpus(work)),
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return {tuple(site) for site in json.loads(done.stdout)}


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
CLASSES = {
    node.name
    for path in SRC.glob("*.py")
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, ast.ClassDef)
}


def _in_listed_module(name: str) -> bool:
    return name.split(".")[0] in UNREACHED_MODULES


def test_every_unreached_function_is_listed(reached):
    missing = sorted(
        name
        for name, (file, first, _) in FUNCTIONS.items()
        if (file, first) not in reached and name not in UNREACHED and not _in_listed_module(name)
    )
    assert missing == [], "no command reaches these: call them, delete them, or list a reason"


def test_no_listed_function_is_reached_or_gone(reached):
    gone = sorted(set(UNREACHED) - set(FUNCTIONS))
    assert gone == [], "listed but no longer defined"
    ran = sorted(
        name
        for name, (file, first, _) in FUNCTIONS.items()
        if (file, first) in reached and (name in UNREACHED or _in_listed_module(name))
    )
    assert ran == [], "listed as unreached, yet a command runs it"
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


def _mentions(text: str, name: str) -> bool:
    return re.search(rf"(?<!\w){re.escape(name.split('.')[-1])}(?!\w)", text) is not None


def _reason_holds(name: str, reason: tuple) -> bool:
    _, _, node = FUNCTIONS[name]
    bare = name.split(".")[-1]
    kind, arg = reason
    if kind == "tracer":
        return name in _tracer_names()
    if kind == "readme":
        return _mentions((ROOT / "README.md").read_text(), name)
    if kind == "value":
        # a dunder of a class, or a function or method that returns a
        # value of a class defined under src/resip
        in_class = len(name.split(".")) == 3 and name.split(".")[1] in CLASSES
        returns = node.returns
        named = returns.value if isinstance(returns, ast.Constant) else getattr(returns, "id", None)
        return (in_class and bare.startswith("__") and bare.endswith("__")) or named in CLASSES
    if kind == "roadmap":
        return _mentions(_roadmap_item(arg), name)
    if kind == "reference":
        return _mentions((ROOT / arg).read_text(), name)
    if kind == "serves":
        return arg in UNREACHED and _mentions(ast.unparse(FUNCTIONS[arg][2]), name)
    return False


def test_each_listed_reason_holds():
    wrong = sorted(
        f"{name}: {reason}"
        for name, reason in UNREACHED.items()
        if name in FUNCTIONS and not _reason_holds(name, reason)
    )
    assert wrong == []
