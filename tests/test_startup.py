"""No `resip` call imports sympy, jsonschema, dataclasses or inspect.

All are slow to import (sympy alone was most of the start-up of a call).
resip imports sympy nowhere: primality above the deterministic
Miller-Rabin bound is the in-tree strong Baillie-PSW test, still a
probable-prime answer there, and sympy serves only the tests as an
oracle.  Task files are validated in-tree, by the field table in
resip.cli, so jsonschema is needed nowhere.  The records are
resip.record.Record classes, not dataclasses, whose decorator compiles
generated methods at import and whose module loads inspect.  One fresh
interpreter runs verify-witness, every shipped task file, every other
subcommand and the README's CLI examples, and reports what it has loaded;
another, with sympy blocked, runs every shipped task file and two
commands on primes above that bound, and gives the same report bytes.
A third, started without site (``python -S``), runs a task file and
``bs`` and loads no typing: the annotations import nothing from it.
"""

import json
import os
import pathlib
import shlex
import subprocess
import sys

from test_readme import _cli_block_lines

import resip
from resip.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
IMAGES = "x1 x3 X1; x1; X3 x2 x3"
INVERSE = "x2; X2 x1 x2 x3 X2 X1 x2; X2 x1 x2"

SCRIPT = """
import contextlib, io, json, sys
from resip.cli import main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)

for argv in [["verify-witness", "--certificate", sys.argv[1]]] + json.loads(sys.argv[2]):
    run(argv)
unwanted = ("sympy", "jsonschema", "dataclasses", "inspect")
print(json.dumps(sorted(m for m in unwanted if m in sys.modules)))
"""


def _commands() -> list[list[str]]:
    commands = [["run", "--tasks", str(p)] for p in sorted((ROOT / "tasks").glob("*.json"))]
    commands += [
        ["torus", "--matrix", "2 1; 1 1", "--primes-up-to", "100"],
        ["torus", "--matrix", "3 1 0; 1 1 1; 0 1 2", "--primes", "2,3,5"],
        ["primes", "--matrix", "13 8; 8 5"],
        ["bs", "--q", "10"],
        ["fibered", "--images", IMAGES, "--inverse", INVERSE, "--primes", "2,3,7"],
        ["braid-cover", "--strands", "3", "--braid", "s1 S2", "--modulus", "2",
         "--assignments", "1,1,1", "--divisor", "1 -3 1"],
        ["witness", "--images", IMAGES, "--inverse", INVERSE, "--p", "3", "--w", "x1 X2"],
        ["extension", "--check", "circle-bundle", "--genus", "2", "--euler", "3"],
        ["sl2-power", "--matrix", "2 1; 1 1", "--p", "5"],
    ]
    commands += [shlex.split(line, comments=True)[1:] for line in _cli_block_lines()]
    return commands


def test_cli_calls_import_no_sympy_jsonschema_dataclasses_or_inspect(tmp_path, capsys):
    assert main(["witness", "--images", IMAGES, "--inverse", INVERSE, "--p", "3",
                 "--w", "x1 X2"]) == 0
    report = json.loads(capsys.readouterr().out)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(report["entries"][0]["result"]["certificate"]))
    src = str(pathlib.Path(resip.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cert), json.dumps(_commands())],
        env=dict(os.environ, PYTHONPATH=src),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(out.stdout)
    assert loaded == []


def test_import_cli_leaves_the_polynomial_factoriser_out():
    # polyfactor loads with the first lattice chain a task asks for.
    # pgrouplab loads with the package: the benchmark's tracer looks it up
    # in sys.modules after its worker has imported only resip.cli
    src = str(pathlib.Path(resip.__file__).resolve().parent.parent)
    script = "import json, sys, resip.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert "resip.polyfactor" not in json.loads(out.stdout)


BLOCKED = """
import contextlib, io, json, sys
sys.modules["sympy"] = None  # every import of sympy raises ImportError
from resip.cli import main

out = []
for argv in json.loads(sys.argv[1]):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    out.append([code, buffer.getvalue()])
print(json.dumps(out))
"""

M127 = str(2**127 - 1)
# q - 1 = 2 (2^89 - 1): factoring it tests a cofactor above the
# Miller-Rabin bound
Q90 = str(2**90 - 1)
LARGE_PRIME_REPORTS = {
    ("sl2-power", "--matrix", "2 1; 1 1", "--p", M127): """{
  "entries": [
    {
      "id": "0",
      "kind": "sl2-power",
      "result": {
        "k": "170141183460469231731687303715884105728",
        "p": "170141183460469231731687303715884105727"
      },
      "status": "ok"
    }
  ],
  "version": "resip-report/1"
}
""",
    ("bs", "--q", Q90): """{
  "entries": [
    {
      "id": "0",
      "kind": "bs",
      "result": {
        "omega_nilpotent": true,
        "q": "1237940039285380274899124223",
        "residually_p_primes": {
          "all_primes": false,
          "gcd": "1237940039285380274899124222",
          "primes": [
            2,
            "618970019642690137449562111"
          ]
        },
        "trivial_case": false
      },
      "status": "ok"
    }
  ],
  "version": "resip-report/1"
}
""",
}


def test_reports_are_unchanged_with_sympy_blocked():
    tasks = sorted((ROOT / "tasks").glob("*.json"))
    commands = [["run", "--tasks", str(p)] for p in tasks] + [list(c) for c in LARGE_PRIME_REPORTS]
    expected = [(ROOT / "tests" / "golden" / p.name).read_text() for p in tasks]
    expected += list(LARGE_PRIME_REPORTS.values())
    src = str(pathlib.Path(resip.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", BLOCKED, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=src),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == [[0, report] for report in expected]


NO_SITE = """
import contextlib, io, json, sys
from resip.cli import main

codes = []
for argv in (["run", "--tasks", sys.argv[1]], ["bs", "--q", "10"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([codes, "typing" in sys.modules]))
"""


def test_cli_calls_without_site_import_no_typing():
    # Under python -S only resip and the standard library can load typing;
    # with site, a .pth file in site-packages may load it before resip runs.
    # The torus task file also loads the lazily imported polyfactor.
    src = str(pathlib.Path(resip.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", NO_SITE, str(ROOT / "tasks" / "torus-bundles.json")],
        env=dict(os.environ, PYTHONPATH=src),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == [[0, 0], False]
