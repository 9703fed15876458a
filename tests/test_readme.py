"""The README's CLI examples and library block run as written."""

import ast
import pathlib
import re
import shlex

from resip.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _cli_block_lines() -> list[str]:
    """The ``resip ...`` lines of the first sh block under "## CLI"."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("resip ")]


def test_readme_cli_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the examples name task files relative to the root
    lines = _cli_block_lines()
    assert len(lines) >= 5
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert main(argv[1:]) == 0, line
        assert capsys.readouterr().out


def _library_block() -> str:
    """The python block under "## Library in one minute"."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library in one minute\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_gives_its_commented_values():
    # a line whose comment opens with a literal is an expression with that value
    namespace: dict = {}
    checked = []
    for line in _library_block().splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        literal = re.match(r"\s*('[^']*'|\([^)]*\)|True|False)", comment)
        if literal is None:
            exec(code, namespace)
        else:
            expected = ast.literal_eval(literal.group(1))
            assert eval(code, namespace) == expected, line
            checked.append(expected)
    assert checked == [
        "NotResiduallyP",
        (2,),
        "ResiduallyP",
        ("NotResiduallyP", "ResiduallyP"),
        True,
    ]
