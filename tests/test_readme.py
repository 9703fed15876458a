"""The README's CLI examples run as written."""

import pathlib
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
