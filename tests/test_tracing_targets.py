"""The benchmark's tracer wraps resip names it looks up by string.

``perfbench/tracing.py`` lists them in ``TARGETS``; a rename in ``src/``
would leave a wrapper that fails only when the traced benchmark runs.
This reads that list, without installing the tracer, and resolves each
entry against the current sources.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module_name, path, name, timed", TARGETS, ids=[t[2] for t in TARGETS])
def test_every_traced_name_resolves(module_name, path, name, timed):
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
