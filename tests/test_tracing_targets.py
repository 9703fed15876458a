"""The benchmark's tracer wraps resip names it looks up by string.

``perfbench/tracing.py`` lists them in ``TARGETS``, and ``Tracer.install``
also wraps the names of ``SYMPY_IMPORTED`` that ``resip.intlin`` binds; a
rename or deletion in ``src/`` would leave a wrapper that fails only when
the traced benchmark runs.  This reads both lists, without installing the
tracer, and resolves each entry against the current sources.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _tracing()
# Tracer.install reads the SYMPY_IMPORTED names from sys.modules["resip.intlin"]
TARGETS = _MODULE.TARGETS + tuple(
    ("resip.intlin", name, f"sympy.{name}", True) for name in _MODULE.SYMPY_IMPORTED
)


@pytest.mark.parametrize("module_name, path, name, timed", TARGETS, ids=[t[2] for t in TARGETS])
def test_every_traced_name_resolves(module_name, path, name, timed):
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
