"""Hypothesis caches the constants it finds in local source files under
its home directory, which defaults to ``.hypothesis/`` in the working
directory, even with ``database=None``.  Point it at a temporary directory
for the run, so that testing leaves nothing in the checkout."""

import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.mkdtemp(prefix="resip-hypothesis-")


def pytest_configure(config):
    set_hypothesis_home_dir(_HOME)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(_HOME, ignore_errors=True)
