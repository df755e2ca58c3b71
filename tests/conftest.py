"""Shared test settings.

Every property test runs under one hypothesis profile: examples come from a
fixed seed, no example database is read or written, and no example has a
deadline, so every run draws the same examples.  Each test sets its own
``max_examples``.

Hypothesis still keeps other files (such as ``constants/``) under its home
directory, which defaults to ``.hypothesis`` in the working directory; the
session points it at a temporary directory and removes that at the end.
"""

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("cheblink", derandomize=True, database=None, deadline=None)
settings.load_profile("cheblink")

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    home = tempfile.mkdtemp(prefix="cheblink-hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)
