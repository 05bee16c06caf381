"""Hypothesis settings and process memos for the whole suite.

Exact arithmetic over Q(q) has no useful per-example time limit: an
example's cost depends on the degrees it draws and on the host, so the
default 200 ms deadline only makes the suite flaky on slow machines.

The package keeps towers, splits, verified modules, relation checks and
decompositions per process.  Each test starts and ends with none kept:
``verify.clear_memos`` finds every memo by its declaration, the loaded
tower's included: the same discovery the battery uses between its
passes.  So a test that patches a build step, the relation check or a
decomposition sees it run, what it made under a patch dies with it, and
a new memo needs no entry here.
"""

import pytest
from hypothesis import settings

from heckestab import verify

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def fresh_memos():
    verify.clear_memos()
    yield
    verify.clear_memos()
