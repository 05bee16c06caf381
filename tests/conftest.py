"""Hypothesis settings and process memos for the whole suite.

Exact arithmetic over Q(q) has no useful per-example time limit: an
example's cost depends on the degrees it draws and on the host, so the
default 200 ms deadline only makes the suite flaky on slow machines.

M(m) and M(S^lam) are kept per process (``build_Mm``, ``build_M_specht``),
and so are the content keys whose relations held (``hecke._checked``) and
the decompositions by content key (``specht._decompositions``).  Each test
starts and ends with none kept, so a test that patches a build step, the
relation check or a decomposition sees it run, and what it made under a
patch dies with it.
"""

import pytest
from hypothesis import settings

from heckestab import hecke, sequences, specht

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def fresh_memos():
    memos = (
        sequences._Mm_layout,
        sequences._M_specht,
        hecke._checked,
        specht._decompositions,
    )
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
