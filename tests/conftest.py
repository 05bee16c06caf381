"""Hypothesis settings for the whole suite.

Exact arithmetic over Q(q) has no useful per-example time limit: an
example's cost depends on the degrees it draws and on the host, so the
default 200 ms deadline only makes the suite flaky on slow machines.
"""

from hypothesis import settings

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")
