"""The examples in the module docstrings run as part of the suite."""

import doctest

import pytest

from heckestab import hecke, linalg, partitions, qfield, specht, symgroup


@pytest.mark.parametrize(
    "module",
    [qfield, symgroup, partitions, linalg, hecke, specht],
    ids=lambda m: m.__name__,
)
def test_examples_pass(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
