"""The examples in the module docstrings run as part of the suite."""

import doctest

import pytest

from heckestab import linalg, partitions, qfield, symgroup


@pytest.mark.parametrize(
    "module", [qfield, symgroup, partitions, linalg], ids=lambda m: m.__name__
)
def test_examples_pass(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
