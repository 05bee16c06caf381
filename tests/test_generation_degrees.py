"""Generation degrees from one closure per degree, against re-closing the tower.

``tests/sequences_reference.py`` re-closes the whole tower once for every
candidate degree; the package closes phi_n(V_n) once per n and reads every
generation degree off those flags.  Random seed sets, some of them full
bases of every degree up to a drawn one so that they span the ambient
tower, must give the same generation degree and stability clauses of the
spanned subsequence either way.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

import sequences_reference as ref
from helpers import assert_squares_hold, zero_sequence
from heckestab.qfield import ONE, scal
from heckestab.sequences import (
    build_M_specht,
    build_Mm,
    generation_degree,
    is_uniformly_stable,
    non_finitely_generated,
    shift,
    span,
)

# (name, builder, smallest and largest n_max drawn)
TOWERS = {
    "M(1)": (lambda n_max: build_Mm(1, n_max), 1, 5),
    "M(2)": (lambda n_max: build_Mm(2, n_max), 1, 5),
    "M(S(2,1))": (lambda n_max: build_M_specht((2, 1), n_max), 3, 5),
    "sum_k M(S(k))": (non_finitely_generated, 4, 4),
    "0": (zero_sequence, 3, 3),
}


@functools.cache
def tower(name, n_max):
    return TOWERS[name][0](n_max)


@st.composite
def towers(draw):
    name = draw(st.sampled_from(sorted(TOWERS)))
    _, lo, hi = TOWERS[name]
    return tower(name, draw(st.integers(lo, hi)))


coefficients = st.one_of(
    st.integers(-3, 3).map(scal),
    st.tuples(st.integers(-3, 3), st.integers(1, 3)).map(
        lambda t: scal(Fraction(*t))
    ),
)


@st.composite
def seed_sets(draw, V):
    """Sparse random seeds, plus the full bases of degrees <= k when drawn."""
    seeds = []
    for _ in range(draw(st.integers(0, 4))):
        deg = draw(st.integers(0, V.n_max))
        dim = V.modules[deg].dim
        vec = {}
        if dim:
            support = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=3))
            vec = {i: draw(coefficients) for i in sorted(support)}
        seeds.append((deg, vec))
    k = draw(st.one_of(st.none(), st.integers(0, V.n_max)))
    if k is not None:
        seeds += [
            (n, {i: ONE}) for n in range(k + 1) for i in range(V.modules[n].dim)
        ]
    return draw(st.permutations(seeds))


@settings(max_examples=60)
@given(st.data())
def test_span_and_subsequence_match_reference(data):
    V = data.draw(towers())
    seeds = data.draw(seed_sets(V))
    sub = span(V, seeds)
    event(f"spans_ambient={sub.dims() == V.dims()}")
    assert generation_degree(sub) == ref.generation_degree(sub)
    assert is_uniformly_stable(sub)["clauses"] == ref.stability_clauses(sub)


@settings(max_examples=60)
@given(st.data())
def test_span_and_its_shifts_keep_the_squares(data):
    # span and shift build unchecked; run the checks they skip
    V = data.draw(towers())
    sub = span(V, data.draw(seed_sets(V)))
    for a in range(sub.n_max + 1):
        assert_squares_hold(shift(sub, a))


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_whole_towers_match_reference(name):
    V = tower(name, TOWERS[name][2])
    assert generation_degree(V) == ref.generation_degree(V)
    assert is_uniformly_stable(V)["clauses"] == ref.stability_clauses(V)
