"""Reference coinvariant quotients: one elimination per retained rank.

This is how ``heckestab.specht`` built the quotient of V by its tail
coinvariants before every rank was read off one echelon basis: for each a
on its own, the columns of T_{s_j} - q for j = a+1, ..., N-1 are inserted
in ascending j, and column j of the projection is the residue of the unit
vector e_j, read in the non-pivot coordinates.  It is kept only as the
slow side of the differential tests.
"""

from helpers import from_columns
from heckestab.hecke import ModulePresentation
from heckestab.linalg import EchelonBasis, ExactMatrix, QuotientStructure
from heckestab.qfield import ONE, Q


def quotient_structure(dim: int, subspace_vectors, maps=()) -> QuotientStructure:
    """Quotient of k^dim by the span of the vectors; projection by reduce(e_j)."""
    basis = EchelonBasis()
    for v in subspace_vectors:
        basis.insert(v)
    free = [j for j in range(dim) if j not in basis.pivots]
    where = {j: t for t, j in enumerate(free)}
    projection = from_columns(
        len(free),
        ({where[i]: c for i, c in basis.reduce({j: ONE}).items()} for j in range(dim)),
    )
    section = ExactMatrix(dim, len(free), {(j, t): ONE for t, j in enumerate(free)})
    induced = []
    for m in maps:
        ind = projection @ m @ section
        if projection @ m != ind @ projection:
            raise ValueError("not invariant")
        induced.append(ind)
    return QuotientStructure(projection, section, induced)


def coinvariant_quotient(V: ModulePresentation, a: int):
    """(quotient over H_a, QuotientStructure) of V by its tail coinvariants."""
    N = V.n
    if not 0 <= a <= N:
        raise ValueError(f"retained rank {a} outside 0..{N}")
    subspace = []
    eye = ExactMatrix.identity(V.dim)
    for j in range(a + 1, N):
        g = V.gen_action[j - 1] - eye.scale(Q)
        subspace.extend(g.columns())
    front = V.gen_action[: max(a - 1, 0)]
    qs = quotient_structure(V.dim, subspace, front)
    quotient = ModulePresentation(a, qs.quotient_dim, qs.induced, check=False)
    return quotient, qs
