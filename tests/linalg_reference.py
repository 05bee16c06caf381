"""Reference solve, kernel and quotient: each with an elimination of its own.

This is how ``heckestab.linalg`` solved, found kernels and built quotients
before all three read their answers off ``EchelonBasis.reduce``.  It is
kept only as the slow, obviously correct side of the differential tests:

  * ``kernel_basis`` reduces the columns of [M; I] and keeps the
    bookkeeping part of every column whose real part reduces to zero;
  * ``solve_unique`` eliminates the columns twice, the second time
    tracking each echelon vector as a combination of the columns;
  * ``quotient_structure`` runs a full Gauss-Jordan pass over the echelon
    basis and reads the projection off the fully reduced vectors; it
    returns (projection, section, induced).

All three run on ``EchelonBasis`` below, the unreduced echelon basis the
package kept before its basis became reduced: a stored vector is the
residue it had when inserted, so it may be nonzero at pivots stored after
it, and a reduction walks the pivots in ascending order.
"""

from heckestab.linalg import ExactMatrix, vec_add_scaled, vec_scale
from heckestab.qfield import ONE, ZERO


class EchelonBasis:
    """An incrementally built echelon basis of a span of sparse vectors.

    Each stored vector is normalised to have coefficient 1 at its pivot
    (the smallest nonzero coordinate) and pivots are pairwise distinct.
    """

    def __init__(self):
        self.pivots: dict = {}  # pivot index -> position in self.vectors
        self.vectors: list = []
        self.pivot_order: list = []  # pivots sorted ascending

    def __len__(self):
        return len(self.vectors)

    def reduce(self, vec: dict) -> dict:
        """Return the residue of ``vec`` after reduction, as a fresh dict."""
        v = {i: c for i, c in vec.items() if c}
        for p in self.pivot_order:
            c = v.get(p)
            if c:
                vec_add_scaled(v, self.vectors[self.pivots[p]], -c)
        return v

    def insert(self, vec: dict):
        """Reduce and, if independent, insert; returns the new pivot or None."""
        v = self.reduce(vec)
        if not v:
            return None
        p = min(v.keys())
        lead = v[p]
        if not lead.is_one():
            v = vec_scale(v, ONE / lead)
        self.pivots[p] = len(self.vectors)
        self.vectors.append(v)
        self.pivot_order.append(p)
        self.pivot_order.sort()
        return p

    def coordinates(self, vec: dict):
        """Coordinates of ``vec`` in this basis, or None if not in the span."""
        v = {i: c for i, c in vec.items() if c}
        coords = [ZERO] * len(self.vectors)
        for p in self.pivot_order:
            c = v.get(p)
            if c:
                coords[self.pivots[p]] = c
                vec_add_scaled(v, self.vectors[self.pivots[p]], -c)
        if v:
            return None
        return coords


def kernel_basis(matrix: ExactMatrix) -> list:
    n = matrix.rows
    basis = EchelonBasis()
    kernel = []
    for j, col in enumerate(matrix.columns()):
        v = dict(col)
        v[n + j] = ONE
        residue = basis.reduce(v)
        real = {i: c for i, c in residue.items() if i < n}
        if real:
            basis.insert(residue)
        else:
            kernel.append({i - n: c for i, c in residue.items() if i >= n})
    return kernel


def solve_unique(matrix: ExactMatrix, rhs: dict) -> list:
    basis = EchelonBasis()
    for col in matrix.columns():
        if basis.insert(col) is None:
            raise ValueError("matrix does not have full column rank")
    coords = basis.coordinates(dict(rhs))
    if coords is None:
        raise ValueError("inconsistent linear system")
    change = []  # change[t] = coords of echelon vector t in original columns
    basis2 = EchelonBasis()
    for j, col in enumerate(matrix.columns()):
        v = {i: c for i, c in col.items() if c}
        combo = {j: ONE}
        for p in basis2.pivot_order:
            c = v.get(p)
            if c:
                t = basis2.pivots[p]
                vec_add_scaled(v, basis2.vectors[t], -c)
                vec_add_scaled(combo, change[t], -c)
        p = min(v)
        lead = v[p]
        if not lead.is_one():
            inv = ONE / lead
            v = vec_scale(v, inv)
            combo = vec_scale(combo, inv)
        basis2.pivots[p] = len(basis2.vectors)
        basis2.vectors.append(v)
        basis2.pivot_order.append(p)
        basis2.pivot_order.sort()
        change.append(combo)
    out = [ZERO] * matrix.cols
    for t, c in enumerate(coords):
        if c:
            for j, x in change[t].items():
                out[j] = out[j] + c * x
    return out


def quotient_structure(dim: int, subspace_vectors, maps=()) -> tuple:
    basis = EchelonBasis()
    for v in subspace_vectors:
        basis.insert(dict(v))
    # full Gauss-Jordan: clear every pivot coordinate from the other vectors
    reduced = [dict(v) for v in basis.vectors]
    for v in reduced:
        for p in basis.pivot_order:
            if p == min(v):
                continue
            c = v.get(p)
            if c:
                vec_add_scaled(v, reduced[basis.pivots[p]], -c)
    pivot_set = set(basis.pivot_order)
    free = [j for j in range(dim) if j not in pivot_set]
    proj_entries = {}
    for t, j in enumerate(free):
        proj_entries[(t, j)] = ONE
    for v in reduced:
        p = min(v)
        for t, j in enumerate(free):
            c = v.get(j)
            if c:
                proj_entries[(t, p)] = -c
    projection = ExactMatrix(len(free), dim, proj_entries)
    section = ExactMatrix(dim, len(free), {(j, t): ONE for t, j in enumerate(free)})
    induced = []
    for m in maps:
        if m.rows != dim or m.cols != dim:
            raise ValueError("shape mismatch")
        ind = projection @ m @ section
        if projection @ m != ind @ projection:
            raise ValueError("not invariant")
        induced.append(ind)
    return projection, section, induced
