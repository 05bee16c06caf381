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
"""

from heckestab.linalg import EchelonBasis, ExactMatrix, vec_add_scaled, vec_scale
from heckestab.qfield import ONE, ZERO


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
