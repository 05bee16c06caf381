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

The sparse kernels here do full arithmetic on every entry, as the package
did before its kernels skipped the trivial steps: each contribution is
added to the entry it lands on (``u.get(i, ZERO) + c * x``), zero
included, and a stored vector's pivot entry is cancelled by subtraction
like any other.  ``matmul``, ``apply``, ``add``, ``sub``, ``neg``,
``scale``, ``vec_add_scaled`` and ``ReducedEchelonBasis`` (the package's
reduced basis, on these kernels) are the reference for the package's
shortcuts, which must give the same keys in the same order and the same
(num, den) on every entry.
"""

from heckestab.linalg import ExactMatrix
from heckestab.qfield import ONE, ZERO, scal


def vec_add_scaled(u: dict, v: dict, c) -> None:
    """In place: u += c*v."""
    if not c:
        return
    for i, x in v.items():
        w = u.get(i, ZERO) + c * x
        if w:
            u[i] = w
        else:
            u.pop(i, None)


def vec_scale(v: dict, c) -> dict:
    return {i: x * c for i, x in v.items()} if c else {}


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a @ b, every product added to its entry."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    rows_of_b = [dict() for _ in range(b.rows)]
    for (k, j), v in b.entries.items():
        rows_of_b[k][j] = v
    acc: dict = {}
    for (i, k), u in a.entries.items():
        for j, v in rows_of_b[k].items():
            w = acc.get((i, j), ZERO) + u * v
            if w:
                acc[(i, j)] = w
            else:
                acc.pop((i, j), None)
    return ExactMatrix(a.rows, b.cols, acc)


def add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a + b, every entry of b added to its entry of a."""
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch")
    entries = dict(a.entries)
    for key, v in b.entries.items():
        w = entries.get(key, ZERO) + v
        if w:
            entries[key] = w
        else:
            entries.pop(key, None)
    return ExactMatrix(a.rows, a.cols, entries)


def neg(a: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(a.rows, a.cols, {key: -v for key, v in a.entries.items()})


def sub(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a - b as a + (-b), a negated copy of b first."""
    return add(a, neg(b))


def scale(a: ExactMatrix, c) -> ExactMatrix:
    c = scal(c)
    entries = {key: v * c for key, v in a.entries.items()} if c else {}
    return ExactMatrix(a.rows, a.cols, entries)


def apply(matrix: ExactMatrix, vec: dict) -> dict:
    """The image of a sparse column vector, every product added to its entry."""
    cols = matrix.columns()
    out: dict = {}
    for j, c in vec.items():
        if not c:
            continue
        for i, v in cols[j].items():
            w = out.get(i, ZERO) + v * c
            if w:
                out[i] = w
            else:
                out.pop(i, None)
    return out


class ReducedEchelonBasis:
    """The package's reduced echelon basis, on the full-arithmetic kernels.

    Each stored vector is 1 at its pivot and 0 at every other stored
    pivot; a reduction subtracts vec[p] v_p for each pivot p in the
    support of vec, the entry at p included.
    """

    def __init__(self):
        self.pivots: dict = {}
        self.vectors: list = []

    def __len__(self):
        return len(self.vectors)

    def reduce(self, vec: dict) -> dict:
        v = {i: c for i, c in vec.items() if c}
        for p, c in [(p, c) for p, c in v.items() if p in self.pivots]:
            vec_add_scaled(v, self.vectors[self.pivots[p]], -c)
        return v

    def insert(self, vec: dict):
        v = self.reduce(vec)
        if not v:
            return None
        p = min(v.keys())
        if p in self.pivots:
            raise ValueError(f"echelon basis not reduced: pivot {p} is already stored")
        lead = v[p]
        if not lead.is_one():
            v = vec_scale(v, ONE / lead)
        for u in self.vectors:
            c = u.get(p)
            if c:
                vec_add_scaled(u, v, -c)
        self.pivots[p] = len(self.vectors)
        self.vectors.append(v)
        return p

    def quotient(self, dim: int, maps=()) -> tuple:
        """(projection, section, induced), read off the reduced vectors."""
        free = [j for j in range(dim) if j not in self.pivots]
        where = {j: t for t, j in enumerate(free)}
        entries = {}
        for j in range(dim):
            t = self.pivots.get(j)
            if t is None:
                entries[(where[j], j)] = ONE
                continue
            for i, c in self.vectors[t].items():
                if i != j:
                    entries[(where[i], j)] = -c
        projection = ExactMatrix(len(free), dim, entries)
        section = ExactMatrix(dim, len(free), {(j, t): ONE for t, j in enumerate(free)})
        induced = []
        for m in maps:
            if m.rows != dim or m.cols != dim:
                raise ValueError("shape mismatch")
            pm = matmul(projection, m)
            ind = matmul(pm, section)
            if pm != matmul(ind, projection):
                raise ValueError("not invariant")
            induced.append(ind)
        return projection, section, induced


def rank(matrix: ExactMatrix) -> int:
    basis = EchelonBasis()
    for col in matrix.columns():
        basis.insert(col)
    return len(basis)


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
        ind = matmul(matmul(projection, m), section)
        if matmul(projection, m) != matmul(ind, projection):
            raise ValueError("not invariant")
        induced.append(ind)
    return projection, section, induced
