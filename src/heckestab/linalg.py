"""Sparse exact linear algebra over Q(q).

Matrices act on column vectors: column j of a matrix is the image of the
j-th basis vector.  Entries are :class:`~heckestab.qfield.Scalar` values and
only nonzero entries are stored.  Rank, kernel, solve and quotient
computations all run through one exact elimination over Q(q),
:meth:`EchelonBasis.reduce`; nothing is evaluated at sample points.  The
basis is kept in reduced echelon form, so a vector of its span has its
coordinates at the pivots, and a reduction is one pass over those pivots.

Kernel and solve reduce the columns of the graph [M; I].  Column j enters
as (M e_j, e_j), so every stored vector, and every combination a reduction
subtracts, has the form (M y, y).  A column whose real part reduces to zero
leaves (0, y) with M y = 0; reducing (b, 0) leaves (b - M x, -x), which
gives the solution x once its real part is zero.  A quotient needs no more
than the reduced basis either: reduce leaves only non-pivot coordinates,
and the projection of a pivot coordinate is read off its stored vector.

Every sparse sum and scale of Scalars, in a matrix sum, an image, a
vector update or a Hecke element, runs through :func:`vec_add_scaled` and
:func:`vec_scale`, whose docstring states the rule by which they build no
scalar equal to one they already hold; ``ExactMatrix.__matmul__`` inlines
the same rule.  A reduction also drops each pivot entry it cancels
exactly (``_cancel_pivot``).
"""

from __future__ import annotations

from .qfield import MINUS_ONE, ONE, ZERO, Scalar, scal

__all__ = [
    "ExactMatrix",
    "EchelonBasis",
    "rank",
    "kernel_basis",
    "solve_unique",
    "QuotientStructure",
    "quotient_structure",
]


class ExactMatrix:
    """An immutable sparse matrix over Q(q).

    ``entries`` is set only by ``__init__`` and ``_new``, so the column
    index that ``apply`` builds on first use, and the rank that
    :func:`rank` keeps in ``_rank``, stay valid.
    """

    __slots__ = ("rows", "cols", "entries", "_by_column", "_rank")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) outside {rows}x{cols} matrix")
            v = scal(v)
            if v:
                clean[(i, j)] = v
        self.entries = clean
        self._by_column = None
        self._rank = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def _new(cls, rows: int, cols: int, entries: dict) -> "ExactMatrix":
        """Internal constructor for nonzero Scalar entries inside the shape."""
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._by_column = None
        self._rank = None
        return self

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def from_rows(cls, rows_data) -> "ExactMatrix":
        rows_data = [list(r) for r in rows_data]
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if rows_data else 0
        entries = {}
        for i, row in enumerate(rows_data):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(nrows, ncols, entries)

    # -- structure ------------------------------------------------------

    def columns(self):
        cols = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def to_lists(self):
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("ExactMatrix is not hashable")

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"

    # -- arithmetic -------------------------------------------------------

    def _plus(self, other, c: Scalar) -> "ExactMatrix":
        """self + c*other, for the c = 1 of ``+`` and the c = -1 of ``-``."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        entries = dict(self.entries)
        vec_add_scaled(entries, other.entries, c)
        return ExactMatrix._new(self.rows, self.cols, entries)

    def __add__(self, other):
        return self._plus(other, ONE)

    def __sub__(self, other):
        return self._plus(other, MINUS_ONE)

    def __neg__(self):
        return self.scale(MINUS_ONE)

    def scale(self, c) -> "ExactMatrix":
        return ExactMatrix._new(self.rows, self.cols, vec_scale(self.entries, scal(c)))

    def __matmul__(self, other):
        """self @ other.  It reads ``other`` by rows, so it inlines the
        sum rule of :func:`vec_add_scaled` instead of calling it per column.
        """
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            rows_of_other = [dict() for _ in range(other.rows)]
            for (k, j), v in other.entries.items():
                rows_of_other[k][j] = v
            acc: dict = {}
            for (i, k), u in self.entries.items():
                for j, v in rows_of_other[k].items():
                    key = (i, j)
                    w = acc.get(key)
                    if w is None:
                        acc[key] = u * v
                        continue
                    w = w + u * v
                    if w:
                        acc[key] = w
                    else:
                        del acc[key]
            return ExactMatrix._new(self.rows, other.cols, acc)
        raise TypeError("matmul expects an ExactMatrix")

    def apply(self, vec: dict) -> dict:
        """Image of a sparse column vector {index: Scalar}.

        The column index is built on the first call and kept.
        """
        out: dict = {}
        cols = self._by_column
        if cols is None:
            cols = self._by_column = self.columns()
        for j, c in vec.items():
            vec_add_scaled(out, cols[j], c)
        return out


# -- sparse vector helpers -------------------------------------------------


def vec_add_scaled(u: dict, v: dict, c: Scalar, skip=None) -> None:
    """In place: u += c*v, over the entries of v other than the one at ``skip``.

    Each entry comes out as the full computation u.get(i, 0) + c*x gives
    it, in the same normal form, without building a scalar equal to one
    already held:

    * a first contribution to an entry of u is stored as c*x itself,
      which is what 0 + c*x normalises to;
    * a product with 1 is the other factor (see ``Scalar.__mul__``), so
      c = 1, or a 1 in v, stores the other operand's own object, and every
      connector of an M(W) tower is a 0/1 matrix;
    * an entry that cancels is deleted, so u stays sparse.
    """
    if not c:
        return
    for i, x in v.items():
        if i == skip:
            continue
        w = u.get(i)
        if w is None:
            if x:
                u[i] = c * x
            continue
        w = w + c * x
        if w:
            u[i] = w
        else:
            del u[i]


def vec_scale(v: dict, c: Scalar) -> dict:
    return {i: x * c for i, x in v.items()} if c else {}


def _cancel_pivot(u: dict, v: dict, p) -> None:
    """In place: u -= u[p] * v, for v the vector stored at pivot p.

    v is 1 at p, so the entry at p cancels exactly: it is dropped, and
    only the other entries of v are added.  A v that is not 1 at p means
    the basis is no longer reduced; that raises ValueError, as a stored
    pivot in a residue does.
    """
    x = v.get(p)
    if x is None or not x.is_one():
        raise ValueError(f"echelon basis not reduced: pivot {p} is already stored")
    c = u.pop(p, None)
    if c is not None and len(v) > 1:
        vec_add_scaled(u, v, -c, skip=p)


class EchelonBasis:
    """An incrementally built reduced echelon basis of a span of sparse vectors.

    Each stored vector has coefficient 1 at its pivot (its smallest nonzero
    coordinate) and 0 at every other stored pivot.  So the residue of a
    vector is vec - sum_p vec[p] v_p over the pivots p in its support, found
    in one pass, and a vector of the span has coordinate vec[p] on the
    stored vector v_p.  Given the pivots, the residue is unique, so
    membership tests and reductions are deterministic.
    """

    def __init__(self):
        self.pivots: dict = {}  # pivot index -> position in self.vectors
        self.vectors: list = []

    def __len__(self):
        return len(self.vectors)

    def reduce(self, vec: dict) -> dict:
        """The residue of ``vec`` after reduction, as a fresh dict; ``vec`` is unchanged."""
        v = {i: c for i, c in vec.items() if c}
        for p in [p for p in v if p in self.pivots]:
            _cancel_pivot(v, self.vectors[self.pivots[p]], p)
        return v

    def insert(self, vec: dict):
        """Reduce and, if independent, insert; returns the new pivot or None.

        The new vector is normalised at its pivot, which is then cleared
        from the stored vectors, in place.  ``vec`` itself is left unchanged
        and never stored, so a caller may keep it.  A residue whose pivot is
        already stored means the basis is no longer reduced; that raises
        ValueError instead of growing the basis past the dimension.
        """
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
            if p in u:
                _cancel_pivot(u, v, p)
        self.pivots[p] = len(self.vectors)
        self.vectors.append(v)
        return p

    def quotient(self, dim: int, maps=()) -> "QuotientStructure":
        """k^dim modulo the span, with the maps it induces.

        The quotient basis is the set of non-pivot coordinates.  Reduction
        leaves only those, so column j of the projection is reduce(e_j)
        read in them, and that is read straight off the stored vectors: a
        free j maps to itself, and a pivot p maps to -v_p away from p.
        So projection * section = identity, and each induced map is
        :meth:`QuotientStructure.induced_map` of its map, certified there.
        Each map (a dim x dim ExactMatrix) must send the span into itself;
        otherwise ValueError('not invariant') is raised.
        """
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
        qs = QuotientStructure(projection, section, [])
        qs.induced = [qs.induced_map(m, qs) for m in maps]
        return qs


def rank(matrix: ExactMatrix) -> int:
    """Exact rank over Q(q): the size of an echelon basis of the columns.

    It is computed on the first call and kept on the matrix, whose
    ``entries`` no code assigns outside a constructor; so a connector
    that several towers or verdicts share is eliminated once.
    """
    if matrix._rank is None:
        basis = EchelonBasis()
        for col in matrix.columns():
            basis.insert(col)
        matrix._rank = len(basis)
    return matrix._rank


def _graph_basis(matrix: ExactMatrix) -> tuple:
    """Reduce the columns of [M; I]: the graph's echelon basis and ker M.

    The real part of a vector is its first ``rows`` coordinates.
    """
    n = matrix.rows
    basis = EchelonBasis()
    kernel = []
    for j, col in enumerate(matrix.columns()):
        v = dict(col)
        v[n + j] = ONE
        residue = basis.reduce(v)
        if any(i < n for i in residue):
            basis.insert(residue)
        else:
            kernel.append({i - n: c for i, c in residue.items()})
    return basis, kernel


def kernel_basis(matrix: ExactMatrix) -> list:
    """Basis of the right kernel, as sparse column vectors of length cols.

    >>> from heckestab.qfield import Q
    >>> m = ExactMatrix.from_rows([[1, Q], [Q + 1, Q * Q + Q]])
    >>> [[(j, str(c)) for j, c in sorted(v.items())] for v in kernel_basis(m)]
    [[(0, '-q'), (1, '1')]]
    """
    return _graph_basis(matrix)[1]


def solve_unique(matrix: ExactMatrix, rhs: dict) -> list:
    """Solve M x = rhs when M has full column rank; returns dense list.

    The solution is read off the residue (rhs - M x, -x) of (rhs, 0).

    >>> from heckestab.qfield import Q
    >>> m = ExactMatrix.from_rows([[Q, 1], [1, 1]])
    >>> [str(c) for c in solve_unique(m, {0: ONE})]
    ['(1)/(q-1)', '(-1)/(q-1)']

    Raises ValueError if the system is inconsistent or underdetermined.
    """
    basis, kernel = _graph_basis(matrix)
    if kernel:
        raise ValueError("matrix does not have full column rank")
    n = matrix.rows
    residue = basis.reduce(rhs)
    if any(i < n for i in residue):
        raise ValueError("inconsistent linear system")
    out = [ZERO] * matrix.cols
    for i, c in residue.items():
        out[i - n] = -c
    return out


class QuotientStructure:
    """A quotient space V / U with projection, section and induced maps.

    ``projection`` is a (dim V - dim U) x dim V matrix, ``section`` a right
    inverse of it, and ``induced`` the list of maps induced on the quotient
    by the supplied U-invariant maps.
    """

    __slots__ = ("projection", "section", "induced")

    def __init__(self, projection, section, induced):
        self.projection = projection
        self.section = section
        self.induced = induced

    @property
    def quotient_dim(self):
        return self.projection.rows

    def induced_map(self, f: ExactMatrix, source: "QuotientStructure") -> ExactMatrix:
        """The map T = P f S_source that f induces from source's quotient to this one.

        T is well defined exactly when f sends the subspace of ``source``
        into this one, that is when T P_source = P f; that is checked
        exactly, and ValueError('not invariant') is raised otherwise.  A
        map of the wrong shape raises ValueError('shape mismatch').
        """
        pf = self.projection @ f
        T = pf @ source.section
        if T @ source.projection != pf:
            raise ValueError("not invariant")
        return T


def quotient_structure(dim: int, subspace_vectors, maps=()) -> QuotientStructure:
    """Quotient of k^dim by the span of ``subspace_vectors``.

    Each map (a dim x dim ExactMatrix) must send the subspace into itself;
    otherwise ValueError('not invariant') is raised.  See
    :meth:`EchelonBasis.quotient`.

    >>> from heckestab.qfield import Q
    >>> qs = quotient_structure(2, [{0: Q, 1: ONE}])
    >>> [[str(c) for c in row] for row in qs.projection.to_lists()]
    [['(-1)/(q)', '1']]
    """
    basis = EchelonBasis()
    for v in subspace_vectors:
        basis.insert(v)
    return basis.quotient(dim, maps)
