"""Reference generation degrees, consistency checks and shift splitting.

This is how ``heckestab.sequences`` computed generation degrees before one
closure per degree (``_generated``) served them all, and checked the
commuting squares before one intertwining test served every map.  It is
kept only as the slow, obviously correct side of the differential tests:

  * ``generation_degree`` spans the full bases of degrees <= d, for
    d = 0, 1, ..., and stops at the first d whose span is all of V.  It
    spans with its own closure loop (``unstopped_closure``), as ``span``
    did before it read generated flags and skipped the degrees after a
    full one, so it never reads the flags it is compared with;
  * ``stability_clauses`` decides "V_{n+1} is generated by phi_n(V_n)" by
    spanning the full basis of V_n alone;
  * ``restriction_matrix`` restricts a map to two reduced bases by
    applying it to each vector and reducing the image, as
    ``_restriction_matrix`` does for any bases but unit vectors;
  * ``check_consistency`` compares phi_n T_{s_i} with T_{s_i} phi_n square
    by square;
  * ``shift_decompose_Mm`` builds M(m) twice, on the windows n_max + a and
    n_max, builds the shifted tower with ``shift``, walks the coset
    representatives itself and splits each map with ``_block_split``, as
    the package did before it read all of them off one build.
"""

from heckestab.hecke import ModulePresentation, regular_representation
from heckestab.linalg import EchelonBasis, ExactMatrix, rank
from heckestab.qfield import ONE
from heckestab.sequences import (
    ConsistentSequence,
    build_Mm,
    generation_degree as package_generation_degree,
    multiplicity_table,
    shift,
)
from heckestab.symgroup import coset_min_reps


def _full_basis_seeds(V, degrees):
    return [(n, {i: ONE}) for n in degrees for i in range(V.modules[n].dim)]


def unstopped_closure(module, vectors):
    """H-span of the vectors: every queued vector meets every generator."""
    basis = EchelonBasis()
    queue = []
    for v in vectors:
        if v and basis.insert(dict(v)) is not None:
            queue.append(basis.vectors[-1])
    while queue:
        v = queue.pop(0)
        for g in module.gen_action:
            w = g.apply(v)
            if w and basis.insert(w) is not None:
                queue.append(basis.vectors[-1])
    return basis


def _span_dims(V, seeds) -> list:
    """The dims of the span of the seeds, each degree closed in full."""
    by_degree = {}
    for deg, vec in seeds:
        by_degree.setdefault(deg, []).append(vec)
    dims = []
    for n, module in enumerate(V.modules):
        carried = [V.connectors[n - 1].apply(v) for v in basis.vectors] if n else []
        basis = unstopped_closure(module, carried + by_degree.get(n, []))
        dims.append(len(basis))
    return dims


def generation_degree(V):
    ambient = V.dims()
    for d in range(V.n_max + 1):
        if _span_dims(V, _full_basis_seeds(V, range(d + 1))) == ambient:
            return d
    return None


def stability_clauses(V) -> list:
    table = multiplicity_table(V)
    clauses = []
    for n in range(V.n_max):
        f = V.connectors[n]
        image = _span_dims(V, _full_basis_seeds(V, [n]))[n + 1]
        clauses.append(
            {
                "n": n,
                "injective": rank(f) == f.cols,
                "generated": image == V.modules[n + 1].dim,
                "multiplicities_match": all(
                    col[n] == col[n + 1] for col in table["rows"].values()
                ),
            }
        )
    return clauses


def restriction_matrix(basis_from, basis_to, mat) -> ExactMatrix:
    entries = {}
    for k, v in enumerate(basis_from.vectors):
        image = mat.apply(v)
        if basis_to.reduce(image):
            raise ValueError("map does not preserve the subspaces")
        for i, c in image.items():
            t = basis_to.pivots.get(i)
            if t is not None:
                entries[(t, k)] = c
    return ExactMatrix(len(basis_to.vectors), len(basis_from.vectors), entries)


def check_consistency(V) -> dict:
    violations = []
    for n in range(V.n_max):
        f = V.connectors[n]
        for i in range(1, n):
            left = f @ V.modules[n].generator(i)
            right = V.modules[n + 1].generator(i) @ f
            if left != right:
                violations.append((n, i))
    return {"ok": not violations, "violations": violations}


def _block_split(mat, rows_b, rows_c, cols_b, cols_c):
    """Split into (B-block, C-block); None if a cross entry exists."""
    rb = {i: t for t, i in enumerate(rows_b)}
    rc = {i: t for t, i in enumerate(rows_c)}
    cb = {j: t for t, j in enumerate(cols_b)}
    cc = {j: t for t, j in enumerate(cols_c)}
    b_entries = {}
    c_entries = {}
    for (i, j), v in mat.entries.items():
        if i in rb and j in cb:
            b_entries[(rb[i], cb[j])] = v
        elif i in rc and j in cc:
            c_entries[(rc[i], cc[j])] = v
        else:
            return None
    return (
        ExactMatrix(len(rows_b), len(cols_b), b_entries),
        ExactMatrix(len(rows_c), len(cols_c), c_entries),
    )


def shift_decompose_Mm(m: int, a: int, n_max: int) -> dict:
    if m < 1:
        raise ValueError("m must be at least 1")
    if a < 0:
        raise ValueError("a must be nonnegative")
    base = build_Mm(m, n_max + a)
    shifted = shift(base, a)
    fresh = build_Mm(m, n_max)
    p = regular_representation(m).dim
    b_positions = []
    c_positions = []
    for n in range(n_max + 1):
        reps = coset_min_reps(n + a, (m, n + a - m)) if n + a >= m else []
        b_idx = []
        c_idx = []
        for di, d in enumerate(reps):
            front_free = all(d(x) > a for x in range(1, m + 1))
            for i in range(p):
                (b_idx if front_free else c_idx).append(di * p + i)
        b_positions.append(b_idx)
        c_positions.append(c_idx)
    matches = True
    c_modules = []
    for n in range(n_max + 1):
        big = shifted.modules[n]
        c_gens = []
        for i in range(1, n):
            split = _block_split(
                big.generator(i),
                b_positions[n], c_positions[n],
                b_positions[n], c_positions[n],
            )
            if split is None:
                raise ValueError(f"blocks not stable at degree {n}, s_{i}")
            b_block, c_block = split
            matches = matches and b_block == fresh.modules[n].generator(i)
            c_gens.append(c_block)
        c_modules.append(
            ModulePresentation(n, len(c_positions[n]), c_gens, check=False)
        )
    c_connectors = []
    for n in range(n_max):
        split = _block_split(
            shifted.connectors[n],
            b_positions[n + 1], c_positions[n + 1],
            b_positions[n], c_positions[n],
        )
        if split is None:
            raise ValueError(f"blocks not connector-stable at degree {n}")
        b_block, c_block = split
        matches = matches and b_block == fresh.connectors[n]
        c_connectors.append(c_block)
    complement = ConsistentSequence(
        c_modules, c_connectors, label=f"C_{a} of S+{a}M({m})"
    )
    gen_deg = package_generation_degree(complement)
    return {
        "m": m,
        "a": a,
        "n_max": n_max,
        "shifted_dims": shifted.dims(),
        "summand_dims": [len(b) for b in b_positions],
        "complement_dims": complement.dims(),
        "direct_sum_ok": all(
            len(b_positions[n]) + len(c_positions[n]) == shifted.modules[n].dim
            for n in range(n_max + 1)
        ),
        "matches_fresh_Mm": matches,
        "complement_generation_degree": gen_deg,
        "bound_ok": gen_deg <= m - 1,
        "complement": complement,
    }
