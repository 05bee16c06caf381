"""Consistent sequences of H_n-modules and their stability invariants.

A consistent sequence V = (V_n, phi_n) packages one module per rank with
connectors phi_n : V_n -> V_{n+1} that intertwine the H_n-actions through
the tower embedding T_w -> T_w.  On top of that single axiom this module
builds the whole stability toolkit:

  * M(W), the induced sequence sum_{m<=n} H_n (x)_{H_(m,n-m)} (W_m (x) index),
    whose connectors are inclusions of distinguished coset bases;
  * span / generation degree, free covers and kernels;
  * the coinvariant tower Phi_a with its maps T, and the observed
    injective / surjective / stability degrees;
  * weight, multiplicity tables c_{lam,n}, and the uniform-stability
    verdict (injectivity + generation + constant multiplicities);
  * the shift S_{+a} (new letters enter at the front, H_n keeps acting on
    the last n letters) and its M(m) (+) C_a decomposition;
  * a seeded random-submodule experiment probing the noetherian property.

Every degree-indexed claim a report makes is qualified by the truncation
bound n_max: nothing here certifies behaviour beyond the computed window.
"""

from __future__ import annotations

import io
import json
import random
from collections import deque
from functools import cache
from math import factorial

from .hecke import ContentMemo, ModulePresentation, regular_representation
from .linalg import EchelonBasis, ExactMatrix, kernel_basis, rank
from .partitions import partition_label
from .qfield import ONE, Scalar, scal
from .specht import coinvariant_quotients, decompose, specht_module
from .symgroup import Permutation, _coset_one_lines

__all__ = [
    "ConsistentSequence",
    "SequenceMorphism",
    "check_consistency",
    "build_M",
    "build_Mm",
    "build_M_specht",
    "non_finitely_generated",
    "span",
    "generation_degree",
    "free_cover",
    "phi_a",
    "PhiSequence",
    "degrees",
    "weight",
    "multiplicity_table",
    "is_uniformly_stable",
    "shift",
    "shift_decompose_Mm",
    "noetherian_experiment",
    "seq_kernel",
    "sequence_to_json_obj",
    "sequence_from_json_obj",
    "save_sequence",
    "load_sequence",
]

SCHEMA = "hecke-stab/1"

# The largest dim, rows or cols a tower file may declare.  The relation
# check and decompose build a dim x dim identity whatever the file holds,
# so this caps what a small file can make the loader allocate.
FILE_DIM_BOUND = 1 << 15


class ConsistentSequence:
    """Modules V_0..V_{n_max} with intertwining connectors.

    Each commuting square phi_n T_{s_i} = T_{s_i} phi_n is checked once, by
    this constructor, as M(W) and parsed files are built.  Towers derived
    from a checked one (shift, span, kernel, C_a) pass check=False; where
    each is built, one line proves its squares.

    ``_memo`` keeps the reports of ``multiplicity_table`` and ``degrees``,
    the ``_generated`` flags and the saved file's bytes, each made on first
    use (a span's flags, as span builds it): sound because a tower is
    never mutated, nor a report by its caller.
    """

    __slots__ = ("n_max", "modules", "connectors", "label", "_memo")

    def __init__(self, modules, connectors, label="", check=True):
        modules = tuple(modules)
        connectors = tuple(connectors)
        if len(connectors) != max(len(modules) - 1, 0):
            raise ValueError("need one connector per consecutive pair")
        for n, f in enumerate(connectors):
            if f.rows != modules[n + 1].dim or f.cols != modules[n].dim:
                raise ValueError(f"connector {n} shape mismatch")
        for n, mod in enumerate(modules):
            if mod.n != n:
                raise ValueError(f"module at position {n} has rank {mod.n}")
        self.n_max = len(modules) - 1
        self.modules = modules
        self.connectors = connectors
        self.label = label
        self._memo = {}
        if check:
            verdict = check_consistency(self)
            if not verdict["ok"]:
                raise ValueError(
                    f"inconsistent sequence at (n, i) = {verdict['violations']}"
                )

    def dims(self) -> list:
        return [mod.dim for mod in self.modules]

    def phi_composite(self, m: int, n: int) -> ExactMatrix:
        """The composite connector V_m -> V_n (identity when m = n)."""
        if not 0 <= m <= n <= self.n_max:
            raise ValueError(f"composite range {m}..{n} outside truncation")
        out = ExactMatrix.identity(self.modules[m].dim)
        for k in range(m, n):
            out = self.connectors[k] @ out
        return out

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"ConsistentSequence(n_max {self.n_max}, dims {self.dims()}{tag})"


def check_consistency(V: ConsistentSequence) -> dict:
    """Verify every commuting square phi_n T_{s_i} = T_{s_i} phi_n exactly."""
    violations = [
        (n, i)
        for n in range(V.n_max)
        for i in _not_intertwined(V.connectors[n], V.modules[n], V.modules[n + 1])
    ]
    return {"ok": not violations, "violations": violations}


def _not_intertwined(f: ExactMatrix, source, target) -> list:
    """The i < source.n with f T_{s_i} != T_{s_i} f, in increasing order."""
    return [
        i
        for i in range(1, source.n)
        if f @ source.generator(i) != target.generator(i) @ f
    ]


class SequenceMorphism:
    """Degreewise maps f_n that are module maps and commute with connectors."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components):
        components = tuple(components)
        if len(components) != source.n_max + 1 or source.n_max != target.n_max:
            raise ValueError("morphism length mismatch")
        for n, f in enumerate(components):
            if f.rows != target.modules[n].dim or f.cols != source.modules[n].dim:
                raise ValueError(f"component {n} shape mismatch")
        self.source = source
        self.target = target
        self.components = components
        for n, f in enumerate(components):
            bad = _not_intertwined(f, source.modules[n], target.modules[n])
            if bad:
                raise ValueError(f"not a morphism: fails H_{n}-action at s_{bad[0]}")
        for n in range(source.n_max):
            left = components[n + 1] @ source.connectors[n]
            right = target.connectors[n] @ components[n]
            if left != right:
                raise ValueError(
                    f"not a morphism: square at degree {n} does not commute"
                )


def _block_diagonal(blocks) -> ExactMatrix:
    entries = {}
    rows = cols = 0
    for b in blocks:
        for (i, j), v in b.entries.items():
            entries[(rows + i, cols + j)] = v
        rows += b.rows
        cols += b.cols
    return ExactMatrix._new(rows, cols, entries)


def _presentation_direct_sum(n, parts) -> ModulePresentation:
    """Block-diagonal sum of presentations of the same rank: the sum of one
    part is that part, shared, not copied."""
    if len(parts) == 1:
        return parts[0]
    gens = [
        _block_diagonal([p.gen_action[i] for p in parts])
        for i in range(max(n - 1, 0))
    ]
    dim = sum(p.dim for p in parts)
    return ModulePresentation(n, dim, gens, check=False)


def _build_M_layout(W: dict, n_max: int, label: str):
    """build_M plus, per degree, the label (m, d, i) of each basis vector.

    The vector labelled (m, d, i) is T_d (x) w_i in the summand induced
    from W[m]: d is a coset representative's one-line tuple, in
    coset_min_reps order, and w_i the i-th basis vector of W[m].
    """
    W = {m: P for m, P in W.items() if P.dim > 0}
    for m, P in W.items():
        if P.n != m:
            raise ValueError(f"W[{m}] has rank {P.n}")
    modules = []
    labels = []
    for n in range(n_max + 1):
        summands = [m for m in sorted(W) if m <= n]
        parts = [W[m].induced_by_index(n - m) for m in summands]
        modules.append(_presentation_direct_sum(n, parts))
        labels.append(
            [
                (m, d, i)
                for m in summands
                for d in _coset_one_lines(n, (m, n - m))
                for i in range(W[m].dim)
            ]
        )
    connectors = []
    for n in range(n_max):
        where = {lab: t for t, lab in enumerate(labels[n + 1])}
        entries = {
            (where[(m, d + (n + 1,), i)], j): ONE
            for j, (m, d, i) in enumerate(labels[n])
        }
        connectors.append(
            ExactMatrix(modules[n + 1].dim, modules[n].dim, entries)
        )
    seq = ConsistentSequence(modules, connectors, label=label)
    return seq, labels


def build_M(W: dict, n_max: int, label: str = "") -> ConsistentSequence:
    """The induced sequence M(W)_n = sum_{m<=n} Ind(W_m, index_{n-m}).

    Connectors send a coset basis vector T_d (x) w to T_d (x) w again,
    reading d inside S_{n+1}; in the distinguished bases this is a 0/1
    inclusion because embedding preserves the subset-lex coset order.
    """
    seq, _ = _build_M_layout(W, n_max, label or "M(W)")
    return seq


@cache
def build_Mm(m: int, n_max: int) -> ConsistentSequence:
    """M(m): the sequence induced from the regular H_m-module, built once per
    (m, n_max) and shared: a tower is never mutated."""
    return build_M({m: regular_representation(m)}, n_max, f"M({m})")


def build_M_specht(lam, n_max: int) -> ConsistentSequence:
    """M(S^lam): induced from the Specht module in degree |lam|, built once
    per (tuple(lam), n_max) and shared, as M(m) is."""
    return _M_specht(tuple(lam), n_max)


@cache
def _M_specht(lam: tuple, n_max: int) -> ConsistentSequence:
    if sum(lam) > n_max:
        raise ValueError(f"|lam| = {sum(lam)} exceeds n_max = {n_max}")
    label = f"M(S({partition_label(lam)}))"
    return build_M({sum(lam): specht_module(lam)}, n_max, label=label)


def non_finitely_generated(n_max: int) -> ConsistentSequence:
    """A sequence acquiring a fresh generator at every degree.

    The direct sum over k <= n_max of M(S^(k)) has a new one-dimensional
    generator appear in each degree, so dim grows like 2^n and the
    multiplicity columns never stabilize.
    """
    W = {k: specht_module((k,) if k else ()) for k in range(n_max + 1)}
    return build_M(W, n_max, label="sum_k M(S(k))")


def _closure(module: ModulePresentation, vectors, basis=None) -> EchelonBasis:
    """H-span of the vectors: close a reduced echelon basis under the generators.

    Given an H-stable ``basis``, it continues from it in place: H maps
    span(basis) into itself, so only the vectors that enter are queued.
    Each vector is queued as it entered (a seed, or an image that raised
    the rank), not as the basis stores it after later pivots are cleared:
    the queued vectors span what the basis spans beyond its start, and each
    meets every generator, so the final span is H-stable.  A basis of
    module.dim vectors spans the module, so no later vector can be
    independent: the closure stops there, with the basis it would end with.
    """
    if basis is None:
        basis = EchelonBasis()
    queue = deque()
    full = module.dim
    for v in vectors:
        if v and len(basis.vectors) < full and basis.insert(v) is not None:
            queue.append(v)
    while queue and len(basis.vectors) < full:
        v = queue.popleft()
        for g in module.gen_action:
            w = g.apply(v)
            if w and basis.insert(w) is not None:
                queue.append(w)
                if len(basis.vectors) == full:
                    return basis
    return basis


def _restriction_matrix(basis_from, basis_to, mat) -> ExactMatrix:
    """mat restricted to span(basis_from) -> span(basis_to), in coordinates.

    basis_to is reduced, so an image in its span has coordinate image[p]
    on the stored vector with pivot p, and an image with a nonzero residue
    is outside the span.  When both bases are unit vectors (a stored vector
    with one entry), as in the shift split, the image of a unit vector is
    mat's column and its residue the part off basis_to's pivots: so one
    pass over mat's entries selects the block, and builds no column index.
    """
    entries = {}
    if all(len(v) == 1 for b in (basis_from, basis_to) for v in b.vectors):
        for (i, j), c in mat.entries.items():
            k = basis_from.pivots.get(j)
            if k is None:
                continue
            t = basis_to.pivots.get(i)
            if t is None:
                raise ValueError("map does not preserve the subspaces")
            entries[(t, k)] = c
        return ExactMatrix._new(len(basis_to), len(basis_from), entries)
    for k, v in enumerate(basis_from.vectors):
        image = mat.apply(v)
        if basis_to.reduce(image):
            raise ValueError("map does not preserve the subspaces")
        for i, c in image.items():
            t = basis_to.pivots.get(i)
            if t is not None:
                entries[(t, k)] = c
    return ExactMatrix(len(basis_to.vectors), len(basis_from.vectors), entries)


def _subsequence(V: ConsistentSequence, bases, label: str) -> ConsistentSequence:
    """The subsequence of V spanned in degree n by bases[n], in its coordinates.

    span, seq_kernel and the shift split (_shift_split) build their towers
    here.  Unchecked: its squares are V's, restricted to spans
    _restriction_matrix certifies.  A reduced basis with pivots 0..d-1 in
    order, d = dim V_n, is e_0..e_{d-1}, so its degree is V.modules[n]
    itself, and between two such degrees the connector is V.connectors[n]:
    a restriction would rebuild them entry for entry.  A reused module keeps
    its content key, and so the memos keyed by it.
    """
    whole = [list(b.pivots) == list(range(mod.dim)) for b, mod in zip(bases, V.modules)]
    modules = [
        V.modules[n]
        if whole[n]
        else ModulePresentation(
            n,
            len(basis),
            [_restriction_matrix(basis, basis, g) for g in V.modules[n].gen_action],
            check=False,
        )
        for n, basis in enumerate(bases)
    ]
    connectors = [
        V.connectors[n]
        if whole[n] and whole[n + 1]
        else _restriction_matrix(bases[n], bases[n + 1], V.connectors[n])
        for n in range(V.n_max)
    ]
    return ConsistentSequence(modules, connectors, label=label, check=False)


def _generated(V: ConsistentSequence) -> tuple:
    """Entry n: is V_{n+1} the H_{n+1}-span of phi_n(V_n)?  One per n < n_max.

    This one closure per degree decides every generation degree.  The
    sub-sequence spanned by seeds of degree <= d is, in degree n, the
    closure of phi_{n-1} of its degree-(n-1) part plus the degree-n seeds,
    so its degree-n part depends only on seeds of degree <= n.  If all the
    seeds span V, those of degree <= d therefore already give V_n for
    every n <= d; above d no seed is added, so by induction on n they give
    V_n exactly when generated[d], ..., generated[n-1] all hold.  Hence
    the seeds of degree <= d span V iff all(generated[d:]); the full
    bases in degrees <= d are one such seed set.  V keeps them, as a tuple;
    a span's are recorded by span as it is built.
    """
    if "generated" not in V._memo:
        V._memo["generated"] = tuple(
            len(_closure(V.modules[n + 1], V.connectors[n].columns()).vectors)
            == V.modules[n + 1].dim
            for n in range(V.n_max)
        )
    return V._memo["generated"]


def span(V: ConsistentSequence, seeds, label: str = "") -> ConsistentSequence:
    """The subsequence of V generated by (degree, vector) seeds.

    Its degree-n part is the H_n-span of the degree-n seeds and of phi_{n-1}
    of its degree-(n-1) part, in the coordinates of a reduced echelon basis.
    The carried vectors are closed first and the seeds on top, so the
    generated flags are recorded as the span is built.  A degree that fills
    V_n gets the unit basis in index order, which _subsequence reads as V_n
    itself; the degree after it is V_n too, with no closure, where V is
    generated.
    """
    by_degree = {}
    for deg, vec in seeds:
        if not 0 <= deg <= V.n_max:
            raise ValueError(f"seed degree {deg} outside truncation")
        for i in vec:
            if not 0 <= i < V.modules[deg].dim:
                raise ValueError(f"seed coordinate {i} outside V_{deg}")
        by_degree.setdefault(deg, []).append(vec)
    bases, generated = [], []
    for n, module in enumerate(V.modules):
        # flag n-1: is the degree-n part the H_n-span C of phi(bases[n-1])?
        # It contains C, and C is V_n when bases[n-1] is V_{n-1} and V is
        # generated there; else it is C plus the seeds' closure, which is C
        # exactly when the seeds add no dimension.
        if n and len(bases[-1]) == V.modules[n - 1].dim and _generated(V)[n - 1]:
            bases.append(_unit_basis(range(module.dim)))
            generated.append(True)
            continue
        carried = [V.connectors[n - 1].apply(v) for v in bases[-1].vectors] if n else []
        basis = _closure(module, carried)
        carried_dim = len(basis)
        _closure(module, by_degree.get(n, []), basis)
        if n:
            generated.append(len(basis) == carried_dim)
        full = len(basis) == module.dim
        bases.append(_unit_basis(range(module.dim)) if full else basis)
    sub = _subsequence(V, bases, label or "span")
    sub._memo["generated"] = tuple(generated)
    return sub


def _unit_basis(indices) -> EchelonBasis:
    """The unit vectors e_j, j in indices, in that order: already reduced."""
    basis = EchelonBasis()
    basis.vectors = [{j: ONE} for j in indices]
    basis.pivots = {j: t for t, j in enumerate(indices)}
    return basis


def generation_degree(V: ConsistentSequence) -> int:
    """Least d with span of the full bases in degrees <= d equal to V.

    That is the least d with all(generated[d:]) (see _generated).  The
    value n_max is possible and carries no predictive content; every
    answer is relative to the truncation window.
    """
    return _onset(_generated(V))


def _onset(flags: list) -> int:
    """The least d with all(flags[d:]); len(flags) always qualifies."""
    return next(d for d in range(len(flags) + 1) if all(flags[d:]))


def free_cover(V: ConsistentSequence, d: int) -> SequenceMorphism:
    """The canonical epimorphism from sum_{i<=d} M(V_i) onto V.

    On the degree-i summand the map sends T_w (x) v to T_w . phi(v) where
    phi is the composite connector V_i -> V_n.  The construction is well
    defined only when each composite image consists of q-eigenvectors of
    the discarded tail generators; the morphism constructor verifies this
    exactly and raises otherwise.
    """
    gen = generation_degree(V)
    if gen > d:
        raise ValueError(
            f"insufficient degree: V needs generation degree {gen}, got {d}"
        )
    W = {i: V.modules[i] for i in range(d + 1) if V.modules[i].dim > 0}
    cover, labels = _build_M_layout(W, V.n_max, label=f"cover<= {d}")
    components = []
    for n in range(V.n_max + 1):
        comps = {m: V.phi_composite(m, n) for m in W if m <= n}
        blocks = {}
        entries = {}
        for j, (m, rep, i) in enumerate(labels[n]):
            if (m, rep) not in blocks:
                T_d = V.modules[n].word_matrix(Permutation(rep).reduced_word())
                blocks[(m, rep)] = (T_d @ comps[m]).columns()
            for r, c in blocks[(m, rep)][i].items():
                entries[(r, j)] = c
        components.append(
            ExactMatrix(V.modules[n].dim, cover.modules[n].dim, entries)
        )
    morphism = SequenceMorphism(cover, V, components)
    for n, f in enumerate(components):
        if rank(f) != V.modules[n].dim:
            raise ValueError(f"cover not surjective at degree {n}")
    return morphism


class PhiSequence:
    """The coinvariant tower Phi_a(V): H_a-modules with maps T."""

    __slots__ = ("a", "spaces", "maps")

    def __init__(self, a, spaces, maps):
        self.a = a
        self.spaces = spaces
        self.maps = maps

    def dims(self):
        return [s.dim for s in self.spaces]


def phi_a(V: ConsistentSequence, a: int) -> PhiSequence:
    """Quotients Phi_a(V)_n = V_{a+n} / Q_n and induced maps T.

    T[v] = [phi_{a+n}(v)] is well defined because the connectors push the
    coinvariant subspace forward; ``QuotientStructure.induced_map`` builds
    T = P' phi S and certifies that exactly, as it does t_i = P G_i S for the
    quotient generators, so V's squares make T equivariant unchecked:
    T t_i = P' phi G_i S = P' G'_i phi S = t'_i T.  This is the one-rank case
    of the towers that ``degrees`` reads, with the quotients of coinvariant_quotients.
    """
    if not 0 <= a <= V.n_max:
        raise ValueError(f"a = {a} outside truncation 0..{V.n_max}")
    return _phi_towers(V, (a,))[a]


def _phi_towers(V: ConsistentSequence, ranks) -> dict:
    """{a: phi_a(V, a)} for a in ranks, with one tail elimination per module."""
    quotients = [
        coinvariant_quotients(module, [a for a in ranks if a <= module.n])
        for module in V.modules
    ]
    towers = {}
    for a in ranks:
        pieces = [q[a] for q in quotients[a:]]
        maps = [
            target.induced_map(V.connectors[a + n], source)
            for n, ((_, source), (_, target)) in enumerate(zip(pieces, pieces[1:]))
        ]
        towers[a] = PhiSequence(a, [quotient for quotient, _ in pieces], maps)
    return towers


def degrees(V: ConsistentSequence, a_max: int) -> dict:
    """Observed injective / surjective / stability degrees of Phi_a maps.

    Probes every pair 0 <= a <= a_max, 0 <= n < n_max - a.  An observed
    degree is the least s making the property hold at every probed (a, n)
    with n >= s, or None when no probed window suffices or every probe at
    n >= s is a 0 -> 0 map, which holds both properties vacuously.  This
    includes the case with no probes at all.  All statements
    are relative to the truncation.  Each module's quotients for every
    a <= a_max come from one tail elimination (coinvariant_quotients), and
    the report is kept on V per a_max, so it is computed once per tower.
    """
    if not 0 <= a_max <= V.n_max:
        raise ValueError(f"a_max = {a_max} outside truncation 0..{V.n_max}")
    key = ("degrees", a_max)
    if key not in V._memo:
        V._memo[key] = _degrees(V, a_max)
    return V._memo[key]


def _degrees(V: ConsistentSequence, a_max: int) -> dict:
    probes = []
    max_n = 0
    towers = _phi_towers(V, range(a_max + 1))
    for a in range(a_max + 1):
        tower = towers[a]
        results = []
        for n, T in enumerate(tower.maps):
            r = rank(T)
            results.append(
                {
                    "n": n,
                    "dim_source": T.cols,
                    "dim_target": T.rows,
                    "injective": r == T.cols,
                    "surjective": r == T.rows,
                }
            )
            max_n = max(max_n, n)
        probes.append({"a": a, "results": results})

    probed = [row for block in probes for row in block["results"]]
    # the largest n of a probe that is not 0 -> 0; a degree needs one at or
    # above it, since a 0 -> 0 map is injective and surjective vacuously
    evidence = max(
        (row["n"] for row in probed if row["dim_source"] or row["dim_target"]),
        default=-1,
    )

    def least_degree(*keys):
        """Least s <= max_n with every key true at every probed n >= s, and
        a probe other than 0 -> 0 at some n >= s."""
        onset = _onset(
            [
                all(row[k] for row in probed if row["n"] == n for k in keys)
                for n in range(max_n + 1)
            ]
        )
        return None if onset > min(max_n, evidence) else onset

    injective = least_degree("injective")
    surjective = least_degree("surjective")
    stability = least_degree("injective", "surjective")
    violations = []
    for block in probes:
        rows = block["results"]
        for prev, nxt in zip(rows, rows[1:]):
            # a 0 -> 0 step is vacuously an isomorphism; the module being
            # born right after it is growth, not a degeneration
            nonvacuous = prev["dim_source"] > 0 or prev["dim_target"] > 0
            if (
                nonvacuous
                and prev["injective"]
                and prev["surjective"]
                and not (nxt["injective"] and nxt["surjective"])
            ):
                violations.append((block["a"], nxt["n"]))
    return {
        "label": V.label,
        "n_max": V.n_max,
        "a_max": a_max,
        # ranks are always exact; the key stays so reports keep their bytes
        "mode": "exact",
        "probes": probes,
        "injective_degree": injective,
        "surjective_degree": surjective,
        "stability_degree": stability,
        "monotonicity_violations": violations,
        "qualifier": f"within truncation n_max={V.n_max}",
    }


def weight(V: ConsistentSequence) -> int:
    """Max of |unpad(mu)| over all irreducible constituents of all V_n."""
    return _table_weight(multiplicity_table(V))


def _table_weight(table: dict) -> int:
    return max(map(sum, table["rows"]), default=0)


def multiplicity_table(V: ConsistentSequence) -> dict:
    """The table c_{lam,n}: multiplicity of S^{lam[n]} inside V_n.

    Row labels are unpadded partitions, sorted by size, then by shape.
    The table is kept on V, so each V_n is decomposed once per tower.
    """
    if "table" not in V._memo:
        V._memo["table"] = _multiplicity_table(V)
    return V._memo["table"]


def _multiplicity_table(V: ConsistentSequence) -> dict:
    """The table of ``multiplicity_table``; key mu of decompose(V_n) is row mu[1:].

    That key is a row of character_table(n), a partition of n, so
    pad(mu[1:], n) == mu: there is nothing to check.
    """
    rows = {}
    for n, module in enumerate(V.modules):
        if module.dim == 0:
            continue
        for mu, c in decompose(module).items():
            rows.setdefault(mu[1:], [0] * (V.n_max + 1))[n] = c
    order = sorted(rows, key=lambda lam: (sum(lam), lam))
    return {
        "label": V.label,
        "n_values": list(range(V.n_max + 1)),
        "rows": {lam: rows[lam] for lam in order},
    }


def is_uniformly_stable(V: ConsistentSequence, a_max=None) -> dict:
    """Uniform representation stability verdict within the truncation.

    Finds the least N < n_max such that for every N <= n < n_max the
    connector is injective, V_{n+1} is generated over H_{n+1} by its
    image (the _generated flags), and the multiplicity columns at n and
    n+1 agree.  N = n_max is never reported: that window is empty, and
    vacuous evidence must not certify a sequence that acquires new
    generators at the last computed degree.  So n_max = 0, which has no
    connector to check, is never stable.  When a_max is given the report
    also carries the predicted onset bound s + m (stability degree of the
    exact degrees probe plus weight) for comparison.  The multiplicity
    table it reads stays kept on V, so a caller reads it again for free.
    """
    table = multiplicity_table(V)
    clauses = []
    for n, generated in enumerate(_generated(V)):
        f = V.connectors[n]
        injective = rank(f) == f.cols
        constant = all(col[n] == col[n + 1] for col in table["rows"].values())
        clauses.append(
            {
                "n": n,
                "injective": injective,
                "generated": generated,
                "multiplicities_match": constant,
            }
        )
    observed = _onset(
        [
            c["injective"] and c["generated"] and c["multiplicities_match"]
            for c in clauses
        ]
    )
    if observed == V.n_max:
        observed = None
    out = {
        "label": V.label,
        "stable": observed is not None,
        "observed_N": observed,
        "clauses": clauses,
        "qualifier": f"within truncation n_max={V.n_max}",
    }
    if a_max is not None:
        report = degrees(V, a_max)
        m = _table_weight(table)
        s = report["stability_degree"]
        out["weight"] = m
        out["stability_degree"] = s
        out["predicted_bound"] = None if s is None else s + m
        out["within_predicted"] = (
            s is not None and observed is not None and observed <= s + m
        )
    return out


def shift(V: ConsistentSequence, a: int) -> ConsistentSequence:
    """S_{+a}V: degree n is V_{n+a} with H_n acting on the last n letters.

    The a new letters enter at the front, so the retained generators are
    s_{a+1}, ..., s_{a+n-1}, relabelled to 1, ..., n-1; the connectors are
    reused unchanged and the truncation shrinks to n_max - a.  Unchecked:
    its square at (n, i) is V's square at (n + a, i + a).
    """
    if not 0 <= a <= V.n_max:
        raise ValueError(f"shift amount {a} outside truncation 0..{V.n_max}")
    if a == 0:
        return V
    modules = [
        ModulePresentation(n, big.dim, big.gen_action[a:], check=False)
        for n, big in enumerate(V.modules[a:])
    ]
    return ConsistentSequence(
        modules, V.connectors[a:], label=f"S+{a}({V.label})", check=False
    )


def shift_decompose_Mm(m: int, a: int, n_max: int) -> dict:
    """Exhibit S_{+a}M(m) = M(m) (+) C_a inside the coset basis.

    The degree-n basis of the shifted sequence is indexed by (A, w) with A
    an m-subset of {1..n+a}; the vectors with A disjoint from the new
    front letters {1..a} reproduce M(m)_n verbatim (relabelling A to A-a
    preserves the subset-lex order), and the remaining vectors form the
    complement C_a, a consistent subsequence of generation degree <= m-1.

    The bounds are checked before the memo is read.  A window with
    n_max + a < m is refused: S_{+a}M(m) is zero in every degree there, so
    its report would certify nothing.  So is one with n_max < m, where the
    M(m) summand is zero: matches_fresh_Mm would compare empty matrices,
    and bound_ok would hold for any C_a, as n_max <= m - 1.  The split is made once per
    (m, a, n_max) and kept (_shift_split); each call builds a new report
    from the kept parts.  The report's complement is the kept C_a, shared
    by every caller and never mutated, like the towers build_Mm returns,
    so it keeps its generated flags and C_a is closed once per process.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if a < 0:
        raise ValueError("a must be nonnegative")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max + a < m:
        raise ValueError(
            f"S+{a}M({m}) is zero in every degree up to n_max = {n_max}: "
            "no evidence for a verdict"
        )
    if n_max < m:
        raise ValueError(
            f"the M({m}) summand is zero in every degree up to n_max = {n_max}: "
            "no evidence for a verdict"
        )
    shifted_dims, summand_dims, matches, complement = _shift_split(m, a, n_max)
    gen_deg = generation_degree(complement)
    return {
        "m": m,
        "a": a,
        "n_max": n_max,
        "shifted_dims": list(shifted_dims),
        "summand_dims": list(summand_dims),
        "complement_dims": complement.dims(),
        "direct_sum_ok": all(
            b + c == dim
            for b, c, dim in zip(summand_dims, complement.dims(), shifted_dims)
        ),
        "matches_fresh_Mm": matches,
        "complement_generation_degree": gen_deg,
        "bound_ok": gen_deg <= m - 1,
        "complement": complement,
    }


@cache
def _shift_split(m: int, a: int, n_max: int) -> tuple:
    """(shifted dims, summand dims, matches_fresh_Mm, C_a) of
    shift_decompose_Mm, made once per (m, a, n_max).

    S_{+a}M(m) is shift(build_Mm(m, n_max + a), a).  Its degree-n basis
    vector j is T_d (x) w_i with d the (j // m!)-th coset representative
    of coset_min_reps(n + a, (m, n + a - m)), and it lies in C_a exactly
    when d puts a new letter of {1..a} in its first m places.  The summand
    and C_a are the subsequences spanned by those unit vectors, so
    _restriction_matrix certifies that every map of the shift preserves
    both and C_a is unchecked, as a span is; at a = 0 the summand is all of
    M(m), which _subsequence reuses.  matches_fresh_Mm compares
    the summand's generators and connectors with the degree-n modules and
    connectors of M(m), which depend only on n and m, not on the window,
    so equal those of a fresh M(m).
    """
    base = build_Mm(m, n_max + a)
    shifted = shift(base, a)
    parts = ([], [])  # per degree, the unit bases of (summand, C_a)
    for n in range(n_max + 1):
        reps = _coset_one_lines(n + a, (m, n + a - m)) if n + a >= m else []
        indices = ([], [])
        for j in range(shifted.modules[n].dim):
            indices[min(reps[j // factorial(m)][:m]) <= a].append(j)
        for part, chosen in zip(parts, indices):
            part.append(_unit_basis(chosen))
    summand = _subsequence(shifted, parts[0], f"M({m}) in S+{a}M({m})")
    complement = _subsequence(shifted, parts[1], f"C_{a} of S+{a}M({m})")
    matches = summand.connectors == base.connectors[:n_max] and all(
        mine.gen_action == fresh.gen_action
        for mine, fresh in zip(summand.modules, base.modules)
    )
    return tuple(shifted.dims()), tuple(summand.dims()), matches, complement


def noetherian_experiment(m: int, trials: int, seed: int, n_max: int) -> dict:
    """Random submodules of M(m): generation degree and stability, seeded.

    Each trial draws a few sparse rational vectors in random degrees,
    spans them, and asks whether the resulting subsequence is finitely
    generated and uniformly stable within the truncation.  Seed degrees
    are capped at n_max - m - 1: a submodule generated in degree d has
    weight at most m and predicted stable onset at most d + m, so the cap
    is what makes stabilization observable before the window ends.  A
    submodule born in the last degree would be flagged unstable on
    vacuous evidence, which measures the truncation, not the module.
    A trial's generation degree and its report read the generated flags
    span recorded and the multiplicity table its verdict kept on the trial,
    so no trial closes anything after its span, and each module is
    decomposed once.  M(m) is generated from degree m on, so once a trial
    fills a degree of M(m) it is M(m)'s own modules from there, with no
    closure or decomposition of its own.  Evidence, not
    proof; identical seeds give identical reports.
    At least one trial and n_max >= 1 are required: zero trials, or a
    window with no connector, would be a vacuous verdict.  So is
    n_max < 2m + 1: M(m)_n = 0 for n < m, so every seed degree up to
    n_max - m - 1 < m would draw a zero seed.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max < 2 * m + 1:
        raise ValueError(f"n_max must be at least 2m + 1 = {2 * m + 1}")
    V = build_Mm(m, n_max)
    rng = random.Random(seed)
    deg_cap = n_max - m - 1
    per_trial = []
    for t in range(trials):
        n_seeds = rng.randint(1, 3)
        seeds = []
        for _ in range(n_seeds):
            deg = rng.randint(0, deg_cap)
            dim = V.modules[deg].dim
            vec = {}
            if dim:
                support = rng.sample(range(dim), rng.randint(1, min(3, dim)))
                for i in sorted(support):
                    c = rng.randint(-3, 3)
                    if c:
                        vec[i] = scal(c)
            seeds.append((deg, vec))
        sub = span(V, seeds, label=f"trial {t}")
        verdict = is_uniformly_stable(sub)
        table = multiplicity_table(sub)
        gen_deg = generation_degree(sub)
        per_trial.append(
            {
                "trial": t,
                "seed_degrees": sorted(deg for deg, _ in seeds),
                "dims": sub.dims(),
                "generation_degree": gen_deg,
                "stable": verdict["stable"],
                "observed_N": verdict["observed_N"],
                "multiplicities": {
                    partition_label(key): counts
                    for key, counts in table["rows"].items()
                },
            }
        )
    gen_degrees = [row["generation_degree"] for row in per_trial]
    return {
        "m": m,
        "trials": trials,
        "seed": seed,
        "n_max": n_max,
        "per_trial": per_trial,
        "max_generation_degree": max(gen_degrees),
        "all_finitely_generated": all(g is not None for g in gen_degrees),
        "all_stable": all(row["stable"] for row in per_trial),
    }


def seq_kernel(f: SequenceMorphism) -> ConsistentSequence:
    """Degreewise kernel, a consistent subsequence of the source."""
    V = f.source
    bases = []
    for n in range(V.n_max + 1):
        basis = EchelonBasis()
        for v in kernel_basis(f.components[n]):
            basis.insert(v)
        bases.append(basis)
    return _subsequence(V, bases, f"ker({V.label})")


def sequence_to_json_obj(V: ConsistentSequence) -> dict:
    return {
        "schema": SCHEMA,
        "label": V.label,
        "n_max": V.n_max,
        "modules": [
            {
                "n": n,
                "dim": mod.dim,
                "generators": [_matrix_to_json(g) for g in mod.gen_action],
            }
            for n, mod in enumerate(V.modules)
        ],
        "connectors": [_matrix_to_json(f) for f in V.connectors],
    }


def _matrix_to_json(f: ExactMatrix) -> dict:
    triples = [[i, j, v.to_wire()] for (i, j), v in sorted(f.entries.items())]
    return {"rows": f.rows, "cols": f.cols, "entries": triples}


_JSON_KINDS = {dict: "an object", list: "a list", int: "an integer"}


def _expect(value, kind: type, path: str):
    """value, which must be of JSON type ``kind``; path names it in the error."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"malformed tower file: {path} must be {_JSON_KINDS[kind]}")
    return value


def _get(obj: dict, key: str, kind: type, path: str):
    where = f"{path}.{key}" if path else key
    if key not in obj:
        raise ValueError(f"malformed tower file: {where} is missing")
    return _expect(obj[key], kind, where)


def _get_size(obj: dict, key: str, path: str) -> int:
    value = _get(obj, key, int, path)
    if value < 0:
        raise ValueError(f"malformed tower file: {path}.{key} = {value} is negative")
    if value > FILE_DIM_BOUND:
        raise ValueError(
            f"malformed tower file: {path}.{key} = {value} exceeds {FILE_DIM_BOUND}"
        )
    return value


def _matrix_from_json(obj, path: str) -> ExactMatrix:
    _expect(obj, dict, path)
    rows = _get_size(obj, "rows", path)
    cols = _get_size(obj, "cols", path)
    triples = _get(obj, "entries", list, path)
    for k, entry in enumerate(triples):
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and all(type(i) is int for i in entry[:2])
            and isinstance(entry[2], str)
        ):
            raise ValueError(
                f"malformed tower file: {path}.entries[{k}] must be [row, col, value]"
            )
    entries = {(i, j): Scalar.from_wire(w) for i, j, w in triples}
    return ExactMatrix(rows, cols, entries)


def sequence_from_json_obj(obj) -> ConsistentSequence:
    """The tower a JSON object describes.

    Raises ValueError, naming the failing path, when the object does not
    have the structure of a tower file.
    """
    _expect(obj, dict, "the top level")
    if obj.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {obj.get('schema')!r}")
    modules = []
    for k, rec in enumerate(_get(obj, "modules", list, "")):
        path = f"modules[{k}]"
        _expect(rec, dict, path)
        gens = [
            _matrix_from_json(g, f"{path}.generators[{i}]")
            for i, g in enumerate(_get(rec, "generators", list, path))
        ]
        n, dim = _get(rec, "n", int, path), _get_size(rec, "dim", path)
        modules.append(ModulePresentation(n, dim, gens))
    connectors = [
        _matrix_from_json(f, f"connectors[{k}]")
        for k, f in enumerate(_get(obj, "connectors", list, ""))
    ]
    return ConsistentSequence(modules, connectors, label=obj.get("label", ""))


def save_sequence(V: ConsistentSequence, path) -> None:
    """Write V's tower file; a load of exactly these bytes returns V itself.
    V keeps the bytes, made on its first save."""
    if "file" not in V._memo:
        text = json.dumps(sequence_to_json_obj(V), sort_keys=True, indent=2)
        V._memo["file"] = (text + "\n").encode()
    data = V._memo["file"]
    with open(path, "wb") as fh:
        fh.write(data)
    _last_loaded.clear()
    _last_loaded[data] = V


# {a tower file's bytes: the tower they hold}, one entry: the tower last
# saved, or the last one parsed
_last_loaded = ContentMemo()


def load_sequence(path) -> ConsistentSequence:
    """The tower a file holds, parsed and verified from its bytes.

    The last tower saved or parsed is kept with its file's bytes, and the
    same object is returned while a file's bytes equal them: sound because
    a tower is never mutated, and it lets the reports kept on it serve
    successive commands on one file.  A tower just saved is the one in
    memory, so loading its bytes re-parses and re-verifies nothing.  Other
    bytes are parsed and verified anew, and a file that fails to parse
    leaves the kept tower as it was.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data in _last_loaded:
        return _last_loaded[data]
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        obj = json.load(text)
    except RecursionError:
        raise ValueError("malformed tower file: nested too deeply") from None
    V = sequence_from_json_obj(obj)
    _last_loaded.clear()
    _last_loaded[data] = V
    return V
