"""Reference generation degrees and consistency checks.

This is how ``heckestab.sequences`` computed generation degrees before one
closure per degree (``_generated``) served them all, and checked the
commuting squares before one intertwining test served every map.  It is
kept only as the slow, obviously correct side of the differential tests:

  * ``generation_degree`` spans the full bases of degrees <= d, for
    d = 0, 1, ..., and stops at the first d whose span is all of V;
  * ``span_report`` spans each prefix of the seeds (degree <= d, for d in
    {0} and the seed degrees) and keeps the first that gives V;
  * ``stability_clauses`` decides "V_{n+1} is generated by phi_n(V_n)" by
    spanning the full basis of V_n alone;
  * ``check_consistency`` compares phi_n T_{s_i} with T_{s_i} phi_n square
    by square.
"""

from heckestab.linalg import rank
from heckestab.qfield import ONE
from heckestab.sequences import _span_bases, multiplicity_table


def _full_basis_seeds(V, degrees):
    return [(n, {i: ONE}) for n in degrees for i in range(V.modules[n].dim)]


def _span_dims(V, seeds) -> list:
    return [len(b.vectors) for b in _span_bases(V, seeds)]


def generation_degree(V):
    ambient = V.dims()
    for d in range(V.n_max + 1):
        if _span_dims(V, _full_basis_seeds(V, range(d + 1))) == ambient:
            return d
    return None


def span_report(V, seeds) -> dict:
    """span's report, without the inclusion morphism."""
    seeds = list(seeds)
    dims = _span_dims(V, seeds)
    ambient = V.dims()
    generation = None
    if dims == ambient:
        for d in sorted({0, *(deg for deg, _ in seeds)}):
            prefix = [(deg, vec) for deg, vec in seeds if deg <= d]
            if _span_dims(V, prefix) == ambient:
                generation = d
                break
    return {
        "dims": dims,
        "ambient_dims": ambient,
        "spans_ambient": dims == ambient,
        "generation_degree": generation,
        "seed_degrees": sorted({deg for deg, _ in seeds}),
    }


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
