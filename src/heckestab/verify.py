"""End-to-end verification suite: every claim the engine must reproduce.

Each criterion is a plain function returning (ok, detail) with a
deterministic detail string; run_criteria prints one PASS/FAIL line per
criterion on stdout and all timings on stderr, so that two runs with the
same configuration produce byte-identical stdout.  verify_all additionally
re-runs the whole battery and compares the two reports byte for byte,
which is itself the final criterion.  Between the passes it clears the
process memos (clear_memos), so the second pass rebuilds every module and
table the first one built, and a construction that varies between builds
shows.

Failures are never downgraded: any exception inside a criterion surfaces
as a FAIL line carrying the exception text.
"""

from __future__ import annotations

import math
import sys
import time

from .hecke import regular_representation
from .partitions import (
    pad,
    partitions_of,
    pieri_add,
    row_standard_tableaux,
    stable_multiplicity_oracle,
    syt_count,
    syt_enumerate,
)
from .sequences import (
    build_M_specht,
    build_Mm,
    degrees,
    is_uniformly_stable,
    multiplicity_table,
    noetherian_experiment,
    non_finitely_generated,
    shift_decompose_Mm,
    weight,
)
from .specht import coinvariant_quotients, decompose, specht_module
from .symgroup import double_coset_stabilization

__all__ = ["CRITERIA", "clear_memos", "run_criteria", "verify_all"]

SPECHT_SET = ((1,), (2,), (1, 1), (2, 1), (3,))


def relation_suite(n_max=6):
    """Regular modules carry a verified action and have dimension n!."""
    dims = []
    for n in range(6):
        V = regular_representation(n)
        if V.dim != math.factorial(n):
            return False, f"dim {V.dim} != {n}! at rank {n}"
        dims.append(V.dim)
    return True, f"regular modules n <= 5 verified, dims {dims}"


def seminormal_suite(n_max=6):
    """Every shape of size <= 6 builds and matches the hook-length count."""
    built = 0
    for n in range(7):
        for lam in partitions_of(n):
            V = specht_module(lam)
            if V.dim != syt_count(lam):
                return False, f"dim mismatch for {lam}"
            built += 1
    for n in range(8):
        for lam in partitions_of(n):
            if syt_count(lam) != len(syt_enumerate(lam)):
                return False, f"hook count disagrees with enumeration at {lam}"
    return True, f"{built} seminormal modules verified, hook counts match through size 7"


def decomposition_oracle(n_max=6):
    """Characters recover the regular decomposition and the Pieri rule."""
    for n in range(5):
        got = decompose(regular_representation(n))
        want = {lam: syt_count(lam) for lam in partitions_of(n)}
        if got != want:
            return False, f"regular decomposition differs at rank {n}"
    cases = 0
    for m in range(5):
        for lam in partitions_of(m):
            for k in range(7 - m):
                V = specht_module(lam).induced_by_index(k)
                got = decompose(V)
                want = {mu: 1 for mu in pieri_add(lam, k)}
                if got != want:
                    return False, f"induction table differs at {lam}, k={k}"
                cases += 1
    return True, f"regular ranks <= 4 and {cases} induction tables match the Pieri rule"


def coinvariants_lemmas(n_max=6):
    """Branching: vanishing below the weight, S^lam at it, n-independence above."""
    checked = 0
    for size in range(4):
        for lam in partitions_of(size):
            lam1 = lam[0] if lam else 0
            seen = {}
            for n in range(size + lam1, 7):
                V = specht_module(pad(lam, n))
                quotients = coinvariant_quotients(V, range(n + 1))
                for a in range(n + 1):
                    quotient, _ = quotients[a]
                    checked += 1
                    if (quotient.dim == 0) != (a < size):
                        return False, f"vanishing wrong at lam={lam}, n={n}, a={a}"
                    if a < size or (a > size and n < a + size):
                        continue
                    dec = decompose(quotient)
                    if a == size and dec != {lam: 1}:
                        return False, f"quotient at a=|lam| is not S^{lam} (n={n})"
                    if n >= a + size and seen.setdefault((lam, a), dec) != dec:
                        return False, f"n-dependence at lam={lam}, a={a}"
    return True, f"{checked} quotients: zero iff a < |lam|, S^lam at a = |lam|, n-independent above"


def degree_theorems(n_max=6):
    """M(m) has injective degree 0 and surjective degree m; M(S^lam) has
    stability degree lam_1."""
    for m in (1, 2, 3):
        report = degrees(build_Mm(m, n_max), 2)
        if report["injective_degree"] != 0:
            return False, f"M({m}) injective degree {report['injective_degree']} != 0"
        if report["surjective_degree"] != m:
            return False, f"M({m}) surjective degree {report['surjective_degree']} != {m}"
    for lam in SPECHT_SET:
        report = degrees(build_M_specht(lam, n_max), 2)
        if report["stability_degree"] != lam[0]:
            return False, (
                f"M(S^{lam}) stability degree {report['stability_degree']} != {lam[0]}"
            )
    return True, (
        "M(m): inj 0, surj m for m <= 3; M(S^lam): stability degree lam_1"
        f" for {len(SPECHT_SET)} shapes"
    )


def weight_theorem(n_max=6):
    """weight(M(S^lam)) = |lam|."""
    got = {lam: weight(build_M_specht(lam, n_max)) for lam in SPECHT_SET}
    for lam, w in got.items():
        if w != sum(lam):
            return False, f"weight(M(S^{lam})) = {w} != {sum(lam)}"
    weights = [got[lam] for lam in SPECHT_SET]
    return True, f"weights {weights} equal |lam| for {len(SPECHT_SET)} shapes"


def stability_pipeline(n_max=6):
    """Positive uniform-stability verdicts with onset <= lam_1 + |lam| and
    multiplicity tables equal to the one-strip oracle at every rank.

    The verdict refuses vacuous evidence, so certifying an onset of N
    takes at least one verified step at degree N; when the predicted
    bound reaches n_max the window is extended by one degree.  The
    columns compared with the oracle are read off the multiplicity table
    the verdict kept on the tower, so each V_n is decomposed once.
    """
    onsets = []
    for lam in SPECHT_SET:
        bound = lam[0] + sum(lam)
        top = max(n_max, bound + 1)
        V = build_M_specht(lam, top)
        verdict = is_uniformly_stable(V, a_max=2)
        if not verdict["stable"]:
            return False, f"M(S^{lam}) not stable within truncation"
        if verdict["observed_N"] > bound:
            return False, f"M(S^{lam}) onset {verdict['observed_N']} > {bound}"
        rows = multiplicity_table(V)["rows"].items()
        for n in range(sum(lam), top + 1):
            column = {pad(row, n): c[n] for row, c in rows if c[n]}
            if column != stable_multiplicity_oracle(lam, n):
                return False, f"multiplicities differ from oracle at {lam}, n={n}"
        onsets.append(verdict["observed_N"])
    return True, f"onsets {onsets} within lam_1 + |lam|; tables match the one-strip oracle"


def shift_decomposition(n_max=6):
    """S_{+a}M(m) splits as M(m) + C_a with C_a generated below degree m."""
    for m in (1, 2, 3):
        for a in (0, 1, 2):
            report = shift_decompose_Mm(m, a, n_max)
            if not (report["direct_sum_ok"] and report["matches_fresh_Mm"]):
                return False, f"decomposition failed at m={m}, a={a}"
            if not report["bound_ok"]:
                return False, (
                    f"C_a generation degree {report['complement_generation_degree']} "
                    f"> {m - 1} at m={m}, a={a}"
                )
    return True, "S_+a M(m) = M(m) + C_a with gen(C_a) <= m-1 for m <= 3, a <= 2"


def double_coset_combinatorics(n_max=6):
    """Inclusion chains stabilize by n = m and sizes count row-standard fillings."""
    for a in (0, 1, 2):
        for m in (1, 2, 3):
            report = double_coset_stabilization(a, m, n_max)
            if not report["inclusions_ok"]:
                return False, f"inclusions broken at a={a}, m={m}"
            if not report["stabilized_by_m"]:
                return False, f"not stabilized by n=m at a={a}, m={m}"
            for row in report["chain"]:
                n = row["n"]
                count = len(row_standard_tableaux((m, a + n - m), (1,) * a + (n,)))
                if row["size"] != count:
                    return False, f"size != row-standard count at a={a}, m={m}, n={n}"
    return True, "chains stabilize by n = m and sizes equal row-standard counts (a <= 2, m <= 3)"


def noetherian_evidence(n_max=6):
    """Random submodules of M(2) are finitely generated and stabilize."""
    report = noetherian_experiment(2, 20, 42, n_max)
    if not report["all_finitely_generated"]:
        return False, "a spanned subsequence was not finitely generated"
    if not report["all_stable"]:
        bad = [r["trial"] for r in report["per_trial"] if not r["stable"]]
        return False, f"unstable trials {bad}"
    return True, (
        f"20/20 random submodules finitely generated and stable, "
        f"max generation degree {report['max_generation_degree']}"
    )


def converse_probe(n_max=6):
    """The doubling tower must be flagged: multiplicity columns never settle."""
    verdict = is_uniformly_stable(non_finitely_generated(n_max))
    if verdict["stable"]:
        return False, "doubling tower wrongly judged stable"
    last = verdict["clauses"][-1]
    if last["multiplicities_match"]:
        return False, "multiplicity clause unexpectedly satisfied at the top degree"
    return True, "doubling tower flagged unstable; multiplicity clause fails as predicted"


CRITERIA = (
    ("relation-suite", relation_suite),
    ("seminormal-suite", seminormal_suite),
    ("decomposition-oracle", decomposition_oracle),
    ("coinvariants-lemmas", coinvariants_lemmas),
    ("degree-theorems", degree_theorems),
    ("weight", weight_theorem),
    ("stability-pipeline", stability_pipeline),
    ("shift-decomposition", shift_decomposition),
    ("double-coset-combinatorics", double_coset_combinatorics),
    ("noetherian-evidence", noetherian_evidence),
    ("converse-probe", converse_probe),
)


def run_criteria(n_max=6, err=None):
    """Run criteria 1-11; returns (all_ok, report text).  Timings to err."""
    err = err if err is not None else sys.stderr
    lines = []
    all_ok = True
    for idx, (name, fn) in enumerate(CRITERIA, start=1):
        t0 = time.perf_counter()
        try:
            ok, detail = fn(n_max)
        except Exception as exc:  # a raising criterion is a failing criterion
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        print(f"[timing] {name}: {elapsed:.2f}s", file=err)
        lines.append(f"{'PASS' if ok else 'FAIL'} {idx:2d} {name}: {detail}")
        all_ok = all_ok and ok
    return all_ok, "\n".join(lines) + "\n"


def clear_memos() -> None:
    """Forget every process memo, the loaded tower included.

    A memo is any object but a class (hecke.ContentMemo is one) with a
    cache_clear at the top level of a package module, so declaring a memo
    is what gets it cleared.  Modules not imported have no memo filled."""
    memos = {
        id(obj): obj
        for name, module in list(sys.modules.items())
        if name.startswith(f"{__package__}.")
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear") and not isinstance(obj, type)
    }
    for memo in memos.values():
        memo.cache_clear()


def verify_all(n_max=6, out=None, err=None) -> int:
    """Full battery plus the determinism criterion; 0 iff everything passed."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    t0 = time.perf_counter()
    ok_first, report_first = run_criteria(n_max, err=err)
    clear_memos()
    ok_second, report_second = run_criteria(n_max, err=err)
    identical = report_first.encode() == report_second.encode()
    out.write(report_first)
    detail = (
        "two runs produced byte-identical reports"
        if identical
        else "reports differ between runs"
    )
    out.write(f"{'PASS' if identical else 'FAIL'} 12 determinism: {detail}\n")
    total = time.perf_counter() - t0
    print(f"[timing] total: {total:.2f}s", file=err)
    return 0 if (ok_first and ok_second and identical) else 1
