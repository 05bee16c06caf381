"""Seeded inputs, timed operations and oracles for each workload.

A workload makes its inputs from the seed as plain data (tuples, ints,
argv lists) before the package is imported, so the program sees only the
generated inputs.  Inputs come in passes: one pass is a deck of jobs whose
cost classes are fixed and whose order and free choices are drawn from the
seed, so every seed asks for about the same work and the run-to-run spread
measures the program, not the draw.

Each workload provides:

* ``pass_jobs(rng)``: one pass of jobs, drawing from ``rng``;
* ``warm_up(pkg)``: set-up after import (character tables);
* ``setup_repeats``: how many times a run sets up, a constant so that the
  sampling of ``setup_s`` does not change when set-up gets faster;
* ``prepare(pkg, job)``: untimed conversion of a job into call arguments;
* ``call(pkg, prepared)``: the timed operation;
* ``check(pkg, job, result)``: the oracle, returning (ok, canonical bytes).

No oracle calls the code it checks: dimensions come from hook lengths and
binomials computed here, decompositions from the Pieri rule, and Hecke
products from composing permutations at q = 1.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
from fractions import Fraction

# -- combinatorics used to make inputs and oracles --------------------------


def partitions(n: int, largest: int = None) -> list:
    """Partitions of n in reverse lexicographic order."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, largest), 0, -1):
        out.extend((first,) + rest for rest in partitions(n - first, first))
    return out


def conjugate(lam) -> tuple:
    return tuple(sum(1 for part in lam if part > c) for c in range(lam[0] if lam else 0))


def hook_count(lam) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    conj = conjugate(lam)
    hooks = 1
    for r, row in enumerate(lam):
        for c in range(row):
            hooks *= (row - c - 1) + (conj[c] - r - 1) + 1
    return math.factorial(sum(lam)) // hooks


def conjugacy_classes(n: int) -> list:
    """Partitions of n up to conjugation, as (lam, lam') with lam >= lam'."""
    return [(lam, conjugate(lam)) for lam in partitions(n) if lam >= conjugate(lam)]


def label(lam) -> str:
    return ",".join(str(p) for p in lam)


def _pick(rng, pair):
    """One member of a conjugate pair, chosen by the seed."""
    return pair[rng.randrange(2)]


# -- modules: Specht, induced and regular modules, each decomposed ----------

MODULE_RANKS = (5, 6, 7)
# rank-7 Specht classes in a pass (the seed picks lam or its conjugate);
# the other eight would double the pass time.  Ranks 5 and 6 take every shape.
RANK7_SPECHT = ((7,), (6, 1), (5, 2), (4, 3), (4, 2, 1))
# (lam, k) for Ind(S^lam (x) index_k); the seed picks lam or its conjugate
INDUCE_SLOTS = (
    ((1,), 4), ((2, 1), 2), ((2,), 3), ((3, 1), 1),
    ((1,), 5), ((2,), 4), ((3, 1), 2), ((2, 1), 3), ((3,), 3), ((3, 2), 1), ((2, 2), 2),
    ((1,), 6), ((2,), 5), ((2, 1), 4), ((2, 2), 3), ((4,), 3), ((3,), 4),
)
REGULAR_RANKS = (4, 5)


class Modules:
    name = "modules"
    setup_repeats = 1  # one set-up builds the rank-7 table: about 25 s on a 2-vCPU Xeon

    def pass_jobs(self, rng) -> list:
        jobs = [("specht", lam) for n in MODULE_RANKS[:-1] for lam in partitions(n)]
        jobs.extend(
            ("specht", _pick(rng, pair))
            for pair in conjugacy_classes(7) if pair[0] in RANK7_SPECHT
        )
        for lam, k in INDUCE_SLOTS:
            jobs.append(("induce", _pick(rng, (lam, conjugate(lam))), k))
        jobs.extend(("regular", n) for n in REGULAR_RANKS)
        rng.shuffle(jobs)
        return jobs

    def warm_up(self, pkg) -> None:
        for n in (*REGULAR_RANKS, *MODULE_RANKS):
            pkg.character_table(n)

    def prepare(self, pkg, job):
        return job

    def call(self, pkg, job):
        if job[0] == "specht":
            V = pkg.specht_module(job[1])
        elif job[0] == "induce":
            V = pkg.induce_pair(pkg.specht_module(job[1]), pkg.index_rep(job[2]))
        else:
            V = pkg.regular_representation(job[1])
        return V.dim, pkg.decompose(V)

    def check(self, pkg, job, result):
        dim, dec = result
        if job[0] == "specht":
            lam = job[1]
            want_dim, want = hook_count(lam), {lam: 1}
        elif job[0] == "induce":
            lam, k = job[1], job[2]
            want_dim = math.comb(sum(lam) + k, k) * hook_count(lam)
            want = {mu: 1 for mu in pkg.pieri_add(lam, k)}
        else:
            n = job[1]
            want_dim = math.factorial(n)
            want = {lam: hook_count(lam) for lam in partitions(n)}
        canonical = f"{job}|{dim}|{sorted(dec.items())}"
        return dim == want_dim and dec == want, canonical.encode()


# -- towers: CLI sessions on towers of modules --------------------------------

TOWER_NMAX = 6
TOWERS = (
    ("Mm", 1), ("Mm", 2), ("Mm", 3),
    ("M-specht", (1,)), ("M-specht", (2,)), ("M-specht", (1, 1)),
    ("M-specht", (3,)), ("M-specht", (2, 1)), ("M-specht", (1, 1, 1)),
)
SHIFT_PAIRS = tuple((m, a) for m in (1, 2, 3) for a in (0, 1, 2))
# Random submodules of M(2) cost from 0.02 s to several seconds depending on
# the draw, which would make a pass's cost depend on the seed; those of M(1)
# stay within 0.4 s.  A trial that draws only zero vectors takes 0.01 s;
# two trials per op make a run of such draws rare, so the median op does
# not move with the seed.
NOETHERIAN_M = 1
NOETHERIAN_TRIALS = 2
TOWER_FILE = "tower.json"


def tower_shapes(kind, param) -> dict:
    """{lam: multiplicity} of the Specht modules the tower is induced from."""
    if kind == "Mm":
        return {lam: hook_count(lam) for lam in partitions(param)}
    return {param: 1}


def tower_dims(kind, param, n_max) -> list:
    return [
        sum(c * math.comb(n, sum(lam)) * hook_count(lam)
            for lam, c in tower_shapes(kind, param).items() if n >= sum(lam))
        for n in range(n_max + 1)
    ]


def tower_table(pkg, kind, param, n_max) -> dict:
    """Multiplicity table {unpadded label: [c_n]} from the one-strip oracle."""
    rows: dict = {}
    for lam, c in tower_shapes(kind, param).items():
        for n in range(sum(lam), n_max + 1):
            for mu in pkg.stable_multiplicity_oracle(lam, n):
                rows.setdefault(label(mu[1:]), [0] * (n_max + 1))[n] += c
    return rows


def tower_stable(pkg, kind, param, n_max) -> bool:
    """Uniform stability within the window, predicted from the oracle table.

    M(W) is free on generators of degree |lam|, so its connectors are
    injective and V_{n+1} is generated by V_n except where V_n = 0 and
    V_{n+1} != 0; the multiplicity clause compares oracle columns.
    """
    dims = tower_dims(kind, param, n_max)
    table = tower_table(pkg, kind, param, n_max)
    good = [
        not (dims[n] == 0 and dims[n + 1] > 0)
        and all(col[n] == col[n + 1] for col in table.values())
        for n in range(n_max)
    ]
    return any(all(good[N:]) for N in range(n_max))


class Towers:
    name = "towers"
    setup_repeats = 3

    def pass_jobs(self, rng) -> list:
        sessions = list(TOWERS)
        pairs = list(SHIFT_PAIRS)
        rng.shuffle(sessions)
        rng.shuffle(pairs)
        jobs = []
        for (kind, param), (m, a) in zip(sessions, pairs):
            tower = (kind, param)
            if kind == "Mm":
                build = ["--kind", "Mm", "--m", str(param)]
            else:
                build = ["--kind", "M-specht", "--lambda", label(param)]
            f = ["--in", TOWER_FILE]
            steps = [
                ("build", ["seq", "build", *build, "--nmax", str(TOWER_NMAX),
                           "--out", TOWER_FILE]),
                ("degrees", ["seq", "degrees", *f, "--amax", "2"]),
                ("weight", ["seq", "weight", *f]),
                ("multiplicities", ["seq", "multiplicities", *f, "--format", "csv"]),
                ("check-stable", ["seq", "check-stable", *f]),
                ("noetherian", ["seq", "noetherian", "--m", str(NOETHERIAN_M),
                                "--trials", str(NOETHERIAN_TRIALS),
                                "--seed", str(rng.randrange(10**6)),
                                "--nmax", str(TOWER_NMAX)]),
                ("shift-decompose", ["seq", "shift-decompose", "--m", str(m),
                                     "--a", str(a), "--nmax", str(TOWER_NMAX)]),
            ]
            jobs.extend((tower, step, argv) for step, argv in steps)
        return jobs

    def warm_up(self, pkg) -> None:
        for n in range(TOWER_NMAX + 1):
            pkg.character_table(n)

    def prepare(self, pkg, job):
        return job[2]

    def call(self, pkg, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, pkg, job, result):
        (kind, param), step, argv = job
        code, out, err = result
        canonical = f"{' '.join(argv)}|{code}|".encode() + out.encode()
        ok = self._expected(pkg, kind, param, step, argv, code, out) and not err
        return ok, canonical

    def _expected(self, pkg, kind, param, step, argv, code, out) -> bool:
        size = param if kind == "Mm" else sum(param)
        if step == "multiplicities":
            rows = list(csv.reader(io.StringIO(out)))
            header = ["lambda"] + [f"n={n}" for n in range(TOWER_NMAX + 1)]
            got = {r[0]: [int(x) for x in r[1:]] for r in rows[1:]}
            return code == 0 and rows[0] == header and got == tower_table(
                pkg, kind, param, TOWER_NMAX)
        report = json.loads(out)
        if step == "build":
            return code == 0 and report["dims"] == tower_dims(kind, param, TOWER_NMAX)
        if step == "degrees":
            if kind == "Mm":
                return (code == 0 and report["injective_degree"] == 0
                        and report["surjective_degree"] == size)
            return code == 0 and report["stability_degree"] == param[0]
        if step == "weight":
            return code == 0 and report["weight"] == size
        if step == "check-stable":
            stable = tower_stable(pkg, kind, param, TOWER_NMAX)
            return code == (0 if stable else 1) and report["stable"] == stable
        if step == "noetherian":
            return (code == 0 and report["all_finitely_generated"]
                    and report["all_stable"])
        m, a = int(argv[argv.index("--m") + 1]), int(argv[argv.index("--a") + 1])
        free = math.factorial(m)
        summand = [math.comb(n, m) * free for n in range(TOWER_NMAX + 1)]
        shifted = [math.comb(n + a, m) * free for n in range(TOWER_NMAX + 1)]
        return (
            code == 0
            and report["direct_sum_ok"] and report["matches_fresh_Mm"]
            and report["bound_ok"]
            and report["complement_generation_degree"] <= m - 1
            and report["summand_dims"] == summand
            and report["shifted_dims"] == shifted
            and report["complement_dims"] == [s - b for s, b in zip(shifted, summand)]
        )


# -- hecke: T-basis products checked at q = 1 ---------------------------------

HECKE_RANKS = (5, 6)
HECKE_TERMS = range(1, 13)


def length(w) -> int:
    """Number of inversions of a permutation in one-line notation."""
    return sum(1 for i, a in enumerate(w) for b in w[i + 1:] if a > b)


def by_length(n: int) -> list:
    """Permutations of 1..n grouped by length: out[l] lists those of length l."""
    out: list = [[] for _ in range(n * (n - 1) // 2 + 1)]
    for w in itertools.permutations(range(1, n + 1)):
        out[length(w)].append(w)
    return out


def random_element(rng, classes, terms) -> tuple:
    """(one-line, integer coefficients lowest degree first) pairs.

    The cost of a product grows with the lengths of its terms, so the
    lengths are fixed quantiles of the length distribution and only the
    permutations of each length are drawn; coefficient degrees cycle
    through 0, 1, 2.
    """
    total = sum(len(c) for c in classes)
    wanted: dict = {}
    for k in range(terms):
        target, seen = (k + 0.5) / terms * total, 0
        for ell, perms in enumerate(classes):
            seen += len(perms)
            if seen >= target:
                wanted[ell] = wanted.get(ell, 0) + 1
                break
    out = []
    for ell, count in sorted(wanted.items()):
        for w in rng.sample(classes[ell], count):
            coeffs = [rng.randint(-3, 3) for _ in range(len(out) % 3)]
            coeffs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
            out.append((w, tuple(coeffs)))
    return tuple(out)


def at_one(num, den=(1,)) -> Fraction:
    """A polynomial quotient evaluated at q = 1."""
    return Fraction(sum(num)) / Fraction(sum(den))


def compose(w, v) -> tuple:
    """One-line notation of w o v."""
    return tuple(w[x - 1] for x in v)


def group_product(x, y) -> dict:
    """x y in Q[S_n] for elements given as (one-line, coefficients) at q = 1."""
    out: dict = {}
    for w, a in x:
        for v, b in y:
            key = compose(w, v)
            out[key] = out.get(key, 0) + at_one(a) * at_one(b)
    return {k: c for k, c in out.items() if c}


class Hecke:
    name = "hecke"
    setup_repeats = 3

    def pass_jobs(self, rng) -> list:
        jobs = []
        for n in HECKE_RANKS:
            classes = by_length(n)
            for i, j in itertools.product(HECKE_TERMS, HECKE_TERMS):
                x = random_element(rng, classes, i)
                y = random_element(rng, classes, j)
                jobs.append((n, x, y))
        rng.shuffle(jobs)
        return jobs

    def warm_up(self, pkg) -> None:
        pass

    def prepare(self, pkg, job):
        n, x, y = job

        def element(terms):
            return pkg.HeckeElement(n, {
                pkg.Permutation(w): pkg.Scalar(tuple(Fraction(c) for c in coeffs))
                for w, coeffs in terms
            })

        return element(x), element(y)

    def call(self, pkg, prepared):
        return pkg.mult(*prepared)

    def check(self, pkg, job, result):
        _n, x, y = job
        got = {}
        for w, c in result.coeffs.items():
            value = at_one(c.num, c.den)
            if value:
                got[w.one_line] = value
        lines = sorted(f"{w.one_line}:{c.to_wire()}" for w, c in result.coeffs.items())
        return got == group_product(x, y), "\n".join(lines).encode()


WORKLOADS = {w.name: w for w in (Modules(), Towers(), Hecke())}


# -- battery: the twelve-criterion acceptance run, run by hand ----------------

BATTERY_NMAX = 6


class Battery:
    """``verify_all(n_max=6)`` once per run; the seed is recorded but unused.

    Ops are the 22 criterion runs (11 cold, then 11 warm).  One run takes
    over a minute, too long for the workloads in BENCHMARK.json, so it is
    run by hand.
    """

    name = "battery"
    setup_repeats = 1

    def warm_up(self, pkg) -> None:
        pass

    def run(self, pkg, clock) -> dict:
        """Run the battery, timing each criterion and each pass with ``clock``."""
        verify = pkg.verify
        timings = []  # (pass index, criterion, seconds)
        passes = []  # seconds per run_criteria call

        def timed_criterion(name, fn):
            def wrapped(n_max):
                t0 = clock()
                try:
                    return fn(n_max)
                finally:
                    timings.append((len(passes), name, clock() - t0))
            return wrapped

        run_criteria = verify.run_criteria

        def timed_pass(*args, **kwargs):
            t0 = clock()
            try:
                return run_criteria(*args, **kwargs)
            finally:
                passes.append(clock() - t0)

        verify.CRITERIA = tuple((name, timed_criterion(name, fn)) for name, fn in verify.CRITERIA)
        verify.run_criteria = timed_pass
        out, err = io.StringIO(), io.StringIO()
        code = verify.verify_all(BATTERY_NMAX, out=out, err=err)
        report = out.getvalue()
        lines = report.splitlines()
        ok = (
            code == 0
            and len(lines) == 12
            and all(line.startswith("PASS") for line in lines)
            and lines[-1].startswith("PASS 12 determinism")
        )
        return {
            "ok": ok,
            "canonical": report.encode(),
            "latencies": [t for _, _, t in timings],
            "timings": timings,
            "passes": passes,
        }


BATTERY = Battery()
