"""Command-line front end: products, sequences, tables, verdicts.

Output conventions: results go to stdout as JSON (or CSV on request),
errors go to stderr as a single JSON object {"error": ...}, timings go to
stderr only.  Identical invocations, including seeds, produce
byte-identical stdout.  Exit codes: 0 success, 1 a verification-style
command returned a negative verdict, 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .hecke import HeckeElement, mult
from .partitions import parse_partition_label, partition_label
from .sequences import (
    build_M_specht,
    build_Mm,
    degrees,
    is_uniformly_stable,
    load_sequence,
    multiplicity_table,
    noetherian_experiment,
    save_sequence,
    shift_decompose_Mm,
    weight,
)
from .symgroup import Permutation
from .verify import verify_all

__all__ = ["main"]


def _emit_error(message: str) -> None:
    print(json.dumps({"error": str(message)}, sort_keys=True), file=sys.stderr)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse with machine-readable errors; still exits with code 2."""

    def error(self, message):
        _emit_error(message)
        raise SystemExit(2)


def _parse_word(text: str) -> list:
    letters = text.replace(",", " ").split()
    try:
        return [int(tok) for tok in letters]
    except ValueError:
        raise ValueError(f"word {text!r} is not a list of generator indices")


def _word_element(n: int, text: str) -> HeckeElement:
    x = HeckeElement.one(n)
    for i in _parse_word(text):
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} outside 1..{n - 1}")
        x = mult(x, HeckeElement.basis(n, Permutation.simple(n, i)))
    return x


def _basis_name(w: Permutation) -> str:
    word = w.reduced_word()
    return "T_" + ".".join(str(i) for i in word) if word else "T_e"


MULT_N_BOUND = 1 << 8


def _cmd_hecke_mult(args) -> int:
    """Print T_left T_right in H_n, for 1 <= n <= MULT_N_BOUND = 256.

    A larger n is bad input: a permutation of S_n is held as n ints (the
    identity at n = 10^6 took 88 MB), and each product step finds a left
    descent by tuple.index, O(n^2): a three-by-three-letter product took
    0.16 s at n = 1000 and 2.2 s at n = 4000, nearly all in first_descent.
    At 256 it takes under 10 ms; the benchmark multiplies in H_5 and H_6.
    """
    if args.n < 1:
        raise ValueError("n must be at least 1")
    if args.n > MULT_N_BOUND:
        raise ValueError(f"size bound: n = {args.n} exceeds {MULT_N_BOUND}")
    product = mult(
        _word_element(args.n, args.left), _word_element(args.n, args.right)
    )
    _emit({_basis_name(w): str(c) for w, c in product.coeffs.items()})
    return 0


def _cmd_seq_build(args) -> int:
    if args.nmax < 1:
        raise ValueError("nmax must be at least 1")
    if args.kind == "Mm":
        if args.m is None:
            raise ValueError("--kind Mm requires --m")
        V = build_Mm(args.m, args.nmax)
    else:
        if args.lam is None:
            raise ValueError("--kind M-specht requires --lambda")
        V = build_M_specht(parse_partition_label(args.lam), args.nmax)
    save_sequence(V, args.out)
    _emit({"label": V.label, "n_max": V.n_max, "dims": V.dims(), "out": args.out})
    return 0


def _cmd_seq_degrees(args) -> int:
    _emit(degrees(load_sequence(args.infile), args.amax))
    return 0


def _cmd_seq_weight(args) -> int:
    V = load_sequence(args.infile)
    _emit({"label": V.label, "n_max": V.n_max, "weight": weight(V)})
    return 0


def _cmd_seq_multiplicities(args) -> int:
    table = multiplicity_table(load_sequence(args.infile))
    rows = {partition_label(key): counts for key, counts in table["rows"].items()}
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lambda"] + [f"n={n}" for n in table["n_values"]])
        for label, counts in rows.items():
            writer.writerow([label] + [str(c) for c in counts])
        sys.stdout.write(buf.getvalue())
    else:
        _emit({"label": table["label"], "n_values": table["n_values"], "rows": rows})
    return 0


def _cmd_seq_check_stable(args) -> int:
    """Print the uniform stability verdict; exit 1 when it is negative.

    A tower that is zero in every degree of its window gives no evidence
    either way (M(3) built with --nmax 2, say), so it is refused as bad
    input rather than certified stable.
    """
    V = load_sequence(args.infile)
    if not any(V.dims()):
        raise ValueError(
            f"every V_n is zero within n_max = {V.n_max}: no evidence for a verdict"
        )
    a_max = min(2, V.n_max) if args.amax is None else args.amax
    verdict = is_uniformly_stable(V, a_max=a_max)
    _emit(verdict)
    return 0 if verdict["stable"] else 1


def _cmd_seq_shift_decompose(args) -> int:
    report = shift_decompose_Mm(args.m, args.a, args.nmax)
    report = {k: v for k, v in report.items() if k != "complement"}
    _emit(report)
    ok = report["direct_sum_ok"] and report["matches_fresh_Mm"] and report["bound_ok"]
    return 0 if ok else 1


def _cmd_seq_noetherian(args) -> int:
    report = noetherian_experiment(args.m, args.trials, args.seed, args.nmax)
    _emit(report)
    return 0 if report["all_finitely_generated"] and report["all_stable"] else 1


def _cmd_verify_all(args) -> int:
    return verify_all()


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process and shared.

    Parsing does not change it.  Sharing it matters for memory, not only
    time: a parser is a web of reference cycles, so one parser per call
    is garbage that only the cyclic collector reclaims.  Its ``leaves``
    attribute maps each (group, command) to that command's own parser,
    the object ``add_parser`` returned here, so each command is defined
    once and ``main`` can parse with it alone.
    """
    parser = _Parser(prog="heckestab", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True, parser_class=_Parser)

    hecke = top.add_parser("hecke", help="algebra-level computations")
    hecke_sub = hecke.add_subparsers(dest="command", required=True, parser_class=_Parser)
    mult_p = hecke_sub.add_parser("mult", help="product of two T-basis words")
    mult_p.add_argument("--n", type=int, required=True)
    mult_p.add_argument("--left", required=True)
    mult_p.add_argument("--right", required=True)
    mult_p.set_defaults(func=_cmd_hecke_mult)

    seq = top.add_parser("seq", help="consistent-sequence computations")
    seq_sub = seq.add_subparsers(dest="command", required=True, parser_class=_Parser)

    build_p = seq_sub.add_parser("build", help="build and serialize a sequence")
    build_p.add_argument("--kind", choices=("Mm", "M-specht"), required=True)
    build_p.add_argument("--m", type=int)
    build_p.add_argument("--lambda", dest="lam")
    build_p.add_argument("--nmax", type=int, required=True)
    build_p.add_argument("--out", required=True)
    build_p.set_defaults(func=_cmd_seq_build)

    degrees_p = seq_sub.add_parser("degrees", help="injective/surjective/stability degrees")
    degrees_p.add_argument("--in", dest="infile", required=True)
    degrees_p.add_argument("--amax", type=int, required=True)
    degrees_p.set_defaults(func=_cmd_seq_degrees)

    weight_p = seq_sub.add_parser("weight", help="maximal constituent size")
    weight_p.add_argument("--in", dest="infile", required=True)
    weight_p.set_defaults(func=_cmd_seq_weight)

    mult_table_p = seq_sub.add_parser("multiplicities", help="c_{lambda,n} table")
    mult_table_p.add_argument("--in", dest="infile", required=True)
    mult_table_p.add_argument("--format", choices=("json", "csv"), default="json")
    mult_table_p.set_defaults(func=_cmd_seq_multiplicities)

    stable_p = seq_sub.add_parser("check-stable", help="uniform stability verdict")
    stable_p.add_argument("--in", dest="infile", required=True)
    stable_p.add_argument("--amax", type=int)
    stable_p.set_defaults(func=_cmd_seq_check_stable)

    shift_p = seq_sub.add_parser("shift-decompose", help="split the shifted M(m)")
    shift_p.add_argument("--m", type=int, required=True)
    shift_p.add_argument("--a", type=int, required=True)
    shift_p.add_argument("--nmax", type=int, required=True)
    shift_p.set_defaults(func=_cmd_seq_shift_decompose)

    noeth_p = seq_sub.add_parser("noetherian", help="random-submodule experiment")
    noeth_p.add_argument("--m", type=int, required=True)
    noeth_p.add_argument("--trials", type=int, required=True)
    noeth_p.add_argument("--seed", type=int, required=True)
    noeth_p.add_argument("--nmax", type=int, required=True)
    noeth_p.set_defaults(func=_cmd_seq_noetherian)

    verify = top.add_parser("verify", help="acceptance battery")
    verify_sub = verify.add_subparsers(dest="command", required=True, parser_class=_Parser)
    all_p = verify_sub.add_parser("all", help="run every criterion")
    all_p.set_defaults(func=_cmd_verify_all)

    parser.leaves = {
        (group, command): leaf
        for group, sub in (("hecke", hecke_sub), ("seq", seq_sub), ("verify", verify_sub))
        for command, leaf in sub.choices.items()
    }
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Argv whose first two tokens name a command is parsed by that
    command's parser alone; any other argv goes through the full parser,
    which prints its usage or error.  Both routes parse alike: the full
    parser hands the command's parser every later token unchanged, and
    ``_Parser.error`` prints only the message, so an error reads the same
    at either level.  The leaf's namespace lacks only ``group`` and
    ``command``, which no command reads.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    leaf = parser.leaves.get(tuple(argv[:2]))
    try:
        args = parser.parse_args(argv) if leaf is None else leaf.parse_args(argv[2:])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _emit_error(str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
