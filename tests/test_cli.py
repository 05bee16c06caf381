"""Command-line interface: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from heckestab import sequences
from heckestab.cli import MULT_N_BOUND, build_parser, main
from heckestab.sequences import (
    build_Mm,
    load_sequence,
    non_finitely_generated,
    save_sequence,
    sequence_to_json_obj,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHeckeMult:
    def test_quadratic_relation(self, capsys):
        code, out, _ = run(capsys, "hecke", "mult", "--n", "2", "--left", "1", "--right", "1")
        assert code == 0
        assert json.loads(out) == {"T_e": "q", "T_1": "q-1"}

    def test_braid_through_cli(self, capsys):
        code, left, _ = run(capsys, "hecke", "mult", "--n", "3", "--left", "1 2 1", "--right", "")
        code2, right, _ = run(capsys, "hecke", "mult", "--n", "3", "--left", "2,1,2", "--right", "")
        assert code == code2 == 0
        assert json.loads(left) == json.loads(right) == {"T_1.2.1": "1"}

    def test_letter_out_of_range(self, capsys):
        code, out, err = run(capsys, "hecke", "mult", "--n", "2", "--left", "7", "--right", "1")
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)

    def test_word_not_numeric(self, capsys):
        code, _, err = run(capsys, "hecke", "mult", "--n", "3", "--left", "a b", "--right", "1")
        assert code == 2
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("n", [MULT_N_BOUND + 1, 10**9], ids=["bound+1", "1e9"])
    def test_n_is_bounded(self, capsys, n):
        start = time.perf_counter()
        code, out, err = run(capsys, "hecke", "mult", "--n", str(n), "--left", "1", "--right", "")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": f"size bound: n = {n} exceeds {MULT_N_BOUND}"}


# stdout of `hecke mult` for fixed words, as printed by the Scalar fold
# that preceded the packed-integer product (tests/hecke_reference.py)
GOLDEN_MULT = json.loads((Path(__file__).parent / "golden" / "hecke_mult.json").read_text())


class TestHeckeMultGolden:
    @pytest.mark.parametrize(
        "case", GOLDEN_MULT, ids=[f"{t}-n{c['n']}" for t, c in enumerate(GOLDEN_MULT)]
    )
    def test_stdout_is_pinned(self, capsys, case):
        code, out, err = run(
            capsys, "hecke", "mult", "--n", str(case["n"]),
            "--left", case["left"], "--right", case["right"],
        )
        assert (code, err) == (0, "")
        assert out == case["stdout"]


# stdout and exit code of the tower commands, as printed before every
# generation degree came from one closure per degree (tests/sequences_reference.py)
GOLDEN_SEQ = json.loads((Path(__file__).parent / "golden" / "seq.json").read_text())


class TestSeqGolden:
    @pytest.mark.parametrize(
        "case", GOLDEN_SEQ,
        ids=[f"{t}-{c['argv'][1]}" for t, c in enumerate(GOLDEN_SEQ)],
    )
    def test_stdout_is_pinned(self, capsys, tmp_path, case):
        argv = list(case["argv"])
        if case["tower"]:
            tower = str(tmp_path / "tower.json")
            assert run(capsys, "seq", "build", *case["tower"], "--out", tower)[0] == 0
            argv += ["--in", tower]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (case["exit"], "")
        assert out == case["stdout"]


class TestGoldenTowersLoad:
    @pytest.mark.parametrize(
        "tower",
        sorted({tuple(c["tower"]) for c in GOLDEN_SEQ if c["tower"]}),
        ids=" ".join,
    )
    def test_saved_again_byte_identically(self, capsys, tmp_path, tower):
        # every tower file the golden cases read parses under the wire
        # grammar and is written back unchanged
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run(capsys, "seq", "build", *tower, "--out", str(first))[0] == 0
        sequences._last_loaded.cache_clear()
        save_sequence(load_sequence(str(first)), str(second))
        assert second.read_bytes() == first.read_bytes()


M1 = ["--kind", "Mm", "--m", "1", "--nmax", "4"]
# (tower to build and pass as --in, argv): every golden command, then the
# other commands and the error cases; "OUT" is a file path the case writes
ROUTE_CASES = [(c["tower"], c["argv"]) for c in GOLDEN_SEQ] + [
    (None, ["hecke", "mult", "--n", str(c["n"]), "--left", c["left"], "--right", c["right"]])
    for c in GOLDEN_MULT[:3]
] + [
    (None, ["seq", "build", *M1, "--out", "OUT"]),
    (None, ["seq", "build", "--kind", "M-specht", "--lambda", "2,1", "--nmax", "3",
            "--out", "OUT"]),
    (M1, ["seq", "weight"]),
    (M1, ["seq", "multiplicities", "--format", "csv"]),
    (M1, ["seq", "multiplicities"]),
    # a missing required option, a bad int, bad choices, unrecognized arguments
    (None, ["seq", "degrees", "--amax", "2"]),
    (None, ["hecke", "mult", "--n", "3", "--left", "1"]),
    (M1, ["seq", "degrees", "--amax", "two"]),
    (None, ["hecke", "mult", "--n", "x", "--left", "1", "--right", "2"]),
    (None, ["seq", "build", "--kind", "Mx", "--m", "1", "--nmax", "3", "--out", "OUT"]),
    (M1, ["seq", "multiplicities", "--format", "xml"]),
    (M1, ["seq", "weight", "--bogus"]),
    (M1, ["seq", "weight", "extra", "-"]),
    (None, ["verify", "all", "--nmax", "2"]),
    # abbreviations, "--", help after the command
    (None, ["seq", "build", "--kind", "Mm", "--m", "1", "--nma", "3", "--out", "OUT"]),
    (None, ["seq", "noetherian", "--m", "1", "--tr", "1", "--seed", "3", "--nmax", "4"]),
    (M1, ["seq", "weight", "--"]),
    (None, ["seq", "weight", "--", "--in", "x.json"]),
    (None, ["seq", "degrees", "-h"]),
    (None, ["hecke", "mult", "--he"]),
    (None, ["verify", "all", "-h"]),
    (None, ["seq", "weight", "-hx"]),
]
# argv whose first two tokens name no command
NO_COMMAND = [
    [], ["seq"], ["seq", "nope"], ["hecke", "build"], ["--help"], ["verify"],
    ["seq", "--", "weight"],
]


class TestParseRoutes:
    """main parses argv that names a command with that command's parser
    alone; the full parser, with the leaves hidden, must agree with it."""

    def outcomes(self, capsys, tmp_path, argv):
        """(exit code, stdout, stderr, bytes written to OUT) of main(argv)."""
        out_file = tmp_path / "out.json"
        out_file.unlink(missing_ok=True)
        code, out, err = run(
            capsys, *[str(out_file) if a == "OUT" else a for a in argv]
        )
        return code, out, err, out_file.read_bytes() if out_file.exists() else None

    @pytest.mark.parametrize(
        "tower, argv", ROUTE_CASES, ids=[" ".join(a) for _, a in ROUTE_CASES]
    )
    def test_both_routes_print_the_same(self, capsys, tmp_path, monkeypatch, tower, argv):
        argv = list(argv)
        if tower:
            path = str(tmp_path / "tower.json")
            assert run(capsys, "seq", "build", *tower, "--out", path)[0] == 0
            argv += ["--in", path]
        leaf = self.outcomes(capsys, tmp_path, argv)
        monkeypatch.setattr(build_parser(), "leaves", {})
        assert self.outcomes(capsys, tmp_path, argv) == leaf

    @pytest.mark.parametrize(
        "argv",
        [a + (["--in", "x.json"] if t else []) for t, a in ROUTE_CASES[:9]]
        + [["hecke", "mult", "--n", "3", "--left", "1", "--right", "2"],
           ["seq", "build", *M1, "--nma", "5", "--out", "x.json"],
           ["seq", "multiplicities", "--in", "x.json"]],
    )
    def test_namespaces_agree_but_for_the_route(self, argv):
        parser = build_parser()
        full = vars(parser.parse_args(argv))
        assert (full.pop("group"), full.pop("command")) == tuple(argv[:2])
        assert vars(parser.leaves[tuple(argv[:2])].parse_args(argv[2:])) == full

    def test_a_command_is_parsed_once(self, capsys, tmp_path, monkeypatch):
        parser = build_parser()
        calls = []
        parse = parser.parse_known_args
        monkeypatch.setattr(
            parser, "parse_known_args", lambda *a: calls.append(a) or parse(*a)
        )
        path = str(tmp_path / "tower.json")
        assert run(capsys, "seq", "build", *M1, "--out", path)[0] == 0
        assert run(capsys, "seq", "weight", "--in", path)[0] == 0
        assert calls == []

    @pytest.mark.parametrize("argv", NO_COMMAND, ids=repr)
    def test_argv_naming_no_command_reaches_the_full_parser(
        self, capsys, monkeypatch, argv
    ):
        parser = build_parser()
        calls = []
        parse = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda a: calls.append(a) or parse(a))
        code, out, err = run(capsys, *argv)
        assert calls == [argv]
        if argv == ["--help"]:
            assert (code, err) == (0, "") and out.startswith("usage: heckestab")
        else:
            assert (code, out) == (2, "") and "error" in json.loads(err)


class TestSeqPipeline:
    def test_build_then_degrees(self, capsys, tmp_path):
        out_file = str(tmp_path / "ms1.json")
        code, _, _ = run(
            capsys, "seq", "build", "--kind", "M-specht", "--lambda", "1",
            "--nmax", "6", "--out", out_file,
        )
        assert code == 0
        code, out, _ = run(capsys, "seq", "degrees", "--in", out_file, "--amax", "2")
        assert code == 0
        report = json.loads(out)
        assert report["stability_degree"] == 1
        assert report["injective_degree"] == 0
        assert report["surjective_degree"] == 1

    def test_multiplicities_formats(self, capsys, tmp_path):
        out_file = str(tmp_path / "ms1.json")
        run(capsys, "seq", "build", "--kind", "M-specht", "--lambda", "1",
            "--nmax", "6", "--out", out_file)
        code, out, _ = run(capsys, "seq", "multiplicities", "--in", out_file)
        assert code == 0
        table = json.loads(out)
        assert table["rows"] == {
            "": [0, 1, 1, 1, 1, 1, 1],
            "1": [0, 0, 1, 1, 1, 1, 1],
        }
        code, out, _ = run(
            capsys, "seq", "multiplicities", "--in", out_file, "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lambda,n=0,n=1,n=2,n=3,n=4,n=5,n=6"
        assert lines[1] == ",0,1,1,1,1,1,1"
        assert lines[2] == "1,0,0,1,1,1,1,1"

    def test_csv_quotes_comma_labels(self, capsys, tmp_path):
        out_file = str(tmp_path / "ms21.json")
        run(capsys, "seq", "build", "--kind", "M-specht", "--lambda", "2,1",
            "--nmax", "6", "--out", out_file)
        code, out, _ = run(
            capsys, "seq", "multiplicities", "--in", out_file, "--format", "csv"
        )
        assert code == 0
        assert '"2,1",0,0,0,0,0,1,1' in out.splitlines()

    def test_weight(self, capsys, tmp_path):
        out_file = str(tmp_path / "m1.json")
        run(capsys, "seq", "build", "--kind", "Mm", "--m", "1",
            "--nmax", "5", "--out", out_file)
        code, out, _ = run(capsys, "seq", "weight", "--in", out_file)
        assert code == 0
        assert json.loads(out)["weight"] == 1

    def test_check_stable_positive(self, capsys, tmp_path):
        out_file = str(tmp_path / "ms1.json")
        run(capsys, "seq", "build", "--kind", "M-specht", "--lambda", "1",
            "--nmax", "6", "--out", out_file)
        code, out, _ = run(capsys, "seq", "check-stable", "--in", out_file)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["stable"]
        assert verdict["observed_N"] <= verdict["predicted_bound"]

    def test_check_stable_negative_exit_one(self, capsys, tmp_path):
        out_file = str(tmp_path / "doubling.json")
        save_sequence(non_finitely_generated(4), out_file)
        code, out, _ = run(capsys, "seq", "check-stable", "--in", out_file)
        assert code == 1
        assert not json.loads(out)["stable"]

    def test_check_stable_default_fits_a_short_tower(self, capsys, tmp_path):
        # without --amax the probe reaches min(2, n_max): a tower built with
        # --nmax 1 gets its verdict (M(1) at n_max 1 has no verified step)
        out_file = str(tmp_path / "m1.json")
        run(capsys, "seq", "build", "--kind", "Mm", "--m", "1",
            "--nmax", "1", "--out", out_file)
        code, out, err = run(capsys, "seq", "check-stable", "--in", out_file)
        assert (code, err) == (1, "")
        assert not json.loads(out)["stable"]
        assert run(
            capsys, "seq", "check-stable", "--in", out_file, "--amax", "1"
        ) == (code, out, err)

    @pytest.mark.parametrize("m, nmax", [(2, 1), (3, 2)])
    def test_check_stable_refuses_a_zero_window(self, capsys, tmp_path, m, nmax):
        # M(m) is zero below degree m: a window that ends before it holds
        # no evidence, so no verdict, with or without --amax
        out_file = str(tmp_path / "zero.json")
        run(capsys, "seq", "build", "--kind", "Mm", "--m", str(m),
            "--nmax", str(nmax), "--out", out_file)
        want = {"error": f"every V_n is zero within n_max = {nmax}: "
                         "no evidence for a verdict"}
        for extra in ([], ["--amax", "1"]):
            code, out, err = run(capsys, "seq", "check-stable", "--in", out_file, *extra)
            assert (code, out) == (2, "")
            assert json.loads(err) == want

    def test_shift_decompose(self, capsys):
        code, out, _ = run(
            capsys, "seq", "shift-decompose", "--m", "1", "--a", "1", "--nmax", "4"
        )
        assert code == 0
        report = json.loads(out)
        assert report["matches_fresh_Mm"]
        assert report["complement_generation_degree"] == 0
        assert "complement" not in report

    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_shift_decompose_refuses_a_zero_window(self, capsys, a):
        # S+a M(3) is zero in every degree up to 1 when a <= 1, and its M(3)
        # summand is zero there for every a: no verdict
        code, out, err = run(
            capsys, "seq", "shift-decompose", "--m", "3", "--a", str(a), "--nmax", "1"
        )
        zero = f"S+{a}M(3)" if a <= 1 else "the M(3) summand"
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": f"{zero} is zero in every degree up to n_max = 1: "
                     "no evidence for a verdict"
        }

    @pytest.mark.parametrize(
        "m, a, nmax", [(1, 0, 0), (1, 1, 0), (3, 2, 0), (1, 0, -1), (0, 1, 0), (1, -1, 0)]
    )
    def test_shift_decompose_reports_the_library_refusal(self, capsys, m, a, nmax):
        # the CLI adds no window check of its own below n_max = 1
        with pytest.raises(ValueError) as refusal:
            sequences.shift_decompose_Mm(m, a, nmax)
        code, out, err = run(
            capsys, "seq", "shift-decompose", "--m", str(m), "--a", str(a), "--nmax", str(nmax)
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": str(refusal.value)}

    def test_shift_decompose_on_the_first_nonzero_window(self, capsys):
        # n_max = m: only the top degree of the M(m) summand is nonzero
        code, out, err = run(
            capsys, "seq", "shift-decompose", "--m", "3", "--a", "2", "--nmax", "3"
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["summand_dims"] == [0, 0, 0, 6]
        assert report["complement_dims"] == [0, 6, 24, 54]
        assert report["matches_fresh_Mm"] and report["bound_ok"]

    def test_noetherian(self, capsys):
        code, out, _ = run(
            capsys, "seq", "noetherian", "--m", "1", "--trials", "2",
            "--seed", "3", "--nmax", "4",
        )
        assert code == 0
        report = json.loads(out)
        assert report["all_finitely_generated"]
        assert len(report["per_trial"]) == 2


class TestTowerMemo:
    """Commands on one file share the tower that file's bytes parse to."""

    TOWER_COMMANDS = (
        ("degrees", "--amax", "2"),
        ("check-stable",),
        ("multiplicities",),
        ("multiplicities", "--format", "csv"),
        ("weight",),
        ("check-stable", "--amax", "1"),
        ("degrees", "--amax", "1"),
    )

    @pytest.fixture(autouse=True)
    def forget_loaded_tower(self):
        sequences._last_loaded.cache_clear()

    def test_one_session_decomposes_and_eliminates_once(
        self, capsys, tmp_path, monkeypatch
    ):
        decomposed, eliminated = [], []
        decompose, quotients = sequences.decompose, sequences.coinvariant_quotients
        monkeypatch.setattr(
            sequences, "decompose", lambda V: decomposed.append(V) or decompose(V)
        )
        monkeypatch.setattr(
            sequences,
            "coinvariant_quotients",
            lambda V, ranks: eliminated.append(V) or quotients(V, ranks),
        )
        tower = str(tmp_path / "tower.json")
        run(capsys, "seq", "build", "--kind", "Mm", "--m", "2", "--nmax", "6",
            "--out", tower)
        # the commands share the tower parsed from the file, not the one built
        sequences._last_loaded.cache_clear()
        for command in self.TOWER_COMMANDS[:5]:
            assert run(capsys, "seq", *command, "--in", tower)[0] == 0
        V = sequences.load_sequence(tower)
        assert decomposed == [module for module in V.modules if module.dim]
        assert eliminated == list(V.modules)

    def test_cached_reports_print_the_same_bytes(self, capsys, tmp_path):
        # a caller that edited a kept report would change the second output
        tower = str(tmp_path / "tower.json")
        run(capsys, "seq", "build", "--kind", "M-specht", "--lambda", "2,1",
            "--nmax", "6", "--out", tower)

        def outputs():
            return [run(capsys, "seq", *c, "--in", tower) for c in self.TOWER_COMMANDS]

        first = outputs()
        assert outputs() == first
        fresh = []
        for command in self.TOWER_COMMANDS:
            sequences._last_loaded.cache_clear()
            fresh.append(run(capsys, "seq", *command, "--in", tower))
        assert fresh == first
        assert all(code == 0 and not err for code, _, err in first)

    def test_rewritten_file_is_read_again(self, capsys, tmp_path):
        tower = str(tmp_path / "tower.json")
        run(capsys, "seq", "build", "--kind", "Mm", "--m", "1", "--nmax", "4",
            "--out", tower)
        code, out, _ = run(capsys, "seq", "multiplicities", "--in", tower)
        assert code == 0
        assert json.loads(out)["label"] == "M(1)"
        code, out, _ = run(capsys, "seq", "build", "--kind", "M-specht",
                           "--lambda", "2", "--nmax", "4", "--out", tower)
        assert json.loads(out)["dims"] == [0, 0, 1, 3, 6]
        assert sequences.load_sequence(tower).dims() == [0, 0, 1, 3, 6]
        code, out, _ = run(capsys, "seq", "multiplicities", "--in", tower)
        assert code == 0
        assert json.loads(out) == {
            "label": "M(S(2))",
            "n_values": [0, 1, 2, 3, 4],
            "rows": {"": [0, 0, 1, 1, 1], "1": [0, 0, 0, 1, 1], "2": [0, 0, 0, 0, 1]},
        }

    def test_malformed_rewrite_is_bad_input(self, capsys, tmp_path):
        tower = tmp_path / "tower.json"
        run(capsys, "seq", "build", "--kind", "Mm", "--m", "1", "--nmax", "3",
            "--out", str(tower))
        sequences._last_loaded.cache_clear()
        good = tower.read_bytes()
        kept = sequences.load_sequence(tower)
        tower.write_text('{"schema": "hecke-stab/1", "modules": [')
        code, out, err = run(capsys, "seq", "weight", "--in", str(tower))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "error" in json.loads(err)
        tower.write_bytes(good)
        assert sequences.load_sequence(tower) is kept


class TestErrorsAndDeterminism:
    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "seq", "degrees", "--amax", "2")
        assert code == 2
        assert "error" in json.loads(err)

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "seq", "frobnicate")
        assert code == 2
        assert "error" in json.loads(err)

    def test_kind_parameter_mismatch(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "seq", "build", "--kind", "Mm",
            "--nmax", "4", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "requires --m" in json.loads(err)["error"]

    def test_nmax_lower_bound(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "seq", "build", "--kind", "Mm", "--m", "1",
            "--nmax", "0", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "nmax" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "command",
        [
            ["build", "--kind", "Mm", "--m", "-1", "--nmax", "4", "--out", "x.json"],
            ["noetherian", "--m", "-1", "--trials", "2", "--seed", "1", "--nmax", "4"],
        ],
    )
    def test_negative_m_names_the_rank(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "seq", *command)
        assert (code, out) == (2, "")
        assert err == '{"error": "rank n = -1 is negative"}\n'
        assert list(tmp_path.iterdir()) == []

    def test_verify_all_has_no_nmax(self, capsys):
        # the battery runs at its fixed window; --nmax is not an option
        code, out, err = run(capsys, "verify", "all", "--nmax", "2")
        assert code == 2
        assert out == ""
        assert "--nmax" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "command, removed",
        [
            (["degrees", "--amax", "1"], ["--mode", "exact"]),
            (["degrees", "--amax", "1"], ["--spec-count", "3", "--spec-seed", "11"]),
            (["check-stable"], ["--strict"]),
        ],
    )
    def test_rank_flags_are_gone(self, capsys, tmp_path, command, removed):
        # ranks are always exact; there is no mode to pick or to refuse
        out_file = str(tmp_path / "m1.json")
        run(capsys, "seq", "build", "--kind", "Mm", "--m", "1",
            "--nmax", "3", "--out", out_file)
        code, out, err = run(capsys, "seq", *command, "--in", out_file, *removed)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert json.loads(err) == {
            "error": "unrecognized arguments: " + " ".join(removed)
        }

    @pytest.mark.parametrize("command", ["weight", "multiplicities", "check-stable"])
    def test_decompose_past_the_rank_bound(self, capsys, tmp_path, command):
        # M(1) builds at any rank, but no character table exists past
        # SPECHT_BOUND; p(40)^2 entries would be about 1.4e9
        out_file = str(tmp_path / "m1.json")
        assert run(capsys, "seq", "build", "--kind", "Mm", "--m", "1",
                   "--nmax", "9", "--out", out_file)[0] == 0
        code, out, err = run(capsys, "seq", command, "--in", out_file)
        assert code == 2
        assert out == ""
        assert err == '{"error": "size bound: |lam| = 8 exceeds 7"}\n'

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "seq", "weight", "--in", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "error" in json.loads(err)

    def test_identical_invocations_identical_bytes(self, capsys, tmp_path):
        out_file = str(tmp_path / "m2.json")
        run(capsys, "seq", "build", "--kind", "Mm", "--m", "2",
            "--nmax", "5", "--out", out_file)
        _, first, _ = run(capsys, "seq", "degrees", "--in", out_file, "--amax", "2")
        _, second, _ = run(capsys, "seq", "degrees", "--in", out_file, "--amax", "2")
        assert first == second
        _, n1, _ = run(capsys, "seq", "noetherian", "--m", "1", "--trials", "2",
                       "--seed", "9", "--nmax", "4")
        _, n2, _ = run(capsys, "seq", "noetherian", "--m", "1", "--trials", "2",
                       "--seed", "9", "--nmax", "4")
        assert n1 == n2

    def test_verify_all_stdout_ignores_the_hash_seed(self, tmp_path):
        # two fresh interpreters, run side by side, under hash seeds 0 and
        # 1: set and dict orders that leaked into stdout would differ.
        # Costs one cold `verify all`, about 1.5 s of wall time on 2 vCPUs.
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "heckestab.cli", "verify", "all"],
                cwd=tmp_path,
                env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for seed in ("0", "1")
        ]
        (out0, err0), (out1, err1) = (p.communicate(timeout=300) for p in procs)
        assert [p.returncode for p in procs] == [0, 0], (err0 + err1).decode()
        assert out0.startswith(b"PASS")
        assert out0 == out1

    def test_build_files_identical(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "seq", "build", "--kind", "Mm", "--m", "2",
            "--nmax", "4", "--out", str(a))
        run(capsys, "seq", "build", "--kind", "Mm", "--m", "2",
            "--nmax", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_noetherian_needs_a_trial(self, capsys, trials):
        code, out, err = run(capsys, "seq", "noetherian", "--m", "1", "--trials",
                             trials, "--seed", "1", "--nmax", "4")
        assert code == 2
        assert out == ""
        assert "trials" in json.loads(err)["error"]

    def test_noetherian_needs_a_connector(self, capsys):
        # n_max = 0 has no connector, so all_stable would be vacuous
        code, out, err = run(capsys, "seq", "noetherian", "--m", "2", "--trials",
                             "1", "--seed", "1", "--nmax", "0")
        assert code == 2
        assert out == ""
        assert "n_max" in json.loads(err)["error"]

    @pytest.mark.parametrize("nmax", ["6", "1"])
    def test_noetherian_needs_a_nonzero_seed_degree(self, capsys, nmax):
        # every seed of M(3) below degree 7 lies in a degree where M(3) is 0
        code, out, err = run(capsys, "seq", "noetherian", "--m", "3", "--trials",
                             "5", "--seed", "1", "--nmax", nmax)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "n_max must be at least 2m + 1 = 7"}

    @pytest.mark.parametrize(
        "content, path",
        [
            ([1, 2], "top level"),
            ({"schema": "hecke-stab/1", "connectors": []}, "modules"),
        ],
    )
    def test_malformed_tower_file(self, capsys, tmp_path, content, path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        for command in ("check-stable", "weight"):
            code, out, err = run(capsys, "seq", command, "--in", str(bad))
            assert code == 2
            assert out == ""
            assert path in json.loads(err)["error"]

    DEEP = "[" * 100000 + "]" * 100000

    @pytest.mark.parametrize(
        "text, argv",
        [
            (DEEP, ["seq", "degrees", "--amax", "1"]),
            ('{"schema": "hecke-stab/1", "modules": ' + DEEP + "}", ["seq", "weight"]),
        ],
        ids=["top-level", "modules"],
    )
    def test_deeply_nested_tower_file(self, capsys, tmp_path, text, argv):
        # the JSON decoder gives up on such nesting with a RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        code, out, err = run(capsys, *argv, "--in", str(deep))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "malformed tower file: nested too deeply"}

    @pytest.mark.parametrize("wire", ["1*q^-1", "1*q^2+1*q^-1"])
    def test_negative_exponent_in_tower_file(self, capsys, tmp_path, wire):
        obj = sequence_to_json_obj(build_Mm(1, 3))
        obj["connectors"][-1]["entries"][0][2] = wire
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run(capsys, "seq", "weight", "--in", str(bad))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert "bad polynomial term" in json.loads(err)["error"]

    @pytest.mark.parametrize("wire", ["0.5*q^1", "1e3*q^0", "1*q^1+-0.25*q^0"])
    def test_decimal_coefficient_in_tower_file(self, capsys, tmp_path, wire):
        # to_wire never writes a decimal, so such a file is bad input
        obj = sequence_to_json_obj(build_Mm(1, 3))
        obj["modules"][2]["generators"][0]["entries"][0][2] = wire
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run(capsys, "seq", "degrees", "--in", str(bad), "--amax", "1")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert "bad polynomial term" in json.loads(err)["error"]

    @pytest.mark.parametrize("wire", ["1*q^1_0", "1*q^ 2", "1*q^\u0663"])
    def test_exponent_not_in_ascii_digits_in_tower_file(self, capsys, tmp_path, wire):
        # int() reads all three, but poly_wire writes only [0-9]+
        obj = sequence_to_json_obj(build_Mm(1, 3))
        obj["modules"][2]["generators"][0]["entries"][0][2] = wire
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run(capsys, "seq", "degrees", "--in", str(bad), "--amax", "1")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert "bad polynomial term" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "where, value, message",
        [
            (("connectors", -1, "entries", 0, 2), "1*q^999999999",
             "bad polynomial term"),
            # at n = 2 the relation check would build a 200000 x 200000 identity
            (("modules", 2), {"n": 2, "dim": 200000, "generators": [
                {"rows": 200000, "cols": 200000, "entries": []}]},
             "modules[2].generators[0].rows = 200000 exceeds"),
            # n = 1 has no generator whose shape could contradict the dim
            (("modules", 1, "dim"), 10**12, "modules[1].dim = 1000000000000 exceeds"),
            (("connectors", 0, "cols"), 10**12,
             "connectors[0].cols = 1000000000000 exceeds"),
            # the negative dim is named, not found later as a matrix shape
            (("modules", 1, "dim"), -2, "modules[1].dim = -2 is negative"),
        ],
        ids=["exponent", "generator-rows", "dim", "connector-cols", "negative-dim"],
    )
    def test_tower_file_sizes_are_bounded(
        self, capsys, tmp_path, where, value, message
    ):
        obj = sequence_to_json_obj(build_Mm(1, 3))
        target = obj
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        start = time.perf_counter()
        code, out, err = run(capsys, "seq", "weight", "--in", str(bad))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert message in json.loads(err)["error"]
