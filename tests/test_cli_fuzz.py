"""The CLI contract on argv drawn from its grammar, good and bad alike.

Exit 0 is success, exit 1 a negative verdict (only from check-stable,
shift-decompose and noetherian), exit 2 bad input reported as one JSON
object {"error": ...} on stderr; no input may escape ``main`` as an
exception, which the installed script would print as a traceback.
``verify all`` is left out: one run takes seconds.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from heckestab.cli import MULT_N_BOUND, main
from heckestab.qfield import WIRE_EXPONENT_BOUND
from heckestab.sequences import (
    FILE_DIM_BOUND,
    build_Mm,
    non_finitely_generated,
    save_sequence,
)

VERDICT_COMMANDS = {"check-stable", "shift-decompose", "noetherian"}

small_ints = st.integers(-1, 3).map(str)

# wire strings: sums of c*q^k terms, negative exponents and exponents at
# the bound or past it included, and junk
wire_terms = st.tuples(
    st.integers(-2, 2),
    st.one_of(
        st.integers(-3, 3),
        st.sampled_from([WIRE_EXPONENT_BOUND, WIRE_EXPONENT_BOUND + 1, 10**9]),
    ),
).map(lambda t: f"{t[0]}*q^{t[1]}")
wires = st.one_of(
    st.lists(wire_terms, min_size=1, max_size=3).map("+".join),
    st.sampled_from(["", "0", "1", "1*q^x", "1/0*q^0", "1*q^0 / 0", "1*q^1 / 1*q^-1"]),
)
# declared sizes at the loader's bound, just past it and far past it
sizes = st.sampled_from([0, 2, FILE_DIM_BOUND, FILE_DIM_BOUND + 1, 10**12])


@pytest.fixture(scope="module")
def tower_files(tmp_path_factory):
    """Tower files: valid (stable or not), not JSON, of the wrong schema, a
    list, nested too deeply for the JSON decoder."""
    root = tmp_path_factory.mktemp("towers")
    files = {
        "valid": root / "valid.json",
        "unstable": root / "unstable.json",
        "not-json": root / "not-json.json",
        "wrong-schema": root / "wrong-schema.json",
        "list": root / "list.json",
        "deep": root / "deep.json",
    }
    save_sequence(build_Mm(1, 3), files["valid"])
    save_sequence(non_finitely_generated(3), files["unstable"])
    files["not-json"].write_text("{ not json")
    files["wrong-schema"].write_text(json.dumps({"schema": "other/9", "modules": []}))
    files["list"].write_text(json.dumps([{"schema": "hecke-stab/1"}]))
    files["deep"].write_text("[" * 100000 + "]" * 100000)
    return {name: str(path) for name, path in files.items()}


@st.composite
def rewired_towers(draw, valid: str):
    """The valid tower file with one matrix entry's wire string redrawn."""
    obj = json.loads(Path(valid).read_text())
    generators = [g for rec in obj["modules"] for g in rec["generators"]]
    matrices = obj["connectors"] + generators
    entry = draw(st.sampled_from([e for m in matrices for e in m["entries"]]))
    entry[2] = draw(wires)
    path = Path(valid).with_name("rewired.json")
    path.write_text(json.dumps(obj))
    return str(path)


@st.composite
def resized_towers(draw, valid: str):
    """The valid tower file with one module's dim or one matrix's shape redrawn."""
    obj = json.loads(Path(valid).read_text())
    generators = [g for rec in obj["modules"] for g in rec["generators"]]
    record = draw(st.sampled_from(obj["modules"] + obj["connectors"] + generators))
    key = "dim" if "dim" in record else draw(st.sampled_from(["rows", "cols"]))
    record[key] = draw(sizes)
    path = Path(valid).with_name("resized.json")
    path.write_text(json.dumps(obj))
    return str(path)


@st.composite
def flags(draw, required: dict, optional: dict = None):
    """--flag value pairs; each flag may go missing, unknown ones may join."""
    argv = []
    for flag, values in required.items():
        if draw(st.integers(0, 9)):  # missing one time in ten
            argv += [flag, draw(values)]
    for flag, values in (optional or {}).items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    if not draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(["--bogus", "--mode", "--strict", "-x"])))
    return argv


def argvs(files: dict):
    tower = st.one_of(st.sampled_from(sorted(files.values())),
                      rewired_towers(files["valid"]), resized_towers(files["valid"]))
    # mostly letters in range for n = 3, so that products do get computed
    words = st.one_of(st.text(alphabet="12 ,", max_size=6),
                      st.text(alphabet="0123 ,x", max_size=6))
    # n at the bound, just past it and far past it, too
    ranks = st.one_of(st.integers(-1, 4),
                      st.sampled_from([MULT_N_BOUND, MULT_N_BOUND + 1, 10**9]))
    hecke_mult = flags({"--n": ranks.map(str), "--left": words,
                        "--right": words}).map(lambda f: ["hecke", "mult", *f])
    kinds = st.sampled_from(["Mm", "M-specht", "other"])
    labels = st.sampled_from(["", "1", "2,1", "1,1", "1,2", "0", "x"])

    def seq(command, required, optional=None):
        return flags(required, optional).map(lambda f: ["seq", command, *f])

    return st.one_of(
        hecke_mult,
        flags({"--kind": kinds, "--nmax": small_ints, "--out": st.just("OUT")},
              {"--m": small_ints, "--lambda": labels}).map(
            lambda f: ["seq", "build", *f]),
        seq("degrees", {"--in": tower, "--amax": small_ints}),
        seq("weight", {"--in": tower}),
        seq("multiplicities", {"--in": tower},
            {"--format": st.sampled_from(["json", "csv", "xml"])}),
        seq("check-stable", {"--in": tower}, {"--amax": small_ints}),
        seq("shift-decompose", {"--m": small_ints, "--a": small_ints,
                                "--nmax": small_ints}),
        seq("noetherian", {"--m": small_ints, "--trials": small_ints,
                           "--seed": small_ints, "--nmax": small_ints}),
        st.lists(st.sampled_from(["seq", "hecke", "frobnicate", "--in"]),
                 max_size=2),
    )


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_exit_codes_and_errors_follow_the_contract(capsys, tmp_path, tower_files, data):
    argv = data.draw(argvs(tower_files))
    argv = [str(tmp_path / "out.json") if a == "OUT" else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.out == ""
        error = json.loads(captured.err)
        assert list(error) == ["error"]
    if code == 1:
        assert argv[:2] in [["seq", c] for c in VERDICT_COMMANDS]
