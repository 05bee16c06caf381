"""Every package name the benchmark reaches still resolves.

``bench/tracer.py`` wraps functions and methods that it looks up by name,
and ``bench/workloads.py`` calls the package as ``pkg.<name>`` and runs
the battery through ``pkg.verify``.  A name deleted from the package would
break ``bench/run.py`` (with ``--trace 1`` or on one workload) while the
rest of the suite stays green, so this reads both files, as text, and
resolves each name, and pins what the battery calls of ``verify``.
Nothing under ``bench/`` is imported or changed.
"""

import ast
import importlib
import inspect
import io
import re
from pathlib import Path

import pytest

import heckestab
import heckestab.cli  # bench/run.py imports it next to the package

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer_constant(name):
    """The literal value of a module-level assignment in bench/tracer.py."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in bench/tracer.py")


def _workload_names():
    text = (BENCH / "workloads.py").read_text()
    return sorted(set(re.findall(r"\bpkg\.([A-Za-z_][\w.]*\w)", text)))


def _module(short):
    return importlib.import_module(f"heckestab.{short}")


@pytest.mark.parametrize(
    "short, attr", [s[:2] for s in _tracer_constant("FUNCTION_SPANS")], ids=str
)
def test_traced_function_exists(short, attr):
    assert callable(getattr(_module(short), attr))


@pytest.mark.parametrize(
    "short, cls, meth", [s[:3] for s in _tracer_constant("METHOD_SPANS")], ids=str
)
def test_traced_method_exists(short, cls, meth):
    assert callable(getattr(getattr(_module(short), cls), meth))


@pytest.mark.parametrize("meth", sorted(_tracer_constant("SCALAR_COUNTERS")))
def test_counted_scalar_operator_exists(meth):
    assert callable(getattr(_module("qfield").Scalar, meth))


def test_verified_module_hook_finds_check():
    # the tracer reads ``check`` from the keywords, or as the 5th positional
    # argument after self, else takes True.  With three positional parameters
    # and ``check`` keyword-only, no call reaches a 5th positional argument,
    # so the tracer reads the value the constructor sees
    params = inspect.signature(_module("hecke").ModulePresentation).parameters
    positional = [
        name for name, p in params.items()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    assert positional == ["n", "dim", "gen_action"]
    assert params["check"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["check"].default is True


@pytest.mark.parametrize("short, attr, param", [
    ("specht", "specht_module", "lam"),
    ("specht", "decompose", "V"),
])
def test_hooked_argument_names(short, attr, param):
    # the tracer's hooks read these arguments by keyword when not positional
    params = inspect.signature(getattr(_module(short), attr)).parameters
    assert next(iter(params)) == param


def test_workloads_use_some_names():
    assert len(_workload_names()) >= 10


@pytest.mark.parametrize("dotted", _workload_names())
def test_workload_name_resolves(dotted):
    obj = heckestab
    for part in dotted.split("."):
        obj = getattr(obj, part)


def test_battery_signatures():
    # bench/workloads.py's Battery wraps each criterion as fn(n_max) and
    # calls run_criteria(n_max, err=...) and verify_all(n_max, out=..., err=...)
    verify = heckestab.verify
    assert verify.CRITERIA
    for name, fn in verify.CRITERIA:
        assert isinstance(name, str)
        inspect.signature(fn).bind(6)
    inspect.signature(verify.run_criteria).bind(6, err=io.StringIO())
    inspect.signature(verify.verify_all).bind(6, out=io.StringIO(), err=io.StringIO())


def test_battery_wrappers_are_reached(monkeypatch):
    # the Battery replaces verify.CRITERIA and verify.run_criteria by
    # assignment, so verify_all must read both from the module when it runs
    verify = heckestab.verify
    windows, passes = [], []

    def probe(n_max):
        windows.append(n_max)
        return True, "ok"

    run_criteria = verify.run_criteria

    def counted(*args, **kwargs):
        passes.append(args)
        return run_criteria(*args, **kwargs)

    monkeypatch.setattr(verify, "CRITERIA", (("probe", probe),))
    monkeypatch.setattr(verify, "run_criteria", counted)
    out = io.StringIO()
    assert verify.verify_all(6, out=out, err=io.StringIO()) == 0
    assert windows == [6, 6] and len(passes) == 2
    assert out.getvalue().splitlines()[0] == "PASS  1 probe: ok"
