"""Every package name the benchmark reaches still resolves.

``bench/tracer.py`` wraps functions and methods that it looks up by name,
and ``bench/workloads.py`` calls the package as ``pkg.<name>``.  A name
deleted from the package would break ``bench/run.py`` (with ``--trace 1``
or on one workload) while the rest of the suite stays green, so this
reads both files, as text, and resolves each name.  Nothing under
``bench/`` is imported or changed.
"""

import ast
import importlib
import inspect
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
    # the tracer reads ``check`` as the 5th positional argument after self
    params = list(inspect.signature(_module("hecke").ModulePresentation).parameters)
    assert params[4] == "check"


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
