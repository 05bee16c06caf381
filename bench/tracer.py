"""Per-layer tracing of the heckestab package from outside it.

The tracer wraps public entry points of each layer after the package has
been imported.  A function is replaced in its defining module and in every
package module that imported it by name, so calls from inside the package
are seen too; a method is replaced on its class.  Each wrapped call records
a span (name, start, end, parent, op id) in memory; the spans are written
once, when the run ends.  Scalar arithmetic (L0) only bumps counters, since
a span per field operation would swamp the run; poly_gcd is the one L0
function with spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

from metrics import self_times

# (module, function, span name): spans around module-level functions
FUNCTION_SPANS = (
    ("qfield", "poly_gcd", "qfield.gcd"),
    ("linalg", "solve_unique", "linalg.solve_unique"),
    ("linalg", "quotient_structure", "linalg.quotient_structure"),
    ("linalg", "rank", "linalg.rank"),
    ("hecke", "mult", "hecke.mult"),
    ("hecke", "induce_pair", "hecke.induce_pair"),
    ("specht", "specht_module", "specht.specht_module"),
    ("specht", "decompose", "specht.decompose"),
    ("specht", "character", "specht.character"),
    ("specht", "coinvariant_quotient", "specht.coinvariant_quotient"),
    ("sequences", "_build_M_layout", "sequences.build"),
    ("sequences", "check_consistency", "sequences.check_consistency"),
    ("sequences", "save_sequence", "sequences.save"),
    ("sequences", "load_sequence", "sequences.load"),
    ("sequences", "phi_a", "sequences.phi_a"),
    ("sequences", "degrees", "sequences.degrees"),
    ("sequences", "span", "sequences.span"),
    ("sequences", "generation_degree", "sequences.generation_degree"),
    ("sequences", "weight", "sequences.weight"),
    ("sequences", "multiplicity_table", "sequences.multiplicity_table"),
    ("sequences", "is_uniformly_stable", "sequences.is_uniformly_stable"),
    ("sequences", "shift_decompose_Mm", "sequences.shift_decompose_Mm"),
    ("sequences", "noetherian_experiment", "sequences.noetherian_experiment"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name): spans around methods
METHOD_SPANS = (
    ("linalg", "ExactMatrix", "__matmul__", "linalg.matmul"),
    ("linalg", "EchelonBasis", "insert", "linalg.echelon"),
    ("hecke", "ModulePresentation", "word_matrix", "hecke.word_matrix"),
    ("specht", "CharacterTable", "__init__", "specht.character_table"),
)

# Scalar operator -> counter key
SCALAR_COUNTERS = {
    "__add__": "add",
    "__radd__": "add",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__rtruediv__": "div",
}

SEQUENCE_STEPS = (
    "build", "check_consistency", "save", "load", "phi_a", "degrees", "span",
    "generation_degree", "weight", "multiplicity_table", "is_uniformly_stable",
    "shift_decompose_Mm", "noetherian_experiment",
)

# per-layer metric name -> unit, in report order
PER_LAYER_UNITS = {
    "qfield.gcd.calls": "count",
    "qfield.gcd.s": "s",
    "qfield.gcd.trivial_ratio": "ratio",
    "qfield.mul.calls": "count",
    "qfield.add.calls": "count",
    "qfield.div.calls": "count",
    "qfield.den1_ratio": "ratio",
    "linalg.matmul.calls": "count",
    "linalg.matmul.s": "s",
    "linalg.solve_unique.calls": "count",
    "linalg.solve_unique.s": "s",
    "linalg.echelon.inserts": "count",
    "linalg.echelon.s": "s",
    "linalg.echelon.useful_ratio": "ratio",
    "linalg.quotient_structure.calls": "count",
    "linalg.quotient_structure.s": "s",
    "linalg.rank.s": "s",
    "hecke.mult.calls": "count",
    "hecke.mult.s": "s",
    "hecke.verified_modules.calls": "count",
    "hecke.verified_modules.s": "s",
    "hecke.induce_pair.s": "s",
    "hecke.word_matrix.s": "s",
    "specht.character_table.builds": "count",
    "specht.character_table.s": "s",
    "specht.specht_module.calls": "count",
    "specht.specht_module.distinct_ratio": "ratio",
    "specht.specht_module.s": "s",
    "specht.decompose.calls": "count",
    "specht.decompose.s": "s",
    "specht.decompose.repeat_ratio": "ratio",
    "specht.character.s": "s",
    "specht.coinvariant_quotient.s": "s",
    **{f"sequences.{step}.s": "s" for step in SEQUENCE_STEPS},
    "cli.main.s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _module_fingerprint(module) -> tuple:
    """Content key of a ModulePresentation; Scalar hashes are structural."""
    return (
        module.n,
        module.dim,
        tuple(hash(frozenset(g.entries.items())) for g in module.gen_action),
    )


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, op); None while open
        self.stack: list = []
        self.op = "setup"
        self.counts: Counter = Counter()
        self.shapes: set = set()
        self.decomposed: set = set()

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapped(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(result)
            return result

        return functools.update_wrapper(wrapped, fn)

    def _counter(self, key, fn):
        counts = self.counts

        def wrapped(a, b):
            counts[key] += 1
            den = getattr(b, "den", None)  # ints and Fractions have none
            if len(a.den) == 1 and (den is None or len(den) == 1):
                counts["den1"] += 1
            return fn(a, b)

        return functools.update_wrapper(wrapped, fn)

    def _verified_init(self, fn):
        traced = self._span("hecke.verified_modules", fn)

        def wrapped(obj, *args, **kwargs):
            check = kwargs.get("check", args[4] if len(args) > 4 else True)
            return (traced if check else fn)(obj, *args, **kwargs)

        return functools.update_wrapper(wrapped, fn)

    def _hooks(self, name):
        counts = self.counts
        if name == "qfield.gcd":
            def after(g):
                if len(g) <= 1:
                    counts["gcd.trivial"] += 1
            return None, after
        if name == "linalg.echelon":
            def after(pivot):
                if pivot is not None:
                    counts["echelon.useful"] += 1
            return None, after
        if name == "specht.specht_module":
            def before(args, kwargs):
                self.shapes.add(tuple(args[0] if args else kwargs["lam"]))
            return before, None
        if name == "specht.decompose":
            def before(args, kwargs):
                key = _module_fingerprint(args[0] if args else kwargs["V"])
                if key in self.decomposed:
                    counts["decompose.repeat"] += 1
                self.decomposed.add(key)
            return before, None
        return None, None

    # -- installation -----------------------------------------------------

    def install(self, package: str = "heckestab") -> None:
        """Wrap the entry points of an imported package in place."""
        loaded = [
            mod for name, mod in sys.modules.items()
            if name == package or name.startswith(package + ".")
        ]

        def module(short):
            return sys.modules[f"{package}.{short}"]

        for short, attr, name in FUNCTION_SPANS:
            original = getattr(module(short), attr)
            wrapped = self._span(name, original, *self._hooks(name))
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for short, cls_name, meth, name in METHOD_SPANS:
            cls = getattr(module(short), cls_name)
            setattr(cls, meth, self._span(name, getattr(cls, meth), *self._hooks(name)))
        presentation = module("hecke").ModulePresentation
        presentation.__init__ = self._verified_init(presentation.__init__)
        scalar = module("qfield").Scalar
        for meth, key in SCALAR_COUNTERS.items():
            setattr(scalar, meth, self._counter(key, getattr(scalar, meth)))

    # -- results ------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric, as {name: {"value": v, "unit": u}}."""
        if self.stack:
            raise RuntimeError("metrics read while spans are open")
        times = self_times([s[:4] for s in self.spans])
        c = self.counts

        def calls(name):
            return times.get(name, (0, 0.0))[0]

        def secs(name):
            return times.get(name, (0, 0.0))[1]

        arith = c["add"] + c["mul"] + c["div"]
        values = {
            "qfield.gcd.calls": calls("qfield.gcd"),
            "qfield.gcd.s": secs("qfield.gcd"),
            "qfield.gcd.trivial_ratio": _ratio(c["gcd.trivial"], calls("qfield.gcd")),
            "qfield.mul.calls": c["mul"],
            "qfield.add.calls": c["add"],
            "qfield.div.calls": c["div"],
            "qfield.den1_ratio": _ratio(c["den1"], arith),
            "linalg.matmul.calls": calls("linalg.matmul"),
            "linalg.matmul.s": secs("linalg.matmul"),
            "linalg.solve_unique.calls": calls("linalg.solve_unique"),
            "linalg.solve_unique.s": secs("linalg.solve_unique"),
            "linalg.echelon.inserts": calls("linalg.echelon"),
            "linalg.echelon.s": secs("linalg.echelon"),
            "linalg.echelon.useful_ratio": _ratio(
                c["echelon.useful"], calls("linalg.echelon")
            ),
            "linalg.quotient_structure.calls": calls("linalg.quotient_structure"),
            "linalg.quotient_structure.s": secs("linalg.quotient_structure"),
            "linalg.rank.s": secs("linalg.rank"),
            "hecke.mult.calls": calls("hecke.mult"),
            "hecke.mult.s": secs("hecke.mult"),
            "hecke.verified_modules.calls": calls("hecke.verified_modules"),
            "hecke.verified_modules.s": secs("hecke.verified_modules"),
            "hecke.induce_pair.s": secs("hecke.induce_pair"),
            "hecke.word_matrix.s": secs("hecke.word_matrix"),
            "specht.character_table.builds": calls("specht.character_table"),
            "specht.character_table.s": secs("specht.character_table"),
            "specht.specht_module.calls": calls("specht.specht_module"),
            "specht.specht_module.distinct_ratio": _ratio(
                len(self.shapes), calls("specht.specht_module")
            ),
            "specht.specht_module.s": secs("specht.specht_module"),
            "specht.decompose.calls": calls("specht.decompose"),
            "specht.decompose.s": secs("specht.decompose"),
            "specht.decompose.repeat_ratio": _ratio(
                c["decompose.repeat"], calls("specht.decompose")
            ),
            "specht.character.s": secs("specht.character"),
            "specht.coinvariant_quotient.s": secs("specht.coinvariant_quotient"),
            **{
                f"sequences.{step}.s": secs(f"sequences.{step}")
                for step in SEQUENCE_STEPS
            },
            "cli.main.s": secs("cli.main"),
            "trace.overhead_ratio": overhead_ratio,
        }
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }

    def write(self, path) -> None:
        """All spans, one JSON array per line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
