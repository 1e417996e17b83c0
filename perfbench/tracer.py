"""Spans around calls into qsw's public functions, installed from outside.

`install` replaces each traced name at every place qsw's own code looks it
up: the `Series` class attributes (both `__mul__` and its `__rmul__` alias,
`__add__` and `__radd__`), every module-level binding of a traced function
(the defining module and every `from .x import name` copy), and the side
builders of each registered identity, swapped with `dataclasses.replace`.
Nothing under src/ is edited.

A span records its name, start, end, parent span and the context it ran in
(workload, op, case).  Kernel spans (`series.*`) are too many to keep one
by one, so they are only aggregated, by (name, parent name).  A span's self
time is its duration minus the time its child spans cover; the cost of the
tracer's own bookkeeping for mul statistics is charged to no span.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from fractions import Fraction
from time import perf_counter

SERIES_METHODS = {
    "__mul__": "series.mul",
    "__rmul__": "series.mul",
    "__add__": "series.add",
    "__radd__": "series.add",
    "reciprocal": "series.reciprocal",
    "substitute": "series.substitute",
    "text": "series.text",
}

# (defining module, function, span name)
FUNCTIONS = (
    ("series", "equals_mod_caps", "series.equals_mod_caps"),
    ("qfunctions", "poch", "qfunctions.poch"),
    ("qfunctions", "poch_inf_inv", "qfunctions.poch_inf_inv"),
    ("qfunctions", "phi", "qfunctions.phi"),
    ("qfunctions", "rq", "qfunctions.rq"),
    ("qfunctions", "rq_at_power", "qfunctions.rq_at_power"),
    ("qfunctions", "garrett_a", "qfunctions.garrett_ab"),
    ("qfunctions", "garrett_b", "qfunctions.garrett_ab"),
    ("qfunctions", "qfact_inv", "qfunctions.qfact_inv"),
    ("operators", "rr_op", "operators.rr_op"),
    ("operators", "dq", "operators.dq"),
    ("operators", "leibniz_rhs", "operators.leibniz_rhs"),
    ("polynomials", "sw_classic", "polynomials.sw_classic"),
    ("polynomials", "sw_star", "polynomials.sw_star"),
    ("polynomials", "sw_star_op", "polynomials.sw_star_op"),
    ("polynomials", "rogers_szego", "polynomials.rogers_szego"),
    ("verify", "verify", "verify"),
    ("verify", "_restrict", "verify.restrict"),
    ("verify", "resolve_garrett_convention", "verify.garrett_convention"),
)

ROOT = "-"


class MulStats:
    """Work counts of `Series.__mul__`, taken at the call boundary."""

    def __init__(self):
        self.term_pairs = 0
        self.result_terms = 0
        self.frac_calls = 0
        self.coeff_bits_max = 0

    def __call__(self, args, result):
        a, b = args
        if result is NotImplemented:
            return
        nb = len(b.terms) if hasattr(b, "terms") else (1 if b else 0)
        self.term_pairs += len(a.terms) * nb
        self.result_terms += len(result.terms)
        if _has_fraction(a) or _has_fraction(b):
            self.frac_calls += 1
        bits = self.coeff_bits_max
        for c in result.terms.values():
            nbits = c.numerator.bit_length() + c.denominator.bit_length()
            if nbits > bits:
                bits = nbits
        self.coeff_bits_max = bits


def _has_fraction(x) -> bool:
    """True for a Fraction scalar or a series with a Fraction coefficient."""
    if isinstance(x, Fraction):
        return True
    terms = getattr(x, "terms", None)
    return terms is not None and any(type(c) is Fraction
                                     for c in terms.values())


class Tracer:
    """In-memory span collector for one process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.ctx = (workload, "setup", None)
        self._ids = itertools.count(1)
        # frame: [name, span id, time covered by child spans]
        self.stack = [[ROOT, 0, 0.0]]
        self.agg: dict = {}  # (name, parent name) -> [calls, total s, self s]
        self.spans: list = []  # (id, parent id, name, start, end, ctx)
        self.mul = MulStats()
        self.cases = 0
        self._case_no = 0

    def reset(self):
        """Forget aggregates and counts (spans stay recorded)."""
        self.agg = {}
        self.mul = MulStats()
        self.cases = 0

    def _count_mul(self, args, result):
        self.mul(args, result)

    def begin_op(self, key: str):
        self.ctx = (self.workload, key, None)
        self._case_no = 0

    def wrap(self, name: str, fn, stats=None):
        record = not name.startswith("series.")
        ids = self._ids
        stack = self.stack
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, next(ids), 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[2] += dur
                key = (name, parent[0])
                a = tracer.agg.get(key)
                if a is None:
                    a = tracer.agg[key] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[2]
                if record:
                    tracer.spans.append(
                        (frame[1], parent[1], name, t0, t1, tracer.ctx))
            if stats is not None:
                stats(args, result)
                parent[2] += perf_counter() - t1
            return result

        return traced

    def _side(self, which: str, fn):
        traced = self.wrap(f"identities.{which}", fn)

        def build(env):
            if which == "lhs":
                self.cases += 1
                self._case_no += 1
                self.ctx = (self.workload, self.ctx[1], self._case_no)
            return traced(env)
        return build

    def install(self):
        """Wrap every traced name of the already imported qsw package."""
        from qsw import identities
        from qsw.series import Series

        wrappers: dict = {}
        for attr, name in SERIES_METHODS.items():
            fn = Series.__dict__[attr]
            if id(fn) not in wrappers:
                stats = self._count_mul if name == "series.mul" else None
                wrappers[id(fn)] = self.wrap(name, fn, stats)
            setattr(Series, attr, wrappers[id(fn)])
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "qsw" or n.startswith("qsw.")]
        for modname, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[f"qsw.{modname}"], attr)
            traced = self.wrap(name, fn)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, binding, traced)
        for i, spec in enumerate(identities.REGISTRY):
            spec = dataclasses.replace(
                spec, build_lhs=self._side("lhs", spec.build_lhs),
                build_rhs=self._side("rhs", spec.build_rhs))
            identities.REGISTRY[i] = spec
            identities.BY_ID[spec.id] = spec

    # -- reading the aggregates --------------------------------------------

    def calls(self, name: str) -> int:
        return sum(a[0] for (n, _), a in self.agg.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(a[1] for (n, _), a in self.agg.items() if n == name)

    def self_s(self, name: str, parent: str = None) -> float:
        return sum(a[2] for (n, p), a in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def self_total_s(self) -> float:
        """Self time of every span, which is at most the traced time."""
        return sum(a[2] for a in self.agg.values())
