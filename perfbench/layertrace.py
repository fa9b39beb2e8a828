"""Outside-in layer tracing: wrappers installed around anrec's public functions.

Each layer is one module of ``src/anrec``.  A wrapper records the call, its
self time (its duration minus the time of the wrapped calls it made) and,
for a few functions, the distinct keys it was asked for.  Module-level
functions are wrapped once per module that binds them, because a module
that did ``from .combinatorics import c_const`` calls its own binding and
would bypass a wrapper placed only on the defining module; that per-binding
wrapper also tells which module made each call.  Methods are wrapped on
their class, which every caller reaches.  Generator functions are left
alone, since a wrapper would time only the creation of the generator.
The ``CycScalar`` operator counts take only calls made from outside every
``CycScalar`` operator, so they count the arithmetic the engine asks for
and not how one operator is written in terms of another (``__rsub__``
adds through ``__add__``, ``/`` multiplies by ``inv()``).
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import defaultdict

LAYERS = ("exactnum", "series", "rootsys", "combinatorics", "genus0",
          "recursion", "reporting", "cli")

ARITHMETIC = frozenset(("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                        "__rmul__", "__neg__", "__truediv__", "__pow__"))

# Private names wrapped all the same: the CLI's output step and the
# constructor of the verdict record.
EXTRA = frozenset(("cli._emit", "reporting.CheckReport.__init__"))

# Functions that open a named region; the region's inclusive time is taken
# from its outermost span, and self time inside it is kept apart.
REGIONS = {
    "genus0.G0Solver.exactness_report": "checks",
    "genus0.wdvv_check": "checks",
    "genus0.euler_check": "checks",
    "recursion.w_residual": "residual",
    "recursion.wconstraint_report": "residual",
    "cli._emit": "emit",
}


def _c_const_key(args, kwargs):
    rd, tup = args[0], args[1] if len(args) > 1 else kwargs["tup"]
    return rd, tuple(tup)


def _p_slice_key(args, kwargs):
    solver, m, a, d = args
    return solver, (m, a, d)


def _w_slice_key(args, kwargs):
    solver, g, dirs, d = args
    return solver, (g, tuple(sorted(dirs)), d)


# Functions whose distinct requests are counted: owner object and key.
DISTINCT = {
    "combinatorics.c_const": _c_const_key,
    "genus0.G0Solver.p_slice": _p_slice_key,
    "recursion.DescendantSolver.w_slice": _w_slice_key,
}


class Tracer:
    """Counts and self times, gathered by the wrappers of one process."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        # operator calls made from outside every CycScalar operator
        self.outer_calls: dict[str, int] = defaultdict(int)
        self.consumer_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str | None], float] = defaultdict(float)
        self.key_self_s: dict[str, float] = defaultdict(float)
        self.region_s: dict[str, float] = defaultdict(float)
        self.misses: dict[tuple[str, str], int] = defaultdict(int)
        self.poly_mul_terms_out = 0
        self._seen: dict[tuple, None] = {}
        # owners are kept alive so that their ids are never reused
        self._owners: dict[int, object] = {}
        self._stack: list[list[float]] = []
        self._region: list[str | None] = [None]
        self._in_operator = [False]

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions and methods of every layer module."""
        modules = {name: getattr(package, name) for name in LAYERS}
        consumers = dict(modules, anrec=package)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)
                elif (isinstance(obj, types.FunctionType)
                      and obj.__module__ == mod.__name__
                      and self._wanted(f"{layer}.{name}", name, obj)):
                    key = f"{layer}.{name}"
                    for cname, cmod in consumers.items():
                        for attr, val in list(vars(cmod).items()):
                            if val is obj:
                                setattr(cmod, attr, self._wrap(obj, key, layer, cname))

    def _install_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                fn = attr.__func__
                if self._wanted(key, name, fn):
                    setattr(cls, name, staticmethod(self._wrap(fn, key, layer, layer)))
            elif isinstance(attr, types.FunctionType) and self._wanted(key, name, attr):
                setattr(cls, name, self._wrap(attr, key, layer, layer))

    @staticmethod
    def _wanted(key: str, name: str, fn) -> bool:
        if inspect.isgeneratorfunction(fn):
            return False
        return key in EXTRA or name in ARITHMETIC or not name.startswith("_")

    def _wrap(self, fn, key: str, layer: str, consumer: str):
        perf_counter = time.perf_counter
        stack = self._stack
        region_cell = self._region
        region = REGIONS.get(key)
        calls = self.calls
        consumer_calls = self.consumer_calls
        self_s = self.self_s
        key_self_s = self.key_self_s
        region_s = self.region_s
        distinct = DISTINCT.get(key)
        count_terms = key == "series.SparsePoly.__mul__"
        ckey = (key, consumer)
        operator = key.startswith("exactnum.CycScalar.") and key.rsplit(".", 1)[1] in ARITHMETIC
        in_operator = self._in_operator
        outer_calls = self.outer_calls

        def wrapper(*args, **kwargs):
            outer = region_cell[0]
            inner = outer if region is None else region
            region_cell[0] = inner
            nested = in_operator[0]
            if operator:
                in_operator[0] = True
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                own = dt - frame[0]
                self_s[(layer, inner)] += own
                key_self_s[key] += own
                if region is not None and outer != region:
                    region_s[region] += dt
                region_cell[0] = outer
                in_operator[0] = nested
                calls[key] += 1
                if operator and not nested:
                    outer_calls[key] += 1
                consumer_calls[ckey] += 1
            if distinct is not None:
                self._note(key, consumer, *distinct(args, kwargs))
            if count_terms:
                self.poly_mul_terms_out += len(result.terms)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _note(self, key: str, consumer: str, owner, arg_key) -> None:
        seen_key = (key, id(owner), arg_key)
        if seen_key not in self._seen:
            self._seen[seen_key] = None
            self._owners[id(owner)] = owner
            self.misses[(key, consumer)] += 1

    # -- metrics ----------------------------------------------------------

    def _sum_calls(self, *keys: str) -> int:
        return sum(self.calls.get(k, 0) for k in keys)

    def _sum_outer(self, *keys: str) -> int:
        return sum(self.outer_calls.get(k, 0) for k in keys)

    def _layer_self(self, layer: str, region: str | None = "*") -> float:
        return sum(v for (lay, reg), v in self.self_s.items()
                   if lay == layer and (region == "*" or reg == region))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        calls = self._sum_calls
        out: dict[str, tuple[float, str]] = {}
        outer = self._sum_outer
        out["exactnum.mul_calls"] = (outer("exactnum.CycScalar.__mul__",
                                           "exactnum.CycScalar.__rmul__"), "count")
        out["exactnum.add_calls"] = (outer("exactnum.CycScalar.__add__",
                                           "exactnum.CycScalar.__radd__",
                                           "exactnum.CycScalar.__sub__",
                                           "exactnum.CycScalar.__rsub__"), "count")
        out["exactnum.inv_calls"] = (calls("exactnum.CycScalar.inv"), "count")
        out["series.poly_mul_calls"] = (calls("series.SparsePoly.__mul__"), "count")
        out["series.poly_mul_terms_out"] = (self.poly_mul_terms_out, "count")
        out["series.poly_mul_self_s"] = (self.key_self_s.get("series.SparsePoly.__mul__", 0.0), "s")
        out["series.lambda_mul_calls"] = (calls("series.LambdaSeries.mul_capped"), "count")
        out["series.lambda_mul_self_s"] = (
            self.key_self_s.get("series.LambdaSeries.mul_capped", 0.0)
            + self.key_self_s.get("series.LambdaSeries.__mul__", 0.0), "s")
        out["series.ypoly_mul_calls"] = (calls("series.YPoly.__mul__"), "count")
        c_const = "combinatorics.c_const"
        out["combinatorics.c_const_calls"] = (calls(c_const), "count")
        out["combinatorics.c_const_misses"] = (
            sum(v for (k, _), v in self.misses.items() if k == c_const), "count")
        for consumer in ("genus0", "combinatorics"):
            out[f"combinatorics.c_const_calls.{consumer}"] = (
                self.consumer_calls.get((c_const, consumer), 0), "count")
            out[f"combinatorics.c_const_misses.{consumer}"] = (
                self.misses.get((c_const, consumer), 0), "count")
        out["combinatorics.sym_c_calls"] = (calls("combinatorics.sym_c"), "count")
        out["combinatorics.c_bracket_calls"] = (calls("combinatorics.c_bracket"), "count")
        out["combinatorics.verify_self_s"] = (sum(
            v for k, v in self.key_self_s.items()
            if k.startswith("combinatorics.verify_")), "s")
        out["rootsys.state_calls"] = (calls("rootsys.elem_sym_state",
                                            "rootsys.cbracket_state"), "count")
        out["rootsys.vandermonde_calls"] = (calls("rootsys.vandermonde_coeff"), "count")
        p_slice = "genus0.G0Solver.p_slice"
        out["genus0.p_slice_calls"] = (calls(p_slice), "count")
        out["genus0.p_slice_misses"] = (
            sum(v for (k, _), v in self.misses.items() if k == p_slice), "count")
        out["genus0.solve_self_s"] = (self._layer_self("genus0", None), "s")
        out["genus0.checks_s"] = (self.region_s.get("checks", 0.0), "s")
        w_slice = "recursion.DescendantSolver.w_slice"
        w_calls = calls(w_slice)
        w_misses = sum(v for (k, _), v in self.misses.items() if k == w_slice)
        out["recursion.w_slice_calls"] = (w_calls, "count")
        out["recursion.w_slice_misses"] = (w_misses, "count")
        out["recursion.w_hit_ratio"] = (1 - w_misses / w_calls if w_calls else 0.0, "ratio")
        out["recursion.solve_self_s"] = (self._layer_self("recursion", None), "s")
        out["recursion.residual_s"] = (self.region_s.get("residual", 0.0), "s")
        out["cli.emit_s"] = (self.region_s.get("emit", 0.0), "s")
        out["reporting.verdicts"] = (calls("reporting.CheckReport.__init__"), "count")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self._layer_self(layer), "s")
        return out
