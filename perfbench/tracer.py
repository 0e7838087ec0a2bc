"""Outside-in layer tracing for the benchmark.

``Tracer.install`` wraps the public functions and methods of
``vvmf.series``, ``vvmf.classical``, ``vvmf.reps``, ``vvmf.mlde``,
``vvmf.constructions`` and ``vvmf.cli`` from outside the package: a
module-level function is replaced at every binding site (a function imported
with ``from .series import compose_frobenius`` is a separate name in each
importing module), a method is replaced on its class.  ``uninstall`` puts
every original back, so traced and untraced passes can share one process.

Each wrapper records a span: calls, inclusive time and self time (inclusive
time minus the time of the wrapped calls it made).  Spans are aggregated in
memory into per-layer buckets and read out with :meth:`Tracer.metrics`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import mpmath

from check import LAYERS

#: series is traced at its kernel entry points only: the O(N) helpers
#: (addition, scaling, the Euler operator, type conversions) run inside
#: every other layer and count toward their callers' self time
SERIES_FUNCTIONS = ("compose_frobenius", "composition_dps", "downcast_to_complex",
                    "relative_residual", "lift_to_mp", "log10_max_abs")
SERIES_METHODS = ("__mul__", "__pow__", "invert", "divide", "pow_binomial",
                  "slash_t_inverse", "retag_q2", "to_json")

#: named buckets inside a layer; every other span of the layer only adds to
#: the layer total
BUCKETS = {
    "compose_frobenius": "series.compose",
    "divide": "series.divide",
    "invert": "series.invert",
    "pow_binomial": "series.pow_binomial",
    "frobenius_solve": "mlde.frobenius",
    "frobenius_solve_system": "mlde.frobenius",
    "assemble_cyclic_basis": "mlde.assemble",
    "assemble_noncyclic_basis": "mlde.assemble",
    "modular_derivative": "mlde.modular_derivative",
    "operator_residual": "mlde.residual",
    "system_residual": "mlde.residual",
    "rank2_minimal": "constructions.rank2_minimal",
    "run": "cli.run",
    "emit": "cli.emit",
}

#: classes whose public methods are left alone: ``FuchsianOperator.apply``
#: and ``indicial`` are the inner loops of the solver and residual spans
SKIP_CLASSES = {"FuchsianOperator"}

#: dunder methods that are layer entry points
EXTRA_METHODS = {"ClassicalCatalog": ("__init__",),
                 "Rank2Rep": ("__post_init__",), "Rank4Rep": ("__post_init__",),
                 "GRank2Rep": ("__post_init__",), "ExponentData": ("__post_init__",)}

MP_TYPES = (mpmath.mpf, mpmath.mpc)


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


def _double_key(series) -> tuple:
    """Value key of a series after rounding every coefficient to a double
    (exact ints stay exact: K's coefficients outgrow the double range)."""
    def rd(c):
        return c if type(c) is int else complex(c)

    return (series.nome, rd(series.lead_exponent), tuple(rd(c) for c in series.coeffs))


def _exponent_key(r) -> tuple:
    z = complex(r)
    return (round(z.real, 12), round(z.imag, 12))


class Tracer:
    """Span recorder; create one per traced pass."""

    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.mul = {k: {"calls": 0, "self": 0.0, "madds": 0, "dps_madds": 0}
                    for k in ("mp", "int", "f64")}
        self.compose_dps_max = 0
        self.out_bytes = 0
        # per-job deduplication keys; the job index keeps jobs apart
        self.job = -1
        self.route = ""
        self.job_dps = 0
        self.compose_keys: dict[str, set] = defaultdict(set)
        self.compose_calls: dict[str, int] = defaultdict(int)
        self.solve_keys: dict[str, set] = defaultdict(set)
        self.solve_calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- bookkeeping ------------------------------------------------------------

    def begin_job(self, route: str) -> None:
        self.job += 1
        self.route = route
        self.job_dps = 0

    def _error(self, layer: str, exc: BaseException) -> None:
        # count an exception once, at the innermost traced layer it left;
        # exceptions re-raised as a cause or context count with the original
        seen = exc
        while seen is not None:
            if getattr(seen, "_perfbench_layer", None):
                return
            seen = seen.__cause__ or seen.__context__
        try:
            exc._perfbench_layer = layer
        except AttributeError:
            pass
        self.errors[layer] += 1

    def _span(self, fn, layer: str, name: str, observe=None):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args)
            frame = [0.0]
            stack.append(frame)
            t1 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(layer, exc)
                raise
            finally:
                t2 = clock()
                stack.pop()
                dt = t2 - t1
                stat.calls += 1
                stat.total += dt
                own = dt - frame[0]
                stat.self += own
                self.layer_self[layer] += own
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _mul_wrapper(self, fn, series_type):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(a, b):
            if not isinstance(b, series_type):
                return fn(a, b)  # scalar product: a scale, not a convolution
            ca, cb = a.coeffs, b.coeffs
            if any(type(c) in MP_TYPES for c in ca) or any(type(c) in MP_TYPES for c in cb):
                kind = "mp"
            elif all(type(c) is int for c in ca) and all(type(c) is int for c in cb):
                kind = "int"
            else:
                kind = "f64"
            n = min(len(ca), len(cb)) - 1
            madds = (n + 1) * (n + 2) // 2
            rec = self.mul[kind]
            rec["calls"] += 1
            rec["madds"] += madds
            if kind == "mp":
                dps = mpmath.mp.dps
                rec["dps_madds"] += dps * madds
                self.job_dps = max(self.job_dps, dps)
            frame = [0.0]
            stack.append(frame)
            t1 = clock()
            try:
                return fn(a, b)
            except BaseException as exc:
                self._error("series", exc)
                raise
            finally:
                t2 = clock()
                stack.pop()
                dt = t2 - t1
                own = dt - frame[0]
                rec["self"] += own
                self.layer_self["series"] += own
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _observe_compose(self, f, x_of_q, *_):
        dps = mpmath.mp.dps
        self.compose_dps_max = max(self.compose_dps_max, dps)
        self.job_dps = max(self.job_dps, dps)
        n = min(f.order, x_of_q.order)
        key = (self.job, _double_key(f), _double_key(x_of_q.truncate(n)))
        self.compose_keys[self.route].add(key)
        self.compose_calls[self.route] += 1

    def _observe_solve(self, *args):
        # frobenius_solve(op, r, order) / frobenius_solve_system(b0, b1, r, v0, order)
        r = args[1] if len(args) == 3 else args[2]
        self.solve_keys[self.route].add((self.job, _exponent_key(r)))
        self.solve_calls[self.route] += 1

    # -- patching -----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable of the already-imported vvmf package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "vvmf" or n.startswith("vvmf."))]
        replacements: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = sys.modules[f"vvmf.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if layer == "series" and name not in SERIES_FUNCTIONS:
                        continue
                    replacements[id(obj)] = (obj, self._wrap_function(layer, name, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(layer, obj)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, hit[1])

    def _wrap_function(self, layer: str, name: str, fn):
        bucket = BUCKETS.get(name) or f"{layer}.{name}"
        observe = None
        if name == "compose_frobenius":
            observe = self._observe_compose
        elif name in ("frobenius_solve", "frobenius_solve_system"):
            observe = self._observe_solve
        return self._span(fn, layer, bucket, observe)

    def _patch_class(self, layer: str, cls) -> None:
        if cls.__name__ in SKIP_CLASSES or issubclass(cls, BaseException):
            return
        if layer == "series":
            names = SERIES_METHODS if cls.__name__ == "PuiseuxSeries" else ()
        else:
            names = [n for n in vars(cls) if not n.startswith("_")]
            names += list(EXTRA_METHODS.get(cls.__name__, ()))
        for name in names:
            raw = vars(cls).get(name)
            if raw is None:
                continue
            if name == "__mul__":
                wrapped = self._mul_wrapper(raw, cls)
            elif isinstance(raw, (classmethod, staticmethod)):
                bucket = "cli.parse" if (layer, name) == ("cli", "from_json") \
                    else f"{layer}.{cls.__name__}.{name}"
                wrapped = type(raw)(self._span(raw.__func__, layer, bucket))
            elif inspect.isfunction(raw):
                bucket = BUCKETS.get(name) or f"{layer}.{cls.__name__}.{name}"
                wrapped = self._span(raw, layer, bucket)
            else:
                continue  # properties and plain attributes
            self._patches.append((cls, name, raw))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- read-out -----------------------------------------------------------------

    def stat(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values; ratios over no calls read 0."""
        out: dict[str, float] = {}
        for kind, rec in self.mul.items():
            out[f"series.mul_{kind}.calls"] = rec["calls"]
            out[f"series.mul_{kind}.self_s"] = rec["self"]
            out[f"series.mul_{kind}.madds"] = rec["madds"]
        mp = self.mul["mp"]
        out["series.mul_mp.dps_mean"] = mp["dps_madds"] / mp["madds"] if mp["madds"] else 0.0
        comp = self.stat("series.compose")
        out["series.compose.calls"] = comp.calls
        out["series.compose.self_s"] = comp.self
        out["series.compose.total_s"] = comp.total
        out["series.compose.dps_max"] = self.compose_dps_max
        out["series.compose.repeat_ratio"] = _ratio(
            sum(self.compose_calls.values()),
            sum(len(v) for v in self.compose_keys.values()))
        out["series.compose.tensor.repeat_ratio"] = _ratio(
            self.compose_calls["tensor"], len(self.compose_keys["tensor"]))
        for op in ("pow_binomial", "divide", "invert"):
            out[f"series.{op}.self_s"] = self.stat(f"series.{op}").self
        out["series.self_s"] = self.layer_self["series"]
        catalog_calls = sum(s.calls for n, s in self.stats.items()
                            if n.startswith("classical.ClassicalCatalog.")
                            and not n.endswith("__init__"))
        out["classical.catalogs"] = self.stat("classical.ClassicalCatalog.__init__").calls
        out["classical.calls"] = catalog_calls
        out["classical.self_s"] = self.layer_self["classical"]
        out["reps.self_s"] = self.layer_self["reps"]
        frob = self.stat("mlde.frobenius")
        out["mlde.frobenius.calls"] = frob.calls
        out["mlde.frobenius.self_s"] = frob.self
        out["mlde.solves_per_exponent"] = _ratio(
            sum(self.solve_calls.values()),
            sum(len(v) for v in self.solve_keys.values()))
        out["mlde.noncyclic.solves_per_exponent"] = _ratio(
            self.solve_calls["noncyclic"], len(self.solve_keys["noncyclic"]))
        for part in ("assemble", "modular_derivative", "residual"):
            out[f"mlde.{part}.self_s"] = self.stat(f"mlde.{part}").self
        out["mlde.self_s"] = self.layer_self["mlde"]
        out["constructions.self_s"] = self.layer_self["constructions"]
        out["constructions.rank2_minimal.calls"] = self.stat("constructions.rank2_minimal").calls
        out["cli.parse_s"] = self.stat("cli.parse").total
        out["cli.run_self_s"] = self.stat("cli.run").self
        out["cli.emit_s"] = self.stat("cli.emit").total
        out["cli.out_bytes"] = self.out_bytes
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
