"""Batch front end: classify, coefficients, minimal forms, bases, classical
series, and the identity check suite, with machine-readable JSON/CSV output.

A job is a JSON object with the keys and JSON types of :data:`JOBS`, checked
before any pipeline code runs; a format error names its path, as in
``reps[0].x: expected a pair of numbers [re, im]``.  Each representation is
then built by keyword from :data:`REP_KEYS`, whose keys are its type's
constructor arguments, and each exponents object as :class:`ExponentData`;
the constructors run the mathematical checks.  Every job of a
representation runs through the staged driver :func:`vvmf.mlde.staged` on
the route of :data:`ROUTES` that its construction, else its
representation's kind, selects, and stops after the stage its command
names: ``classify`` after the case, ``coeffs`` after the equation
coefficients, ``minimal`` and ``basis`` after the basis.  A basis or
minimal form is emitted from the stack its route checked it in
(:meth:`vvmf.series.FormStack.to_json`), in the layout of its tuple forms;
a rank-2 minimal form is emitted without the case and coefficients, with
its source and its system's worst column.  Results are written as
canonical JSON (sorted keys, no whitespace) so identical jobs produce
identical bytes.  A job's
own ``output_path`` takes its result; ``--out``, or else stdout, takes the
others' in job order.  Residuals above tolerance (env VVMF_TOL, a finite
number > 0, default 1e-9) set a nonzero exit status.  A job that cannot run
exits with status 2 and one line ``error: [step (x) <stage>] <message>``,
the stage being the one the error's class names (:data:`vvmf.errors.STEPS`),
wherever it was raised; validation and output errors name none.  A residual
of inf cannot be emitted either: it prints that line, and the residual gate
sets the status.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

from .classical import ClassicalCatalog
from .constructions import (
    INDUCTION_ROUTE,
    RANK2_ROUTE,
    SYM3_ROUTE,
    TENSOR_ROUTE,
    InductionJob,
)
from .errors import STEPS, Resonance, ValidationError, VvmfError
from .mlde import (
    GENERIC_ROUTE,
    CaseReport,
    generic_basis,  # noqa: F401  (a binding site perfbench's tracer test reads)
    modular_derivative,  # noqa: F401  (a binding site perfbench's tracer test patches)
    staged,
)
from .reps import ExponentData, GRank2Rep, Rank2Rep, Rank4Rep

DEFAULT_TOL = 1e-9
DEFAULT_ORDER = 40


def tolerance() -> float:
    raw = os.environ.get("VVMF_TOL")
    try:
        tol = float(raw) if raw else DEFAULT_TOL
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise ValidationError(f"VVMF_TOL={raw!r}: expected a finite number > 0")
    return tol


# ---------------------------------------------------------------------------
# the job format
# ---------------------------------------------------------------------------

# A JSON type in the tables below is one of: complex, a pair [re, im] of
# finite numbers; int, an integer (not a boolean); range(lo, hi), an integer
# in it; str; a tuple, one of its strings; a list, exactly its items, or any
# number of its first one when it ends in ...; a dict, an object with exactly
# these keys, "?" marking an optional one.  An object whose "kind" is one of
# a tuple of representation kinds has, besides "kind", that kind's REP_KEYS.

#: each representation kind's type and its keys besides "kind", which are
#: the type's constructor arguments
REP_KEYS = {
    "rank2": (Rank2Rep, {"x": complex, "y": complex}),
    "rank4": (Rank4Rep, {"x": complex, "y": complex, "z": complex, "w": complex,
                         "d": int, "e": int}),
    "g-rank2": (GRank2Rep, {"e": int, "zeta1": complex, "zeta2": complex,
                            "zeta3": complex, "a": complex}),
}

#: each route of :func:`vvmf.mlde.staged`, by what selects it: the job's
#: construction, else its representation's kind
ROUTES = {"sym3": SYM3_ROUTE, "tensor": TENSOR_ROUTE, "induction": INDUCTION_ROUTE,
          "rank2": RANK2_ROUTE, "rank4": GENERIC_ROUTE}

EXPONENTS = {"eigenvalues": [complex, ...], "group?": ("Gamma", "G")}
COMMANDS = ("classify", "coeffs", "minimal", "basis", "classical", "check")
CONSTRUCTIONS = ("sym3", "tensor", "induction")

#: keys of every job; the caller may give the command instead
COMMON = {"command?": COMMANDS, "order?": range(1, sys.maxsize), "output_path?": str}

#: each job kind's keys besides COMMON's; the kind is a basis job's
#: construction, else its command
JOBS = {
    **{command: {"rep": {"kind": ("rank2", "rank4")}, "exponents": EXPONENTS}
       for command in ("classify", "coeffs", "minimal", "basis")},
    "sym3": {"construction": ("sym3",), "reps": [{"kind": ("rank2",)}],
             "exponents": [EXPONENTS]},
    "tensor": {"construction": ("tensor",), "reps": [{"kind": ("rank2",)}] * 2,
               "exponents": [EXPONENTS] * 2},
    "induction": {"construction": ("induction",), "reps": [{"kind": ("g-rank2",)}],
                  "exponents": [EXPONENTS], "u": complex},
    "classical": {"name": str, "precision?": ("double", "extended")},
    "check": {},
}


def _check(value, schema, path: str) -> None:
    """Raise ValidationError naming ``path`` unless ``value`` has the JSON
    type ``schema``."""
    if isinstance(schema, dict):
        ok, what = isinstance(value, dict), "an object"
        if ok:
            _check_object(value, schema, path)
    elif isinstance(schema, list):
        many = schema[-1] is ...
        ok = isinstance(value, list) and (many or len(value) == len(schema))
        what = "a list" if many else f"a list of {len(schema)}"
        for i, item in enumerate(value if ok else ()):
            _check(item, schema[0] if many else schema[i], f"{path}[{i}]")
    elif schema is complex:  # type(), since a boolean is an int
        ok = isinstance(value, list) and len(value) == 2 and all(
            type(v) in (int, float) for v in value)
        what = "a pair of numbers [re, im]"
        if ok and not all(map(math.isfinite, value)):
            raise ValidationError(f"{path}: expected finite numbers, got {json.dumps(value)}")
    elif schema is str:
        ok, what = isinstance(value, str), "a string"
    elif isinstance(schema, tuple):
        ok, what = isinstance(value, str) and value in schema, " or ".join(map(repr, schema))
    else:  # int, or a range of them
        ok = type(value) is int and (schema is int or value in schema)
        what = "an integer" if schema is int else f"an integer >= {schema.start}"
    if not ok:
        raise ValidationError(f"{path or 'job'}: expected {what}")


def _check_object(value: dict, schema: dict, path: str) -> None:
    at = f"{path}." if path else ""
    if "kind" in schema:  # a representation: its kind names its other keys
        _check(value.get("kind"), schema["kind"], f"{at}kind")
        schema = {"kind": str, **REP_KEYS[value["kind"]][1]}
    names = {key.rstrip("?"): key for key in schema}
    for key in value:
        if key not in names:
            raise ValidationError(f"{at}{key}: unexpected key")
    for name, key in names.items():
        if name in value:
            _check(value[name], schema[key], at + name)
        elif not key.endswith("?"):
            raise ValidationError(f"{at}{name}: missing")


@dataclass
class JobSpec:
    """A job checked against :data:`JOBS`, with its representations and
    exponents built, in job order (a job with one ``rep`` has one of each)."""

    command: str
    construction: str | None = None
    reps: list = field(default_factory=list)
    exponents: list = field(default_factory=list)
    u: complex | None = None
    name: str | None = None
    order: int = DEFAULT_ORDER
    precision: str = "double"
    output_path: str | None = None
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, data: dict, command: str | None = None) -> "JobSpec":
        """Check ``data`` against :data:`JOBS` (the command may come apart), then build it."""
        if not isinstance(data, dict):
            raise ValidationError("job: expected an object")
        cmd = command or data.get("command")
        _check(cmd, COMMANDS, "command")
        kind = data.get("construction", cmd) if cmd == "basis" else cmd
        if kind != cmd:
            _check(kind, CONSTRUCTIONS, "construction")
        _check(data, {**COMMON, **JOBS[kind]}, "")
        job = cls(cmd, raw=dict(data), **{key: data[key] for key in (
            "construction", "name", "order", "precision", "output_path") if key in data})
        for rep in data.get("reps", [data["rep"]] if "rep" in data else []):
            rep_type, keys = REP_KEYS[rep["kind"]]
            job.reps.append(rep_type(**{key: complex(*rep[key]) if t is complex else rep[key]
                                        for key, t in keys.items()}))
        expos = data.get("exponents", [])
        job.exponents = [ExponentData([complex(*v) for v in e["eigenvalues"]],
                                      e.get("group", "Gamma"))
                         for e in ([expos] if isinstance(expos, dict) else expos)]
        job.u = complex(*data["u"]) if "u" in data else None
        return job


@dataclass
class ResultEnvelope:
    """Job echo plus results and diagnostics."""

    job: dict
    case: dict | None = None
    coefficients: dict | None = None
    basis: list | None = None
    minimal: dict | None = None
    series: dict | None = None
    residuals: dict = field(default_factory=dict)
    timing: float = 0.0

    def worst_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def to_json(self) -> dict:
        out: dict = {"job": self.job, "residuals": dict(self.residuals)}
        for key in ("case", "coefficients", "basis", "minimal", "series"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out


#: the source a rank-2 minimal form names: the closed hypergeometric form
#: of a T-regular representation, or the Jordan family nu_chi
HYPERGEOMETRIC = "hypergeometric"
NU_CHI = "nu-chi"


def _case_json(report: CaseReport) -> dict:
    return {
        "case": report.case,
        "k1": report.k1,
        "weights": list(report.weight_tuple),
        "d": report.d,
        "e": report.e,
    }


def run(job: JobSpec) -> ResultEnvelope:
    """Dispatch a validated job through the pipeline and collect results."""
    t0 = time.perf_counter()
    env = _dispatch(job)
    env.timing = time.perf_counter() - t0
    return env


def _dispatch(job: JobSpec) -> ResultEnvelope:
    env = ResultEnvelope(job=job.raw)

    if job.command == "check":
        catalog = ClassicalCatalog(max(job.order, 200))
        env.residuals.update(catalog.level_one_residuals())
        env.residuals.update(ClassicalCatalog(50).level_two_residuals())

    elif job.command == "classical":
        catalog = ClassicalCatalog(job.order, job.precision)
        env.series = catalog.series(job.name).to_json()

    else:  # a route, run to the stage the command stops after
        inputs = (*job.reps, *job.exponents)
        if job.construction == "induction":
            inputs = (InductionJob(*inputs, job.u),)
        report, co, basis = staged(ROUTES[job.construction or job.raw["rep"]["kind"]], inputs,
                                   job.order, ClassicalCatalog(job.order), job.command)
        if job.command == "minimal":
            F = None if basis.stack is None else basis.stack.form(0).to_json()[0]["components"]
            env.minimal = {"k1": report.k1, "components": F}
        if job.command == "minimal" and len(report.weight_tuple) == 2:
            # a rank-2 minimal form names its source and its system's worst
            # column, with no case or coefficients
            env.minimal["source"] = NU_CHI if basis.stack is None else HYPERGEOMETRIC
            if basis.eta_component is not None:
                env.minimal["eta_component"] = basis.eta_component.to_json()
            if basis.residuals:
                env.residuals["rank2_mlde"] = max(basis.residuals.values())
            return env
        env.case = _case_json(report)
        if job.command in ("coeffs", "minimal"):
            env.coefficients = co.to_json()
        if job.command == "basis":
            if basis.stack is None:
                raise Resonance("series output for the Jordan family is out of scope")
            env.basis = basis.stack.to_json()
        if basis is not None:
            env.residuals.update(basis.residuals)

    return env


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

#: the error of a number that neither output format can hold
_NON_FINITE = "the output holds a non-finite number (Infinity or NaN)"


def canonical_json(data: dict) -> str:
    """Sorted keys, no whitespace.  An envelope is a fresh tree of dicts and
    lists, so the encoder skips its cycle check, which records and drops the
    id of every [re, im] pair."""
    try:
        return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False,
                          check_circular=False) + "\n"
    except ValueError as exc:
        raise ValidationError(_NON_FINITE) from exc


def emit(env: ResultEnvelope | dict, fmt: str = "json", path: str | None = None) -> str:
    """Serialize an envelope.  Timing is never emitted (``main`` prints it to
    stderr), keeping the bytes a deterministic function of the job.  A
    non-finite number in either format raises ValidationError."""
    data = env.to_json() if isinstance(env, ResultEnvelope) else env
    if fmt == "json":
        text = canonical_json(data)
    elif fmt == "csv":
        if data.get("basis") is None:
            raise ValidationError("csv output requires a basis result")
        lines = ["form_index,component,n,re,im"]
        for fi, form in enumerate(data["basis"]):
            for ci, comp in enumerate(form["components"]):
                for n, (re, im) in enumerate(comp["coeffs"]):
                    if not (math.isfinite(re) and math.isfinite(im)):
                        raise ValidationError(_NON_FINITE)
                    lines.append(f"{fi},{ci},{n},{re!r},{im!r}")
        text = "\n".join(lines) + "\n"
    else:
        raise ValidationError(f"unknown format {fmt!r}")
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _read_spec(path: str) -> list:
    """The jobs of a --spec file: one JSON job, or a list of them."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    return data if isinstance(data, list) else [data]


def _run_one(payload: dict) -> tuple[dict, float, str | None, float]:
    job = JobSpec.from_json(payload)
    env = run(job)
    return env.to_json(), env.worst_residual(), job.output_path, env.timing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vvmf",
        description="free bases of vector-valued modular forms of rank <= 4",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--spec", help="path to a JSON job file (or a list of jobs)")
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for a list-valued --spec")
        if name == "classical":
            p.add_argument("--name", help="series name, e.g. E4, Delta, K, Z, Eta^12")
            p.add_argument("--precision", choices=("double", "extended"), default=None)

    args = parser.parse_args(argv)
    overrides = {"command": args.command}
    if args.order is not None:
        overrides["order"] = args.order
    if getattr(args, "precision", None) is not None:
        overrides["precision"] = args.precision
    if getattr(args, "name", None):
        overrides["name"] = args.name

    results = []
    try:
        tol = tolerance()
        payloads = _read_spec(args.spec) if args.spec else [{}]
        # an entry that is no object goes to the table as it is, and fails there
        payloads = [{**p, **overrides} if isinstance(p, dict) else p for p in payloads]
        if args.jobs > 1 and len(payloads) > 1:
            from multiprocessing import Pool

            with Pool(min(args.jobs, len(payloads))) as pool:
                results = pool.map(_run_one, payloads)
        else:
            results = [_run_one(p) for p in payloads]
        # a job's own output_path takes its text; --out, or else stdout,
        # takes the others' in job order
        texts = [emit(result, args.format, out_path) for result, _, out_path, _ in results]
        shared = "".join(text for text, (_, _, out_path, _) in zip(texts, results)
                         if not out_path)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(shared)
    except (VvmfError, OSError, ValueError, OverflowError) as exc:
        stage = getattr(exc, "stage", None)
        prefix = f"[step ({stage}) {STEPS[stage]}] " if stage else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        # a residual of inf, which JSON cannot hold, fails the residual
        # gate: every job ran, so the gate sets the status
        if not any(res == math.inf for _, res, _, _ in results):
            return 2
        shared = ""

    if not args.out:
        sys.stdout.write(shared)
    worst = 0.0
    for index, (_, res, _, seconds) in enumerate(results):
        worst = max(worst, res)
        print(f"job {index}: {seconds:.3f} s", file=sys.stderr)
    print(f"worst residual: {worst:.3e} (tolerance {tol:.1e})", file=sys.stderr)
    return 0 if worst < tol else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
