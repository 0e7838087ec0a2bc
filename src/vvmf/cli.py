"""Batch front end: classify, coefficients, minimal forms, bases, classical
series, and the identity check suite, with machine-readable JSON/CSV output.

A job is a JSON object; results are written as canonical JSON (sorted keys,
no whitespace) so identical jobs produce identical bytes.  Residuals above
tolerance (env VVMF_TOL, default 1e-9) set a nonzero exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import mpmath

from .classical import ClassicalCatalog
from .constructions import (
    InductionJob,
    induction_pipeline,
    rank2_minimal,
    sym3_pipeline,
    tensor_pipeline,
)
from .errors import (
    DegenerateC,
    DegenerateU,
    ExponentSumMismatch,
    GroupMismatch,
    InconsistentRep,
    NonIntegralExponentGap,
    NonIntegralThreeTrace,
    NotAnExponent,
    NotIrreducible,
    PoleInC,
    ReducibleRep,
    Resonance,
    ResonantExponents,
    TraceDCongruenceViolation,
    ValidationError,
    VvmfError,
    WrongNome,
    ZeroForm,
    ZeroLeadingCoefficient,
)
from .mlde import (
    CaseReport,
    FormBasis,
    classify,
    cyclic_coeffs,
    generic_basis,
    indicial_shifts,
    modular_derivative,
    noncyclic_coeffs,
    rank2_coeff,
    solve_minimal_form,
)
from .reps import (
    ExponentData,
    GRank2Rep,
    Rank2Rep,
    Rank4Rep,
    as_complex_pair,
    rep_from_json,
)
from .series import relative_residual

DEFAULT_TOL = 1e-9
DEFAULT_ORDER = 40

#: pipeline stage letters used to annotate errors
STEPS = {
    "a": "determinant/parity extraction",
    "b": "weight-case classification",
    "c": "equation coefficients",
    "d": "Frobenius solving",
    "e": "hauptmodul substitution",
    "f": "eta rescale and basis assembly",
}


class PipelineStepError(VvmfError):
    """A pipeline stage failed; carries the stage letter."""

    def __init__(self, step: str, cause: Exception):
        self.step = step
        self.cause = cause
        super().__init__(f"[step ({step}) {STEPS[step]}] {cause}")


#: error classes mapped to the pipeline stage they arise in
_STEP_OF_ERROR = (
    ((InconsistentRep, GroupMismatch, ReducibleRep, NotIrreducible), "a"),
    ((NonIntegralThreeTrace, TraceDCongruenceViolation), "b"),
    ((ExponentSumMismatch, DegenerateC), "c"),
    ((NotAnExponent, Resonance, ResonantExponents, PoleInC, DegenerateU), "d"),
    ((WrongNome, NonIntegralExponentGap, ZeroLeadingCoefficient), "e"),
    ((ZeroForm,), "f"),
)


@contextmanager
def _step(default_letter: str):
    """Annotate any contract error with its pipeline stage letter."""
    try:
        yield
    except PipelineStepError:
        raise
    except VvmfError as exc:
        letter = default_letter
        for types, candidate in _STEP_OF_ERROR:
            if isinstance(exc, types):
                letter = candidate
                break
        raise PipelineStepError(letter, exc) from exc


def tolerance() -> float:
    raw = os.environ.get("VVMF_TOL")
    if not raw:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError as exc:
        raise ValidationError(f"VVMF_TOL={raw!r} is not a number") from exc


@dataclass
class JobSpec:
    """Validated job description."""

    command: str
    rep: Any = None
    exponents: Any = None
    construction: str | None = None
    reps: list | None = None
    exponents_list: list | None = None
    u: complex | None = None
    name: str | None = None
    order: int = DEFAULT_ORDER
    precision: str = "double"
    output_path: str | None = None
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, data: dict, command: str | None = None) -> "JobSpec":
        cmd = command or data.get("command")
        if cmd not in ("classify", "coeffs", "minimal", "basis", "classical", "check"):
            raise ValidationError(f"unknown command {cmd!r}")
        order = int(data.get("order", DEFAULT_ORDER))
        if order < 1:
            raise ValidationError("order must be >= 1")
        precision = data.get("precision", "double")
        if precision not in ("double", "extended"):
            raise ValidationError(f"unknown precision {precision!r}")
        job = cls(
            command=cmd,
            order=order,
            precision=precision,
            name=data.get("name"),
            construction=data.get("construction"),
            output_path=data.get("output_path"),
            raw=dict(data),
        )
        if "rep" in data:
            job.rep = rep_from_json(data["rep"])
        expo = data.get("exponents")
        if isinstance(expo, dict):
            job.exponents = ExponentData.from_json(expo)
        elif isinstance(expo, list):
            job.exponents_list = [ExponentData.from_json(e) for e in expo]
        if "reps" in data:
            job.reps = [rep_from_json(r) for r in data["reps"]]
        if "u" in data and data["u"] is not None:
            job.u = as_complex_pair(data["u"])
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
        if self.case is not None:
            out["case"] = self.case
        if self.coefficients is not None:
            out["coefficients"] = self.coefficients
        if self.basis is not None:
            out["basis"] = self.basis
        if self.minimal is not None:
            out["minimal"] = self.minimal
        if self.series is not None:
            out["series"] = self.series
        return out


def _case_json(report: CaseReport) -> dict:
    return {
        "case": report.case,
        "k1": report.k1,
        "weights": list(report.weight_tuple),
        "d": report.d,
        "e": report.e,
    }


def _basis_json(basis: FormBasis) -> list:
    return [
        {
            "weight": [f.weight.numerator, f.weight.denominator],
            "components": [c.to_json() for c in f.components],
        }
        for f in basis.forms
    ]


def run(job: JobSpec) -> ResultEnvelope:
    """Dispatch a validated job through the pipeline and collect results."""
    t0 = time.perf_counter()
    # extended jobs build their catalog constants at 50 digits; the scope
    # leaves the process-global mpmath precision as it found it
    scope = mpmath.workdps(50) if job.precision == "extended" else nullcontext()
    with scope:
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
        if not job.name:
            raise ValidationError("classical requires a series name")
        catalog = ClassicalCatalog(job.order, job.precision)
        env.series = catalog.series(job.name).to_json()

    elif job.command == "classify":
        report = _classify_job(job)
        env.case = _case_json(report)

    elif job.command == "coeffs":
        report = _classify_job(job)
        env.case = _case_json(report)
        with _step("c"):
            f = indicial_shifts(job.exponents.eigenvalues, report.case)
            co = cyclic_coeffs(f) if report.case == "cyclic" else noncyclic_coeffs(f)
        env.coefficients = co.to_json()

    elif job.command == "minimal":
        catalog = ClassicalCatalog(job.order, job.precision)
        if job.rep is None or job.exponents is None:
            raise ValidationError("minimal needs a representation and exponent data")
        if isinstance(job.rep, Rank2Rep):
            with _step("d"):
                form = rank2_minimal(job.rep, job.exponents, job.order, catalog)
            env.minimal = {
                "k1": form.k1,
                "source": form.source,
                "components": None
                if form.components is None
                else [c.to_json() for c in form.components.components],
            }
            if form.components is not None:
                env.residuals["rank2_mlde"] = _rank2_mlde_residual(
                    form, job.exponents, catalog
                )
        else:
            _require_rank4(job)
            with _step("d"):
                F, report, co, residuals = solve_minimal_form(
                    job.rep, job.exponents, job.order, catalog
                )
            env.case = _case_json(report)
            env.coefficients = co.to_json()
            env.minimal = {
                "k1": report.k1,
                "components": [c.to_json() for c in F.components],
            }
            env.residuals.update(residuals)

    elif job.command == "basis":
        catalog = ClassicalCatalog(job.order, job.precision)
        basis = _basis_job(job, catalog)
        env.case = None if basis.case is None else _case_json(basis.case)
        env.basis = _basis_json(basis)
        env.residuals.update(basis.residuals)

    return env


def _rank2_mlde_residual(form, L, catalog: ClassicalCatalog) -> float:
    """Residual of D^2 F + a E_4 F = 0 on the emitted rank-2 minimal form."""
    r1, r2 = L.eigenvalues
    tr = r1 + r2
    a = rank2_coeff(r1 - tr / 2 + Fraction(1, 12), r2 - tr / 2 + Fraction(1, 12))
    d1 = modular_derivative(form.components, form.k1, catalog)
    d2 = modular_derivative(d1, form.k1 + 2, catalog)
    term = form.components.mul_series(catalog.eisenstein(4)).scale(a)
    return relative_residual(d2 + term, d2, term)


def _require_rank4(job: JobSpec) -> None:
    if not isinstance(job.rep, Rank4Rep):
        raise ValidationError("this command needs a rank-4 representation")
    if job.exponents is None:
        raise ValidationError("missing exponent data")


def _classify_job(job: JobSpec) -> CaseReport:
    _require_rank4(job)
    with _step("a"):
        d = job.rep.d  # validated against xyzw by the constructor
    with _step("b"):
        return classify(job.rep, job.exponents)


def _basis_job(job: JobSpec, catalog: ClassicalCatalog) -> FormBasis:
    if job.construction is None:
        _require_rank4(job)
        with _step("d"):
            return generic_basis(job.rep, job.exponents, job.order, catalog)
    if job.construction == "tensor":
        if not job.reps or len(job.reps) != 2 or not job.exponents_list:
            raise ValidationError("tensor jobs need two reps and two exponent sets")
        with _step("d"):
            return tensor_pipeline(
                job.reps[0], job.reps[1],
                job.exponents_list[0], job.exponents_list[1],
                job.order, catalog,
            )
    if job.construction == "sym3":
        reps = job.reps or ([job.rep] if job.rep is not None else None)
        expos = job.exponents_list or (
            [job.exponents] if job.exponents is not None else None
        )
        if not reps or not expos:
            raise ValidationError("sym3 jobs need one rep and one exponent set")
        with _step("d"):
            return sym3_pipeline(reps[0], expos[0], job.order, catalog)
    if job.construction == "induction":
        reps = job.reps or ([job.rep] if job.rep is not None else None)
        expos = job.exponents_list or (
            [job.exponents] if job.exponents is not None else None
        )
        if not reps or not expos or job.u is None:
            raise ValidationError("induction jobs need a rep, exponents, and u")
        if not isinstance(reps[0], GRank2Rep):
            raise ValidationError("induction starts from a subgroup representation")
        with _step("d"):
            ijob = InductionJob.make(reps[0], expos[0], job.u)
            first, second = induction_pipeline(ijob, job.order, catalog)
        # emit the beta-twist basis; the beta^2 side is in the second slot
        merged = dict(first.residuals)
        merged.update({f"beta2_{k}": v for k, v in second.residuals.items()})
        return FormBasis(first.forms + second.forms, first.case, merged)
    raise ValidationError(f"unknown construction {job.construction!r}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def emit(env: ResultEnvelope | dict, fmt: str = "json", path: str | None = None) -> str:
    """Serialize an envelope.  Timing is never emitted (``main`` prints it to
    stderr), keeping the bytes a deterministic function of the job and
    precision."""
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
    for name in ("classify", "coeffs", "minimal", "basis", "classical", "check"):
        p = sub.add_parser(name)
        p.add_argument("--spec", help="path to a JSON job file (or a list of jobs)")
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--precision", choices=("double", "extended"), default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for a list-valued --spec")
        if name == "classical":
            p.add_argument("--name", help="series name, e.g. E4, Delta, K, Z, Eta^12")

    args = parser.parse_args(argv)
    payloads: list[dict]
    if args.spec:
        with open(args.spec, encoding="utf-8") as handle:
            data = json.load(handle)
        payloads = data if isinstance(data, list) else [data]
    else:
        payloads = [{}]
    overrides = {"command": args.command}
    if args.order is not None:
        overrides["order"] = args.order
    if args.precision is not None:
        overrides["precision"] = args.precision
    if getattr(args, "name", None):
        overrides["name"] = args.name
    for p in payloads:
        p.update(overrides)

    try:
        tol = tolerance()
        if args.jobs > 1 and len(payloads) > 1:
            from multiprocessing import Pool

            with Pool(args.jobs) as pool:
                results = pool.map(_run_one, payloads)
        else:
            results = [_run_one(p) for p in payloads]
    except PipelineStepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VvmfError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    worst = 0.0
    for index, (result, res, out_path, seconds) in enumerate(results):
        worst = max(worst, res)
        text = emit(result, args.format, out_path or args.out)
        if not (out_path or args.out):
            sys.stdout.write(text)
        print(f"job {index}: {seconds:.3f} s", file=sys.stderr)
    print(f"worst residual: {worst:.3e} (tolerance {tol:.1e})", file=sys.stderr)
    return 0 if worst < tol else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
