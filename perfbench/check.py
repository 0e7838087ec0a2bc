"""Per-job correctness: outcome classification and the frozen-reference check.

A job fails when it raises anything, when its worst recorded residual is at
or above the CLI's exit tolerance, or when its emitted coefficients leave the
frozen reference.  The reference holds, for every pool member, the emitted
output at the member's lowest order; a job at a higher order must reproduce
that window coefficient by coefficient to within ``REF_TOL`` of the
component's largest reference coefficient.  Because the MLDEs are linear, a
uniformly rescaled or truncated basis still passes every residual gate; only
the reference can see it.
"""

from __future__ import annotations

import gzip
import json
import traceback
from dataclasses import dataclass
from pathlib import Path

REF_TOL = 1e-10
LEAD_TOL = 1e-9
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json.gz"

LAYERS = ("series", "classical", "reps", "mlde", "constructions", "cli")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def reference_entry(data: dict) -> dict:
    """The comparable part of an emitted envelope."""
    if data.get("basis") is not None:
        comps = [
            {"weight": form["weight"], "lead": comp["lead_exponent"], "coeffs": comp["coeffs"]}
            for form in data["basis"] for comp in form["components"]
        ]
        return {"components": comps}
    if data.get("series") is not None:
        s = data["series"]
        return {"components": [{"weight": None, "lead": s["lead_exponent"],
                                "coeffs": s["coeffs"]}]}
    return {"residual_keys": sorted(data.get("residuals", {}))}


def compare(data: dict, ref: dict) -> tuple[float, str | None]:
    """Largest normalized coefficient deviation of an emitted envelope from
    its reference, and the reason it is rejected (None when it passes)."""
    got = reference_entry(data)
    if "residual_keys" in ref:
        if got.get("residual_keys") != ref["residual_keys"]:
            return 0.0, "residual keys differ from the reference"
        return 0.0, None
    comps, want = got.get("components", []), ref["components"]
    if len(comps) != len(want):
        return float("inf"), f"{len(comps)} components, reference has {len(want)}"
    worst = 0.0
    for k, (c, w) in enumerate(zip(comps, want)):
        if c["weight"] != w["weight"]:
            return float("inf"), f"component {k} has weight {c['weight']}, reference {w['weight']}"
        if abs(complex(*c["lead"]) - complex(*w["lead"])) > LEAD_TOL:
            return float("inf"), f"component {k} leads at {c['lead']}, reference {w['lead']}"
        if len(c["coeffs"]) < len(w["coeffs"]):
            return float("inf"), f"component {k} is shorter than the reference window"
        ref_vals = [complex(*v) for v in w["coeffs"]]
        scale = max(abs(v) for v in ref_vals) or 1.0
        dev = max(abs(complex(*v) - r) for v, r in zip(c["coeffs"], ref_vals)) / scale
        worst = max(worst, dev)
    if not worst <= REF_TOL:
        return worst, f"coefficients deviate by {worst:.2e} of the component scale"
    return worst, None


def error_layer(exc: BaseException) -> str:
    """The innermost layer module in the traceback of the exception's root
    cause (a stage error raised ``from`` the original points at the latter)."""
    root = exc
    while root.__cause__ is not None:
        root = root.__cause__
    layer = "harness"
    for frame in traceback.extract_tb(root.__traceback__):
        path = Path(frame.filename)
        if path.parent.name == "vvmf" and path.stem in LAYERS:
            layer = path.stem
    return layer


@dataclass
class Outcome:
    """What one job did."""

    route: str
    order: int
    input_id: str
    seconds: float
    started: float = 0.0
    digest: str = ""
    out_bytes: int = 0
    worst_key: str = "-"
    worst: float = 0.0
    error: str | None = None
    error_layer: str | None = None
    ref_dev: float = 0.0
    ref_problem: str | None = None
    gate_ok: bool = True
    dps: int = 0
    nominal: float | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or not self.gate_ok or self.ref_problem is not None

    @property
    def silently_wrong(self) -> bool:
        """Output the program declared good (no exception, residuals within
        tolerance) that the reference rejects."""
        return self.error is None and self.gate_ok and self.ref_problem is not None

    def status(self) -> str:
        if self.error is not None:
            return f"raised {self.error} in {self.error_layer}"
        if not self.gate_ok:
            return "gate"
        if self.ref_problem is not None:
            return "reference: " + self.ref_problem
        return "ok"

    def row(self) -> dict:
        return {"route": self.route, "order": self.order, "input": self.input_id,
                "dps": self.dps, "seconds": self.seconds, "nominal_s": self.nominal,
                "worst_key": self.worst_key, "worst": self.worst, "status": self.status()}
