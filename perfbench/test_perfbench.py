"""Self-tests of the benchmark: tracer counts, byte identity, the reference
check and failure recording.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = run.import_program()
POOLS = inputs.pool_payloads()
REFERENCE = check.load_reference()
TOL = cli.tolerance()


def probe(route: str, index: int, order: int) -> inputs.Job:
    return inputs.make_job(route, index, order, POOLS)


def emitted(job: inputs.Job) -> dict:
    return json.loads(cli.emit(cli.run(cli.JobSpec.from_json(dict(job.payload)))))


def traced(job: inputs.Job) -> tuple[Tracer, check.Outcome]:
    tracer = Tracer()
    with tracer:
        out = run.run_job(cli, job, TOL, REFERENCE, tracer)
    return tracer, out


def test_tensor_composes_each_input_twice():
    tracer, out = traced(probe("tensor", 0, 20))
    assert out.status() == "ok"
    assert tracer.compose_calls["tensor"] == 8
    assert len(tracer.compose_keys["tensor"]) == 4
    assert tracer.metrics()["series.compose.tensor.repeat_ratio"] == 2.0
    assert tracer.metrics()["constructions.rank2_minimal.calls"] == 2


def test_noncyclic_solves_each_exponent_twice():
    tracer, out = traced(probe("noncyclic", 0, 20))
    assert out.status() == "ok"
    assert tracer.stat("mlde.frobenius").calls == 8
    assert len(tracer.solve_keys["noncyclic"]) == 4
    assert tracer.metrics()["mlde.noncyclic.solves_per_exponent"] == 2.0


def test_every_binding_site_is_patched_and_restored():
    import vvmf.constructions
    import vvmf.mlde
    import vvmf.series

    originals = {mod: mod.compose_frobenius
                 for mod in (vvmf.series, vvmf.mlde, vvmf.constructions)}
    md = (vvmf.mlde.modular_derivative, vvmf.constructions.modular_derivative,
          cli.modular_derivative)
    with Tracer():
        for mod, fn in originals.items():
            assert mod.compose_frobenius is not fn
            assert mod.compose_frobenius.__wrapped__ is fn
        assert cli.generic_basis.__wrapped__ is vvmf.mlde.generic_basis.__wrapped__
        assert {m.__wrapped__ for m in (vvmf.mlde.modular_derivative,
                                        vvmf.constructions.modular_derivative,
                                        cli.modular_derivative)} == {md[0]}
    for mod, fn in originals.items():
        assert mod.compose_frobenius is fn
    assert (vvmf.mlde.modular_derivative, vvmf.constructions.modular_derivative,
            cli.modular_derivative) == md


@pytest.mark.parametrize("route,index,order", [("sym3", 0, 12), ("noncyclic", 1, 12),
                                               ("induction", 0, 16), ("classical", 10, 30)])
def test_traced_and_untraced_emit_identical_bytes(route, index, order):
    job = probe(route, index, order)
    plain = run.run_job(cli, job, TOL, REFERENCE)
    _, traced_out = traced(job)
    assert plain.digest and plain.digest == traced_out.digest


def test_reference_accepts_the_seed_output():
    job = probe("sym3", 0, 40)
    dev, problem = check.compare(emitted(job), REFERENCE[job.input_id])
    assert problem is None and dev <= check.REF_TOL


def test_reference_rejects_a_rescaled_basis():
    job = probe("cyclic", 0, 20)
    data = emitted(job)
    scaled = copy.deepcopy(data)
    for form in scaled["basis"]:
        for comp in form["components"]:
            comp["coeffs"] = [[re * (1 + 1e-8), im * (1 + 1e-8)] for re, im in comp["coeffs"]]
    # the residual gates cannot see a rescaling: the equations are linear
    assert max(data["residuals"].values()) < TOL
    dev, problem = check.compare(scaled, REFERENCE[job.input_id])
    assert problem is not None and dev > check.REF_TOL


def test_reference_rejects_a_dropped_form():
    job = probe("tensor", 0, 20)
    data = emitted(job)
    data["basis"].pop(2)
    _, problem = check.compare(data, REFERENCE[job.input_id])
    assert problem is not None


def test_uncaught_exceptions_are_recorded_with_class_and_layer():
    k_job = probe("classical", inputs.CLASSICAL_NAMES.index("K"), 200)
    z_job = probe("classical", inputs.CLASSICAL_NAMES.index("Z"), 200)
    for job, layer in ((k_job, "series"), (z_job, "classical")):
        out = run.run_job(cli, job, TOL, REFERENCE)
        assert (out.error, out.error_layer, out.failed) == ("OverflowError", layer, True)
        tracer, _ = traced(job)
        assert tracer.errors == {layer: 1}


def test_gate_failure_is_a_failure_but_not_silent():
    out = check.Outcome("tensor", 80, "tensor:0", 1.0, gate_ok=False)
    assert out.failed and not out.silently_wrong
    out = check.Outcome("tensor", 80, "tensor:0", 1.0, ref_problem="scaled")
    assert out.failed and out.silently_wrong


def test_generator_is_seeded_and_checks_preconditions():
    assert inputs.workload_jobs("recursive", 3) == inputs.workload_jobs("recursive", 3)
    with pytest.raises(inputs.PreconditionError):
        inputs.check_sym3((1 / 12 + 1 / 6, 1 / 12 - 1 / 6))  # Sym^3 gap 1
    with pytest.raises(inputs.PreconditionError):
        inputs.check_generic((0.1, 0.2, 1.1, 8 / 3 - 1.4), 8, 5, 0)  # gap 1
    with pytest.raises(inputs.PreconditionError):
        inputs.check_induction(0.5)  # 2r = 1 is resonant
