"""Every job of a representation runs through one staged driver
(:func:`vvmf.mlde.staged`) in the order of :data:`vvmf.errors.STEPS`, so an
error names the stage that was running when it was raised.  The running stage is read from the
traceback, with no hook in the program: the driver's frame and the stage
function it was calling, (d)-(f) counting as one stage, the route's solve."""

import traceback

import pytest

import vvmf.mlde
from vvmf.cli import JobSpec, run
from vvmf.errors import ExponentSumMismatch, TraceDCongruenceViolation, VvmfError

import test_cli
from test_cli import exponents_json, generic_job, rank2_json, rank4_json, sym3_job

SOLVE = "d-f"


def running_stage(exc: BaseException) -> str:
    """The stage the driver was running when ``exc`` was raised: (a) the
    route's input checks, (b) classify or the case check, the one raise of
    the driver's own frame, (c) the equation coefficients, or the route's
    solve."""
    frames = [frame for frame, _ in traceback.walk_tb(exc.__traceback__)]
    at = next(i for i, frame in enumerate(frames) if frame.f_code is vvmf.mlde.staged.__code__)
    if at + 1 == len(frames):
        return "b"
    route, callee = frames[at].f_locals["route"], frames[at + 1].f_code
    stages = {route.check: "a", vvmf.mlde.classify: "b", vvmf.mlde.equation_coefficients: "c",
              getattr(route.solve, "func", route.solve): SOLVE}  # a partial calls its func
    return next(stage for fn, stage in stages.items() if fn.__code__ is callee)


def class_stage(exc: VvmfError) -> str:
    return SOLVE if exc.stage in "def" else exc.stage


def raised(job: dict) -> VvmfError:
    with pytest.raises(VvmfError) as info:
        run(JobSpec.from_json(job))
    return info.value


def driver_errors():
    """The error inputs of ``tests/test_cli.py`` that reach the driver; an
    induction job whose InductionJob refuses it stops before it."""
    # test_resonant_basis_names_the_qline_solve
    eigs = [0.11, 1.11, 0.31, 7 / 3 - 1.53]
    yield pytest.param({"command": "basis", "rep": rank4_json(eigs, 1, 0),
                        "exponents": exponents_json(eigs), "order": 10}, id="resonant-basis")
    # test_exponent_at_one_sixth_names_the_qline_solve
    eigs = [0.25, 0.0625, 0.125, 0.5625]
    for command in ("basis", "minimal"):
        yield pytest.param(
            {"command": command, "rep": rank4_json(eigs, 0, 1), "exponents": exponents_json(eigs),
             "order": 10}, id=f"one-sixth-{command}")
    # test_generic_exponents_need_rank_four_and_the_full_group
    for wrong, (rep_eigs, eigs, group, _) in test_cli.TestMain.WRONG_EXPONENTS.items():
        for command in ("classify", "coeffs", "minimal", "basis"):
            yield pytest.param({"command": command, "rep": rank4_json(rep_eigs, 1, 0),
                                "exponents": exponents_json(eigs, group), "order": 10},
                               id=f"{wrong}-{command}")
    # test_case_jobs_check_exponents_against_the_rep
    for command in ("classify", "coeffs", "basis"):
        yield pytest.param({**generic_job(command),
                            "exponents": exponents_json([0.12, 0.18, 0.31, 7 / 3 - 0.61])},
                           id=f"off-spectrum-{command}")
    # test_rank2_errors_name_their_stage
    for wrong, (rep_pair, eigs, group, stage, _) in test_cli.TestMain.RANK2_ERRORS.items():
        for command in ("classify", "coeffs", "minimal", "basis"):
            if stage == "a" or command in ("minimal", "basis"):
                yield pytest.param(
                    {"command": command, "rep": rank2_json(*rep_pair),
                     "exponents": exponents_json(eigs, group), "order": 10},
                    id=f"rank2-{wrong}-{command}")
    # test_failing_job_in_a_pool_exits_two
    yield pytest.param(
        {**sym3_job(10), "exponents": [exponents_json([0.1, 0.1])]}, id="sym3-trace")


@pytest.mark.parametrize("job", driver_errors())
def test_error_is_raised_in_the_stage_its_class_names(job):
    exc = raised(job)
    assert running_stage(exc) == class_stage(exc), type(exc).__name__


@pytest.mark.parametrize("name, error, stage", [
    ("classify", ExponentSumMismatch, "b"),
    ("equation_coefficients", TraceDCongruenceViolation, "c"),
])
def test_running_stage_is_read_from_the_call(monkeypatch, name, error, stage):
    # the stage read is the function that raised, not the error's class
    def refuse(*args):
        raise error("refused")

    monkeypatch.setattr(vvmf.mlde, name, refuse)
    exc = raised(generic_job("basis"))
    assert type(exc) is error and running_stage(exc) == stage
