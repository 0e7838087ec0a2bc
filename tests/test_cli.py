"""Batch front end: job validation, envelopes, serialization, exit codes."""

import cmath
import json
import re

import mpmath
import pytest

from vvmf.cli import JobSpec, emit, main, run
from vvmf.errors import ValidationError


def rank2_json(r1, r2):
    x = cmath.exp(2j * cmath.pi * r1)
    y = cmath.exp(2j * cmath.pi * r2)
    return {"kind": "rank2", "x": [x.real, x.imag], "y": [y.real, y.imag]}


def rank4_json(eigs, d, e):
    evs = [cmath.exp(2j * cmath.pi * v) for v in eigs]
    return {
        "kind": "rank4",
        "x": [evs[0].real, evs[0].imag],
        "y": [evs[1].real, evs[1].imag],
        "z": [evs[2].real, evs[2].imag],
        "w": [evs[3].real, evs[3].imag],
        "d": d,
        "e": e,
    }


def exponents_json(eigs, group="Gamma"):
    return {"eigenvalues": [[complex(v).real, complex(v).imag] for v in eigs],
            "group": group}


GENERIC_EIGS = [0.11, 0.18, 0.31, 7 / 3 - 0.6]


def generic_job(command, order=15):
    return {
        "command": command,
        "rep": rank4_json(GENERIC_EIGS, 1, 0),
        "exponents": exponents_json(GENERIC_EIGS),
        "order": order,
    }


def sym3_job(order=15):
    r1, r2 = (1 / 6 + 0.21) / 2, (1 / 6 - 0.21) / 2
    return {
        "command": "basis",
        "construction": "sym3",
        "reps": [rank2_json(r1, r2)],
        "exponents": [exponents_json([r1, r2])],
        "order": order,
    }


class TestJobSpec:
    def test_unknown_command(self):
        with pytest.raises(ValidationError):
            JobSpec.from_json({"command": "frobnicate"})

    def test_bad_order(self):
        with pytest.raises(ValidationError):
            JobSpec.from_json({"command": "check", "order": 0})

    def test_bad_precision(self):
        with pytest.raises(ValidationError):
            JobSpec.from_json({"command": "check", "precision": "quad"})

    def test_parses_construction_lists(self):
        job = JobSpec.from_json(sym3_job())
        assert job.construction == "sym3"
        assert len(job.reps) == 1 and len(job.exponents_list) == 1


class TestRun:
    def test_classify(self):
        env = run(JobSpec.from_json(generic_job("classify")))
        assert env.case["case"] == "cyclic"
        assert env.case["k1"] == 4
        assert env.case["weights"] == [4, 6, 8, 10]

    def test_coeffs(self):
        env = run(JobSpec.from_json(generic_job("coeffs")))
        assert env.coefficients["case"] == "cyclic"
        assert len(env.coefficients["f"]) == 4

    def test_minimal_generic(self):
        env = run(JobSpec.from_json(generic_job("minimal")))
        assert env.minimal["k1"] == 4
        assert len(env.minimal["components"]) == 4
        assert env.worst_residual() < 1e-9

    def test_basis_generic(self):
        env = run(JobSpec.from_json(generic_job("basis")))
        assert len(env.basis) == 4
        assert env.worst_residual() < 1e-9

    def test_basis_sym3(self):
        env = run(JobSpec.from_json(sym3_job()))
        assert env.case["case"] == "cyclic"
        assert [f["weight"] for f in env.basis] == [[0, 1], [2, 1], [4, 1], [6, 1]]
        assert env.worst_residual() < 1e-9

    def test_classical(self):
        env = run(JobSpec.from_json(
            {"command": "classical", "name": "Delta", "order": 6}
        ))
        assert env.series["lead_exponent"] == [1.0, 0.0]
        assert env.series["coeffs"][0] == [1.0, 0.0]
        assert env.series["coeffs"][1] == [-24.0, 0.0]

    def test_check(self):
        env = run(JobSpec.from_json({"command": "check", "order": 60}))
        assert env.worst_residual() < 1e-10

    def test_extended_precision_is_scoped_to_the_job(self):
        job = {"command": "classical", "name": "Z", "order": 150}
        with pytest.raises(OverflowError):
            run(JobSpec.from_json(job))
        before = mpmath.mp.dps
        env = run(JobSpec.from_json({**job, "precision": "extended"}))
        assert len(env.series["coeffs"]) == 301
        assert mpmath.mp.dps == before

    def test_missing_rep(self):
        with pytest.raises(ValidationError):
            run(JobSpec.from_json({"command": "classify", "order": 5}))


class TestEmit:
    def test_json_deterministic(self):
        env1 = run(JobSpec.from_json(sym3_job()))
        env2 = run(JobSpec.from_json(sym3_job()))
        assert emit(env1) == emit(env2)

    def test_json_round_trip_bytes(self, tmp_path):
        env = run(JobSpec.from_json(sym3_job()))
        path = tmp_path / "out.json"
        text = emit(env, "json", str(path))
        loaded = json.loads(path.read_text())
        assert emit(loaded) == text

    def test_csv_row_count(self):
        order = 15
        env = run(JobSpec.from_json(sym3_job(order)))
        text = emit(env, "csv")
        rows = text.strip().splitlines()
        assert rows[0] == "form_index,component,n,re,im"
        assert len(rows) - 1 == 4 * 4 * (order + 1)

    def test_csv_needs_basis(self):
        env = run(JobSpec.from_json({"command": "check", "order": 50}))
        with pytest.raises(ValidationError):
            emit(env, "csv")


class TestMain:
    def test_check_exit_zero(self, capsys):
        assert main(["check", "--order", "60"]) == 0

    def test_basis_with_spec_file(self, tmp_path):
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(sym3_job()))
        out = tmp_path / "out.json"
        assert main(["basis", "--spec", str(spec), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["case"]["case"] == "cyclic"

    def test_tolerance_env_controls_exit(self, tmp_path, monkeypatch):
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(sym3_job()))
        monkeypatch.setenv("VVMF_TOL", "1e-30")
        assert main(["basis", "--spec", str(spec), "--out", str(tmp_path / "o.json")]) == 1

    def test_invalid_spec_exit_two(self, tmp_path):
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps({"command": "basis", "order": -3}))
        assert main(["basis", "--spec", str(spec)]) == 2

    def test_overflow_exit_two(self, capsys):
        # K's coefficients leave the double range near n = 130
        assert main(["classical", "--name", "K", "--order", "200"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: coefficient ") and "exceeds the double range" in err

    def test_job_list_fanout(self, tmp_path):
        jobs = [sym3_job(10), sym3_job(12)]
        jobs[0]["output_path"] = str(tmp_path / "a.json")
        jobs[1]["output_path"] = str(tmp_path / "b.json")
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps(jobs))
        assert main(["basis", "--spec", str(spec), "--jobs", "2"]) == 0
        assert (tmp_path / "a.json").exists() and (tmp_path / "b.json").exists()

    def test_timing_goes_to_stderr_only(self, tmp_path, capsys):
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps([sym3_job(10), sym3_job(12)]))
        runs = []
        for _ in range(2):
            assert main(["basis", "--spec", str(spec)]) == 0
            runs.append(capsys.readouterr())
        assert runs[0].out.encode() == runs[1].out.encode()
        for captured in runs:
            timings = re.findall(r"^job (\d+): (\d+\.\d{3}) s$", captured.err, re.M)
            assert [int(i) for i, _ in timings] == [0, 1]
            assert all(float(s) > 0 for _, s in timings)


class TestInductionJobCli:
    def test_induction_basis(self):
        zeta = cmath.exp(2j * cmath.pi / 3)
        job = {
            "command": "basis",
            "construction": "induction",
            "reps": [{
                "kind": "g-rank2", "e": 0, "zeta1": [1, 0],
                "zeta2": [zeta.real, zeta.imag],
                "zeta3": [(zeta**2).real, (zeta**2).imag],
                "a": [0.7, 0.2],
            }],
            "exponents": [{"eigenvalues": [[1 / 3 + 0.11, 0], [1 / 3 - 0.11, 0]],
                            "group": "G"}],
            "u": [-0.00455, -0.00263],
            "order": 12,
        }
        env = run(JobSpec.from_json(job))
        assert len(env.basis) == 8  # both twists, four forms each
        assert env.worst_residual() < 1e-9

    def test_induction_missing_u(self):
        job = {
            "command": "basis",
            "construction": "induction",
            "reps": [{"kind": "g-rank2", "e": 0, "zeta1": [1, 0],
                      "zeta2": [-0.5, 0.8660254037844387],
                      "zeta3": [-0.5, -0.8660254037844387], "a": [0.7, 0.2]}],
            "exponents": [{"eigenvalues": [[0.2, 0], [0.3, 0]], "group": "G"}],
            "order": 10,
        }
        with pytest.raises(ValidationError):
            run(JobSpec.from_json(job))
