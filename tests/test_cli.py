"""Batch front end: job validation, envelopes, serialization, exit codes."""

import cmath
import contextlib
import inspect
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vvmf
import vvmf.cli
from vvmf.classical import ClassicalCatalog
from vvmf.cli import STEPS, JobSpec, ResultEnvelope, emit, main, run
from vvmf.errors import UnknownSeries, ValidationError, VvmfError, WrongRank
from vvmf.reps import GRank2Rep, Rank2Rep, Rank4Rep


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


def tensor_job(order=15):
    pairs = [((1 / 6 + 0.21) / 2, (1 / 6 - 0.21) / 2), ((2 / 6 + 0.13) / 2, (2 / 6 - 0.13) / 2)]
    return {
        "command": "basis",
        "construction": "tensor",
        "reps": [rank2_json(*p) for p in pairs],
        "exponents": [exponents_json(p) for p in pairs],
        "order": order,
    }


def induction_job(order=12):
    zeta = cmath.exp(2j * cmath.pi / 3)
    return {
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
        "order": order,
    }


def library_errors(base=VvmfError):
    """Every subclass of ``base`` that the package defines."""
    for cls in base.__subclasses__():
        if cls.__module__.startswith("vvmf"):
            yield cls
        yield from library_errors(cls)


def sym3_job(order=15):
    r1, r2 = (1 / 6 + 0.21) / 2, (1 / 6 - 0.21) / 2
    return {
        "command": "basis",
        "construction": "sym3",
        "reps": [rank2_json(r1, r2)],
        "exponents": [exponents_json([r1, r2])],
        "order": order,
    }


def with_rep(job, **keys):
    return {**job, "rep": {**job["rep"], **keys}}


def unlisted(job):
    """``job`` with its one rep and exponents given unlisted, as ``rep`` and
    one exponents object, the spelling of a generic job."""
    reps, expos = job.pop("reps"), job.pop("exponents")
    return {**job, "rep": reps[0], "exponents": expos[0]}


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
        with pytest.raises(ValidationError, match="^precision: expected 'double' or 'extended'$"):
            JobSpec.from_json({"command": "classical", "name": "h", "precision": "quad"})

    @pytest.mark.parametrize("command", ["classify", "coeffs", "minimal", "basis", "check"])
    @pytest.mark.parametrize("precision", ["double", "extended"])
    def test_precision_is_a_classical_option(self, command, precision):
        # no other command reads a precision, so setting one is refused
        with pytest.raises(ValidationError, match="^precision: unexpected key$"):
            JobSpec.from_json({"command": command, "precision": precision})

    def test_parses_construction_lists(self):
        job = JobSpec.from_json(sym3_job())
        assert job.construction == "sym3"
        assert len(job.reps) == 1 and len(job.exponents) == 1


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

    def test_minimal_rank2_records_its_relation(self):
        r1, r2 = (1 / 6 + 0.21) / 2, (1 / 6 - 0.21) / 2
        env = run(JobSpec.from_json({"command": "minimal", "rep": rank2_json(r1, r2),
                                     "exponents": exponents_json([r1, r2]), "order": 15}))
        assert env.minimal["source"] == "hypergeometric"
        assert list(env.residuals) == ["rank2_mlde"]
        assert env.residuals["rank2_mlde"] < 1e-12
        assert "eta_component" not in env.minimal

    def test_minimal_nu_chi_emits_its_eta_coordinate(self):
        # x = y = e^{2 pi i/12}: k1 = 0, and the one coordinate with a
        # q-expansion is eta^{2 k1 + 2} = eta^2
        job = {"command": "minimal", "rep": rank2_json(1 / 12, 1 / 12),
               "exponents": exponents_json([1 / 12, 1 / 12]), "order": 12}
        out = json.loads(emit(run(JobSpec.from_json(job))))
        assert out["minimal"]["source"] == "nu-chi" and out["minimal"]["components"] is None
        want = ClassicalCatalog(12).eta_power(2).to_json()
        assert out["minimal"]["eta_component"] == want

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
        # Z leaves the double range of the output at order 128 in either
        # precision; below it the extended job runs in a scope of its own
        job = {"command": "classical", "name": "Z", "order": 150}
        for precision in ("double", "extended"):
            with pytest.raises(OverflowError, match=r"q2-order 300 \(order 150\)$"):
                run(JobSpec.from_json({**job, "precision": precision}))
        before = mpmath.mp.dps
        env = run(JobSpec.from_json({**job, "order": 127, "precision": "extended"}))
        assert len(env.series["coeffs"]) == 255
        assert mpmath.mp.dps == before

    def test_missing_rep(self):
        with pytest.raises(ValidationError):
            run(JobSpec.from_json({"command": "classify", "order": 5}))


#: trees of the JSON types an envelope holds, non-finite floats included
JSON_TREES = st.recursive(
    st.text() | st.integers() | st.floats(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children,
                                                                      max_size=4),
    max_leaves=40)


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

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_numbers_are_refused(self, bad):
        series = {"nome": "q", "lead_exponent": [0.0, 0.0], "coeffs": [[1.0, 0.0], [bad, 0.0]]}
        basis = [{"weight": [0, 1], "components": [{**series, "coeffs": [[0.0, bad]]}]}]
        for env, fmt in ((ResultEnvelope(job={}, series=series), "json"),
                         (ResultEnvelope(job={}, basis=basis), "json"),
                         (ResultEnvelope(job={}, basis=basis), "csv"),
                         (ResultEnvelope(job={}, residuals={"x": bad}), "json")):
            with pytest.raises(ValidationError, match="non-finite"):
                emit(env, fmt)

    @settings(max_examples=200, deadline=None)
    @given(JSON_TREES)
    @example({"pairs": [[1.0, 0.0]] * 3, "x": [[-0.0, 5e-324]]})
    @example({"a": [1, [2.5, {"b": [math.inf]}]]})
    @example([[math.nan]])
    def test_canonical_json_is_the_cycle_checked_encoding(self, tree):
        # skipping the encoder's cycle check changes no byte of a tree of
        # dicts, lists, strings and numbers, shared lists included, and a
        # non-finite number still raises
        data = {"tree": tree}
        try:
            want = json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)
        except ValueError:
            with pytest.raises(ValidationError, match="non-finite"):
                vvmf.cli.canonical_json(data)
        else:
            assert vvmf.cli.canonical_json(data) == want + "\n"


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

    def test_non_finite_output_exits_two(self, monkeypatch, capsys):
        series = {"nome": "q", "lead_exponent": [0.0, 0.0], "coeffs": [[float("-inf"), 0.0]]}
        monkeypatch.setattr(vvmf.cli, "run", lambda job: ResultEnvelope(job={}, series=series))
        assert main(["classical", "--name", "E4", "--order", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the output holds a non-finite number (Infinity or NaN)\n"

    def test_precision_flag_is_on_classical_only(self, tmp_path, capsys):
        assert main(["classical", "--name", "h", "--order", "3", "--precision", "extended"]) == 0
        with pytest.raises(SystemExit) as info:
            main(["basis", "--precision", "extended"])
        assert info.value.code == 2
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps({**sym3_job(10), "precision": "double"}))
        capsys.readouterr()
        assert main(["basis", "--spec", str(spec)]) == 2
        assert capsys.readouterr().err == "error: precision: unexpected key\n"

    def test_invalid_spec_exit_two(self, tmp_path):
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps({"command": "basis", "order": -3}))
        assert main(["basis", "--spec", str(spec)]) == 2

    def test_overflow_exit_two(self, capsys):
        # K's coefficients leave the double range near n = 130
        assert main(["classical", "--name", "K", "--order", "200"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: coefficient ") and "exceeds the double range" in err

    def test_resonant_basis_names_the_qline_solve(self, tmp_path, capsys):
        eigs = [0.11, 1.11, 0.31, 7 / 3 - 1.53]  # the first two differ by 1
        job = {"command": "basis", "rep": rank4_json(eigs, 1, 0),
               "exponents": exponents_json(eigs), "order": 10}
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(job))
        assert main(["basis", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [step (d) q-line solve] exponents ")
        assert "differ by the integer" in err

    @pytest.mark.parametrize("command", ["basis", "minimal"])
    def test_exponent_at_one_sixth_names_the_equation_stage(self, tmp_path, capsys, command):
        # lambda_1 = Tr(L)/4 makes the first shifted noncyclic exponent exactly
        # 1/6, so c = -prod(f_j - 1/6) vanishes; the job classifies, and the
        # system is refused before a seed divides by f - 1/6
        eigs = [0.25, 0.0625, 0.125, 0.5625]
        job = {"command": command, "rep": rank4_json(eigs, 0, 1),
               "exponents": exponents_json(eigs), "order": 10}
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(job))
        assert main(["classify", "--spec", str(spec)]) == 0
        capsys.readouterr()
        assert main([command, "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [step (c) equation coefficients] noncyclic system needs c != 0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("error", list(library_errors()), ids=lambda cls: cls.__name__)
    def test_every_error_has_a_stage_and_pickles(self, error):
        # the stage is the class's own, and a worker of --jobs N sends its
        # error to the parent by pickle
        if issubclass(error, ValidationError):
            assert error.stage is None
        else:
            assert error.stage in STEPS
        instance = error("x")
        copy = pickle.loads(pickle.dumps(instance))
        assert type(copy) is error and str(copy) == str(instance)
        assert copy.stage == error.stage

    def test_wrong_rank_names_the_rep_stage(self, tmp_path, capsys):
        r1, r2 = TestGlobalPrecision.RANK2_PAIR
        job = {"command": "minimal", "rep": rank2_json(r1, r2),
               "exponents": exponents_json([r1, r2, 0.3]), "order": 10}
        with pytest.raises(WrongRank):
            run(JobSpec.from_json(job))
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(job))
        assert main(["minimal", "--spec", str(spec)]) == 2
        assert capsys.readouterr().err == (
            "error: [step (a) determinant/parity extraction] need 2 exponent eigenvalues, got 3\n"
        )

    # rho(T^2) exponents, or three or five rho(T) exponents of a rank-4 rep
    # whose T-spectrum holds each of them: each is refused before the case
    # is classified, as the rank-2 and induction routes refuse theirs
    WRONG_EXPONENTS = {
        "group": (GENERIC_EIGS, GENERIC_EIGS, "G",
                  "rank-4 exponents are for the full group"),
        "three": ([0, 1 / 3, 0.45, 1.55], [0, 1 / 3, 1], "Gamma",
                  "need 4 exponent eigenvalues, got 3"),
        "five": ([0, 1 / 3, 0.45, 1.55], [0, 1 / 3, 0.45, 1.55, 1], "Gamma",
                 "need 4 exponent eigenvalues, got 5"),
    }

    @pytest.mark.parametrize("wrong", list(WRONG_EXPONENTS))
    @pytest.mark.parametrize("command", ["classify", "coeffs", "minimal", "basis"])
    def test_generic_exponents_need_rank_four_and_the_full_group(self, tmp_path, capsys,
                                                                  command, wrong):
        rep_eigs, eigs, group, message = self.WRONG_EXPONENTS[wrong]
        job = {"command": command, "rep": rank4_json(rep_eigs, 1, 0),
               "exponents": exponents_json(eigs, group), "order": 10}
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(job))
        assert main([command, "--spec", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [step (a) determinant/parity extraction] {message}\n"

    def test_rep_error_reads_the_same_wherever_raised(self, tmp_path, monkeypatch, capsys):
        bad = {"kind": "rank2", "x": [1, 0], "y": [0.6, 0.8]}  # xy is no sixth root of 1
        r1, r2 = TestGlobalPrecision.RANK2_PAIR
        job = {"command": "minimal", "rep": rank2_json(r1, r2),
               "exponents": exponents_json([r1, r2]), "order": 10}
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps({**job, "rep": bad}))
        assert main(["minimal", "--spec", str(spec)]) == 2
        parsed = capsys.readouterr().err
        spec.write_text(json.dumps(job))
        monkeypatch.setattr(vvmf.cli, "rank2_minimal", lambda *args: Rank2Rep(1, 0.6 + 0.8j))
        assert main(["minimal", "--spec", str(spec)]) == 2
        assert capsys.readouterr().err == parsed
        assert parsed.startswith("error: [step (a) determinant/parity extraction] xy = ")

    @pytest.mark.parametrize("job", [
        {**sym3_job(10), "reps": [rank4_json(GENERIC_EIGS, 1, 0)],
         "exponents": [exponents_json(GENERIC_EIGS)]},
        {**tensor_job(10), "reps": [rank4_json(GENERIC_EIGS, 1, 0)] * 2,
         "exponents": [exponents_json(GENERIC_EIGS)] * 2},
    ], ids=["sym3", "tensor"])
    def test_closed_construction_needs_rank2_reps(self, tmp_path, capsys, job):
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(job))
        assert main(["basis", "--spec", str(spec)]) == 2
        assert capsys.readouterr().err == "error: reps[0].kind: expected 'rank2'\n"

    @pytest.mark.parametrize("command, job, line", [
        ("minimal", {"rep": {"kind": "rank2", "x": [1, 0]},
                     "exponents": exponents_json([(1 / 6 + 0.21) / 2, (1 / 6 - 0.21) / 2])},
         "rep.y: missing"),
        ("basis", {"rep": {k: v for k, v in rank4_json(GENERIC_EIGS, 1, 0).items() if k != "d"},
                   "exponents": exponents_json(GENERIC_EIGS)},
         "rep.d: missing"),
        ("basis", {**induction_job(),
                   "reps": [{k: v for k, v in induction_job()["reps"][0].items() if k != "a"}]},
         "reps[0].a: missing"),
        ("classify", {**generic_job("classify"), "exponents": {"group": "Gamma"}},
         "exponents.eigenvalues: missing"),
    ], ids=["rank2", "rank4", "g-rank2", "exponents"])
    def test_missing_key_names_the_object_and_key(self, tmp_path, capsys, command, job, line):
        with pytest.raises(ValidationError):
            JobSpec.from_json(job, command)
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(job))
        assert main([command, "--spec", str(spec)]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"

    @pytest.mark.parametrize("command, job, line", [
        ("minimal", with_rep(generic_job("minimal"), x=[1]),
         "rep.x: expected a pair of numbers [re, im]"),
        ("classify", {**generic_job("classify"), "exponents": {"eigenvalues": 5}},
         "exponents.eigenvalues: expected a list"),
        ("basis", {**sym3_job(), "reps": 5}, "reps: expected a list of 1"),
        ("minimal", {**generic_job("minimal"), "rep": [1]}, "rep: expected an object"),
        ("classical", {"name": 4, "order": 5}, "name: expected a string"),
        ("classical", [1], "job: expected an object"),
        ("basis", {**sym3_job(), "u": [1]}, "u: unexpected key"),
        ("basis", unlisted(sym3_job()), "rep: unexpected key"),
        ("classical", {"name": "E4", "order": "20"}, "order: expected an integer >= 1"),
        ("classical", {"name": "E4", "order": 20.5}, "order: expected an integer >= 1"),
        ("classical", {"name": "E4", "order": True}, "order: expected an integer >= 1"),
        ("classify", with_rep(generic_job("classify"), d="1"), "rep.d: expected an integer"),
        ("minimal", with_rep(generic_job("minimal"), x=[float("nan"), 0]),
         "rep.x: expected finite numbers, got [NaN, 0]"),
        ("classify", {**generic_job("classify"), "exponents": {"eigenvalues": ["0.11"] * 4}},
         "exponents.eigenvalues[0]: expected a pair of numbers [re, im]"),
        ("classify", {**generic_job("classify"),
                      "exponents": {**exponents_json(GENERIC_EIGS), "group": "H"}},
         "exponents.group: expected 'Gamma' or 'G'"),
        ("classify", {**generic_job("classify"), "exponents": 5}, "exponents: expected an object"),
        # the spellings besides [re, im] that the parser used to take
        ("minimal", with_rep(generic_job("minimal"), x="(1+0j)"),
         "rep.x: expected a pair of numbers [re, im]"),
        ("minimal", with_rep(generic_job("minimal"), x=1),
         "rep.x: expected a pair of numbers [re, im]"),
        ("minimal", with_rep(generic_job("minimal"), x=[1, 0, 5]),
         "rep.x: expected a pair of numbers [re, im]"),
        ("minimal", with_rep(generic_job("minimal"), kind="rank3"),
         "rep.kind: expected 'rank2' or 'rank4'"),
        # exponent data is its eigenvalue list: a matrix is no key of it
        ("classify", {**generic_job("classify"), "exponents": {
            **exponents_json(GENERIC_EIGS), "matrix": [[[1, 0]], [[1, 0], [0, 0]]]}},
         "exponents.matrix: unexpected key"),
        ("basis", {**tensor_job(), "exponents": [
            exponents_json([0.1, 0.2]), {**exponents_json([0.1, 0.2]), "matrix": [[[0.1, 0]]]}]},
         "exponents[1].matrix: unexpected key"),
    ], ids=["x-one-number", "eigenvalues-number", "reps-number", "rep-list", "name-number",
            "spec-entry-number", "u-on-sym3", "rep-on-sym3", "order-string", "order-fraction", "order-true",
            "d-string", "x-nan", "eigenvalue-strings", "group-h", "exponents-number",
            "x-string", "x-bare-number", "x-three-numbers", "kind-rank3", "matrix-ragged",
            "matrix-one-row"])
    def test_bad_input_names_its_path(self, tmp_path, capsys, command, job, line):
        # one error line that names the offending path, exit 2, before any
        # pipeline code runs
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(job))
        assert main([command, "--spec", str(spec)]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_unreadable_spec_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["check", "--spec", str(missing)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n")
        spec = tmp_path / "job.json"
        spec.write_text("{not json")
        assert main(["check", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: Expecting property name") and err.count("\n") == 1

    @pytest.mark.parametrize("raw", ["nan", "-1", "0", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, monkeypatch, capsys, raw):
        # refused before any job runs
        monkeypatch.setenv("VVMF_TOL", raw)
        monkeypatch.setattr(vvmf.cli, "run", lambda job: pytest.fail("a job ran"))
        assert main(["classical", "--name", "E4", "--order", "3"]) == 2
        assert capsys.readouterr().err == (
            f"error: VVMF_TOL={raw!r}: expected a finite number > 0\n")

    @pytest.mark.parametrize("command", ["classify", "coeffs"])
    def test_case_jobs_check_exponents_against_the_rep(self, tmp_path, capsys, command):
        # e^{2 pi i 0.12} is no T-eigenvalue of the generic rep: the same
        # line as the basis job's
        bad = [0.12, 0.18, 0.31, 7 / 3 - 0.61]
        spec = tmp_path / "job.json"
        lines = []
        for cmd in (command, "basis"):
            spec.write_text(json.dumps({**generic_job(cmd), "exponents": exponents_json(bad)}))
            assert main([cmd, "--spec", str(spec)]) == 2
            lines.append(capsys.readouterr().err)
        assert lines[0] == lines[1]
        assert lines[0].startswith("error: [step (a) determinant/parity extraction] exp(2 pi i ")

    def test_failing_job_in_a_pool_exits_two(self, tmp_path, capsys):
        # the error of a pool worker reaches the parent, which exits as the
        # serial run does, instead of waiting for a result that never comes
        bad = sym3_job(10)
        bad["exponents"] = [exponents_json([0.1, 0.1])]
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps([sym3_job(10), bad]))
        assert main(["basis", "--spec", str(spec)]) == 2
        serial = capsys.readouterr().err.splitlines()[-1]
        assert serial.startswith("error: [step (b) weight-case classification] ")
        env = dict(os.environ, PYTHONPATH=str(Path(vvmf.__file__).parents[1]))
        pooled = subprocess.run(
            [sys.executable, "-m", "vvmf.cli", "basis", "--spec", str(spec), "--jobs", "2"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert pooled.returncode == 2
        assert pooled.stderr.splitlines()[-1] == serial

    @pytest.mark.parametrize("name", ["nope", "Eta^x"])
    def test_unknown_series_exit_two(self, capsys, name):
        assert main(["classical", "--name", name, "--order", "10"]) == 2
        assert capsys.readouterr().err == f"error: unknown classical series {name!r}\n"

    @pytest.mark.parametrize("name", ["f_gen", "g_gen", "h_haupt", "z_haupt", "etapow(12)",
                                      "Eta^1_2", "Eta^+12", "Eta^ 12", "eta^\u0661\u0662",
                                      "Eta^012", "Eta^-0"])
    def test_catalog_has_one_name_per_series(self, capsys, name):
        # the benchmark's names f, g, h, Z and Eta^m are the only spellings;
        # an eta power's exponent is written as str writes the int
        with pytest.raises(UnknownSeries):
            ClassicalCatalog(10).series(name)
        assert main(["classical", "--name", name, "--order", "10"]) == 2
        assert capsys.readouterr().err == f"error: unknown classical series {name!r}\n"

    def test_unknown_series_is_typed(self):
        error = UnknownSeries("nope")
        assert isinstance(error, ValidationError) and isinstance(error, KeyError)
        assert error.name == "nope" and str(error) == "unknown classical series 'nope'"
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is UnknownSeries and copy.name == "nope" and str(copy) == str(error)

    def test_job_list_fanout(self, tmp_path):
        jobs = [sym3_job(10), sym3_job(12)]
        jobs[0]["output_path"] = str(tmp_path / "a.json")
        jobs[1]["output_path"] = str(tmp_path / "b.json")
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps(jobs))
        assert main(["basis", "--spec", str(spec), "--jobs", "2"]) == 0
        assert (tmp_path / "a.json").exists() and (tmp_path / "b.json").exists()

    @pytest.mark.parametrize("workers, started", [(2, 2), (3, 3), (8, 3)])
    def test_pool_starts_no_more_workers_than_jobs(self, tmp_path, capsys, monkeypatch,
                                                   workers, started):
        # a fake pool records the count it is asked for and runs the jobs here
        counts = []

        class FakePool:
            def __init__(self, processes):
                counts.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, function, items):
                return [function(item) for item in items]

        monkeypatch.setattr("multiprocessing.Pool", FakePool)
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps([{"name": name, "order": 3} for name in ("E4", "E6", "j")]))
        assert main(["classical", "--spec", str(spec), "--jobs", str(workers)]) == 0
        assert counts == [started]
        assert capsys.readouterr().out.count('"name"') == 3

    @pytest.mark.parametrize("fmt, command, jobs", [
        ("json", "classical", [{"name": "E4", "order": 3}, {"name": "E6", "order": 4}]),
        ("csv", "basis", [sym3_job(3), sym3_job(4)]),
    ], ids=["json", "csv"])
    def test_out_holds_every_job_in_order(self, tmp_path, capsys, fmt, command, jobs):
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps(jobs))
        args = [command, "--spec", str(spec), "--format", fmt]
        assert main(args) == 0
        printed = capsys.readouterr().out
        out = tmp_path / f"out.{fmt}"
        assert main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()
        if fmt == "json":
            names = [json.loads(line)["job"]["name"] for line in printed.splitlines()]
            assert names == ["E4", "E6"]
        else:
            rows = printed.splitlines()
            assert rows.count("form_index,component,n,re,im") == 2
            assert len(rows) == 2 + 4 * 4 * (4 + 5)

    def test_classical_jobs_have_no_csv_form(self, tmp_path, capsys):
        # the CSV columns hold a basis; nothing is written when a job fails
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps([{"name": "E4", "order": 3}, {"name": "E6", "order": 3}]))
        out = tmp_path / "out.csv"
        args = ["classical", "--spec", str(spec), "--format", "csv", "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: csv output requires a basis result\n"
        assert not out.exists()

    def test_own_output_path_keeps_its_job(self, tmp_path, capsys):
        own = tmp_path / "own.json"
        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps([{"name": "E4", "order": 3, "output_path": str(own)},
                                    {"name": "E6", "order": 3}, {"name": "Delta", "order": 3}]))
        out = tmp_path / "out.json"
        assert main(["classical", "--spec", str(spec), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert [json.loads(line)["job"]["name"] for line in own.read_text().splitlines()] == ["E4"]
        names = [json.loads(line)["job"]["name"] for line in out.read_text().splitlines()]
        assert names == ["E6", "Delta"]

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


class TestGlobalPrecision:
    """Output is a function of the job alone: the caller's mpmath precision
    reaches no emitted byte, and no job leaves it changed."""

    NONCYCLIC_EIGS = [0.11, 0.18, 0.31, 8 / 3 - 0.6]
    RANK2_PAIR = ((1 / 6 + 0.21) / 2, (1 / 6 - 0.21) / 2)

    JOBS = {
        "classify": generic_job("classify"),
        "coeffs": generic_job("coeffs"),
        "minimal": generic_job("minimal"),
        "minimal-rank2": {"command": "minimal", "rep": rank2_json(*RANK2_PAIR),
                          "exponents": exponents_json(RANK2_PAIR), "order": 15},
        "basis-cyclic": generic_job("basis"),
        "basis-noncyclic": {"command": "basis", "rep": rank4_json(NONCYCLIC_EIGS, 5, 0),
                            "exponents": exponents_json(NONCYCLIC_EIGS), "order": 15},
        "basis-sym3": sym3_job(),
        "basis-tensor": tensor_job(),
        "basis-induction": induction_job(),
        "classical": {"command": "classical", "name": "Z", "order": 30},
        "classical-extended": {"command": "classical", "name": "Z", "order": 30,
                               "precision": "extended"},
        "check": {"command": "check", "order": 30},
    }

    @pytest.mark.parametrize("name", list(JOBS))
    def test_bytes_do_not_depend_on_the_global_precision(self, name):
        texts = []
        for dps in (15, 80):
            with mpmath.workdps(dps):
                texts.append(emit(run(JobSpec.from_json(dict(self.JOBS[name])))))
                assert mpmath.mp.dps == dps
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("name", ["h", "f", "g", "Z"])
    def test_library_catalog_gives_the_cli_bytes(self, name):
        job = {"command": "classical", "name": name, "order": 100, "precision": "extended"}
        want = emit({"series": run(JobSpec.from_json(job)).series})
        for dps in (15, 80):
            with mpmath.workdps(dps):
                series = ClassicalCatalog(100, "extended").series(name)
                assert mpmath.mp.dps == dps
            assert emit({"series": series.to_json()}) == want


class TestColdStart:
    """numpy loads at a job's first double or FFT product, so the exact jobs
    never load it.  Each job runs through ``vvmf.cli.main`` in a fresh
    interpreter, since this one has numpy loaded."""

    PROBE = "import sys, vvmf.cli; print(vvmf.cli.main(sys.argv[1:]), 'numpy' in sys.modules)"

    EXACT = {
        **{name: (["classical", "--name", name, "--order", "20"], None)
           for name in ("E4", "j", "K", "theta2_4", "f", "Eta^-24")},
        "h-extended": (["classical", "--name", "h", "--order", "20", "--precision", "extended"],
                       None),
        "classify": (["classify"], generic_job("classify")),
        "coeffs": (["coeffs"], generic_job("coeffs")),
    }
    NUMERIC = {
        "h": (["classical", "--name", "h", "--order", "20"], None),
        "check": (["check", "--order", "20"], None),
        "basis-sym3": (["basis"], sym3_job(8)),
    }

    def loads_numpy(self, tmp_path, argv, job) -> bool:
        if job is not None:
            spec = tmp_path / "job.json"
            spec.write_text(json.dumps(job))
            argv = [*argv, "--spec", str(spec)]
        env = dict(os.environ, PYTHONPATH=str(Path(vvmf.__file__).parents[1]))
        probe = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv, "--out", str(tmp_path / "out.json")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert probe.returncode == 0, probe.stderr
        code, loaded = probe.stdout.split()
        assert code == "0"
        return loaded == "True"

    @pytest.mark.parametrize("name", list(EXACT))
    def test_exact_job_never_loads_numpy(self, tmp_path, name):
        assert not self.loads_numpy(tmp_path, *self.EXACT[name])

    @pytest.mark.parametrize("name", list(NUMERIC))
    def test_numeric_job_loads_numpy(self, tmp_path, name):
        assert self.loads_numpy(tmp_path, *self.NUMERIC[name])


class TestInductionJobCli:
    def test_induction_basis(self):
        env = run(JobSpec.from_json(induction_job()))
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

    def test_exponents_need_two_eigenvalues(self, tmp_path, capsys):
        # the orbit of the induction pool with one exponent of the pair's
        # trace: L was read only through its trace, so this ran to a basis
        job = {**induction_job(10), "exponents": [{"eigenvalues": [[2 / 3, 0]], "group": "G"}]}
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(job))
        assert main(["basis", "--spec", str(spec)]) == 2
        assert capsys.readouterr().err == (
            "error: [step (a) determinant/parity extraction] need 2 exponent eigenvalues, got 1\n"
        )


class TestRepTable:
    """Every representation kind is built by keyword from REP_KEYS."""

    @pytest.mark.parametrize("kind", list(vvmf.cli.REP_KEYS))
    def test_keys_are_the_constructor_arguments(self, kind):
        rep_type, keys = vvmf.cli.REP_KEYS[kind]
        assert list(keys) == list(inspect.signature(rep_type).parameters)

    ZETA = cmath.exp(2j * cmath.pi / 3)
    R1, R2 = (1 / 6 + 0.21) / 2, (1 / 6 - 0.21) / 2
    BUILT = {
        "rank2": ({"command": "minimal", "rep": rank2_json(R1, R2),
                   "exponents": exponents_json([R1, R2])},
                  Rank2Rep(cmath.exp(2j * cmath.pi * R1), cmath.exp(2j * cmath.pi * R2))),
        "rank4": (generic_job("classify"),
                  Rank4Rep(*(cmath.exp(2j * cmath.pi * v) for v in GENERIC_EIGS), d=1, e=0)),
        "g-rank2": (induction_job(), GRank2Rep(0, 1, ZETA, ZETA**2, 0.7 + 0.2j)),
    }

    def test_every_kind_is_built(self):
        assert sorted(self.BUILT) == sorted(vvmf.cli.REP_KEYS)

    @pytest.mark.parametrize("kind", list(BUILT))
    def test_builds_what_the_constructor_builds(self, kind):
        job, want = self.BUILT[kind]
        (rep,) = JobSpec.from_json(job).reps
        assert type(rep) is type(want) and rep == want


#: the job builders of this file, at orders <= 15
BUILDERS = {
    "classify": lambda: generic_job("classify", 8),
    "coeffs": lambda: generic_job("coeffs", 8),
    "minimal": lambda: generic_job("minimal", 8),
    "basis": lambda: generic_job("basis", 8),
    "sym3": lambda: sym3_job(8),
    "tensor": lambda: tensor_job(8),
    "induction": lambda: induction_job(6),
    "classical": lambda: {"command": "classical", "name": "E4", "order": 8},
    "check": lambda: {"command": "check", "order": 8},
}


def json_type(value):
    """The JSON type of a parsed value; an int and a float are both numbers."""
    return float if type(value) is int else type(value)


def value_paths(value, path=()):
    """The path of every value inside ``value``, as tuples of keys and indices."""
    if path:
        yield path
    items = value.items() if isinstance(value, dict) else enumerate(
        value if isinstance(value, list) else ())
    for step, item in items:
        yield from value_paths(item, path + (step,))


def spell(path) -> str:
    """A path the way the job table's errors spell it: ``reps[0].x``."""
    out = ""
    for step in path:
        out += f"[{step}]" if isinstance(step, int) else (f".{step}" if out else step)
    return out


@st.composite
def mutated_jobs(draw):
    """(builder, job, mutated path, whether the job table must refuse it)."""
    builder = draw(st.sampled_from(sorted(BUILDERS)))
    job = BUILDERS[builder]()
    if draw(st.integers(0, 3)) == 0:  # a bad order, in a quarter of the cases
        order = draw(st.sampled_from([0, -3, 20.5, "20", True]))
        return builder, {**job, "order": order}, ("order",), True
    path = draw(st.sampled_from(list(value_paths(job))))
    parent = job
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    value = parent[key]
    kinds = ["swap"]
    if isinstance(parent, dict):
        kinds.append("drop")
    if isinstance(value, list):
        kinds.append("resize")
    if type(value) in (int, float):
        kinds.append("non-finite")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
        # an optional key; main sets the command from its arguments
        return builder, job, path, key not in ("order", "group", "command")
    if kind == "swap":
        others = [v for v in (None, True, 7, "s", [], {}) if json_type(v) is not json_type(value)]
        parent[key] = draw(st.sampled_from(others))
        return builder, job, path, path != ("command",)
    if kind == "resize":
        parent[key] = value[:-1] if draw(st.booleans()) else value + (value[-1:] or [0])
        return builder, job, path, key != "eigenvalues"  # any number of eigenvalues parses
    parent[key] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    return builder, job, path, True


class TestMutatedJobs:
    @settings(max_examples=150, deadline=None)
    @given(mutated_jobs())
    def test_main_refuses_or_runs_without_a_traceback(self, case):
        # main never raises; a mutation the job table refuses exits 2 with
        # one error line that names the mutated path (or the pair holding it)
        builder, job, path, refused = case
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "job.json"
            spec.write_text(json.dumps(job))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = main([BUILDERS[builder]()["command"], "--spec", str(spec)])
        lines = err.getvalue().splitlines()
        if status == 2:
            assert len(lines) == 1 and lines[0].startswith("error: ")
        if refused:
            assert status == 2, (job, lines)
            where, mutated = lines[0].split(": ")[1], spell(path)
            # without its construction, a construction job is a generic basis job
            if path != ("construction",):
                assert mutated == where or mutated.startswith((where + ".", where + "["))
