"""Construction pipelines: rank-2 minimal forms, tensor, symmetric cube,
induction from the index-two subgroup."""

import cmath
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vvmf.mlde
from vvmf.classical import ClassicalCatalog
from vvmf.constructions import (
    HYPERGEOMETRIC,
    NU_CHI,
    InductionJob,
    induce_to_gamma,
    induction_minimal_pair,
    induction_pipeline,
    induction_system,
    local_exponent_from_u,
    rank2_minimal,
    sym3_pipeline,
    tensor_pipeline,
)
from vvmf.errors import (
    DegenerateC,
    GroupMismatch,
    NormalizationError,
    NotIrreducible,
    Resonance,
    TraceDCongruenceViolation,
    WrongNome,
    WrongRank,
)
from vvmf.mlde import (
    CYCLIC,
    NONCYCLIC_KEYS,
    CaseReport,
    _solved_rows,
    cyclic_coeffs,
    cyclic_seed,
    cyclic_system,
    modular_derivative,
    noncyclic_coeffs,
    qline_precision,
    system_residuals,
)
from vvmf.reps import ExponentData, GRank2Rep, Group, Rank2Rep, tensor_exponents
from vvmf.series import FormStack, Nome, PuiseuxSeries, max_modulus, relative_residual

from oracles import (
    _rank2_shifts,
    build_fuchsian_z,
    rank2_coeff,
    rank2_kline_pair,
    u_from_local_exponent,
)
from test_acceptance import FREENESS_TOL, freeness_deviation, sym3_grid, tensor_grid

ZETA = cmath.exp(2j * cmath.pi / 3)


def rank2_data(r1, r2):
    rep = Rank2Rep(
        cmath.exp(2j * cmath.pi * r1), cmath.exp(2j * cmath.pi * r2)
    )
    return rep, ExponentData([r1, r2])


class TestRank2Minimal:
    def test_kline_exponent_formula(self):
        # r1 - r2 = 1/3 gives first K-exponent (6/3 + 1)/12 = 1/4
        _, L = rank2_data(1 / 4, -1 / 12)
        pair = rank2_kline_pair(L, 10)
        assert abs(complex(pair[0].lead_exponent) - 0.25) < 1e-12
        assert abs(complex(pair[1].lead_exponent) - (-2 / 12 + 1 / 12)) < 1e-12

    def test_minimal_weight_and_leads(self, catalog40):
        rep, L = rank2_data(0.3, 1 / 6 - 0.3)
        form = rank2_minimal(rep, L, 25, catalog40)
        assert form.k1 == 0  # 6 Tr - 1 = 0
        assert form.source == HYPERGEOMETRIC
        leads = [complex(c.lead_exponent) for c in form.components.components]
        assert leads == pytest.approx([0.3, 1 / 6 - 0.3])

    def test_satisfies_order_two_equation(self, catalog40):
        rep, L = rank2_data((3 / 6 + 0.17) / 2, (3 / 6 - 0.17) / 2)
        form = rank2_minimal(rep, L, 25, catalog40)
        a = rank2_coeff(0.17 / 2 + Fraction(1, 12), -0.17 / 2 + Fraction(1, 12))
        d1 = modular_derivative(FormStack.of([form.components]), catalog40)
        (d2,) = modular_derivative(d1, catalog40).vectors()
        terms = [(f * catalog40.eisenstein(4)).scale(a) for f in form.components.components]
        top = max((c + t).max_abs() for c, t in zip(d2.components, terms))
        scale = max(1.0, *(c.max_abs() for c in d2.components + tuple(terms)))
        assert top / scale < 1e-11
        assert max_modulus(d1.z) > 0  # DF never vanishes for irreducible input
        # the route's own check: both columns of the solved system (F, DF)
        assert form.residuals["rank2_mlde"] < 1e-11

    def test_recorded_relation_sees_the_coefficient(self, monkeypatch, catalog40):
        # rank2_mlde checks D(DF) = -a E_4 F, not only DF: checked against
        # the solved system with its a off by 1e-6, the forms fail
        check = vvmf.mlde.system_residuals

        def off(forms, derivatives, system, catalog):
            (unit, one), (entry, e4) = system
            return check(forms, derivatives,
                         [(unit, one), ({(0, 1): entry[0, 1] * (1 + 1e-6)}, e4)], catalog)

        monkeypatch.setattr(vvmf.mlde, "system_residuals", off)
        rep, L = rank2_data((3 / 6 + 0.17) / 2, (3 / 6 - 0.17) / 2)
        assert rank2_minimal(rep, L, 25, catalog40).residuals["rank2_mlde"] > 1e-9

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-4, 4), st.floats(-4, 4), st.booleans())
    def test_rank_two_is_the_cyclic_system_and_seed_of_rank_two(self, catalog40, re, im,
                                                                 real):
        # the rank-2 route once had a system and a seed formula of its own,
        # written out below; the shared builder and seed rule must give the
        # same blocks and bitwise the same seeds, real and complex f alike
        with qline_precision():
            f = mpmath.mpf(re) if real else mpmath.mpc(re, im)
            a = f * (mpmath.mpf(1) / 6 - f)
            system = cyclic_system(cyclic_coeffs((f, mpmath.mpf(1) / 6 - f)), catalog40, Nome.Q)
            assert [repr(S) for S, _ in system] == [repr({(1, 0): 1}), repr({(0, 1): -a})]
            assert [e for _, e in system] == [PuiseuxSeries.one(Nome.Q, catalog40.order),
                                              catalog40.eisenstein(4)]
            assert repr(cyclic_seed(f, 2)) == repr([mpmath.mpf(1728) ** f * x for x in (1, f)])

    def test_declares_the_job_exponents_bit_for_bit(self, catalog40):
        # the rank-2 form of every Sym^3 member and tensor factor solves at
        # the job's own exponents, not at f_j + k1/12 rebuilt from them a
        # few ulps away (once 0.021666666666666678 for 0.021666666666666667)
        pairs = sym3_grid() + [p for pair in tensor_grid() for p in pair]
        for r1, r2 in pairs:
            rep, L = rank2_data(r1, r2)
            form = rank2_minimal(rep, L, 20, catalog40)
            assert ([repr(complex(c.lead_exponent)) for c in form.components.components]
                    == [repr(complex(e)) for e in L.eigenvalues]), (r1, r2)

    def test_integer_gap_is_resonant_in_the_solve(self, catalog40):
        # the rank-2 stage has no gap rule of its own: qline_solve's
        # require_nonresonant rejects the gap, at step (d)
        L = ExponentData([Fraction(13, 12), Fraction(1, 12)])
        with pytest.raises(Resonance, match="differ by the integer 1") as info:
            _solved_rows((6, 8), L.eigenvalues, CYCLIC, 10, catalog40)
        assert info.value.stage == "d"

    def test_reducible_rejected(self, catalog40):
        rep, L = rank2_data(1 / 4, 1 / 12)  # gap 1/6: x^2 - xy + y^2 = 0
        with pytest.raises(NotIrreducible):
            rank2_minimal(rep, L, 10, catalog40)

    def test_resonant_gap_rejected(self, catalog40):
        rep, _ = rank2_data(0.3, 1 / 6 - 0.3)
        L = ExponentData([0.3 + 1, 0.3])
        with pytest.raises(Resonance):
            rank2_kline_pair(L, 10)

    def test_jordan_family(self, catalog40):
        rep = Rank2Rep(1, 1)
        L = ExponentData([0.0, 0.0])
        form = rank2_minimal(rep, L, 10, catalog40)
        assert form.source == NU_CHI
        assert form.components is None and form.residuals == {}
        assert form.k1 == -1
        # second coordinate is eta^{2k1+2} = eta^0 = 1 here
        assert form.eta_component.coeffs[0] == 1


class TestSym3Pipeline:
    def grid_case(self, s, delta):
        return rank2_data((s / 6 + delta) / 2, (s / 6 - delta) / 2)

    def test_case_and_weights(self, catalog40):
        rep, L = self.grid_case(1, 0.21)
        basis = sym3_pipeline(rep, L, 25, catalog40)
        assert basis.case.case == "cyclic"
        assert basis.case.k1 == 18 * Fraction(1, 6) - 3  # 18 Tr(L) - 3
        assert basis.weights == (0, 2, 4, 6)
        assert basis.residuals["cyclic_mlde"] < 1e-9
        assert freeness_deviation(basis.forms) < FREENESS_TOL

    def test_first_component_is_cube(self, catalog40):
        rep, L = self.grid_case(1, 0.21)
        A = rank2_minimal(rep, L, 25, catalog40)
        basis = sym3_pipeline(rep, L, 25, catalog40)
        cube = A.components.components[0] ** 3
        diff = basis.forms[0].components[0] - cube
        assert relative_residual(diff, cube) < 1e-12

    def test_jordan_rejected(self, catalog40):
        rep = Rank2Rep(1, 1)
        L = ExponentData([0.0, 0.0])
        with pytest.raises(Resonance):
            sym3_pipeline(rep, L, 10, catalog40)

    def test_reducible_rejected(self, catalog40):
        rep, L = rank2_data(1 / 3, -1 / 6)  # gap 1/2: symmetric cube collides
        with pytest.raises(NotIrreducible):
            sym3_pipeline(rep, L, 10, catalog40)


class TestTensorPipeline:
    def test_case_weights_residuals(self, catalog40):
        a, L1 = rank2_data((1 / 6 + 0.21) / 2, (1 / 6 - 0.21) / 2)
        b, L2 = rank2_data((2 / 6 + 0.13) / 2, (2 / 6 - 0.13) / 2)
        basis = tensor_pipeline(a, b, L1, L2, 25, catalog40)
        assert basis.case.case == "noncyclic"
        # minimal weight k + l = (6Tr1 - 1) + (6Tr2 - 1) = 0 + 1
        assert basis.case.k1 == 1
        assert basis.weights == (1, 3, 3, 5)
        for key in ("col1_df", "col2_d2f", "col3_dg_e4f", "col4_dh"):
            assert basis.residuals[key] < 1e-9, (key, basis.residuals)
        assert sorted(basis.residuals) == sorted(NONCYCLIC_KEYS)
        assert freeness_deviation(basis.forms) < FREENESS_TOL

    @pytest.mark.parametrize("member", [3, 9])
    def test_declared_exponents_are_the_tensor_exponents(self, member):
        # every component of every form leads exactly at the double sum
        # L1 + L2 of tensor_exponents, at every order; members 3 and 9 have
        # an exponent whose sum at working precision rounds to another double
        p1, p2 = tensor_grid()[member]
        (a, L1), (b, L2) = rank2_data(*p1), rank2_data(*p2)
        want = tensor_exponents(L1, L2).eigenvalues
        for order in (40, 300):
            basis = tensor_pipeline(a, b, L1, L2, order, ClassicalCatalog(order))
            for form in basis.forms:
                assert tuple(c.lead_exponent for c in form.components) == want

    def test_equation_from_the_factors(self):
        # the closed forms rest on a = -(a_alpha + a_beta) and
        # c = -(a_alpha - a_beta)^2, exact at working precision
        with qline_precision():
            for p1, p2 in tensor_grid():
                fs, gs = (_rank2_shifts(rank2_data(*p)[1]) for p in (p1, p2))
                a_alpha, a_beta = rank2_coeff(*fs), rank2_coeff(*gs)
                co = noncyclic_coeffs([f + g for f in fs for g in gs])
                assert abs(co.a + (a_alpha + a_beta)) < 1e-40
                assert abs(co.c + (a_alpha - a_beta) ** 2) < 1e-40

    def test_equal_factor_gaps_rejected(self, monkeypatch, catalog40):
        # gaps 0.21 and 0.21 + 1e-7 give |a_beta - a_alpha| ~ 1e-8: the
        # noncyclic c vanishes, and nothing is seeded or solved
        solves = []
        monkeypatch.setattr(vvmf.mlde, "qline_solve", lambda *args: solves.append(args))
        a, L1 = rank2_data((1 / 6 + 0.21) / 2, (1 / 6 - 0.21) / 2)
        b, L2 = rank2_data((2 / 6 + 0.21 + 1e-7) / 2, (2 / 6 - 0.21 - 1e-7) / 2)
        with pytest.raises(DegenerateC):
            tensor_pipeline(a, b, L1, L2, 10, catalog40)
        assert solves == []

    def test_jordan_pair_rejected(self, catalog40):
        nu = Rank2Rep(1, 1)
        L = ExponentData([0.0, 0.0])
        with pytest.raises(NotIrreducible):
            tensor_pipeline(nu, nu, L, L, 10, catalog40)

    def test_jordan_factor_needs_series(self, catalog40):
        # irreducible tensor, but the Jordan factor has no q-expansion route
        reg, L1 = rank2_data(0.3, 1 / 6 - 0.3)
        nu = Rank2Rep(1, 1)
        L2 = ExponentData([0.0, 0.0])
        with pytest.raises(Resonance):
            tensor_pipeline(reg, nu, L1, L2, 10, catalog40)


class TestFuchsianZ:
    def test_indicial_structure(self):
        u = 0.05 + 0.01j
        op = build_fuchsian_z(u)
        xi = cmath.exp(2j * cmath.pi / 6)
        assert abs(complex(op.theta_polys[0][0]) / 81 - 16 * xi * u) < 1e-14
        assert op.theta_polys[0][1] == 0  # exponents sum to zero
        roots = sorted(op.indicial_roots(), key=lambda z: z.real)
        r = local_exponent_from_u(u)
        assert np.allclose(sorted([r, -r], key=lambda z: z.real), roots)

    def test_u_zero_double_root(self):
        op = build_fuchsian_z(0)
        assert np.allclose(op.indicial_roots(), [0, 0])

    def test_u_round_trip(self):
        for r in (0.3, 0.1 - 0.4j):
            u = u_from_local_exponent(r)
            back = local_exponent_from_u(u)
            assert min(abs(back - r), abs(back + r)) < 1e-12
        assert u_from_local_exponent(0.25) == u_from_local_exponent(-0.25)
        assert u_from_local_exponent(0) == 0


def make_job(r=0.27, e=0, a=0.7 + 0.2j, trace=Fraction(1, 3), spread=0.11):
    rep = GRank2Rep(e, 1, ZETA, ZETA**2, a)
    L = ExponentData(
        [complex(trace) / 2 + spread, complex(trace) / 2 - spread], Group.G
    )
    return InductionJob(rep, L, u_from_local_exponent(r))


def cli_orbit():
    """The zeta-orbit of tests/test_cli.py's induction job, its exponents
    for the subgroup and its u."""
    rep = GRank2Rep(0, 1, ZETA, ZETA**2, 0.7 + 0.2j)
    return rep, ExponentData([1 / 3 + 0.11, 1 / 3 - 0.11], Group.G), -0.00455 - 0.00263j


class TestInductionJob:
    def test_weights_branches(self):
        # parity 0: k1 = 3Tr(L) when 3Tr(L) is even, else 3Tr(L) + 1
        assert make_job(trace=Fraction(2, 3)).k1 == 2
        assert make_job(trace=Fraction(1, 3)).k1 == 2

    def test_normalization_enforced(self):
        rep = GRank2Rep(0, 1, ZETA, 1, 0.7 + 0.2j)  # sum != 0: not restricting
        L = ExponentData([0.2, 0.3], Group.G)
        with pytest.raises(NormalizationError):
            InductionJob(rep, L, 0.05)

    def test_reducible_twist_rejected(self):
        # for the odd-parity orbit, a = -1 hits the excluded value of both
        # nontrivial twists while staying admissible as a subgroup parameter
        rep = GRank2Rep(1, 1, ZETA, ZETA**2, -1.0)
        L = ExponentData([0.2, 0.3], Group.G)
        with pytest.raises(NotIrreducible):
            InductionJob(rep, L, 0.05)

    def test_degenerate_u(self):
        rep = GRank2Rep(0, 1, ZETA, ZETA**2, 0.7 + 0.2j)
        L = ExponentData([0.2, 0.3], Group.G)
        with pytest.raises(Resonance, match="u = 0 makes the local exponents collide") as info:
            InductionJob(rep, L, 0)
        assert info.value.stage == "d"

    def test_gamma_exponents_rejected(self):
        # the orbit, exponents and u of tests/test_cli.py's induction job,
        # with the exponents for the full group: once built by hand, such a
        # job ran to a basis
        rep, L, u = cli_orbit()
        with pytest.raises(GroupMismatch):
            InductionJob(rep, ExponentData(L.eigenvalues, Group.GAMMA), u)

    def test_twisted_orbit_rejected(self):
        rep, L, u = cli_orbit()
        with pytest.raises(NormalizationError):
            InductionJob(rep.twist(1), L, u)

    def test_checks_run_in_order(self):
        # normalization, then the twists, then the group, then u
        rep, L, u = cli_orbit()
        gamma = ExponentData(L.eigenvalues, Group.GAMMA)
        with pytest.raises(NormalizationError):
            InductionJob(rep.twist(1), gamma, 0)
        with pytest.raises(NotIrreducible):
            InductionJob(GRank2Rep(1, 1, ZETA, ZETA**2, -1.0), gamma, 0)
        with pytest.raises(GroupMismatch):
            InductionJob(rep, gamma, 0)

    @pytest.mark.parametrize("eigs", [[2 / 3], [1 / 3 + 0.11, 1 / 3 - 0.11, 0]],
                             ids=["one", "three"])
    def test_exponents_need_two_eigenvalues(self, eigs):
        # L was read only through its trace: one or three eigenvalues of the
        # pair's trace ran to the pair's basis.  The rank is checked after
        # the group and before u.
        rep, L, u = cli_orbit()
        message = f"^need 2 exponent eigenvalues, got {len(eigs)}$"
        with pytest.raises(WrongRank, match=message) as info:
            InductionJob(rep, ExponentData(eigs, Group.G), u)
        assert info.value.stage == "a"
        with pytest.raises(GroupMismatch):
            InductionJob(rep, ExponentData(eigs, Group.GAMMA), 0)
        with pytest.raises(WrongRank):
            InductionJob(rep, ExponentData(eigs, Group.G), 0)

    def test_u_is_complex_and_k1_is_derived(self):
        rep, L, u = cli_orbit()
        job = InductionJob(rep, L, mpmath.mpc(u))
        assert type(job.u) is complex and job.u == u
        assert job.k1 == 2  # 3 Tr(L) = 2 has the parity e = 0
        with pytest.raises(TypeError):
            InductionJob(rep, L, u, 2)

    def test_pipeline_makes_no_eigenvalue_call(self, monkeypatch, cat):
        # the spectrum of rho(T^2) comes from its trace and determinant
        job = make_job(0.27)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        induction_pipeline(job, 10, cat)

    def test_trace_congruent_to_d(self, cat):
        # d = 5 for this orbit; 3 Tr(L) = 5 gives k1 = 6 and 3 Tr(Ind L) = 9,
        # which no exponents of the induced representation can have
        job = make_job(0.27, trace=Fraction(5, 3))
        assert job.k1 == 6
        with pytest.raises(TraceDCongruenceViolation, match="d = 5"):
            induction_pipeline(job, 10, cat)


@pytest.fixture(scope="module")
def cat():
    return ClassicalCatalog(20)


class TestInductionPair:
    def test_defining_relation(self, cat):
        job = make_job(0.27)
        A, B = induction_minimal_pair(job, 20, cat)
        X = FormStack.of((A, B))
        system = induction_system(job.u, cat.xi, cat)
        assert max(system_residuals(X, modular_derivative(X, cat), system, cat)) < 1e-9
        # leading exponents are k1/6 +- r transported through Z ~ c q2
        leads = sorted(complex(c.lead_exponent).real for c in A.components)
        assert leads == pytest.approx([job.k1 / 6 - 0.27, job.k1 / 6 + 0.27])

    def test_resonant_u_rejected(self, cat):
        job = make_job(0.27)
        resonant = InductionJob(job.rep, job.L, u_from_local_exponent(0.5))
        with pytest.raises(Resonance):
            induction_minimal_pair(resonant, 20, cat)

    def test_induce_to_gamma(self, cat):
        job = make_job(0.27)
        A, _ = induction_minimal_pair(job, 20, cat)
        stacked = induce_to_gamma(A)
        assert stacked.rank == 4 and stacked.weight == A.weight
        assert stacked.components == A.components + tuple(
            c.slash_t_inverse() for c in A.components
        )

    def test_wrong_nome(self, cat, catalog40):
        from vvmf.series import PuiseuxSeries, VectorSeries

        q_form = VectorSeries((PuiseuxSeries.one(Nome.Q, 5),), 0)
        with pytest.raises(WrongNome):
            induce_to_gamma(q_form)

    def test_pipeline_bases(self, cat):
        job = make_job(0.27)
        first, second = induction_pipeline(job, 20, cat)
        k1 = job.k1
        for fb in (first, second):
            # the induced representation of either twist has d = 5, e = 0
            assert fb.case == CaseReport(CYCLIC, k1, (k1, k1 + 2, k1 + 4, k1 + 6), 5, 0)
            assert sorted(fb.residuals) == ["cyclic_mlde", "pair_relation"]
            assert fb.residuals["pair_relation"] < 1e-9
            assert fb.residuals["cyclic_mlde"] < 1e-9
            assert freeness_deviation(fb.forms) < FREENESS_TOL

    @pytest.mark.parametrize("r", [0.41, 0.33 - 0.14j])
    def test_small_leading_coefficient_keeps_its_exponent(self, r):
        # at q-order 80 a leading coefficient of these pairs falls below
        # 1e-9 of the largest one; the exponents are still the declared
        # ones, so both members assemble and pass the gate
        job = make_job(r)
        for fb in induction_pipeline(job, 80, ClassicalCatalog(80)):
            assert fb.case.weight_tuple == (job.k1, job.k1 + 2, job.k1 + 4, job.k1 + 6)
            assert max(fb.residuals.values()) < 1e-9

    @pytest.mark.parametrize("r", [0.41, 0.33 - 0.14j], ids=["induction:2", "induction:4"])
    def test_exponent_check_reads_the_declared_exponents(self, r):
        # the benchmark's induction members 2 and 4 at q-order 80: a leading
        # coefficient of a q2-part falls below 1e-9 of the largest one, yet
        # each form of the pair is stacked at its declared exponents
        job = make_job(r, trace=Fraction(2, 3))
        for F in induction_minimal_pair(job, 80, ClassicalCatalog(80)):
            assert induce_to_gamma(F).rank == 4
