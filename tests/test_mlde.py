"""Classification, equation coefficients, Frobenius solving, derivative and
basis assembly, with symmetric-polynomial and term-ratio oracles."""

import cmath
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvmf.errors import (
    DegenerateC,
    ExponentSumMismatch,
    NonIntegralThreeTrace,
    NotAnExponent,
    PoleInC,
    Resonance,
    TraceDCongruenceViolation,
    WrongNome,
    ZeroForm,
)
from vvmf.mlde import (
    CYCLIC,
    NONCYCLIC,
    _fixed_left_solve,
    assemble_cyclic_basis,
    assemble_noncyclic_basis,
    basis_rank_ratio,
    build_cyclic_operator,
    build_hypergeometric_operator,
    build_noncyclic_operator,
    classify,
    cyclic_coeffs,
    dimension,
    frobenius_solve,
    generic_basis,
    hypergeom_2f1,
    modular_derivative,
    noncyclic_coeffs,
    noncyclic_system,
    operator_residual,
    qline_precision,
    qline_solve,
    solve_minimal_form,
    system_residuals,
)
from vvmf.reps import ExponentData, Rank4Rep
from vvmf.series import Nome, PuiseuxSeries, VectorSeries, relative_residual, to_fixed


def rank4_from_exponents(eigs, d, e):
    return Rank4Rep(*[cmath.exp(2j * cmath.pi * v) for v in eigs], d=d, e=e)


def admissible(es3, m, d, e):
    eigs = list(es3) + [m / 3 - sum(es3)]
    return rank4_from_exponents(eigs, d, e), ExponentData.diagonal(eigs)


def esym_oracle(values, k):
    return sum(
        np.prod([values[i] for i in combo]) for combo in combinations(range(4), k)
    )


class TestClassify:
    def test_parity_split(self):
        rep, L = admissible([0.11, 0.18, 0.31], 7, 1, 0)  # 3Tr odd, e even
        report = classify(rep, L)
        assert report.case == CYCLIC
        assert report.k1 == 7 - 3
        assert report.weight_tuple == (4, 6, 8, 10)

        rep, L = admissible([0.11, 0.18, 0.31], 8, 5, 0)  # 3Tr even, e even
        report = classify(rep, L)
        assert report.case == NONCYCLIC
        assert report.k1 == 8 - 2
        assert report.weight_tuple == (6, 8, 8, 10)

    def test_integer_shift_flips_case(self):
        # same representation, exponents shifted by one integer: opposite cases
        rep, L1 = admissible([0.11, 0.18, 0.31], 7, 1, 0)
        eigs2 = list(L1.eigenvalues)
        eigs2[0] += 1
        L2 = ExponentData.diagonal(eigs2)
        assert classify(rep, L1).case != classify(rep, L2).case

    def test_errors(self):
        rep, L = admissible([0.11, 0.18, 0.31], 7, 1, 0)
        with pytest.raises(NonIntegralThreeTrace):
            classify(rep, ExponentData.diagonal([0.1, 0.1, 0.1, 0.1]))
        bad = ExponentData.diagonal([v + Fraction(1, 3) for v in L.eigenvalues])
        with pytest.raises(TraceDCongruenceViolation):
            classify(rep, bad)  # trace shifted by 4/3: 3Tr off by 4 mod 3


class TestDimension:
    def test_below_cutoff_and_parity(self):
        rep, L = admissible([0.11, 0.18, 0.31], 7, 1, 0)
        assert dimension(2, rep, L) == 0  # below 3Tr-3 = 4
        assert dimension(5, rep, L) == 0  # d = 1 parity
        assert dimension(4, rep, L) == 1  # unique minimal form

    def test_generating_function_both_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            d = int(rng.integers(0, 6))
            e = (d + 1) % 2
            m = d + 3 * int(rng.integers(1, 4))  # keeps k1 nonnegative
            es = list(rng.uniform(-0.3, 0.5, 3))
            rep, L = admissible(es, m, d, e)
            report = classify(rep, L)
            # independent oracle: expand the Hilbert series numerator over
            # 1/((1-T^4)(1-T^6)) with integer arithmetic
            top = report.k1 + 24
            inv = [0] * (top + 1)
            for i4 in range(0, top + 1, 4):
                for i6 in range(0, top + 1 - i4, 6):
                    inv[i4 + i6] += 1
            want = [0] * (top + 1)
            for kj in report.weight_tuple:
                for n in range(top + 1 - kj):
                    want[kj + n] += inv[n]
            got = [dimension(k, rep, L) for k in range(top + 1)]
            assert got == want


class TestCoefficients:
    def test_cyclic_examples(self):
        co = cyclic_coeffs([0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
        assert co.a == 0 and co.b == 0 and co.c == 0
        co = cyclic_coeffs([0, Fraction(1, 12), Fraction(1, 3), Fraction(7, 12)])
        assert co.a == Fraction(-5, 144)
        assert co.b == Fraction(5, 864)
        assert co.c == 0

    def test_cyclic_matches_symmetric_oracle(self):
        f = [0.05, 0.15 + 0.02j, 0.35, 0.45 - 0.02j]
        co = cyclic_coeffs(f)
        s2, s3, s4 = (esym_oracle(f, k) for k in (2, 3, 4))
        assert abs(co.a - (s2 - 11 / 36)) < 1e-14
        assert abs(co.b - (-s3 + co.a / 6 + 1 / 36)) < 1e-14
        assert abs(co.c - s4) < 1e-14

    def test_noncyclic_examples(self):
        co = noncyclic_coeffs([0, Fraction(1, 12), Fraction(1, 4), Fraction(1, 3)])
        assert co.a == Fraction(1, 288)
        assert co.b == Fraction(1, 288)
        assert co.c == Fraction(-1, 5184)
        co = noncyclic_coeffs([0, Fraction(1, 6), Fraction(1, 6), Fraction(1, 3)])
        assert co.a == 0 and co.b == 0 and co.c == 0

    def test_sum_mismatch(self):
        with pytest.raises(ExponentSumMismatch):
            cyclic_coeffs([0, 0, 0, 0.5])
        with pytest.raises(ExponentSumMismatch):
            noncyclic_coeffs([0, 0, 0, 0.5])

    def test_indicial_round_trips(self):
        rng = np.random.default_rng(2)
        for case in (CYCLIC, NONCYCLIC):
            for _ in range(5):
                f3 = rng.uniform(-0.4, 0.4, 3) + 1j * rng.uniform(-0.05, 0.05, 3)
                target = 1 if case == CYCLIC else Fraction(2, 3)
                f = list(f3) + [complex(target) - sum(f3)]
                if case == CYCLIC:
                    op = build_cyclic_operator(cyclic_coeffs(f))
                else:
                    op = build_noncyclic_operator(noncyclic_coeffs(f))
                roots = sorted(op.indicial_roots(), key=lambda z: (z.real, z.imag))
                want = sorted(map(complex, f), key=lambda z: (z.real, z.imag))
                assert np.allclose(roots, want, atol=1e-9)


class TestOperators:
    def test_cyclic_p0_is_scaled_indicial(self):
        f = [0, Fraction(1, 12), Fraction(1, 3), Fraction(7, 12)]
        co = cyclic_coeffs(f)
        op = build_cyclic_operator(co)
        # 36 * (x^4 - x^3 + (a + 11/36)x^2 - (a/6 - b + 1/36)x + c)
        want = (
            36 * co.c,
            -36 * (co.a / 6 - co.b + Fraction(1, 36)),
            36 * (co.a + Fraction(11, 36)),
            -36,
            36,
        )
        assert all(abs(complex(p - w)) < 1e-14 for p, w in zip(op.theta_polys[0], want))

    def test_cyclic_theta_constant_term(self):
        co = cyclic_coeffs([0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
        op = build_cyclic_operator(co)  # a = b = c = 0
        assert op.theta_polys[0][1] == -1  # "-6a + 36b - 1" at K^0
        assert op.order == 4 and op.x_degree == 2

    def test_noncyclic_normalized_coefficients(self):
        co = noncyclic_coeffs([0, Fraction(1, 12), Fraction(1, 4), Fraction(1, 3)])
        op = build_noncyclic_operator(co)
        p0 = op.theta_polys[0]
        assert Fraction(p0[3], p0[4]) == Fraction(-2, 3)  # theta^3 at K^0
        assert p0[0] == -6 * (co.a + 18 * co.c)  # constant block at K^0

    def test_apply_wrong_nome(self):
        co = cyclic_coeffs([0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
        op = build_cyclic_operator(co)
        with pytest.raises(WrongNome):
            op.apply(PuiseuxSeries.one(Nome.Q, 5))


class TestFrobenius:
    def test_hypergeometric_cross_oracle(self):
        a, b, c = 0.3 + 0.1j, -0.7, 1.25
        op = build_hypergeometric_operator(a, b, c)
        sol = frobenius_solve(op, 0, 60)
        ref = hypergeom_2f1(a, b, c, 60)
        assert relative_residual(sol - ref, ref) < 1e-13

    def test_cyclic_self_residual(self):
        co = cyclic_coeffs([0, Fraction(1, 6) + 0.01, Fraction(1, 3), Fraction(1, 2) - 0.01])
        op = build_cyclic_operator(co)
        sol = frobenius_solve(op, 0, 50)
        assert operator_residual(op, sol) < 1e-9

    def test_not_an_exponent(self):
        op = build_hypergeometric_operator(0.3, 0.4, 1.2)
        with pytest.raises(NotAnExponent):
            frobenius_solve(op, 0.123, 10)

    def test_resonance_rejected(self):
        # exponents 0 and 1 differ by an integer
        co = cyclic_coeffs([0, 1, Fraction(1, 3), -Fraction(1, 3)])
        op = build_cyclic_operator(co)
        with pytest.raises(Resonance):
            frobenius_solve(op, 0, 10)


class TestSystem:
    """The noncyclic first-order system D X = X M on the q-line, X = (F, DF, G, H)."""

    k1 = 6

    def co(self):
        return noncyclic_coeffs([0, Fraction(1, 12), Fraction(1, 4), Fraction(1, 3)])

    def weights(self):
        return (self.k1, self.k1 + 2, self.k1 + 2, self.k1 + 4)

    def constant_term(self, co, catalog):
        """K + M_0 as a dense matrix, K = diag(k_i / 12)."""
        m0 = np.diag([k / 12 for k in self.weights()]).astype(complex)
        for S, e in noncyclic_system(co, catalog):
            for (i, j), v in S.items():
                m0[i, j] += complex(v) * e.coeffs[0]
        return m0

    def test_matrix_entries(self, catalog40):
        co = self.co()
        (const, one), (e4_part, e4) = noncyclic_system(co, catalog40)
        assert one.coeffs[:3] == (1, 0, 0)
        assert e4 is catalog40.eisenstein(4)
        assert const == {(1, 0): 1, (3, 1): 1}
        assert e4_part == {(0, 1): co.a, (0, 2): 1, (1, 3): co.b, (2, 3): co.c}

    def test_b0_eigenvalues_are_exponents(self, catalog40):
        co = self.co()
        eig = np.linalg.eigvals(self.constant_term(co, catalog40))
        want = sorted((complex(f) + self.k1 / 12 for f in co.f_exponents), key=lambda z: z.real)
        assert np.allclose(sorted(eig, key=lambda z: z.real), want, atol=1e-10)

    def test_degenerate_c(self, catalog40):
        co = noncyclic_coeffs([0, Fraction(1, 6), Fraction(1, 6), Fraction(1, 3)])
        with pytest.raises(DegenerateC):
            noncyclic_system(co, catalog40)

    def test_constant_system_at_zero_exponent(self, catalog40):
        # weight zero and a constant M: the solution is its seed, constant in q
        co = self.co()
        (const, one), (e4_part, _) = noncyclic_system(co, catalog40)
        m0 = np.zeros((4, 4), dtype=complex)
        for (i, j), v in {**const, **e4_part}.items():
            m0[i, j] = complex(v)
        vals, vecs = np.linalg.eig(m0.T)  # left eigenvectors of m0
        k = int(np.argmin(abs(vals)))
        lam, v0 = complex(vals[k]), [complex(x) for x in vecs[:, k]]
        system = [({ij: m0[ij] for ij in np.ndindex(4, 4) if m0[ij]}, one)]
        with qline_precision():
            rows = qline_solve((0, 0, 0, 0), system, lam, v0, 8, catalog40)
        for j, s in enumerate(row.downcast() for row in rows):
            assert abs(complex(s.coeffs[0]) - v0[j]) < 1e-12
            assert max(abs(complex(c)) for c in s.coeffs[1:]) < 1e-12

    def test_four_eigenpairs_and_residual(self, catalog40):
        co = self.co()
        system = noncyclic_system(co, catalog40)
        sixth = Fraction(1, 6)
        for f in co.f_exponents:
            seed = [1, f, 1 / (f - sixth), f * (f - sixth) - co.a]
            with qline_precision():
                rows = qline_solve(self.weights(), system, f + Fraction(self.k1, 12), seed,
                                   40, catalog40)
            forms = [VectorSeries((s.downcast(),), k) for s, k in zip(rows, self.weights())]
            assert max(system_residuals(forms, system, catalog40)) < 1e-12

    @pytest.mark.parametrize("gap, resonant", [(Fraction(1, 10**12), True),
                                               (Fraction(1, 10**8), False)])
    def test_pivot_floor_is_resonance(self, catalog40, gap, resonant):
        # M_0 = diag(0, 1 - gap): at n = 1 the step matrix is diag(1, gap),
        # singular below 1e-10 of its largest entry
        system = [({(1, 1): 1 - gap}, PuiseuxSeries.one(Nome.Q, 40))]
        with qline_precision():
            if resonant:
                with pytest.raises(Resonance):
                    qline_solve((0, 0), system, 0, (1, 0), 3, catalog40)
            else:
                rows = qline_solve((0, 0), system, 0, (1, 0), 3, catalog40)
                assert [r.downcast().coeffs for r in rows] == [(1, 0, 0, 0), (0, 0, 0, 0)]

    def test_series_must_be_exact_integers(self, catalog40):
        co = self.co()
        (const, one), (e4_part, e4) = noncyclic_system(co, catalog40)
        system = [(const, one), (e4_part, e4.scale(1.0))]
        lam = co.f_exponents[0] + Fraction(self.k1, 12)
        with pytest.raises(TypeError), qline_precision():
            qline_solve(self.weights(), system, lam, (1, 1, 1, 1), 5, catalog40)

    def test_not_left_eigenvector(self, catalog40):
        co = self.co()
        lam = co.f_exponents[0] + Fraction(self.k1, 12)
        with pytest.raises(NotAnExponent), qline_precision():
            qline_solve(self.weights(), noncyclic_system(co, catalog40), lam,
                        (1, 1, 1, 1), 5, catalog40)


class TestFixedLeftSolve:
    """One step of the q-line recursion: x a = rhs in fixed-point Gaussian
    integers, checked by its exact residual."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=4))
    def test_residual_is_at_the_last_bits(self, seed, r):
        rng = random.Random(seed)
        p = 200

        def entry():
            return to_fixed(complex(rng.uniform(-4, 4), rng.uniform(-4, 4)), p)

        a = [[entry() for _ in range(r)] for _ in range(r)]
        rhs = [entry() for _ in range(r)]
        x = _fixed_left_solve(a, rhs, p)
        # x a - rhs at the scale 2^-2p, against |x| |a| summed over the row
        for j in range(r):
            re = sum(u * ar - v * ai for (u, v), (ar, ai) in zip(x, (a[i][j] for i in range(r))))
            im = sum(u * ai + v * ar for (u, v), (ar, ai) in zip(x, (a[i][j] for i in range(r))))
            re, im = re - (rhs[j][0] << p), im - (rhs[j][1] << p)
            size = sum(abs(complex(*xi)) * abs(complex(*a[i][j])) for i, xi in enumerate(x))
            assert abs(complex(re, im)) <= 2.0**-190 * size + 2.0**(p + 8)


class TestHypergeom:
    def test_trivial_values(self):
        s = hypergeom_2f1(0.3, 0.7, 1.1, 10)
        assert s.coeffs[0] == 1
        ones = hypergeom_2f1(1, 1, 1, 10)
        assert all(abs(complex(c) - 1) < 1e-14 for c in ones.coeffs)

    def test_pole_in_c(self):
        with pytest.raises(PoleInC):
            hypergeom_2f1(0.5, 0.5, -3, 10)
        # pole beyond the window is fine
        hypergeom_2f1(0.5, 0.5, -30, 10)


class TestModularDerivative:
    def test_delta_annihilated(self, catalog40):
        delta = VectorSeries((catalog40.delta(),), 12)
        out = modular_derivative(delta, 12, catalog40)
        assert out.weight == 14
        assert relative_residual(out, delta) < 1e-15

    def test_ramanujan(self, catalog40):
        e4 = VectorSeries((catalog40.eisenstein(4),), 4)
        want = catalog40.eisenstein(6).scale(Fraction(-1, 3))
        out = modular_derivative(e4, 4, catalog40)
        assert relative_residual(out.components[0] - want, want) < 1e-14

    def test_constant_weight_zero(self, catalog40):
        one = VectorSeries((PuiseuxSeries.one(Nome.Q, 40),), 0)
        out = modular_derivative(one, 0, catalog40)
        assert out.max_abs() == 0

    def test_graded_leibniz(self, catalog40):
        g = VectorSeries((catalog40.eta_power(24),), 12)
        for scalar, k in ((catalog40.eisenstein(4), 4), (catalog40.eisenstein(6), 6)):
            fg = g.mul_series(scalar, weight_shift=k)
            lhs = modular_derivative(fg, 12 + k, catalog40)
            df = catalog40.modular_derive(scalar, k)
            rhs = modular_derivative(g, 12, catalog40).mul_series(scalar) + g.mul_series(df)
            assert relative_residual(lhs - rhs, lhs, rhs) < 1e-12


class TestAssembly:
    def test_zero_form_rejected(self, catalog40):
        co = cyclic_coeffs([0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
        zero = VectorSeries(tuple(PuiseuxSeries.zero(Nome.Q, 10) for _ in range(4)), 0)
        with pytest.raises(ZeroForm):
            assemble_cyclic_basis(zero, co, catalog40)

    def test_degenerate_c_rejected(self, catalog40):
        co = noncyclic_coeffs([0, Fraction(1, 6), Fraction(1, 6), Fraction(1, 3)])
        form = VectorSeries(tuple(PuiseuxSeries.one(Nome.Q, 10) for _ in range(4)), 0)
        with pytest.raises(DegenerateC):
            assemble_noncyclic_basis(form, co, catalog40)


class TestGenericPipeline:
    def test_cyclic_route(self, catalog40):
        rep, L = admissible([0.11, 0.18, 0.31], 7, 1, 0)
        F, report, co, res = solve_minimal_form(rep, L, 25, catalog40)
        assert report.case == CYCLIC
        assert [complex(c.lead_exponent) for c in F.components] == pytest.approx(
            [complex(v) for v in L.eigenvalues]
        )
        assert res["cyclic_chain"] < 1e-12 and res["cyclic_mlde"] < 1e-12
        basis = generic_basis(rep, L, 25, catalog40)
        assert basis.residuals["cyclic_mlde"] < 1e-9
        assert basis.weights == (4, 6, 8, 10)
        assert basis_rank_ratio(basis) > 1e-12

    def test_noncyclic_route(self, catalog40):
        rep, L = admissible([0.11, 0.18, 0.31], 8, 5, 0)
        basis = generic_basis(rep, L, 25, catalog40)
        assert basis.case.case == NONCYCLIC
        assert basis.weights == (6, 8, 8, 10)
        for key in ("col1_df", "col2_d2f", "col3_dg_e4f", "col4_dh"):
            assert basis.residuals[key] < 1e-9, (key, basis.residuals)
        assert basis_rank_ratio(basis) > 1e-8

    def test_resonant_exponents_rejected(self, catalog40):
        rep, L = admissible([0.11, 0.18, 0.31], 7, 1, 0)
        eigs = list(L.eigenvalues)
        eigs[1] = eigs[0] + 1  # integer gap
        eigs[3] = 7 / 3 - sum(eigs[:3])
        with pytest.raises(Resonance):
            solve_minimal_form(rep, ExponentData.diagonal(eigs), 10, catalog40,
                               validate_spectrum=False)
