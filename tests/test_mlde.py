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

import vvmf.mlde
from vvmf.errors import (
    DegenerateC,
    ExponentSumMismatch,
    NonIntegralThreeTrace,
    NotAnExponent,
    Resonance,
    TraceDCongruenceViolation,
    WrongNome,
    ZeroForm,
)
from vvmf.mlde import (
    CYCLIC,
    NONCYCLIC,
    _left_solve,
    _real_form,
    assemble_cyclic_basis,
    classify,
    cyclic_coeffs,
    dimension,
    generic_basis,
    modular_derivative,
    noncyclic_coeffs,
    noncyclic_system,
    qline_precision,
    qline_solve,
    solve_minimal_form,
    system_residuals,
)
from vvmf.reps import ExponentData, Rank4Rep
from vvmf.series import FormStack, Nome, PuiseuxSeries, VectorSeries, relative_residual, to_fixed

from oracles import (
    PoleInC,
    build_cyclic_operator,
    build_hypergeometric_operator,
    build_noncyclic_operator,
    frobenius_solve,
    hypergeom_2f1,
    operator_residual,
    sliced_left_solve,
)
from test_acceptance import FREENESS_TOL, freeness_deviation


def rank4_from_exponents(eigs, d, e):
    return Rank4Rep(*[cmath.exp(2j * cmath.pi * v) for v in eigs], d=d, e=e)


def admissible(es3, m, d, e):
    eigs = list(es3) + [m / 3 - sum(es3)]
    return rank4_from_exponents(eigs, d, e), ExponentData(eigs)


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
        L2 = ExponentData(eigs2)
        assert classify(rep, L1).case != classify(rep, L2).case

    def test_errors(self):
        rep, L = admissible([0.11, 0.18, 0.31], 7, 1, 0)
        with pytest.raises(NonIntegralThreeTrace):
            classify(rep, ExponentData([0.1, 0.1, 0.1, 0.1]))
        bad = ExponentData([v + Fraction(1, 3) for v in L.eigenvalues])
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
        # weight zero and a constant M: each solution is its seed, constant in q
        co = self.co()
        (const, one), (e4_part, _) = noncyclic_system(co, catalog40)
        m0 = np.zeros((4, 4), dtype=complex)
        for (i, j), v in {**const, **e4_part}.items():
            m0[i, j] = complex(v)
        vals, vecs = np.linalg.eig(m0.T)  # left eigenvectors of m0
        lams = [complex(v) for v in vals]
        seeds = [[complex(x) for x in vecs[:, k]] for k in range(4)]
        system = [({ij: m0[ij] for ij in np.ndindex(4, 4) if m0[ij]}, one)]
        with qline_precision():
            rows = qline_solve((0, 0, 0, 0), system, lams, seeds, 8, catalog40)
        assert len(rows) == 4
        for row, v0 in zip(rows, seeds):
            for j, s in enumerate(x.downcast() for x in row):
                assert abs(complex(s.coeffs[0]) - v0[j]) < 1e-12
                assert max(abs(complex(c)) for c in s.coeffs[1:]) < 1e-12

    def seeds(self, co):
        sixth = Fraction(1, 6)
        return [[1, f, 1 / (f - sixth), f * (f - sixth) - co.a] for f in co.f_exponents]

    def lams(self, co):
        return [f + Fraction(self.k1, 12) for f in co.f_exponents]

    def test_four_eigenpairs_and_residual(self, catalog40):
        co = self.co()
        system = noncyclic_system(co, catalog40)
        with qline_precision():
            rows = qline_solve(self.weights(), system, self.lams(co), self.seeds(co), 40, catalog40)
        assert len(rows) == 4
        for row in rows:
            X = FormStack.of([VectorSeries((s.downcast(),), k) for s, k in zip(row, self.weights())])
            derivatives = modular_derivative(X, catalog40)
            assert max(system_residuals(X, derivatives, system, catalog40)) < 1e-12

    @pytest.mark.parametrize("gap, resonant", [
        (0, True),
        (1, True),
        (1 - Fraction(1, 10**12), True),
        (1 - Fraction(1, 10**8), False),
        (Fraction(1, 2) + 0.3j, False),
    ], ids=["repeated", "one", "one-less-1e-12", "one-less-1e-8", "complex"])
    def test_integer_gap_is_resonance(self, monkeypatch, catalog40, gap, resonant):
        # M_0 = diag(0, gap) at weight zero: the exponents are 0 and gap; an
        # integer gap within 1e-9, 0 included, is rejected before any step
        steps = []
        solve_step = vvmf.mlde._left_solve
        monkeypatch.setattr(vvmf.mlde, "_left_solve",
                            lambda *args: steps.append(args) or solve_step(*args))
        system = [({(1, 1): gap}, PuiseuxSeries.one(Nome.Q, 40))]
        with qline_precision():
            if resonant:
                with pytest.raises(Resonance, match="differ by the integer"):
                    qline_solve((0, 0), system, (0, gap), ((1, 0), (0, 1)), 3, catalog40)
                assert steps == []
            else:
                rows = qline_solve((0, 0), system, (0, gap), ((1, 0), (0, 1)), 3, catalog40)
                assert [[x.downcast().coeffs for x in row] for row in rows] == [
                    [(1, 0, 0, 0), (0, 0, 0, 0)], [(0, 0, 0, 0), (1, 0, 0, 0)]]
                assert len(steps) == 2 * 3

    @pytest.mark.parametrize("count", [1, 3, 5])
    def test_exponent_count_must_match_the_system(self, catalog40, count):
        co = self.co()
        lams, seeds = (self.lams(co) * 2)[:count], (self.seeds(co) * 2)[:count]
        with pytest.raises(ValueError, match="takes 4 exponents"), qline_precision():
            qline_solve(self.weights(), noncyclic_system(co, catalog40), lams, seeds, 5, catalog40)

    def test_series_must_be_exact_integers(self, catalog40):
        co = self.co()
        (const, one), (e4_part, e4) = noncyclic_system(co, catalog40)
        with qline_precision():
            qline_solve(self.weights(), [(const, one), (e4_part, e4)],
                        self.lams(co), self.seeds(co), 5, catalog40)
            with pytest.raises(TypeError):
                qline_solve(self.weights(), [(const, one), (e4_part, e4.scale(1.0))],
                            self.lams(co), self.seeds(co), 5, catalog40)

    def test_not_left_eigenvector(self, catalog40):
        co = self.co()
        seeds = [(1, 1, 1, 1)] + self.seeds(co)[1:]
        with pytest.raises(NotAnExponent), qline_precision():
            qline_solve(self.weights(), noncyclic_system(co, catalog40), self.lams(co),
                        seeds, 5, catalog40)


    def test_not_left_eigenvector_in_its_imaginary_part(self, catalog40):
        # x = X_0 + i (1, 1, 1, 1) on a real system: x b is purely imaginary,
        # so the null test must weigh the imaginary half of each column
        co = self.co()
        seeds = self.seeds(co)
        seeds[0] = [v + 1j for v in seeds[0]]
        with pytest.raises(NotAnExponent), qline_precision():
            qline_solve(self.weights(), noncyclic_system(co, catalog40), self.lams(co),
                        seeds, 5, catalog40)


def _signed(bits: int):
    return st.integers(min_value=-(1 << bits) + 1, max_value=(1 << bits) - 1)


@st.composite
def step_systems(draw):
    """(m, p): a step matrix a, r = 1-4, as the real form (c = 1 or 2) of
    Gaussian integers at 2^-p, transposed and followed by right-hand sides
    of 0-300 bits.  Entries are often 0 or +-1, +-2 units, so columns hold
    zeros and tied pivots; a matrix may be singular."""
    r, c = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2]))
    p = draw(st.sampled_from([8, 202]))
    unit = 1 << p
    part = st.one_of(st.sampled_from([0, unit, -unit, 2 * unit, -2 * unit]), _signed(p + 3))
    rhs_part = st.integers(0, 300).flatmap(_signed)

    def entry(values):
        return (draw(values), draw(values) if c == 2 else 0)

    a = [[entry(part) for _ in range(r)] for _ in range(r)]
    rhs = [entry(rhs_part) for _ in range(r)]
    return [[*col, u] for col, u in zip(zip(*_real_form(a, c)), _real_form([rhs], c)[0])], p


def _solved(solve, m, p):
    """x from an elimination of a copy of m, or the type of what it raised."""
    try:
        return solve([list(row) for row in m], p)
    except ArithmeticError as exc:
        return type(exc)


class TestLeftSolve:
    """One step of the q-line recursion: x a = rhs in fixed-point integers,
    on a real matrix or on the real form of a complex one, checked by its
    exact complex residual and against the sliced elimination of the
    oracles."""

    @settings(max_examples=300, deadline=None)
    @given(step_systems())
    def test_matches_the_sliced_elimination(self, system):
        # the same first-largest pivots, floored multipliers and back
        # substitution give the same x; a singular matrix raises the same
        m, p = system
        assert _solved(_left_solve, m, p) == _solved(sliced_left_solve, m, p)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=4),
           st.sampled_from([1, 2]))
    def test_residual_is_at_the_last_bits(self, seed, r, c):
        # c = 1: a real matrix as itself; c = 2: a complex one in real form
        rng = random.Random(seed)
        p = 200

        def entry():
            return to_fixed(complex(rng.uniform(-4, 4), rng.uniform(-4, 4) if c == 2 else 0), p)

        a = [[entry() for _ in range(r)] for _ in range(r)]
        rhs = [entry() for _ in range(r)]
        m = [[*col, u] for col, u in zip(zip(*_real_form(a, c)), _real_form([rhs], c)[0])]
        x = _left_solve(m, p)
        x = [(x[i], x[r + i] if c == 2 else 0) for i in range(r)]
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


def derivative(s: PuiseuxSeries, k, catalog) -> PuiseuxSeries:
    """D of one scalar series at weight k through the stack pass."""
    (out,) = modular_derivative(FormStack.of([VectorSeries((s,), k)]), catalog).vectors()
    assert out.weight == k + 2
    return out.components[0]


class TestModularDerivative:
    def test_delta_annihilated(self, catalog40):
        delta = catalog40.delta()
        assert relative_residual(derivative(delta, 12, catalog40), delta) < 1e-15

    def test_ramanujan(self, catalog40):
        want = catalog40.eisenstein(6).scale(Fraction(-1, 3))
        out = derivative(catalog40.eisenstein(4), 4, catalog40)
        assert relative_residual(out - want, want) < 1e-14

    def test_constant_weight_zero(self, catalog40):
        one = PuiseuxSeries.one(Nome.Q, 40)
        assert derivative(one, 0, catalog40).max_abs() == 0

    def test_graded_leibniz(self, catalog40):
        g = catalog40.eta_power(24)
        for scalar, k in ((catalog40.eisenstein(4), 4), (catalog40.eisenstein(6), 6)):
            lhs = derivative(g * scalar, 12 + k, catalog40)
            df = catalog40.modular_derive(scalar, k)
            rhs = derivative(g, 12, catalog40) * scalar + g * df
            assert relative_residual(lhs - rhs, lhs, rhs) < 1e-12


class TestAssembly:
    def test_zero_form_rejected(self, catalog40):
        co = cyclic_coeffs([0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
        zero = VectorSeries(tuple(PuiseuxSeries.polynomial(Nome.Q, [], 10) for _ in range(4)), 0)
        with pytest.raises(ZeroForm):
            assemble_cyclic_basis(zero, co, catalog40)

    def test_degenerate_c_rejected(self, catalog40):
        co = noncyclic_coeffs([0, Fraction(1, 6), Fraction(1, 6), Fraction(1, 3)])
        with pytest.raises(DegenerateC):
            noncyclic_system(co, catalog40)


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
        assert freeness_deviation(basis.forms) < FREENESS_TOL

    def test_freeness_oracle_sees_a_defect(self, catalog40):
        rep, L = admissible([0.11, 0.18, 0.31], 7, 1, 0)
        forms = list(generic_basis(rep, L, 25, catalog40).forms)
        # the last form replaced by the first: the determinant vanishes
        dependent = forms[:3] + [VectorSeries(forms[0].components, forms[3].weight)]
        with pytest.raises(AssertionError, match="not a free basis"):
            freeness_deviation(dependent)
        # one coefficient of one form off by 1e-7 of itself
        comps = list(forms[1].components)
        coeffs = list(comps[2].coeffs)
        coeffs[1] *= 1 + 1e-7
        comps[2] = PuiseuxSeries(comps[2].nome, comps[2].lead_exponent, tuple(coeffs))
        forms[1] = VectorSeries(tuple(comps), forms[1].weight)
        assert freeness_deviation(forms) > 100 * FREENESS_TOL

    def test_noncyclic_route(self, catalog40):
        rep, L = admissible([0.11, 0.18, 0.31], 8, 5, 0)
        basis = generic_basis(rep, L, 25, catalog40)
        assert basis.case.case == NONCYCLIC
        assert basis.weights == (6, 8, 8, 10)
        for key in ("col1_df", "col2_d2f", "col3_dg_e4f", "col4_dh"):
            assert basis.residuals[key] < 1e-9, (key, basis.residuals)
        assert freeness_deviation(basis.forms) < FREENESS_TOL

    def test_resonant_exponents_rejected(self, catalog40):
        # the first two exponents differ by 1 and share their T-eigenvalue
        rep, L = admissible([0.11, 1.11, 0.31], 7, 1, 0)
        with pytest.raises(Resonance):
            solve_minimal_form(rep, L, 10, catalog40)
