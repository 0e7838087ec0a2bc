"""Classification, equation coefficients, Frobenius solving, derivative and
basis assembly, with symmetric-polynomial and term-ratio oracles."""

import ast
import cmath
import random
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vvmf.mlde
from vvmf.constructions import RANK2_ROUTE, SYM3_ROUTE, TENSOR_ROUTE
from vvmf.errors import (
    DegenerateC,
    ExponentSumMismatch,
    NonIntegralExponentGap,
    NonIntegralThreeTrace,
    NotAnExponent,
    Resonance,
    TraceDCongruenceViolation,
    WrongNome,
    WrongRank,
    ZeroForm,
)
from vvmf.mlde import (
    CYCLIC,
    GENERIC_ROUTE,
    NONCYCLIC,
    CaseReport,
    _compiled_step,
    _pack,
    _real_form,
    assemble_cyclic_basis,
    classify,
    cyclic_coeffs,
    cyclic_system,
    dimension,
    generic_basis,
    indicial_shifts,
    modular_derivative,
    noncyclic_coeffs,
    noncyclic_system,
    qline_precision,
    qline_solve,
    staged,
    system_residuals,
)
from vvmf.reps import ExponentData, Rank2Rep, Rank4Rep
from vvmf.series import FormStack, Nome, PuiseuxSeries, VectorSeries, relative_residual, to_fixed

from oracles import (
    PoleInC,
    build_cyclic_operator,
    build_hypergeometric_operator,
    build_noncyclic_operator,
    frobenius_solve,
    hypergeom_2f1,
    left_solve,
    operator_residual,
    pivoted_solve,
    rank2_coeff,
    rank4_cyclic_coeffs,
    sliced_left_solve,
    step_pattern,
    unit_chain,
)
from test_acceptance import FREENESS_TOL, freeness_deviation
from test_route_properties import inputs


def record_eliminations(patch) -> list:
    """Patch the q-line step so that each step appends one entry per
    exponent it solves: the size of its free block, the variables its unit
    chain leaves to a floor division (one) or an elimination (more)."""
    sizes = []
    compiled = vvmf.mlde._compiled_step

    def counted(R, r, pattern):
        step = compiled(R, r, pattern)
        free = len(unit_chain(pattern, R)[0])
        return lambda *args: sizes.extend([free] * r) or step(*args)

    patch.setattr(vvmf.mlde, "_compiled_step", counted)
    return sizes


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

    def test_rank_two_is_cyclic(self):
        # k1 = 6 Tr(L) - 1, and the rep's determinant power and parity for
        # d and e: xy = e^{2 pi i 3/6} = -1, so rho(-I) = +I
        r1, r2 = (3 / 6 + 0.17) / 2, (3 / 6 - 0.17) / 2
        report = classify(*rank2_input((r1, r2)))
        assert report == CaseReport(CYCLIC, 2, (2, 4), 3, 0)


@st.composite
def rank2_pairs(draw):
    """An exponent pair ((s/6 + delta)/2, (s/6 - delta)/2) of the benchmark
    pools' form, delta real or complex."""
    s = draw(st.integers(min_value=0, max_value=13))
    delta = complex(draw(st.floats(0.02, 0.48)), draw(st.sampled_from([0.0, 0.07, -0.11])))
    return ((s / 6 + delta) / 2, (s / 6 - delta) / 2)


def rank2_input(pair) -> tuple:
    r1, r2 = pair
    return Rank2Rep(cmath.exp(2j * cmath.pi * r1), cmath.exp(2j * cmath.pi * r2)), \
        ExponentData(pair)


def passes(precondition, *args) -> bool:
    """Whether the benchmark pools' precondition rule admits ``args``."""
    try:
        precondition(*args)
    except inputs.PreconditionError:
        return False
    return True


@st.composite
def generic_inputs(draw):
    """A rank-4 input of :func:`admissible`: d, the parity e != d mod 2 and
    3 Tr(L) = m = d mod 3, either case."""
    d = draw(st.integers(min_value=0, max_value=5))
    m = d + 3 * draw(st.integers(min_value=0, max_value=4))
    es = draw(st.lists(st.floats(-0.3, 0.5), min_size=3, max_size=3))
    return admissible(es, m, d, (d + 1) % 2)


def weight_sum(route, inputs_) -> tuple:
    """The weights the driver classifies a route's input to, and 12 Tr(L)
    of the exponents its check returns."""
    report = staged(route, inputs_, 1, None, "classify")[0]
    return sum(report.weight_tuple), 12 * route.check(*inputs_)[1].trace


class TestWeightSum:
    """The weights of a free basis sum to 12 Tr(L) (Marks and Mason, J.
    London Math. Soc. 82, 2010), on every route, case and rank; rank-2
    inputs are drawn by the benchmark pools' precondition rules."""

    @settings(max_examples=150, deadline=None)
    @given(rank2_pairs())
    def test_rank2_and_sym3(self, pair):
        assume(passes(inputs.check_sym3, pair))
        for route, reps in ((RANK2_ROUTE, rank2_input(pair)), (SYM3_ROUTE, rank2_input(pair))):
            total, trace = weight_sum(route, reps)
            assert total == round(trace.real) and abs(trace - total) < 1e-9

    @settings(max_examples=150, deadline=None)
    @given(rank2_pairs(), rank2_pairs())
    def test_tensor_and_its_factors(self, p, q):
        assume(passes(inputs.check_tensor, p, q))
        (alpha, L1), (beta, L2) = rank2_input(p), rank2_input(q)
        for route, reps in ((RANK2_ROUTE, (alpha, L1)), (RANK2_ROUTE, (beta, L2)),
                            (TENSOR_ROUTE, (alpha, beta, L1, L2))):
            total, trace = weight_sum(route, reps)
            assert total == round(trace.real) and abs(trace - total) < 1e-9

    @settings(max_examples=150, deadline=None)
    @given(generic_inputs())
    def test_generic(self, rep_and_exponents):
        total, trace = weight_sum(GENERIC_ROUTE, rep_and_exponents)
        assert total == round(trace.real) and abs(trace - total) < 1e-9


class TestDimension:
    def test_below_cutoff_and_parity(self):
        rep, L = admissible([0.11, 0.18, 0.31], 7, 1, 0)
        assert dimension(2, rep, L) == 0  # below 3Tr-3 = 4
        assert dimension(5, rep, L) == 0  # d = 1 parity
        assert dimension(4, rep, L) == 1  # unique minimal form

    def test_rank_two_is_refused_by_rank(self):
        # classify takes a rank-2 representation, but the parity and Euler
        # terms of dim M_k are rank 4's: a typed error, raised before them
        r1, r2 = (3 / 6 + 0.17) / 2, (3 / 6 - 0.17) / 2
        with pytest.raises(WrongRank, match="rank 2"):
            dimension(4, *rank2_input((r1, r2)))

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



def poly_mul(p, q) -> list:
    """Product of two coefficient lists, lowest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def falling(m: int) -> list:
    """P_m(x) = prod_{i<m} (x - i/6), what D^m multiplies a leading x^f by;
    zero for m < 0."""
    if m < 0:
        return [0]
    p = [Fraction(1)]
    for i in range(m):
        p = poly_mul(p, [-Fraction(i, 6), 1])
    return p


def poly_sum(*polys) -> list:
    out = [0] * max(map(len, polys))
    for p in polys:
        for i, x in enumerate(p):
            out[i] += x
    return out


@st.composite
def shifted_exponents(draw, ranks=(2, 4)):
    """A rank r and r shifted exponents of one number kind summing to
    r(r-1)/12: mpc at QLINE_DPS (full mantissas, from an added 1/7), mpf,
    float, complex or Fraction, drawn from doubles, signed zeros and
    subnormals included."""
    r = draw(st.sampled_from(ranks))
    kind = draw(st.sampled_from(("mpc", "mpf", "float", "complex", "Fraction")))
    part = st.floats(-2, 2)
    parts = draw(st.lists(st.tuples(part, part), min_size=r - 1, max_size=r - 1))
    total = Fraction(r * (r - 1), 12)
    with qline_precision():
        if kind == "mpc":
            f = [mpmath.mpc(re, im) + mpmath.mpf(1) / 7 for re, im in parts]
            total = mpmath.mpf(r * (r - 1)) / 12
        elif kind == "mpf":
            f = [mpmath.mpf(re) + mpmath.mpf(1) / 7 for re, _ in parts]
            total = mpmath.mpf(r * (r - 1)) / 12
        elif kind == "float":
            f, total = [re for re, _ in parts], r * (r - 1) / 12
        elif kind == "complex":
            f, total = [complex(re, im) for re, im in parts], r * (r - 1) / 12
        else:
            f = [Fraction(re) + Fraction(1, 7) for re, _ in parts]
        return r, f + [total - sum(f)]


class TestCyclicRule:
    """One shift rule, one coefficient rule and one system builder for the
    cyclic equations of rank r <= 4."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 4),
           st.lists(st.fractions(-3, 3, max_denominator=1000), min_size=3, max_size=3))
    def test_indicial_polynomial_is_the_product(self, r, free):
        # P_r + a P_{r-2} + b P_{r-3} + c P_{r-4} = prod (x - f_j), exactly
        f = free[:r - 1]
        f.append(Fraction(r * (r - 1), 12) - sum(f))
        co = cyclic_coeffs(f)
        got = poly_sum(falling(r), *(poly_mul([v], falling(r - k))
                                     for v, k in ((co.a, 2), (co.b, 3), (co.c, 4))))
        want = [1]
        for x in f:
            want = poly_mul(want, [-x, 1])
        assert got == want
        assert all(v == 0 for v in (co.b, co.c)[r - 2:])  # no such term below rank 4

    @settings(max_examples=600, deadline=None)
    @given(shifted_exponents())
    # f1 f2 is a signed zero: a float product that underflows, and a complex
    # one whose sign 1 * f1 would drop
    @example((2, [-5e-324, 0.16666666666666666]))
    @example((2, [complex(-0.0, -0.0), 1 / 6 + 0j]))
    def test_coefficients_are_the_rank_by_rank_formulas(self, draw):
        # a, b and c keep the bytes of the two rules first written, one for
        # rank two and one for rank four, in every number kind, signed
        # zeros included
        r, f = draw
        with qline_precision():
            co = cyclic_coeffs(f)
            want = (rank2_coeff(*f),) if r == 2 else rank4_cyclic_coeffs(f)
        assert repr((co.a, co.b, co.c)[:len(want)]) == repr(want)

    @settings(max_examples=300, deadline=None)
    @given(shifted_exponents(ranks=(4,)))
    def test_rank_four_shift_is_the_rank_four_rule(self, draw):
        _, eigs = draw
        with qline_precision():
            tr = sum(eigs)
            assert repr(indicial_shifts(eigs, CYCLIC)) == repr(tuple(e + (1 - tr) / 4
                                                                     for e in eigs))

    @pytest.mark.parametrize("nome", [Nome.Q, Nome.Q2])
    def test_systems_are_the_rank_two_and_rank_four_blocks(self, catalog40, nome):
        # the blocks of the two builders first written, in their order, which
        # the residual sums of system_residuals follow
        e4, e6 = ((catalog40.eisenstein(k), catalog40.eisenstein_q2(k))[nome is Nome.Q2]
                  for k in (4, 6))
        one = PuiseuxSeries.one(nome, catalog40.order if nome is Nome.Q else catalog40.q2_order)
        with qline_precision():
            x = mpmath.mpc(0.31, -0.07) + mpmath.mpf(1) / 7
            co2 = cyclic_coeffs((x, mpmath.mpf(1) / 6 - x))
            co4 = cyclic_coeffs((x, x / 3, -x / 5, 1 - x - x / 3 + x / 5))
        want2 = [({(1, 0): 1}, one), ({(0, 1): -co2.a}, e4)]
        want4 = [({(1, 0): 1, (2, 1): 1, (3, 2): 1}, one), ({(2, 3): -co4.a}, e4),
                 ({(1, 3): -co4.b}, e6), ({(0, 3): -co4.c}, catalog40.e4_squared(nome))]
        for co, want in ((co2, want2), (co4, want4)):
            system = cyclic_system(co, catalog40, nome)
            assert [repr(S) for S, _ in system] == [repr(S) for S, _ in want]
            assert [e for _, e in system] == [e for _, e in want]

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
        steps = record_eliminations(monkeypatch)
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

    @pytest.mark.parametrize("lead", [-1, Fraction(1, 2), 0.5], ids=["q^-1", "q^1/2", "q^0.5"])
    def test_series_must_lead_at_a_power(self, catalog40, lead):
        # the system's series are read through the shift rule of the double
        # check: a series leading at q^-1 was solved as if it led at q^0,
        # and one leading at q^(1/2) raised a bare TypeError
        co = self.co()
        (const, one), (e4_part, e4) = noncyclic_system(co, catalog40)
        shifted = PuiseuxSeries(Nome.Q, lead, e4.coeffs)
        with pytest.raises(NonIntegralExponentGap, match="not a power"), qline_precision():
            qline_solve(self.weights(), [(const, one), (e4_part, shifted)],
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


#: the unit entries (i, j) of the step matrix b of a cyclic system of rank
#: r (ones below the diagonal) and of the noncyclic one; the other entries
#: of those shapes are the equation's column (cyclic), or the entries a, b,
#: c (noncyclic), and the diagonal
SHAPES = {
    "cyclic": lambda r: ([(i + 1, i) for i in range(r - 1)], [(i, r - 1) for i in range(r - 1)]),
    "noncyclic": lambda r: ([(1, 0), (3, 1), (0, 2)], [(0, 1), (1, 3), (2, 3)]),
}


def _shaped(draw, shape: str, r: int, entry, unit: int, signs) -> list:
    """A step matrix b of r x r Gaussian entries (re, im): every entry drawn
    by ``entry`` for the shape "random"; for "cyclic" and "noncyclic" the
    units of :data:`SHAPES`, +-2^p by ``signs``, the shape's other entries
    and the diagonal drawn, and zeros elsewhere."""
    if shape == "random":
        return [[entry() for _ in range(r)] for _ in range(r)]
    units, others = SHAPES[shape](r)
    b = [[(0, 0)] * r for _ in range(r)]
    for (i, j), sign in zip(units, signs):
        b[i][j] = (sign * unit, 0)
    for i, j in others + [(i, i) for i in range(r)]:
        b[i][j] = entry()
    return b


def _shape(draw, r: int):
    return draw(st.sampled_from(["random", "cyclic"] + ["noncyclic"] * (r == 4)))


@st.composite
def step_systems(draw):
    """(m, p): a step matrix a, r = 1-4, as the real form (c = 1 or 2) of
    Gaussian integers at 2^-p, transposed and followed by right-hand sides
    of 0-300 bits.  Entries are often 0 or +-1, +-2 units, so columns hold
    zeros, unit chains and tied pivots; the matrix is random, or of the
    cyclic or noncyclic shape (:func:`_shaped`); it may be singular."""
    r, c = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2]))
    p = draw(st.sampled_from([8, 202]))
    unit = 1 << p
    part = st.one_of(st.sampled_from([0, unit, -unit, 2 * unit, -2 * unit]), _signed(p + 3))
    rhs_part = st.integers(0, 300).flatmap(_signed)

    def entry(values=part):
        return (draw(values), draw(values) if c == 2 else 0)

    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3))
    a = _shaped(draw, _shape(draw, r), r, entry, unit, signs)
    rhs = [entry(rhs_part) for _ in range(r)]
    return [[*col, u] for col, u in zip(zip(*_real_form(a, c)), _real_form([rhs], c)[0])], p


@st.composite
def step_batches(draw):
    """(R, mats, rhs, shift, p): the transposed step matrices of r = 1-3
    exponents on R = 1, 2, 3, 4, 6 or 8 real rows, each the real form
    (c = 1 or 2) of Gaussian integers at 2^-p drawn as in
    :func:`step_systems`, all of one shape, flattened row by row; per
    exponent the R right-hand sides of a step before its shift right by p
    (0-300 bits above p); and what the step adds to every diagonal."""
    R = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    c = 2 if R > 4 else 1 if R % 2 else draw(st.sampled_from([1, 2]))
    p = draw(st.sampled_from([8, 202]))
    unit = 1 << p
    part = st.one_of(st.sampled_from([0, unit, -unit, 2 * unit, -2 * unit]), _signed(p + 3))
    rhs_part = st.integers(0, 300 + p).flatmap(_signed)

    def entry():
        return (draw(part), draw(part) if c == 2 else 0)

    shape = _shape(draw, R // c)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3))
    mats, rhs = [], []
    for _ in range(draw(st.integers(1, 3))):
        a = _shaped(draw, shape, R // c, entry, unit, signs)
        mats.append(tuple(v for col in zip(*_real_form(a, c)) for v in col))
        rhs.append([draw(rhs_part) for _ in range(R)])
    return R, mats, rhs, draw(st.sampled_from([0, unit // 2, 3 * unit])), p


def _solved(solve, m, p):
    """x from a solve of a copy of m, or the type of what it raised."""
    try:
        return solve([list(row) for row in m], p)
    except ArithmeticError as exc:
        return type(exc)


def generated_solve(m, p: int) -> list:
    """x of m (as for :func:`oracles.left_solve`) by the generated q-line
    step of one exponent with m's own pattern, its right-hand side entering
    shifted up by p."""
    R = len(m)
    mat = tuple(v for row in m for v in row[:R])
    pattern = vvmf.mlde._step_pattern([mat], R, p)
    assert pattern == step_pattern([m], p)
    xs, _, _ = _compiled_step(R, 1, pattern)([row[R] << p for row in m], [mat], 0, 0, p)
    return list(xs)


def exact_step(m, p: int) -> list:
    """The exact solution xi of sum_j m_ij xi_j = rhs_i 2^p, in Fractions."""
    R = len(m)
    rows = [[Fraction(v) for v in row[:R]] + [Fraction(row[R] << p)] for row in m]
    for col in range(R):
        piv = next(i for i in range(col, R) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        for i in range(R):
            if i != col and rows[i][col]:
                f = rows[i][col] / rows[col][col]
                rows[i] = [u - f * w for u, w in zip(rows[i], rows[col])]
    return [row[R] / row[i] for i, row in enumerate(rows)]


def floor_divisions(R: int, r: int, pattern) -> int:
    """The floor divisions in the source of the generated step."""
    tree = ast.parse(vvmf.mlde._step_source(R, r, pattern))
    return sum(isinstance(node, ast.FloorDiv) for node in ast.walk(tree))


class TestLeftSolve:
    """One step of the q-line recursion: x a = rhs in fixed-point integers,
    on a real matrix or on the real form of a complex one, checked by its
    exact complex residual, against the exact solution and against the
    loops of the oracles."""

    @settings(max_examples=300, deadline=None)
    @given(step_systems())
    def test_matches_the_sliced_elimination(self, system):
        # the same first-largest pivots, floored multipliers and back
        # substitution give the same x; a singular matrix raises the same.
        # The generated step takes the unit chain of the loop oracle
        m, p = system
        assert _solved(pivoted_solve, m, p) == _solved(sliced_left_solve, m, p)
        assert _solved(generated_solve, m, p) == _solved(left_solve, m, p)

    @settings(max_examples=300, deadline=None)
    @given(step_batches())
    def test_generated_step_matches_the_loop(self, batch):
        # the packed right-hand sides at the narrowest lanes that hold them,
        # unpacked and floored by p, each exponent's diagonal advanced by
        # the shift, then one loop solve per exponent in order, on the
        # pattern of all of them: the same x, or the exception of the first
        # singular matrix; the row bits and the lanes packed for the
        # history follow from x
        R, mats, rhs, shift, p = batch
        width = max(abs(v) for row in rhs for v in row).bit_length() + 1
        acc = [_pack([row[i] for row in rhs], width) for i in range(R)]
        pattern = vvmf.mlde._step_pattern(mats, R, p)
        assert pattern == step_pattern([[mat[j * R:(j + 1) * R] for j in range(R)]
                                        for mat in mats], p)
        want = []
        try:
            for mat, row in zip(mats, rhs):
                m = [[*mat[j * R:(j + 1) * R], row[j] >> p] for j in range(R)]
                for j in range(R):
                    m[j][j] += shift
                want += left_solve(m, p, pattern)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                _compiled_step(R, len(mats), pattern)(acc, mats, shift, width, p)
            return
        xs, bits, lanes = _compiled_step(R, len(mats), pattern)(acc, mats, shift, width, p)
        assert list(xs) == want
        assert bits == max(map(abs, xs)).bit_length()
        assert lanes == [_pack(xs[i::R], width) for i in range(R)]

    @settings(max_examples=300, deadline=None)
    @given(step_systems())
    def test_each_x_is_within_its_stated_bound(self, system):
        # against the exact solution xi of the step's equations: a free
        # block of one variable is the floor of its xi, xi - 1 < x <= xi;
        # a chained x_u, read off equation i, is within 1 + sum_j
        # |m_ij| 2^-p |x_j - xi_j| of its xi, the errors of the variables
        # it is read from
        m, p = system
        R = len(m)
        try:
            x, xi = generated_solve(m, p), exact_step(m, p)
        except (ZeroDivisionError, StopIteration):
            return  # a singular matrix or free block
        free, chain, _ = unit_chain(step_pattern([m], p), R)
        error = [abs(u - v) for u, v in zip(x, xi)]
        if len(free) == 1:
            assert xi[free[0]] - 1 < x[free[0]] <= xi[free[0]]
        for u, i in chain:
            bound = 1 + sum(Fraction(abs(m[i][j]), 1 << p) * error[j] for j in range(R) if j != u)
            assert error[u] < bound

    @pytest.mark.parametrize("shape, R, free", [
        ("cyclic", 4, (0,)), ("noncyclic", 4, (2,)), ("cyclic", 2, (0,)), ("cyclic", 1, (0,)),
        ("cyclic", 8, (0, 4)), ("noncyclic", 8, (2, 6))])
    def test_chains_of_the_systems(self, shape, R, free):
        # the real rank-4 cyclic chain x1, x2, x3 from rows 0, 1, 2; the
        # noncyclic x0, x1, x3 from rows 2, 0, 1; rank 2 x1 from row 0;
        # rank 1 no chain; the complex real forms (R = 8) leave a 2 x 2 block
        c, r = (2, R // 2) if R == 8 else (1, R)
        p = 8
        units = SHAPES[shape](r)[0]
        b = [[(3 << p, 3 << p if c == 2 else 0)] * r for _ in range(r)]
        for i in range(r):
            for j in range(r):
                if (i, j) in units:
                    b[i][j] = (-(1 << p), 0)
                elif (i, j) not in SHAPES[shape](r)[1] and i != j:
                    b[i][j] = (0, 0)
        mat = tuple(v for col in zip(*_real_form(b, c)) for v in col)
        pattern = vvmf.mlde._step_pattern([mat], R, p)
        got_free, chain, left = vvmf.mlde._unit_chain(R, pattern)
        assert got_free == free
        if R == 4:
            assert chain == {"cyclic": ((1, 0), (2, 1), (3, 2)),
                             "noncyclic": ((0, 2), (1, 0), (3, 1))}[shape] and left == (3,)
        if R in (1, 2):
            assert chain == ((1, 0),)[:R - 1] and left == (R - 1,)
        # one floor division per exponent when the block is one variable
        if len(free) == 1:
            assert floor_divisions(R, 3, pattern) == 3

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
        x = generated_solve(m, p)
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
            assemble_cyclic_basis(FormStack.of([zero]), co, catalog40,
                                  CaseReport(CYCLIC, 0, (0, 2, 4, 6), 0, 0))

    def test_degenerate_c_rejected(self, catalog40):
        co = noncyclic_coeffs([0, Fraction(1, 6), Fraction(1, 6), Fraction(1, 3)])
        with pytest.raises(DegenerateC):
            noncyclic_system(co, catalog40)


class TestGenericPipeline:
    def test_cyclic_route(self, catalog40):
        rep, L = admissible([0.11, 0.18, 0.31], 7, 1, 0)
        report, co, basis = staged(GENERIC_ROUTE, (rep, L), 25, catalog40, "minimal")
        F, res = basis.forms[0], basis.residuals
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
            staged(GENERIC_ROUTE, (rep, L), 10, catalog40, "minimal")
