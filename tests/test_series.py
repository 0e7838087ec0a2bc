"""Series kernel: arithmetic, alignment, binomial powers, composition."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvmf.classical import ClassicalCatalog
from vvmf.errors import (
    NomeMismatch,
    NonIntegralExponentGap,
    NonMonicLeadingCoefficient,
    NonUnitLeadingCoefficient,
    WrongNome,
    ZeroLeadingCoefficient,
)
from vvmf.series import (
    FixedSeries,
    Nome,
    PuiseuxSeries,
    VectorSeries,
    _int_operand_sizes,
    _kronecker_mul,
    _kronecker_pays,
    compose_frobenius,
    composition_dps,
    from_fixed,
    relative_residual,
    to_fixed,
)


def series(nome, lead, coeffs):
    return PuiseuxSeries.make(nome, lead, coeffs)


def coeffs_close(s, expected, tol=1e-12):
    assert len(s.coeffs) == len(expected)
    for got, want in zip(s.coeffs, expected):
        assert abs(complex(got) - complex(want)) <= tol, (s.coeffs, expected)


class TestAdd:
    def test_componentwise(self):
        out = series(Nome.Q, 0, [1, 2]) + series(Nome.Q, 0, [3, 4])
        coeffs_close(out, [4, 6])

    def test_alignment_by_integer_shift(self):
        out = series(Nome.Q, 1 / 3, [1, 0]) + series(Nome.Q, 4 / 3, [5])
        assert abs(complex(out.lead_exponent) - 1 / 3) < 1e-12
        coeffs_close(out, [1, 5])

    def test_non_integral_gap(self):
        with pytest.raises(NonIntegralExponentGap):
            series(Nome.Q, 1 / 3, [1]) + series(Nome.Q, 1 / 2, [1])

    def test_nome_mismatch(self):
        with pytest.raises(NomeMismatch):
            series(Nome.Q, 0, [1]) + series(Nome.Q2, 0, [1])

    def test_truncation_to_common_window(self):
        out = series(Nome.Q, 0, [1, 1, 1, 1]) + series(Nome.Q, 2, [1, 1, 1, 1])
        assert out.order == 3
        coeffs_close(out, [1, 1, 2, 2])


class TestMul:
    def test_square_truncates(self):
        out = series(Nome.Q, 0, [1, 1]) * series(Nome.Q, 0, [1, 1])
        coeffs_close(out, [1, 2])

    def test_exponent_addition(self):
        out = series(Nome.Q, 0.5, [1]) * series(Nome.Q, 0.5, [1])
        assert abs(complex(out.lead_exponent) - 1) < 1e-12
        coeffs_close(out, [1])

    def test_q_times_q(self):
        out = series(Nome.Q, 0, [0, 1, 0]) * series(Nome.Q, 0, [0, 1, 0])
        coeffs_close(out, [0, 0, 1])

    def test_scalar(self):
        out = series(Nome.Q, 0, [1, 2]).scale(2j)
        coeffs_close(out, [2j, 4j])

    @pytest.mark.parametrize("order", [3, 40], ids=["schoolbook", "packed"])
    def test_int_product_stays_int(self, catalog40, order):
        e4 = catalog40.eisenstein(4).truncate(order)
        e6 = catalog40.eisenstein(6).truncate(order)
        out = e4 * e6
        assert all(type(c) is int for c in out.coeffs)
        assert out.coeffs == tuple(reference_product(e4.coeffs, e6.coeffs, order))


def reference_product(a, b, n_out):
    """The truncated convolution, one multiply-add per coefficient pair."""
    out = []
    for n in range(n_out + 1):
        s = 0
        for i in range(n + 1):
            if i < len(a) and n - i < len(b):
                s += a[i] * b[n - i]
        out.append(s)
    return out


E4_40 = ClassicalCatalog(40).eisenstein(4).coeffs


class TestKroneckerKernel:
    """The packed int kernel, called directly so the cost rule cannot route
    around it."""

    @pytest.mark.parametrize(
        "a, b",
        [
            ([3, -5, 7, -11, 13], [-2, 4, -6, 8, -10]),
            ([0] * len(E4_40), E4_40),
            (list(range(-4, 5)), [1, -1, 2, -2]),
            ([-7], [6]),
            ([2**4096 + 1, -(2**4100), 3, 2**5000], [2**4097, 5, -1, -(2**4096)]),
            ([5, -3], [2, 7]),
            ([-1], [1]),
            ([127] * 3, [-127] * 3),
        ],
        ids=["signed", "zero-operand", "unequal-order", "length-1", "beyond-2^4096",
             "negative-top-slot", "negative-product", "length-in-slot-bound"],
    )
    def test_cases(self, a, b):
        # "negative-top-slot": the full product 10 + 29 x - 21 x^2 packs to a
        # negative integer, cut to two terms; "negative-product" is -1 itself;
        # "length-in-slot-bound": -3 * 127^2 needs 17 bits, 7 + 7 + sign fit 16
        n_out = min(len(a), len(b)) - 1
        assert _kronecker_mul(a, b, n_out) == reference_product(a, b, n_out)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(), min_size=1, max_size=24),
        st.lists(st.integers(), min_size=1, max_size=24),
        st.integers(min_value=0, max_value=23),
    )
    def test_matches_reference_loop(self, a, b, cut):
        n_out = min(len(a), len(b), cut + 1) - 1
        assert _kronecker_mul(a, b, n_out) == reference_product(a, b, n_out)


class TestKroneckerDispatch:
    """The cost rule, a pure function of the operand sizes, on the catalog
    products at order 800 (theta fourth powers at q2-order 1600)."""

    @staticmethod
    def sizes(x, y):
        n = min(x.order, y.order)
        return _int_operand_sizes(x.coeffs[: n + 1], y.coeffs[: n + 1])

    @pytest.mark.parametrize("name", ["Delta", "E4", "theta2_4", "theta3_4", "theta4_4"])
    def test_balanced_squarings_pack(self, catalog800, name):
        s = catalog800.series(name)
        assert _kronecker_pays(*self.sizes(s, s))

    def test_lopsided_products_stay_schoolbook(self, catalog800):
        delta = catalog800.delta()
        e4_cubed_inverse = (catalog800.eisenstein(4) ** 3).invert()
        assert not _kronecker_pays(*self.sizes(delta, e4_cubed_inverse))
        j, k = catalog800.j_invariant(), catalog800.k_hauptmodul()
        assert not _kronecker_pays(*self.sizes(j, k))

    def test_short_products_stay_schoolbook(self):
        assert not _kronecker_pays(*_int_operand_sizes([1, 2, 3], [4, 5, 6]))


#: signed mantissas of fixed-point parts: any size, and exact ties between
#: two doubles (54 bits ending in a lone 1 bit, so half-even picks a side)
mantissas = st.one_of(
    st.integers(min_value=-(2**200), max_value=2**200),
    st.integers(min_value=2**52, max_value=2**53 - 1).map(lambda k: 2 * k + 1),
    st.integers(min_value=2**52, max_value=2**53 - 1).map(lambda k: -(2 * k + 1)),
)


def exact_mpc(re: int, im: int, bits: int):
    """(re + i im) 2^-bits as an mpc, held exactly."""
    with mpmath.workprec(max(re.bit_length(), im.bit_length(), 1) + 8):
        return mpmath.mpc(mpmath.mpf((re, -bits)), mpmath.mpf((im, -bits)))


def fixed_series(nome, lead, coeffs, bits) -> FixedSeries:
    parts = [to_fixed(c, bits) for c in coeffs]
    return FixedSeries(
        PuiseuxSeries.make(nome, lead, [u for u, _ in parts]),
        PuiseuxSeries.make(nome, lead, [v for _, v in parts]),
        bits,
    )


class TestFixedPoint:
    """Encoding into and rounding out of the fixed-point series of the
    q-line block."""

    @settings(max_examples=300, deadline=None)
    @given(mantissas, mantissas, st.integers(min_value=-100, max_value=100))
    def test_downcast_rounds_like_complex_of_mpc(self, re, im, log2_size):
        # the scale puts the larger part near 2^log2_size: 1e-30 to 1e30
        bits = max(abs(re), abs(im), 1).bit_length() - log2_size
        exact = exact_mpc(re, im, bits)
        assert from_fixed(re, im, bits) == complex(exact)
        assert to_fixed(exact, bits) == (re, im)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-30, max_value=1e30),
        st.sampled_from([1, -1]),
        st.integers(min_value=0, max_value=2**64),
    )
    def test_encode_keeps_the_sign_and_rounds_to_nearest(self, size, sign, noise):
        with mpmath.workdps(60):
            x = sign * mpmath.mpf(size) * (1 + mpmath.mpf(noise) / 2**70)
            for bits in (0, 150, 300):
                re, im = to_fixed(mpmath.mpc(-x, x), bits)
                assert im == -re and (re <= 0 if sign > 0 else re >= 0)
                with mpmath.workprec(max(abs(re).bit_length(), 1) + 200):
                    assert abs(re - (-x) * mpmath.mpf(2) ** bits) <= 0.5

    def test_zero_and_exact_scalars(self):
        for zero in (0, 0.0, 0j, Fraction(0), mpmath.mpf(0), mpmath.mpc(0)):
            assert to_fixed(zero, 200) == (0, 0)
        assert from_fixed(0, 0, 200) == 0j and from_fixed(0, 0, -7) == 0j
        assert to_fixed(Fraction(-3, 4), 2) == (-3, 0)
        assert to_fixed(-2.5 + 1j, 1) == (-5, 2)
        assert to_fixed(mpmath.mpf(-0.375), 3) == (-3, 0)
        assert from_fixed(-5, 3, -2) == complex(-20, 12)
        with pytest.raises(ValueError):
            to_fixed(mpmath.mpf("inf"), 10)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.sampled_from([180, 201, 260]))
    def test_product_matches_mpc_product_at_order_80(self, seed, bits):
        # coefficients of modulus 1 to 1e6 with random phases
        rng = random.Random(seed)
        with mpmath.workdps(50):
            def coeffs():
                return [mpmath.mpf(10) ** (6 * rng.random()) * mpmath.expjpi(2 * rng.random())
                        for _ in range(81)]

            lam_a, lam_b = mpmath.mpc(0.3, 0.1), mpmath.mpc(-1.7, 0.25)
            a = fixed_series(Nome.Q, lam_a, coeffs(), bits)
            b = fixed_series(Nome.Q, lam_b, coeffs(), bits)
            got = (a * b).downcast()
            assert got.order == 80 and got.lead_exponent == complex(lam_a + lam_b)
            # the same encoded operands as mpc numbers, multiplied exactly
            ea, eb = (
                [exact_mpc(u, v, bits) for u, v in zip(s.re.coeffs, s.im.coeffs)] for s in (a, b)
            )
            with mpmath.workprec(4 * bits):
                exact = [mpmath.fsum(ea[i] * eb[n - i] for i in range(n + 1)) for n in range(81)]
            assert list(got.coeffs) == [complex(c) for c in exact]
            mp50 = PuiseuxSeries.make(Nome.Q, lam_a, ea) * PuiseuxSeries.make(Nome.Q, lam_b, eb)
        for x, y in zip(got.coeffs, mp50.coeffs):
            assert abs(x - complex(y)) <= 1e-15 * abs(x)

    def test_sum_needs_one_scale(self):
        a = fixed_series(Nome.Q, 0, [1, 2], 10)
        assert (a + a).downcast().coeffs == (2, 4)
        with pytest.raises(ValueError):
            a + fixed_series(Nome.Q, 0, [1, 2], 11)


class TestTheta:
    def test_monomial(self):
        out = series(Nome.Q, 0.25, [1]).theta()
        coeffs_close(out, [0.25])

    def test_kills_constants(self):
        out = series(Nome.Q, 0, [7, 0, 0]).theta()
        coeffs_close(out, [0, 0, 0])

    def test_half_integer_lead(self):
        out = series(Nome.Q, 0.5, [2, 4]).theta()
        coeffs_close(out, [1, 6])


class TestInvert:
    def test_geometric(self):
        out = series(Nome.Q, 0, [1, -1, 0, 0]).invert()
        coeffs_close(out, [1, 1, 1, 1])

    def test_monomial(self):
        out = series(Nome.Q, 2, [2]).invert()
        assert abs(complex(out.lead_exponent) + 2) < 1e-12
        coeffs_close(out, [0.5])

    def test_zero_lead_rejected(self):
        with pytest.raises(NonUnitLeadingCoefficient):
            series(Nome.Q, 0, [0, 1]).invert()

    def test_exact_for_unit_integer_series(self):
        s = series(Nome.Q, 0, [1, -3, 5, -7, 11, 13, -17, 19])
        inv = s.invert()
        assert all(isinstance(c, int) for c in inv.coeffs)
        prod = s * inv
        assert prod.coeffs[0] == 1
        assert all(c == 0 for c in prod.coeffs[1:])


class TestDivide:
    def test_round_trip(self):
        num = series(Nome.Q, 0, [1, 3, 5, 7, 9])
        den = series(Nome.Q, 0, [1, 2, 1, 0, 0])
        q = num.divide(den)
        coeffs_close(q * den, [1, 3, 5, 7, 9])

    def test_lead_exponents(self):
        q = series(Nome.Q, 1.5, [2, 0]).divide(series(Nome.Q, 0.5, [2, 0]))
        assert abs(complex(q.lead_exponent) - 1) < 1e-12
        coeffs_close(q, [1, 0])

    def test_zero_denominator(self):
        with pytest.raises(NonUnitLeadingCoefficient):
            series(Nome.Q, 0, [1]).divide(series(Nome.Q, 0, [0]))

    def test_exact_over_unit_integer_lead(self):
        num = series(Nome.Q, 0, [2, -3, 5, 7, -11])
        den = series(Nome.Q, 0, [-1, 4, 0, -2, 9])
        q = num.divide(den)
        assert all(type(c) is int for c in q.coeffs)
        assert (q * den).coeffs == num.coeffs

    def test_non_unit_integer_lead_is_not_exact(self):
        q = series(Nome.Q, 0, [1, 1]).divide(series(Nome.Q, 0, [2, 0]))
        assert q.coeffs == (0.5, 0.5)


class TestPowBinomial:
    def test_square(self):
        out = series(Nome.Q, 0, [1, 1, 0]).pow_binomial(2)
        coeffs_close(out, [1, 2, 1])

    def test_sqrt_binomial_coefficients(self):
        # independent oracle: C(1/2, n) by the falling-factorial recurrence
        n_max = 8
        want = [1.0]
        for n in range(n_max):
            want.append(want[-1] * (0.5 - n) / (n + 1))
        out = series(Nome.Q, 0, [1, 1] + [0] * (n_max - 1)).pow_binomial(0.5)
        coeffs_close(out, want)

    def test_power_zero(self):
        out = series(Nome.Q, 0, [1, 5, 7]).pow_binomial(0)
        coeffs_close(out, [1, 0, 0])

    def test_requires_monic(self):
        with pytest.raises(NonMonicLeadingCoefficient):
            series(Nome.Q, 0, [2, 1]).pow_binomial(0.5)
        with pytest.raises(NonMonicLeadingCoefficient):
            series(Nome.Q, 0.5, [1, 1]).pow_binomial(0.5)


class TestSlashTInverse:
    def test_sign_flip(self):
        out = series(Nome.Q2, 0, [1, 1]).slash_t_inverse()
        coeffs_close(out, [1, -1])

    def test_half_exponent_phase(self):
        out = series(Nome.Q2, 0.5, [1]).slash_t_inverse()
        coeffs_close(out, [-1j], tol=1e-14)

    def test_twice_is_global_phase(self):
        lam = 0.37
        s = series(Nome.Q2, lam, [1, 2, 3, 4])
        twice = s.slash_t_inverse().slash_t_inverse()
        phase = cmath.exp(-2j * cmath.pi * lam)
        coeffs_close(twice, [phase * c for c in s.coeffs], tol=1e-13)

    def test_wrong_nome(self):
        with pytest.raises(WrongNome):
            series(Nome.Q, 0, [1]).slash_t_inverse()


class TestCompose:
    def k_like(self, order=20):
        # 1728 q (1 - 744 q + 356652 q^2 ...) -- first terms of the hauptmodul
        coeffs = [1728, 1728 * -744, 1728 * 356652]
        coeffs += [0] * (order + 1 - len(coeffs))
        return PuiseuxSeries.make(Nome.Q, 1, coeffs)

    def test_constant(self):
        out = compose_frobenius(series(Nome.K, 0, [1] + [0] * 10), self.k_like(10))
        coeffs_close(out, [1] + [0] * 10)

    def test_identity(self):
        x = self.k_like(10)
        out = compose_frobenius(series(Nome.K, 1, [1] + [0] * 10), x)
        assert relative_residual(out - x, x) < 1e-13

    def test_sqrt_leading_terms(self):
        x = self.k_like(10)
        out = compose_frobenius(series(Nome.K, 0.5, [1] + [0] * 10), x)
        root = math.sqrt(1728)
        assert abs(complex(out.coeffs[0]) - root) < 1e-9
        assert abs(complex(out.coeffs[1]) - root * (-372)) < 1e-6

    def test_multiplicative(self):
        x = self.k_like(12)
        f = series(Nome.K, 0.3, [1, 2, -1] + [0] * 10)
        g = series(Nome.K, 0.9, [1, -3, 2] + [0] * 10)
        lhs = compose_frobenius(f * g, x)
        rhs = compose_frobenius(f, x) * compose_frobenius(g, x)
        assert relative_residual(lhs - rhs, lhs, rhs) < 1e-11

    def test_zero_leading_coefficient(self):
        bad = PuiseuxSeries.make(Nome.Q, 1, [0, 1, 1])
        with pytest.raises(ZeroLeadingCoefficient):
            compose_frobenius(series(Nome.K, 0, [1, 1]), bad)

    def test_wrong_nome_source(self):
        with pytest.raises(WrongNome):
            compose_frobenius(series(Nome.Q, 0, [1, 1]), self.k_like(5))

    def test_dps_covers_log10_1728_per_order(self):
        # K = 1728 q + ...: substituting it costs log10(1728) = 3.24 digits per
        # order, so 35 + 3.24 * 80 + 1 = 295 digits at order 80
        k_of_q = ClassicalCatalog(80).k_hauptmodul().truncate(80)
        assert composition_dps(k_of_q) >= 295


class TestVectorSeries:
    def test_shared_nome_enforced(self):
        with pytest.raises(NomeMismatch):
            VectorSeries(
                (series(Nome.Q, 0, [1]), series(Nome.Q2, 0, [1])), 0
            )

    def test_common_order(self):
        v = VectorSeries((series(Nome.Q, 0, [1, 2, 3]), series(Nome.Q, 0, [1, 2])), 2)
        assert v.order == 1
        assert v.rank == 2
        assert v.weight == 2


class TestSerialization:
    def test_round_trip(self):
        s = series(Nome.Q2, 0.25 + 0.5j, [1, -2j, 3.5])
        back = PuiseuxSeries.from_json(s.to_json())
        assert back.nome is s.nome
        assert abs(back.lead_exponent - complex(s.lead_exponent)) == 0
        coeffs_close(back, list(s.coeffs), tol=0)

    def test_overflow_names_coefficient_and_order(self):
        s = series(Nome.Q, 1, [1728, -(10**400), 0])
        with pytest.raises(OverflowError, match="coefficient 1 of an order-2 q-series"):
            s.to_json()


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-5, max_value=5, allow_nan=False)
coeff = st.builds(complex, finite, finite)
coeff_lists = st.lists(coeff, min_size=4, max_size=12)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_leibniz(a, b):
    n = min(len(a), len(b)) - 1
    s = series(Nome.Q, 0.25, a[: n + 1])
    t = series(Nome.Q, 0.75, b[: n + 1])
    lhs = (s * t).theta()
    rhs = s.theta() * t + s * t.theta()
    assert relative_residual(lhs - rhs, lhs, rhs) < 1e-10


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
def test_invert_round_trip(a):
    # well-conditioned inputs: unit leading coefficient, bounded tail
    s = series(Nome.Q, 0, [1 + 0.3 * abs(a[0])] + [0.4 * c for c in a[1:]])
    inv = s.invert()
    prod = s * inv
    one = PuiseuxSeries.one(Nome.Q, s.order)
    # error is measured against the scale the convolution actually works at
    assert relative_residual(prod - one, one, inv) < 1e-10


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.floats(min_value=-2, max_value=2))
def test_pow_binomial_inverse_pair(a, r):
    s = series(Nome.Q, 0, [1] + [0.3 * c for c in a[1:]])
    prod = s.pow_binomial(r) * s.pow_binomial(-r)
    one = PuiseuxSeries.one(Nome.Q, s.order)
    assert relative_residual(prod - one, one) < 1e-9


@settings(max_examples=30, deadline=None)
@given(coeff_lists)
def test_compose_linear(a):
    x = PuiseuxSeries.make(Nome.Q, 1, [2.0] + [0.5 * c for c in a[1:]])
    f = series(Nome.K, 0.4, a)
    g = series(Nome.K, 0.4, list(reversed(a)))
    lhs = compose_frobenius(f, x) + compose_frobenius(g, x)
    rhs = compose_frobenius(f + g, x)
    assert relative_residual(lhs - rhs, lhs, rhs) < 1e-9


@settings(max_examples=40, deadline=None)
@given(coeff_lists, st.floats(min_value=-1, max_value=1))
def test_slash_twice(a, lam):
    s = series(Nome.Q2, lam, a)
    twice = s.slash_t_inverse().slash_t_inverse()
    phase = cmath.exp(-2j * cmath.pi * lam)
    expect = s.scale(phase)
    assert relative_residual(twice - expect, s) < 1e-11
