"""Series kernel: arithmetic, alignment, binomial powers, composition."""

import cmath
import math
import operator
import random
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vvmf.constructions
import vvmf.series
from vvmf.classical import ClassicalCatalog
from vvmf.errors import (
    NomeMismatch,
    NonIntegralExponentGap,
    NonMonicLeadingCoefficient,
    WrongNome,
    ZeroLeadingCoefficient,
)
from vvmf.series import (
    FixedSeries,
    Nome,
    PuiseuxSeries,
    VectorSeries,
    _complex_mul,
    _int_kernel,
    _kronecker_mul,
    _loop_mul,
    _limb_bits,
    compose_frobenius,
    pair_mul,
    relative_residual,
    to_fixed,
)

from oracles import composition_dps, emitted_coeffs


finite = st.floats(min_value=-5, max_value=5, allow_nan=False)


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12),
        st.lists(st.builds(complex, finite, finite), min_size=1, max_size=12),
        st.integers(min_value=-14, max_value=14),
    )
    def test_matches_reference_loop(self, a, b, gap):
        # lo's window from its leading exponent, hi's coefficients added from
        # the shift on, up to the end of the shorter window; in either order
        x, y = series(Nome.Q, 0.25, a), series(Nome.Q, 0.25 + gap, b)
        lo, hi, shift = (x, y, gap) if gap >= 0 else (y, x, -gap)
        want = []
        for n in range(min(lo.order, shift + hi.order) + 1):
            c = lo.coeffs[n]
            if 0 <= n - shift <= hi.order:
                c = c + hi.coeffs[n - shift]
            want.append(c)
        for out in (x + y, y + x):
            assert out.lead_exponent == lo.lead_exponent
            assert out.coeffs == tuple(want)
            assert [type(c) for c in out.coeffs] == [type(c) for c in want]


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

    @pytest.mark.parametrize("order", [3, 40], ids=["schoolbook", "packed"])
    def test_int_product_beyond_the_double_mantissa_stays_exact(self, order):
        # 2^60 + odd: a double would drop the low bits of every coefficient
        a = series(Nome.Q, 0, [2**60 + 2 * k + 1 for k in range(order + 1)])
        b = series(Nome.Q, 0, [-(2**61) + 3 * k + 1 for k in range(order + 1)])
        kernel = _kronecker_mul if order == 40 else _loop_mul
        assert _int_kernel(a.coeffs, b.coeffs) is kernel
        out = a * b
        assert all(type(c) is int for c in out.coeffs)
        assert out.coeffs == tuple(reference_product(a.coeffs, b.coeffs, order))


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


def geometric(base: int, sign: int, lead: int, length: int) -> list[int]:
    """lead * (sign * base)^n: coefficients that grow like K's 231^n."""
    return [lead * (sign * base) ** n for n in range(length)]


# lengths drawn uniformly, so that products long enough to pack are common
int_operands = st.one_of(
    st.integers(1, 120).flatmap(lambda n: st.lists(
        st.integers(min_value=-(10**30), max_value=10**30), min_size=n, max_size=n)),
    st.builds(geometric, st.integers(2, 2000), st.sampled_from([-1, 1]),
              st.integers(-(10**6), 10**6), st.integers(1, 120)),
)


class TestIntProduct:
    """``PuiseuxSeries.__mul__`` on all-int series gives the reference
    convolution's ints whichever kernel the cost rule picks: balanced
    operands up to 10^30, and operands that grow geometrically like K's."""

    @settings(max_examples=200, deadline=None)
    @given(int_operands, int_operands, st.integers(min_value=0, max_value=119))
    def test_every_int_product_is_exact(self, a, b, cut):
        x = series(Nome.Q, 0, a).truncate(min(len(a) - 1, cut))
        y = series(Nome.Q, 0, b)
        n_out = min(x.order, y.order)
        got = (x * y).coeffs
        assert got == tuple(reference_product(a[: n_out + 1], b[: n_out + 1], n_out))
        assert all(type(c) is int for c in got)

    @pytest.mark.parametrize("n", [1, 2, 9, 21, 50, 81, 97, 120])
    def test_both_kernels_at_fixed_lengths(self, n):
        # called directly so the cost rule cannot route around either one:
        # K-like growth against balanced 10^29 coefficients, both operand
        # orders, full and half-length outputs
        a = geometric(1728, -1, 1, n)
        b = [(-1) ** i * (10**29 + 7 * i) for i in range(n)]
        for kernel in (_kronecker_mul, _loop_mul):
            for x, y in ((a, b), (b, a)):
                assert kernel(x, y, n - 1) == loop_product(x, y)
                half = n // 2
                assert kernel(x, y, half) == loop_product(x[: half + 1], y[: half + 1])
                assert all(type(c) is int for c in kernel(x, y, n - 1))


class TestKroneckerDispatch:
    """The cost rule, a pure function of the operands' lengths and bit
    lengths, on the catalog products at order 800 (theta fourth powers at
    q2-order 1600), on j's product at order 1600, and on j * K at orders
    200 to 800."""

    @staticmethod
    def operands(x, y):
        n = min(x.order, y.order)
        return x.coeffs[: n + 1], y.coeffs[: n + 1]

    @pytest.mark.parametrize("name", ["Delta", "E4", "theta2_4", "theta3_4", "theta4_4"])
    def test_balanced_squarings_pack(self, catalog800, name):
        s = catalog800.series(name)
        assert _int_kernel(*self.operands(s, s)) is _kronecker_mul

    def test_lopsided_products_do_not_pack(self, catalog800):
        delta = catalog800.delta()
        e4_cubed_inverse = (catalog800.eisenstein(4) ** 3).invert()
        assert _int_kernel(*self.operands(delta, e4_cubed_inverse)) is _loop_mul

    def test_short_products_stay_schoolbook(self):
        assert _int_kernel([1, 2, 3], [4, 5, 6]) is _loop_mul

    @pytest.mark.parametrize("order", [200, 400, 800])
    def test_j_times_k_crossover(self, order):
        # K's coefficients grow like 231^n, to 6,300 bits at order 800;
        # j's reach 505: packing pads j to K's slot, so the loop serves
        catalog = ClassicalCatalog(order)
        j, k = catalog.j_invariant(), catalog.k_hauptmodul()
        assert _int_kernel(*self.operands(j, k)) is _loop_mul

    def test_balanced_products_pack_past_twenty_terms(self, catalog800):
        # the benchmark passes square at 9 terms (the warm-up), 21 and 81
        e4 = catalog800.eisenstein(4)
        kernels = {n: _int_kernel(*self.operands(e4.truncate(n), e4)) for n in (8, 20, 80, 800)}
        assert kernels == {8: _loop_mul, 20: _kronecker_mul, 80: _kronecker_mul,
                           800: _kronecker_mul}

    def test_j_product_packs_at_order_1600(self):
        # E4^3 * eta^-24: neither operand's coefficients grow geometrically
        catalog = ClassicalCatalog(1600)
        e4_cubed, eta_inv24 = catalog.e4_cubed(), catalog.eta_power(-24)
        assert _int_kernel(*self.operands(e4_cubed, eta_inv24)) is _kronecker_mul


def exact_parts(z) -> tuple[Fraction, Fraction]:
    """A builtin int, float or complex as exact rational (re, im)."""
    if isinstance(z, complex):
        return Fraction(z.real), Fraction(z.imag)
    return Fraction(z), Fraction(0)


def check_within_kernel_bound(a, b, got):
    """Each coefficient of the double kernel's product is the exact product
    of the double operands, rounded once to double, up to the long double
    accumulation error: |got_n - c_n| <= 2^-53 |c_n| + 2 (n+1) eps S_n,
    with S_n = sum |a_i| |b_{n-i}| and eps long double's epsilon (2^-63 on
    x86-64; where long double is double, 2^-52).  That is well inside
    (n+1) 2^-52 S_n, the bound of a double-precision loop."""
    eps = Fraction(float(np.finfo(np.longdouble).eps))
    for n, g in enumerate(got):
        re = im = size = Fraction(0)
        for i in range(n + 1):
            ar, ai = exact_parts(a[i])
            br, bi = exact_parts(b[n - i])
            re += ar * br - ai * bi
            im += ar * bi + ai * br
            size += Fraction(abs(complex(a[i]))) * Fraction(abs(complex(b[n - i])))
        gr, gi = exact_parts(g)
        err = max(abs(gr - re), abs(gi - im))
        assert err <= Fraction(1, 2**53) * max(abs(re), abs(im)) + 2 * (n + 1) * eps * size, n
        assert err <= (n + 1) * Fraction(1, 2**52) * size, n


doubles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
#: signed coefficients of modulus 1e-6 to 1e9, spread as a derived form's are
spread = st.builds(lambda x, e: x * 10.0**e, doubles.filter(lambda x: abs(x) > 1e-3),
                   st.integers(min_value=-3, max_value=3)) | st.just(0.0)
double_kinds = {
    "int": st.integers(min_value=-(2**53), max_value=2**53),
    "float": spread,
    "complex": st.builds(complex, spread, spread),
}


class TestDoubleKernel:
    """The numpy convolution behind every product of builtin doubles."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([("int", "complex"), ("float", "complex"), ("complex", "complex"),
                         ("complex", "int"), ("float", "float"), ("int", "float")]),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
        st.data(),
    )
    def test_matches_exact_product(self, kinds, len_a, len_b, data):
        # unequal orders: the product is cut to the shorter operand; length
        # 1 is order 0
        a = data.draw(st.lists(double_kinds[kinds[0]], min_size=len_a + 1, max_size=len_a + 1))
        b = data.draw(st.lists(double_kinds[kinds[1]], min_size=len_b + 1, max_size=len_b + 1))
        out = series(Nome.Q, 0.5, a) * series(Nome.Q, 0.25j, b)
        assert out.order == min(len_a, len_b) and out.lead_exponent == 0.5 + 0.25j
        want_type = complex if "complex" in kinds else float
        assert all(type(c) is want_type for c in out.coeffs)
        check_within_kernel_bound(a, b, out.coeffs)

    def test_cancelling_product_is_rounded_once(self, catalog40):
        # Delta times the modular derivative of E6, the product of the graded
        # Leibniz test: its coefficients cancel by up to five digits
        g = catalog40.delta()
        df = catalog40.modular_derive(catalog40.eisenstein(6), 6)
        assert not any(c.imag for c in df.coeffs)
        got = (g * df).coeffs
        exact = [sum(Fraction(g.coeffs[i]) * Fraction(df.coeffs[n - i].real) for i in range(n + 1))
                 for n in range(41)]
        assert list(got) == [float(c) for c in exact]

    def test_float_times_float_is_float(self):
        out = series(Nome.Q, 0, [0.5, 1.5, -2.0]) * series(Nome.Q, 0, [2.0, 0.25, 1.0])
        assert out.coeffs == (1.0, 3.125, -3.125)
        assert all(type(c) is float for c in out.coeffs)

    def test_exact_operands_keep_the_schoolbook_loop(self, monkeypatch):
        def no_numpy(*args):
            raise AssertionError("the double kernel ran")

        monkeypatch.setattr(vvmf.series, "_double_mul", no_numpy)
        with mpmath.workdps(30):
            out = series(Nome.Q, 0, [mpmath.mpc(1, 2), 3]) * series(Nome.Q, 0, [1j, 2.0])
        assert all(isinstance(c, mpmath.mpc) for c in out.coeffs)
        assert out.coeffs == (mpmath.mpc(-2, 1), mpmath.mpc(2, 7))
        out = series(Nome.Q, 0, [Fraction(1, 3), 1]) * series(Nome.Q, 0, [3, Fraction(1, 2)])
        assert out.coeffs == (1, Fraction(19, 6))
        out = series(Nome.Q, 0, [3, -4]) * series(Nome.Q, 0, [5, 7])
        assert out.coeffs == (15, 1) and all(type(c) is int for c in out.coeffs)

    def test_int_beyond_double_range_overflows(self):
        with pytest.raises(OverflowError):
            series(Nome.Q, 0, [10**400, 1]) * series(Nome.Q, 0, [1j, 2.0])
        with pytest.raises(OverflowError):
            series(Nome.Q, 0, [1.0, 2.0]) * series(Nome.Q, 0, [3, -(10**400)])

    def test_max_abs_of_a_number_beyond_the_double_range_is_inf(self):
        assert series(Nome.Q, 0, [1, -(10**400)]).max_abs() == math.inf
        assert series(Nome.Q, 0, [Fraction(10**400, 3), 2]).max_abs() == math.inf
        assert math.isnan(series(Nome.Q, 0, [10**400, math.nan]).max_abs())
        assert relative_residual(series(Nome.Q, 0, [0, 10**400]), series(Nome.Q, 0, [1])) == math.inf

    def test_non_finite_values_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = series(Nome.Q, 0, [math.inf, 1.0]) * series(Nome.Q, 0, [0.0, 1.0])
            assert math.isnan(out.coeffs[0]) and out.coeffs[1] == math.inf
            out = series(Nome.Q, 0, [complex(math.nan, 1)]) * series(Nome.Q, 0, [1j])
            assert not cmath.isfinite(out.coeffs[0])
            # a finite product beyond the double range rounds to inf
            out = series(Nome.Q, 0, [1e300, 0.0]) * series(Nome.Q, 0, [1e300, 1.0])
            assert out.coeffs == (math.inf, 1e300)


class TestScale:
    def test_fraction_on_complex_equals_per_coefficient_product(self):
        s = series(Nome.Q, 0, [0.1 + 0.7j, -3.3e-9 + 1e20j, 5.0, -0.0 + 2j])
        for c in (Fraction(1, 3), Fraction(-7, 12), Fraction(10**30, 7)):
            assert s.scale(c).coeffs == tuple(c * a for a in s.coeffs)

    def test_fraction_on_ints_stays_exact(self):
        out = series(Nome.Q, 0, [3, 1, -2, 10**30]).scale(Fraction(1, 3))
        assert out.coeffs == (1, Fraction(1, 3), Fraction(-2, 3), Fraction(10**30, 3))
        assert all(type(c) is Fraction for c in out.coeffs)


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


def downcast(re: int, im: int, bits: int) -> complex:
    """(re + i im) 2^-bits rounded by :meth:`FixedSeries.downcast`."""
    parts = (PuiseuxSeries.make(Nome.Q, 0, [re]), PuiseuxSeries.make(Nome.Q, 0, [im]))
    return FixedSeries(*parts, bits).downcast().coeffs[0]


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
        assert downcast(re, im, bits) == complex(exact)
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
        assert downcast(0, 0, 200) == 0j and downcast(0, 0, -7) == 0j
        assert to_fixed(Fraction(-3, 4), 2) == (-3, 0)
        assert to_fixed(-2.5 + 1j, 1) == (-5, 2)
        assert to_fixed(mpmath.mpf(-0.375), 3) == (-3, 0)
        assert downcast(-5, 3, -2) == complex(-20, 12)
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

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.integers(min_value=-(2**300), max_value=2**300),
            st.floats(allow_nan=False, allow_infinity=False),
            st.builds(
                lambda sign, man, exp: mpmath.mpf((sign, man, exp, man.bit_length())),
                st.sampled_from([0, 1]),
                st.integers(min_value=1, max_value=2**200).filter(lambda m: m % 2),
                st.integers(min_value=-400, max_value=400),
            ),
            # exact ties: an odd integer times 2^(e-1), encoded at 2^e
            st.builds(lambda k, e: (2 * k + 1) * 2 ** (e - 1),
                      st.integers(min_value=-(2**60), max_value=2**60),
                      st.integers(min_value=1, max_value=80)),
            # Fractions, mostly non-dyadic, and odd numerators over powers of two
            st.builds(Fraction, st.integers(min_value=-(2**200), max_value=2**200),
                      st.integers(min_value=1, max_value=2**100)),
            st.builds(lambda k, e: Fraction(2 * k + 1, 2**e),
                      st.integers(min_value=-(2**60), max_value=2**60),
                      st.integers(min_value=1, max_value=80)),
        ),
        st.integers(min_value=-300, max_value=300),
    )
    # Fraction ties, also at negative bits: x 2^bits is an odd multiple of 1/2
    @example(Fraction(5, 2), 0)
    @example(Fraction(-7, 2), 0)
    @example(Fraction(3, 8), 2)
    @example(Fraction(-5, 8), 2)
    @example(Fraction(5), -1)
    @example(Fraction(-7), -1)
    @example(Fraction(-3 * 2**40), -41)
    @example(Fraction(1, 3), -2)
    @example(Fraction(-2, 3), 5)
    def test_encode_matches_the_rational_formula(self, x, bits):
        # the exact formula: round(x 2^bits) on the rational value of x,
        # ties to even (round() of a Fraction)
        if isinstance(x, mpmath.mpf):
            rational = Fraction(*mpmath.libmp.to_rational(x._mpf_))
        else:
            rational = Fraction(x)
        want = round(rational * Fraction(2) ** bits)
        assert to_fixed(x, bits) == (want, 0)
        if isinstance(x, mpmath.mpf):
            assert to_fixed(mpmath.mpc(-x, x), bits) == (-want, want)
        elif isinstance(x, float):
            assert to_fixed(complex(-x, x), bits) == (-want, want)

    @pytest.mark.parametrize("x, bits, want", [
        (5, -1, 2), (7, -1, 4), (-5, -1, -2), (-7, -1, -4), (-1, -1, 0), (3, -1, 2),
        (2.5, 0, 2), (3.5, 0, 4), (-2.5, 0, -2), (0.375, 2, 2), (-0.625, 2, -2),
        (mpmath.mpf(-2.5), 0, -2), (mpmath.mpf(1.5), 0, 2), (mpmath.mpf(-0.5), 0, 0),
    ])
    def test_encode_ties_to_even(self, x, bits, want):
        assert to_fixed(x, bits) == (want, 0)

    def test_encode_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan, complex(1, math.inf),
                    mpmath.mpf("inf"), mpmath.mpf("-inf"), mpmath.mpf("nan")):
            with pytest.raises(ValueError):
                to_fixed(bad, 10)

    def test_sum_needs_one_scale(self):
        # the closed tensor oracle's sums are exact at one common scale
        from oracles import _fixed_sum

        a = fixed_series(Nome.Q, 0, [1, 2], 10)
        assert _fixed_sum(a, a).downcast().coeffs == (2, 4)
        assert _fixed_sum(a, a, -1).downcast().coeffs == (0, 0)
        with pytest.raises(ValueError):
            _fixed_sum(a, fixed_series(Nome.Q, 0, [1, 2], 11))


def reference_complex_product(a_re, a_im, b_re, b_im, n_out):
    """The truncated product of two complex integer sequences, zero-padded
    to n_out + 1 terms, one multiply-add per coefficient pair and part."""
    def conv(x, y):
        x, y = ([*s[: n_out + 1], *[0] * (n_out + 1 - len(s))] for s in (x, y))
        return [sum(map(operator.mul, x[: n + 1], y[n::-1])) for n in range(n_out + 1)]

    return (
        [p - q for p, q in zip(conv(a_re, b_re), conv(a_im, b_im))],
        [p + q for p, q in zip(conv(a_re, b_im), conv(a_im, b_re))],
    )


@st.composite
def limb_operands(draw):
    """(re, im) mantissa lists of one length, 1 to 400: random signed
    mantissas up to 2^700, all zero, or all at the extremes +-(2^k - 1)."""
    n = draw(st.integers(min_value=1, max_value=400))
    kind = draw(st.sampled_from(["random", "zero", "extreme"]))
    if kind == "zero":
        return [0] * n, [0] * n
    if kind == "extreme":
        k = draw(st.integers(min_value=0, max_value=700))
        signs = st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)
        return ([s * (2**k - 1) for s in draw(signs)], [s * (2**k - 1) for s in draw(signs)])
    bits = draw(st.integers(min_value=0, max_value=700))
    parts = st.lists(st.integers(min_value=-(2**bits), max_value=2**bits), min_size=n, max_size=n)
    return draw(parts), draw(parts)


class TestComplexLimbKernel:
    """The complex limb convolution of fixed-point products, called directly
    and at each limb width, so the width rule cannot route around either."""

    @pytest.mark.parametrize("limb_bits", [8, 16])
    @settings(max_examples=40, deadline=None)
    @given(limb_operands(), limb_operands(), st.integers(min_value=0, max_value=399))
    def test_matches_schoolbook(self, limb_bits, a, b, cut):
        # operands of unequal length are zero-padded to n_out + 1 terms
        n_out = min(cut, max(len(a[0]), len(b[0])) - 1)
        want = reference_complex_product(*a, *b, n_out)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vvmf.series, "_limb_bits", lambda *sizes: limb_bits)
            assert _complex_mul(*a, *b, n_out) == tuple(want)
            assert _complex_mul(*a, *b, 0) == (want[0][:1], want[1][:1])

    @pytest.mark.parametrize("order, limb_bits", [(80, 16), (400, 8)])
    def test_width_at_tensor_sizes(self, monkeypatch, order, limb_bits):
        # a pure function of (terms, bits of a, bits of b): every product of
        # the rank-2 rows of the benchmark's tensor member takes 16-bit limbs
        # at order 80, and the bound asks for 8 at order 400; the closed
        # Kronecker basis forms 16 of them
        from oracles import kronecker_tensor_basis
        from test_acceptance import rank2_data, tensor_grid

        sizes = []

        def recording(*args):
            sizes.append(args)
            return _limb_bits(*args)

        monkeypatch.setattr(vvmf.series, "_limb_bits", recording)
        (alpha, L1), (beta, L2) = (rank2_data(*p) for p in tensor_grid()[5])
        kronecker_tensor_basis(alpha, beta, L1, L2, order, ClassicalCatalog(order))
        assert len(sizes) == 16 and all(n == order + 1 for n, _, _ in sizes)
        assert {_limb_bits(*args) for args in sizes} == {limb_bits}

    def test_width_has_a_limit(self):
        assert _limb_bits(81, 260, 216) == 16
        with pytest.raises(ArithmeticError):
            _limb_bits(2**30, 700, 700)

    def test_rounding_guard(self, monkeypatch):
        # a convolution off by 0.3 of a unit cannot be rounded exactly
        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda x, *args: ifft(x, *args) + 0.3)
        with pytest.raises(ArithmeticError):
            _complex_mul([1, 2], [3, 4], [5, 6], [7, 8], 1)

    def test_nome_mismatch(self):
        a = fixed_series(Nome.Q, 0, [1, 2j], 10)
        with pytest.raises(NomeMismatch):
            a * fixed_series(Nome.Q2, 0, [1, 2j], 10)


def real_rows():
    """Real fixed-point series: the real parts of :func:`limb_operands`
    (random, all zero or all at the extremes), a scale and a complex
    leading exponent."""
    return st.builds(
        lambda parts, lam, bits: FixedSeries(PuiseuxSeries(Nome.Q, lam, tuple(parts[0])),
                                             PuiseuxSeries(Nome.Q, lam, (0,) * len(parts[0])),
                                             bits),
        limb_operands(),
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        st.integers(min_value=-20, max_value=400),
    )


def rationals(x: FixedSeries) -> list:
    """The coefficients (re + i im) 2^-bits of x as pairs of Fractions."""
    unit = Fraction(2) ** -x.bits
    return [(re * unit, im * unit) for re, im in zip(x.re.coeffs, x.im.coeffs)]


def downcast_or_error(x: FixedSeries):
    """The downcast coefficients of x, or OverflowError for a coefficient
    past the double range (whose message depends on the sign of the
    scale)."""
    try:
        return x.downcast()
    except OverflowError:
        return OverflowError


def gaussian_rows(n: int, seed: int) -> FixedSeries:
    rng = random.Random(seed)
    parts = [[rng.randint(-(2**90), 2**90) for _ in range(n)] for _ in range(2)]
    return FixedSeries(PuiseuxSeries(Nome.Q, 0.5j, tuple(parts[0])),
                       PuiseuxSeries(Nome.Q, 0.5j, tuple(parts[1])), 80)


class TestPairedProduct:
    """pair_mul against two plain fixed-point products."""

    @settings(max_examples=100, deadline=None)
    @given(real_rows(), real_rows(), real_rows())
    def test_matches_two_plain_products(self, x0, x1, y):
        # the same rationals, lengths, leading exponents and doubles, at
        # unequal scales and lengths
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            complex_mul = vvmf.series._complex_mul
            patch.setattr(vvmf.series, "_complex_mul",
                          lambda *args: calls.append(args) or complex_mul(*args))
            got = pair_mul(x0, x1, y)
        assert len(calls) == 1
        for pair, x in zip(got, (x0, x1)):
            plain = x * y
            assert repr(pair.re.lead_exponent) == repr(plain.re.lead_exponent)
            assert repr(pair.im.lead_exponent) == repr(plain.im.lead_exponent)
            assert rationals(pair) == rationals(plain)
            assert downcast_or_error(pair) == downcast_or_error(plain)
            assert pair.bits == max(x0.bits, x1.bits) + y.bits

    @pytest.mark.parametrize("complex_operand", [0, 1, 2])
    def test_complex_rows_take_plain_products(self, complex_operand):
        rows = [gaussian_rows(30, seed) for seed in range(3)]
        rows = [r if i == complex_operand else FixedSeries(r.re, r.re.scale(0), r.bits)
                for i, r in enumerate(rows)]
        x0, x1, y = rows
        assert pair_mul(x0, x1, y) == (x0 * y, x1 * y)

    def test_nome_mismatch(self):
        a = fixed_series(Nome.Q, 0, [1, 2], 10)
        with pytest.raises(NomeMismatch):
            pair_mul(a, a, fixed_series(Nome.Q2, 0, [1, 2], 10))
        with pytest.raises(NomeMismatch):
            pair_mul(a, fixed_series(Nome.Q2, 0, [1, 2], 10), a)


def gauss_product(x: FixedSeries, y: FixedSeries) -> FixedSeries:
    """The fixed-point product as three products of int series (Gauss's
    trick)."""
    k1 = y.re * (x.re + x.im)
    k2 = x.re * (y.im - y.re)
    k3 = x.im * (y.re + y.im)
    return FixedSeries(k1 - k3, k1 + k2, x.bits + y.bits)


def plain_pair(x0: FixedSeries, x1: FixedSeries, y: FixedSeries) -> tuple:
    """pair_mul without the pairing: two plain products."""
    return x0 * y, x1 * y


@pytest.fixture(scope="module")
def catalog200():
    return ClassicalCatalog(200)


@pytest.mark.parametrize("member", [0, 1, 5, 8])
def test_tensor_forms_match_the_int_product(monkeypatch, catalog200, member):
    # the 16 Kronecker products of the closed tensor basis, on the rank-2
    # rows of the tensor pool, give the bytes of Gauss's three int products
    from oracles import kronecker_tensor_basis
    from test_acceptance import rank2_data, tensor_grid

    (alpha, L1), (beta, L2) = (rank2_data(*p) for p in tensor_grid()[member])

    def emitted():
        forms = kronecker_tensor_basis(alpha, beta, L1, L2, 200, catalog200)
        return repr([form.to_json() for form in forms])

    got = emitted()
    monkeypatch.setattr(FixedSeries, "__mul__", gauss_product)
    assert got == emitted()


@pytest.mark.slow
@pytest.mark.parametrize("order", [400, 800])
@pytest.mark.parametrize("route", ["sym3"])
def test_pairing_keeps_the_bytes_at_high_order(monkeypatch, route, order):
    # the benchmark's ladder member sym3:3 has real rows, so every product
    # of its cube is paired
    from test_qline import closed_route

    def emitted(basis):
        return [form.to_json() for form in basis.forms], basis.residuals

    pipeline, catalog = closed_route(route), ClassicalCatalog(order)
    got = repr(emitted(pipeline(order, catalog)))
    monkeypatch.setattr(vvmf.constructions, "pair_mul", plain_pair)
    assert got == repr(emitted(pipeline(order, catalog)))


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
        with pytest.raises(ZeroLeadingCoefficient):
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
        with pytest.raises(ZeroLeadingCoefficient):
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


def loop_product(a, b) -> list:
    """The schoolbook product as the interpreted loop: s += a_i b_{n-i}."""
    out = []
    for n in range(min(len(a), len(b))):
        s = 0
        for i in range(n + 1):
            s += a[i] * b[n - i]
        out.append(s)
    return out


def loop_invert(a) -> list:
    """Forward-substitution inverse as the interpreted loop."""
    exact = isinstance(a[0], int) and abs(a[0]) == 1 and all(isinstance(c, int) for c in a)
    inv0 = a[0] if exact else 1 / a[0]
    out = [inv0]
    for n in range(1, len(a)):
        s = 0
        for k in range(1, n + 1):
            s += a[k] * out[n - k]
        out.append(-inv0 * s)
    return out


def loop_divide(num, den) -> list:
    """Forward-substitution quotient as the interpreted loop."""
    b0 = den[0]
    exact = abs(b0) == 1 and all(type(c) is int for c in num + den)
    out = []
    for n in range(min(len(num), len(den))):
        acc = num[n]
        for k in range(1, n + 1):
            acc = acc - den[k] * out[n - k]
        out.append(acc * b0 if exact else acc / b0)
    return out


signed_zero_floats = st.sampled_from([0.0, -0.0]) | st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False)
small_fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=40)
#: coefficient families: every type the loops see, signed zeros included;
#: a double family mixes in Fractions so that products reach the loop
loop_coefficients = {
    "int": st.integers(min_value=-(10**30), max_value=10**30),
    "fraction": st.integers(-50, 50) | small_fractions,
    "double": (st.integers(-50, 50) | signed_zero_floats
               | st.builds(complex, signed_zero_floats, signed_zero_floats)
               | small_fractions),
    "mpmath": (st.integers(-50, 50) | signed_zero_floats
               | st.builds(mpmath.mpf, signed_zero_floats)
               | st.builds(mpmath.mpc, signed_zero_floats, signed_zero_floats)),
}


def lists_of(family):
    return st.lists(loop_coefficients[family], min_size=1, max_size=14)


def invertible(cs) -> bool:
    return abs(cs[0]) > vvmf.series.LEAD_TOL


class TestLoopOrder:
    """The schoolbook product, inverse and quotient run their sums in
    C-level loops, in the interpreted loops' left-to-right order, so every
    coefficient type gives the loop's bytes, signed zeros included."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(loop_coefficients)).flatmap(
        lambda f: st.tuples(lists_of(f), lists_of(f))))
    def test_schoolbook_product(self, ab):
        a, b = ab
        n = min(len(a), len(b))
        types = set(map(type, a[:n] + b[:n]))
        # pure doubles take numpy's convolution, which rounds once instead
        if types != {int} and types <= {int, float, complex}:
            a = [Fraction(1, 3)] + a
        with pytest.MonkeyPatch.context() as patch, mpmath.workdps(30):
            patch.setattr(vvmf.series, "_kronecker_mul", None)
            patch.setattr(vvmf.series, "_double_mul", None)
            got = series(Nome.Q, 0, a) * series(Nome.Q, 0, b)
            assert repr(got.coeffs) == repr(tuple(loop_product(a, b)))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(loop_coefficients)).flatmap(lists_of).filter(invertible))
    def test_invert(self, a):
        with mpmath.workdps(30):
            got = series(Nome.Q, 0, a).invert()
            assert repr(got.coeffs) == repr(tuple(loop_invert(a)))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(loop_coefficients)).flatmap(
        lambda f: st.tuples(lists_of(f), lists_of(f).filter(invertible))))
    def test_divide(self, nd):
        num, den = nd
        with mpmath.workdps(30):
            got = series(Nome.Q, 0, num).divide(series(Nome.Q, 0, den))
            assert repr(got.coeffs) == repr(tuple(loop_divide(num, den)))

    def test_lopsided_int_product_takes_the_loop(self, monkeypatch):
        # one operand grows geometrically, so packing would pad the other to
        # its slot: the cost rule keeps the loop, which must give its sums
        a = [1728**n * (-1) ** n for n in range(200)]
        b = list(ClassicalCatalog(199).eisenstein(6).coeffs)
        assert _int_kernel(a, b) is _loop_mul
        monkeypatch.setattr(vvmf.series, "_kronecker_mul", None)
        assert (series(Nome.Q, 0, a) * series(Nome.Q, 0, b)).coeffs == tuple(loop_product(a, b))


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


#: a part of a complex coefficient: zero or far from the subnormal range
parts = st.floats(-1, 1).filter(lambda x: x == 0 or abs(x) >= 1e-3)


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(complex, st.floats(-8, 8), st.floats(-3, 3) | st.just(0.0)),
        st.lists(
            st.builds(lambda re, im, e: complex(re, im) * 10.0**e,
                      parts, parts, st.integers(-120, 120)),
            min_size=1, max_size=60,
        ),
    )
    def test_parity_parts_hold_by_algebra(self, lam, coeffs):
        # the n-th coefficient of s|T^-1 is c_n e^{-pi i lam} (-1)^n, so
        # s + e^{pi i lam} s|T^-1 keeps the even offsets and
        # s - e^{pi i lam} s|T^-1 the odd ones: what is left at the other
        # parity is rounding, a few ulps of |c_n| (2.6 at most in 120,000
        # random coefficients), whatever lam and the scale of c_n
        slashed = series(Nome.Q2, lam, coeffs).slash_t_inverse().coeffs
        phase = cmath.exp(1j * cmath.pi * lam)
        for sign, wrong_parity in ((1, 1), (-1, 0)):
            for n in range(wrong_parity, len(coeffs), 2):
                left = coeffs[n] + sign * phase * slashed[n]
                assert abs(left) <= 8 * sys.float_info.epsilon * abs(coeffs[n])


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
        assert [c.order for c in v.components] == [1, 1]
        assert v.rank == 2
        assert v.weight == 2


#: every coefficient kind of the library's series: exact ints past the
#: double range, doubles with signed zeros, subnormals, inf and nan, complex
#: numbers, Fractions, mpmath numbers and bools
COEFF_KINDS = {
    "int": st.integers(min_value=-(2**1100), max_value=2**1100),
    "float": st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, math.inf, math.nan]),
    "complex": st.complex_numbers(),
    "Fraction": st.fractions() | st.builds(
        Fraction, st.integers(min_value=-(2**1100), max_value=2**1100),
        st.integers(min_value=1, max_value=2**60)),
    "mpf": st.builds(mpmath.mpf, st.floats() | st.integers(min_value=-(2**1100),
                                                            max_value=2**1100)),
    "mpc": st.builds(mpmath.mpc, st.floats(), st.floats()),
    "bool": st.booleans(),
}


class TestSerialization:
    def test_round_trip(self):
        s = series(Nome.Q2, 0.25 + 0.5j, [1, -2j, 3.5])
        assert s.to_json() == {"nome": "q2", "lead_exponent": [0.25, 0.5],
                               "coeffs": [[1.0, 0.0], [0.0, -2.0], [3.5, 0.0]]}

    def test_overflow_names_coefficient_and_order(self):
        s = series(Nome.Q, 1, [1728, -(10**400), 0])
        with pytest.raises(OverflowError, match="coefficient 1 of an order-2 q-series"):
            s.to_json()

    @settings(max_examples=400, deadline=None)
    @given(st.sets(st.sampled_from(sorted(COEFF_KINDS)), min_size=1).flatmap(
        lambda kinds: st.lists(st.one_of(*(COEFF_KINDS[k] for k in sorted(kinds))),
                               min_size=1, max_size=24)),
        st.sampled_from([Nome.Q, Nome.Q2]))
    @example([2**1100, 1.0], Nome.Q)
    @example([0.0, -0.0, 5e-324, math.nan, -math.inf, 7], Nome.Q)
    @example([True, Fraction(-1, 3), mpmath.mpf(-0.0), mpmath.mpc(1, math.nan), -0j], Nome.Q2)
    def test_every_coefficient_kind_emits_its_downcast(self, coeffs, nome):
        # each coefficient kind, alone or mixed, emits the [re, im] of one
        # as_complex per coefficient, by repr (signed zeros, nan); past the
        # double range, the same error names the same index
        s = PuiseuxSeries(nome, 0, tuple(coeffs))
        try:
            want = emitted_coeffs(s)
        except OverflowError as exc:
            with pytest.raises(OverflowError) as got:
                s.to_json()
            assert str(got.value) == str(exc)
        else:
            assert repr(s.to_json()["coeffs"]) == repr(want)


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------

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
