"""Classical catalog against independent oracles: divisor sums computed here
by trial division, published Ramanujan tau values, eta powers as products
and inverses of the Euler product multiplied out factor by factor, theta
fourth powers by lattice summation and the four-squares theorem, and direct
constant-term evaluations for f, g and Z."""

import cmath
import functools
import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vvmf.classical
from vvmf.classical import (
    ClassicalCatalog,
    _exact_sum,
    _fingerprint,
    _fingerprint_point,
    _fingerprint_prime,
    _is_prime,
    _weighted_residues,
)
from vvmf.cli import JobSpec, emit, main, run
from vvmf.series import Nome, PuiseuxSeries, relative_residual

XI = cmath.exp(2j * cmath.pi / 6)

# tau(1..11), classical table
TAU = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920, 534612]


def sigma(power, n):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def euler_product_oracle(order: int) -> PuiseuxSeries:
    """prod_{n=1}^{order} (1 - q^n), one factor at a time."""
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        for i in range(order, n - 1, -1):
            coeffs[i] -= coeffs[i - n]
    return PuiseuxSeries.make(Nome.Q, 0.0, coeffs)


def eta_lead(m: int) -> int | Fraction:
    """m/24, eta^m's leading exponent: an int when 24 divides m, else a
    Fraction."""
    lead = Fraction(m, 24)
    return lead.numerator if lead.denominator == 1 else lead


def eta_power_oracle(m: int, order: int) -> PuiseuxSeries:
    """eta^m as a power of the Euler product, or the inverse of one."""
    euler = euler_product_oracle(order)
    if m == 0:
        unit = PuiseuxSeries.one(Nome.Q, order)
    elif m > 0:
        unit = euler**m
    else:
        unit = (euler**-m).invert()
    return PuiseuxSeries(Nome.Q, eta_lead(m), unit.coeffs)


def theta_fourth_powers_oracle(n2: int) -> tuple:
    """theta_2^4, theta_3^4, theta_4^4 to q2^n2 by lattice summation: each
    theta series summed over the integers, then raised to the fourth power."""
    t3 = [0] * (n2 + 1)
    t4 = [0] * (n2 + 1)
    t3[0] = t4[0] = 1
    n = 1
    while n * n <= n2:
        t3[n * n] += 2
        t4[n * n] += 2 * (-1) ** n
        n += 1
    # theta_2 = 2 q2^{1/4} sum q2^{n(n+1)}; its 4th power has integer exponents
    t2u = [0] * (n2 + 1)
    n = 0
    while n * (n + 1) <= n2:
        t2u[n * (n + 1)] += 2
        n += 1
    theta2 = PuiseuxSeries.make(Nome.Q2, 0.25, t2u)
    theta3 = PuiseuxSeries.make(Nome.Q2, 0.0, t3)
    theta4 = PuiseuxSeries.make(Nome.Q2, 0.0, t4)
    return (theta2**4, theta3**4, theta4**4)


def assert_same_series(got: PuiseuxSeries, want: PuiseuxSeries) -> None:
    """Equal nome, lead exponent of the same type, and coefficients of the
    same types."""
    assert got.nome is want.nome
    assert got.lead_exponent == want.lead_exponent
    assert type(got.lead_exponent) is type(want.lead_exponent)
    assert got.coeffs == want.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


class TestEisenstein:
    @pytest.mark.parametrize(
        "k,factor,power", [(2, -24, 1), (4, 240, 3), (6, -504, 5)]
    )
    def test_divisor_sums(self, catalog40, k, factor, power):
        e = catalog40.eisenstein(k)
        assert e.coeffs[0] == 1
        for n in range(1, 30):
            assert e.coeffs[n] == factor * sigma(power, n)

    def test_first_terms(self, catalog40):
        assert catalog40.eisenstein(4).coeffs[1:3] == (240, 2160)
        assert catalog40.eisenstein(6).coeffs[1:3] == (-504, -16632)
        assert catalog40.eisenstein(2).coeffs[1:3] == (-24, -72)

    def test_bad_weight(self, catalog40):
        with pytest.raises(ValueError):
            catalog40.eisenstein(8)


class TestEta:
    def test_delta_tau(self, catalog40):
        delta = catalog40.delta()
        assert complex(delta.lead_exponent) == 1
        assert delta.coeffs[: len(TAU)] == tuple(TAU)

    def test_integral_leads_are_ints(self):
        # Delta leads with the int 1, so theta_q(Delta) and the check job's
        # D12(Delta) = 0 residual stay in int arithmetic, not Fraction
        catalog = ClassicalCatalog(30)
        delta = catalog.delta()
        assert type(delta.lead_exponent) is int and delta.lead_exponent == 1
        assert all(type(c) is int for c in catalog.theta_q(delta).coeffs)
        for m, nome, lead in [(-24, Nome.Q, -1), (0, Nome.Q, 0), (12, Nome.Q2, 1),
                              (-36, Nome.Q2, -3)]:
            s = catalog.eta_power(m, nome)
            assert type(s.lead_exponent) is int and s.lead_exponent == lead
        assert type(catalog.eta_power(12).lead_exponent) is Fraction
        assert type(catalog.eta_power(6, Nome.Q2).lead_exponent) is Fraction

    def test_empty_product(self, catalog40):
        one = catalog40.eta_power(0)
        assert one.coeffs[0] == 1 and all(c == 0 for c in one.coeffs[1:])

    def test_eta_squared(self, catalog40):
        s = catalog40.eta_power(2)
        assert abs(complex(s.lead_exponent) - 1 / 12) < 1e-15
        assert s.coeffs[:3] == (1, -2, -1)

    def test_negative_power(self, catalog40):
        prod = catalog40.eta_power(4) * catalog40.eta_power(-4)
        assert abs(complex(prod.lead_exponent)) < 1e-12
        assert abs(prod.coeffs[0] - 1) < 1e-12
        assert max(abs(c) for c in prod.coeffs[1:]) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=-24, max_value=24), st.integers(min_value=1, max_value=300))
    def test_recurrence_matches_products_and_inverses(self, m, order):
        got = ClassicalCatalog(order).eta_power(m)
        assert_same_series(got, eta_power_oracle(m, order))
        assert got.lead_exponent == Fraction(m, 24)

    def test_inexact_division_raises(self):
        # the divisions by n are exact for integer powers only: the square
        # root of the Euler product, 1 - q/2 - ..., is refused at n = 1
        with pytest.raises(ArithmeticError):
            vvmf.classical._euler_power(Fraction(1, 2), 5)

    def test_q2_retag(self, catalog40):
        s = catalog40.eta_power(12, Nome.Q2)
        assert s.nome is Nome.Q2
        assert abs(complex(s.lead_exponent) - 1) < 1e-15
        assert all(s.coeffs[n] == 0 for n in range(1, s.order, 2))


class TestHauptmoduls:
    def test_k_leading(self, catalog40):
        k = catalog40.k_hauptmodul()
        assert complex(k.lead_exponent) == 1
        assert k.coeffs[0] == 1728
        assert k.coeffs[1] == 1728 * -744

    def test_j_is_e4_cubed_over_delta(self, catalog60):
        want = catalog60.e4_cubed() * catalog60.delta().invert()
        assert_same_series(catalog60.j_invariant(), want)

    def test_jk_is_constant(self, catalog40):
        jk = catalog40.j_invariant() * catalog40.k_hauptmodul()
        assert jk.coeffs[0] == 1728
        assert all(c == 0 for c in jk.coeffs[1:])

    def test_k_defining_relation_exact(self, catalog40):
        k = catalog40.k_hauptmodul()
        lhs = catalog40.eisenstein(4) ** 3 * k
        rhs = catalog40.delta().scale(1728)
        assert relative_residual(lhs - rhs, rhs) == 0.0

    def test_z_leading(self, catalog40):
        z = catalog40.z_hauptmodul()
        assert abs(complex(z.lead_exponent) - 1) < 1e-12
        want = -2j * 1728**0.5
        assert abs(complex(z.coeffs[0]) - want) < 1e-9 * abs(want)

    def test_z_constant_term_vanishes(self, catalog40):
        # lead exponent 1 means Z(cusp) = 0 by construction; the assembled
        # series must not have leaked a constant into the q2^0 slot
        z = catalog40.z_hauptmodul()
        assert complex(z.lead_exponent).real > 0.5

    def test_z_of_fg(self, catalog40):
        assert catalog40.level_two_residuals()["Z=(f^3-g^3)/f^3"] < 1e-12

    def test_z_overflow_names_the_order(self):
        # Z's coefficients pass the double range at q2-offset 256, where
        # the emitted doubles end in either precision
        for precision in ("double", "extended"):
            assert ClassicalCatalog(127, precision).z_hauptmodul().order == 254
            with pytest.raises(OverflowError,
                               match=r"double range at q2-order 256 \(order 128\)$"):
                ClassicalCatalog(128, precision).z_hauptmodul()


def h_on_q2(catalog: ClassicalCatalog) -> PuiseuxSeries:
    """h as the q2 quotient: E6 times the inverse of 12^{3/2} eta^12, both
    series in q2, whose odd offsets are zero."""
    c = catalog.sqrt1728
    return catalog.eisenstein_q2(6) * catalog.eta_power(12, Nome.Q2).scale(c).invert()


def emitted(series: PuiseuxSeries) -> str:
    return json.dumps(series.to_json(), sort_keys=True)


class TestH:
    @pytest.mark.parametrize("precision", ["double", "extended"])
    @pytest.mark.parametrize("order", [*range(1, 61), 200, 400])
    def test_bytes_of_the_q2_quotient(self, order, precision):
        # the quotient on the q-series, retagged, emits the q2 quotient's
        # bytes; the q2 quotient is formed at the digits of the catalog's builds
        with mpmath.workdps(vvmf.classical.EXTENDED_DPS):
            catalog = ClassicalCatalog(order, precision)
            want = emitted(h_on_q2(catalog))
            assert emitted(catalog.h_series()) == want


class TestTheta:
    def four_square_counts(self, n_max):
        # Jacobi: r4(n) = 8 sigma(n) - 32 sigma(n/4)
        out = [1]
        for n in range(1, n_max + 1):
            r4 = 8 * sigma(1, n)
            if n % 4 == 0:
                r4 -= 32 * sigma(1, n // 4)
            out.append(r4)
        return out

    def test_theta3_fourth(self, catalog40):
        # the library's own closed form is Jacobi's, so the lattice sum is
        # the independent oracle
        _, t3, _ = catalog40.theta_fourth_powers()
        want = self.four_square_counts(30)
        assert t3.coeffs[:31] == tuple(want)
        assert t3.coeffs == theta_fourth_powers_oracle(catalog40.q2_order)[1].coeffs

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=300))
    def test_closed_forms_match_lattice_sums(self, order):
        catalog = ClassicalCatalog(order)
        for got, want in zip(catalog.theta_fourth_powers(),
                             theta_fourth_powers_oracle(catalog.q2_order)):
            assert_same_series(got, want)

    def test_theta4_sign_flip(self, catalog40):
        _, t3, t4 = catalog40.theta_fourth_powers()
        for n in range(30):
            assert t4.coeffs[n] == (-1) ** n * t3.coeffs[n]

    def test_theta2_jacobi_identity(self, catalog40):
        t2, t3, t4 = catalog40.theta_fourth_powers()
        diff = t3 - t4 - t2
        assert max(abs(c) for c in diff.coeffs) == 0

    def test_theta2_leading(self, catalog40):
        t2, _, _ = catalog40.theta_fourth_powers()
        assert abs(complex(t2.lead_exponent) - 1) < 1e-15
        assert t2.coeffs[0] == 16
        assert t2.coeffs[2] == 64  # coefficient of q2^3


class TestFG:
    def test_constant_product(self, catalog40):
        f, g = catalog40.fg_generators()
        want = -4 * XI
        assert abs(complex(f.coeffs[0] * g.coeffs[0]) - want) < 1e-12

    def test_cubes_sum_constant(self, catalog40):
        f, g = catalog40.fg_generators()
        val = complex(f.coeffs[0] ** 3 + g.coeffs[0] ** 3)
        assert abs(val - 16) < 1e-11

    def test_g_is_f_slashed(self, catalog40):
        f, g = catalog40.fg_generators()
        for n in range(f.order + 1):
            assert abs(complex(g.coeffs[n]) - (-1) ** n * complex(f.coeffs[n])) < 1e-12


_TRUE_J_AND_K: dict = {}


def true_j_and_k() -> dict:
    """j and K at order 400, built once for the test process, by their
    store keys."""
    if not _TRUE_J_AND_K:
        catalog = ClassicalCatalog(400)
        _TRUE_J_AND_K.update(J=catalog.j_invariant(), K=catalog.k_hauptmodul())
    return _TRUE_J_AND_K


#: the stored level-one building blocks and how a catalog reads each
PERTURBED = {
    ("E", 2): lambda c: c.eisenstein(2),
    ("E", 4): lambda c: c.eisenstein(4),
    ("E", 6): lambda c: c.eisenstein(6),
    ("eta", 24): lambda c: c.delta(),
    ("eta", 12): lambda c: c.eta_power(12),
    "J": lambda c: c.j_invariant(),
    "K": lambda c: c.k_hauptmodul(),
}

#: the stored series each level-one identity reads
LEVEL_ONE_READS = {
    "e4^3-e6^2=1728delta": {"E4^3", ("E", 6), ("eta", 24)},
    "delta=eta^24": {("eta", 24), ("eta", 12)},
    "j*K=1728": {"J", "K"},
    "D12(delta)=0": {("E", 2), ("eta", 24)},
    "ramanujan_e2": {("E", 2), ("E", 4)},
    "ramanujan_e4": {("E", 2), ("E", 4), ("E", 6)},
    "ramanujan_e6": {("E", 2), ("E", 6), "E4^2"},
}


def integer_theta(s: PuiseuxSeries) -> PuiseuxSeries:
    """q d/dq of a series with an integral lead exponent, in integers."""
    lam = int(s.lead_exponent)
    return PuiseuxSeries(s.nome, s.lead_exponent,
                         tuple((lam + n) * c for n, c in enumerate(s.coeffs)))


@functools.lru_cache(maxsize=64)
def exact_product(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """a * b, formed once for operands equal as series (nome, lead exponent
    and coefficient tuple): the perturbed-block runs read the same
    unperturbed series, j and K at orders 200 and 400 among them, run after
    run."""
    return a * b


def integer_form_residuals(catalog: ClassicalCatalog) -> dict:
    """The level-one residuals by exact products: each identity multiplied
    through to integer coefficients, and its residual divided back."""
    e2, e4, e6 = (catalog.eisenstein(k) for k in (2, 4, 6))
    delta, eta12, e4_sq = catalog.delta(), catalog.eta_power(12), catalog.e4_squared()
    discr = catalog.e4_cubed() - exact_product(e6, e6)
    jk = exact_product(catalog.j_invariant(), catalog.k_hauptmodul())
    e2_delta = exact_product(e2, delta)
    return {
        "e4^3-e6^2=1728delta": relative_residual(discr - delta.scale(1728), discr),
        "delta=eta^24": relative_residual(delta - exact_product(eta12, eta12), delta),
        "j*K=1728": relative_residual(
            jk - PuiseuxSeries.polynomial(Nome.Q, [1728], jk.order), jk),
        "D12(delta)=0": relative_residual(integer_theta(delta) - e2_delta, delta, e2_delta),
        "ramanujan_e2": relative_residual(
            (integer_theta(e2).scale(12) - exact_product(e2, e2) + e4).scale(Fraction(1, 12)),
            e4),
        "ramanujan_e4": relative_residual(
            (integer_theta(e4).scale(3) - exact_product(e2, e4) + e6).scale(Fraction(1, 3)),
            e6),
        "ramanujan_e6": relative_residual(
            (integer_theta(e6).scale(2) - exact_product(e2, e6) + e4_sq).scale(Fraction(1, 2)),
            e4_sq),
    }


def value_at(coeffs, p: int, z: int) -> int:
    """sum c_n z^n modulo p, by Horner's rule."""
    value = 0
    for c in reversed(coeffs):
        value = (value * z + c) % p
    return value


#: coefficients up to K's width at order 800, zeros among them
WIDE_COEFFS = st.lists(
    st.one_of(st.just(0), st.integers(min_value=-(2**7000), max_value=2**7000)),
    min_size=1, max_size=80)
LEADS = st.sampled_from([0, 1, -1, Fraction(1, 2)])


class TestFingerprintEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(WIDE_COEFFS, WIDE_COEFFS, WIDE_COEFFS, LEADS, LEADS,
           st.integers(min_value=-2, max_value=2), st.integers(min_value=-3, max_value=3),
           st.integers(min_value=0, max_value=2**61))
    def test_a_truncated_product_reads_the_series_product_at_z(
        self, a, b, c, lead_a, lead_b, gap, factor, z
    ):
        # the O(M) evaluation sum_i a_i z^i P_{M-i}(b) of the truncated
        # product, and of a sum with a third series whose lead exponent
        # differs by an integer, against __mul__ and __add__ evaluated at z
        p = _fingerprint_prime()
        z %= p
        series = {
            "a": PuiseuxSeries(Nome.Q, lead_a, tuple(a)),
            "b": PuiseuxSeries(Nome.Q, lead_b, tuple(b)),
            "c": PuiseuxSeries(Nome.Q, lead_a + lead_b + gap, tuple(c)),
        }
        residues = {k: _weighted_residues(s.coeffs, p, z) for k, s in series.items()}
        product = series["a"] * series["b"]
        got = _fingerprint([(1, "times", "a", "b")], series, residues, p, z)
        assert got == value_at(product.coeffs, p, z)
        terms = [(1, "times", "a", "b"), (factor, "at", "c")]
        total = product + series["c"].scale(factor)
        assert _fingerprint(terms, series, residues, p, z) == value_at(total.coeffs, p, z)
        assert _exact_sum(terms, series, {}).coeffs == total.coeffs


class TestFingerprintPrime:
    def test_drawn_once_among_the_primes_of_61_bits(self):
        assert _fingerprint_prime() == _fingerprint_prime()
        for p in [_fingerprint_prime()] + [_fingerprint_prime.__wrapped__() for _ in range(20)]:
            assert 2**60 <= p <= 2**61 and _is_prime(p)
            assert all(pow(a, p - 1, p) == 1 for a in (2, 3, 41, 43, 47))
        assert _fingerprint_point() == _fingerprint_point()
        assert 0 <= _fingerprint_point() < _fingerprint_prime()

    def test_miller_rabin_agrees_with_trial_division(self):
        n_max = 10**5
        sieve = [False, False] + [True] * (n_max - 1)
        for d in range(2, math.isqrt(n_max) + 1):
            if sieve[d]:
                sieve[d * d :: d] = [False] * len(range(d * d, n_max + 1, d))
        assert [_is_prime(n) for n in range(n_max + 1)] == sieve

    @pytest.mark.parametrize("factors", [
        (3, 11, 17), (7, 13, 19), (211, 421, 631), (271, 541, 811),
    ])
    def test_miller_rabin_rejects_carmichael_numbers(self, factors):
        # Korselt's criterion: q - 1 divides n - 1 for each prime factor q,
        # so every base prime to n is a Fermat liar
        n = math.prod(factors)
        assert all((n - 1) % (q - 1) == 0 for q in factors)
        assert not _is_prime(n)

    def test_miller_rabin_rejects_a_strong_pseudoprime_to_the_bases_up_to_31(self):
        # the least strong pseudoprime to every prime base up to 31: only
        # the base 37 exposes it
        n = 3825123056546413051
        assert n == 149491 * 747451 * 34233211
        assert not _is_prime(n)
        assert _is_prime(2**61 - 1) and not _is_prime(2**61 + 1)


class TestIdentitySuites:
    def test_level_one_exact(self, catalog60):
        res = catalog60.level_one_residuals()
        assert max(res.values()) < 1e-12

    def test_level_one_exact_at_order_800(self, catalog800):
        # every identity in integer form: E6's and theta E6's coefficients
        # pass 2^53 at order 800, so a residual scaled in doubles would not
        # read 0 there
        res = catalog800.level_one_residuals()
        assert res == dict.fromkeys(LEVEL_ONE_READS, 0.0)

    @pytest.mark.parametrize("order", [200, 400])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("key", list(PERTURBED),
                             ids=["E2", "E4", "E6", "Delta", "eta^12", "j", "K"])
    def test_a_perturbed_building_block_fails_its_identities(self, key, where, order):
        # one coefficient off by 1..3 or by 2^61 - 1, either sign: every
        # identity that reads it reports its exact integer-form residual,
        # nonzero, and every other one reads 0
        true = {k: read(ClassicalCatalog(order)) for k, read in PERTURBED.items()}
        index = {"first": 0, "middle": order // 2, "last": order}[where]
        for delta in (1, -1, 2, -2, 3, -3, 2**61 - 1, -(2**61 - 1)):
            series = true[key]
            coeffs = list(series.coeffs)
            coeffs[index] += delta
            vvmf.classical._EXACT_SERIES.update(true)
            vvmf.classical._EXACT_SERIES[key] = PuiseuxSeries(
                series.nome, series.lead_exponent, tuple(coeffs))
            catalog = ClassicalCatalog(order)
            got = catalog.level_one_residuals()
            want = integer_form_residuals(catalog)
            assert got == want, (key, index, delta)
            broken = {name for name, keys in LEVEL_ONE_READS.items() if key in keys}
            if key == ("eta", 24) and where == "last":
                # E4^3 - E6^2 - 1728 Delta reads Delta's coefficients
                # through order - 1 only: the window ends at E4^3's order
                broken.discard("e4^3-e6^2=1728delta")
            assert {name for name, r in got.items() if r > 0} == broken, (key, index, delta)

    def test_delta_is_checked_against_a_square(self, monkeypatch):
        # Delta and eta^12 both come from the power recurrence; a recurrence
        # off in one coefficient must show in the check key, which compares
        # Delta with (eta^12)^2 through the series product
        power = vvmf.classical._euler_power
        monkeypatch.setattr(vvmf.classical, "_euler_power",
                            lambda m, n: [c + (i == 5) for i, c in enumerate(power(m, n))])
        res = ClassicalCatalog(40).level_one_residuals()
        assert res["delta=eta^24"] > 0

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["J", "K"]), st.sampled_from([200, 400]),
           st.integers(min_value=0, max_value=400),
           st.integers(min_value=-3, max_value=3).filter(bool),
           st.booleans())
    def test_a_perturbed_j_or_k_fails_the_fingerprint(self, key, order, index, small, wide):
        # one coefficient off by a small integer, or by a multiple of the
        # prime 2^61 - 1, which a fingerprint modulo that fixed prime would
        # miss: the check reports the exact residual, nonzero each time
        true = true_j_and_k()
        series = true[key]
        index = min(index, order)
        delta = small * (2**61 - 1) if wide else small
        coeffs = list(series.coeffs)
        coeffs[index] += delta
        vvmf.classical._EXACT_SERIES.update(true)
        vvmf.classical._EXACT_SERIES[key] = PuiseuxSeries(series.nome, series.lead_exponent,
                                                          tuple(coeffs))
        catalog = ClassicalCatalog(order)
        got = catalog.level_one_residuals()["j*K=1728"]
        jk = catalog.j_invariant() * catalog.k_hauptmodul()
        want = relative_residual(jk - PuiseuxSeries.polynomial(Nome.Q, [1728], jk.order), jk)
        assert got > 0 and got == want

    def test_a_j_beyond_the_double_range_fails_the_gate(self, monkeypatch, capsys):
        # j off by one in coefficient 5 puts K's magnitude, 10^1900 at order
        # 800, into j K: the residual reads inf, which JSON cannot hold, and
        # the run exits through the residual gate with status 1
        j = ClassicalCatalog(800).j_invariant()
        coeffs = j.coeffs[:5] + (j.coeffs[5] + 1,) + j.coeffs[6:]
        monkeypatch.setitem(vvmf.classical._EXACT_SERIES, "J",
                            PuiseuxSeries(j.nome, j.lead_exponent, coeffs))
        res = run(JobSpec.from_json({"command": "check", "order": 800})).residuals
        assert res["j*K=1728"] == math.inf
        assert all(math.isfinite(v) for k, v in res.items() if k != "j*K=1728")
        assert main(["check", "--order", "800"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: the output holds a non-finite number (Infinity or NaN)\njob 0: ")
        assert captured.err.endswith("\nworst residual: inf (tolerance 1.0e-09)\n")

    def test_level_two(self, catalog60):
        res = catalog60.level_two_residuals()
        assert max(res.values()) < 1e-10

    @pytest.mark.parametrize("key, index, reads", [
        (("E2nome", 4), 10, {"f*g=-4xi*e4", "D^2(f)=(1/18)e4*f"}),
        (("fg", "double", None), 7, {
            "f*g=-4xi*e4", "f^3+g^3=16e6", "D(f)=(xi/12)g^2", "D^2(f)=(1/18)e4*f",
            "Z=(f^3-g^3)/f^3", "(g/f)^3=1-Z", "theta_q=g^2/(4(xi-1)f)theta_Z"}),
        ("K", 50, {"K=Z^2/(4(Z-1))", "h^2+1=1/K"}),
    ], ids=["E4", "f", "K"])
    def test_a_replaced_input_is_read_by_the_next_check_job(self, monkeypatch, key, index,
                                                            reads):
        # the level-two residuals live for the process beside the stored
        # series the suite read: after one of those is replaced, the next
        # check job gives what a suite run from scratch on the new store
        # gives, and only the identities that read it move
        job = JobSpec.from_json({"command": "check", "order": 20})
        first = run(job).residuals
        stored = vvmf.classical._EXACT_SERIES[key]
        parts = stored if type(stored) is tuple else (stored,)
        coeffs = list(parts[0].coeffs)
        coeffs[index] *= 2
        changed = (PuiseuxSeries(parts[0].nome, parts[0].lead_exponent, tuple(coeffs)),
                   *parts[1:])
        monkeypatch.setitem(vvmf.classical._EXACT_SERIES, key,
                            changed if type(stored) is tuple else changed[0])
        second = run(job).residuals
        moved = {name for name in second if second[name] != first[name]}
        level_one = set(vvmf.classical._LEVEL_ONE_FORMS)
        assert moved - level_one == reads
        monkeypatch.delitem(vvmf.classical._EXACT_SERIES, ("level two", 50, "double", None))
        assert run(job).residuals == second

    def test_each_precision_and_digits_hold_their_own_level_two_suite(self, monkeypatch):
        double = ClassicalCatalog(8).level_two_residuals()
        extended = ClassicalCatalog(8, "extended").level_two_residuals()
        monkeypatch.setattr(vvmf.classical, "EXTENDED_DPS", 30)
        fewer = ClassicalCatalog(8, "extended").level_two_residuals()
        held = {key: value[1] for key, value in vvmf.classical._EXACT_SERIES.items()
                if type(key) is tuple and key[0] == "level two"}
        assert held == {("level two", 8, "double", None): double,
                        ("level two", 8, "extended", 50): extended,
                        ("level two", 8, "extended", 30): fewer}
        assert double != extended != fewer
        # each call returns a dict of its own
        want = dict(double)
        double["f*g=-4xi*e4"] = 1.0
        assert ClassicalCatalog(8).level_two_residuals() == want

    def test_modular_derive_weights(self, catalog40):
        # Ramanujan identities through the catalog derivative
        e4, e6 = catalog40.eisenstein(4), catalog40.eisenstein(6)
        d4 = catalog40.modular_derive(e4, 4)
        want = e6.scale(-1 / 3)
        assert relative_residual(d4 - want, e6) < 1e-14

    @pytest.mark.xfail(
        strict=True,
        reason="h_series inverts 12^{3/2} eta^12 by forward substitution in double and"
        " drifts from the exact quotient: 1.7e-10 of scale at order 50, 5.7e-6 at 100",
    )
    def test_h_is_the_exact_quotient_at_order_100(self):
        # h = E6 eta^-12 / 12^{3/2}: E6 eta^-12 is an exact integer series, so
        # the only rounding is the final scale
        catalog = ClassicalCatalog(100)
        quotient = catalog.eisenstein(6) * catalog.eta_power(-12)
        exact = quotient.retag_q2().truncate(catalog.q2_order).scale(1 / 1728**0.5)
        assert relative_residual(catalog.h_series() - exact, exact) < 1e-14

    def test_series_registry(self, catalog40):
        assert catalog40.series("Delta").coeffs[1] == -24
        assert catalog40.series("eta^12").coeffs[0] == 1
        assert catalog40.series("K").coeffs[0] == 1728
        with pytest.raises(KeyError):
            catalog40.series("nonsense")


@pytest.mark.slow
def test_catalog_building_blocks_at_order_800(catalog800):
    # every eta power of the benchmark pool, and the theta fourth powers at
    # q2-order 1600, against the products, inverses and lattice sums
    euler = euler_product_oracle(800)
    for m in [m for m in range(-24, 25) if m]:
        unit = euler**m if m > 0 else (euler**-m).invert()
        assert_same_series(catalog800.eta_power(m),
                           PuiseuxSeries(Nome.Q, eta_lead(m), unit.coeffs))
    for got, want in zip(catalog800.theta_fourth_powers(), theta_fourth_powers_oracle(1600)):
        assert_same_series(got, want)


def stored_series(catalog: ClassicalCatalog, m: int) -> dict:
    """Every series the process-wide store holds for the catalog, the eta
    power m standing for all of them."""
    out = {f"E{k}": catalog.eisenstein(k) for k in (2, 4, 6)}
    out.update({f"E{k} in q2": catalog.eisenstein_q2(k) for k in (2, 4, 6)})
    out.update(zip(("theta2^4", "theta3^4", "theta4^4"), catalog.theta_fourth_powers()))
    out.update(zip(("f", "g"), catalog.fg_generators()))
    out.update({
        "eta": catalog.eta_power(m),
        "eta in q2": catalog.eta_power(m, Nome.Q2),
        "E4^2": catalog.e4_squared(),
        "E4^2 in q2": catalog.e4_squared(Nome.Q2),
        "E4^3": catalog.e4_cubed(),
        "j": catalog.j_invariant(),
        "K": catalog.k_hauptmodul(),
        "h": catalog.h_series(),
        "Z": catalog.z_hauptmodul(),
    })
    return out


#: the series that depend on the catalog's precision
AT_PRECISION = ("f", "g", "h", "Z")

#: the classical names of the benchmark's catalog workload
NAMES = ["E2", "E4", "E6", "Delta", "j", "K", "theta2_4", "theta3_4", "theta4_4",
         "f", "g", "h", "Z"]


def job_text(job: dict) -> str:
    """A job's emitted bytes, or its error line."""
    try:
        return emit(run(JobSpec.from_json(dict(job))))
    except OverflowError as exc:
        return f"error: {exc}"


def shuffled_against_cold(orders, names, seed: int) -> list[str]:
    """Every classical job of ``names`` at ``orders`` in both precisions, and
    ``check`` at ``orders``, run in one process in a shuffled order; asserts
    that each gives the bytes of its own run on a cleared store, and returns
    those."""
    jobs = [{"command": "check", "order": n} for n in orders]
    jobs += [{"command": "classical", "name": name, "order": n, "precision": p}
             for name in names for n in orders for p in ("double", "extended")]
    cold = []
    for job in jobs:
        vvmf.classical._EXACT_SERIES.clear()
        cold.append(job_text(job))
    vvmf.classical._EXACT_SERIES.clear()
    order = list(range(len(jobs)))
    random.Random(seed).shuffle(order)
    warm = {i: job_text(jobs[i]) for i in order}
    assert [warm[i] for i in range(len(jobs))] == cold
    return cold


class TestExactStore:
    """Every catalog series is built once per process at the largest order
    asked for, and each catalog reads a prefix; f, g, h and Z are kept apart
    per precision and digits."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=119), st.integers(min_value=1, max_value=119),
           st.integers(min_value=-24, max_value=24), st.booleans(),
           st.sampled_from(["double", "extended"]), st.sampled_from(["double", "extended"]))
    def test_a_lower_order_reads_the_prefix(self, n, gap, m, large_first, small_p, large_p):
        # built cold at n, or read from the order-N build: the same series.
        # The exact ones are shared by both precisions; f, g, h and Z are
        # the prefix of the order-N build at their own precision only.
        big_n = min(n + gap, 120)
        cold = {}
        for job in ((n, small_p), (big_n, large_p)):
            vvmf.classical._EXACT_SERIES.clear()
            cold[job] = stored_series(ClassicalCatalog(*job), m)
        vvmf.classical._EXACT_SERIES.clear()
        jobs = [(big_n, large_p), (n, small_p)]
        warm = {job: stored_series(ClassicalCatalog(*job), m)
                for job in (jobs if large_first else jobs[::-1])}
        small, large = warm[n, small_p], warm[big_n, large_p]
        for key, s in small.items():
            assert s.order == (n if s.nome is Nome.Q else 2 * n), key
            assert large[key].order == (big_n if s.nome is Nome.Q else 2 * big_n), key
            assert_same_series(s, cold[n, small_p][key])
            assert_same_series(large[key], cold[big_n, large_p][key])
            if key not in AT_PRECISION or small_p == large_p:
                assert_same_series(s, large[key].truncate(s.order))

    @pytest.mark.parametrize("first, second", [((50, 40), (80, 30)), ((80, 40), (50, 30))])
    def test_extended_series_are_kept_apart_by_digits(self, monkeypatch, first, second):
        # a catalog made under other EXTENDED_DPS reads nothing built under
        # the first one, whichever is longer: each gets its cold series
        def level_two(dps, order):
            monkeypatch.setattr(vvmf.classical, "EXTENDED_DPS", dps)
            catalog = ClassicalCatalog(order, "extended")
            return [*catalog.fg_generators(), catalog.h_series(), catalog.z_hauptmodul()]

        cold = {}
        for job in (first, second):
            vvmf.classical._EXACT_SERIES.clear()
            cold[job] = level_two(*job)
        vvmf.classical._EXACT_SERIES.clear()
        for job in (first, second):
            for got, want in zip(level_two(*job), cold[job], strict=True):
                assert_same_series(got, want)
                assert emitted(got) == emitted(want)

    def test_a_non_finite_h_is_not_kept(self):
        # from order 1720 on, h's double inverse leaves the double range and
        # its product with E6 runs in double, not long double; a later h of a
        # lower order must not read that head (83 of its 401 coefficients
        # at order 200 differ)
        cold = emitted(ClassicalCatalog(200).h_series())
        vvmf.classical._EXACT_SERIES.clear()
        h = ClassicalCatalog(1720).h_series()
        assert not all(map(cmath.isfinite, h.coeffs))
        assert emitted(ClassicalCatalog(200).h_series()) == cold

    def test_shuffled_jobs_give_the_bytes_of_cold_ones(self):
        # one process, jobs in a shuffled order against each job run on a
        # cleared store; error lines included
        names = NAMES + ["Eta^-24", "Eta^-1", "Eta^5", "Eta^12"]
        cold = shuffled_against_cold((1, 20, 127, 128, 200), names, seed=20)
        # K and Z at orders 128 and 200, in both precisions
        assert sum(t.startswith("error: ") for t in cold) == 8

    @pytest.mark.slow
    def test_shuffled_jobs_at_the_benchmark_orders(self):
        # the catalog workload's orders: Z overflows from 200 on, so its
        # later jobs raise from the recorded bound
        cold = shuffled_against_cold((200, 400, 800), NAMES, seed=22)
        # K and Z at every order, in both precisions
        assert sum(t.startswith("error: ") for t in cold) == 12

    @pytest.mark.parametrize("order, terms", [(127, 255), (128, 257), (129, 258), (300, 258)])
    def test_double_z_stops_its_inverse_at_the_first_non_finite_term(
        self, monkeypatch, order, terms
    ):
        # z_m holds 2c inv_m: from order 129 on the inverse leaves the double
        # range at q2-order 257 and stops there; at order 128 it stays
        # finite and the product overflows at q2-order 256
        drawn = []
        inverse_terms = PuiseuxSeries.inverse_terms

        def counting(s):
            drawn.append(0)
            for v in inverse_terms(s):
                drawn[-1] += 1
                yield v

        monkeypatch.setattr(PuiseuxSeries, "inverse_terms", counting)
        catalog = ClassicalCatalog(order)
        if order < 128:
            assert catalog.z_hauptmodul().order == 2 * order
        else:
            with pytest.raises(OverflowError) as info:
                catalog.z_hauptmodul()
            assert str(info.value) == (
                "hauptmodul coefficients exceed the double range at q2-order "
                f"{2 * order} (order {order})"
            )
            assert info.traceback[-1].path.name == "classical.py"
            assert info.value.__cause__ is None
        assert drawn == [terms]
