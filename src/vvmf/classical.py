"""q- and q2-expansions of the classical level-one forms and the level-2
generators.

A catalog serves Eisenstein series, eta powers, Delta, j, the hauptmodul
K = 1728/j, the theta fourth powers, the weight-two generators f and g of
the index-two subgroup's ring of forms, and its hauptmodul Z, truncated at
its order.  All q-series carry integer coefficients exactly (Python ints),
so double versus extended precision only enters through the four irrational
constants xi = e^{2 pi i/6}, xi^5, sqrt(1728) and i, that is only into h, Z,
f and g.  The precision is a setting of the catalog alone: it computes its
constants at construction and, when extended, runs every build of h, Z, f
and g at the :data:`EXTENDED_DPS` digits in force when it was made, in an
``mpmath.workdps`` block of its own, so its series do not depend on the
caller's mpmath precision.

Every series is built once per process, at the largest order any catalog
asks for, and each catalog reads a prefix (:data:`_EXACT_SERIES`); f and g,
h and Z are kept apart per precision and, when extended, per digits.  Every
build is prefix-stable.  The power recurrence, the divisor sums, the exact
division and the truncated exact products give coefficient n independently
of the order.  So do the floating-point builds: the forward substitution
and the products add coefficient n's terms in an order n alone fixes, as
long as no operand holds inf or nan (a non-finite h is not kept).  So the
prefix is the series a build at the smaller order gives.  A process keeps
the series of the largest order asked for.  The largest entry is K, about
3.9 N^2 bits at order N: 0.3 MB at order 800, 1.25 MB at 1600.  Every exact
key at order 800, all 48 eta powers included, holds about 2.5 MB of Python
ints; f, g and h add 0.14 MB in double and 1.0 MB in extended, and the
level-one suite's residues modulo p 0.11 MB.
Z's build overflows the double range from order 128 on; the store records
the lowest order that overflowed, per precision and digits, and a catalog at
or above it raises without a build.  Within one catalog a key reads the
same prefix object every time, so the double check of a job converts each
series it multiplies once (:meth:`ClassicalCatalog.as_stack`).

The building blocks come from exact closed forms rather than products and
inverses of series: every eta power, negative ones included, from one
power recurrence over the sparse pentagonal Euler product
(:func:`_euler_power`), and the theta fourth powers from divisor sums
(Jacobi's four-square and Legendre's four-triangular-number theorems).

The level-one check suite (:meth:`ClassicalCatalog.level_one_residuals`)
takes its seven identities in integer form (:data:`_LEVEL_ONE_FORMS`) and
evaluates each at one point z modulo one prime p, both drawn once per
process (:func:`_fingerprint_prime`, :func:`_fingerprint_point`): a series
reads sum c_n z^n over the window its exact residual compares, and a
truncated product reads sum_i a_i z^i P_{M-i}, with P_k the prefix sums of
the other operand's b_j z^j (Freivalds, IFIP 1977; Schwartz, J. ACM 27,
1980).  So no series is multiplied, and each identity costs O(N) small
integer work.  Each stored series is reduced modulo p once per process.
Only an identity that does not read 0 is evaluated exactly, so a broken one
reports its full magnitude.  A zero is so certified modulo p at z only.  A
nonzero coefficient of b bits has at most b/60 prime divisors above 2^60,
among about 2^55 primes there, and a nonzero polynomial of degree N modulo p
has at most N roots among the p >= 2^60 points: a broken identity reads 0
with probability at most b/(60 2^55) + N/2^60, 2.9e-15 + 6.9e-16 for a
coefficient of K's 6310 bits at order 800.  A true identity reads 0 for
every p and z, so the output does not depend on the draw.
"""

from __future__ import annotations

import cmath
import math
import random
from array import array
from fractions import Fraction
from functools import cache
from itertools import accumulate, takewhile
from operator import mul

import mpmath

from .errors import UnknownSeries, WrongNome
from .series import (
    FormStack,
    Nome,
    PuiseuxSeries,
    VectorSeries,
    as_complex,
    relative_residual,
)


def _exact_ratio(m: int, n: int) -> int | Fraction:
    """m/n exactly: an int when n divides m, else a Fraction."""
    return m // n if m % n == 0 else Fraction(m, n)


def _divisor_power_sums(power: int, n_max: int) -> list[int]:
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dp = d**power
        for m in range(d, n_max + 1, d):
            sig[m] += dp
    return sig


def _euler_product(n_max: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^n) by the pentagonal number theorem."""
    coeffs = [0] * (n_max + 1)
    coeffs[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n_max:
            break
        sign = -1 if k % 2 else 1
        coeffs[g1] += sign
        if g2 <= n_max:
            coeffs[g2] += sign
        k += 1
    return coeffs


def _euler_power(m: int, n_max: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^n)^m through q^n_max, for any
    integer m, negative and zero included.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7): a power
    P = E^m of a series E with E_0 = 1 satisfies E P' = m E' P, that is
    n a_n = sum_{k=1}^{n} ((m+1) k - n) g_k a_{n-k} with a_0 = 1, where the
    g_k are the coefficients of E.  For the Euler product only the
    ~2 sqrt(2n/3) pentagonal g_k are nonzero, so a power costs O(n^1.5)
    small-by-big integer products, with no series product or inversion;
    the sum is taken as (m+1) sum k g_k a_{n-k} - n sum g_k a_{n-k}.
    Every a_n is an integer, so each division by n is exact;
    ArithmeticError if a remainder is ever nonzero."""
    g = _euler_product(n_max)
    ks = [k for k in range(1, n_max + 1) if g[k]]
    gs = [g[k] for k in ks]
    kgs = [k * gk for k, gk in zip(ks, gs)]
    a = [1]
    j = 0  # the number of pentagonal k <= n; they are distinct, so one at most is n
    for n in range(1, n_max + 1):
        j += j < len(ks) and ks[j] == n
        past = [a[n - k] for k in ks[:j]]
        s = (m + 1) * sum(map(mul, kgs[:j], past)) - n * sum(map(mul, gs[:j], past))
        an, rem = divmod(s, n)
        if rem:
            raise ArithmeticError(f"eta^{m}: coefficient {n} is not an integer")
        a.append(an)
    return a


#: the Miller-Rabin bases of :func:`_is_prime`, the primes 2 to 37
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin with the bases 2 to 37: exact for
    every n below 3.18 * 10^23, the least strong pseudoprime to all twelve
    (Sorenson and Webster, Math. Comp. 86, 2017), far above 2^61."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: the random source of the fingerprint's prime and point
_SYSTEM_RANDOM = random.SystemRandom()


@cache
def _fingerprint_prime() -> int:
    """The prime p of the process's fingerprints of the level-one identities
    (:meth:`ClassicalCatalog.level_one_residuals`): drawn once, uniformly
    among the primes in [2^60, 2^61], by drawing odd numbers of that range
    from the system's random source until one is prime."""
    while True:
        n = (1 << 60) | _SYSTEM_RANDOM.getrandbits(60) | 1
        if _is_prime(n):
            return n


@cache
def _fingerprint_point() -> int:
    """The point z of the process's fingerprints: drawn once, uniformly from
    [0, p), from the same source as the prime p."""
    return _SYSTEM_RANDOM.randrange(_fingerprint_prime())


def _weighted_residues(coeffs, p: int, z: int) -> tuple[array, array]:
    """The weighted residues c_n z^n mod p of a coefficient sequence, and
    their prefix sums P_k = sum_{n <= k} c_n z^n mod p, each reduced once:
    P_k is the value at z of the series cut after its k-th coefficient.
    Both are arrays of 64-bit words, since p < 2^61: 0.11 MB for the nine
    level-one series at order 800, against 0.61 MB as lists of ints."""
    weights, power = array("Q"), 1
    for c in coeffs:
        weights.append(c % p * power % p)
        power = power * z % p
    return weights, array("Q", [s % p for s in accumulate(weights)])


# the level-one series by store key, and the identities in integer form.  A
# term is (factor, operation, store keys): "at" a series, "theta" its Euler
# operator, "times" the truncated product of two, "one" the unit series.
_E2, _E4, _E6, _DELTA, _ETA12 = ("E", 2), ("E", 4), ("E", 6), ("eta", 24), ("eta", 12)

#: per check key: the terms of the identity's integer form, the terms of
#: each series its residual is relative to, and the divisor that turns the
#: form into the identity as the key writes it (12 theta E2 - E2^2 + E4 is
#: 12 times theta E2 - (E2^2 - E4)/12)
_LEVEL_ONE_FORMS = {
    "e4^3-e6^2=1728delta": (
        [(1, "at", "E4^3"), (-1, "times", _E6, _E6), (-1728, "at", _DELTA)],
        [[(1, "at", "E4^3"), (-1, "times", _E6, _E6)]],
        1,
    ),
    # Delta is eta^24 from the power recurrence; its square root eta^12,
    # from the same recurrence, squared checks it
    "delta=eta^24": (
        [(1, "at", _DELTA), (-1, "times", _ETA12, _ETA12)], [[(1, "at", _DELTA)]], 1),
    "j*K=1728": ([(1, "times", "J", "K"), (-1728, "one")], [[(1, "times", "J", "K")]], 1),
    "D12(delta)=0": (
        [(1, "theta", _DELTA), (-1, "times", _E2, _DELTA)],
        [[(1, "at", _DELTA)], [(1, "times", _E2, _DELTA)]],
        1,
    ),
    "ramanujan_e2": (
        [(12, "theta", _E2), (-1, "times", _E2, _E2), (1, "at", _E4)], [[(1, "at", _E4)]], 12),
    "ramanujan_e4": (
        [(3, "theta", _E4), (-1, "times", _E2, _E4), (1, "at", _E6)], [[(1, "at", _E6)]], 3),
    "ramanujan_e6": (
        [(2, "theta", _E6), (-1, "times", _E2, _E6), (1, "at", "E4^2")],
        [[(1, "at", "E4^2")]],
        2,
    ),
}


def _windows(terms, series) -> list[tuple[int, int]]:
    """(shift, last index) of each term of a sum, as
    :meth:`PuiseuxSeries.__add__` aligns them: the sum starts at the lowest
    leading exponent, each term ``shift`` places above it, and ends at the
    lowest last exponent.  A product ends at the shorter operand's order,
    as :meth:`PuiseuxSeries.__mul__` truncates it; the unit series ends
    nowhere."""
    spans = []
    for _, op, *keys in terms:
        operands = [series[key] for key in keys]
        lead = sum(s.lead_exponent for s in operands)
        spans.append((as_complex(lead).real, min((s.order for s in operands), default=None)))
    base = min(lead for lead, _ in spans)
    shifts = [round(lead - base) for lead, _ in spans]
    end = min(k + order for k, (_, order) in zip(shifts, spans) if order is not None)
    return [(k, end - k) for k in shifts]


def _fingerprint(terms, series, residues, p: int, z: int) -> int:
    """The sum of the terms at z modulo p, over the window its exact sum
    compares (:func:`_windows`), from the weighted residues and prefix sums
    of each series (:func:`_weighted_residues`), by key: O(N) work a term.
    A truncated product reads sum_{i <= M} a_i z^i P_{M-i}(b)."""
    total = 0
    for (factor, op, *keys), (shift, last) in zip(terms, _windows(terms, series)):
        if last < 0:  # the term starts beyond the sum's end
            continue
        if op == "one":
            value = 1
        elif op == "times":
            (_, prefix), (weights, _) = residues[keys[0]], residues[keys[1]]
            value = sum(map(mul, weights, prefix[last::-1]))
        else:
            weights, prefix = residues[keys[0]]
            value = prefix[last]
            if op == "theta":  # (lam + n) c_n z^n, for an integral lead lam
                lam = int(series[keys[0]].lead_exponent)
                value = lam * value + sum(map(mul, range(last + 1), weights))
        total += factor * pow(z, shift, p) * value
    return total % p


def _exact_sum(terms, series, products: dict) -> PuiseuxSeries:
    """The sum of the terms as an exact series, over the same window; each
    product is formed once per ``products``, by its keys."""
    total = None
    for (factor, op, *keys), (_, last) in zip(terms, _windows(terms, series)):
        if op == "one":
            term = PuiseuxSeries.one(Nome.Q, last)
        elif op == "times":
            if tuple(keys) not in products:
                products[tuple(keys)] = series[keys[0]] * series[keys[1]]
            term = products[tuple(keys)]
        else:
            term = series[keys[0]]
            if op == "theta":
                lam = int(term.lead_exponent)
                term = PuiseuxSeries(term.nome, term.lead_exponent,
                                     tuple((lam + n) * c for n, c in enumerate(term.coeffs)))
        term = term.scale(factor)
        total = term if total is None else total + term
    return total


def _exact_residual(form, series) -> float:
    """The relative residual of one identity from its integer form, exactly:
    the form over its divisor, against its reference series."""
    terms, references, divisor = form
    products: dict = {}
    residual = _exact_sum(terms, series, products)
    if divisor != 1:
        residual = residual.scale(Fraction(1, divisor))
    return relative_residual(residual, *(_exact_sum(r, series, products) for r in references))


_EISENSTEIN_FACTORS = {2: -24, 4: 240, 6: -504}

#: digits of an extended catalog's constants and builds
EXTENDED_DPS = 50

#: every catalog series of the process, by catalog key, at the longest
#: length any catalog built it (a catalog reads a prefix), the lowest order
#: at which Z overflowed, the fingerprint residues of each level-one series,
#: by ("mod p", key), beside the series they were reduced from, and the
#: level-two residuals, by ("level two", order, precision, dps), beside the
#: stored series the suite read
_EXACT_SERIES: dict = {}


def _stored_residues(key) -> tuple[array, array]:
    """The weighted residues and prefix sums modulo p of the series stored
    for ``key`` (:func:`_weighted_residues`), made once per stored object
    and kept beside it in :data:`_EXACT_SERIES`: a catalog reads their
    prefix, as it reads the series', and a replaced entry is reduced
    afresh."""
    stored = _EXACT_SERIES[key]
    held = _EXACT_SERIES.get(("mod p", key))
    if held is None or held[0] is not stored:
        p, z = _fingerprint_prime(), _fingerprint_point()
        held = (stored, *_weighted_residues(stored.coeffs, p, z))
        _EXACT_SERIES[("mod p", key)] = held
    return held[1:]


class ClassicalCatalog:
    """Classical series at one truncation order.

    q-series are expanded through q^order; q2-series through q2^(2*order),
    so mixed level-one / level-two identities truncate consistently.  Every
    series is a prefix of the process-wide one (see the module docstring).

    ``precision`` is "double" (complex constants) or "extended" (mpmath
    constants at the :data:`EXTENDED_DPS` digits in force at construction,
    its ``dps``, every build in a block at those digits).  Arithmetic a
    caller does on the returned series runs at the caller's precision.
    """

    def __init__(self, order: int, precision: str = "double"):
        if order < 1:
            raise ValueError("catalog order must be >= 1")
        if precision not in ("double", "extended"):
            raise ValueError(f"unknown precision {precision!r}")
        self.order = order
        self.precision = precision
        # per key, the process-wide series read (or built) and this
        # catalog's prefix of it; and per series, by identity, its double
        # stack (as_stack)
        self._prefixes: dict = {}
        self._stacks: dict = {}
        # the digits of the constants and of every build: none in double,
        # else the EXTENDED_DPS in force when the catalog is made
        self.dps = None if precision == "double" else EXTENDED_DPS
        if self.dps is None:
            self.xi = cmath.exp(2j * cmath.pi / 6)
            self.xi5 = cmath.exp(2j * cmath.pi * 5 / 6)
            self.sqrt1728 = complex(1728) ** 0.5
            self.i = 1j
        else:
            with mpmath.workdps(self.dps):
                self.xi = mpmath.exp(2j * mpmath.pi * mpmath.mpf(1) / 6)
                self.xi5 = mpmath.exp(2j * mpmath.pi * mpmath.mpf(5) / 6)
                self.sqrt1728 = mpmath.sqrt(mpmath.mpf(1728))
                self.i = mpmath.mpc(1j)

    @property
    def q2_order(self) -> int:
        return 2 * self.order

    def _order_in(self, nome: Nome) -> int:
        return self.order if nome is Nome.Q else self.q2_order

    def _stored(self, key, build, keep=lambda built: True):
        """A series, or tuple of them, of this catalog: the prefix of the
        longest one built for ``key`` in the process (:data:`_EXACT_SERIES`).
        When that one is shorter than this catalog's order, ``build`` runs at
        this order and replaces it if ``keep`` holds for it.  The prefix of
        one stored series is cut once per catalog, and the catalog records
        each series it read or built (:meth:`level_two_residuals` keeps that
        record).  The exact builds need no working precision."""
        stored = _EXACT_SERIES.get(key)
        parts = stored if type(stored) is tuple else (stored,)
        if stored is None or parts[0].order < self._order_in(parts[0].nome):
            built = build()
            if keep(built):
                _EXACT_SERIES[key] = built
            self._prefixes[key] = (built, built if type(built) is tuple else (built,))
            return built
        read, cut = self._prefixes.get(key, (None, None))
        if read is not stored:
            cut = tuple(s.truncate(self._order_in(s.nome)) for s in parts)
            self._prefixes[key] = (stored, cut)
        return cut if type(stored) is tuple else cut[0]

    def _at_precision(self, name: str, build, keep=lambda built: True):
        """A series that depends on the precision (f and g, h, Z), stored as
        :meth:`_stored` stores it, under its name, this catalog's precision
        and its digits, and built in a block at those digits."""
        key = (name, self.precision, self.dps)
        if self.dps is None:
            return self._stored(key, build, keep)
        with mpmath.workdps(self.dps):
            return self._stored(key, build, keep)

    # -- level one, nome q ----------------------------------------------------

    def eisenstein(self, k: int) -> PuiseuxSeries:
        """E_2, E_4 or E_6, normalized to constant term 1."""
        if k not in _EISENSTEIN_FACTORS:
            raise ValueError(f"eisenstein weight must be 2, 4 or 6, got {k}")

        def build():
            sig = _divisor_power_sums(k - 1, self.order)
            factor = _EISENSTEIN_FACTORS[k]
            coeffs = [1] + [factor * sig[n] for n in range(1, self.order + 1)]
            return PuiseuxSeries.make(Nome.Q, 0.0, coeffs)

        return self._stored(("E", k), build)

    def eta_power(self, m: int, nome: Nome = Nome.Q) -> PuiseuxSeries:
        """q^(m/24) * prod (1-q^n)^m; as a q2-series the lead exponent is m/12.

        The lead exponent is exact: it enters Euler-operator factors and must
        not perturb downstream ill-conditioned divisions.  It is an int when
        it is integral (Delta's 1, eta^12's 1 in q2), so exact work on the
        series stays in ints, and a Fraction otherwise."""
        nome = Nome(nome)
        if nome is Nome.Q2:
            def build_q2():
                s = self.eta_power(m).retag_q2().truncate(self.q2_order)
                return PuiseuxSeries(Nome.Q2, _exact_ratio(m, 12), s.coeffs)

            return self._stored(("eta2", m), build_q2)
        if nome is not Nome.Q:
            raise WrongNome("eta powers live in nome q or q2")

        def build():
            return PuiseuxSeries.make(Nome.Q, _exact_ratio(m, 24), _euler_power(m, self.order))

        return self._stored(("eta", m), build)

    def delta(self) -> PuiseuxSeries:
        return self.eta_power(24)

    def e4_squared(self, nome: Nome = Nome.Q) -> PuiseuxSeries:
        """E_4^2, the weight-eight series of the cyclic equation and of
        Ramanujan's E_6 identity, as a q- or q2-series."""
        if Nome(nome) is Nome.Q2:
            return self._stored(
                ("E4^2", Nome.Q2),
                lambda: self.e4_squared().retag_q2().truncate(self.q2_order),
            )
        return self._stored("E4^2", lambda: self.eisenstein(4) ** 2)

    def e4_cubed(self) -> PuiseuxSeries:
        """E_4^3 = E_4 E_4^2, the numerator of j and the denominator of K."""
        return self._stored("E4^3", lambda: self.eisenstein(4) * self.e4_squared())

    def j_invariant(self) -> PuiseuxSeries:
        """j = E_4^3 / Delta = E_4^3 eta^-24; eta^-24 is Delta's exact inverse."""
        return self._stored("J", lambda: self.e4_cubed() * self.eta_power(-24))

    def k_hauptmodul(self) -> PuiseuxSeries:
        """K = 1728/j = 1728 Delta / E_4^3, leading term 1728 q.

        One exact division: the inverse (E_4^3)^-1, whose coefficients grow
        like 231^n, is never formed."""
        return self._stored(
            "K",
            lambda: self.delta().scale(1728).divide(self.e4_cubed()),
        )

    # -- level two, nome q2 ----------------------------------------------------

    def eisenstein_q2(self, k: int) -> PuiseuxSeries:
        return self._stored(
            ("E2nome", k),
            lambda: self.eisenstein(k).retag_q2().truncate(self.q2_order),
        )

    def theta_fourth_powers(self) -> tuple[PuiseuxSeries, PuiseuxSeries, PuiseuxSeries]:
        """theta_2^4, theta_3^4, theta_4^4 as q2-series, from divisor sums.

        Jacobi's four-square theorem gives theta_3^4 = sum r4(n) q2^n with
        r4(0) = 1 and r4(n) = 8 sum_{d | n, 4 does not divide d} d
        = 8 sigma(n) - 32 sigma(n/4); theta_4^4 flips the sign of its odd
        coefficients.  Legendre's four-triangular-number theorem gives
        theta_2^4 = 16 q2 sum_m sigma(2m+1) q2^{2m}, the fourth power of
        theta_2 = 2 q2^{1/4} sum_{n>=0} q2^{n(n+1)}; its lead exponent is the
        float 1.0."""

        def build():
            n2 = self.q2_order
            sig = _divisor_power_sums(1, n2 + 1)
            r4 = [1] + [8 * (sig[n] - 4 * sig[n // 4]) if n % 4 == 0 else 8 * sig[n]
                        for n in range(1, n2 + 1)]
            t2 = [0 if n % 2 else 16 * sig[n + 1] for n in range(n2 + 1)]
            t4 = [-c if n % 2 else c for n, c in enumerate(r4)]
            return (
                PuiseuxSeries.make(Nome.Q2, 1.0, t2),
                PuiseuxSeries.make(Nome.Q2, 0.0, r4),
                PuiseuxSeries.make(Nome.Q2, 0.0, t4),
            )

        return self._stored("theta4", build)

    def fg_generators(self) -> tuple[PuiseuxSeries, PuiseuxSeries]:
        """Weight-two generators f and g = f|T of the level-2 ring of forms."""

        def build():
            t2, t3, t4 = self.theta_fourth_powers()
            f = t2.scale(1 + self.xi) - (t3 + t4).scale(self.xi5)
            # f|T flips the sign of every odd q2-coefficient
            g = PuiseuxSeries(
                Nome.Q2,
                f.lead_exponent,
                tuple(c if n % 2 == 0 else -c for n, c in enumerate(f.coeffs)),
            )
            return f, g

        return self._at_precision("fg", build)

    def h_series(self) -> PuiseuxSeries:
        """h = E_6 / (12^{3/2} eta^12) as a q2-series (weight zero, pole at the cusp).

        E_6 and eta^12 are series in q = q2^2, so the quotient is formed on
        the order-``order`` q-series and retagged: the inverse makes a quarter
        of the multiply-adds of one over the q2-series.  The bytes are those
        of the q2 quotient.  There, every term with an odd q2-offset is an
        exact zero and every sum starts from int 0, so each even coefficient
        adds the same nonzero terms in the same order and is the same number;
        the odd coefficients are zeros either way and emit as [0.0, 0.0].

        From order 1720 on the double inverse holds inf, and a product with
        such an operand runs in double, not long double
        (:func:`vvmf.series._convolve`).  Its head is then not the series
        a shorter build gives, so the store does not keep a non-finite h."""

        def build():
            h = self.eisenstein(6) * self.eta_power(12).scale(self.sqrt1728).invert()
            return h.retag_q2().truncate(self.q2_order)

        return self._at_precision("h", build, keep=lambda h: all(map(cmath.isfinite, h.coeffs)))

    def z_hauptmodul(self) -> PuiseuxSeries:
        """Hauptmodul Z = 2 * 12^{3/2} eta^12 / (12^{3/2} eta^12 + i E_6) of the
        index-two subgroup; vanishes at the cusp with leading coefficient
        -2i * 12^{3/2}."""

        def build():
            c = self.sqrt1728
            eta12 = self.eta_power(12, Nome.Q2)
            denom = eta12.scale(c) + self.eisenstein_q2(6).scale(self.i)
            terms = denom.inverse_terms()
            if self.precision == "double":
                # z_m has the term 2c inv_m, so a non-finite inv_m makes z
                # non-finite: the double inverse stops there (from order
                # 129 on, at q2-order 257)
                terms = takewhile(cmath.isfinite, terms)
            inverse = tuple(terms)
            if len(inverse) > denom.order:
                z = eta12.scale(2 * c) * PuiseuxSeries(Nome.Q2, -denom.lead_exponent, inverse)
                # coefficients grow ~15x per q2-order (~231x per order, like
                # K's) and leave the double range at q2-order 256, so from
                # order 128 on, in either precision: the series is emitted
                # as doubles
                if all(cmath.isfinite(complex(v)) for v in z.coeffs):
                    return z
            raise self._z_overflow()

        # the build is prefix-stable, so every order from the lowest one
        # that overflowed overflows too, and raises without a build
        overflowed = ("Z overflow", self.precision, self.dps)
        if self.order >= _EXACT_SERIES.get(overflowed, math.inf):
            raise self._z_overflow()
        try:
            return self._at_precision("Z", build)
        except OverflowError:
            _EXACT_SERIES[overflowed] = self.order
            raise

    def _z_overflow(self) -> OverflowError:
        return OverflowError(
            "hauptmodul coefficients exceed the double range at q2-order "
            f"{self.q2_order} (order {self.order})"
        )

    # -- derivatives ------------------------------------------------------------

    def theta_q(self, s: PuiseuxSeries) -> PuiseuxSeries:
        """q d/dq on a q- or q2-series (half the q2-Euler operator)."""
        if s.nome is Nome.Q:
            return s.theta()
        if s.nome is Nome.Q2:
            return s.theta().scale(0.5)
        raise WrongNome("theta_q acts on q- or q2-series")

    def e2_for(self, nome: Nome) -> PuiseuxSeries:
        if nome is Nome.Q:
            return self.eisenstein(2)
        if nome is Nome.Q2:
            return self.eisenstein_q2(2)
        raise WrongNome("no quasi-modular E_2 in this nome")

    def as_stack(self, s: PuiseuxSeries) -> FormStack:
        """s as a stack of one form of one component, for the double check:
        converted once per catalog, that is once per job, for each series
        object.  The catalog reads one prefix object per key
        (:meth:`_stored`), so every system of a job shares the stacks of its
        catalog series."""
        held = self._stacks.get(id(s))
        if held is None or held[0] is not s:
            held = (s, FormStack.of([VectorSeries((s,), 0)]))
            self._stacks[id(s)] = held
        return held[1]

    def modular_derive(self, s: PuiseuxSeries, k) -> PuiseuxSeries:
        """Weight-k modular derivative theta_q - (k/12) E_2 on a scalar
        series, in double precision: the one modular derivative of the
        library (:meth:`vvmf.series.FormStack.derive`)."""
        X = FormStack.of([VectorSeries((s,), k)])
        (DX,) = X.derive(self.as_stack(self.e2_for(s.nome))).vectors()
        return DX.components[0]

    # -- named access and self-test ----------------------------------------------

    def series(self, name: str) -> PuiseuxSeries:
        """Look up a catalog series by name (e.g. 'E4', 'Delta', 'Eta^12', 'Z').
        An eta power has one spelling, its exponent as ``str`` writes the
        int: an optional '-' and ASCII digits with no leading zero."""
        key = name.strip()
        low = key.lower()
        if low.startswith("eta^"):
            text = low[len("eta^"):]
            try:
                m = int(text)
            except ValueError:
                raise UnknownSeries(name) from None
            if text != str(m):
                raise UnknownSeries(name)
            return self.eta_power(m)
        table = {
            "e2": lambda: self.eisenstein(2),
            "e4": lambda: self.eisenstein(4),
            "e6": lambda: self.eisenstein(6),
            "delta": self.delta,
            "j": self.j_invariant,
            "k": self.k_hauptmodul,
            "theta2_4": lambda: self.theta_fourth_powers()[0],
            "theta3_4": lambda: self.theta_fourth_powers()[1],
            "theta4_4": lambda: self.theta_fourth_powers()[2],
            "f": lambda: self.fg_generators()[0],
            "g": lambda: self.fg_generators()[1],
            "h": self.h_series,
            "z": self.z_hauptmodul,
        }
        if low not in table:
            raise UnknownSeries(name)
        return table[low]()

    def level_one_residuals(self) -> dict[str, float]:
        """Relative residuals of the level-one identity suite (nome q), with
        no series product on a true identity.

        Each identity of :data:`_LEVEL_ONE_FORMS` is evaluated in integer
        form at the process's point z modulo its prime p
        (:func:`_fingerprint`), from the weighted residues of the stored
        series (:func:`_stored_residues`), over the window its exact residual
        compares.  One that reads 0 has residual 0.0, as the exact one of a
        true identity has.  Otherwise its residual is computed exactly from
        the same form (:func:`_exact_residual`), so a broken identity
        reports its full magnitude (inf beyond the double range)."""
        series = {
            _E2: self.eisenstein(2), _E4: self.eisenstein(4), _E6: self.eisenstein(6),
            _DELTA: self.delta(), _ETA12: self.eta_power(12),
            "E4^2": self.e4_squared(), "E4^3": self.e4_cubed(),
            "J": self.j_invariant(), "K": self.k_hauptmodul(),
        }
        residues = {key: _stored_residues(key) for key in series}
        p, z = _fingerprint_prime(), _fingerprint_point()
        return {
            name: 0.0 if _fingerprint(form[0], series, residues, p, z) == 0
            else _exact_residual(form, series)
            for name, form in _LEVEL_ONE_FORMS.items()
        }

    def level_two_residuals(self) -> dict[str, float]:
        """Relative residuals of the level-two generator suite (nome q2), in
        a fresh dict, computed once per process for each order, precision
        and digits.  They are kept in :data:`_EXACT_SERIES` under
        ("level two", order, precision, dps) beside the stored objects the
        suite read, and computed afresh when one of those has been replaced
        (a longer build, a test's monkeypatch), as :func:`_stored_residues`
        keeps the level-one residues."""
        key = ("level two", self.order, self.precision, self.dps)
        held = _EXACT_SERIES.get(key)
        if held is None or any(_EXACT_SERIES.get(k) is not s for k, s in held[0]):
            res = self._level_two_suite()
            read = tuple((k, stored) for k, (stored, _) in self._prefixes.items())
            held = _EXACT_SERIES[key] = (read, res)
        return dict(held[1])

    def _level_two_suite(self) -> dict[str, float]:
        res: dict[str, float] = {}
        f, g = self.fg_generators()
        e4_2, e6_2 = self.eisenstein_q2(4), self.eisenstein_q2(6)
        xi = self.xi
        fg = f * g
        res["f*g=-4xi*e4"] = relative_residual(fg + e4_2.scale(4 * xi), fg)
        f3, g3 = f**3, g**3
        res["f^3+g^3=16e6"] = relative_residual(f3 + g3 - e6_2.scale(16), f3)
        df = self.modular_derive(f, 2)
        g2 = g * g
        res["D(f)=(xi/12)g^2"] = relative_residual(df - g2.scale(xi / 12), g2)
        d2f = self.modular_derive(df, 4)
        e4f = e4_2 * f
        res["D^2(f)=(1/18)e4*f"] = relative_residual(d2f - e4f.scale(1 / 18), e4f)
        z = self.z_hauptmodul()
        k_q2 = self.k_hauptmodul().retag_q2().truncate(self.q2_order)
        zm1 = z + PuiseuxSeries.polynomial(Nome.Q2, [-1], z.order)
        # cleared of the denominator: K * 4(Z-1) = Z^2
        lhs = k_q2 * zm1.scale(4)
        rhs = z * z
        res["K=Z^2/(4(Z-1))"] = relative_residual(lhs - rhs, lhs, rhs)
        h = self.h_series()
        h2 = h * h
        one = PuiseuxSeries.one(Nome.Q2, h2.order)
        res["h^2+1=1/K"] = relative_residual((h2 + one) * k_q2 - one, h2, k_q2)
        # normalized against the Z-series scale: the hauptmodul's
        # coefficients grow exponentially (pole at the order-three elliptic
        # point), so that is the magnitude the convolution cancels from
        res["Z=(f^3-g^3)/f^3"] = relative_residual((f3 - g3) - z * f3, z, f3, g3)
        f_inv = f.invert()
        gf3 = (g * f_inv) ** 3
        one = PuiseuxSeries.one(Nome.Q2, z.order)
        res["(g/f)^3=1-Z"] = relative_residual(gf3 + z - one, z, gf3)
        lhs = self.theta_q(z)
        rhs = g2 * f_inv.scale(1 / (4 * (xi - 1))) * z
        res["theta_q=g^2/(4(xi-1)f)theta_Z"] = relative_residual(lhs - rhs, lhs)
        return res
