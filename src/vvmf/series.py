"""Truncated Puiseux series arithmetic over complex coefficients.

A :class:`PuiseuxSeries` is a finite window ``x^lam * (a_0 + a_1 x + ... +
a_N x^N) + O(x^{lam+N+1})`` with a complex leading exponent ``lam`` and a tag
identifying the formal variable (q, q2, K or Z).  All higher modules build on
this kernel: q-expansions of classical forms, the q-line solutions and the
vector-valued forms built from them.  The K- and Z-line series, and their
substitution into a hauptmodul (:func:`compose_frobenius`), serve the test
oracles only.

Coefficients are ordinary ``complex`` by default.  Passing mpmath numbers in
switches the same code paths to extended precision; the arithmetic below
never downcasts.  The library scopes every working precision with
``mpmath.workdps`` blocks; it never sets ``mpmath.mp.dps``.

The q-line block holds complex series in fixed point instead
(:class:`FixedSeries`): integer mantissas of the real and imaginary parts at
one binary scale, multiplied exactly through the integer kernels below and
rounded to ``complex`` once (:func:`to_fixed`, :func:`from_fixed`).

Exact-integer series (the classical catalog's) stay exact: their products,
and their inverses and quotients over a unit leading coefficient, are
ints.  A product of two all-``int`` series is computed by one of two
kernels, with identical results.  The packed kernel (:func:`_kronecker_mul`)
packs each operand into one big integer and multiplies once, so CPython's
Karatsuba multiplication replaces the O(N^2) interpreted loop; the
schoolbook loop serves every other coefficient type and the lopsided int
products, where one operand's coefficients grow geometrically and packing
pads the other to the large slot.  A fixed cost estimate from the operand
lengths and coefficient bit lengths (:func:`_kronecker_pays`) picks the
cheaper one.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

import mpmath

from .errors import (
    NomeMismatch,
    NonIntegralExponentGap,
    NonIntegralThreeTrace,
    NonMonicLeadingCoefficient,
    NonUnitLeadingCoefficient,
    WrongNome,
    ZeroLeadingCoefficient,
)

#: tolerance for deciding that an exponent gap is an integer
INT_GAP_TOL = 1e-9
#: below this magnitude a leading coefficient counts as zero
LEAD_TOL = 1e-12

_MP_SCALARS = (mpmath.mpf, mpmath.mpc)
SCALAR_TYPES = (int, float, complex, Fraction) + _MP_SCALARS


class Nome(str, Enum):
    """Tag for the formal variable a series lives in."""

    Q = "q"     # q = e^{2 pi i tau}
    Q2 = "q2"   # q2 = e^{pi i tau}
    K = "K"     # hauptmodul K = 1728/j of the full modular group
    Z = "Z"     # hauptmodul of the index-two subgroup

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def cexp(z):
    """exp that preserves mpmath types."""
    if isinstance(z, _MP_SCALARS):
        return mpmath.exp(z)
    return cmath.exp(z)


def clog(z):
    """Principal-branch log that preserves mpmath types."""
    if isinstance(z, _MP_SCALARS):
        return mpmath.log(z)
    return cmath.log(z)


def cpow(base, exponent):
    """Principal-branch complex power base**exponent."""
    if exponent == 0:
        return 1.0 + 0j if not isinstance(base, _MP_SCALARS) else mpmath.mpc(1)
    return cexp(exponent * clog(base))


def as_complex(z) -> complex:
    """Downcast to builtin complex; used only for tolerance tests."""
    if isinstance(z, Fraction):
        return complex(float(z))
    return complex(z)


def nearest_int(z, tol: float = INT_GAP_TOL) -> int | None:
    """Nearest integer to z, or None if z is not integral within tol."""
    zc = as_complex(z)
    n = round(zc.real)
    if abs(zc - n) <= tol:
        return int(n)
    return None


def require_int(z, what: str, tol: float = INT_GAP_TOL) -> int:
    n = nearest_int(z, tol)
    if n is None:
        raise NonIntegralThreeTrace(f"{what} = {z!r} is not an integer within {tol}")
    return n


def _all_int(coeffs) -> bool:
    """Every coefficient an exact ``int`` (bools and Fractions excluded)."""
    return all(type(c) is int for c in coeffs)


def _slot_bytes(a: Sequence[int], b: Sequence[int]) -> int:
    """Bytes per coefficient slot of a packed product of a and b.

    Every product coefficient is bounded by max|a| * max|b| * min(len), so
    it fits below 2^(bits(a) + bits(b) + bits(min(len))); one more bit holds
    the sign.  The width is never below the widest input coefficient, so
    the inputs pack without overflow too (a zero operand times E_4 needs
    E_4's width, not one byte).
    """
    bits = (
        max(map(int.bit_length, a))
        + max(map(int.bit_length, b))
        + min(len(a), len(b)).bit_length()
        + 1
    )
    return (bits + 7) // 8


def _int_operand_sizes(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int, int]:
    """(terms, total coefficient bits of a, of b, slot bytes) of two
    all-int operands cut to a common length: the input of
    :func:`_kronecker_pays`."""
    return (
        len(a),
        sum(map(int.bit_length, a)),
        sum(map(int.bit_length, b)),
        _slot_bytes(a, b),
    )


def _kronecker_pays(n_terms: int, bits_a: int, bits_b: int, slot_bytes: int) -> bool:
    """Cost rule: is the packed product cheaper than the schoolbook loop?

    Both estimates are in nanoseconds.  The schoolbook loop does
    n(n+1)/2 interpreted multiply-adds, each about 150 ns plus 0.5 ns per
    pair of 30-bit CPython digits of the mean operand coefficients.  The
    packed product costs about 6 us, 1 us per term to pack and unpack,
    and 7.5 ns per (digit count of one packed operand)^1.585, the Karatsuba
    exponent.  The constants are a least-squares fit of both kernels over
    random operands of 3 to 1600 terms with flat and linearly growing bit
    lengths of 2 to 6000 bits (Python 3.11, 2-core x86-64 VM).  The rule
    picks the faster kernel for each of the 97 distinct int x int product
    shapes of the catalog benchmark workload (orders 200 to 800).  Measured
    at order 800, packed against schoolbook: Delta * Delta 5.6 ms against
    60 ms, E4 * E4 3.3 ms against 49 ms, each theta fourth-power squaring
    (q2-order 1600) 4.5 ms against 0.12-0.15 s.  Packing loses when one
    operand's coefficients grow geometrically, because the small operand
    is padded to the large slot: Delta * (E4^3)^-1 takes 2.0 s packed
    against 0.23 s, and j * K 2.0 s against 0.31 s.  Below about 20 terms
    the fixed costs of packing outweigh the loop.
    """
    digits_a = 1 + bits_a / (30 * n_terms)
    digits_b = 1 + bits_b / (30 * n_terms)
    schoolbook = n_terms * (n_terms + 1) / 2 * (150 + 0.5 * digits_a * digits_b)
    packed = 6000 + 1000 * n_terms + 7.5 * (8 * slot_bytes * n_terms / 30) ** 1.585
    return packed < schoolbook


def _kronecker_mul(a: Sequence[int], b: Sequence[int], n_out: int) -> list[int]:
    """Truncated product of two exact-integer coefficient sequences through
    one big-integer multiply (Kronecker substitution; Harvey, J. Symbolic
    Comput. 44, 2009).

    Both operands are cut to n_out + 1 terms and packed into one integer
    each, coefficient i in bytes slot*i to slot*(i+1).  A signed
    coefficient is stored as c + half (half = 2^(8*slot - 1)) and the sum of
    the halves subtracted once, so the packed integer is exactly
    sum c_i 2^(8*slot*i).  The product's slots are then the product
    coefficients.  Unpacking adds the halves back and masks off the slots
    past n_out: every slot of the sum lies in [0, 2^(8*slot)), so the
    borrows of the negative coefficients, and the sign of a negative
    product, are settled by that one big-integer addition, and every slot
    reads back as an unsigned field minus half.
    """
    a, b = a[: n_out + 1], b[: n_out + 1]
    slot = _slot_bytes(a, b)
    half = 1 << (8 * slot - 1)

    def halves(n_slots: int) -> int:
        return int.from_bytes(half.to_bytes(slot, "little") * n_slots, "little")

    def pack(cs) -> int:
        raw = b"".join([(c + half).to_bytes(slot, "little") for c in cs])
        return int.from_bytes(raw, "little") - halves(len(cs))

    width = slot * (n_out + 1)
    low = (pack(a) * pack(b) + halves(n_out + 1)) & ((1 << (8 * width)) - 1)
    buf = low.to_bytes(width, "little")
    return [int.from_bytes(buf[i : i + slot], "little") - half for i in range(0, width, slot)]


@dataclass(frozen=True)
class PuiseuxSeries:
    """Truncated series x^lam * sum_n a_n x^n in the variable tagged by nome."""

    nome: Nome
    lead_exponent: complex
    coeffs: tuple

    # -- construction -------------------------------------------------------

    @staticmethod
    def make(nome: Nome, lead_exponent, coeffs: Sequence) -> "PuiseuxSeries":
        return PuiseuxSeries(Nome(nome), lead_exponent, tuple(coeffs))

    @staticmethod
    def zero(nome: Nome, order: int) -> "PuiseuxSeries":
        return PuiseuxSeries(Nome(nome), 0.0, (0,) * (order + 1))

    @staticmethod
    def one(nome: Nome, order: int) -> "PuiseuxSeries":
        return PuiseuxSeries.polynomial(nome, [1], order)

    @staticmethod
    def polynomial(nome: Nome, coeffs: Sequence, order: int) -> "PuiseuxSeries":
        """Exact polynomial, zero-padded to the requested truncation order."""
        cs = list(coeffs)[: order + 1]
        cs += [0] * (order + 1 - len(cs))
        return PuiseuxSeries(Nome(nome), 0.0, tuple(cs))

    # -- basic observers ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        """Coefficient of x^{lead_exponent + n}; zero outside the window."""
        if 0 <= n <= self.order:
            return self.coeffs[n]
        return 0

    def max_abs(self) -> float:
        return max((float(abs(c)) for c in self.coeffs), default=0.0)

    def effective_lead_exponent(self, rel_tol: float = 1e-9):
        """Exponent of the first coefficient that is nonzero relative to the
        largest one, or None for the (numerically) zero series."""
        scale = self.max_abs()
        if scale == 0.0:
            return None
        for n, c in enumerate(self.coeffs):
            if abs(c) > rel_tol * scale:
                return self.lead_exponent + n
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = ", ".join(repr(as_complex(c)) for c in self.coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return (
            f"PuiseuxSeries({self.nome.value}, lam={as_complex(self.lead_exponent)!r},"
            f" [{head}{tail}], order={self.order})"
        )

    # -- ring operations ----------------------------------------------------

    def _require_same_nome(self, other: "PuiseuxSeries") -> None:
        if self.nome is not other.nome:
            raise NomeMismatch(f"cannot combine {self.nome.value!r} with {other.nome.value!r}")

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries(self.nome, self.lead_exponent, tuple(-c for c in self.coeffs))

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        self._require_same_nome(other)
        gap = as_complex(other.lead_exponent) - as_complex(self.lead_exponent)
        k = round(gap.real)
        if abs(gap - k) > INT_GAP_TOL:
            raise NonIntegralExponentGap(
                f"leading exponents differ by {gap}, not an integer"
            )
        if k < 0:
            lo, hi, shift = other, self, -k
        else:
            lo, hi, shift = self, other, k
        new_order = min(lo.order, shift + hi.order)
        out = []
        for n in range(new_order + 1):
            c = lo.coeffs[n]
            m = n - shift
            if 0 <= m <= hi.order:
                c = c + hi.coeffs[m]
            out.append(c)
        return PuiseuxSeries(self.nome, lo.lead_exponent, tuple(out))

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        self._require_same_nome(other)
        n_out = min(self.order, other.order)
        a, b = self.coeffs[: n_out + 1], other.coeffs[: n_out + 1]
        if _all_int(a) and _all_int(b) and _kronecker_pays(*_int_operand_sizes(a, b)):
            out = _kronecker_mul(a, b, n_out)
        else:
            out = []
            for n in range(n_out + 1):
                s = 0
                for i in range(n + 1):
                    s += a[i] * b[n - i]
                out.append(s)
        return PuiseuxSeries(
            self.nome, self.lead_exponent + other.lead_exponent, tuple(out)
        )

    def __rmul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "PuiseuxSeries":
        # Fractions are NOT degraded to float: integer series scaled by exact
        # rationals stay exact, which downstream divisions rely on.
        return PuiseuxSeries(self.nome, self.lead_exponent, tuple(c * a for a in self.coeffs))

    def shift(self, m: int, c=1) -> "PuiseuxSeries":
        """Multiply by the exact monomial c * x^m."""
        return PuiseuxSeries(
            self.nome, self.lead_exponent + m, tuple(c * a for a in self.coeffs)
        )

    def __pow__(self, m: int) -> "PuiseuxSeries":
        if not isinstance(m, int):
            raise TypeError("use pow_binomial for non-integer powers")
        if m < 0:
            return self.invert() ** (-m)
        result = PuiseuxSeries.one(self.nome, self.order)
        base = self
        while m:
            if m & 1:
                result = result * base
            base_needed = m >> 1
            if base_needed:
                base = base * base
            m >>= 1
        return result

    def truncate(self, order: int) -> "PuiseuxSeries":
        if order >= self.order:
            return self
        return PuiseuxSeries(self.nome, self.lead_exponent, self.coeffs[: order + 1])

    # -- differential and multiplicative structure ---------------------------

    def theta(self) -> "PuiseuxSeries":
        """Euler operator x d/dx in this series' own variable: a_n -> (lam+n) a_n."""
        lam = self.lead_exponent
        return PuiseuxSeries(
            self.nome, lam, tuple((lam + n) * c for n, c in enumerate(self.coeffs))
        )

    def invert(self) -> "PuiseuxSeries":
        """Multiplicative inverse; requires a nonzero leading coefficient.

        Series with integer coefficients and unit leading term (eta products,
        E_4^3, ...) are inverted in exact integer arithmetic, so identities
        like j * K = 1728 hold with zero residual at any order.
        """
        a0 = self.coeffs[0]
        if abs(a0) <= LEAD_TOL:
            raise NonUnitLeadingCoefficient(
                f"leading coefficient {a0!r} too small to invert"
            )
        exact = (
            isinstance(a0, int)
            and abs(a0) == 1
            and all(isinstance(c, int) for c in self.coeffs)
        )
        inv0 = a0 if exact else 1 / a0
        out = [inv0]
        for n in range(1, self.order + 1):
            s = 0
            for k in range(1, n + 1):
                s += self.coeffs[k] * out[n - k]
            out.append(-inv0 * s)
        return PuiseuxSeries(self.nome, -self.lead_exponent, tuple(out))

    def divide(self, den: "PuiseuxSeries") -> "PuiseuxSeries":
        """Quotient self/den by forward substitution.

        Unlike ``self * den.invert()`` this never materializes the inverse
        series, whose coefficients can grow exponentially (1/E_4 has a pole
        inside the disc) and wreck the quotient's small coefficients through
        cancellation; the substitution keeps every intermediate at the scale
        of the result.
        """
        self._require_same_nome(den)
        b0 = den.coeffs[0]
        if abs(b0) <= LEAD_TOL:
            raise NonUnitLeadingCoefficient(
                f"denominator leading coefficient {b0!r} too small"
            )
        n_out = min(self.order, den.order)
        # exact, as in invert: all-int operands over a unit leading
        # coefficient divide in integers, since 1/b0 = b0 for b0 = +-1
        exact = abs(b0) == 1 and _all_int(den.coeffs) and _all_int(self.coeffs)
        out = []
        for n in range(n_out + 1):
            acc = self.coeffs[n]
            for k in range(1, n + 1):
                acc = acc - den.coeffs[k] * out[n - k]
            out.append(acc * b0 if exact else acc / b0)
        return PuiseuxSeries(
            self.nome, self.lead_exponent - den.lead_exponent, tuple(out)
        )

    def pow_binomial(self, r) -> "PuiseuxSeries":
        """(1 + u)^r for this series written as 1 + u, truncated to its order.

        Requires leading exponent 0 and leading coefficient 1; the caller
        factors out the monomial and scalar first.  Computed through the
        first-order recurrence of y = (1+u)^r, which costs O(N^2) and agrees
        with repeated multiplication for nonnegative integer r.
        """
        lam = as_complex(self.lead_exponent)
        if abs(lam) > INT_GAP_TOL:
            raise NonMonicLeadingCoefficient(
                f"pow_binomial needs leading exponent 0, got {lam}"
            )
        if abs(self.coeffs[0] - 1) > LEAD_TOL:
            raise NonMonicLeadingCoefficient(
                f"pow_binomial needs leading coefficient 1, got {self.coeffs[0]!r}"
            )
        if isinstance(r, Fraction):
            r = float(r)
        u = self.coeffs  # u_j = coeffs[j] for j >= 1
        out = [1]
        for n in range(1, self.order + 1):
            s = 0
            for j in range(1, n + 1):
                s += (r * j - (n - j)) * u[j] * out[n - j]
            out.append(s / n)
        return PuiseuxSeries(self.nome, 0.0, tuple(out))

    def slash_t_inverse(self) -> "PuiseuxSeries":
        """Action of tau -> tau - 1 on a q2-series: a_n picks up e^{-pi i (lam+n)}.

        The integer part of the phase is applied as an exact sign alternation
        so that even/odd coefficient patterns survive at machine precision.
        """
        if self.nome is not Nome.Q2:
            raise WrongNome("slash_t_inverse acts on q2-series only")
        lam = self.lead_exponent
        pi = mpmath.pi if isinstance(lam, _MP_SCALARS) else cmath.pi
        phase0 = cexp(-1j * pi * lam)
        out = []
        sign = 1
        for c in self.coeffs:
            out.append(c * phase0 * sign)
            sign = -sign
        return PuiseuxSeries(self.nome, lam, tuple(out))

    def retag_q2(self) -> "PuiseuxSeries":
        """Re-express a q-series as a q2-series via q = q2^2 (index doubling)."""
        if self.nome is not Nome.Q:
            raise WrongNome("retag_q2 only applies to q-series")
        out = [0] * (2 * self.order + 2)
        for n, c in enumerate(self.coeffs):
            out[2 * n] = c
        return PuiseuxSeries(Nome.Q2, 2 * self.lead_exponent, tuple(out))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        """Coefficients as [re, im] doubles; an exact coefficient beyond the
        double range raises OverflowError naming its index (K's grow like
        231^n and leave the range near n = 130)."""
        lam = as_complex(self.lead_exponent)
        coeffs = []
        for n, c in enumerate(self.coeffs):
            try:
                z = as_complex(c)
            except OverflowError as exc:
                raise OverflowError(
                    f"coefficient {n} of an order-{self.order} {self.nome.value}-series"
                    " exceeds the double range"
                ) from exc
            coeffs.append([z.real, z.imag])
        return {
            "nome": self.nome.value,
            "lead_exponent": [lam.real, lam.imag],
            "coeffs": coeffs,
        }

    @staticmethod
    def from_json(data: dict) -> "PuiseuxSeries":
        lam = complex(*data["lead_exponent"])
        coeffs = tuple(complex(re, im) for re, im in data["coeffs"])
        return PuiseuxSeries(Nome(data["nome"]), lam, coeffs)


def even_odd_parts(s: PuiseuxSeries) -> tuple[PuiseuxSeries, PuiseuxSeries]:
    """F + e^{pi i lam} F|T^{-1} (even q2-offsets survive) and
    F - e^{pi i lam} F|T^{-1} (odd offsets survive)."""
    lam = s.lead_exponent
    pi = mpmath.pi if isinstance(lam, _MP_SCALARS) else cmath.pi
    phase = cexp(1j * pi * lam)
    sl = s.slash_t_inverse().scale(phase)
    return s + sl, s - sl


def downcast_to_complex(s: PuiseuxSeries) -> PuiseuxSeries:
    return PuiseuxSeries(
        s.nome, as_complex(s.lead_exponent), tuple(as_complex(c) for c in s.coeffs)
    )


def to_fixed(z, bits: int) -> tuple[int, int]:
    """Mantissas (re, im) of z at the scale 2^-bits: the integers nearest to
    Re(z) 2^bits and Im(z) 2^bits, ties to even.

    z is an int, Fraction, float, complex or mpmath number.  An mpf is read
    as its exact signed rational value (``mpf.man_exp`` drops the sign)."""
    parts = (z.real, z.imag) if isinstance(z, (complex, mpmath.mpc)) else (z, 0)
    out = []
    for x in parts:
        if isinstance(x, mpmath.mpf):
            if not mpmath.isfinite(x):
                raise ValueError(f"cannot hold {x} in fixed point")
            x = Fraction(*mpmath.libmp.to_rational(x._mpf_))
        out.append(round(Fraction(x) * Fraction(2) ** bits))
    return out[0], out[1]


def from_fixed(re: int, im: int, bits: int) -> complex:
    """The complex double nearest to (re + i im) 2^-bits.

    Exact int/int true division rounds half to even, as ``complex(mpc)``
    does, so a value held exactly both ways downcasts to the same double."""
    if bits < 0:
        return complex(re << -bits, im << -bits)
    den = 1 << bits
    return complex(re / den, im / den)


@dataclass(frozen=True)
class FixedSeries:
    """A complex series in fixed point: x^lam sum_n (re_n + i im_n) 2^-bits x^n.

    ``re`` and ``im`` are exact-integer series sharing the nome and the
    leading exponent lam.  Sums are exact at a common scale, and a product is
    exact at the sum of the two scales: three products of int series
    (Gauss's trick), each through ``PuiseuxSeries.__mul__`` and so through
    the packed kernel when it pays.  :meth:`downcast` rounds every
    coefficient to a complex double once (:func:`from_fixed`).
    """

    re: PuiseuxSeries
    im: PuiseuxSeries
    bits: int

    def __add__(self, other: "FixedSeries") -> "FixedSeries":
        if self.bits != other.bits:
            raise ValueError(f"fixed-point scales differ: 2^-{self.bits} and 2^-{other.bits}")
        return FixedSeries(self.re + other.re, self.im + other.im, self.bits)

    def __mul__(self, other: "FixedSeries") -> "FixedSeries":
        k1 = other.re * (self.re + self.im)
        k2 = self.re * (other.im - other.re)
        k3 = self.im * (other.re + other.im)
        return FixedSeries(k1 - k3, k1 + k2, self.bits + other.bits)

    def downcast(self) -> PuiseuxSeries:
        return PuiseuxSeries(
            self.re.nome,
            as_complex(self.re.lead_exponent),
            tuple(from_fixed(a, b, self.bits) for a, b in zip(self.re.coeffs, self.im.coeffs)),
        )


def composition_dps(x_of_q: PuiseuxSeries, margin: int = 35) -> int:
    """Working precision for substituting x(q) into a series.

    Substitution sums a_n * [x^n]_m; the largest term is governed by the
    per-order growth rate max_j |x_j|^(1/j) (the leading coefficient usually
    dominates: 1728 for K, ~83i for Z), while the result stays at
    modular-form scale.  The digits of headroom must absorb the full
    cancellation between the two.
    """
    import math

    def lg(coeff) -> float | None:
        if isinstance(coeff, int):
            # exact for integers of any size (math.log10 takes Python ints)
            return math.log10(abs(coeff)) if coeff else None
        mag = abs(coeff)
        if mag == 0:
            return None
        try:
            return math.log10(float(mag))
        except (OverflowError, ValueError):
            return float(mpmath.log10(abs(mpmath.mpc(coeff))))

    lead = lg(x_of_q.coeffs[0]) or 0.0
    rate = max(lead, 0.0)
    for j in range(1, x_of_q.order + 1):
        v = lg(x_of_q.coeffs[j])
        if v is not None:
            rate = max(rate, (v - lead) / j)
    return margin + int(rate * x_of_q.order) + 1


def compose_frobenius(f: PuiseuxSeries, x_of_q: PuiseuxSeries) -> PuiseuxSeries:
    """Substitute x = x(q) into f(x) = x^lam sum_n a_n x^n.

    ``x_of_q`` must look like c0 * q^m * (1 + u(q)) with m a positive integer
    (both hauptmoduls do: K = 1728 q + ..., Z = c q2 + ...).  The fractional
    head x^lam = c0^lam q^{m lam} (1+u)^lam takes one binomial power; the
    integer tail sum a_n x^n is evaluated by Horner's scheme, which keeps all
    intermediates at the scale of the result (expanding each x^{lam+n}
    separately loses catastrophically once the coefficients of x(q) grow).
    The result lives in the variable of ``x_of_q``, truncated to the shorter
    of the two windows.
    """
    if f.nome not in (Nome.K, Nome.Z):
        raise WrongNome(f"composition source must be a K- or Z-series, got {f.nome.value!r}")
    c0 = x_of_q.coeffs[0]
    if abs(c0) <= LEAD_TOL:
        raise ZeroLeadingCoefficient("substituted series has vanishing leading coefficient")
    mu = as_complex(x_of_q.lead_exponent)
    m = round(mu.real)
    if m < 1 or abs(mu - m) > INT_GAP_TOL:
        raise NonIntegralExponentGap(
            f"substituted series needs a positive integer leading exponent, got {mu}"
        )
    n_out = min(x_of_q.order, f.order)
    lam = f.lead_exponent
    if isinstance(lam, _MP_SCALARS) or isinstance(f.coeffs[0], _MP_SCALARS):
        c0 = mpmath.mpc(c0)  # keep the whole evaluation in mp precision
    x = PuiseuxSeries(x_of_q.nome, m, tuple(x_of_q.coeffs[: n_out + 1]))
    tail = PuiseuxSeries.polynomial(x_of_q.nome, [f.coeffs[-1]], n_out)
    for a_n in reversed(f.coeffs[:-1]):
        tail = tail * x + PuiseuxSeries.polynomial(x_of_q.nome, [a_n], n_out)
    unit = PuiseuxSeries(
        x_of_q.nome, 0.0, tuple(c / c0 for c in x.coeffs)
    )
    head = unit.pow_binomial(lam).scale(cpow(c0, lam))
    out = head * tail
    return PuiseuxSeries(x_of_q.nome, m * lam + out.lead_exponent, out.coeffs)


@dataclass(frozen=True)
class VectorSeries:
    """Ordered tuple of component series sharing one nome, with a weight."""

    components: tuple[PuiseuxSeries, ...]
    weight: Fraction

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("VectorSeries needs at least one component")
        nome = self.components[0].nome
        for c in self.components:
            if c.nome is not nome:
                raise NomeMismatch("vector components must share one nome")
        order = min(c.order for c in self.components)
        object.__setattr__(
            self, "components", tuple(c.truncate(order) for c in self.components)
        )
        object.__setattr__(self, "weight", Fraction(self.weight))

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def nome(self) -> Nome:
        return self.components[0].nome

    @property
    def order(self) -> int:
        return self.components[0].order

    def map(self, fn: Callable[[PuiseuxSeries], PuiseuxSeries], weight=None) -> "VectorSeries":
        w = self.weight if weight is None else weight
        return VectorSeries(tuple(fn(c) for c in self.components), w)

    def __add__(self, other: "VectorSeries") -> "VectorSeries":
        return VectorSeries(
            tuple(a + b for a, b in zip(self.components, other.components, strict=True)),
            self.weight,
        )

    def __sub__(self, other: "VectorSeries") -> "VectorSeries":
        return VectorSeries(
            tuple(a - b for a, b in zip(self.components, other.components, strict=True)),
            self.weight,
        )

    def __neg__(self) -> "VectorSeries":
        return self.map(lambda c: -c)

    def scale(self, c) -> "VectorSeries":
        return self.map(lambda s: s.scale(c))

    def mul_series(self, s: PuiseuxSeries, weight_shift=0) -> "VectorSeries":
        """Componentwise product with a scalar series of the given weight."""
        return VectorSeries(
            tuple(c * s for c in self.components),
            self.weight + Fraction(weight_shift),
        )

    def max_abs(self) -> float:
        return max(c.max_abs() for c in self.components)

    def to_json(self) -> dict:
        return {
            "weight": [self.weight.numerator, self.weight.denominator],
            "components": [c.to_json() for c in self.components],
        }


def relative_residual(residual, *references) -> float:
    """max |residual coefficient| over the max coefficient of the references.

    Works on scalar and vector series alike; the scale floor 1.0 keeps the
    quotient meaningful for identities between O(1)-normalized series.
    """
    def _max(x):
        return x.max_abs()

    scale = max([1.0] + [_max(r) for r in references])
    return _max(residual) / scale
