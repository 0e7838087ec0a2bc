"""Truncated Puiseux series arithmetic over complex coefficients.

A :class:`PuiseuxSeries` is a finite window ``x^lam * (a_0 + a_1 x + ... +
a_N x^N) + O(x^{lam+N+1})`` with a complex leading exponent ``lam`` and a tag
identifying the formal variable (q, q2, K or Z).  All higher modules build on
this kernel: q-expansions of classical forms, the q-line solutions and the
vector-valued forms built from them.  No route substitutes a hauptmodul;
:func:`compose_frobenius` stays for the test oracles until the benchmark's
tracer stops reading it at its binding sites.

Coefficients are ordinary ``complex`` by default.  Passing mpmath numbers in
switches the same code paths to extended precision; the arithmetic below
never downcasts and runs at the caller's mpmath precision.  Two places
decide that precision: each route's q-line block
(:func:`vvmf.mlde.qline_precision`) for the forms, and the classical catalog
(:data:`vvmf.classical.EXTENDED_DPS`) for its extended builds.  Both scope
it with ``mpmath.workdps`` blocks; the library never sets ``mpmath.mp.dps``.

The q-line block holds complex series in fixed point instead
(:class:`FixedSeries`): integer mantissas of the real and imaginary parts at
one binary scale, rounded to ``complex`` once (:func:`to_fixed`,
:meth:`FixedSeries.downcast`).  Two of them multiply exactly in one complex FFT
convolution (:func:`_complex_mul`): each mantissa pair re + i im is split
into balanced 16-bit limbs, or 8-bit ones when the operands are large, the
limb sequences are convolved by ``numpy.fft`` and rounded to integers, and
the limbs rebuild the product's mantissas.  Exactness rests on an a-priori
bound, not a tolerance: the limb width (:func:`_limb_bits`) keeps
Percival's bound on the FFT error (:func:`_fft_kappa`) below 1/4 of a unit,
and a coefficient farther than that from its integer raises
ArithmeticError.  On the rank-2 rows of the tensor pool a product takes
1.0-1.2 ms at order 80, against 1.9-2.6 ms for the three integer products
of Gauss's trick it replaced, and 12.5-14 ms against 32-36 ms at order 400
(2-core x86-64 VM, Python 3.11, numpy 2.4).  Real rows, whose imaginary
mantissas are all zero, multiply two at a time (:func:`pair_mul`): x0 and
x1 against one y are the real and imaginary parts of (x0 + i x1) y, one
convolution for two products.  The mantissas are exact either way, so the
pairing changes no rounded double; on those rows a paired product takes
1.46 ms at order 80 and 13.2 ms at order 400, against 2.18 and 24.9 ms for
two plain ones (medians, same machine).

Exact-integer series (the classical catalog's) stay exact: their products,
and their inverses and quotients over a unit leading coefficient, are
ints.  A product of two all-``int`` series is computed by one of two
kernels, with identical results.  The packed kernel (:func:`_kronecker_mul`)
packs each operand into one big integer and multiplies once, so CPython's
Karatsuba multiplication replaces the O(N^2) interpreted loop.  Packing
pads every coefficient to the widest product's slot, so the lopsided
products, where one operand's coefficients grow geometrically, take the
schoolbook loop (:func:`_loop_mul`) instead.  A fixed cost estimate from
the operand lengths and coefficient bit lengths (:func:`_int_kernel`)
picks the cheaper.
These products keep CPython's Karatsuba rather than the FFT kernel: sent
through it in a prototype, the catalog benchmark ran 10-15% faster, but
its peak resident memory rose from 46.3 to 51.8 MB, past the benchmark's
10% bound.

A product of builtin ``int``/``float``/``complex`` coefficients with at least
one operand not all-``int`` is one ``numpy.convolve`` (:func:`_double_mul`):
the operands are read as float64 (both real) or complex128 and convolved in
numpy's long double, then rounded to double once (:func:`_convolve`).  The
kernel follows from the coefficient types alone.  Its results differ from
the interpreted double loop in the last bits, the rounding errors of that
loop.  Identical jobs still give identical bytes on one installation;
another numpy build or platform (where long double is double, or quad
precision) may sum in another precision and change the last bits of
derived forms and residuals.  ``mpmath`` and ``Fraction`` coefficients
keep the schoolbook loop.

The double check of every route runs on a :class:`FormStack`: the forms of
one check as one complex128 array, converted once, whose modular
derivatives (:meth:`FormStack.derive`, the library's one) and products
(:meth:`FormStack.times`) are taken by the same kernel on slices of that
array, and whose other steps repeat Python's complex arithmetic operation by
operation in float64, so the bytes are those of the series arithmetic.  The
kernel alone decides, from the two slices it is given, whether a product is
summed in long double, so a series product and a stack product of the same
coefficients agree.

numpy is imported inside the numpy kernels and :class:`FormStack` (the
double products, the stack and the FFT product :func:`_complex_mul`), so it
loads at a process's first double or FFT product, not with the package.
Its import takes about 150 ms, more than a whole exact job: ``classify``,
``coeffs`` and ``classical`` (every name but h and Z in double precision)
never load it.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterator, Sequence

import mpmath

from .errors import (
    NomeMismatch,
    NonIntegralExponentGap,
    NonIntegralThreeTrace,
    NonMonicLeadingCoefficient,
    WrongNome,
    ZeroLeadingCoefficient,
)

#: tolerance for deciding that an exponent gap is an integer
INT_GAP_TOL = 1e-9
#: below this magnitude a leading coefficient counts as zero
LEAD_TOL = 1e-12

_MP_SCALARS = (mpmath.mpf, mpmath.mpc)
SCALAR_TYPES = (int, float, complex, Fraction) + _MP_SCALARS
#: coefficient types of the double-precision product kernel
_DOUBLE_KERNEL_TYPES = frozenset((int, float, complex))


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
    """Downcast to builtin complex, for tolerance tests, lead exponents and
    the overflow search of :meth:`PuiseuxSeries.to_json` (whose coefficients
    are converted by a C-level map instead).  ``complex`` reads a
    ``Fraction`` through its ``__float__``, as ``float`` does."""
    return complex(z)


def nearest_int(z) -> int | None:
    """Nearest integer to z, or None if z is not integral within
    :data:`INT_GAP_TOL`."""
    zc = as_complex(z)
    n = round(zc.real)
    if abs(zc - n) <= INT_GAP_TOL:
        return int(n)
    return None


def require_int(z, what: str) -> int:
    n = nearest_int(z)
    if n is None:
        raise NonIntegralThreeTrace(f"{what} = {z!r} is not an integer within {INT_GAP_TOL}")
    return n


def _all_int(coeffs) -> bool:
    """Every coefficient an exact ``int`` (bools and Fractions excluded)."""
    return all(type(c) is int for c in coeffs)


def _magnitude(c) -> float:
    """|c| as a float: inf for an int or Fraction beyond the double range."""
    try:
        return float(abs(c))
    except OverflowError:
        return math.inf


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


def _int_kernel(
    a: Sequence[int], b: Sequence[int]
) -> Callable[[Sequence[int], Sequence[int], int], list[int]]:
    """Cost rule: the cheaper of the packed kernel and the schoolbook loop
    for the product of two all-int operands cut to a common length.

    The estimates are in nanoseconds.  The schoolbook loop does
    n(n+1)/2 interpreted multiply-adds, each about 150 ns plus 0.5 ns per
    pair of 30-bit CPython digits of the mean operand coefficients.  The
    packed product costs about 6 us, 1 us per term to pack and unpack, and
    7.5 ns per (digit count of one packed operand)^1.585, CPython's
    Karatsuba exponent.  The constants are least-squares fits of each
    kernel over random operands of 3 to 1600 terms with flat and linearly
    growing bit lengths of 2 to 6000 bits (Python 3.11, 2-core x86-64 VM).
    Measured at order 800 (three runs, same machine): E4 * E4 takes
    2.9-3.2 ms packed against 40-47 ms in the loop, eta^12 * eta^12
    1.7-2.6 ms against 31-41 ms, and E4^3 * eta^-24 (j) 33-46 ms against
    62-67 ms; at order 1600 j's product takes 137-142 ms packed.  Packing
    loses when one operand's coefficients grow geometrically, because the
    small operand is padded to the large slot: the exact j * K takes 33 ms,
    0.24 s and 1.2 s packed at orders 200, 400 and 800, and 38 ms and
    0.38 s in the loop at 400 and 800.  The check job forms it only when
    its fingerprint at a point modulo a prime fails
    (:meth:`vvmf.classical.ClassicalCatalog.level_one_residuals`), which
    multiplies no series.  Below about 20 terms the fixed costs of packing
    outweigh the loop.
    """
    n_terms = len(a)
    digits_a = 1 + sum(map(int.bit_length, a)) / (30 * n_terms)
    digits_b = 1 + sum(map(int.bit_length, b)) / (30 * n_terms)
    schoolbook = n_terms * (n_terms + 1) / 2 * (150 + 0.5 * digits_a * digits_b)
    packed = 6000 + 1000 * n_terms + 7.5 * (8 * _slot_bytes(a, b) * n_terms / 30) ** 1.585
    return _kronecker_mul if packed <= schoolbook else _loop_mul


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


def _loop_mul(a: Sequence, b: Sequence, n_out: int) -> list:
    """Coefficients 0..n_out of a * b by the schoolbook loop: each one
    0 + a_0 b_n + a_1 b_{n-1} + ..., added left to right, so that doubles,
    mpmath numbers and Fractions round as in the interpreted loop (``sum``
    compensates float sums from Python 3.12).  Terms past either operand's
    end are absent, so n_out may reach len(a) + len(b) - 2."""
    rb = b[::-1]
    last = len(b) - 1
    return [reduce(operator.add,
                   map(operator.mul, a[max(0, n - last) : n + 1], rb[max(0, last - n) :]), 0)
            for n in range(n_out + 1)]


def _convolve(x, y, n_out: int):
    """The double kernel: the first n_out + 1 coefficients of x * y as one
    ``numpy.convolve``, rounded to x's double type.

    x and y are double arrays of one dtype, cut to n_out + 1 terms; the
    order of the two is the order of the sums.  Two finite operands are
    convolved as long double copies (complex or real, as they are).  numpy
    sums a long double convolution in a fixed order by its own loop, never
    through BLAS, whose dot kernel is picked per CPU; on x86-64 its 64-bit
    mantissa holds every product and partial sum to 2^-64, so a double
    result is rounded essentially once.  An operand holding inf or nan is
    convolved in double instead: x87 long double arithmetic on them runs
    through microcode assists, and Z's overflowing product at q2-order 1600
    took 3.9 s that way.  The caller scopes floating-point warnings."""
    import numpy as np

    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return np.convolve(x, y)[: n_out + 1]
    wide = np.clongdouble if x.dtype.kind == "c" else np.longdouble
    return np.convolve(x.astype(wide), y.astype(wide))[: n_out + 1].astype(x.dtype)


def _double_mul(a: Sequence, b: Sequence, n_out: int, is_complex: bool) -> list:
    """Truncated product of builtin int/float/complex coefficient sequences
    by the double kernel (:func:`_convolve`).

    The operands are read as doubles (complex if either holds a complex), so
    an int beyond the double range raises OverflowError as in the
    interpreted loop.  inf and nan propagate without a floating-point
    warning.  Returns Python floats or complexes."""
    import numpy as np

    narrow = np.complex128 if is_complex else np.float64
    with np.errstate(all="ignore"):
        x, y = np.array(a, dtype=narrow), np.array(b, dtype=narrow)
        return _convolve(x, y, n_out).tolist()


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

    def max_abs(self) -> float:
        """The largest |coefficient|; nan when a coefficient is nan, which
        Python's ``max`` would skip unless it came first, and inf when an
        int or Fraction lies beyond the double range."""
        try:
            sizes = [float(abs(c)) for c in self.coeffs]
        except OverflowError:
            sizes = [_magnitude(c) for c in self.coeffs]
        return math.nan if math.isnan(sum(sizes)) else max(sizes, default=0.0)

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
        k = nearest_int(gap)
        if k is None:
            raise NonIntegralExponentGap(
                f"leading exponents differ by {gap}, not an integer"
            )
        if k < 0:
            lo, hi, shift = other, self, -k
        else:
            lo, hi, shift = self, other, k
        # lo's head below the shift, then lo + hi over the overlap up to the
        # shorter window's end
        end = min(lo.order, shift + hi.order) + 1
        out = lo.coeffs[:shift] + tuple(map(operator.add, lo.coeffs[shift:end], hi.coeffs))
        return PuiseuxSeries(self.nome, lo.lead_exponent, out)

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
        types = set(map(type, a)) | set(map(type, b))
        if types == {int}:
            out = _int_kernel(a, b)(a, b, n_out)
        elif types <= _DOUBLE_KERNEL_TYPES:
            out = _double_mul(a, b, n_out, complex in types)
        else:
            out = _loop_mul(a, b, n_out)
        return PuiseuxSeries(
            self.nome, self.lead_exponent + other.lead_exponent, tuple(out)
        )

    def __rmul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "PuiseuxSeries":
        # Fractions are NOT degraded to float on exact coefficients: integer
        # series scaled by exact rationals stay exact, which downstream
        # divisions rely on.  On float/complex coefficients Fraction.__mul__
        # converts with float(c) anyway, so that conversion is made once.
        if type(c) is Fraction and all(type(a) in (float, complex) for a in self.coeffs):
            c = float(c)
        return PuiseuxSeries(self.nome, self.lead_exponent, tuple(c * a for a in self.coeffs))

    def __pow__(self, m: int) -> "PuiseuxSeries":
        if not isinstance(m, int):
            raise TypeError("use pow_binomial for non-integer powers")
        if m < 0:
            return self.invert() ** (-m)
        if m == 0:
            return PuiseuxSeries.one(self.nome, self.order)
        # square and multiply, starting from the lowest set bit rather than
        # the unit series: bit_length(m) - 1 squarings, popcount(m) - 1 products
        result, base = None, self
        while True:
            if m & 1:
                result = base if result is None else result * base
            m >>= 1
            if not m:
                return result
            base = base * base

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
        return PuiseuxSeries(self.nome, -self.lead_exponent, tuple(self.inverse_terms()))

    def inverse_terms(self) -> Iterator:
        """The coefficients of :meth:`invert`, one at a time, so a caller can
        stop at the first one it cannot use."""
        a0 = self.coeffs[0]
        if abs(a0) <= LEAD_TOL:
            raise ZeroLeadingCoefficient(
                f"leading coefficient {a0!r} too small to invert"
            )
        exact = (
            isinstance(a0, int)
            and abs(a0) == 1
            and all(isinstance(c, int) for c in self.coeffs)
        )
        inv0 = a0 if exact else 1 / a0
        out = [inv0]
        yield inv0
        for n in range(1, self.order + 1):
            # 0 + a_1 out_{n-1} + a_2 out_{n-2} + ..., left to right
            s = reduce(operator.add, map(operator.mul, self.coeffs[1 : n + 1], reversed(out)), 0)
            out.append(-inv0 * s)
            yield out[-1]

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
            raise ZeroLeadingCoefficient(
                f"denominator leading coefficient {b0!r} too small"
            )
        n_out = min(self.order, den.order)
        # exact, as in invert: all-int operands over a unit leading
        # coefficient divide in integers, since 1/b0 = b0 for b0 = +-1
        exact = abs(b0) == 1 and _all_int(den.coeffs) and _all_int(self.coeffs)
        out = []
        for n in range(n_out + 1):
            # num_n - b_1 out_{n-1} - b_2 out_{n-2} - ..., left to right
            acc = reduce(operator.sub, map(operator.mul, den.coeffs[1 : n + 1], reversed(out)),
                         self.coeffs[n])
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
        """Coefficients as [re, im] doubles, converted in one pass by a C-level
        map for their kind: ``float`` for a series of builtin ints and floats
        (``float(n)`` rounds an int as ``complex(n).real`` does), else
        ``complex`` (:func:`as_complex`).  No numpy is loaded.  An exact
        coefficient beyond the double range raises OverflowError naming its
        index, which is looked for only then (K's grow like 231^n and leave
        the range near n = 130)."""
        lam = as_complex(self.lead_exponent)
        try:
            if set(map(type, self.coeffs)) <= {int, float}:
                coeffs = [[x, 0.0] for x in map(float, self.coeffs)]
            else:
                coeffs = [[z.real, z.imag] for z in map(complex, self.coeffs)]
        except OverflowError as exc:
            n = next(n for n, c in enumerate(self.coeffs) if _overflows(c))
            raise OverflowError(
                f"coefficient {n} of an order-{self.order} {self.nome.value}-series"
                " exceeds the double range"
            ) from exc
        return {
            "nome": self.nome.value,
            "lead_exponent": [lam.real, lam.imag],
            "coeffs": coeffs,
        }


def _overflows(z) -> bool:
    """Whether z is beyond the double range (:func:`as_complex` raises)."""
    try:
        as_complex(z)
    except OverflowError:
        return True
    return False


def _shift_round(m: int, shift: int) -> int:
    """The integer nearest to m 2^shift, ties to even: one exact shift."""
    if shift >= 0:
        return m << shift
    q, r = divmod(m, 1 << -shift)  # floor quotient, 0 <= r < 2^-shift
    half = 1 << (-shift - 1)
    return q + (r > half or (r == half and q & 1))


def _fixed_part(x, bits: int) -> int:
    """The integer nearest to x 2^bits, ties to even, for a real x."""
    if type(x) is int:
        return _shift_round(x, bits)
    if isinstance(x, mpmath.mpf):
        sign, man, exp, _ = x._mpf_
        if not man:
            if x._mpf_ != mpmath.libmp.fzero:
                raise ValueError(f"cannot hold {x} in fixed point")
            return 0
        return _shift_round(-int(man) if sign else int(man), exp + bits)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot hold {x} in fixed point")
        num, den = x.as_integer_ratio()  # den is a power of two
        return _shift_round(num, bits - den.bit_length() + 1)
    x = x if isinstance(x, Fraction) else Fraction(x)
    num, den = x.numerator, x.denominator
    if bits >= 0:
        num <<= bits
    else:
        den <<= -bits
    q, rest = divmod(num, den)  # floor quotient, 0 <= rest < den
    return q + (2 * rest > den or (2 * rest == den and q & 1))


def to_fixed(z, bits: int) -> tuple[int, int]:
    """Mantissas (re, im) of z at the scale 2^-bits: the integers nearest to
    Re(z) 2^bits and Im(z) 2^bits, ties to even.

    z is an int, Fraction, float, complex or mpmath number.  An int, float
    or mpf is encoded by one exact shift of its binary mantissa (an mpf's
    from the sign, mantissa and exponent of ``_mpf_``); a Fraction by one
    integer division, ties to even.  inf and nan raise ValueError."""
    if isinstance(z, (complex, mpmath.mpc)):
        return _fixed_part(z.real, bits), _fixed_part(z.imag, bits)
    return _fixed_part(z, bits), 0


#: unit roundoff of IEEE double
_EPS = 2.0**-53
#: bound on the error of a twiddle factor of numpy's FFT: eight units of
#: roundoff; the transform of a unit impulse, which returns the twiddle
#: factors, is within 4.1 units of the exact ones up to length 2^18 (numpy 2.4)
_TWIDDLE_ERR = 2.0**-50


def _fft_kappa(log2_n: int) -> float:
    """Percival's error factor of an FFT convolution of length 2^n (Math.
    Comp. 72, 2003): every coefficient of the computed cyclic convolution of
    x and y is within ||x|| ||y|| kappa of the exact one, with
    kappa = (1+eps)^3n (1+eps sqrt5)^(3n+1) (1+beta)^3n - 1, eps the unit
    roundoff and beta the twiddle error bound.  The bound is proved for a
    radix-2 transform and taken here for numpy's power-of-two transforms;
    :func:`_complex_mul` checks every result it rounds."""
    n = log2_n
    return math.expm1(
        3 * n * math.log1p(_EPS)
        + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5))
        + 3 * n * math.log1p(_TWIDDLE_ERR)
    )


def _limb_layout(
    n_terms: int, bits_a: int, bits_b: int, limb_bits: int
) -> tuple[int, int, int, int]:
    """(limbs per coefficient of a, of b, limbs per product slot, log2 of
    the FFT length) of a complex limb product of two operands of at most
    n_terms coefficients whose mantissas have at most bits_a and bits_b
    bits.

    A mantissa takes limbs of limb_bits bits up to and including its sign
    bit.  A product coefficient is bounded by n_terms 2 2^(bits_a + bits_b)
    (its real and imaginary parts are sums of n_terms products of complex
    integers of modulus below sqrt2 2^bits), so its slot holds
    bits_a + bits_b + bits(n_terms) + 2 bits, the last for the sign, as in
    :func:`_slot_bytes`.  The FFT is the power of two that holds the whole
    linear convolution, so nothing wraps around."""
    la = bits_a // limb_bits + 1
    lb = bits_b // limb_bits + 1
    slot = -(-(bits_a + bits_b + n_terms.bit_length() + 2) // limb_bits)
    length = max((n_terms - 1) * slot * 2 + la + lb - 1, n_terms * slot)
    return la, lb, slot, (length - 1).bit_length()


def _limb_bits(n_terms: int, bits_a: int, bits_b: int) -> int:
    """Limb width of an exact complex limb product (:func:`_complex_mul`) of
    operands of at most n_terms coefficients whose mantissas have at most
    bits_a and bits_b bits: 16 bits, or 8 when 16 would break the bound.

    A balanced limb lies in [-2^(w-1), 2^(w-1)], so a complex limb has
    modulus at most 2^(w - 1/2), and an operand of n_terms l limbs has
    Euclidean norm at most sqrt(n_terms l) 2^(w - 1/2).  The width is the
    widest for which Percival's bound ||x|| ||y|| kappa(N) of the
    convolution error (:func:`_fft_kappa`) stays below 1/4, so every
    coefficient lies within 1/4 of its integer and rounds to it.  Past
    what 8-bit limbs allow (about 2^26 limbs an operand) it raises
    ArithmeticError."""
    for w in (16, 8):
        la, lb, _, log2_n = _limb_layout(n_terms, bits_a, bits_b, w)
        norms = n_terms * math.sqrt(la * lb) * 2.0 ** (2 * w - 1)
        if norms * _fft_kappa(log2_n) < 0.25:
            return w
    raise ArithmeticError(
        f"a {n_terms}-term product of {bits_a}- and {bits_b}-bit mantissas"
        " exceeds the exact range of a double-precision FFT"
    )


def _balanced_limbs(cs: Sequence[int], n_limbs: int, limb_bits: int):
    """The integers cs as rows of n_limbs balanced limbs in
    [-2^(w-1), 2^(w-1)], least significant first: row i sums to cs[i] in
    base 2^w.

    The unsigned digits u_j of the two's complement bytes become
    u_j - 2^w h_j + h_(j-1), with h_j the top bit of u_j: each carry is read
    off its own digit, so no carry chain runs, and the carry out of the top
    digit cancels the sign's weight 2^(w n_limbs)."""
    import numpy as np

    raw = b"".join([c.to_bytes(n_limbs * limb_bits // 8, "little", signed=True) for c in cs])
    u = np.frombuffer(raw, dtype=f"<u{limb_bits // 8}").reshape(len(cs), n_limbs).astype(np.int64)
    top = u >> (limb_bits - 1)
    limbs = u - (top << limb_bits)
    limbs[:, 1:] += top[:, :-1]
    return limbs


def _complex_mul(
    a_re: Sequence[int], a_im: Sequence[int],
    b_re: Sequence[int], b_im: Sequence[int],
    n_out: int,
) -> tuple[list[int], list[int]]:
    """Real and imaginary mantissas of the truncated product of the complex
    integer sequences a_re + i a_im and b_re + i b_im (a_re and a_im of one
    length, b_re and b_im of one length), through one complex FFT
    convolution of limbs.

    Each operand is cut to n_out + 1 terms.  Its coefficient n becomes the
    limbs (:func:`_balanced_limbs`) of re_n + i im_n at the head of slot n
    of a complex limb sequence; the rest of the slot is zero
    (:func:`_limb_layout`).  The limb sequence of the product is the
    convolution of the two: one ``numpy.fft.fft`` of each operand and one
    ``ifft``, rounded to integers with ``rint``.  The limb width, picked
    from the operand sizes by :func:`_limb_bits`, makes the rounding exact
    by Percival's bound; a coefficient farther than 1/4 from its integer
    raises ArithmeticError, which that width cannot reach.  The integer limbs then rebuild, for
    each of the real and imaginary parts, the packed integer
    sum_n c_n 2^(w slot n) modulo the n_out + 1 kept slots, which is read
    back slot by slot as in :func:`_kronecker_mul`."""
    import numpy as np

    n_terms = n_out + 1
    a_re, a_im, b_re, b_im = (list(p[:n_terms]) for p in (a_re, a_im, b_re, b_im))
    bits_a = max(map(int.bit_length, a_re + a_im))
    bits_b = max(map(int.bit_length, b_re + b_im))
    limb_bits = _limb_bits(n_terms, bits_a, bits_b)
    la, lb, slot, log2_n = _limb_layout(n_terms, bits_a, bits_b, limb_bits)
    # every mantissa in the limb count of the wider operand, whose top
    # limbs are zero for the narrower one
    n_limbs = max(la, lb)
    limbs = _balanced_limbs(a_re + a_im + b_re + b_im, n_limbs, limb_bits)

    def spectrum(first, n):
        z = np.zeros((n, slot), dtype=np.complex128)
        z.real[:, :n_limbs] = limbs[first : first + n]
        z.imag[:, :n_limbs] = limbs[first + n : first + 2 * n]
        return np.fft.fft(z.reshape(-1), 1 << log2_n)

    width = slot * n_terms
    # re_0, im_0, re_1, im_1, ... of the product's limbs
    v = np.fft.ifft(spectrum(0, len(a_re)) * spectrum(2 * len(a_re), len(b_re)))
    v = v[:width].view(np.float64)
    rounded = np.rint(v)
    if not np.all(np.abs(v - rounded) < 0.25):
        raise ArithmeticError("FFT convolution error reached 1/4 of a unit")
    # a limb is at most ||x|| ||y|| < 1/(4 kappa) < 2^51 in modulus, so it
    # takes 64 bits after an offset of 2^62; those are split into 64/w lanes
    # of w-bit digits, one little-endian integer each
    n_lanes = 64 // limb_bits
    lanes = (rounded.astype(np.int64) + (1 << 62)).astype("<u8").view(f"<u{limb_bits // 8}")
    lanes = lanes.reshape(width, 2, n_lanes)
    step = slot * limb_bits // 8
    half = 1 << (8 * step - 1)
    halves = int.from_bytes(half.to_bytes(step, "little") * n_terms, "little")
    offset = int.from_bytes((1).to_bytes(limb_bits // 8, "little") * width, "little") << 62
    mask = (1 << (limb_bits * width)) - 1
    out = []
    for part in (0, 1):
        packed = sum(
            int.from_bytes(lanes[:, part, j].tobytes(), "little") << (limb_bits * j)
            for j in range(n_lanes)
        ) - offset
        buf = ((packed + halves) & mask).to_bytes(limb_bits * width // 8, "little")
        out.append([int.from_bytes(buf[i : i + step], "little") - half
                    for i in range(0, len(buf), step)])
    return out[0], out[1]


@dataclass(frozen=True)
class FixedSeries:
    """A complex series in fixed point: x^lam sum_n (re_n + i im_n) 2^-bits x^n.

    ``re`` and ``im`` are exact-integer series sharing the nome and the
    leading exponent lam.  A product is exact at the sum of the two scales:
    one complex limb convolution (:func:`_complex_mul`).  :meth:`downcast`
    rounds every coefficient to a complex double once.
    """

    re: PuiseuxSeries
    im: PuiseuxSeries
    bits: int

    def __mul__(self, other: "FixedSeries") -> "FixedSeries":
        self.re._require_same_nome(other.re)
        parts = [s.coeffs for s in (self.re, self.im, other.re, other.im)]
        re, im = _complex_mul(*parts, min(map(len, parts)) - 1)
        lam = self.re.lead_exponent + other.re.lead_exponent
        return FixedSeries(
            PuiseuxSeries(self.re.nome, lam, tuple(re)),
            PuiseuxSeries(self.re.nome, lam, tuple(im)),
            self.bits + other.bits,
        )

    def downcast(self) -> PuiseuxSeries:
        """Every coefficient as the complex double nearest to
        (re + i im) 2^-bits.  Exact int/int true division rounds half to
        even, as ``complex(mpc)`` does, so a value held exactly both ways
        downcasts to the same double; 2^bits is formed once per series."""
        re, im, bits = self.re.coeffs, self.im.coeffs, self.bits
        if bits < 0:
            re, im, bits = [a << -bits for a in re], [b << -bits for b in im], 0
        den = 1 << bits
        return PuiseuxSeries(
            self.re.nome,
            as_complex(self.re.lead_exponent),
            tuple(complex(a / den, b / den) for a, b in zip(re, im)),
        )


def pair_mul(x0: FixedSeries, x1: FixedSeries, y: FixedSeries) -> tuple[FixedSeries, FixedSeries]:
    """The products (x0 y, x1 y), in one complex limb convolution when all
    three are real, and as two :meth:`FixedSeries.__mul__` otherwise.

    For real rows (every imaginary mantissa zero) the real and imaginary
    parts of (x0 + i x1) y are x0 y and x1 y, so one :func:`_complex_mul`
    does the work of two; a plain product of real rows spends half of its
    convolution on zeros.  x0 and x1 are first shifted exactly to their
    common, larger scale, and each result keeps its own length and the
    leading exponent x_i.lam + y.lam of the plain product.  The mantissas
    are exact either way, so each coefficient is the same rational as the
    plain product's and :meth:`FixedSeries.downcast` rounds it to the same
    double."""
    if any(c for s in (x0, x1, y) for c in s.im.coeffs):
        return x0 * y, x1 * y
    x0.re._require_same_nome(y.re)
    x1.re._require_same_nome(y.re)
    bits = max(x0.bits, x1.bits)
    a0, a1 = ([c << (bits - x.bits) for c in x.re.coeffs] for x in (x0, x1))
    lengths = [min(len(x.re.coeffs), len(y.re.coeffs)) for x in (x0, x1)]
    width = max(len(a0), len(a1))
    parts = _complex_mul(a0 + [0] * (width - len(a0)), a1 + [0] * (width - len(a1)),
                         y.re.coeffs, [0] * len(y.re.coeffs), max(lengths) - 1)
    out = []
    for x, p, n in zip((x0, x1), parts, lengths):
        lam = x.re.lead_exponent + y.re.lead_exponent
        out.append(FixedSeries(PuiseuxSeries(y.re.nome, lam, tuple(p[:n])),
                               PuiseuxSeries(y.re.nome, lam, (0,) * n), bits + y.bits))
    return out[0], out[1]


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
    m = nearest_int(mu)
    if m is None or m < 1:
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

    def to_json(self) -> dict:
        return {
            "weight": [self.weight.numerator, self.weight.denominator],
            "components": [c.to_json() for c in self.components],
        }


class FormStack:
    """Vector-valued forms of one nome, rank and length as numpy arrays, the
    data of every route's double-precision check: its modular derivatives
    (:meth:`derive`) and column relations (:func:`vvmf.mlde.system_residuals`).

    ``z[f, c, n]`` is coefficient n of component c of form f in complex128;
    its products are slices of it, which the double kernel (:func:`_convolve`)
    widens itself.  Each component has one leading exponent, shared by every
    form (``leads``, the objects the forms carry); each form has a
    weight.  Forms are converted once (:meth:`of`), derived and multiplied
    as arrays, and only emitted ones go back to tuples (:meth:`vectors`).

    The arithmetic reproduces that of the Python complex numbers the forms
    hold, operation by operation, so every derivative coefficient and
    residual keeps its bytes: a complex product is the real and imaginary
    parts of (a + ib)(c + id) = (ac - bd) + i(ad + bc), each in its own
    float64 operation, with a real factor x taken as x + 0i as Python takes
    it; a difference is a + (-b).  That keeps the signed zeros, infs and
    nans of the Python arithmetic too.
    """

    def __init__(self, z, leads, weights, nome: Nome):
        self.z, self.leads, self.weights, self.nome = z, tuple(leads), tuple(weights), nome

    @staticmethod
    def of(forms: Sequence[VectorSeries]) -> "FormStack":
        """The stack of forms of one nome, length and leading exponents."""
        import numpy as np

        first = forms[0]
        leads = [as_complex(c.lead_exponent) for c in first.components]
        for F in forms[1:]:
            if F.nome is not first.nome or leads != [as_complex(c.lead_exponent)
                                                     for c in F.components]:
                raise ValueError("a stack's forms share their nome and leading exponents")
        z = np.array([[c.coeffs for c in F.components] for F in forms], dtype=np.complex128)
        return FormStack(z, (c.lead_exponent for c in first.components),
                         [F.weight for F in forms], first.nome)

    @staticmethod
    def join(stacks: Sequence["FormStack"], axis: int) -> "FormStack":
        """The forms of ``stacks`` one after another (axis 0; they share
        their leading exponents), or the components of one form side by side
        (axis 1; they share their weights)."""
        import numpy as np

        first = stacks[0]
        z = np.concatenate([s.z for s in stacks], axis)
        if axis:
            leads, weights = sum((s.leads for s in stacks), ()), first.weights
        else:
            leads, weights = first.leads, sum((s.weights for s in stacks), ())
        return FormStack(z, leads, weights, first.nome)

    def form(self, f: int) -> "FormStack":
        """The stack of form f alone."""
        cut = slice(f, f + 1)
        return FormStack(self.z[cut], self.leads, self.weights[cut], self.nome)

    def vectors(self) -> tuple[VectorSeries, ...]:
        """The forms as tuples of Python complexes, for emission."""
        return tuple(
            VectorSeries(tuple(PuiseuxSeries(self.nome, lam, tuple(row))
                               for lam, row in zip(self.leads, rows)), w)
            for rows, w in zip(self.z.tolist(), self.weights))

    def times(self, f: int, e: "FormStack"):
        """X_f e for the series e held as a stack of one component: each
        component of form f times e over their common length, the component
        first, as ``PuiseuxSeries.__mul__`` multiplies them."""
        import numpy as np

        terms = min(self.z.shape[-1], e.z.shape[-1])
        return np.array([_convolve(x, e.z[0, 0, :terms], terms - 1)
                         for x in self.z[f, :, :terms]])

    def derive(self, e2: "FormStack") -> "FormStack":
        """D = theta_q - (k/12) E_2 of every form at its weight k, raising the
        weight by two; e2 holds E_2 in the forms' nome.

        Component c at lead lam goes to (lam + n) a_n, then half of it in the
        nome q2 (theta_q = theta_q2 / 2); E_2 a is one :func:`_convolve`
        each, E_2 first, over the common length, then scaled by the double
        k/12.  The derivative keeps every leading exponent."""
        import numpy as np

        m, r, size = self.z.shape
        terms = min(size, e2.z.shape[-1])
        t_re, t_im = np.empty((r, size)), np.empty((r, size))
        for c, lam in enumerate(self.leads):
            if type(lam) in (complex, float, int):
                lam = complex(lam)
                t_re[c] = lam.real + np.arange(size, dtype=float)
                t_im[c] = lam.imag + 0.0
            else:  # an exact lam + n is rounded once
                t = np.array([as_complex(lam + n) for n in range(size)])
                t_re[c], t_im[c] = t.real, t.imag
        zr, zi = self.z.real, self.z.imag
        e = e2.z[0, 0, :terms]
        with np.errstate(all="ignore"):
            re, im = t_re * zr - t_im * zi, t_re * zi + t_im * zr
            if self.nome is Nome.Q2:
                re, im = 0.5 * re - 0.0 * im, 0.5 * im + 0.0 * re
            prod = np.array([[_convolve(e, x, terms - 1) for x in X]
                             for X in self.z[..., :terms]])
            # the double nearest k/12, as float(Fraction(k) / 12) rounds it
            w = np.array([p / (12 * q) for p, q in map(Fraction.as_integer_ratio, self.weights)])
            w = w[:, None, None]
            out = np.empty((m, r, terms), dtype=np.complex128)
            out.real = re[..., :terms] + -(w * prod.real - 0.0 * prod.imag)
            out.imag = im[..., :terms] + -(w * prod.imag + 0.0 * prod.real)
        return FormStack(out, self.leads, [k + 2 for k in self.weights], self.nome)


def relative_residual(residual, *references) -> float:
    """max |residual coefficient| over the max coefficient of the references
    (:func:`residual_ratio`).  The scale floor 1.0 keeps the quotient
    meaningful for identities between O(1)-normalized series."""
    return residual_ratio(residual.max_abs(), [r.max_abs() for r in references])


def residual_ratio(top: float, sizes) -> float:
    """top / max(1, sizes): the relative residual of a residual whose largest
    magnitude is top against references whose largest magnitudes are sizes.
    A magnitude that is inf or nan makes it inf, so that a residual or
    reference holding a non-finite value reads non-finite, and a max over
    residuals, or the exit gate, sees it."""
    if not all(map(math.isfinite, (top, *sizes))):
        return math.inf
    return top / max([1.0, *sizes])


def max_modulus(z) -> float:
    """The largest |z_i| of a complex numpy array, from ``numpy.hypot`` as
    ``abs`` of a Python complex takes it; nan when one is nan."""
    import numpy as np

    return float(np.hypot(z.real, z.imag).max())
