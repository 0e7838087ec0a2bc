"""Weight/case classification, equation coefficients, first-order systems
on the q-line, the modular derivative, and free-basis assembly.

Every route solves a first-order system D X = X M(q) with holomorphic
coefficients directly on the q-line (:func:`qline_solve`), with no
hauptmodul, in fixed-point integer arithmetic.  It then checks the emitted
doubles against the same system: the modular derivatives of its forms
(:func:`modular_derivative`) and the column relations
(:func:`system_residuals`) are taken in one array pass over a
:class:`vvmf.series.FormStack`, with the bytes of the series arithmetic
that ``tests/oracles.py`` keeps as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul

import mpmath

from .classical import ClassicalCatalog
from .errors import (
    DegenerateC,
    ExponentSumMismatch,
    NonIntegralExponentGap,
    NotAnExponent,
    Resonance,
    TraceDCongruenceViolation,
    ZeroForm,
)
from .reps import ExponentData, Rank4Rep
from .series import (
    FixedSeries,
    FormStack,
    Nome,
    PuiseuxSeries,
    VectorSeries,
    as_complex,
    compose_frobenius,  # noqa: F401  (a binding site perfbench's tracer test patches)
    max_modulus,
    nearest_int,
    require_int,
    residual_ratio,
    to_fixed,
)

CYCLIC = "cyclic"
NONCYCLIC = "noncyclic"

#: residual keys of the four column relations of the noncyclic system
NONCYCLIC_KEYS = ("col1_df", "col2_d2f", "col3_dg_e4f", "col4_dh")


# ---------------------------------------------------------------------------
# classification and dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseReport:
    """Case split and generator weights of the module of forms."""

    case: str
    k1: int
    weight_tuple: tuple[int, int, int, int]
    d: int
    e: int


def classify(rep: Rank4Rep, L: ExponentData) -> CaseReport:
    """Cyclic if 3 Tr(L) and the parity e disagree mod 2 (then k1 = 3Tr(L)-3,
    weights k1, k1+2, k1+4, k1+6); otherwise noncyclic (k1 = 3Tr(L)-2,
    weights k1, k1+2, k1+2, k1+4)."""
    t3 = require_int(3 * L.trace, "3*Tr(L)")
    if (t3 - rep.d) % 3 != 0:
        raise TraceDCongruenceViolation(
            f"3*Tr(L) = {t3} must be congruent to d = {rep.d} mod 3"
        )
    if (t3 - rep.e) % 2 != 0:
        k1 = t3 - 3
        return CaseReport(CYCLIC, k1, (k1, k1 + 2, k1 + 4, k1 + 6), rep.d, rep.e)
    k1 = t3 - 2
    return CaseReport(NONCYCLIC, k1, (k1, k1 + 2, k1 + 2, k1 + 4), rep.d, rep.e)


# Exact values of -xi^m/(3(1-zeta)) + zeta^m/(3(1-zeta^-1)) for odd m mod 6,
# with xi, zeta the primitive sixth and third roots of unity.
_EULER_CORRECTION = {1: Fraction(0), 3: Fraction(1, 3), 5: Fraction(-1, 3)}


def dimension(k: int, rep: Rank4Rep, L: ExponentData) -> int:
    """dim M_k: zero below weight 3Tr(L)-3 and in the wrong parity class,
    otherwise the Euler characteristic of the extended bundle, evaluated
    with exact rational arithmetic."""
    t3 = require_int(3 * L.trace, "3*Tr(L)")
    if (t3 - rep.d) % 3 != 0:
        raise TraceDCongruenceViolation(
            f"3*Tr(L) = {t3} must be congruent to d = {rep.d} mod 3"
        )
    if (k - rep.d) % 2 == 0:
        return 0
    if k < t3 - 3:
        return 0
    chi = Fraction(5 + k - t3, 3) + _EULER_CORRECTION[(k - rep.d) % 6]
    if chi.denominator != 1 or chi < 0:
        raise TraceDCongruenceViolation(
            f"Euler characteristic {chi} is not a nonnegative integer"
        )
    return int(chi)


# ---------------------------------------------------------------------------
# indicial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ODECoefficients:
    """Scalar parameters of the minimal-weight differential equation, with the
    shifted indicial exponents f_j they were derived from."""

    a: complex
    b: complex
    c: complex
    case: str
    f_exponents: tuple

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "a": [as_complex(self.a).real, as_complex(self.a).imag],
            "b": [as_complex(self.b).real, as_complex(self.b).imag],
            "c": [as_complex(self.c).real, as_complex(self.c).imag],
            "f": [[as_complex(f).real, as_complex(f).imag] for f in self.f_exponents],
        }


def elementary_symmetric(values, degree: int):
    """e_degree(values) by the standard one-pass recurrence."""
    es = [1] + [0] * degree
    for v in values:
        for j in range(min(degree, len(es) - 1), 0, -1):
            es[j] = es[j] + v * es[j - 1]
    return es[degree]


def indicial_shifts(eigenvalues, case: str) -> tuple:
    """Shift exponent eigenvalues into the weight-zero frame: the eta-rescale
    by the minimal weight moves every exponent by -k1/12."""
    tr = sum(eigenvalues)
    if case == CYCLIC:
        shift = (1 - tr) / 4
    elif case == NONCYCLIC:
        shift = -tr / 4 + Fraction(1, 6)
    else:
        raise ValueError(f"unknown case {case!r}")
    return tuple(e + shift for e in eigenvalues)


def cyclic_coeffs(f) -> ODECoefficients:
    """a = sigma_2 - 11/36, b = -sigma_3 + a/6 + 1/36, c = sigma_4 for
    exponents summing to 1."""
    f = tuple(f)
    if abs(as_complex(sum(f)) - 1) > 1e-9:
        raise ExponentSumMismatch(f"cyclic exponents must sum to 1, got {sum(f)}")
    s2 = elementary_symmetric(f, 2)
    s3 = elementary_symmetric(f, 3)
    s4 = elementary_symmetric(f, 4)
    a = s2 - Fraction(11, 36)
    b = -s3 + a / 6 + Fraction(1, 36)
    return ODECoefficients(a, b, s4, CYCLIC, f)


def noncyclic_coeffs(f) -> ODECoefficients:
    """a = -3 sigma_3 + sigma_2/2 - 1/24, b = 3 sigma_3 - 3 sigma_2/2 + 13/72,
    c = -sigma_4 - a/18 for exponents summing to 2/3."""
    f = tuple(f)
    if abs(as_complex(sum(f)) - Fraction(2, 3)) > 1e-9:
        raise ExponentSumMismatch(f"noncyclic exponents must sum to 2/3, got {sum(f)}")
    s2 = elementary_symmetric(f, 2)
    s3 = elementary_symmetric(f, 3)
    s4 = elementary_symmetric(f, 4)
    a = -3 * s3 + s2 / 2 - Fraction(1, 24)
    b = 3 * s3 - s2 * Fraction(3, 2) + Fraction(13, 72)
    c = -s4 - a / 18
    return ODECoefficients(a, b, c, NONCYCLIC, f)


def equation_coefficients(eigenvalues, case: str) -> ODECoefficients:
    """The case's equation coefficients from exponent eigenvalues, each
    lifted to mpmath in a :func:`qline_precision` block, where the shifted
    exponents sum exactly; the values the recursive route solves with."""
    with qline_precision():
        f = indicial_shifts([mpmath.mpc(as_complex(v)) for v in eigenvalues], case)
        return (cyclic_coeffs if case == CYCLIC else noncyclic_coeffs)(f)


def rank2_coeff(f1, f2):
    """Structure constant of the rank-2 weight-zero equation; the indicial
    polynomial is x^2 - x/6 + a with roots f1, f2 (sum 1/6)."""
    if abs(as_complex(f1 + f2) - Fraction(1, 6)) > 1e-9:
        raise ExponentSumMismatch(f"rank-2 exponents must sum to 1/6, got {f1 + f2}")
    return f1 * f2


# ---------------------------------------------------------------------------
# first-order systems on the q-line
# ---------------------------------------------------------------------------

#: digits of every q-line block.  The q-line solve runs in fixed point at the
#: binary precision of this many digits plus guard bits (:func:`qline_solve`),
#: and the products formed from its rows are exact, so the recursion's own
#: rounding is the only error of a block.  The recursion divides by nothing
#: but its own small matrices, so nothing cancels exponentially in it and a
#: fixed margin over double precision suffices: at order 800 the rank-4
#: solves of ``tensor_grid`` members 1, 5 and 6 and of a generic cyclic input
#: give the same doubles at 30, 40, 50 and 100 digits.  50 digits keep 20
#: of margin over the least that held there.  At 50 digits every route's
#: doubles at order 200 are identical to a run with 30 more digits.
QLINE_DPS = 50


def qline_precision():
    """The working-precision block of every q-line solve: the mpmath
    precision of the seeds, equation coefficients and system a solve
    starts from, the system the route then checks its forms against
    (:data:`QLINE_DPS`)."""
    return mpmath.workdps(QLINE_DPS)


def cyclic_system(co: ODECoefficients, catalog: ClassicalCatalog, nome: Nome) -> list:
    """D X = X M for X = (F, DF, D^2F, D^3F): ones below the diagonal and the
    last column (-c E_4^2, -b E_6, -a E_4, 0) of the minimal-weight equation,
    in the nome of the forms (q, or q2 for an induced basis).

    A system is a list of (sparse constant matrix {(i, j): value}, scalar
    exact-integer series) pairs whose sum of products is M."""
    if nome is Nome.Q:
        one = PuiseuxSeries.one(nome, catalog.order)
        e4, e6 = catalog.eisenstein(4), catalog.eisenstein(6)
    else:
        one = PuiseuxSeries.one(nome, catalog.q2_order)
        e4, e6 = catalog.eisenstein_q2(4), catalog.eisenstein_q2(6)
    return [
        ({(1, 0): 1, (2, 1): 1, (3, 2): 1}, one),
        ({(2, 3): -co.a}, e4),
        ({(1, 3): -co.b}, e6),
        ({(0, 3): -co.c}, catalog.e4_squared(nome)),
    ]


def noncyclic_system(co: ODECoefficients, catalog: ClassicalCatalog) -> list:
    """D X = X M for X = (F, DF, G, H): D(DF) = a E_4 F + H, DG = E_4 F and
    DH = b E_4 DF + c E_4 G (see :func:`cyclic_system` for the format).
    With sigma_1 = 2/3, c = -prod(f_j - 1/6): it vanishes exactly when a
    shifted exponent is 1/6, where DG = E_4 F leaves F no leading term."""
    if abs(as_complex(co.c)) <= 1e-12:
        raise DegenerateC("noncyclic system needs c != 0, that is no shifted exponent 1/6")
    return [
        ({(1, 0): 1, (3, 1): 1}, PuiseuxSeries.one(Nome.Q, catalog.order)),
        ({(0, 1): co.a, (0, 2): 1, (1, 3): co.b, (2, 3): co.c}, catalog.eisenstein(4)),
    ]


def _noncyclic_lead_row(f, a) -> list:
    """Leading coefficients of (F, DF, G, H) per unit of F at the shifted
    exponent f: D multiplies a leading term of weight k1 + 2i by f - i/6.
    f = 1/6 makes c = -prod(f_j - 1/6) vanish, which :func:`noncyclic_system`
    rejects first."""
    sixth = Fraction(1, 6)
    return [1, f, 1 / (f - sixth), f * (f - sixth) - a]


def require_nonresonant(lams) -> None:
    """The gap rule of every system: Resonance when two exponents differ by
    an integer within 1e-9 (:data:`vvmf.series.INT_GAP_TOL`), 0 included;
    such indicial roots need logarithmic solutions."""
    for a, b in combinations(lams, 2):
        gap = nearest_int(a - b)
        if gap is not None:
            raise Resonance(
                f"exponents {as_complex(a)} and {as_complex(b)} differ by the integer {gap}; "
                "logarithmic solutions are out of scope"
            )


#: bits a lane of :func:`qline_solve` keeps above its bound when it is set
#: or widened, so that a growing row repacks its history once per this many
#: bits of growth rather than at every step
LANE_HEADROOM = 64


def qline_solve(weights, system, lams, seeds, order: int, catalog: ClassicalCatalog):
    """Row solutions X = x^lam sum_n X_n x^n of D X = X M(x), one per exponent.

    D is the modular derivative at the weights k_i of the entries of X; the
    r x r system M is given as in :func:`cyclic_system`, in the nome x of its
    series: q, or q2 where theta_q = theta_x / 2 (s = 1 or 1/2).  With
    K = diag(k_i / 12) this is the q-recursion of Mathur-Mukhi-Sen (Phys.
    Lett. B 213, 1988) in system form:

        X_0 (s lam I - K - M_0) = 0,
        X_n (s (lam + n) I - K - M_0) = sum_{m >= 1} X_{n-m} (K E2_m + M_m).

    ``lams`` are all r exponents of the system and ``seeds`` their rows X_0
    (ValueError for any other count; NotAnExponent unless each seed is a
    left null vector at its exponent).  Before the first step the
    exponents pass :func:`require_nonresonant`.  The r distinct exponents
    are then the whole spectrum of K + M_0 over s, so every step matrix is
    nonsingular.  Returns one row tuple per exponent, each truncated to the
    shortest series of the system.

    The recursion runs in integers.  Every X_n is held as integer mantissas
    at one scale 2^-Q per exponent, Q = p - floor(log2 max|seed|), where p
    is the binary precision of :data:`QLINE_DPS` (read at call time) plus
    32 guard bits.  The series of the system enter as their exact integer
    coefficients, and the constant matrices are encoded once at the scale
    2^-p, so each step is exact up to its pivoted elimination
    (:func:`_left_solve`).  There is no hauptmodul and no division by a
    series.

    A system whose encoded imaginary parts (constant entries, M_0, s lam
    and seeds) are all zero runs as itself, on r real rows.  Any other runs
    as its real form on 2r rows: the row (Re X, Im X) against the matrix
    [[Re A, Im A], [-Im A, Re A]], in which each complex entry is a 2 x 2
    block (:func:`_real_form`).  A real system gives the bytes of pivoted
    elimination on its Gaussian integers: both take the same pivots
    (u^2 against u^2 + 0^2) and the same floors (floor(u v 2^p / v^2) =
    floor(u 2^p / v)).  Each exponent's transposed step matrix is encoded
    once, and each step adds s to its diagonal in place; the step solves a
    copy with the right-hand side appended, eliminated in place by index
    with no per-column list or slice.  NotAnExponent is decided exactly on
    the encoded seeds and X_0 step matrices, still on the norm of each
    complex column (:func:`_is_null_row`).

    All r exponents advance together.  Each real row keeps its history as
    one list of ints, whose lane l (the bits from width * l up) holds the
    mantissa of exponent l: sum_l X_n[l][i] 2^(width l).  A step makes one
    dot product per series and source row for every exponent at once: the
    forward tail e_1, e_2, ... against the history read backwards from
    X_{n-1}, so no slice is taken and the sum ends with the shorter of the
    two.  It applies the constant entries to the packed sums.  Only then
    are the lanes unpacked, each shifted back to its exponent's scale and
    solved alone; the solved rows of a step are kept together and split
    per exponent once, at the end.  Packing is a
    ring homomorphism, so a lane is exact while its value stays within
    [-2^(width-1), 2^(width-1)).  Its bound is
    width >= row + series + entry + bits(T) + 1: the largest mantissa bit
    length of the rows so far, of the sum of |e_m| of a series tail, of a
    real constant entry, and of the T real entries whose products are
    summed, plus a sign bit.  When a new X_n raises the row bits past the
    width, the history is repacked at the bound plus :data:`LANE_HEADROOM`
    bits.  The width changes no value, so the bytes are those of one
    recursion per exponent.

    The rows come back as :class:`FixedSeries`, for the caller to multiply
    exactly and downcast once; a real system's imaginary mantissas are 0.
    The seeds and the equation coefficients are mpmath numbers of the
    caller's :func:`qline_precision` block.
    """
    r = len(weights)
    if len(lams) != r or len(seeds) != r:
        raise ValueError(
            f"a {r} x {r} system takes {r} exponents and seeds, got {len(lams)} and {len(seeds)}"
        )
    require_nonresonant(lams)
    nome = system[0][1].nome
    s = Fraction(1, 2) if nome is Nome.Q2 else 1
    p = mpmath.libmp.dps_to_prec(QLINE_DPS) + 32
    kdiag = {(i, i): Fraction(k, 12) for i, k in enumerate(weights) if k}
    m0 = [[0] * r for _ in range(r)]
    tails = []  # (constant matrix of (re, im) at 2^-p, tail e_1, e_2, ...)
    for S, e in (*system, (kdiag, catalog.e2_for(nome))):
        coeffs = [0] * nearest_int(e.lead_exponent) + list(e.coeffs)
        if not all(type(c) is int for c in coeffs):
            raise TypeError("q-line systems take exact-integer q-series")
        order = min(order, len(coeffs) - 1)
        for (i, j), v in S.items():
            m0[i][j] += v * coeffs[0]
        tail = coeffs[1:]
        while tail and not tail[-1]:
            tail.pop()
        if tail:
            fixed = {ij: to_fixed(v, p) for ij, v in S.items()}
            tails.append(([[fixed.get((i, j), (0, 0)) for j in range(r)] for i in range(r)],
                          tail))
    minus_m0 = [[to_fixed(-v, p) for v in row] for row in m0]  # off the diagonal of each b0
    b0s = [[[to_fixed(s * lam - m0[i][i], p) if i == j else minus_m0[i][j] for j in range(r)]
            for i in range(r)] for lam in lams]
    scales = [p - (math.frexp(max(abs(as_complex(v)) for v in seed))[1] - 1) for seed in seeds]
    heads = [[to_fixed(v, bits) for v in seed] for seed, bits in zip(seeds, scales)]
    encoded = [row for matrix, _ in tails for row in matrix] + [row for b0 in b0s for row in b0]
    c = 2 if any(v for row in encoded + heads for _, v in row) else 1

    starts = [_real_form([head], c)[0] for head in heads]  # the real rows X_0
    bts = [[list(col) for col in zip(*_real_form(b0, c))] for b0 in b0s]
    for lam, x, bt in zip(lams, starts, bts):
        if not _is_null_row(x, bt, c, p):
            raise NotAnExponent(f"seed row is not a left null vector of the system at {lam!r}")
    convolutions = []  # (tail, [(row read, [(column, real entry at 2^-p)])])
    for matrix, tail in tails:
        reads = []
        for i, row in enumerate(_real_form(matrix, c)):
            targets = [(j, v) for j, v in enumerate(row) if v]
            if targets:
                reads.append((i, targets))
        convolutions.append((tail, reads))

    # the lane width is the row bits plus this margin (see the docstring)
    entries = [v for _, reads in convolutions for _, targets in reads for _, v in targets]
    series_bits = max((sum(map(abs, tail)).bit_length() for tail, _ in convolutions), default=0)
    entry_bits = max((abs(v).bit_length() for v in entries), default=0)
    margin = series_bits + entry_bits + len(entries).bit_length() + 1
    steps = [starts]  # X_0, X_1, ...: the real rows of every exponent
    row_bits = _row_bits(starts)
    width = row_bits + margin + LANE_HEADROOM
    packed = _packed_history(steps, width)
    diagonal = [(row, j) for bt in bts for j, row in enumerate(bt)]  # advanced by s a step
    step = int(s * (1 << p))  # s (lam + n) - s (lam + n - 1) at the scale 2^-p
    for n in range(1, order + 1):
        acc = [0] * (c * r)
        for tail, reads in convolutions:
            for i, targets in reads:
                dot = sum(map(mul, tail, reversed(packed[i])))  # e_1 X_{n-1} + e_2 X_{n-2} + ...
                for j, v in targets:
                    acc[j] += dot * v
        for row, j in diagonal:
            row[j] += step
        rhs = zip(*(_unpack(v, width, r, p) for v in acc))
        xs = [_left_solve([[*row, u] for row, u in zip(bt, b)], p) for bt, b in zip(bts, rhs)]
        steps.append(xs)
        row_bits = max(row_bits, _row_bits(xs))
        if row_bits + margin > width:
            width = row_bits + margin + LANE_HEADROOM
            packed = _packed_history(steps, width)
        else:
            for history, lanes in zip(packed, zip(*xs)):
                history.append(_pack(lanes, width))
    out = []
    for lane, (lam, bits) in enumerate(zip(lams, scales)):
        parts = [PuiseuxSeries(nome, lam, history) for history in zip(*(xs[lane] for xs in steps))]
        ims = parts[r:] or [PuiseuxSeries(nome, lam, (0,) * len(steps))] * r
        out.append(tuple(FixedSeries(u, v, bits) for u, v in zip(parts[:r], ims)))
    return tuple(out)


def _real_form(b, c: int) -> list:
    """Rows of (re, im) mantissas as a real matrix: their real parts for
    c = 1; for c = 2 the real form [[re, im], [-im, re]] of the r columns,
    entry (i, j) becoming the block ((re, im), (-im, re)) at rows i, i + r
    and columns j, j + r.  A row vector x then maps to (Re x, Im x)."""
    return [[(u, v, -v, u)[2 * a + t] for t in range(c) for u, v in row]
            for a in range(c) for row in b]


def _is_null_row(x, bt, c: int, p: int) -> bool:
    """x b = 0 up to 1e-9 of |x| max(1, |b|), exactly in integers: x a real
    row (:func:`_real_form`) at one scale 2^-bits, bt the transposed real
    form of b at 2^-p.  The norm of a complex entry or column is the sum of
    the squares of its c real parts; norms are compared squared, each side
    at the scale 2^-2(bits + p)."""
    r = len(x) // c

    def norm(v) -> int:
        squares = [u * u for u in v]
        return max(map(sum, zip(*(squares[a * r:a * r + r] for a in range(c)))))

    miss = norm([sum(map(mul, x, col)) for col in bt])
    size = max(1 << 2 * p, max(norm(col) for col in bt[:r]))
    return miss * 10**18 <= size * norm(x)


def _row_bits(xs) -> int:
    """Largest bit length of a mantissa in xs."""
    return max(max(map(abs, x)) for x in xs).bit_length()


def _packed_history(steps, width: int) -> list:
    """Per real row i, its history X_0, X_1, ...: each X_n of ``steps``
    (steps[n][exponent][i]) packed into one int of lanes (:func:`_pack`)."""
    return [list(history) for history in
            zip(*([_pack(lanes, width) for lanes in zip(*xs)] for xs in steps))]


def _pack(values, width: int) -> int:
    """sum_l values[l] 2^(width l): signed lanes of one int."""
    out = 0
    for v in reversed(values):
        out = (out << width) + v
    return out


def _unpack(x: int, width: int, count: int, p: int) -> list:
    """The ``count`` signed lanes of x, each in [-2^(width-1), 2^(width-1)),
    each shifted right by p bits (a floor)."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    out = []
    for _ in range(count - 1):
        v = ((x & mask) ^ half) - half
        out.append(v >> p)
        x = (x - v) >> width
    out.append(x >> p)  # what is left is the top lane, which is in range
    return out


def _left_solve(m, p: int) -> list:
    """Row x with x a = rhs in integers, a at the scale 2^-p, rhs and x at
    one common scale.  m holds the rows of a's transpose, row j followed by
    rhs_j, and is eliminated in place: partial pivoting on the first largest
    |entry| of a column, each multiplier held at 2^-p, every quotient and
    shift a floor.  Entries are found and updated by index, with no list
    or slice per column.  The matrix is nonsingular by the gap rule of :func:`qline_solve`, which
    rejects every exponent that would make a step matrix singular."""
    r = len(m)
    for col in range(r - 1):
        top = m[col]
        piv, best = col, abs(top[col])
        for i in range(col + 1, r):
            size = abs(m[i][col])
            if size > best:
                piv, best = i, size
        if piv != col:
            m[col], m[piv] = m[piv], top
            top = m[col]
        d = top[col]
        later = range(col + 1, r + 1)
        for i in range(col + 1, r):
            row = m[i]
            u = row[col]
            if u:
                f = (u << p) // d
                for j in later:
                    row[j] -= f * top[j] >> p
    x = [0] * r
    for i in reversed(range(r)):
        row = m[i]
        rest = row[r]
        for j in range(i + 1, r):
            rest -= row[j] * x[j] >> p
        x[i] = (rest << p) // row[i]
    return x


def system_residuals(forms: FormStack, derivatives: FormStack, system,
                     catalog: ClassicalCatalog, columns=None) -> list[float]:
    """Relative residual of each column j of D X = X M on emitted forms (the
    entries X_i of X, the forms of one stack), given their modular
    derivatives D X_j, a stack in the same order; ``columns`` lists the
    columns to check, in order (all by default).  Every differential
    relation a route records is one of these columns.

    The system is the one the forms were solved from, and its constants are
    rounded to complex once, here.  Column j is D X_j - sum X_i e v over the
    entries (i, j) of each block (v, e), in the order of the system: X_i e
    is one :meth:`FormStack.times`, formed once for all columns, and a
    block whose series is the unit series adds v X_i with no product.  A
    series leading at x^s (theta_2^4 at q2^1) enters s coefficients up,
    each difference then ending where its shorter operand does, as
    ``PuiseuxSeries.__add__`` aligns it.  The residual is the largest
    modulus of the difference over the largest of D X_j and of every
    v X_i e (:func:`vvmf.series.residual_ratio`)."""
    import numpy as np

    blocks = []
    for S, e in system:
        unit = _is_one(e)
        entries = [(i, col, as_complex(v)) for (i, col), v in S.items()]
        blocks.append((e, unit, 0 if unit else _lead_shift(e), entries))
    products = {}
    out = []
    with np.errstate(all="ignore"):
        for j in range(len(derivatives.weights)) if columns is None else columns:
            residual = derivatives.z[j]
            sizes = [max_modulus(residual)]
            for e, unit, shift, entries in blocks:
                for i, col, v in entries:
                    if col != j:
                        continue
                    x = forms.z[i] if unit else products.get((i, id(e)))
                    if x is None:
                        x = products[(i, id(e))] = forms.times(i, catalog.as_stack(e))
                    part = np.empty_like(x)
                    part.real = v.real * x.real - v.imag * x.imag
                    part.imag = v.real * x.imag + v.imag * x.real
                    sizes.append(max_modulus(part))
                    end = min(residual.shape[-1], shift + part.shape[-1])
                    diff = residual[:, shift:end] + -part[:, :end - shift]
                    residual = np.concatenate((residual[:, :shift], diff), 1) if shift else diff
            out.append(residual_ratio(max_modulus(residual), sizes))
    return out


def _is_one(e: PuiseuxSeries) -> bool:
    return e.lead_exponent == 0 and e.coeffs[0] == 1 and not any(e.coeffs[1:])


def _lead_shift(e: PuiseuxSeries) -> int:
    """The integer leading exponent of a system's series; the coefficients
    of the system are holomorphic, so it is not negative."""
    shift = nearest_int(e.lead_exponent)
    if shift is None or shift < 0:
        raise NonIntegralExponentGap(
            f"a system's series leads at {as_complex(e.lead_exponent)}, not a power x^s, s >= 0"
        )
    return shift


# ---------------------------------------------------------------------------
# modular derivative and basis assembly
# ---------------------------------------------------------------------------

def modular_derivative(X: FormStack, catalog: ClassicalCatalog) -> FormStack:
    """D = theta_q - (k/12) E_2 of every form of the stack at its weight k,
    raising the weight by two (:meth:`vvmf.series.FormStack.derive`)."""
    return X.derive(catalog.as_stack(catalog.e2_for(X.nome)))


@dataclass(frozen=True)
class FormBasis:
    """Free basis of vector-valued forms with its diagnostics."""

    forms: tuple[VectorSeries, ...]
    case: CaseReport | None
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def weights(self) -> tuple:
        return tuple(f.weight for f in self.forms)


def _require_nonzero(X: FormStack) -> None:
    if max_modulus(X.z) <= 1e-14:
        raise ZeroForm("basis assembly started from the zero form")


def assemble_cyclic_basis(
    F: VectorSeries,
    co: ODECoefficients,
    catalog: ClassicalCatalog,
    case: CaseReport | None = None,
    stacks: tuple[FormStack, FormStack] | None = None,
) -> FormBasis:
    """Basis F, DF, D^2F, D^3F; records the relative residual of
    D^4 F + a E_4 D^2 F + b E_6 D F + c E_4^2 F, the last column of
    :func:`cyclic_system` in the nome of F.

    The chain D F ... D^4 F stays in one :class:`FormStack` per level, and
    only DF, D^2F and D^3F become tuples.  ``stacks`` holds F and DF when
    the caller has them already (the induction route takes half of DF with
    its pair check)."""
    X, DX = stacks or (FormStack.of([F]), None)
    _require_nonzero(X)
    chain = [X, DX or modular_derivative(X, catalog)]
    for _ in range(3):
        chain.append(modular_derivative(chain[-1], catalog))
    system = cyclic_system(co, catalog, F.nome)
    (res,) = system_residuals(FormStack.join(chain[:4], 0), FormStack.join(chain[1:], 0),
                              system, catalog, columns=[3])
    forms = (F, *(level.vectors()[0] for level in chain[1:4]))
    return FormBasis(forms, case, {"cyclic_mlde": res})


# ---------------------------------------------------------------------------
# generic minimal-form pipeline (recursive route)
# ---------------------------------------------------------------------------

def _classified(rep: Rank4Rep, L: ExponentData) -> CaseReport:
    """The case of a generic input, once L lands in the T-spectrum of rep."""
    L.validate_against(rep.t_eigenvalues())
    return classify(rep, L)


def _recursive_stage(
    report: CaseReport,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
    kronecker_unit: bool = False,
) -> tuple[ODECoefficients, FormBasis]:
    """Solve the case's system D X = X M on the q-line at all four exponents
    of L in one call (:func:`qline_solve`, which rejects resonant
    exponents).

    The rows of the solutions are the case's free basis, (F, DF, D^2F, D^3F)
    or (F, DF, G, H), with no row recomputed.  F_j leads with 1728^{f_j}
    (cyclic) or 1728^{f_j} / t_j (noncyclic, t_j the largest-modulus entry
    of the leading row per unit of F), the normalization of the closed
    K-line form.  With ``kronecker_unit`` a noncyclic F_j leads with
    1728^{f_j} itself, the normalization of the tensor route's basis
    A (x) B.  The system is built before the seeds, so DegenerateC comes
    first.  Every column relation of the solved system is re-checked on the
    emitted doubles.  Returns the equation coefficients, at working
    precision (:func:`equation_coefficients`), and the basis.
    """
    cyclic = report.case == CYCLIC
    with qline_precision():
        lams = [mpmath.mpc(as_complex(v)) for v in L.eigenvalues]
        co = equation_coefficients(L.eigenvalues, report.case)
        system = cyclic_system(co, catalog, Nome.Q) if cyclic else noncyclic_system(co, catalog)
        seeds = []
        for f in co.f_exponents:
            if cyclic:
                seed = [mpmath.mpf(1728) ** f]
                for i in range(3):
                    seed.append(seed[-1] * (f - Fraction(i, 6)))
            else:
                lead = _noncyclic_lead_row(f, co.a)
                unit = mpmath.mpf(1728) ** f
                if not kronecker_unit:
                    unit /= max(lead, key=abs)
                seed = [unit * x for x in lead]
            seeds.append(seed)
        rows = qline_solve(report.weight_tuple, system, lams, seeds, order, catalog)
    forms = tuple(
        VectorSeries(tuple(row[i].downcast() for row in rows), k)
        for i, k in enumerate(report.weight_tuple)
    )
    X = FormStack.of(forms)
    res = system_residuals(X, modular_derivative(X, catalog), system, catalog)
    if cyclic:
        residuals = {"cyclic_chain": max(res[:3]), "cyclic_mlde": res[3]}
    else:
        residuals = dict(zip(NONCYCLIC_KEYS, res))
    return co, FormBasis(forms, report, residuals)


def solve_minimal_form(
    rep: Rank4Rep,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
):
    """Recursive pipeline for a generic rank-4 representation: classify,
    derive the equation coefficients and solve the case's first-order system
    on the q-line at each indicial exponent.

    Returns (F, report, coefficients, residuals) with F the minimal-weight
    form whose component j has leading q-exponent L.eigenvalues[j]; the
    residuals are those of :func:`generic_basis`.
    """
    co, basis = _recursive_stage(_classified(rep, L), L, order, catalog)
    return basis.forms[0], basis.case, co, dict(basis.residuals)


def generic_basis(
    rep: Rank4Rep,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
) -> FormBasis:
    """Recursive route end to end: the rows of the q-line solutions are the
    case-appropriate free basis."""
    return _recursive_stage(_classified(rep, L), L, order, catalog)[1]
