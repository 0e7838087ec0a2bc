"""Weight/case classification, equation coefficients, first-order systems
on the q-line, the modular derivative, free-basis assembly, and the staged
driver of every route.

Every job of rank 2 or 4, generic or constructed, runs through one driver
(:func:`staged`) in the order of :data:`vvmf.errors.STEPS`: the route's
input checks, :func:`classify`, :func:`equation_coefficients`, and the
route's solve, which takes those coefficients.  The driver decides the
job's working precision: it opens the job's one :func:`qline_precision`
scope around every stage, and stage (c) lifts the job's exponents to
mpmath once, onto the coefficients the solve reads them from.  A route
(:class:`Route`) supplies only its input checks, its case and its solve;
the command names the stage the driver stops after.

Every route solves a first-order system D X = X M(q) with holomorphic
coefficients directly on the q-line (:func:`qline_solve`), with no
hauptmodul, in fixed-point integer arithmetic.  The cyclic equations of
every rank r <= 4 share one shift rule (:func:`indicial_shifts`), one
coefficient rule (:func:`cyclic_coeffs`), one system builder
(:func:`cyclic_system`) and one seed rule (:func:`cyclic_seed`).  Every
route then checks the emitted doubles against the same system in one
function (:func:`solved_forms`): it rounds the rows once, into one
:class:`vvmf.series.FormStack`, and the modular derivatives of the forms
(:func:`modular_derivative`) and the column relations
(:func:`system_residuals`) are taken in one array pass over it, with the
bytes of the series arithmetic that ``tests/oracles.py`` keeps as the
reference.  A basis (:class:`FormBasis`) keeps that stack up to the
emitted bytes.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from operator import itemgetter, mul
from typing import Callable, NamedTuple

import mpmath

from .classical import ClassicalCatalog
from .errors import (
    DegenerateC,
    ExponentSumMismatch,
    GroupMismatch,
    NonIntegralExponentGap,
    NotAnExponent,
    NotIrreducible,
    Resonance,
    TraceDCongruenceViolation,
    WrongRank,
    ZeroForm,
)
from .reps import ExponentData, Group, Rank2Rep, Rank4Rep
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
    """Case split and generator weights of the module of forms, one weight
    per rank, with the representation's invariants d and e."""

    case: str
    k1: int
    weight_tuple: tuple[int, ...]
    d: int
    e: int


def classify(rep: Rank2Rep | Rank4Rep, L: ExponentData) -> CaseReport:
    """The weights of a free basis sum to 12 Tr(L) (Marks and Mason, J.
    London Math. Soc. 82, 2010), so a cyclic module of rank r, weights
    k1, k1+2, ..., has k1 = 12 Tr(L)/r - (r-1).  Rank two is always cyclic,
    k1 = 6Tr(L)-1, and reports the determinant power d of xy = e^{2 pi i d/6}
    and the parity e (:attr:`Rank2Rep.det_power`, :attr:`Rank2Rep.parity`).
    Rank four is cyclic if 3 Tr(L) and the parity e disagree mod 2 (then
    k1 = 3Tr(L)-3, weights k1, k1+2, k1+4, k1+6); otherwise noncyclic
    (k1 = 3Tr(L)-2, weights k1, k1+2, k1+2, k1+4)."""
    if isinstance(rep, Rank2Rep):
        k1 = require_int(6 * L.trace - 1, "6*Tr(L)-1")
        return CaseReport(CYCLIC, k1, (k1, k1 + 2), rep.det_power, rep.parity)
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
    """dim M_k of a rank-4 representation (WrongRank for rank 2): zero below
    weight 3Tr(L)-3 and in the wrong parity class, otherwise the Euler
    characteristic of the extended bundle, evaluated with exact rational
    arithmetic; 3 Tr(L) is k1 + 3 (cyclic) or k1 + 2 (noncyclic) of
    :func:`classify`, which validates it."""
    if isinstance(rep, Rank2Rep):
        raise WrongRank("dim M_k is formed for rank 4, not rank 2")
    report = classify(rep, L)
    t3 = report.k1 + (3 if report.case == CYCLIC else 2)
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
    shifted indicial exponents f_j they were derived from and, from
    :func:`equation_coefficients`, the exponents lambda_j themselves in
    mpmath, which the solve reads (empty for coefficients formed from f
    alone)."""

    a: complex
    b: complex
    c: complex
    case: str
    f_exponents: tuple
    lams: tuple = ()

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "a": [as_complex(self.a).real, as_complex(self.a).imag],
            "b": [as_complex(self.b).real, as_complex(self.b).imag],
            "c": [as_complex(self.c).real, as_complex(self.c).imag],
            "f": [[as_complex(f).real, as_complex(f).imag] for f in self.f_exponents],
        }


def elementary_symmetric(values, degree: int) -> list:
    """e_0(values), ..., e_degree(values) by the standard one-pass
    recurrence.  Each e_j starts from its first term, e_1 from the value
    itself, not from 0 + term or 1 * value, so a product that is a signed
    zero keeps its sign; an e_j of more factors than values is 0."""
    es = [1]
    for v in values:
        terms = ([v] + [v * e for e in es[1:degree]])[:degree]  # v e_{j-1}, j = 1, 2, ...
        es = [1] + [e + t for e, t in zip(es[1:], terms)] + terms[len(es) - 1:]
    return es + [0] * (degree + 1 - len(es))


def indicial_shifts(eigenvalues, case: str) -> tuple:
    """Shift exponent eigenvalues into the weight-zero frame: the eta-rescale
    by the minimal weight moves every exponent by -k1/12.  A cyclic
    equation of rank r has k1 = 12 Tr(L)/r - (r - 1), so its r exponents
    move by (r(r - 1)/12 - Tr(L))/r and sum to r(r - 1)/12; a noncyclic one
    (rank four) moves by 1/6 - Tr(L)/4."""
    tr = sum(eigenvalues)
    if case == CYCLIC:
        r = len(eigenvalues)
        shift = (-tr + Fraction(r * (r - 1), 12)) / r  # an mpf takes no Fraction from the left
    elif case == NONCYCLIC:
        shift = -tr / 4 + Fraction(1, 6)
    else:
        raise ValueError(f"unknown case {case!r}")
    return tuple(e + shift for e in eigenvalues)


def _require_sum(total, want, what: str) -> None:
    """ExponentSumMismatch unless the shifted exponents of an equation sum
    to ``want`` within 1e-9."""
    if abs(as_complex(total) - want) > 1e-9:
        raise ExponentSumMismatch(f"{what} exponents must sum to {want}, got {total}")


@functools.cache
def _falling_symmetric(r: int) -> tuple:
    """t_1, t_2, t_3 of :func:`cyclic_coeffs`: the elementary symmetric
    functions of 0, 1/6, ..., (r-1)/6, the roots of P_r, as Fractions."""
    return tuple(elementary_symmetric([Fraction(i, 6) for i in range(r)], 3)[1:])


def cyclic_coeffs(f) -> ODECoefficients:
    """The cyclic equation D^r F + a E_4 D^{r-2} F + b E_6 D^{r-3} F +
    c E_4^2 D^{r-4} F = 0 of rank r = len(f) <= 4 whose shifted exponents
    are f.  D^m multiplies a leading term x^f by P_m(f), P_m(x) =
    prod_{i<m} (x - i/6), so the indicial polynomial P_r + a P_{r-2} +
    b P_{r-3} + c P_{r-4} must be prod (x - f_j): with sigma_k the
    elementary symmetric functions of f and t_k those of 0, 1/6, ...,
    (r-1)/6, a = sigma_2 - t_2, b = -sigma_3 + (r-2)(r-3) a/12 + t_3 and
    c = sigma_4, for exponents summing to t_1 = r(r-1)/12.  Rank four reads
    a = sigma_2 - 11/36, b = -sigma_3 + a/6 + 1/36; rank two a = f_1 f_2."""
    f = tuple(f)
    r = len(f)
    t1, t2, t3 = _falling_symmetric(r)
    _require_sum(sum(f), t1, "cyclic")
    _, _, s2, s3, s4 = elementary_symmetric(f, 4)
    a = s2 - t2
    b = -s3 + (r - 2) * (r - 3) * a / 12 + t3
    return ODECoefficients(a, b, s4, CYCLIC, f)


def noncyclic_coeffs(f) -> ODECoefficients:
    """a = -3 sigma_3 + sigma_2/2 - 1/24, b = 3 sigma_3 - 3 sigma_2/2 + 13/72,
    c = -sigma_4 - a/18 for exponents summing to 2/3."""
    f = tuple(f)
    _require_sum(sum(f), Fraction(2, 3), "noncyclic")
    _, _, s2, s3, s4 = elementary_symmetric(f, 4)
    a = -3 * s3 + s2 / 2 - Fraction(1, 24)
    b = 3 * s3 - s2 * Fraction(3, 2) + Fraction(13, 72)
    c = -s4 - a / 18
    return ODECoefficients(a, b, c, NONCYCLIC, f)


def equation_coefficients(eigenvalues, case: str) -> ODECoefficients:
    """The case's equation coefficients from exponent eigenvalues, each
    lifted to mpmath once, at the caller's precision (the driver's
    :func:`qline_precision` scope), where the shifted exponents sum
    exactly.  The lifted exponents are kept as ``lams``: the exponents and
    the values the solve starts from."""
    lams = tuple(mpmath.mpc(as_complex(v)) for v in eigenvalues)
    co = (cyclic_coeffs if case == CYCLIC else noncyclic_coeffs)(indicial_shifts(lams, case))
    return replace(co, lams=lams)


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
    """The working-precision scope of a job (:data:`QLINE_DPS`), opened once
    by :func:`staged` around all its stages: the mpmath precision of the
    exponents, equation coefficients, seeds and system a solve starts
    from, and of the system the route then checks its forms against."""
    return mpmath.workdps(QLINE_DPS)


def cyclic_system(co: ODECoefficients, catalog: ClassicalCatalog, nome: Nome) -> list:
    """D X = X M for X = (F, DF, ..., D^{r-1}F) of the cyclic equation
    :func:`cyclic_coeffs` of rank r = len(co.f_exponents): ones below the
    diagonal, and the equation in the last column, -a E_4, -b E_6 and
    -c E_4^2 in rows r-2, r-3 and r-4 as far as there are rows, in the nome
    of the forms (q, or q2 for an induced basis).  At rank two that is
    (-a E_4, 0) for D^2F + a E_4 F = 0, and only E_4 is read; at rank four
    (-c E_4^2, -b E_6, -a E_4, 0) for D^4F + a E_4 D^2F + b E_6 DF +
    c E_4^2 F = 0.

    A system is a list of (sparse constant matrix {(i, j): value}, scalar
    exact-integer series) pairs whose sum of products is M."""
    if nome is Nome.Q:
        order, eisenstein = catalog.order, catalog.eisenstein
    else:
        order, eisenstein = catalog.q2_order, catalog.eisenstein_q2
    r = len(co.f_exponents)
    series = (lambda: eisenstein(4), lambda: eisenstein(6), lambda: catalog.e4_squared(nome))
    system = [({(i + 1, i): 1 for i in range(r - 1)}, PuiseuxSeries.one(nome, order))]
    for row, v, e in zip(range(r - 2, -1, -1), (co.a, co.b, co.c), series):
        system.append(({(row, r - 1): -v}, e()))
    return system


def cyclic_seed(f, rank: int) -> list:
    """The leading row of (F, DF, ..., D^{rank-1}F) at the shifted exponent
    f, 1728^f prod_{i<k} (f - i/6) for k < rank: F leads with 1728^f, the
    leading coefficient of the closed K-line form, and D multiplies a
    leading term of weight k1 + 2i by f - i/6.  In mpmath at the driver's
    :func:`qline_precision` scope, where f - 0 is f exactly."""
    seed = [mpmath.mpf(1728) ** f]
    for i in range(rank - 1):
        seed.append(seed[-1] * (f - mpmath.mpmathify(Fraction(i, 6))))
    return seed


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
    g = f - Fraction(1, 6)
    return [1, f, 1 / g, f * g - a]


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
    shortest series of the system.  Each series of the system enters at its
    power x^s (NonIntegralExponentGap unless s is an integer >= 0, the
    rule of :func:`system_residuals`).

    The recursion runs in integers.  Every X_n is held as integer mantissas
    at one scale 2^-Q per exponent, Q = p - floor(log2 max|seed|), where p
    is the binary precision of :data:`QLINE_DPS` (read at call time) plus
    32 guard bits.  The series of the system enter as their exact integer
    coefficients, and the constant matrices are encoded once at the scale
    2^-p, so each step is exact up to its solve (:func:`_step_source`, whose
    docstring bounds the error of each x).  There is no hauptmodul and no
    division by a series.

    A system whose encoded imaginary parts (constant entries, M_0, s lam
    and seeds) are all zero runs as itself, on r real rows.  Any other runs
    as its real form on 2r rows: the row (Re X, Im X) against the matrix
    [[Re A, Im A], [-Im A, Re A]], in which each complex entry is a 2 x 2
    block (:func:`_real_form`).  Each exponent's transposed step matrix is
    encoded once, at n = 0; step n adds n s to its diagonal.  Its entry
    pattern over all exponents (:func:`_step_pattern`: units +-2^p, zeros,
    other values) fixes the step's unit chain (:func:`_unit_chain`): the
    ones of D X_i = X_{i+1} leave a real cyclic or noncyclic system one
    free variable, found by one floor division, and the real form of a
    complex one a 2 x 2 block; in a system with no unit, as the induction
    pair, every variable is free, and its block takes the same lines.  A
    real system gives the bytes of the same rule on its Gaussian
    integers: the units are real, so both read the same chain; a
    one-variable block divides floor(N v / v^2) = floor(N / v); and a
    larger block takes the same pivots (u^2 against u^2 + 0^2) and the
    same floors (floor(u v 2^p / v^2) = floor(u 2^p / v)).  NotAnExponent
    is decided exactly on the encoded seeds and X_0 step matrices, still on
    the norm of each complex column (:func:`_is_null_row`).

    All r exponents advance together.  Each real row's X_n packs into one
    int whose lane l (the bits from width * l up) holds the mantissa of
    exponent l: sum_l X_n[l][i] 2^(width l).  Every series block, the
    K E_2 block included, is a list of dots (coefficients, readers,
    history, targets), one per vertex of a minimum vertex cover of its
    entries (:func:`_cover_block`): a row vertex i dots the history
    ((i, 1),) and applies each target's entry, a column vertex j dots the
    merged history ((i, v_ij), ...) into acc[j], the same int by
    distributivity.  A dot reads the words H_{n-k} at the nonzero lags
    k <= n of its tail, in lag order, through its reader for step n
    (:func:`_lag_readers`): one slice for every n when the lags are an
    arithmetic progression (a dense tail, read backwards from H_{n-1};
    theta_2^4 and theta_3^4 + theta_4^4 on the q2-line, every other
    power), so the sum ends with the shorter of tail and history.  The
    K E_2 block goes through the Euler product P (:func:`_euler_terms`):
    its histories are over P, Y = H / P, and its dot is 24 sum k g_k
    Y_{n-k} over the c(n) ~ 1.6 sqrt(n) lags k <= n, the same int as the
    dense sum; the same words give the carry sum g_k Y_{n-k} that makes
    Y_n once X_n is known.  A history is named by its key (sources,
    over P), shared by every dot that reads it, and built from the packed
    rows (:func:`_histories`) at the start and on every repack; each step
    appends to it sum v lanes[i] over its sources (the lane itself for
    ((i, 1),)), less its carry when over P.  No Y lane is ever unpacked.
    The step applies the constant entries to the packed sums.  The rest of
    the step is straight-line code generated
    once per process for the shape (R real rows, r exponents, pattern) of
    the system (:func:`_compiled_step`): it unpacks the lanes into locals,
    each shifted back to its exponent's scale, solves each exponent's step
    matrix on locals along its unit chain, takes the row-bit bound and
    packs each real row's new lanes for the history.  Packing is a ring
    homomorphism, so a lane is exact while its value stays within
    [-2^(width-1), 2^(width-1)).
    Its bound is width >= row + series + entry + bits(T) + 1: the largest
    mantissa bit length of the rows so far, of the sum of |e_m| of a
    series tail, of a real constant entry, and of the T real entries whose
    products are summed, plus a sign bit.  When a new X_n raises the row
    bits past the width, the history is repacked at the bound plus
    :data:`LANE_HEADROOM` bits.  The width changes no value, so the bytes
    are those of one recursion per exponent.  The merged histories, the
    lag reads and the histories over P sum the same ints, so the T of the
    bound is unchanged.

    The rows come back as :class:`FixedSeries`, for the caller to multiply
    exactly and downcast once; a real system's imaginary mantissas are 0.
    The exponents, seeds and equation coefficients are mpmath numbers of
    the driver's :func:`qline_precision` scope; the fixed-point bits are
    read from :data:`QLINE_DPS` itself.
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
        coeffs = [0] * _lead_shift(e) + list(e.coeffs)
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
    # -M_0 is encoded off the diagonal only.  On it, s lam - M_0[i][i] is
    # formed per exponent; a Fraction entry that meets an mpc s lam is
    # converted once here, as mpc - Fraction would convert it every time
    minus_m0 = [[None if i == j else to_fixed(-v, p) for j, v in enumerate(row)]
                for i, row in enumerate(m0)]
    diagonal = [row[i] for i, row in enumerate(m0)]
    mp_diagonal = [mpmath.mpmathify(v) if isinstance(v, Fraction) else v for v in diagonal]
    b0s = []
    for lam in lams:
        slam = s * lam
        diag = mp_diagonal if isinstance(slam, mpmath.mpc) else diagonal
        b0s.append([[to_fixed(slam - diag[i], p) if i == j else v for j, v in enumerate(row)]
                    for i, row in enumerate(minus_m0)])
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
    gs, ws, lagged = _euler_terms(catalog, nome, order)
    *convolutions, (_, k_reads) = convolutions  # K E_2, the last block, reads Y = X / P
    blocks = []
    for tail, reads in convolutions:
        lags = [k for k, e in enumerate(tail[:order], 1) if e]
        blocks += _cover_block([tail[k - 1] for k in lags], _lag_readers(lags, order), reads, False)
    blocks += _cover_block(ws, lagged, k_reads, True)
    keys = list(dict.fromkeys(key for _, _, key, _ in blocks))
    dots = [(coeffs, readers, keys.index(key), targets, gs if key[1] else ())
            for coeffs, readers, key, targets in blocks]
    merges = [_lane_word(sources) for sources, _ in keys]
    rows = c * r
    steps = [tuple(v for x in starts for v in x)]  # X_0, X_1, ...: exponent-major real rows
    row_bits = max(map(abs, steps[0])).bit_length()
    width = row_bits + margin + LANE_HEADROOM
    histories = _histories(_packed_history(steps, rows, width), keys, gs, lagged)
    carries = [0] * len(keys)
    mats = [tuple(v for col in bt for v in col) for bt in bts]
    solve = _compiled_step(rows, r, _step_pattern(mats, rows, p))
    step = int(s * (1 << p))  # s (lam + n) - s (lam + n - 1) at the scale 2^-p
    for n in range(1, order + 1):
        acc = [0] * rows
        for coeffs, readers, h, targets, carry_gs in dots:
            words = readers[n](histories[h])  # the words H_{n-k} at the block's lags k <= n
            carries[h] = sum(map(mul, carry_gs, words))  # sum g_k Y_{n-k} over P, else 0
            dot = sum(map(mul, coeffs, words))  # e_1 H_{n-1} + e_2 H_{n-2} + ...
            for j, v in targets:
                acc[j] += dot * v
        xs, bits, lanes = solve(acc, mats, n * step, width, p)
        steps.append(xs)
        row_bits = max(row_bits, bits)
        if row_bits + margin > width:
            width = row_bits + margin + LANE_HEADROOM
            histories = _histories(_packed_history(steps, rows, width), keys, gs, lagged)
        else:
            for history, merge, carry in zip(histories, merges, carries):
                history.append(merge(lanes) - carry)
    series = list(zip(*steps))  # per exponent and real row: X_0, X_1, ...
    out = []
    for lane, (lam, bits) in enumerate(zip(lams, scales)):
        parts = [PuiseuxSeries(nome, lam, h) for h in series[lane * rows:(lane + 1) * rows]]
        ims = parts[r:] or [PuiseuxSeries(nome, lam, (0,) * len(steps))] * r
        out.append(tuple(FixedSeries(u, v, bits) for u, v in zip(parts[:r], ims)))
    return tuple(out)


def _euler_terms(catalog: ClassicalCatalog, nome: Nome, order: int) -> tuple:
    """The K E_2 block of :func:`qline_solve` through P = prod (1 - q^n),
    in the nome x of the solve (P(q2^2) in q2).  With X = P Y and E_2 =
    1 + 24 theta_q P / P, sum_{m >= 1} E2_m X_{n-m} = 24 sum k g_k Y_{n-k}
    over the nonzero P_k = g_k = +-1, k >= 1 (the lags; theta_q weighs x^k
    by its q-index k, half of k in q2).

    Returns the g_k, the 24 k g_k (both in lag order), and per step n <= order
    a function that reads Y_{n-k} for the lags k <= n from a history
    Y_0, ..., Y_{n-1} (:func:`_lag_readers`, :func:`_histories`)."""
    half = 2 if nome is Nome.Q2 else 1
    coeffs = catalog.eta_power(1, nome).coeffs[:order + 1]
    lags = [k for k, g in enumerate(coeffs) if k and g]
    gs = [coeffs[k] for k in lags]
    ws = [24 * (k // half) * g for k, g in zip(lags, gs)]
    return gs, ws, _lag_readers(lags, order)


def _lag_readers(lags, order: int) -> list:
    """Per step n <= order, a function that reads the words H_{n-k} of a
    history H_0, ..., H_{n-1} at the lags k <= n (``lags`` ascending), in
    lag order.  Lags in one arithmetic progression k_0, k_0 + d, ... (none
    or one lag, a dense tail, every other power) share one slice for every
    n; any other set (the pentagonal lags of P) takes one getter per count
    of lags."""
    gaps = {b - a for a, b in zip(lags, lags[1:])}
    if len(gaps) <= 1:
        k, d = (lags or [0])[0], min(gaps, default=1)
        return [itemgetter(slice(-k, -k - d * len(lags), -d))] * (order + 1)
    # an itemgetter of one index returns no tuple, so none or one lag read a slice
    getters = [itemgetter(slice(-lags[0], -lags[0] - t, -1)) for t in (0, 1)]
    getters += [itemgetter(*(-k for k in lags[:t])) for t in range(2, len(lags) + 1)]
    return [getters[bisect_right(lags, n)] for n in range(order + 1)]


def _cover_block(coeffs, readers, reads, over_p: bool) -> list:
    """The dots of one block of :func:`qline_solve`, each (coefficients,
    readers, history key, targets [(j, v)]).  The block's entries are the
    edges of a bipartite graph from the real rows it reads to the columns
    it writes, and its dots are the vertices of a minimum vertex cover of
    that graph (:func:`_cover_rows`).  A row vertex i reads the history
    ((i, 1),) and adds its dot times v to each column j of row i; a column
    vertex j reads the merged history ((i, v_ij), ...) of the rows outside
    the cover and adds its dot to column j, the same int by
    distributivity.  ``over_p`` keys the histories divided by the Euler
    product (:func:`_histories`)."""
    rows = _cover_rows(tuple((i, j) for i, targets in reads for j, _ in targets))
    dots = [(coeffs, readers, (((i, 1),), over_p), targets) for i, targets in reads if i in rows]
    columns = {}
    for i, targets in reads:
        if i not in rows:
            for j, v in targets:
                columns.setdefault(j, []).append((i, v))
    return dots + [(coeffs, readers, (tuple(sources), over_p), [(j, 1)])
                   for j, sources in sorted(columns.items())]


@functools.cache
def _cover_rows(edges: tuple) -> frozenset:
    """The rows of a minimum vertex cover of the bipartite graph of
    ``edges`` (row, column); the columns of the edges of the other rows
    complete it.  Searched over the row subsets, the largest first, so that
    a tie keeps rows, whose plain histories the blocks share."""
    rows = sorted({i for i, _ in edges})
    subsets = (frozenset(s) for t in range(len(rows), -1, -1) for s in combinations(rows, t))
    return min(subsets, key=lambda s: len(s) + len({j for i, j in edges if i not in s}))


def _histories(packed, keys, gs, lagged) -> list:
    """The history of each key (sources, over_p) of :func:`qline_solve`
    from the packed rows: H = sum v X_i over the sources (i, v), word by
    word (:func:`_lane_word`), and when ``over_p`` Y = H / P, Y_n = H_n -
    sum g_k Y_{n-k} over the lags k <= n (:func:`_euler_terms`), each word
    an int."""
    out = []
    for sources, over_p in keys:
        history = list(map(_lane_word(sources), zip(*packed)))
        if over_p:
            y = []
            for h, past in zip(history, lagged):
                y.append(h - sum(map(mul, gs, past(y))))
            history = y
        out.append(history)
    return out


def _lane_word(sources):
    """lanes -> sum v lanes[i] over the sources (i, v) of a history key:
    the word a step appends to the history, the lane itself for ((i, 1),)."""
    if len(sources) == 1 == sources[0][1]:
        return itemgetter(sources[0][0])
    return lambda lanes: sum(v * lanes[i] for i, v in sources)


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


def _packed_history(steps, rows: int, width: int) -> list:
    """Per real row i, its history X_0, X_1, ...: each X_n of ``steps``
    (exponent-major, steps[n][rows * exponent + i]) packed into one int of
    lanes (:func:`_pack`)."""
    return [[_pack(xs[i::rows], width) for xs in steps] for i in range(rows)]


def _pack(values, width: int) -> int:
    """sum_l values[l] 2^(width l): signed lanes of one int."""
    out = 0
    for v in values[::-1]:
        out = (out << width) + v
    return out


def _step_pattern(mats, R: int, p: int) -> tuple:
    """The entry pattern of the transposed step matrices ``mats`` (one per
    exponent, row-major): per entry 1 or -1 for an off-diagonal unit, +2^p
    or -2^p at every exponent; 0 for an off-diagonal entry that is 0 at
    every exponent; None for any other entry, the diagonal included (step
    n adds to it)."""
    unit = 1 << p
    out = []
    for k, values in enumerate(zip(*mats)):
        first = values[0]
        same = first in (0, unit, -unit) and values.count(first) == len(values)
        out.append(first >> p if same and k // R != k % R else None)
    return tuple(out)


@functools.cache
def _unit_chain(R: int, pattern: tuple) -> tuple:
    """The unit chain of a step pattern (:func:`_step_pattern`): (free,
    chain, left).  Row i of the transposed matrix is the equation
    sum_j m_ij x_j = rhs_i 2^p.  An equation whose other nonzero entries
    are all known determines the one unknown left in it when that entry is
    a unit.  ``free`` is the smallest set of variables from which such
    equations determine every other one, the first in index order of its
    size; ``chain`` the (variable, equation) pairs in the order they are
    read, each step taking the first equation that determines a variable;
    ``left`` the equations no variable was read off, as many as ``free``
    holds.  With no such chain every variable is free and every equation
    left."""
    nonzero = [[j for j in range(R) if pattern[i * R + j] != 0] for i in range(R)]
    for size in range(1, R):
        for free in combinations(range(R), size):
            known, chain, used = set(free), [], set()
            while len(known) < R:
                for i in range(R):
                    unknown = [j for j in nonzero[i] if j not in known]
                    if i not in used and len(unknown) == 1 and pattern[i * R + unknown[0]]:
                        chain.append((unknown[0], i))
                        known.add(unknown[0])
                        used.add(i)
                        break
                else:
                    break
            if len(known) == R:
                return free, tuple(chain), tuple(i for i in range(R) if i not in used)
    return tuple(range(R)), (), tuple(range(R))


@functools.cache
def _compiled_step(R: int, r: int, pattern: tuple):
    """The q-line step for R real rows, r exponents and the entry pattern of
    their step matrices (:func:`_step_pattern`), compiled once per process
    from :func:`_step_source`: step(acc, mats, shift, width, p) -> (xs,
    bits, lanes)."""
    namespace = {}
    exec(compile(_step_source(R, r, pattern), f"<q-line step {R}x{r}>", "exec"), namespace)
    return namespace["step"]


def _step_source(R: int, r: int, pattern: tuple) -> str:
    """Straight-line Python for one step of :func:`qline_solve` on R real
    rows and r exponents whose step matrices have the entry pattern
    ``pattern``, every value a local.

    ``acc[i]`` holds row i's r packed right-hand sides at 2^-(Q + p) and
    ``mats[l]`` exponent l's transposed step matrix m at n = 0, row-major;
    ``shift`` is what step n adds to its diagonal.  Lane l of each acc[i]
    is split off as a signed value in [-2^(width-1), 2^(width-1)) and
    shifted right by p (a floor): rhs_i at 2^-Q.  Each exponent's x, at
    2^-Q, then solves sum_j m_ij x_j = rhs_i 2^p along the unit chain of
    the pattern (:func:`_unit_chain`):

    - every chained variable x_u, read off equation i through its unit
      entry e 2^p, is first an exact integer affine expression in the free
      variables: E_u = 2^(p k_u) x_u = e (rhs_i 2^(p k_u) - sum_j m_ij E_j
      2^(p (k_u - 1 - k_j))), k_u one more than the largest depth k_j of
      the other variables of the equation (0 for a free one);
    - each left equation, times 2^(p K), K the largest depth in it, is then
      exact and affine in the free variables: sum_f A_f x_f = N;
    - a free block of one variable takes one floor division,
      x_f = floor(N / A): xi_f - 1 < x_f <= xi_f for the exact solution xi
      of the step's equations (A is the determinant of the matrix over the
      product of its units, nonzero where the matrix is);
    - a larger block takes a pivoted elimination (:func:`_elimination`) on
      A rounded to 2^-p and N to 2^-Q (floors): |x_f - xi_f| <= 2^12 (1 +
      2^-p max|xi|), a bound tested, not proved (it grows with the
      conditioning of the block), on the 2 x 2 blocks of complex rank-4
      cyclic and noncyclic steps and the 4 x 4 induction pair;
    - then the chain is back-substituted in order with one floor at 2^-p
      each, x_u = floor(e (rhs_i 2^p - sum_j m_ij x_j) / 2^p), so
      |x_u - xi_u| < 1 + sum_j |m_ij| 2^-p |x_j - xi_j|.

    A left equation at K = 0 holds only free variables, so its block row
    is its entries m_ij and its rhs_i themselves, eliminated in place with
    no line copying them; a unit or zero entry, or a row at K > 0, is
    first assigned to a block name.  A system with no unit (the induction
    pair, a complex rank-1 system) has every variable free and every
    equation left, K = 0, and takes the lines of any other free block.
    Returns the x of every exponent (exponent-major), the bit length of
    the largest |x|, and per real row its r new lanes packed at
    ``width``."""
    free, chain, left = _unit_chain(R, pattern)

    def kind(i, j):
        return pattern[i * R + j]

    def pk(k):
        """The local that holds p k: p itself for k = 1."""
        return "p" if k == 1 else f"p{k}"

    depth = dict.fromkeys(free, 0)
    for u, i in chain:
        depth[u] = 1 + max(depth[j] for j in range(R) if kind(i, j) != 0 and j != u)

    def term(i, j, value, k):
        """m_ij value 2^(p k), parenthesized unless it is the name m_ij;
        value None is 1.  A unit is a shift."""
        if kind(i, j):
            return f"({'' if kind(i, j) == 1 else '-'}({value or 1} << {pk(k + 1)}))"
        if value is None and not k:
            return f"m{i}_{j}"
        product = f"m{i}_{j}" if value is None else f"m{i}_{j} * {value}"
        return f"({product} << {pk(k)})" if k else f"({product})"

    def signed(plus, minus, sign=1):
        """sign (plus[0] + ... - minus[0] - ...)."""
        plus, minus = (plus, minus) if sign == 1 else (minus, plus)
        text = " + ".join(plus)
        for t in minus:
            text = f"{text} - {t}" if text else f"-{t}"
        return text or "0"

    def affine(i, skip, k):
        """sum_j m_ij E_j 2^(p (k - k_j)) over row i's nonzero j but skip,
        as its constant terms and per free variable its coefficient's."""
        const, coeffs = [], {f: [] for f in free}
        for j in range(R):
            if j != skip and kind(i, j) != 0:
                if j in coeffs:
                    coeffs[j].append(term(i, j, None, k - depth[j]))
                    continue
                const.append(term(i, j, f"c{j}", k - depth[j]))
                for f in free:
                    coeffs[f].append(term(i, j, f"d{j}_{f}", k - depth[j]))
        return const, coeffs

    body = [f"{', '.join(f'a{i}' for i in range(R))}, = acc"]
    if r > 1:
        body += ["mask = (1 << width) - 1", "half = 1 << (width - 1)"]
    body += [f"p{k} = p * {k}" for k in range(2, max(depth.values()) + 2)]
    load = [f"m{i}_{j}" if kind(i, j) is None else "_" for i in range(R) for j in range(R)]
    for l in range(r):
        body.append(f"{', '.join(load)}, = mats[{l}]")
        for i in range(R):
            body.append(f"m{i}_{i} += shift")
            if l < r - 1:
                body += [f"v = ((a{i} & mask) ^ half) - half",
                         f"m{i}_{R} = v >> p",
                         f"a{i} = (a{i} - v) >> width"]
            else:
                body.append(f"m{i}_{R} = a{i} >> p")
        xs = [f"x{l}_{j}" for j in range(R)]
        for u, i in chain:  # c{u} and d{u}_{f}: E_u's constant and coefficients
            const, coeffs = affine(i, u, depth[u] - 1)
            body.append(f"c{u} = {signed([f'(m{i}_{R} << {pk(depth[u])})'], const, kind(i, u))}")
            body += [f"d{u}_{f} = {signed([], coeffs[f], kind(i, u))}" for f in free]
        block = []  # per left equation: i, K, N and the A_f
        for i in left:
            K = max(depth[j] for j in range(R) if kind(i, j) != 0)
            const, coeffs = affine(i, None, K)
            block.append((i, K, signed([f"(m{i}_{R} << {pk(K + 1)})"], const),
                          [signed(coeffs[f], []) for f in free]))
        if len(free) == 1:
            ((_, K, N, (A,)),) = block
            body.append(f"{xs[free[0]]} = ({N}) // ({A})")
        else:
            names = []  # per left equation, its block row: a name, or b{t}_{s} assigned
            for t, (i, K, N, As) in enumerate(block):
                # at K = 0 the row holds only free variables: N is m_iR 2^p
                values = [f"({A}) >> {pk(K)}" if K else A for A in As]
                values.append(f"({N}) >> {pk(K + 1)}" if K else f"m{i}_{R}")
                names.append([v if v.isidentifier() else f"b{t}_{s}" for s, v in enumerate(values)])
                body += [f"b{t}_{s} = {v}" for s, v in enumerate(values) if not v.isidentifier()]
            body += _elimination(names, [xs[f] for f in free])
        for u, i in chain:
            others = [term(i, j, xs[j], 0) for j in range(R) if j != u and kind(i, j) != 0]
            body.append(f"{xs[u]} = ({signed([f'(m{i}_{R} << p)'], others, kind(i, u))}) >> p")
    xs = [f"x{l}_{i}" for l in range(r) for i in range(R)]
    body.append(f"bits = max({', '.join(f'{x}, -{x}' for x in xs)}).bit_length()")
    lanes = []
    for i in range(R):
        lane = f"x{r - 1}_{i}"
        for l in range(r - 2, -1, -1):
            lane = f"(({lane}) << width) + x{l}_{i}"
        lanes.append(lane)
    body.append(f"return ({', '.join(xs)},), bits, [{', '.join(lanes)}]")
    return "def step(acc, mats, shift, width, p):\n" + "".join(f"    {line}\n" for line in body)


def _elimination(names: list, xs: list) -> list:
    """Lines that solve the B x B block whose row t is held by the local
    variables ``names[t]``, its right-hand side last, for the variables
    ``xs``, overwriting them: partial pivoting on the first largest
    |entry| of a column, the rows swapped whole, each multiplier
    floor(u 2^p / d) at 2^-p, every update and back substitution term a
    floor, the row of a zero multiplier left as it is.  A singular block
    raises ZeroDivisionError in the back substitution."""
    B = len(names)

    def b(i, j):
        return names[i][j]

    body = []
    for col in range(B - 1):
        body += [f"k = {col}", f"t = abs({b(col, col)})"]
        for i in range(col + 1, B):
            body += [f"u = abs({b(i, col)})", "if u > t:", f"    k, t = {i}, u"]
        for i in range(col + 1, B):
            mine, theirs = names[col][col:], names[i][col:]
            body += [f"{'if' if i == col + 1 else 'elif'} k == {i}:",
                     f"    {', '.join(mine + theirs)} = {', '.join(theirs + mine)}"]
        for i in range(col + 1, B):
            body += [f"if {b(i, col)}:", f"    f = ({b(i, col)} << p) // {b(col, col)}"]
            body += [f"    {b(i, j)} -= f * {b(col, j)} >> p" for j in range(col + 1, B + 1)]
    for i in range(B - 1, -1, -1):
        rest = "".join(f" - ({b(i, j)} * {xs[j]} >> p)" for j in range(i + 1, B))
        body.append(f"{xs[i]} = (({b(i, B)}{rest}) << p) // {b(i, i)}")
    return body


def solved_forms(rows, weights, system, catalog: ClassicalCatalog) -> tuple:
    """The forms of a :func:`qline_solve` and their check against its system.

    Entry i of every exponent's row is rounded once into the form of weight
    k_i (``weights``), all in one stack (:meth:`FormStack.downcast`), and
    their modular derivatives taken in one stack.  Returns both stacks
    (X, D X) and the residual of every column of ``system``
    (:func:`system_residuals`)."""
    X = FormStack.downcast(list(zip(*rows)), weights)
    DX = modular_derivative(X, catalog)
    return X, DX, system_residuals(X, DX, system, catalog)


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
    """Free basis of vector-valued forms with its diagnostics.  The forms
    are held as the one :class:`FormStack` they were checked in, which is
    what is emitted; ``forms`` turns them into tuples when read.  The
    rank-2 Jordan family nu_chi has no q-expansion, since its F leads with
    tau times an eta power: its ``stack`` is None, and ``eta_component``
    holds the second coordinate of F, that eta power."""

    stack: FormStack | None
    case: CaseReport
    residuals: dict[str, float] = field(default_factory=dict)
    eta_component: PuiseuxSeries | None = None

    @functools.cached_property
    def forms(self) -> tuple[VectorSeries, ...]:
        return self.stack.vectors()

    @property
    def weights(self) -> tuple:
        return self.stack.weights


def _require_nonzero(X: FormStack) -> None:
    if max_modulus(X.z) <= 1e-14:
        raise ZeroForm("basis assembly started from the zero form")


def assemble_cyclic_basis(
    X: FormStack,
    co: ODECoefficients,
    catalog: ClassicalCatalog,
    case: CaseReport,
    DX: FormStack | None = None,
) -> FormBasis:
    """Basis F, DF, D^2F, D^3F of the case ``case`` from the stack X of F
    alone; records the relative residual of D^4 F + a E_4 D^2 F +
    b E_6 D F + c E_4^2 F, the last column of the rank-4
    :func:`cyclic_system` in the nome of F.

    The chain D F ... D^4 F stays in one :class:`FormStack` per level, and
    the basis holds the stack of F ... D^3 F the residual reads.  ``DX``
    holds DF when the caller has it already (the induction route takes
    half of DF with its pair check)."""
    _require_nonzero(X)
    chain = [X, DX or modular_derivative(X, catalog)]
    for _ in range(3):
        chain.append(modular_derivative(chain[-1], catalog))
    system = cyclic_system(co, catalog, X.nome)
    basis = FormStack.join(chain[:4], 0)
    (res,) = system_residuals(basis, FormStack.join(chain[1:], 0), system, catalog, columns=[3])
    return FormBasis(basis, case, {"cyclic_mlde": res})


# ---------------------------------------------------------------------------
# the staged driver of every route
# ---------------------------------------------------------------------------

class Route(NamedTuple):
    """A route of :func:`staged`.  ``check`` is its step (a): it checks
    the route's inputs and returns the representation it classifies, of
    rank 2 or 4, and that representation's exponents.  ``case`` is the case
    its module always lands in, or None for either.  ``solve`` is its
    steps (d)-(f): solve(inputs, exponents, report, coefficients, order,
    catalog) returns the basis, from the driver's coefficients."""

    check: Callable
    case: str | None
    solve: Callable


#: the stops of :func:`staged`, by the command that names each
STOPS = ("classify", "coeffs", "minimal", "basis")


def staged(route: Route, inputs: tuple, order: int, catalog: ClassicalCatalog,
           last: str = "basis") -> tuple:
    """Run a route's stages in the order of
    :data:`vvmf.errors.STEPS`: (a) the route's input checks, (b)
    :func:`classify` and the route's case, (c) the equation coefficients
    (:func:`equation_coefficients`, the one lift of the job's exponents),
    and (d)-(f) the route's solve.  All of them run in the job's one
    :func:`qline_precision` scope, which no route opens again, and the
    caller's precision is restored however a stage ends.  Stops after the
    stage the command ``last`` names: ``classify`` after (b), ``coeffs``
    after (c), ``minimal`` and ``basis`` at the end.  Returns (report,
    coefficients, basis), None for what was not reached."""
    if last not in STOPS:
        raise ValueError(f"unknown stop {last!r}")
    with qline_precision():
        rep, L = route.check(*inputs)
        report = classify(rep, L)
        if route.case not in (None, report.case):
            raise NotIrreducible(f"this construction lands in the {route.case} case, "
                                 f"not the {report.case} one")
        if last == "classify":
            return report, None, None
        co = equation_coefficients(L.eigenvalues, report.case)
        if last == "coeffs":
            return report, co, None
        return report, co, route.solve(inputs, L, report, co, order, catalog)


def _generic_inputs(rep: Rank4Rep, L: ExponentData) -> tuple[Rank4Rep, ExponentData]:
    """Step (a) of the generic route: L holds four exponents for the full
    group that land in the T-spectrum of rep."""
    if L.group is not Group.GAMMA:
        raise GroupMismatch("rank-4 exponents are for the full group")
    if L.rank != 4:
        raise WrongRank(f"need 4 exponent eigenvalues, got {L.rank}")
    L.validate_against(rep.t_eigenvalues())
    return rep, L


def _solved_rows(weights, co: ODECoefficients, order: int, catalog: ClassicalCatalog,
                 kronecker_unit: bool = False) -> tuple:
    """Solve the system D X = X M of the equation ``co`` on the q-line at
    all its exponents ``co.lams`` in one call (:func:`qline_solve`, which
    rejects resonant exponents), X holding the entries of ``weights``: the
    cyclic system of rank r = len(co.lams) <= 4 or the noncyclic one.

    ``co`` is :func:`equation_coefficients` of the exponents, which lifted
    them once; the solve takes them from it unchanged.  A cyclic F_j leads
    with 1728^{f_j} (:func:`cyclic_seed`), a noncyclic one with
    1728^{f_j} / t_j (t_j the largest-modulus entry of the leading row per
    unit of F), the normalization of the closed K-line form.  With
    ``kronecker_unit`` a noncyclic F_j leads with 1728^{f_j} itself, the
    normalization of the tensor route's basis A (x) B.  The system is built
    before the seeds, so DegenerateC comes first.  Seeds and system are
    made at the caller's precision, the driver's :func:`qline_precision`
    scope.  Returns the system and the fixed-point rows, one row tuple per
    exponent."""
    if co.case == CYCLIC:
        system = cyclic_system(co, catalog, Nome.Q)
        seeds = [cyclic_seed(f, len(co.lams)) for f in co.f_exponents]
    else:
        system = noncyclic_system(co, catalog)
        seeds = []
        for f in co.f_exponents:
            lead = _noncyclic_lead_row(f, co.a)
            unit = mpmath.mpf(1728) ** f
            if not kronecker_unit:
                unit /= max(lead, key=abs)
            seeds.append([unit * x for x in lead])
    return system, qline_solve(weights, system, co.lams, seeds, order, catalog)


def _solved_basis(inputs, L: ExponentData, report: CaseReport, co: ODECoefficients, order: int,
                 catalog: ClassicalCatalog, kronecker_unit: bool = False) -> FormBasis:
    """Steps (d)-(f) of the generic, tensor and rank-2 routes: the case's
    free basis at the r exponents of L, the rows of :func:`_solved_rows`
    with no row recomputed: (F, DF, ..., D^{r-1}F) or (F, DF, G, H).  Every
    column relation of the solved system is re-checked on the emitted
    doubles (:func:`solved_forms`); a cyclic basis records the largest of
    the first r - 1 columns, the chain D(D^i F) = D^{i+1} F, as
    ``cyclic_chain`` and the last, the equation, as ``cyclic_mlde``."""
    system, rows = _solved_rows(report.weight_tuple, co, order, catalog, kronecker_unit)
    X, _, res = solved_forms(rows, report.weight_tuple, system, catalog)
    if report.case == CYCLIC:
        residuals = {"cyclic_chain": max(res[:-1]), "cyclic_mlde": res[-1]}
    else:
        residuals = dict(zip(NONCYCLIC_KEYS, res))
    return FormBasis(X, report, residuals)


#: the generic rank-4 route: either case, solved on the q-line
GENERIC_ROUTE = Route(_generic_inputs, None, _solved_basis)


def generic_basis(
    rep: Rank4Rep,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
) -> FormBasis:
    """The generic route end to end (:func:`staged`): the rows of the
    q-line solutions are the case-appropriate free basis."""
    return staged(GENERIC_ROUTE, (rep, L), order, catalog)[2]
