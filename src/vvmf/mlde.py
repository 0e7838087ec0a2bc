"""Weight/case classification, Fuchsian operators in theta-polynomial form,
Frobenius series solving, hypergeometric series, first-order systems on the
q-line, the modular derivative, and free-basis assembly.

Every route solves a first-order system D X = X M(q) with holomorphic
coefficients directly on the q-line (:func:`qline_solve`), with no
hauptmodul, in fixed-point integer arithmetic.  Fuchsian operators, stored
as a list of polynomials P_0..P_r in the Euler operator theta representing
sum_i x^i P_i(theta) (P_0 the indicial polynomial at x = 0), and their
Frobenius solver are the K-line and Z-line oracles the tests compare
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

import mpmath
import numpy as np

from .classical import ClassicalCatalog
from .errors import (
    DegenerateC,
    ExponentSumMismatch,
    NotAnExponent,
    PoleInC,
    Resonance,
    TraceDCongruenceViolation,
    WrongNome,
    ZeroForm,
)
from .reps import ExponentData, Rank4Rep
from .series import (
    FixedSeries,
    Nome,
    PuiseuxSeries,
    VectorSeries,
    as_complex,
    compose_frobenius,  # noqa: F401  (a binding site perfbench's tracer test patches)
    even_odd_parts,
    nearest_int,
    relative_residual,
    require_int,
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


def rank2_coeff(f1, f2):
    """Structure constant of the rank-2 weight-zero equation; the indicial
    polynomial is x^2 - x/6 + a with roots f1, f2 (sum 1/6)."""
    if abs(as_complex(f1 + f2) - Fraction(1, 6)) > 1e-9:
        raise ExponentSumMismatch(f"rank-2 exponents must sum to 1/6, got {f1 + f2}")
    return f1 * f2


# ---------------------------------------------------------------------------
# Fuchsian operators in theta form
# ---------------------------------------------------------------------------

def _poly_eval(coeffs, t):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _poly_scale(coeffs, t) -> float:
    m = max(1.0, abs(as_complex(t)))
    return sum(float(abs(as_complex(c))) * m**k for k, c in enumerate(coeffs))


@dataclass(frozen=True)
class FuchsianOperator:
    """sum_i x^i P_i(theta), with P_i given by ascending coefficient tuples."""

    theta_polys: tuple[tuple, ...]
    nome: Nome

    @property
    def order(self) -> int:
        return len(self.theta_polys[0]) - 1

    @property
    def x_degree(self) -> int:
        return len(self.theta_polys) - 1

    def indicial(self, t):
        return _poly_eval(self.theta_polys[0], t)

    def indicial_roots(self) -> np.ndarray:
        p0 = [as_complex(c) for c in self.theta_polys[0]]
        return np.roots(list(reversed(p0)))

    def apply(self, s: PuiseuxSeries) -> PuiseuxSeries:
        """Apply the operator to a series in the same variable; exact through
        the series' own truncation order."""
        if s.nome is not self.nome:
            raise WrongNome(
                f"operator in {self.nome.value!r} applied to {s.nome.value!r}-series"
            )
        lam = s.lead_exponent
        out = []
        for n in range(s.order + 1):
            acc = 0
            for i in range(min(n, self.x_degree) + 1):
                acc += _poly_eval(self.theta_polys[i], lam + n - i) * s.coeffs[n - i]
            out.append(acc)
        return PuiseuxSeries(s.nome, lam, tuple(out))


def build_cyclic_operator(co: ODECoefficients) -> FuchsianOperator:
    """Minimal-weight equation of the cyclic case on the K-line, cleared of
    denominators by 36(1-K)^2; P_0 is 36 times the indicial polynomial."""
    a, b, c = co.a, co.b, co.c
    p0 = (36 * c, 36 * b - 6 * a - 1, 36 * a + 11, -36, 36)
    p1 = (0, -(12 * a + 36 * b + 4), -(36 * a + 28), -36, -72)
    p2 = (0, 8, 44, 72, 36)
    return FuchsianOperator((p0, p1, p2), Nome.K)


def build_noncyclic_operator(co: ODECoefficients) -> FuchsianOperator:
    """Scalar (cyclic-vector) form of the noncyclic equation, cleared by
    108(1-K)^2."""
    a, b, c = co.a, co.b, co.c
    p0 = (-6 * a - 108 * c, 54 * a + 18 * b - 1, 15 - 108 * (a + b), -72, 108)
    p1 = (-12 * a, 36 * b - 22, 108 * (a + b) - 102, -180, -216)
    p2 = (0, 32, 168, 252, 108)
    return FuchsianOperator((p0, p1, p2), Nome.K)


def build_hypergeometric_operator(a, b, c, nome: Nome = Nome.K) -> FuchsianOperator:
    """theta(theta+c-1) - x(theta+a)(theta+b)."""
    p0 = (0, c - 1, 1)
    p1 = (-a * b, -(a + b), -1)
    return FuchsianOperator((p0, p1), Nome(nome))


def build_rank2_operator(a) -> FuchsianOperator:
    """Weight-zero rank-2 equation on the K-line, cleared by 36(1-K);
    indicial polynomial x^2 - x/6 + a."""
    p0 = (36 * a, -6, 36)
    p1 = (0, -12, -36)
    return FuchsianOperator((p0, p1), Nome.K)


def operator_residual(op: FuchsianOperator, s: PuiseuxSeries) -> float:
    """Residual of op(s) = 0, relative to the natural scale of the applied
    terms (the indicial polynomial evaluated at the top of the window times
    the largest coefficient)."""
    lam = abs(as_complex(s.lead_exponent))
    scale = max(
        _poly_scale(p, lam + s.order) for p in op.theta_polys
    ) * max(1.0, s.max_abs())
    return op.apply(s).max_abs() / scale


# ---------------------------------------------------------------------------
# Frobenius solving
# ---------------------------------------------------------------------------

def frobenius_solve(op: FuchsianOperator, r, order: int) -> PuiseuxSeries:
    """Series solution x^r (1 + c_1 x + ...) with
    c_n = -(sum_{i>=1} P_i(r+n-i) c_{n-i}) / P_0(r+n).

    Raises NotAnExponent when P_0(r) != 0 and Resonance when the recursion
    denominator vanishes for some n >= 1 (a logarithmic case this engine
    rejects by design).
    """
    p0 = op.theta_polys[0]
    if abs(as_complex(op.indicial(r))) > 1e-6 * _poly_scale(p0, r):
        raise NotAnExponent(f"P0({r!r}) = {op.indicial(r)!r} does not vanish")
    coeffs = [1]
    for n in range(1, order + 1):
        denom = op.indicial(r + n)
        if abs(as_complex(denom)) < 1e-8 * _poly_scale(p0, r + n):
            raise Resonance(
                f"indicial polynomial vanishes again at offset {n}; "
                "logarithmic solutions are out of scope"
            )
        acc = 0
        for i in range(1, min(n, op.x_degree) + 1):
            acc += _poly_eval(op.theta_polys[i], r + n - i) * coeffs[n - i]
        coeffs.append(-acc / denom)
    return PuiseuxSeries(op.nome, r, tuple(coeffs))


def hypergeom_2f1(a, b, c, order: int, nome: Nome = Nome.K) -> PuiseuxSeries:
    """Gauss series sum (a)_n (b)_n / ((c)_n n!) x^n by the term ratio."""
    ci = nearest_int(c)
    if ci is not None and ci <= 0 and -ci <= order - 1:
        raise PoleInC(f"lower parameter c = {c!r} hits a nonpositive integer")
    coeffs = [1]
    term = 1
    for n in range(order):
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1))
        coeffs.append(term)
    return PuiseuxSeries(Nome(nome), 0.0, tuple(coeffs))


# ---------------------------------------------------------------------------
# first-order systems on the q-line
# ---------------------------------------------------------------------------

#: digits of every q-line block.  The q-line solve runs in fixed point at the
#: binary precision of this many digits plus guard bits (:func:`qline_solve`),
#: and the products formed from its rows are exact, so the recursion's own
#: rounding is the only error of a block.  The recursion divides by nothing
#: but its own small matrices, so nothing cancels exponentially in it and a
#: fixed margin over double precision suffices.  The products can cancel: at
#: order 200 the tensor Kronecker product of ``tensor_grid`` member 5 was
#: off by 9.8e-8 of its scale when its rank-2 factors carried 30 digits, and
#: exact at 50, against a 120-digit run.  At 50 digits every route's doubles
#: at order 200 are identical to a run with 30 more digits.
QLINE_DPS = 50


def qline_precision():
    """The working-precision block of every q-line solve: the mpmath
    precision of the seeds and coefficients a solve starts from
    (:data:`QLINE_DPS`)."""
    return mpmath.workdps(QLINE_DPS)


def cyclic_system(co: ODECoefficients, catalog: ClassicalCatalog) -> list:
    """D X = X M for X = (F, DF, D^2F, D^3F): ones below the diagonal and the
    last column (-c E_4^2, -b E_6, -a E_4, 0) of the minimal-weight equation.

    A system is a list of (sparse constant matrix {(i, j): value}, scalar
    exact-integer q-series) pairs whose sum of products is M."""
    e4 = catalog.eisenstein(4)
    return [
        ({(1, 0): 1, (2, 1): 1, (3, 2): 1}, PuiseuxSeries.one(Nome.Q, catalog.order)),
        ({(2, 3): -co.a}, e4),
        ({(1, 3): -co.b}, catalog.eisenstein(6)),
        ({(0, 3): -co.c}, e4 * e4),
    ]


def noncyclic_system(co: ODECoefficients, catalog: ClassicalCatalog) -> list:
    """D X = X M for X = (F, DF, G, H): D(DF) = a E_4 F + H, DG = E_4 F and
    DH = b E_4 DF + c E_4 G (see :func:`cyclic_system` for the format)."""
    if abs(as_complex(co.c)) <= 1e-12:
        raise DegenerateC("noncyclic system needs c != 0")
    return [
        ({(1, 0): 1, (3, 1): 1}, PuiseuxSeries.one(Nome.Q, catalog.order)),
        ({(0, 1): co.a, (0, 2): 1, (1, 3): co.b, (2, 3): co.c}, catalog.eisenstein(4)),
    ]


def _noncyclic_lead_row(f, a) -> list:
    """Leading coefficients of (F, DF, G, H) per unit of F at the shifted
    exponent f: D multiplies a leading term of weight k1 + 2i by f - i/6."""
    sixth = Fraction(1, 6)
    return [1, f, 1 / (f - sixth), f * (f - sixth) - a]


def qline_solve(weights, system, lam, seed, order: int, catalog: ClassicalCatalog):
    """Row solution X = x^lam sum_n X_n x^n of D X = X M(x).

    D is the modular derivative at the weights k_i of the entries of X; the
    system M is given as in :func:`cyclic_system`, in the nome x of its
    series: q, or q2 where theta_q = theta_x / 2 (s = 1 or 1/2).  With
    K = diag(k_i / 12) this is the q-recursion of Mathur-Mukhi-Sen (Phys.
    Lett. B 213, 1988) in system form:

        X_0 (s lam I - K - M_0) = 0,
        X_n (s (lam + n) I - K - M_0) = sum_{m >= 1} X_{n-m} (K E2_m + M_m).

    ``seed`` is X_0 (NotAnExponent unless it is a left null vector); a
    singular later matrix raises Resonance.  The solution is truncated to
    the shortest series of the system.

    The recursion runs in fixed point.  Every X_n is held as the integer
    mantissas of its real and imaginary parts at one scale 2^-Q per solve,
    Q = p - floor(log2 max|seed|), where p is the binary precision of
    :data:`QLINE_DPS` (read at call time) plus 32 guard bits.  The series of
    the system enter as their exact integer coefficients, so each
    convolution is two integer dot products and rounds nothing.  The
    constant matrices are encoded once at the scale 2^-p, and each step is
    solved by pivoted elimination on those Gaussian integers
    (:func:`_fixed_left_solve`).  There is no hauptmodul and no division by
    a series.  The rows come back as :class:`FixedSeries`, for the caller to
    multiply exactly and downcast once.  The seed and the equation
    coefficients are mpmath numbers of the caller's
    :func:`qline_precision` block.
    """
    nome = system[0][1].nome
    s = Fraction(1, 2) if nome is Nome.Q2 else 1
    r = len(weights)
    p = mpmath.libmp.dps_to_prec(QLINE_DPS) + 32
    bits = p - (math.frexp(max(abs(as_complex(v)) for v in seed))[1] - 1)
    kdiag = {(i, i): Fraction(k, 12) for i, k in enumerate(weights) if k}
    m0 = [[0] * r for _ in range(r)]
    convolutions = []  # (entries (i, j, re, im) at 2^-p, rows read, e_1, e_2, ...)
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
            entries = [(i, j, *to_fixed(v, p)) for (i, j), v in S.items()]
            convolutions.append((entries, {i for i, _ in S}, tail))

    b0 = [[(s * lam if i == j else 0) - m0[i][j] for j in range(r)] for i in range(r)]
    miss = max(abs(sum(seed[i] * b0[i][j] for i in range(r))) for j in range(r))
    scale = max(1, max(abs(v) for row in b0 for v in row))
    if miss > 1e-9 * scale * max(abs(v) for v in seed):
        raise NotAnExponent(f"seed row is not a left null vector of the system at {lam!r}")
    b0 = [[to_fixed(v, p) for v in row] for row in b0]
    step = int(s * (1 << p))  # s (lam + n) - s (lam + n - 1) at the scale 2^-p
    res, ims = zip(*(([x], [y]) for x, y in (to_fixed(v, bits) for v in seed)))
    for n in range(1, order + 1):
        acc = [[0, 0] for _ in range(r)]
        for entries, sources, e in convolutions:
            conv = {i: (sum(map(mul, res[i][n - 1::-1], e)), sum(map(mul, ims[i][n - 1::-1], e)))
                    for i in sources}
            for i, j, vr, vi in entries:
                cr, ci = conv[i]
                acc[j][0] += cr * vr - ci * vi
                acc[j][1] += cr * vi + ci * vr
        b = [list(row) for row in b0]
        for i in range(r):
            b[i][i] = (b0[i][i][0] + n * step, b0[i][i][1])
        x = _fixed_left_solve(b, [(u >> p, v >> p) for u, v in acc], p)
        for i, (u, v) in enumerate(x):
            res[i].append(u)
            ims[i].append(v)
    return tuple(
        FixedSeries(PuiseuxSeries(nome, lam, tuple(u)), PuiseuxSeries(nome, lam, tuple(v)), bits)
        for u, v in zip(res, ims)
    )


#: 1/(1e-10)^2: a pivot whose squared modulus is this many times below the
#: largest squared modulus of the matrix counts as zero
_PIVOT_FLOOR = 10**20


def _fixed_left_solve(a, rhs, p: int) -> list:
    """Row x with x a = rhs, in Gaussian integers: a at the scale 2^-p, rhs
    and x at one common scale.  Elimination with partial pivoting on the
    transposed system; each multiplier is held at the scale 2^-p.  A pivot
    below 1e-10 of the largest entry of a, compared as exact squared moduli,
    is an integer exponent gap."""
    r = len(rhs)
    m = [[a[i][j] for i in range(r)] + [rhs[j]] for j in range(r)]
    scale = max(u * u + v * v for row in m for u, v in row[:r])
    for col in range(r):
        norms = [u * u + v * v for u, v in (m[i][col] for i in range(col, r))]
        norm = max(norms)
        if norm * _PIVOT_FLOOR <= scale:
            raise Resonance(
                "system matrix singular at an integer offset; "
                "logarithmic solutions are out of scope"
            )
        piv = col + norms.index(norm)
        m[col], m[piv] = m[piv], m[col]
        pr, pi = m[col][col]
        for i in range(col + 1, r):
            ur, ui = m[i][col]
            if ur or ui:
                fr = ((ur * pr + ui * pi) << p) // norm
                fi = ((ui * pr - ur * pi) << p) // norm
                m[i][col + 1:] = [
                    (u - ((fr * w - fi * z) >> p), v - ((fr * z + fi * w) >> p))
                    for (u, v), (w, z) in zip(m[i][col + 1:], m[col][col + 1:])
                ]
    x = [None] * r
    for i in reversed(range(r)):
        nr, ni = m[i][r]
        for (w, z), (u, v) in zip(m[i][i + 1:r], x[i + 1:]):
            nr -= (w * u - z * v) >> p
            ni -= (w * v + z * u) >> p
        dr, di = m[i][i]
        norm = dr * dr + di * di
        x[i] = (((nr * dr + ni * di) << p) // norm, ((ni * dr - nr * di) << p) // norm)
    return x


def system_residuals(forms, system, catalog: ClassicalCatalog) -> list[float]:
    """Relative residual of each column j of D X = X M on emitted forms (the
    entries of X, each a vector series at its weight)."""
    out = []
    for j, form in enumerate(forms):
        lhs = modular_derivative(form, form.weight, catalog)
        parts = [
            forms[i].mul_series(e).scale(v)
            for S, e in system for (i, col), v in S.items() if col == j
        ]
        residual = lhs
        for p in parts:
            residual = residual - p
        out.append(relative_residual(residual, lhs, *parts))
    return out


# ---------------------------------------------------------------------------
# modular derivative and basis assembly
# ---------------------------------------------------------------------------

def modular_derivative(F: VectorSeries, k, catalog: ClassicalCatalog) -> VectorSeries:
    """Componentwise theta_q - (k/12) E_2, raising the weight by two."""
    k = Fraction(k)
    return VectorSeries(
        tuple(catalog.modular_derive(c, k) for c in F.components), k + 2
    )


@dataclass(frozen=True)
class FormBasis:
    """Free basis of vector-valued forms with its diagnostics."""

    forms: tuple[VectorSeries, ...]
    case: CaseReport | None
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def weights(self) -> tuple:
        return tuple(f.weight for f in self.forms)

    def to_json(self) -> dict:
        return {
            "case": None
            if self.case is None
            else {
                "case": self.case.case,
                "k1": self.case.k1,
                "weights": list(self.case.weight_tuple),
                "d": self.case.d,
                "e": self.case.e,
            },
            "forms": [f.to_json() for f in self.forms],
            "residuals": dict(self.residuals),
        }


def _require_nonzero(F: VectorSeries) -> None:
    if F.max_abs() <= 1e-14:
        raise ZeroForm("basis assembly started from the zero form")


def assemble_cyclic_basis(
    F: VectorSeries,
    co: ODECoefficients,
    catalog: ClassicalCatalog,
    case: CaseReport | None = None,
) -> FormBasis:
    """Basis F, DF, D^2F, D^3F; records the relative residual of
    D^4 F + a E_4 D^2 F + b E_6 D F + c E_4^2 F."""
    _require_nonzero(F)
    k1 = F.weight
    d1 = modular_derivative(F, k1, catalog)
    d2 = modular_derivative(d1, k1 + 2, catalog)
    d3 = modular_derivative(d2, k1 + 4, catalog)
    d4 = modular_derivative(d3, k1 + 6, catalog)
    e4 = catalog.eisenstein(4) if F.nome is Nome.Q else catalog.eisenstein_q2(4)
    e6 = catalog.eisenstein(6) if F.nome is Nome.Q else catalog.eisenstein_q2(6)
    t_a = d2.mul_series(e4).scale(co.a)
    t_b = d1.mul_series(e6).scale(co.b)
    t_c = F.mul_series(e4 * e4).scale(co.c)
    residual = d4 + t_a + t_b + t_c
    res = {"cyclic_mlde": relative_residual(residual, d4, t_a, t_b, t_c)}
    return FormBasis((F, d1, d2, d3), case, res)


def assemble_noncyclic_basis(
    F: VectorSeries,
    co: ODECoefficients,
    catalog: ClassicalCatalog,
    case: CaseReport | None = None,
) -> FormBasis:
    """Basis F, DF, G, H with H = D^2F - a E_4 F and G the third row of the
    noncyclic system (:func:`noncyclic_system`), solved on the q-line from
    the leading coefficients of F; records the residuals of the four column
    relations on the emitted forms (the substantive one is DG = E_4 F)."""
    _require_nonzero(F)
    system = noncyclic_system(co, catalog)
    if F.nome is not Nome.Q:
        raise WrongNome("noncyclic assembly solves for G on the q-line")
    k1 = F.weight
    weights = (k1, k1 + 2, k1 + 2, k1 + 4)
    d1 = modular_derivative(F, k1, catalog)
    d2 = modular_derivative(d1, k1 + 2, catalog)
    H = VectorSeries((d2 - F.mul_series(catalog.eisenstein(4)).scale(co.a)).components, k1 + 4)
    with qline_precision():
        g_comps = []
        for comp in F.components:
            lam = mpmath.mpc(as_complex(comp.lead_exponent))
            lead = mpmath.mpc(as_complex(comp.coeffs[0]))
            row = _noncyclic_lead_row(lam - Fraction(k1, 12), co.a)
            G = qline_solve(weights, system, lam, [lead * x for x in row], F.order, catalog)[2]
            g_comps.append(G.downcast())
    forms = (F, d1, VectorSeries(tuple(g_comps), k1 + 2), H)
    res = system_residuals(forms, system, catalog)
    return FormBasis(forms, case, dict(zip(NONCYCLIC_KEYS, res)))


# ---------------------------------------------------------------------------
# generic minimal-form pipeline (recursive route)
# ---------------------------------------------------------------------------

def _check_nonresonant(exponents) -> None:
    exps = list(exponents)
    for i in range(len(exps)):
        for j in range(len(exps)):
            if i == j:
                continue
            gap = nearest_int(exps[i] - exps[j])
            if gap is not None and gap != 0:
                raise Resonance(
                    f"exponents {exps[i]!r} and {exps[j]!r} differ by the integer {gap}"
                )


def _recursive_stage(
    rep: Rank4Rep,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
    validate_spectrum: bool,
) -> tuple[ODECoefficients, FormBasis]:
    """Validate, classify, shift and check resonance, then solve the case's
    system D X = X M on the q-line at each exponent (:func:`qline_solve`).

    The rows of the solutions are the case's free basis, (F, DF, D^2F, D^3F)
    or (F, DF, G, H), with no row recomputed.  F_j leads with 1728^{f_j}
    (cyclic) or 1728^{f_j} / t_j (noncyclic, t_j the largest-modulus entry
    of the leading row per unit of F), the normalization of the closed
    K-line form.  Every column relation is re-checked on the emitted
    doubles.  Returns the double coefficients and the basis.
    """
    if validate_spectrum:
        L.validate_against(rep.t_eigenvalues())
    report = classify(rep, L)
    f_exps = indicial_shifts(L.eigenvalues, report.case)
    _check_nonresonant(f_exps)
    cyclic = report.case == CYCLIC
    coeffs = cyclic_coeffs if cyclic else noncyclic_coeffs
    build = cyclic_system if cyclic else noncyclic_system
    co = coeffs(f_exps)
    with qline_precision():
        lams = [mpmath.mpc(as_complex(v)) for v in L.eigenvalues]
        f_hp = indicial_shifts(lams, report.case)  # sum exact at working precision
        co_hp = coeffs(f_hp)
        system = build(co_hp, catalog)
        rows = []
        for lam, f in zip(lams, f_hp):
            if cyclic:
                seed = [mpmath.mpf(1728) ** f]
                for i in range(3):
                    seed.append(seed[-1] * (f - Fraction(i, 6)))
            else:
                lead = _noncyclic_lead_row(f, co_hp.a)
                unit = mpmath.mpf(1728) ** f / max(lead, key=abs)
                seed = [unit * x for x in lead]
            solution = qline_solve(report.weight_tuple, system, lam, seed, order, catalog)
            rows.append(tuple(x.downcast() for x in solution))
    forms = tuple(
        VectorSeries(comps, k) for comps, k in zip(zip(*rows), report.weight_tuple)
    )
    res = system_residuals(forms, build(co, catalog), catalog)
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
    validate_spectrum: bool = True,
):
    """Recursive pipeline for a generic rank-4 representation: classify,
    derive the equation coefficients and solve the case's first-order system
    on the q-line at each indicial exponent.

    Returns (F, report, coefficients, residuals) with F the minimal-weight
    form whose component j has leading q-exponent L.eigenvalues[j]; the
    residuals are those of :func:`generic_basis`.
    """
    co, basis = _recursive_stage(rep, L, order, catalog, validate_spectrum)
    return basis.forms[0], basis.case, co, dict(basis.residuals)


def generic_basis(
    rep: Rank4Rep,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
    validate_spectrum: bool = True,
) -> FormBasis:
    """Recursive route end to end: the rows of the q-line solutions are the
    case-appropriate free basis."""
    return _recursive_stage(rep, L, order, catalog, validate_spectrum)[1]


def leading_coefficient_matrix(forms) -> np.ndarray:
    """Rows are basis forms, columns are components, entries the coefficients
    at each component's smallest declared leading exponent."""
    rank = forms[0].rank
    mat = np.zeros((len(forms), rank), dtype=complex)
    for j in range(rank):
        leads = [as_complex(f.components[j].lead_exponent).real for f in forms]
        base = min(leads)
        for i, f in enumerate(forms):
            offset = round(leads[i] - base)
            mat[i, j] = as_complex(f.components[j].coefficient(-offset))
    return mat


def basis_rank_ratio(basis: FormBasis, split_q2: bool = False) -> float:
    """Smallest-over-largest singular value of the leading-coefficient matrix;
    a proxy for freeness of the emitted basis.

    For induced bases (components stacked with their T-inverse translates,
    which share leading exponents) the plain leading matrix is structurally
    degenerate; ``split_q2`` extracts the columns from the even/odd
    q2-offset parts instead, where the exponents separate.
    """
    if split_q2:
        cols = []
        for f in basis.forms:
            row = []
            half = f.rank // 2
            for j in range(half):
                even, odd = even_odd_parts(f.components[j])
                row.extend([even, odd])
            cols.append(row)
        rank = len(cols[0])
        mat = np.zeros((len(basis.forms), rank), dtype=complex)
        for j in range(rank):
            leads = [as_complex(row[j].lead_exponent).real for row in cols]
            offsets = [0 if j % 2 == 0 else 1 for _ in cols]
            base = min(leads[i] + offsets[i] for i in range(len(cols)))
            for i, row in enumerate(cols):
                n = round(base - leads[i])
                mat[i, j] = as_complex(row[j].coefficient(n))
    else:
        mat = leading_coefficient_matrix(basis.forms)
    # normalize per column: exponent spreads scale whole components by
    # factors like 1728^f, which says nothing about linear dependence
    for j in range(mat.shape[1]):
        top = np.max(np.abs(mat[:, j]))
        if top > 0:
            mat[:, j] /= top
    s = np.linalg.svd(mat, compute_uv=False)
    if s[0] == 0:
        return 0.0
    return float(s[-1] / s[0])
