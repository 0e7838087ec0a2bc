"""Weight/case classification, Fuchsian operators in theta-polynomial form,
Frobenius series solving, hypergeometric series, the modular derivative, and
free-basis assembly.

Operators are stored as a list of polynomials P_0..P_r in the Euler operator
theta, representing sum_i x^i P_i(theta); P_0 is the indicial polynomial at
x = 0.  The Frobenius recursion, the first-order system solver, and the basis
assemblers below are the computational core of every construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from .classical import ClassicalCatalog
from .errors import (
    DegenerateC,
    ExponentSumMismatch,
    NotAnExponent,
    NotLeftEigenvector,
    PoleInC,
    Resonance,
    TraceDCongruenceViolation,
    WrongNome,
    ZeroForm,
)
from .reps import ExponentData, Rank4Rep
from .series import (
    Nome,
    PuiseuxSeries,
    VectorSeries,
    as_complex,
    compose_frobenius,
    composition_dps,
    downcast_to_complex,
    even_odd_parts,
    nearest_int,
    relative_residual,
    require_int,
)

CYCLIC = "cyclic"
NONCYCLIC = "noncyclic"


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


def recenter_exponents(f, target):
    """Shift an exponent multiset so its sum hits the structural target
    exactly (1 for the cyclic case, 2/3 for the noncyclic one).

    The coefficient formulas build an indicial polynomial whose roots sum to
    the target by construction; a float-level drift in the input sum would
    make the requested exponent miss the root by ~1e-16, and that seed gets
    amplified exponentially once the solution is substituted into the
    hauptmodul.  The shift applied here is below every contract tolerance.
    """
    f = list(f)
    drift = (target - sum(f)) / len(f)
    if abs(as_complex(drift)) > 1e-9:
        raise ExponentSumMismatch(
            f"exponent sum {sum(f)} too far from the structural target {target}"
        )
    return tuple(v + drift for v in f)


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


def build_noncyclic_system(co: ODECoefficients) -> tuple[tuple, tuple]:
    """First-order system on the K-line in the contract
    (1-K) theta X = X (B0 + B1 K) for row vectors X; the eigenvalues of B0
    are the shifted indicial exponents.

    Re-derived from the weight-graded transport of the derivative matrix
    (and cross-checked against the scalar cyclic-vector equation): the
    (4,2) entry of the K-line matrix is 1/(1-K), so it contributes no K-term
    after clearing the denominator.
    """
    a, b, c = co.a, co.b, co.c
    if abs(as_complex(c)) <= 1e-12:
        raise DegenerateC("noncyclic system needs c != 0")
    sixth = Fraction(1, 6)
    third = Fraction(1, 3)
    b0 = (
        (0, a, 1, 0),
        (1, sixth, 0, b),
        (0, 0, sixth, c),
        (0, 1, 0, third),
    )
    b1 = (
        (0, 0, 0, 0),
        (-1, third, 0, -b),
        (0, 0, third, -c),
        (0, 0, 0, -third),
    )
    return b0, b1


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


def _solve_square(mat: list[list], rhs: list, tol_scale: float) -> list:
    """Gaussian elimination with partial pivoting over any complex-like field."""
    n = len(rhs)
    a = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(as_complex(a[i][col])))
        if abs(as_complex(a[piv][col])) < 1e-10 * tol_scale:
            raise Resonance("system matrix singular at an integer offset")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        for i in range(n):
            if i == col:
                continue
            factor = a[i][col] * inv
            if factor != 0:
                for j in range(col, n + 1):
                    a[i][j] = a[i][j] - factor * a[col][j]
    return [a[i][n] / a[i][i] for i in range(n)]


def left_eigenvector(b0, r) -> tuple:
    """Row vector v with v (r I - B0) = 0, normalized so the largest entry is 1.

    Computed as a null vector of the transposed matrix by elimination; raises
    NotAnExponent when r is not an eigenvalue of B0.
    """
    n = len(b0)
    # transpose of (r I - B0)
    m = [[(r if i == j else 0) - b0[i][j] for i in range(n)] for j in range(n)]
    scale = max(1.0, max(abs(as_complex(v)) for row in m for v in row))
    pivots: list[int] = []
    row = 0
    for col in range(n):
        piv = max(range(row, n), key=lambda i: abs(as_complex(m[i][col])))
        if abs(as_complex(m[piv][col])) < 1e-8 * scale:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for i in range(n):
            if i != row:
                f = m[i][col]
                if f != 0:
                    m[i] = [m[i][j] - f * m[row][j] for j in range(n)]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        raise NotAnExponent(f"{r!r} is not an eigenvalue of the system's constant term")
    v = [0] * n
    v[free[0]] = 1
    for i, col in enumerate(pivots):
        v[col] = -m[i][free[0]]
    top = max(range(n), key=lambda i: abs(as_complex(v[i])))
    inv = 1 / v[top]
    return tuple(x * inv for x in v)


def frobenius_solve_system(b0, b1, r, v0, order: int) -> tuple[PuiseuxSeries, ...]:
    """Row-vector Frobenius solution X = x^r sum c_n x^n of
    (1-x) theta X = X (B0 + B1 x), with c_0 = v0 a left eigenvector of B0 for
    r and c_n ((r+n) I - B0) = c_{n-1} ((r+n-1) I + B1)."""
    n_dim = len(b0)
    v0 = list(v0)
    scale = max(1.0, max(abs(as_complex(v)) for row in b0 for v in row))
    residual = [
        sum(v0[i] * ((r if i == j else 0) - b0[i][j]) for i in range(n_dim))
        for j in range(n_dim)
    ]
    v0_norm = max(abs(as_complex(v)) for v in v0)
    if max(abs(as_complex(x)) for x in residual) > 1e-6 * scale * max(v0_norm, 1.0):
        raise NotLeftEigenvector("seed row is not a left eigenvector for r")
    rows = [v0]
    for n in range(1, order + 1):
        prev = rows[-1]
        rhs = [
            sum(prev[i] * ((r + n - 1 if i == j else 0) + b1[i][j]) for i in range(n_dim))
            for j in range(n_dim)
        ]
        # solve c_n M = rhs, i.e. M^T c_n^T = rhs^T
        mat_t = [
            [(r + n if i == j else 0) - b0[i][j] for i in range(n_dim)]
            for j in range(n_dim)
        ]
        rows.append(_solve_square(mat_t, rhs, scale + abs(as_complex(r)) + n))
    return tuple(
        PuiseuxSeries(Nome.K, r, tuple(rows[n][j] for n in range(order + 1)))
        for j in range(n_dim)
    )


def system_residual(b0, b1, rows: tuple[PuiseuxSeries, ...]) -> float:
    """Relative residual of (1-K) theta X - X (B0 + B1 K) for a row solution."""
    n_dim = len(b0)
    order = min(s.order for s in rows)
    one_minus = PuiseuxSeries.polynomial(Nome.K, [1, -1], order)
    worst = 0.0
    for j in range(n_dim):
        lhs = one_minus * rows[j].theta()
        terms = [lhs]
        for i in range(n_dim):
            entry = PuiseuxSeries.polynomial(Nome.K, [b0[i][j], b1[i][j]], order)
            term = rows[i] * entry
            lhs = lhs - term
            terms.append(term)
        worst = max(worst, relative_residual(lhs, *terms))
    return worst


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
    """Basis F, DF, G, H with H = D^2F - a E_4 F and
    G = (DH - b E_4 DF) / (c E_4); records the residuals of the four column
    relations of the modular-derivative matrix (the substantive one is
    DG = E_4 F).

    Division by E_4 amplifies any perturbation of F by the exponential growth
    of 1/E_4, so F (and the coefficients) should be handed in at working
    precision; the assembled forms are downcast to double for emission and
    the column relations are then re-verified on the emitted data, where
    they are numerically well conditioned.
    """
    _require_nonzero(F)
    if abs(as_complex(co.c)) <= 1e-12:
        raise DegenerateC("noncyclic assembly needs c != 0")
    k1 = F.weight
    e4 = catalog.eisenstein(4) if F.nome is Nome.Q else catalog.eisenstein_q2(4)
    d1 = modular_derivative(F, k1, catalog)
    d2 = modular_derivative(d1, k1 + 2, catalog)
    aE4F = F.mul_series(e4, weight_shift=4).scale(co.a)
    H = VectorSeries((d2 - aE4F).components, k1 + 4)
    dH = modular_derivative(H, k1 + 4, catalog)
    bE4DF = d1.mul_series(e4, weight_shift=4).scale(co.b)
    # divide (never invert-and-multiply): 1/E_4 has exponentially growing
    # coefficients that would cancel against the quotient's small ones
    G = VectorSeries(
        tuple(c.divide(e4) for c in (dH - bE4DF).components), k1 + 2
    ).scale(1 / co.c)

    Fd, DFd, Gd, Hd = (v.map(downcast_to_complex) for v in (F, d1, G, H))
    a, b, c = (as_complex(v) for v in (co.a, co.b, co.c))
    d2d = modular_derivative(DFd, k1 + 2, catalog)
    dGd = modular_derivative(Gd, k1 + 2, catalog)
    dHd = modular_derivative(Hd, k1 + 4, catalog)
    aE4Fd = Fd.mul_series(e4, weight_shift=4).scale(a)
    bE4DFd = DFd.mul_series(e4, weight_shift=4).scale(b)
    cE4Gd = Gd.mul_series(e4, weight_shift=4).scale(c)
    e4Fd = Fd.mul_series(e4, weight_shift=4)
    res = {
        "col2_d2f": relative_residual(d2d - aE4Fd - Hd, d2d, aE4Fd, Hd),
        "col3_dg_e4f": relative_residual(dGd - e4Fd, dGd, e4Fd),
        "col4_dh": relative_residual(dHd - bE4DFd - cE4Gd, dHd, bE4DFd, cE4Gd),
    }
    return FormBasis((Fd, DFd, Gd, Hd), case, res)


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


@contextmanager
def kline_precision(catalog: ClassicalCatalog, order: int):
    """K(q) through q^order, yielded inside an mpmath working precision sized
    to substituting it (:func:`composition_dps`); every K-line pipeline runs
    its working-precision block here."""
    k_of_q = catalog.k_hauptmodul().truncate(order)
    with mpmath.workdps(composition_dps(k_of_q)):
        yield k_of_q


def _recursive_stage(
    rep: Rank4Rep,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
    validate_spectrum: bool,
    basis: bool,
):
    """Validate, classify, shift, check resonance, then solve near K = 0,
    substitute K(q) and rescale by eta^{2 k1} in one working-precision block.

    Returns (report, double coefficients, minimal form or basis, K-line
    residuals).  With ``basis`` the case's free basis is assembled in the
    same block (the noncyclic assembly divides by E_4 and needs the working
    precision); everything emitted is downcast to double once.
    """
    if validate_spectrum:
        L.validate_against(rep.t_eigenvalues())
    report = classify(rep, L)
    f_exps = indicial_shifts(L.eigenvalues, report.case)
    _check_nonresonant(f_exps)
    cyclic = report.case == CYCLIC
    co = cyclic_coeffs(f_exps) if cyclic else noncyclic_coeffs(f_exps)
    with kline_precision(catalog, order) as k_of_q:
        f_hp = recenter_exponents(
            [mpmath.mpc(as_complex(f)) for f in f_exps], 1 if cyclic else Fraction(2, 3)
        )
        if cyclic:
            co_hp = cyclic_coeffs(f_hp)
            op = build_cyclic_operator(co_hp)
            rows_hp = [(frobenius_solve(op, f, order),) for f in f_hp]
        else:
            co_hp = noncyclic_coeffs(f_hp)
            b0, b1 = build_noncyclic_system(co_hp)
            rows_hp = [
                frobenius_solve_system(b0, b1, f, left_eigenvector(b0, f), order)
                for f in f_hp
            ]
        eta = catalog.eta_power(2 * report.k1)
        F_hp = VectorSeries(
            tuple(compose_frobenius(r[0], k_of_q) * eta for r in rows_hp), report.k1
        )
        if basis and not cyclic:
            out = assemble_noncyclic_basis(F_hp, co_hp, catalog, report)
        else:
            out = F_hp.map(downcast_to_complex)
            if basis:
                out = assemble_cyclic_basis(out, co, catalog, report)
    rows = [tuple(downcast_to_complex(s) for s in r) for r in rows_hp]
    return report, co, out, _kline_diagnostics(co, rows)


def _kline_diagnostics(co: ODECoefficients, rows) -> dict[str, float]:
    """Self-residuals of the downcast K-line solutions (one tuple of rows per
    exponent; the first row is the scalar solution)."""
    if co.case == CYCLIC:
        op = build_cyclic_operator(co)
        return {"frobenius_self": max(operator_residual(op, r[0]) for r in rows)}
    b0, b1 = build_noncyclic_system(co)
    op = build_noncyclic_operator(co)
    return {
        "system_self": max(system_residual(b0, b1, r) for r in rows),
        "scalar_crosscheck": max(operator_residual(op, r[0]) for r in rows),
    }


def solve_minimal_form(
    rep: Rank4Rep,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
    validate_spectrum: bool = True,
):
    """Recursive pipeline for a generic rank-4 representation: classify,
    derive the equation coefficients, solve at each indicial exponent near
    K = 0, substitute the q-expansion of K, and rescale by eta^{2 k1}.

    Returns (F, report, coefficients, residuals) with F the minimal-weight
    form whose component j has leading q-exponent L.eigenvalues[j].
    """
    report, co, F, residuals = _recursive_stage(
        rep, L, order, catalog, validate_spectrum, basis=False
    )
    return F, report, co, residuals


def generic_basis(
    rep: Rank4Rep,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
    validate_spectrum: bool = True,
) -> FormBasis:
    """Recursive route end to end: minimal form plus the case-appropriate
    free basis, with the noncyclic assembly done at working precision."""
    report, _, basis, residuals = _recursive_stage(
        rep, L, order, catalog, validate_spectrum, basis=True
    )
    residuals.update(basis.residuals)
    return FormBasis(basis.forms, report, residuals)


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
