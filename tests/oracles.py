"""The K-line and Z-line oracles the tests compare the q-line routes against:
the paper's rank-2 closed form eta^{2 k1} K^f 2F1(f, f + 1/3; 1 +- delta; K)
with K = 1728/j, the Z-line equation of the induction pair, and the
closed tensor basis formed from Kronecker products of rank-2 rows.  Fuchsian
operators are lists of polynomials P_0..P_r in the Euler operator theta for
sum_i x^i P_i(theta), P_0 the indicial polynomial at x = 0.  Also the
matrices of the representations, which the tests rebuild from the
normal-form parameters to check the invariants the library reads off them,
with a greedy match of complex multisets for their spectra, and the double
check of the emitted forms component by component, in the series
arithmetic the array pass of the library reproduces.  And the elimination
of one q-line step as a loop (:func:`left_solve`), the reference for the
straight-line step the library generates, beside that loop as first
written, with per-column lists and slices.  And the emitted [re, im]
doubles of a series as one downcast per coefficient, type by type
(:func:`emitted_coeffs`), the reference for the conversion by coefficient
kind of :meth:`vvmf.series.PuiseuxSeries.to_json`.  And the rank-2 shifted
exponents and the cyclic equation's coefficients as first written, one
formula for rank two and one for rank four (:func:`rank2_coeff`,
:func:`rank4_cyclic_coeffs`), the references of the one rule of every rank
in :mod:`vvmf.mlde`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from vvmf.constructions import _downcast, _rank2_weight
from vvmf.errors import (
    InconsistentRep,
    NotAnExponent,
    Resonance,
    VvmfError,
    WrongNome,
)
from vvmf.mlde import CYCLIC, ODECoefficients, _solved_rows, elementary_symmetric, qline_precision
from vvmf.reps import XI, ZETA3, ExponentData, GRank2Rep, Rank2Rep, Rank4Rep
from vvmf.series import (
    FixedSeries,
    Nome,
    PuiseuxSeries,
    VectorSeries,
    as_complex,
    nearest_int,
    residual_ratio,
    to_fixed,
)


class PoleInC(VvmfError):
    """Hypergeometric lower parameter hits a nonpositive integer."""
    stage = "d"


# ---------------------------------------------------------------------------
# substitution into a hauptmodul
# ---------------------------------------------------------------------------

def composition_dps(x_of_q: PuiseuxSeries, margin: int = 35) -> int:
    """Working precision for substituting x(q) into a series.

    Substitution sums a_n * [x^n]_m; the largest term is governed by the
    per-order growth rate max_j |x_j|^(1/j) (the leading coefficient usually
    dominates: 1728 for K, ~83i for Z), while the result stays at
    modular-form scale.  The digits of headroom must absorb the full
    cancellation between the two.
    """
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


def downcast_to_complex(s: PuiseuxSeries) -> PuiseuxSeries:
    return PuiseuxSeries(
        s.nome, as_complex(s.lead_exponent), tuple(as_complex(c) for c in s.coeffs)
    )


def downcast(z) -> complex:
    """Builtin complex of a coefficient, a Fraction through its float."""
    if isinstance(z, Fraction):
        return complex(float(z))
    return complex(z)


def emitted_coeffs(s: PuiseuxSeries) -> list:
    """The [re, im] doubles of s's coefficients, one :func:`downcast` per
    coefficient; a coefficient beyond the double range raises the
    OverflowError of :meth:`PuiseuxSeries.to_json`, naming the first such
    index."""
    try:
        return [[z.real, z.imag] for z in map(downcast, s.coeffs)]
    except OverflowError:
        for n, c in enumerate(s.coeffs):
            try:
                downcast(c)
            except OverflowError:
                raise OverflowError(
                    f"coefficient {n} of an order-{s.order} {s.nome.value}-series"
                    " exceeds the double range"
                ) from None
        raise


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
# the paper's closed forms on the K- and Z-lines
# ---------------------------------------------------------------------------

def _rank2_shifts(L: ExponentData) -> tuple:
    """Shifted exponents f = (1 +- 6 delta)/12, delta = r1 - r2, of the
    weight-zero frame, as mpmath numbers at the ambient working precision,
    where their sum is exactly 1/6."""
    r1, r2 = L.eigenvalues
    delta = r1 - r2
    if nearest_int(delta) is not None:
        raise Resonance(
            f"exponent gap {delta!r} is an integer; the rank-2 pair degenerates"
        )
    delta = mpmath.mpc(delta)
    return (6 * delta + 1) / 12, (-6 * delta + 1) / 12


def rank2_kline_pair(L: ExponentData, order: int) -> tuple[PuiseuxSeries, PuiseuxSeries]:
    """Weight-zero K-line solutions K^{f_i} 2F1(f_i, f_i + 1/3; 1 +- delta; K)
    with f_i = (6(r_i - r_j) + 1)/12 the shifted exponents.

    The closed form the q-line rank-2 solve is tested against.  The
    parameters enter as mpmath numbers, so the series is accurate at the
    ambient working precision (needed before substituting the hauptmodul,
    which cancels catastrophically)."""
    third = Fraction(1, 3)
    out = []
    for f in _rank2_shifts(L):
        hyp = hypergeom_2f1(f, f + third, 2 * f + Fraction(5, 6), order)  # c = 1 +- delta
        out.append(PuiseuxSeries(Nome.K, f, hyp.coeffs))
    return tuple(out)


def rank2_coeff(f1, f2):
    """Structure constant of the rank-2 weight-zero equation D^2 F +
    a E_4 F = 0: the indicial polynomial is x^2 - x/6 + a with roots f1,
    f2 (sum 1/6), so a = f1 f2.  The rank-2 rule as first written, the
    oracle of :func:`vvmf.mlde.cyclic_coeffs` at rank two."""
    return f1 * f2


def rank4_cyclic_coeffs(f) -> tuple:
    """(a, b, c) of D^4 F + a E_4 D^2 F + b E_6 D F + c E_4^2 F = 0 for four
    shifted exponents summing to 1: a = sigma_2 - 11/36, b = -sigma_3 +
    a/6 + 1/36, c = sigma_4.  The rank-4 rule as first written, the oracle
    of :func:`vvmf.mlde.cyclic_coeffs` at rank four."""
    _, _, s2, s3, s4 = elementary_symmetric(tuple(f), 4)
    a = s2 - Fraction(11, 36)
    b = -s3 + a / 6 + Fraction(1, 36)
    return a, b, s4


def build_fuchsian_z(u, xi=XI) -> FuchsianOperator:
    """Second-order equation on the Z-line satisfied by the weight-zero
    transported minimal pair, cleared by 81(1-Z)^2; the local exponents at
    Z = 0 are the square roots of -16 e^{2 pi i/6} u.

    The u-independent part of the zeroth-order coefficient is
    (18 Z^2 - 27 Z)/(81 (1-Z)^2), re-derived from the defining derivative
    relation of the pair: it gives local exponents +-1/3 at Z = 1 and
    (1/3, 2/3) at infinity, as the order-three elliptic points require.
    """
    p0 = (1296 * xi * u, 0, 81)
    p1 = (-(1296 * xi * u + 27), -81, -162)
    p2 = (18, 81, 81)
    return FuchsianOperator((p0, p1, p2), Nome.Z)


def u_from_local_exponent(r, xi=XI):
    """Invert the indicial relation r^2 = -16 e^{2 pi i/6} u."""
    return -(r * r) / (16 * xi)


# ---------------------------------------------------------------------------
# one q-line step
# ---------------------------------------------------------------------------

def left_solve(m, p: int) -> list:
    """Row x with x a = rhs in integers, a at the scale 2^-p, rhs and x at
    one common scale: the elimination of one exponent in one step of
    :func:`vvmf.mlde.qline_solve`, written as a loop (the library runs it as
    generated straight-line code, :func:`vvmf.mlde._step_source`).  m holds
    the rows of a's transpose, row j followed by rhs_j, and is eliminated in
    place: partial pivoting on the first largest |entry| of a column, each
    multiplier held at 2^-p, every quotient and shift a floor.  Entries are
    found and updated by index, with no list or slice per column.  A
    singular matrix raises ZeroDivisionError in the back substitution."""
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


def sliced_left_solve(m, p: int) -> list:
    """:func:`left_solve` as first written: the same pivots (the
    first largest |entry| of a column), floored multipliers at 2^-p and
    back substitution, each pivot found in a list of the column's sizes
    and each row updated through slices of itself and of the pivot row.
    Eliminates m in place."""
    r = len(m)
    for col in range(r - 1):
        sizes = [abs(row[col]) for row in m[col:]]
        piv = col + sizes.index(max(sizes))
        m[col], m[piv] = m[piv], m[col]
        d, tail = m[col][col], m[col][col + 1:]
        for row in m[col + 1:]:
            if row[col]:
                f = (row[col] << p) // d
                row[col + 1:] = [u - (f * w >> p) for u, w in zip(row[col + 1:], tail)]
    x = [0] * r
    for i in reversed(range(r)):
        row = m[i]
        rest = row[r]
        for j in range(i + 1, r):
            rest -= row[j] * x[j] >> p
        x[i] = (rest << p) // row[i]
    return x


# ---------------------------------------------------------------------------
# the paper's closed tensor basis
# ---------------------------------------------------------------------------

def _fixed_sum(x: FixedSeries, y: FixedSeries, sign: int = 1) -> FixedSeries:
    """x + sign * y, exact at their common scale."""
    if x.bits != y.bits:
        raise ValueError(f"fixed-point scales differ: 2^-{x.bits} and 2^-{y.bits}")
    return FixedSeries(x.re + y.re.scale(sign), x.im + y.im.scale(sign), x.bits)


def _fixed_scale(x: FixedSeries, z, bits: int) -> FixedSeries:
    """Product with the scalar z rounded to the scale 2^-bits
    (:func:`vvmf.series.to_fixed`), exact from there, at the sum of the
    scales."""
    u, v = to_fixed(z, bits)
    return FixedSeries(x.re.scale(u) - x.im.scale(v), x.re.scale(v) + x.im.scale(u),
                       x.bits + bits)


def kronecker_tensor_basis(alpha: Rank2Rep, beta: Rank2Rep, L1: ExponentData,
                           L2: ExponentData, order: int, catalog) -> tuple[VectorSeries, ...]:
    """The paper's closed noncyclic basis for alpha (x) beta from the rank-2
    rows (A, DA) and (B, DB), where D(DA) = -a_alpha E_4 A and
    D(DB) = -a_beta E_4 B.  In Kronecker order F = A (x) B,
    DF = DA (x) B + A (x) DB, G = (DA (x) B - A (x) DB) / (a_beta - a_alpha)
    (so DG = E_4 F) and H = D^2F - a E_4 F = 2 DA (x) DB, the noncyclic
    equation having a = -(a_alpha + a_beta) and c = -(a_alpha - a_beta)^2.
    Each is formed exactly in fixed point from the rank-2 q-line rows and
    rounded once, at weights k1, k1 + 2, k1 + 2, k1 + 4 with k1 the sum of
    the factors' minimal weights.  The products cancel heavily at high
    order (tensor_grid member 5 loses about 4 decades per 100 orders), so
    this is a reference at low order only."""
    ka, kb = _rank2_weight(alpha, L1), _rank2_weight(beta, L2)
    k1 = ka + kb
    with qline_precision():
        alpha_co, _, alpha_rows = _solved_rows((ka, ka + 2), L1.eigenvalues, CYCLIC, order,
                                               catalog)
        beta_co, _, beta_rows = _solved_rows((kb, kb + 2), L2.eigenvalues, CYCLIC, order,
                                             catalog)
        (A, dA), (B, dB) = zip(*alpha_rows), zip(*beta_rows)
        a_alpha, a_beta = alpha_co.a, beta_co.a

        def kron(a, b):
            return [x * y for x in a for y in b]

        dA_B, A_dB = kron(dA, B), kron(A, dB)
        return (
            _downcast(kron(A, B), k1),
            _downcast([_fixed_sum(x, y) for x, y in zip(dA_B, A_dB)], k1 + 2),
            _downcast([_fixed_scale(_fixed_sum(x, y, -1), 1 / (a_beta - a_alpha),
                                    mpmath.mp.prec) for x, y in zip(dA_B, A_dB)], k1 + 2),
            _downcast([_fixed_sum(x, x) for x in kron(dA, dB)], k1 + 4),
        )


# ---------------------------------------------------------------------------
# the double check, component by component
# ---------------------------------------------------------------------------

def component_derivative(s: PuiseuxSeries, k, catalog) -> PuiseuxSeries:
    """theta_q s - (k/12) E_2 s in the arithmetic of the series' own
    coefficients: the reference :class:`vvmf.series.FormStack` keeps every
    byte of (E_2 first in the product, the double k/12, and half of the
    q2-Euler operator in the nome q2)."""
    theta = s.theta() if s.nome is Nome.Q else s.theta().scale(0.5)
    return theta - (catalog.e2_for(s.nome) * s).scale(Fraction(k) / 12)


def oracle_derivative(F: VectorSeries, catalog) -> VectorSeries:
    """The modular derivative of a vector form at its weight, component by
    component (:func:`component_derivative`)."""
    return VectorSeries(tuple(component_derivative(c, F.weight, catalog) for c in F.components),
                        F.weight + 2)


def _vector_max_abs(components) -> float:
    sizes = [c.max_abs() for c in components]
    return math.nan if any(map(math.isnan, sizes)) else max(sizes)


def oracle_residuals(forms, derivatives, system, columns=None) -> list[float]:
    """The column relations of D X = X M on vector forms, component by
    component in series arithmetic: D X_j - sum (X_i e) v, each part the
    component first times the series, then scaled by the constant rounded
    to complex, a unit series taking no product; each difference
    ``PuiseuxSeries.__sub__``, which aligns a series that leads at x^s.
    The reference :func:`vvmf.mlde.system_residuals` keeps every byte of."""
    system = [({ij: as_complex(v) if isinstance(v, (mpmath.mpf, mpmath.mpc)) else v
                for ij, v in S.items()}, e) for S, e in system]
    out = []
    for j in range(len(derivatives)) if columns is None else columns:
        lhs = derivatives[j].components
        parts = [
            [c.scale(v) if _is_unit(e) else (c * e).scale(v) for c in forms[i].components]
            for S, e in system for (i, col), v in S.items() if col == j
        ]
        residual = lhs
        for part in parts:
            residual = [a - b for a, b in zip(residual, part, strict=True)]
        out.append(residual_ratio(_vector_max_abs(residual),
                                  [_vector_max_abs(lhs)] + [_vector_max_abs(p) for p in parts]))
    return out


def _is_unit(e: PuiseuxSeries) -> bool:
    return e.lead_exponent == 0 and e.coeffs[0] == 1 and not any(e.coeffs[1:])


# ---------------------------------------------------------------------------
# representation matrices from the normal-form parameters
# ---------------------------------------------------------------------------

def tuba_wenzl_matrices(rep: Rank4Rep) -> tuple[np.ndarray, np.ndarray]:
    """The displayed normal-form matrices rho(T), rho(B) of a rank-4 rep,
    with S = B^{-1} T^{-1} B^{-1}."""
    x, y, z, w = rep.x, rep.y, rep.z, rep.w
    D = XI**rep.d / (x * w)
    Di = 1 / D
    T = np.array(
        [
            [x, (1 + Di + Di**2) * y, (1 + Di + Di**2) * z, w],
            [0, y, (1 + Di) * z, w],
            [0, 0, z, w],
            [0, 0, 0, w],
        ],
        dtype=complex,
    )
    B = np.array(
        [
            [w, 0, 0, 0],
            [-z, z, 0, 0],
            [D * y, -(D + 1) * y, y, 0],
            [-(D**3) * x, (D**3 + D**2 + D) * x, -(D**2 + D + 1) * x, x],
        ],
        dtype=complex,
    )
    return T, B


def trace_residuals(rep: Rank4Rep) -> dict[str, float]:
    """Deviations from Tr(S) = 0, Tr(R) = -xi^{-d} and rho(-I) = (-1)^e."""
    T, B = tuba_wenzl_matrices(rep)
    Binv = np.linalg.inv(B)
    S = Binv @ np.linalg.inv(T) @ Binv
    R = S @ T
    minus_id = S @ S
    return {
        "trace_S": abs(np.trace(S)),
        "trace_R": abs(np.trace(R) + XI ** (-rep.d)),
        "minus_identity": float(
            np.max(np.abs(minus_id - ((-1) ** rep.e) * np.eye(4)))
        ),
    }


def d_invariant(rep: Rank4Rep) -> int:
    """The sign invariant d of the normal form, re-validated against xyzw."""
    prod = rep.x * rep.y * rep.z * rep.w
    if abs(prod - ZETA3**rep.d) > 1e-8:
        raise InconsistentRep(f"xyzw = {prod} inconsistent with d = {rep.d}")
    return rep.d


def r0_matrix(rep: GRank2Rep) -> np.ndarray:
    s = (-1) ** rep.e
    return s * np.array([[rep.zeta1, 0], [0, rep.zeta2]], dtype=complex)


def r1_matrix(rep: GRank2Rep) -> np.ndarray:
    s = (-1) ** rep.e
    a, z3 = rep.a, rep.zeta3
    return s * np.array(
        [[a, 1], [-(a**2) - z3 * a - z3**2, -z3 - a]], dtype=complex
    )


def t2_matrix(rep: GRank2Rep) -> np.ndarray:
    """rho(T^2); T^2 = -R1 R0 in the subgroup."""
    return ((-1) ** rep.e) * (r1_matrix(rep) @ r0_matrix(rep))


def match_multisets(left, right, tol: float = 1e-8) -> bool:
    """Greedy matching of two complex multisets within tol."""
    if len(left) != len(right):
        return False
    pool = list(right)
    for a in left:
        hit = min(range(len(pool)), key=lambda i: abs(pool[i] - a), default=None)
        if hit is None or abs(pool[hit] - a) > tol:
            return False
        pool.pop(hit)
    return True
