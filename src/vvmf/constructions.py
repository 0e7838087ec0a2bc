"""End-to-end construction pipelines: rank-2 minimal forms, tensor-product
and symmetric-cube bases of rank four, and induction from the index-two
subgroup.

The rank-2 minimal form solves its first-order system on the q-line; the
tensor and Sym^3 pipelines form their Kronecker product or cube exactly on
its fixed-point rows, round once, and hand the minimal form to the basis
assemblers.
The induction pair solves its defining first-order system on the q2-line.
Every defining differential relation is re-checked on the emitted series.
The closed hypergeometric pair on the K-line (:func:`rank2_kline_pair`) and
the Z-line equation (:func:`build_fuchsian_z`) are the oracles the tests
compare against.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .classical import ClassicalCatalog
from .errors import (
    DegenerateU,
    ExponentMismatch,
    GroupMismatch,
    NormalizationError,
    NotIrreducible,
    Resonance,
    ResonantExponents,
    ReducibleRep,
    WrongNome,
    WrongRank,
)
from .mlde import (
    CYCLIC,
    NONCYCLIC,
    CaseReport,
    FormBasis,
    FuchsianOperator,
    assemble_cyclic_basis,
    assemble_noncyclic_basis,
    classify,
    cyclic_coeffs,
    hypergeom_2f1,
    indicial_shifts,
    modular_derivative,
    nearest_int,
    noncyclic_coeffs,
    qline_precision,
    qline_solve,
    rank2_coeff,
    require_int,
)
from .reps import (
    ExponentData,
    GRank2Rep,
    Group,
    Rank2Rep,
    beta_twist_orbit,
    induced_exponents,
    induction_is_irreducible,
    rank2_is_irreducible,
    rank4_from_sym3,
    rank4_from_tensor,
    sym3_exponents,
    sym3_is_irreducible,
    tensor_exponents,
    tensor_is_irreducible,
)
from .series import (
    FixedSeries,
    Nome,
    PuiseuxSeries,
    VectorSeries,
    as_complex,
    cexp,
    clog,
    compose_frobenius,  # noqa: F401  (a binding site perfbench's tracer test patches)
    cpow,
    even_odd_parts,
    relative_residual,
)

XI = cmath.exp(2j * cmath.pi / 6)

HYPERGEOMETRIC = "hypergeometric"
NU_CHI = "nu-chi"


# ---------------------------------------------------------------------------
# rank 2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rank2MinimalForm:
    """Minimal-weight form for a rank-2 representation.

    In the T-regular case ``components`` holds the q-expansion.  In the
    Jordan (nu_chi) family the first coordinate is tau times an eta power and
    has no q-expansion, so only the eta-power second coordinate is emitted.
    """

    k1: int
    source: str
    components: VectorSeries | None
    eta_component: PuiseuxSeries | None = None


def _rank2_shifts(L: ExponentData) -> tuple:
    """Shifted exponents f = (1 +- 6 delta)/12, delta = r1 - r2, of the
    weight-zero frame, as mpmath numbers at the ambient working precision,
    where their sum is exactly 1/6."""
    r1, r2 = L.eigenvalues
    delta = r1 - r2
    if nearest_int(delta) is not None:
        raise ResonantExponents(
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


def _rank2_weight(rep: Rank2Rep, L: ExponentData) -> int:
    """Validate a rank-2 input and return its minimal weight 6 Tr(L) - 1."""
    if not rank2_is_irreducible(rep):
        raise ReducibleRep("rank-2 minimal forms require an irreducible representation")
    if L.group is not Group.GAMMA:
        raise GroupMismatch("rank-2 minimal forms use exponents for the full group")
    if L.rank != 2:
        raise WrongRank(f"need 2 exponent eigenvalues, got {L.rank}")
    k1 = require_int(6 * L.trace - 1, "6*Tr(L)-1")
    L.validate_against([rep.x] if rep.jordan else rep.t_eigenvalues())
    return k1


def _rank2_stage(
    L: ExponentData, k1: int, order: int, catalog: ClassicalCatalog
) -> tuple[tuple[FixedSeries, ...], tuple[FixedSeries, ...]]:
    """The components of the minimal form F and of DF, solved on the q-line
    as X = (F, DF) with D(DF) = -a E_4 F, a = f_1 f_2 (:func:`qline_solve`),
    from seeds at the working precision of the enclosing
    :func:`qline_precision` block.  The rows stay in fixed point, for the
    caller's exact products.

    F_j leads with 1728^{f_j}, the leading coefficient of the closed form
    eta^{2 k1} K^{f_j} 2F1(...)(K) (:func:`rank2_kline_pair`)."""
    fs = _rank2_shifts(L)
    system = [
        ({(1, 0): 1}, PuiseuxSeries.one(Nome.Q, catalog.order)),
        ({(0, 1): -rank2_coeff(*fs)}, catalog.eisenstein(4)),
    ]
    rows = [
        qline_solve((k1, k1 + 2), system, f + Fraction(k1, 12),
                    [mpmath.mpf(1728) ** f * x for x in (1, f)], order, catalog)
        for f in fs
    ]
    F, DF = zip(*rows)
    return F, DF


def rank2_minimal(
    rep: Rank2Rep,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
) -> Rank2MinimalForm:
    """Minimal-weight form at k1 = 6 Tr(L) - 1.

    T-regular representations get the solution of D^2 F + a E_4 F = 0 on
    the q-line; the paper's closed hypergeometric form in K is its test
    oracle.  The Jordan family has first coordinate tau * eta^{2k1+2},
    which is not a q-series; only the second coordinate is emitted, flagged
    by ``source``.
    """
    k1 = _rank2_weight(rep, L)
    if rep.jordan:
        return Rank2MinimalForm(
            k1,
            NU_CHI,
            components=None,
            eta_component=catalog.eta_power(2 * k1 + 2),
        )
    with qline_precision():
        F = _rank2_stage(L, k1, order, catalog)[0]
    return Rank2MinimalForm(k1, HYPERGEOMETRIC, _downcast(F, k1))


def _downcast(comps, weight) -> VectorSeries:
    """The vector form of fixed-point components, each rounded to double once."""
    return VectorSeries(tuple(c.downcast() for c in comps), weight)


def _kronecker(a, b) -> tuple[FixedSeries, ...]:
    """Components a_i b_j of the Kronecker product, exact in fixed point."""
    return tuple(ca * cb for ca in a for cb in b)


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def tensor_pipeline(
    alpha: Rank2Rep,
    beta: Rank2Rep,
    L1: ExponentData,
    L2: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
) -> FormBasis:
    """Noncyclic rank-4 basis for alpha (x) beta from the Kronecker product of
    the two rank-2 minimal forms.

    Records the product rule for DF, the four column relations of the
    derivative matrix, and the exponent floor of G.
    """
    if not tensor_is_irreducible(alpha, beta):
        raise NotIrreducible("tensor product representation is reducible")
    if not (alpha.t_regular and beta.t_regular):
        raise ResonantExponents(
            "series output for the Jordan family is out of scope; both factors "
            "must be T-regular"
        )
    ka = _rank2_weight(alpha, L1)
    kb = _rank2_weight(beta, L2)
    L12 = tensor_exponents(L1, L2)
    rep4 = rank4_from_tensor(alpha, beta)
    report = classify(rep4, L12)
    if report.case != NONCYCLIC:
        raise NotIrreducible("tensor products always land in the noncyclic case")

    with qline_precision():
        A, dA = _rank2_stage(L1, ka, order, catalog)
        B, dB = _rank2_stage(L2, kb, order, catalog)
        F = _downcast(_kronecker(A, B), report.k1)
        leibniz = [x + y for x, y in zip(_kronecker(dA, B), _kronecker(A, dB))]
        leibniz = _downcast(leibniz, report.k1 + 2)
    co = noncyclic_coeffs(indicial_shifts(L12.eigenvalues, NONCYCLIC))
    basis = assemble_noncyclic_basis(F, co, catalog, report)
    res = dict(basis.residuals)
    res["tensor_product_rule"] = relative_residual(basis.forms[1] - leibniz, leibniz)
    res["g_exponent_drop"] = _exponent_drop(basis.forms[2], L12.eigenvalues)
    return FormBasis(basis.forms, report, res)


def _exponent_drop(G: VectorSeries, expected_leads) -> float:
    """How far any component of G starts below its expected leading exponent
    (zero when the expansion is holomorphic relative to the exponents)."""
    worst = 0.0
    for comp, expect in zip(G.components, expected_leads, strict=True):
        eff = comp.effective_lead_exponent()
        if eff is None:
            continue
        worst = max(worst, as_complex(expect).real - as_complex(eff).real)
    return worst


# ---------------------------------------------------------------------------
# symmetric cubes
# ---------------------------------------------------------------------------

def sym3_pipeline(
    alpha: Rank2Rep,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
) -> FormBasis:
    """Cyclic rank-4 basis for Sym^3(alpha) from the cube of the rank-2
    minimal form: F = (f^3, f^2 g, f g^2, g^3) at weight 3 k1."""
    if not sym3_is_irreducible(alpha):
        raise NotIrreducible("symmetric cube representation is reducible")
    if not alpha.t_regular:
        raise ResonantExponents(
            "series output for the Jordan family is out of scope"
        )
    k1 = _rank2_weight(alpha, L)
    S3L = sym3_exponents(L)
    rep4 = rank4_from_sym3(alpha)
    report = classify(rep4, S3L)
    if report.case != CYCLIC:
        raise NotIrreducible("symmetric cubes always land in the cyclic case")
    co = cyclic_coeffs(indicial_shifts(S3L.eigenvalues, CYCLIC))

    with qline_precision():
        F = _downcast(_cube(*_rank2_stage(L, k1, order, catalog)[0]), report.k1)
    return assemble_cyclic_basis(F, co, catalog, report)


def _cube(f: FixedSeries, g: FixedSeries) -> tuple[FixedSeries, ...]:
    """(f^3, f^2 g, f g^2, g^3), exact in fixed point, forming each square
    once."""
    f2, g2 = f * f, g * g
    return (f2 * f, f2 * g, f * g2, g2 * g)


# ---------------------------------------------------------------------------
# induction from the index-two subgroup
# ---------------------------------------------------------------------------

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


def local_exponent_from_u(u, xi=XI):
    """Principal square root of -16 e^{2 pi i/6} u."""
    val = -16 * xi * u
    if abs(as_complex(val)) == 0:
        return 0j
    return cexp(0.5 * clog(val))


@dataclass(frozen=True)
class InductionJob:
    """Induction input: a normalized orbit representative, exponents for the
    subgroup, the family parameter u of the Z-line equation, and the minimal
    weight k1 (3 Tr(L) in the cyclic branch, 3 Tr(L) + 1 otherwise)."""

    rep: GRank2Rep
    L: ExponentData
    u: complex
    k1: int

    @classmethod
    def make(cls, rep: GRank2Rep, L: ExponentData, u, k1: int | None = None) -> "InductionJob":
        if not rep.restricts_from_gamma:
            raise NormalizationError(
                "orbit must be presented with the restricting member first "
                "(zeta1 + zeta2 + zeta3 = 0)"
            )
        restricting = [r for r in beta_twist_orbit(rep) if r.restricts_from_gamma]
        if len(restricting) != 1:
            raise NormalizationError("twist orbit does not have a unique restricting member")
        for j in (1, 2):
            if not induction_is_irreducible(rep.twist(j)):
                raise NotIrreducible(f"induction of the beta^{j} twist is reducible")
        if L.group is not Group.G:
            raise GroupMismatch("induction starts from exponents for the subgroup")
        if abs(as_complex(u)) <= 1e-14:
            raise DegenerateU("u = 0 makes the local exponents collide")
        if k1 is None:
            t3 = require_int(3 * L.trace, "3*Tr(L)")
            # weight parity must match the representation parity: k1 = e mod 2
            k1 = t3 if (t3 - rep.e) % 2 == 0 else t3 + 1
        return cls(rep, L, complex(u), int(k1))


def induction_minimal_pair(
    job: InductionJob, order: int, catalog: ClassicalCatalog
) -> tuple[VectorSeries, VectorSeries]:
    """Minimal-weight pair (A, B) for the two nontrivial beta-twists.

    Solves the defining relation D(A, B) = (A, B) (0, u f; g, 0) on the
    q2-line at the exponents k1/6 +- r (:func:`qline_solve`).  A leads with
    (-2i 12^{3/2})^{+-r}, the leading coefficient of Z^{+-r}, as in the
    Z-line form eta^{2k1} (g/f) Z^{+-r} (1 + ...) the pair transports; B's
    leading coefficient follows from the relation.
    """
    r = local_exponent_from_u(job.u, catalog.xi)
    if abs(as_complex(r)) <= 1e-12:
        raise DegenerateU("u = 0 makes the local exponents collide")
    two_r = nearest_int(2 * r)
    if two_r is not None and two_r != 0:
        raise Resonance(f"local exponents +-{r!r} differ by the integer {two_r}")
    n2 = min(2 * order, catalog.q2_order)
    theta2, theta3, theta4 = catalog.theta_fourth_powers()
    k1 = job.k1
    with qline_precision():
        xi = mpmath.expjpi(mpmath.mpf(1) / 3)
        u = mpmath.mpc(job.u)
        r_hp = local_exponent_from_u(u, xi)
        # f = (1 + xi) theta2^4 - xi^5 (theta3^4 + theta4^4); g = f|T flips the
        # odd q2-powers, which are those of theta2^4
        system = [
            ({(0, 1): u * (1 + xi), (1, 0): -(1 + xi)}, theta2),
            ({(0, 1): -u * xi**5, (1, 0): -(xi**5)}, theta3 + theta4),
        ]
        z_lead = mpmath.mpc(0, -2) * mpmath.sqrt(1728)
        rows = []
        for exponent in (r_hp, -r_hp):
            a0 = cpow(z_lead, exponent)
            # D A = g B at the leading q2-power: (exponent / 2) a0 = g_0 b0, g_0 = -2 xi^5
            seed = (a0, a0 * exponent / (-4 * xi**5))
            rows.append(qline_solve((k1, k1), system, Fraction(k1, 6) + exponent, seed, n2, catalog))
    return _downcast((row[0] for row in rows), k1), _downcast((row[1] for row in rows), k1)


def induction_relation_residual(
    A: VectorSeries, B: VectorSeries, u, catalog: ClassicalCatalog
) -> float:
    """Residual of the defining relation D(A, B) = (A, B) (0, u f; g, 0),
    i.e. DA = g B and DB = u f A with D at the pair's weight."""
    f, g = catalog.fg_generators()
    dA = modular_derivative(A, A.weight, catalog)
    dB = modular_derivative(B, B.weight, catalog)
    gB = B.mul_series(g)
    ufA = A.mul_series(f).scale(u)
    return max(
        relative_residual(dA - gB, dA, gB),
        relative_residual(dB - ufA, dB, ufA),
    )


def induce_to_gamma(
    F: VectorSeries, L: ExponentData | None = None, tol: float = 1e-6
) -> VectorSeries:
    """Stack F over F|T^{-1}, doubling the rank; the result transforms under
    the induced representation of the full group with exponents Ind L.

    Verifies that the combinations F +- e^{pi i lam} F|T^{-1} have pure
    integer-spaced q-expansions (even/odd q2-offsets), and, when L is given,
    that the exhibited q-exponent multiset equals the induced exponents."""
    if F.nome is not Nome.Q2:
        raise WrongNome("induction to the full group acts on q2-expansions")
    split = max(even_odd_residual(c) for c in F.components)
    if split > tol:
        raise ExponentMismatch(
            f"even/odd q2-splitting fails at {split:.2e}; the components do "
            "not sit on a single exponent lattice"
        )
    if L is not None:
        got = sorted(induced_exponent_multiset(F), key=lambda z: (z.real, z.imag))
        want = sorted(
            (as_complex(v) for v in induced_exponents(L).eigenvalues),
            key=lambda z: (z.real, z.imag),
        )
        if len(got) != len(want) or any(
            abs(g - w) > tol for g, w in zip(got, want)
        ):
            raise ExponentMismatch(
                f"exhibited q-exponents {got} do not match the induced set {want}"
            )
    slashed = tuple(c.slash_t_inverse() for c in F.components)
    return VectorSeries(F.components + slashed, F.weight)


def even_odd_residual(s: PuiseuxSeries) -> float:
    """How far the even/odd split fails: surviving coefficients must sit on
    one parity of q2-offsets exactly."""
    even, odd = even_odd_parts(s)
    scale = max(1e-300, s.max_abs())
    bad = 0.0
    for n in range(even.order + 1):
        if n % 2 == 1:
            bad = max(bad, abs(even.coeffs[n]))
    for n in range(odd.order + 1):
        if n % 2 == 0:
            bad = max(bad, abs(odd.coeffs[n]))
    return float(bad / scale)


def exhibited_exponents(F: VectorSeries) -> ExponentData:
    """Exponent data read off the solved series: effective leading exponent
    per component (declared lead when the window is numerically zero)."""
    eigs = []
    for c in F.components:
        eff = c.effective_lead_exponent()
        eigs.append(c.lead_exponent if eff is None else eff)
    return ExponentData(tuple(eigs), Group.G)


def induced_exponent_multiset(F: VectorSeries) -> list[complex]:
    """q-exponents exhibited by the induced form: each component splits into
    an even and an odd q2-part, contributing lam/2 and (lam+1)/2."""
    out = []
    for c in F.components:
        even, odd = even_odd_parts(c)
        for part in (even, odd):
            eff = part.effective_lead_exponent()
            if eff is not None:
                out.append(as_complex(eff) / 2)
    return out


def induction_pipeline(
    job: InductionJob, order: int, catalog: ClassicalCatalog
) -> tuple[FormBasis, FormBasis]:
    """Full induction route: solve for the minimal pair, verify its defining
    relation, induce both forms to the full group, classify by the exponents
    the series actually exhibit, and assemble the corresponding bases."""
    A, B = induction_minimal_pair(job, order, catalog)
    pair_res = induction_relation_residual(A, B, job.u, catalog)
    out = []
    for F in (A, B):
        L_g = exhibited_exponents(F)
        ind_L = induced_exponents(L_g)
        stacked = induce_to_gamma(F)
        t3 = require_int(3 * ind_L.trace, "3*Tr(Ind L)")
        d = t3 % 3 if (t3 % 3) % 2 != job.rep.e % 2 else t3 % 3 + 3
        cyclic = (t3 - job.rep.e) % 2 != 0
        k1 = t3 - 3 if cyclic else t3 - 2
        case = CaseReport(
            CYCLIC if cyclic else NONCYCLIC,
            k1,
            (k1, k1 + 2, k1 + 4, k1 + 6) if cyclic else (k1, k1 + 2, k1 + 2, k1 + 4),
            d,
            job.rep.e,
        )
        f_exps = indicial_shifts(ind_L.eigenvalues, case.case)
        co = cyclic_coeffs(f_exps) if cyclic else noncyclic_coeffs(f_exps)
        assemble = assemble_cyclic_basis if cyclic else assemble_noncyclic_basis
        basis = assemble(stacked, co, catalog, case)
        res = dict(basis.residuals)
        res["pair_relation"] = pair_res
        res["even_odd_split"] = max(even_odd_residual(c) for c in F.components)
        out.append(FormBasis(basis.forms, case, res))
    return tuple(out)
