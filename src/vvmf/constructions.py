"""End-to-end construction pipelines: rank-2 minimal forms, tensor-product
and symmetric-cube bases of rank four, and induction from the index-two
subgroup.

The rank-2 minimal form solves the cyclic equation of rank two on the
q-line at the job's own exponents, through the generic cyclic route's
shift, coefficient, system and seed rules (:func:`vvmf.mlde._solved_rows`
at weights k1, k1 + 2).  The Sym^3 pipeline forms the cube exactly on its
fixed-point rows, rounds once and hands it to the cyclic basis assembler;
the tensor pipeline solves its noncyclic rank-4 system on the q-line with
the generic route's code, seeded so that its rows are the paper's closed
Kronecker basis.  The induction pair solves its defining first-order
system on the q2-line; each form of the pair is stacked over its
T^{-1}-slash, and like the other routes the induced representation is
classified by :func:`vvmf.mlde.classify` before its basis is assembled.
Every defining differential relation is re-checked on the emitted series,
by :func:`vvmf.mlde.solved_forms` for every solved system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .classical import ClassicalCatalog
from .errors import (
    GroupMismatch,
    NormalizationError,
    NotIrreducible,
    Resonance,
    WrongNome,
    WrongRank,
)
from .mlde import (
    CYCLIC,
    NONCYCLIC,
    FormBasis,
    _downcast,
    _recursive_stage,
    _solved_rows,
    assemble_cyclic_basis,
    classify,
    cyclic_coeffs,
    indicial_shifts,
    modular_derivative,
    qline_precision,
    qline_solve,
    require_int,
    solved_forms,
)
from .reps import (
    XI,
    ExponentData,
    GRank2Rep,
    Group,
    Rank2Rep,
    induced_exponents,
    induction_is_irreducible,
    rank2_is_irreducible,
    rank4_from_induction,
    rank4_from_sym3,
    rank4_from_tensor,
    sym3_exponents,
    sym3_is_irreducible,
    tensor_exponents,
    tensor_is_irreducible,
)
from .series import (
    FixedSeries,
    FormStack,
    Nome,
    PuiseuxSeries,
    VectorSeries,
    cexp,
    clog,
    compose_frobenius,  # noqa: F401  (a binding site perfbench's tracer test patches)
    cpow,
    pair_mul,
)

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
    ``residuals`` holds the column relations of the solved rank-2 cyclic
    system (:func:`vvmf.mlde.cyclic_system`) as ``rank2_mlde``; the Jordan
    family has none.
    """

    k1: int
    source: str
    components: VectorSeries | None
    residuals: dict
    eta_component: PuiseuxSeries | None = None


def _rank2_weight(rep: Rank2Rep, L: ExponentData) -> int:
    """Validate a rank-2 input and return its minimal weight 6 Tr(L) - 1."""
    if not rank2_is_irreducible(rep):
        raise NotIrreducible("rank-2 minimal forms require an irreducible representation")
    if L.group is not Group.GAMMA:
        raise GroupMismatch("rank-2 minimal forms use exponents for the full group")
    if L.rank != 2:
        raise WrongRank(f"need 2 exponent eigenvalues, got {L.rank}")
    k1 = require_int(6 * L.trace - 1, "6*Tr(L)-1")
    L.validate_against([rep.x] if rep.jordan else rep.t_eigenvalues())
    return k1


def rank2_minimal(
    rep: Rank2Rep,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
) -> Rank2MinimalForm:
    """Minimal-weight form at k1 = 6 Tr(L) - 1.

    T-regular representations get the solution of D^2 F + a E_4 F = 0 on
    the q-line, solved for (F, DF) at weights (k1, k1 + 2) by the generic
    cyclic route's code (:func:`vvmf.mlde._solved_rows`) at the job's own
    exponents: a = f_1 f_2 of the shifted exponents
    f_j = (1 +- 6 (r_1 - r_2))/12, and F_j leads with 1728^{f_j}
    (:func:`vvmf.mlde.cyclic_seed` at rank two), the leading coefficient of
    the closed form eta^{2 k1} K^{f_j} 2F1(...)(K).  That closed
    hypergeometric form in K is the route's test oracle.  An integer gap
    r_1 - r_2 raises Resonance in the solve.  The Jordan family has first
    coordinate tau * eta^{2k1+2}, which is not a q-series; only the second
    coordinate is emitted, flagged by ``source``.
    """
    k1 = _rank2_weight(rep, L)
    if rep.jordan:
        return Rank2MinimalForm(
            k1,
            NU_CHI,
            components=None,
            residuals={},
            eta_component=catalog.eta_power(2 * k1 + 2),
        )
    _, system, rows = _solved_rows((k1, k1 + 2), L.eigenvalues, CYCLIC, order, catalog)
    forms, _, _, res = solved_forms(rows, (k1, k1 + 2), system, catalog)
    return Rank2MinimalForm(k1, HYPERGEOMETRIC, forms[0], {"rank2_mlde": max(res)})


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
    """Noncyclic rank-4 basis (F, DF, G, H) for alpha (x) beta, solved on the
    q-line at the four exponents of :func:`vvmf.reps.tensor_exponents` in one
    call, as the generic route solves a noncyclic system.

    F_j leads with 1728^{f_j}, the product of the rank-2 factors' leading
    coefficients, so at a non-resonant exponent the rows are the paper's
    closed basis in Kronecker order: F = A (x) B, DF = DA (x) B + A (x) DB,
    G = (DA (x) B - A (x) DB) / (a_beta - a_alpha) and H = 2 DA (x) DB, the
    equation having a = -(a_alpha + a_beta) and c = -(a_alpha - a_beta)^2.
    That closed basis is the route's test oracle.  Equal factor gaps make c
    vanish: DegenerateC.  Records the column relations of
    :func:`vvmf.mlde.noncyclic_system`.
    """
    if not tensor_is_irreducible(alpha, beta):
        raise NotIrreducible("tensor product representation is reducible")
    if not (alpha.t_regular and beta.t_regular):
        raise Resonance(
            "series output for the Jordan family is out of scope; both factors "
            "must be T-regular"
        )
    _rank2_weight(alpha, L1)
    _rank2_weight(beta, L2)
    L12 = tensor_exponents(L1, L2)
    rep4 = rank4_from_tensor(alpha, beta)
    report = classify(rep4, L12)
    if report.case != NONCYCLIC:
        raise NotIrreducible("tensor products always land in the noncyclic case")
    return _recursive_stage(report, L12, order, catalog, kronecker_unit=True)[1]


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
        raise Resonance("series output for the Jordan family is out of scope")
    k1 = _rank2_weight(alpha, L)
    S3L = sym3_exponents(L)
    rep4 = rank4_from_sym3(alpha)
    report = classify(rep4, S3L)
    if report.case != CYCLIC:
        raise NotIrreducible("symmetric cubes always land in the cyclic case")
    co = cyclic_coeffs(indicial_shifts(S3L.eigenvalues, CYCLIC))

    _, _, rows = _solved_rows((k1, k1 + 2), L.eigenvalues, CYCLIC, order, catalog)
    with qline_precision():  # the cube sums the rows' mpc leading exponents
        F = _downcast(_cube(*(row[0] for row in rows)), report.k1)
    return assemble_cyclic_basis(F, co, catalog, report)


def _cube(f: FixedSeries, g: FixedSeries) -> tuple[FixedSeries, ...]:
    """(f^3, f^2 g, f g^2, g^3), exact in fixed point, forming each square
    once.  (f, g) goes against f^2 and against g^2 as one pair each
    (:func:`vvmf.series.pair_mul`), so real rows take four convolutions
    instead of six.  The mantissas are exact, and each leading exponent is
    the plain product's sum of the same two terms, so the rounded doubles
    do not change; re-associating a cube, as (f g) g, would change the sum
    of three leading exponents in its last bit."""
    f2, g2 = f * f, g * g
    f3, f2_g = pair_mul(f, g, f2)
    f_g2, g3 = pair_mul(f, g, g2)
    return (f3, f2_g, f_g2, g3)


# ---------------------------------------------------------------------------
# induction from the index-two subgroup
# ---------------------------------------------------------------------------

def local_exponent_from_u(u, xi=XI):
    """Principal square root of -16 e^{2 pi i/6} u."""
    return cexp(0.5 * clog(-16 * xi * u))


@dataclass(frozen=True)
class InductionJob:
    """Induction input: a normalized orbit representative, exponents for the
    subgroup and the family parameter u of the Z-line equation.

    Checked at construction, in this order: the orbit leads with its
    restricting member (NormalizationError; at most one member of a
    beta-twist orbit restricts, since for a restricting rho the twist by
    omega sums to zeta3 omega (omega - 1), which is 0 only for omega = 1),
    both nontrivial twists induce irreducibly (NotIrreducible), L is for
    the subgroup (GroupMismatch) and holds 2 eigenvalues (WrongRank), and
    u != 0 (Resonance: u = 0 makes the local exponents collide).  u is
    stored as a builtin complex, and the minimal weight k1 is derived:
    3 Tr(L) or 3 Tr(L) + 1, whichever has the parity e of the
    representation, so that the induced bases are cyclic."""

    rep: GRank2Rep
    L: ExponentData
    u: complex
    k1: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.rep.restricts_from_gamma:
            raise NormalizationError(
                "orbit must be presented with the restricting member first "
                "(zeta1 + zeta2 + zeta3 = 0)"
            )
        for j in (1, 2):
            if not induction_is_irreducible(self.rep.twist(j)):
                raise NotIrreducible(f"induction of the beta^{j} twist is reducible")
        if self.L.group is not Group.G:
            raise GroupMismatch("induction starts from exponents for the subgroup")
        if self.L.rank != 2:
            raise WrongRank(f"need 2 exponent eigenvalues, got {self.L.rank}")
        u = complex(self.u)
        if abs(u) <= 1e-14:
            raise Resonance("u = 0 makes the local exponents collide")
        object.__setattr__(self, "u", u)
        t3 = require_int(3 * self.L.trace, "3*Tr(L)")
        object.__setattr__(self, "k1", t3 + (t3 - self.rep.e) % 2)


def induction_minimal_pair(
    job: InductionJob, order: int, catalog: ClassicalCatalog
) -> tuple[VectorSeries, VectorSeries]:
    """Minimal-weight pair (A, B) for the beta- and beta^2-twists: the
    rows of :func:`_induction_stage`, rounded once."""
    rows, _ = _induction_stage(job, order, catalog)
    return tuple(_downcast((row[i] for row in rows), job.k1) for i in range(2))


def _induction_stage(job: InductionJob, order: int, catalog: ClassicalCatalog):
    """The q2-line rows of the pair (A, B), one (A_j, B_j) per exponent, in
    fixed point, and the system they solve.

    Solves the defining relation :func:`induction_system`, built once in a
    :func:`qline_precision` block, on the q2-line at both exponents
    k1/6 +- r in one call (:func:`qline_solve`, which rejects an integer
    2r).  A leads with (-2i 12^{3/2})^{+-r}, the leading coefficient of
    Z^{+-r}, as in the Z-line form eta^{2k1} (g/f) Z^{+-r} (1 + ...) the
    pair transports; B's leading coefficient follows from the relation.
    """
    n2 = min(2 * order, catalog.q2_order)
    k1 = job.k1
    with qline_precision():
        xi = mpmath.expjpi(mpmath.mpf(1) / 3)
        u = mpmath.mpc(job.u)
        r = local_exponent_from_u(u, xi)
        z_lead = mpmath.mpc(0, -2) * mpmath.sqrt(1728)
        exponents = (r, -r)
        seeds = []
        for exponent in exponents:
            a0 = cpow(z_lead, exponent)
            # D A = g B at the leading q2-power: (exponent / 2) a0 = g_0 b0, g_0 = -2 xi^5
            seeds.append((a0, a0 * exponent / (-4 * xi**5)))
        system = induction_system(u, xi, catalog)
        rows = qline_solve((k1, k1), system,
                           [Fraction(k1, 6) + e for e in exponents], seeds, n2, catalog)
    return rows, system


def induction_system(u, xi, catalog: ClassicalCatalog) -> list:
    """D X = X M for the pair X = (A, B) on the q2-line, M = (0, u f; g, 0):
    DA = g B and DB = u f A, in the theta form of f and g (format of
    :func:`vvmf.mlde.cyclic_system`).  f = (1 + xi) theta2^4 -
    xi^5 (theta3^4 + theta4^4); g = f|T flips the odd q2-powers, which are
    those of theta2^4."""
    theta2, theta3, theta4 = catalog.theta_fourth_powers()
    return [
        ({(0, 1): u * (1 + xi), (1, 0): -(1 + xi)}, theta2),
        ({(0, 1): -u * xi**5, (1, 0): -(xi**5)}, theta3 + theta4),
    ]


def exhibited_exponents(F: VectorSeries) -> ExponentData:
    """Exponent data of the solved series: the declared leading exponent of
    each component.  The q-line seeds are nonzero by construction, so the
    declared exponents are the true ones; a window relative to the largest
    coefficient would move them by an integer once the coefficients grow."""
    return ExponentData(tuple(c.lead_exponent for c in F.components), Group.G)


def induce_to_gamma(F: VectorSeries) -> VectorSeries:
    """Stack F over F|T^{-1}, doubling the rank; the result transforms under
    the induced representation of the full group with exponents
    Ind L = :func:`vvmf.reps.induced_exponents` of the exponents F exhibits.

    F|T^{-1} multiplies the n-th coefficient of a component with declared
    exponent lam by e^{-pi i lam} (-1)^n, so F +- e^{pi i lam} F|T^{-1}
    keep only the even (odd) q2-offsets by algebra alone; nothing re-checks
    it."""
    if F.nome is not Nome.Q2:
        raise WrongNome("induction to the full group acts on q2-expansions")
    slashed = tuple(c.slash_t_inverse() for c in F.components)
    return VectorSeries(F.components + slashed, F.weight)


def induction_pipeline(
    job: InductionJob, order: int, catalog: ClassicalCatalog
) -> tuple[FormBasis, FormBasis]:
    """Full induction route: solve for the minimal pair and verify its
    defining relation; then, for the form of each beta-twist, induce it to
    the full group, classify the induced representation
    (:func:`vvmf.reps.rank4_from_induction`) at the induced exponents the
    pair exhibits, taken once (A and B declare the same ones), and assemble
    the cyclic basis.  k1/6 +- r induce
    3 Tr(Ind L) = k1 + 3, of the other parity than k1 = e mod 2, so the
    report is cyclic with the job's k1."""
    rows, system = _induction_stage(job, order, catalog)
    (A, B), pair, d_pair, res = solved_forms(rows, (job.k1, job.k1), system, catalog)
    pair_res = max(res)
    ind_L = induced_exponents(exhibited_exponents(A))
    co = cyclic_coeffs(indicial_shifts(ind_L.eigenvalues, CYCLIC))
    out = []
    for j, F in ((1, A), (2, B)):
        report = classify(rank4_from_induction(job.rep.twist(j)), ind_L)
        G = induce_to_gamma(F)
        # D G is D F, taken for the pair check, over D of F|T^{-1}
        slashed = FormStack.of([VectorSeries(G.components[F.rank:], G.weight)])
        X = FormStack.join((pair.form(j - 1), slashed), 1)
        DX = FormStack.join((d_pair.form(j - 1), modular_derivative(slashed, catalog)), 1)
        basis = assemble_cyclic_basis(G, co, catalog, report, (X, DX))
        out.append(FormBasis(basis.forms, report, {**basis.residuals, "pair_relation": pair_res}))
    return tuple(out)
