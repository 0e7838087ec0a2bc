"""End-to-end construction pipelines: rank-2 minimal forms, tensor-product
and symmetric-cube bases of rank four, and induction from the index-two
subgroup.

Each is a :class:`vvmf.mlde.Route` of the staged driver
:func:`vvmf.mlde.staged`, which classifies the representation the route
checks and forms its equation coefficients once, and runs every stage in
the job's one working-precision scope; a route supplies only its input
checks, its case and its solve, and opens no scope of its own.  The rank-2
solve is the generic route's at the job's own two exponents, the cyclic
equation of rank two on the q-line (F, DF at weights k1, k1 + 2).  The
Sym^3 solve forms the cube exactly on its fixed-point rows, rounds once
and hands it to the cyclic basis assembler; the tensor solve is the
generic route's noncyclic one, seeded so that its rows are the paper's
closed Kronecker basis.  The induction pair solves its defining
first-order system on the q2-line and is slashed by T^{-1} in the stack it
was checked in; each form, stacked over its slash, is assembled into the
cyclic basis of its twist.  Every defining differential relation is
re-checked on the emitted series, by :func:`vvmf.mlde.solved_forms` for
every solved system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import mpmath

from .classical import ClassicalCatalog
from .errors import (
    GroupMismatch,
    InconsistentRep,
    NormalizationError,
    NotIrreducible,
    Resonance,
    WrongRank,
)
from .mlde import (
    CYCLIC,
    NONCYCLIC,
    FormBasis,
    Route,
    _solved_basis,
    _solved_rows,
    assemble_cyclic_basis,
    equation_coefficients,
    modular_derivative,
    qline_precision,
    qline_solve,
    require_int,
    solved_forms,
    staged,
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
    PuiseuxSeries,
    _limb_cube,
    as_complex,
    cexp,
    clog,
    compose_frobenius,  # noqa: F401  (a binding site perfbench's tracer test patches)
    cpow,
    nearest_int,
)


# ---------------------------------------------------------------------------
# rank 2
# ---------------------------------------------------------------------------

def _rank2_inputs(rep: Rank2Rep, L: ExponentData) -> tuple[Rank2Rep, ExponentData]:
    """Step (a) of the rank-2 route, and of each rank-2 factor of the
    closed routes: rep irreducible, and L two exponents for the full group
    that land in its T-spectrum.  An L whose 6 Tr(L) - 1 is not an integer
    is inconsistent with the determinant of any rank-2 representation:
    InconsistentRep."""
    if not rank2_is_irreducible(rep):
        raise NotIrreducible("a rank-2 representation must be irreducible")
    if L.group is not Group.GAMMA:
        raise GroupMismatch("rank-2 exponents are for the full group")
    if L.rank != 2:
        raise WrongRank(f"need 2 exponent eigenvalues, got {L.rank}")
    if nearest_int(6 * L.trace - 1) is None:
        raise InconsistentRep(f"6*Tr(L)-1 = {6 * L.trace - 1!r} is not an integer")
    L.validate_against([rep.x] if rep.jordan else rep.t_eigenvalues())
    return rep, L


def _rank2_solve(inputs, L: ExponentData, report, co, order: int,
                 catalog: ClassicalCatalog) -> FormBasis:
    """Steps (d)-(f) of the rank-2 route.  A T-regular representation gets
    the solution (F, DF) of D^2 F + a E_4 F = 0 on the q-line at weights
    (k1, k1 + 2), the generic route's solve at the job's own two exponents
    (:func:`vvmf.mlde._solved_basis`): a = f_1 f_2 of the shifted exponents
    f_j = (1 +- 6 (r_1 - r_2))/12, and F_j leads with 1728^{f_j}
    (:func:`vvmf.mlde.cyclic_seed` at rank two), the leading coefficient of
    the closed form eta^{2 k1} K^{f_j} 2F1(...)(K).  That closed
    hypergeometric form in K is the route's test oracle.  An integer gap
    r_1 - r_2 raises Resonance in the solve.  The Jordan family has first
    coordinate tau * eta^{2k1+2}, which is not a q-series; it solves
    nothing and holds the second coordinate (:class:`vvmf.mlde.FormBasis`)."""
    if inputs[0].jordan:
        return FormBasis(None, report, eta_component=catalog.eta_power(2 * report.k1 + 2))
    return _solved_basis(inputs, L, report, co, order, catalog)


#: the rank-2 route: cyclic, F and DF
RANK2_ROUTE = Route(_rank2_inputs, CYCLIC, _rank2_solve)


def rank2_minimal(
    rep: Rank2Rep,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
) -> FormBasis:
    """The rank-2 basis (F, DF) at k1 = 6 Tr(L) - 1 (:func:`vvmf.mlde.staged`
    on :data:`RANK2_ROUTE`); F is the minimal-weight form."""
    return staged(RANK2_ROUTE, (rep, L), order, catalog)[2]


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def _tensor_inputs(alpha: Rank2Rep, beta: Rank2Rep, L1: ExponentData,
                   L2: ExponentData) -> tuple:
    """Step (a) of the tensor route: both factors T-regular, their product
    irreducible and each factor's exponents valid (:func:`_rank2_inputs`);
    returns alpha (x) beta and the exponents of
    :func:`vvmf.reps.tensor_exponents`."""
    if not tensor_is_irreducible(alpha, beta):
        raise NotIrreducible("tensor product representation is reducible")
    if not (alpha.t_regular and beta.t_regular):
        raise Resonance(
            "series output for the Jordan family is out of scope; both factors "
            "must be T-regular"
        )
    _rank2_inputs(alpha, L1)
    _rank2_inputs(beta, L2)
    return rank4_from_tensor(alpha, beta), tensor_exponents(L1, L2)


#: the tensor route: noncyclic, solved as the generic route solves, with
#: the Kronecker seeds
TENSOR_ROUTE = Route(_tensor_inputs, NONCYCLIC, partial(_solved_basis, kronecker_unit=True))


def tensor_pipeline(
    alpha: Rank2Rep,
    beta: Rank2Rep,
    L1: ExponentData,
    L2: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
) -> FormBasis:
    """Noncyclic rank-4 basis (F, DF, G, H) for alpha (x) beta
    (:func:`vvmf.mlde.staged`), solved on the q-line at the four exponents
    of :func:`vvmf.reps.tensor_exponents` in one call, as the generic route
    solves a noncyclic system.

    F_j leads with 1728^{f_j}, the product of the rank-2 factors' leading
    coefficients, so at a non-resonant exponent the rows are the paper's
    closed basis in Kronecker order: F = A (x) B, DF = DA (x) B + A (x) DB,
    G = (DA (x) B - A (x) DB) / (a_beta - a_alpha) and H = 2 DA (x) DB, the
    equation having a = -(a_alpha + a_beta) and c = -(a_alpha - a_beta)^2.
    That closed basis is the route's test oracle.  Equal factor gaps make c
    vanish: DegenerateC.  Records the column relations of
    :func:`vvmf.mlde.noncyclic_system`.
    """
    return staged(TENSOR_ROUTE, (alpha, beta, L1, L2), order, catalog)[2]


# ---------------------------------------------------------------------------
# symmetric cubes
# ---------------------------------------------------------------------------

def _sym3_inputs(alpha: Rank2Rep, L: ExponentData) -> tuple:
    """Step (a) of the Sym^3 route: alpha T-regular, its cube irreducible
    and L valid for alpha (:func:`_rank2_inputs`); returns Sym^3(alpha)
    and the exponents of :func:`vvmf.reps.sym3_exponents`."""
    if not sym3_is_irreducible(alpha):
        raise NotIrreducible("symmetric cube representation is reducible")
    if not alpha.t_regular:
        raise Resonance("series output for the Jordan family is out of scope")
    _rank2_inputs(alpha, L)
    return rank4_from_sym3(alpha), sym3_exponents(L)


def _sym3_solve(inputs, _, report, co, order: int, catalog: ClassicalCatalog) -> FormBasis:
    """Steps (d)-(f) of the Sym^3 route: the rank-2 rows (f, g) of alpha at
    weights k1, k1 + 2, k1 = report.k1 / 3, cubed exactly, rounded once and
    handed to the cyclic basis assembler with the driver's coefficients.
    The rank-2 coefficients and the cube's sums of the rows' mpc leading
    exponents are formed in the driver's precision scope."""
    k1 = report.k1 // 3
    alpha_co = equation_coefficients(inputs[1].eigenvalues, CYCLIC)
    _, rows = _solved_rows((k1, k1 + 2), alpha_co, order, catalog)
    F = _cube(*(row[0] for row in rows))
    return assemble_cyclic_basis(FormStack.downcast([F], [report.k1]), co, catalog, report)


#: the Sym^3 route: cyclic, the cube of the rank-2 minimal form
SYM3_ROUTE = Route(_sym3_inputs, CYCLIC, _sym3_solve)


def sym3_pipeline(
    alpha: Rank2Rep,
    L: ExponentData,
    order: int,
    catalog: ClassicalCatalog,
) -> FormBasis:
    """Cyclic rank-4 basis for Sym^3(alpha) from the cube of the rank-2
    minimal form (:func:`vvmf.mlde.staged`): F = (f^3, f^2 g, f g^2, g^3)
    at weight 3 k1."""
    return staged(SYM3_ROUTE, (alpha, L), order, catalog)[2]


def _cube(f: FixedSeries, g: FixedSeries) -> tuple[FixedSeries, ...]:
    """(f^3, f^2 g, f g^2, g^3), exact in fixed point, in one limb layout
    (:func:`vvmf.series._limb_cube`): f and g are shifted to their common
    scale, transformed once, and squared and cubed on their spectra, in
    five transforms for real rows and ten for complex ones.  Each product
    x y^2 keeps the length and the leading exponent x.lam + (y.lam +
    y.lam) of the plain products x (y y); re-associating a cube, as
    (f g) g, would change the sum of three leading exponents in its last
    bit.  The mantissas are exact, so the rounded doubles do not change."""
    f.re._require_same_nome(g.re)
    bits = max(f.bits, g.bits)
    n = max(len(f.re.coeffs), len(g.re.coeffs))
    parts = [[c << (bits - x.bits) for c in p.coeffs] + [0] * (n - len(p.coeffs))
             for x in (f, g) for p in (x.re, x.im)]
    out = []
    for (re, im), x, y in zip(_limb_cube(*parts), (f, g, f, g), (f, f, g, g)):
        lam = x.re.lead_exponent + (y.re.lead_exponent + y.re.lead_exponent)
        m = min(len(x.re.coeffs), len(y.re.coeffs))
        out.append(FixedSeries(PuiseuxSeries(f.re.nome, lam, tuple(re[:m])),
                               PuiseuxSeries(f.re.nome, lam, tuple(im[:m])), 3 * bits))
    return tuple(out)


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
    stored as a builtin complex, and two values are derived: the minimal
    weight k1, 3 Tr(L) or 3 Tr(L) + 1, whichever has the parity e of the
    representation, so that the induced bases are cyclic; and the local
    exponent r of u (:func:`local_exponent_from_u`), in a
    :func:`vvmf.mlde.qline_precision` scope of its own, since the job is
    built before the driver opens the job's scope, so that the pair's
    q2-exponents are k1/6 +- r."""

    rep: GRank2Rep
    L: ExponentData
    u: complex
    k1: int = field(init=False)
    r: mpmath.mpc = field(init=False)

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
        with qline_precision():
            r = local_exponent_from_u(mpmath.mpc(u), mpmath.expjpi(mpmath.mpf(1) / 3))
        object.__setattr__(self, "r", r)


def _induction_stage(job: InductionJob, order: int, catalog: ClassicalCatalog):
    """The q2-line rows of the pair (A, B), one (A_j, B_j) per exponent, in
    fixed point, and the system they solve: the minimal-weight pair of the
    beta- and beta^2-twists, before it is rounded.

    Solves the defining relation :func:`induction_system`, built once at
    the caller's precision (the driver's
    :func:`vvmf.mlde.qline_precision` scope), on the q2-line at both
    exponents k1/6 +- r in one call (:func:`qline_solve`, which rejects an
    integer 2r).  A leads with (-2i 12^{3/2})^{+-r}, the leading
    coefficient of Z^{+-r}, as in the Z-line form eta^{2k1} (g/f)
    Z^{+-r} (1 + ...) the pair transports; B's leading coefficient follows
    from the relation.
    """
    k1 = job.k1
    xi = mpmath.expjpi(mpmath.mpf(1) / 3)
    z_lead = mpmath.mpc(0, -2) * mpmath.sqrt(1728)
    exponents = (job.r, -job.r)
    seeds = []
    for exponent in exponents:
        a0 = cpow(z_lead, exponent)
        # D A = g B at the leading q2-power: (exponent / 2) a0 = g_0 b0, g_0 = -2 xi^5
        seeds.append((a0, a0 * exponent / (-4 * xi**5)))
    system = induction_system(mpmath.mpc(job.u), xi, catalog)
    rows = qline_solve((k1, k1), system, [Fraction(k1, 6) + e for e in exponents], seeds,
                       min(2 * order, catalog.q2_order), catalog)
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


def _induction_inputs(job: InductionJob) -> tuple:
    """Step (a) of the induction route, whose input checks ran in
    :class:`InductionJob`: the induced representation of the beta-twist
    (:func:`vvmf.reps.rank4_from_induction`) and the induced exponents of
    k1/6 +- r, the complex values of the mpc exponents the solved pair
    declares as its leading exponents.  The beta^2-twist has the same
    d and e, so the same report.  k1/6 +- r induce 3 Tr(Ind L) = k1 + 3,
    of the other parity than k1 = e mod 2, so the report is cyclic with
    the job's k1.  The mpc sums are formed in the driver's precision
    scope."""
    pair = [as_complex(Fraction(job.k1, 6) + e) for e in (job.r, -job.r)]
    return rank4_from_induction(job.rep.twist(1)), induced_exponents(ExponentData(pair, Group.G))


def _induction_solve(inputs, _, report, co, order: int, catalog: ClassicalCatalog) -> FormBasis:
    """Steps (d)-(f) of the induction route: solve for the minimal pair and
    verify its defining relation; then induce the form of each beta-twist
    to the full group and assemble its cyclic basis with the driver's
    coefficients.  One basis holds both twists' forms, the beta^2 side's
    residual keys prefixed ``beta2_``.

    The induced form of F is F over its T^{-1}-slash F|T^{-1}, whose
    exponents are Ind L (:func:`vvmf.reps.induced_exponents`) of the
    exponents F declares: F +- e^{pi i lam} F|T^{-1} keep only the even
    (odd) q2-offsets by algebra alone, and nothing re-checks it.  The pair
    is slashed in one stack (:meth:`vvmf.series.FormStack.slash_t_inverse`)
    and that stack derived once; D of the induced form is D F, taken for
    the pair check, over D of F|T^{-1}."""
    (job,) = inputs
    rows, system = _induction_stage(job, order, catalog)
    pair, d_pair, res = solved_forms(rows, (job.k1, job.k1), system, catalog)
    slashed = pair.slash_t_inverse()
    d_slashed = modular_derivative(slashed, catalog)
    stacks, residuals, pair_res = [], {}, max(res)
    for j in (0, 1):
        X = FormStack.join((pair.form(j), slashed.form(j)), 1)
        DX = FormStack.join((d_pair.form(j), d_slashed.form(j)), 1)
        basis = assemble_cyclic_basis(X, co, catalog, report, DX)
        stacks.append(basis.stack)
        prefix = "beta2_" if j else ""
        for key, value in {**basis.residuals, "pair_relation": pair_res}.items():
            residuals[prefix + key] = value
    return FormBasis(FormStack.join(stacks, 0), report, residuals)


#: the induction route: cyclic, from the solved minimal pair
INDUCTION_ROUTE = Route(_induction_inputs, CYCLIC, _induction_solve)


def induction_pipeline(job: InductionJob, order: int, catalog: ClassicalCatalog) -> FormBasis:
    """Full induction route (:func:`vvmf.mlde.staged`): the bases of the
    beta- and beta^2-twists, in one basis of eight forms."""
    return staged(INDUCTION_ROUTE, (job,), order, catalog)[2]
