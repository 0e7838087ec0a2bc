"""The q-line solver against independent oracles (the generic route against
the Sym^3 and tensor constructions, and the Z-line route of the induction
pair), and every route across the order range a user can request."""

import math
from fractions import Fraction

import mpmath
import pytest

import vvmf.mlde
from vvmf.classical import ClassicalCatalog
from vvmf.constructions import (
    InductionJob,
    build_fuchsian_z,
    induction_minimal_pair,
    induction_pipeline,
    local_exponent_from_u,
    sym3_pipeline,
    tensor_pipeline,
    u_from_local_exponent,
)
from vvmf.mlde import frobenius_solve, generic_basis
from vvmf.reps import (
    ExponentData,
    GRank2Rep,
    Group,
    rank4_from_sym3,
    rank4_from_tensor,
    sym3_exponents,
    tensor_exponents,
)
from vvmf.series import FixedSeries, Nome, compose_frobenius, downcast_to_complex

from test_acceptance import ZETA, deviation, rank2_data, sym3_grid, tensor_grid
from test_constructions import make_job
from test_mlde import admissible

GATE = 1e-9  # the CLI's default residual tolerance


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("member", [0, 2, 6])
def test_generic_cyclic_reproduces_sym3_basis(member, catalog40):
    # the same normalization: Sym^3 F_j leads with (1728^{g})^3 = 1728^{f_j}
    rep, L = rank2_data(*sym3_grid()[member])
    closed = sym3_pipeline(rep, L, 40, catalog40)
    generic = generic_basis(rank4_from_sym3(rep), sym3_exponents(L), 40, catalog40)
    assert generic.case.case == "cyclic" and generic.weights == closed.weights
    worst = max(
        deviation(g, c)
        for fg, fc in zip(generic.forms, closed.forms, strict=True)
        for g, c in zip(fg.components, fc.components, strict=True)
    )
    assert worst < 1e-10


@pytest.mark.parametrize("member", [0, 3, 6])
def test_generic_noncyclic_reproduces_tensor_form(member, catalog40):
    p1, p2 = tensor_grid()[member]
    alpha, L1 = rank2_data(*p1)
    beta, L2 = rank2_data(*p2)
    closed = tensor_pipeline(alpha, beta, L1, L2, 30, catalog40).forms[0]
    generic = generic_basis(rank4_from_tensor(alpha, beta), tensor_exponents(L1, L2), 30, catalog40)
    assert generic.case.case == "noncyclic"
    for g, c in zip(generic.forms[0].components, closed.components, strict=True):
        # the two normalizations differ by one constant per component
        ratio = complex(g.coeffs[0]) / complex(c.coeffs[0])
        assert deviation(c.scale(ratio), g) < 1e-10


def zline_pair(job: InductionJob, order: int):
    """The pair by the Z-line route: Frobenius-solve the Z-line equation at
    +-r, substitute Z(q2), and form A = eta^{2k1} (g/f) a and
    B = (xi/36) eta^{2k1} (f/g) (3 Z a + 9 (Z - 1) theta_Z a), at a working
    precision covering the growth of Z (|2 * 12^{3/2}| ~ 83 per q2-order)."""
    n2 = 2 * order
    with mpmath.workdps(40 + 2 * n2):
        hp = ClassicalCatalog(order, "extended")
        u = mpmath.mpc(job.u)
        op = build_fuchsian_z(u, hp.xi)
        r = local_exponent_from_u(u, hp.xi)
        z = hp.z_hauptmodul()
        f, g = hp.fg_generators()
        eta = hp.eta_power(2 * job.k1, Nome.Q2)
        A, B = [], []
        for exponent in (r, -r):
            a = frobenius_solve(op, exponent, n2)
            combo = a.shift(1, 3) + a.theta().shift(1, 9) - a.theta().scale(9)
            A.append(downcast_to_complex(eta * g.divide(f) * compose_frobenius(a, z)))
            B.append(downcast_to_complex(
                (eta * f.divide(g) * compose_frobenius(combo, z)).scale(hp.xi / 36)
            ))
    return A, B


def test_induction_pair_matches_zline_oracle():
    # the inputs of acceptance criterion 7
    catalog = ClassicalCatalog(20)
    rep = GRank2Rep(0, 1, ZETA, ZETA**2, 0.7 + 0.2j)
    L = ExponentData.diagonal([1 / 3 + 0.11, 1 / 3 - 0.11], Group.G)
    worst = 0.0
    for r in (0.27, 0.13 + 0.21j, 0.41, 0.05, 0.33 - 0.14j):
        job = InductionJob.make(rep, L, u_from_local_exponent(r))
        pair = induction_minimal_pair(job, 20, catalog)
        for form, oracle in zip(pair, zline_pair(job, 20), strict=True):
            for got, want in zip(form.components, oracle, strict=True):
                assert abs(complex(got.lead_exponent) - complex(want.lead_exponent)) < 1e-12
                worst = max(worst, deviation(got, want))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# working-precision rows
# ---------------------------------------------------------------------------

def solved_rows(monkeypatch, run) -> list:
    """The fixed-point rows of every q-line solve made by run(), before
    their downcast."""
    rows = []
    solve = vvmf.mlde.qline_solve

    def recording(*args):
        out = solve(*args)
        rows.extend(out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(vvmf.mlde, "qline_solve", recording)
        run()
    return rows


def relative_gap(x: FixedSeries, y: FixedSeries) -> float:
    """Largest |x_n - y_n| / |y_n| over the coefficients, in exact integers."""
    bits = max(x.bits, y.bits)

    def aligned(s):
        shift = bits - s.bits
        return [(u << shift, v << shift) for u, v in zip(s.re.coeffs, s.im.coeffs)]

    return math.sqrt(max(
        Fraction((a - c) ** 2 + (b - d) ** 2, c * c + d * d)
        for (a, b), (c, d) in zip(aligned(x), aligned(y), strict=True)
    ))


@pytest.mark.parametrize("m, d", [(7, 1), (8, 5)], ids=["cyclic", "noncyclic"])
def test_rows_hold_forty_digits_per_coefficient(monkeypatch, m, d, catalog40):
    # per coefficient, not against the largest one; seeding the recursion
    # with a basis that is only a null space to 1e-14 fails this, and so does
    # a scale that does not follow the seed
    rep, L = admissible([0.11, 0.18, 0.31], m, d, 0)
    rows = solved_rows(monkeypatch, lambda: generic_basis(rep, L, 40, catalog40))
    monkeypatch.setattr(vvmf.mlde, "QLINE_DPS", vvmf.mlde.QLINE_DPS + 50)
    finer_rows = solved_rows(monkeypatch, lambda: generic_basis(rep, L, 40, catalog40))
    assert len(rows) == len(finer_rows) == 16
    assert all(x.re.order == 40 and y.bits > x.bits for x, y in zip(rows, finer_rows))
    assert max(relative_gap(x, y) for x, y in zip(rows, finer_rows)) <= 1e-40


# ---------------------------------------------------------------------------
# order sweep
# ---------------------------------------------------------------------------

def finer(monkeypatch):
    """Raise the q-line working precision by 30 digits."""
    monkeypatch.setattr(vvmf.mlde, "QLINE_DPS", vvmf.mlde.QLINE_DPS + 30)


def generic_route(m, d):
    rep, L = admissible([0.11, 0.18, 0.31], m, d, 0)
    return lambda order, catalog: generic_basis(rep, L, order, catalog)


def closed_route(route):
    # the benchmark's ladder members, the worst top-order residuals of each
    # grid when the rank-2 form came from the K-line substitution
    if route == "sym3":
        rep, L = rank2_data(*sym3_grid()[3])
        return lambda order, catalog: sym3_pipeline(rep, L, order, catalog)
    (alpha, L1), (beta, L2) = (rank2_data(*p) for p in tensor_grid()[5])
    return lambda order, catalog: tensor_pipeline(alpha, beta, L1, L2, order, catalog)


def induction_route(order, catalog):
    return induction_pipeline(make_job(0.27), order, catalog)


def gate(bases, order) -> None:
    for basis in bases:
        assert max(basis.residuals.values()) < GATE, (order, basis.residuals)


@pytest.mark.parametrize("m, d", [(7, 1), (8, 5)], ids=["cyclic", "noncyclic"])
def test_generic_order_sweep(monkeypatch, m, d):
    pipeline = generic_route(m, d)
    for order in (20, 80, 200):
        catalog = ClassicalCatalog(order)
        basis = pipeline(order, catalog)
        gate([basis], order)
    finer(monkeypatch)
    assert pipeline(200, catalog).forms == basis.forms


@pytest.mark.parametrize("route", ["sym3", "tensor"])
def test_closed_order_sweep(monkeypatch, route):
    pipeline = closed_route(route)
    for order in (20, 80, 200):
        catalog = ClassicalCatalog(order)
        basis = pipeline(order, catalog)
        gate([basis], order)
    finer(monkeypatch)
    assert pipeline(200, catalog).forms == basis.forms


def test_induction_order_sweep(monkeypatch):
    job = make_job(0.27)
    for order in (20, 80, 200):
        catalog = ClassicalCatalog(order)
        gate(induction_route(order, catalog), order)
    pair = induction_minimal_pair(job, 200, catalog)
    finer(monkeypatch)
    assert induction_minimal_pair(job, 200, catalog) == pair


@pytest.mark.slow
@pytest.mark.parametrize("route", ["cyclic", "noncyclic", "sym3", "tensor", "induction"])
def test_order_400(route):
    # the three sweeps one order further, with the same gate
    catalog = ClassicalCatalog(400)
    if route == "induction":
        gate(induction_route(400, catalog), 400)
    elif route in ("sym3", "tensor"):
        gate([closed_route(route)(400, catalog)], 400)
    else:
        gate([generic_route(*{"cyclic": (7, 1), "noncyclic": (8, 5)}[route])(400, catalog)], 400)
