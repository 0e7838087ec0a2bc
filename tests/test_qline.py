"""The q-line solver against independent oracles (the generic route against
the Sym^3 and tensor constructions, and the Z-line route of the induction
pair), and every route across the order range a user can request."""

import math
import random
from fractions import Fraction
from operator import mul

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vvmf.classical
import vvmf.constructions
import vvmf.mlde
from vvmf.classical import ClassicalCatalog
from vvmf.cli import JobSpec, emit, run
from vvmf.constructions import (
    InductionJob,
    induction_pipeline,
    local_exponent_from_u,
    sym3_pipeline,
    tensor_pipeline,
)
from vvmf.errors import Resonance
from vvmf.mlde import (
    CYCLIC,
    NONCYCLIC,
    equation_coefficients,
    generic_basis,
    qline_precision,
    qline_solve,
)
from vvmf.reps import (
    ExponentData,
    GRank2Rep,
    Group,
    rank4_from_sym3,
    sym3_exponents,
)
from vvmf.series import (
    FixedSeries,
    Nome,
    PuiseuxSeries,
    as_complex,
    compose_frobenius,
    to_fixed,
)

from oracles import (
    build_fuchsian_z,
    downcast_to_complex,
    frobenius_solve,
    kronecker_tensor_basis,
    left_solve,
    min_cover_size,
    pivoted_solve,
    step_pattern,
    u_from_local_exponent,
    unit_chain,
)
from test_acceptance import ZETA, deviation, rank2_data, sym3_grid, tensor_grid
from test_constructions import make_job, minimal_pair
from test_double_check import POOLS, inputs
from test_mlde import admissible, exact_step, record_eliminations

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


@pytest.mark.parametrize("member", range(len(tensor_grid())))
def test_generic_noncyclic_reproduces_tensor_form(member, catalog40):
    # the tensor route solves its noncyclic system as the generic route does,
    # seeded with the closed basis's leading row: all four forms are the
    # Kronecker basis, per component, with no normalization between them
    (alpha, L1), (beta, L2) = (rank2_data(*p) for p in tensor_grid()[member])
    basis = tensor_pipeline(alpha, beta, L1, L2, 40, catalog40)
    closed = kronecker_tensor_basis(alpha, beta, L1, L2, 40, catalog40)
    assert basis.case.case == "noncyclic"
    assert basis.weights == tuple(form.weight for form in closed)
    for form, oracle in zip(basis.forms, closed, strict=True):
        for got, want in zip(form.components, oracle.components, strict=True):
            assert abs(complex(got.lead_exponent) - complex(want.lead_exponent)) < 1e-12
            assert deviation(got, want) < 1e-10


def zline_pair(job: InductionJob, order: int):
    """The pair by the Z-line route: Frobenius-solve the Z-line equation at
    +-r, substitute Z(q2), and form A = eta^{2k1} (g/f) a and
    B = (xi/36) eta^{2k1} (f/g) (3 Z a + 9 (Z - 1) theta_Z a), at a working
    precision covering the growth of Z (|2 * 12^{3/2}| ~ 83 per q2-order),
    at which the catalog also builds its constants and series."""
    n2 = 2 * order
    dps = 40 + 2 * n2
    with mpmath.workdps(dps), pytest.MonkeyPatch.context() as patch:
        patch.setattr(vvmf.classical, "EXTENDED_DPS", dps)
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
            t = a.theta()
            # x (3 a + 9 theta a) - 9 theta a
            x_part = a.scale(3) + t.scale(9)
            combo = PuiseuxSeries.make(a.nome, a.lead_exponent + 1, x_part.coeffs) - t.scale(9)
            A.append(downcast_to_complex(eta * g.divide(f) * compose_frobenius(a, z)))
            B.append(downcast_to_complex(
                (eta * f.divide(g) * compose_frobenius(combo, z)).scale(hp.xi / 36)
            ))
    return A, B


def test_induction_pair_matches_zline_oracle():
    # the inputs of acceptance criterion 7
    catalog = ClassicalCatalog(20)
    rep = GRank2Rep(0, 1, ZETA, ZETA**2, 0.7 + 0.2j)
    L = ExponentData([1 / 3 + 0.11, 1 / 3 - 0.11], Group.G)
    worst = 0.0
    for r in (0.27, 0.13 + 0.21j, 0.41, 0.05, 0.33 - 0.14j):
        job = InductionJob(rep, L, u_from_local_exponent(r))
        pair = minimal_pair(job, 20, catalog)
        for form, oracle in zip(pair, zline_pair(job, 20), strict=True):
            for got, want in zip(form.components, oracle, strict=True):
                assert abs(complex(got.lead_exponent) - complex(want.lead_exponent)) < 1e-12
                worst = max(worst, deviation(got, want))
    assert worst < 1e-12


def resonant_route(route: str, catalog):
    """Run a route on an input with an integer exponent gap."""
    if route == "generic":
        rep, L = admissible([0.11, 1.11, 0.31], 7, 1, 0)  # first two differ by 1
        return generic_basis(rep, L, 10, catalog)
    if route == "induction":
        job = make_job(0.27)
        resonant = InductionJob(job.rep, job.L, u_from_local_exponent(0.5))  # 2r = 1
        return minimal_pair(resonant, 10, catalog)
    # factor gaps 0.6 and 0.4 + 5e-10: the tensor exponents r1 + s1 and r2 + s2
    # differ by 1 + 5e-10, an integer within 1e-9, while their T-eigenvalues
    # stay distinct, so the product is irreducible
    (alpha, L1), (beta, L2) = (rank2_data((s / 6 + d) / 2, (s / 6 - d) / 2)
                               for s, d in ((1, 0.6), (2, 0.4 + 5e-10)))
    return tensor_pipeline(alpha, beta, L1, L2, 10, catalog)


@pytest.mark.parametrize("order", [80, 400, 1600])
@pytest.mark.parametrize("k", [6, 12])
def test_rank_one_solve_is_the_exact_eta_power(k, order):
    # D F = 0 at weight k with seed 1728^0 = 1 is solved by eta^{2k}, which
    # the catalog holds exactly; at the exponents 1/2 and 1, exact in binary,
    # every emitted double is that integer
    catalog = ClassicalCatalog(order)
    with qline_precision():
        co = equation_coefficients([k / 12], CYCLIC)
        _, rows = vvmf.mlde._solved_rows((k,), co, order, catalog)
    F = rows[0][0].downcast()
    eta = catalog.eta_power(2 * k)
    assert as_complex(F.lead_exponent) == eta.lead_exponent == k / 12
    assert F.coeffs == tuple(map(complex, eta.coeffs)) and len(F.coeffs) == order + 1


@pytest.mark.parametrize("order", [80, 400, pytest.param(1600, marks=pytest.mark.slow)])
@pytest.mark.parametrize("k", range(1, 14))
def test_rank_one_solve_is_eta_within_one_ulp(k, order):
    # D F = 0 at weight k has only the K E_2 block, so its solution eta^{2k}
    # (seed 1) is the exact oracle of that block, solved here at the mpmath
    # exponent k/12 of the q-line precision.  At k = 6 and 12 (exponents
    # 1/2 and 1, exact in binary) every emitted double is eta^{2k}'s
    # integer; at the other k each nonzero coefficient is within one ulp of
    # it, and each zero coefficient below 1e-38 (7.3e-59 for eta^2 and
    # 1.0e-40 for eta^26 at order 1600)
    catalog = ClassicalCatalog(order)
    with qline_precision():
        lam = mpmath.mpf(k) / 12
        (row,) = qline_solve((k,), [({}, PuiseuxSeries.one(Nome.Q, order))], [lam],
                             [[mpmath.mpf(1)]], order, catalog)
    F = row[0].downcast()
    eta = catalog.eta_power(2 * k)
    assert len(F.coeffs) == len(eta.coeffs) == order + 1
    assert not any(f.imag for f in F.coeffs)
    if k in (6, 12):
        assert F.coeffs == tuple(map(complex, eta.coeffs))
    for f, c in zip(F.coeffs, eta.coeffs):
        assert abs(f.real - c) <= math.ulp(float(c)) if c else abs(f.real) < 1e-38


@pytest.mark.parametrize("route", ["generic", "induction", "tensor"])
def test_every_route_reaches_the_gap_rule(monkeypatch, route):
    # one resonance rule for every route, before the first elimination step:
    # qline_solve rejects the integer gap of its system
    raised = []
    solve = vvmf.mlde.qline_solve
    steps = record_eliminations(monkeypatch)

    def recording(*args):
        before = len(steps)
        try:
            return solve(*args)
        except Resonance as exc:
            raised.append((exc, len(steps) - before))
            raise

    for module in (vvmf.mlde, vvmf.constructions):
        monkeypatch.setattr(module, "qline_solve", recording)
    with pytest.raises(Resonance, match="differ by the integer") as info:
        resonant_route(route, ClassicalCatalog(10))
    assert raised == [(info.value, 0)]
    assert steps == []


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
        for row in out:
            rows.extend(row)
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


@pytest.mark.parametrize("m, d", [(7, 1), (8, 5)], ids=["cyclic", "noncyclic"])
def test_generic_systems_run_as_real_systems(monkeypatch, m, d, catalog40):
    # real exponents give real equation coefficients: the solve runs on
    # r = 4 real rows, whose unit chain leaves one free variable per
    # exponent and step (two on a complex system's real form), and returns
    # imaginary mantissas of exactly 0
    sizes = record_eliminations(monkeypatch)
    rep, L = admissible([0.11, 0.18, 0.31], m, d, 0)
    rows = solved_rows(monkeypatch, lambda: generic_basis(rep, L, 20, catalog40))
    assert sizes == [1] * (4 * 20)
    assert all(not any(x.im.coeffs) for x in rows)


def tensor_route(member):
    (alpha, L1), (beta, L2) = (rank2_data(*p) for p in tensor_grid()[member])
    return lambda order, catalog: tensor_pipeline(alpha, beta, L1, L2, order, catalog)


@pytest.mark.parametrize("member", [0, 1, 5, 8])
def test_tensor_forms_hold_at_more_digits(monkeypatch, member):
    # every form, F included, and every leading exponent: the exponents are
    # the input doubles, and 50 more digits give the same doubles
    pipeline, catalog = tensor_route(member), ClassicalCatalog(80)
    basis = pipeline(80, catalog)
    monkeypatch.setattr(vvmf.mlde, "QLINE_DPS", vvmf.mlde.QLINE_DPS + 50)
    assert pipeline(80, catalog).forms == basis.forms


# ---------------------------------------------------------------------------
# packed lanes against one recursion per exponent
# ---------------------------------------------------------------------------

def real_form_step(b, rhs, p, c, b0s=None) -> list:
    """x b = rhs by the step of qline_solve: on the real parts (c = 1) or
    on the real form (c = 2) of the Gaussian-integer matrix b, along the
    unit chain of the pattern of every exponent's matrix (``b0s``, b's
    own by default)."""
    r = len(b)
    pattern = step_pattern([list(zip(*vvmf.mlde._real_form(b0, c))) for b0 in b0s or [b]], p)
    rows = zip(zip(*vvmf.mlde._real_form(b, c)), vvmf.mlde._real_form([rhs], c)[0])
    x = left_solve([[*col, u] for col, u in rows], p, pattern)
    return [(x[i], x[r + i] if c == 2 else 0) for i in range(r)]


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gshift(a, s):
    """a 2^s, floored part by part when s < 0."""
    return (a[0] << s, a[1] << s) if s >= 0 else (a[0] >> -s, a[1] >> -s)


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def gaussian_step(b, rhs, p, c, b0s=None) -> list:
    """x b = rhs on the Gaussian integers themselves, along the unit chain
    of the pattern of every exponent's matrix (``b0s``, b's own by
    default; a unit is (+-2^p, 0)), written out in Gaussian arithmetic
    like :func:`oracles.left_solve`: a free variable of a one-variable
    block is N / A by one division of each part by |A|^2, and a larger
    block is rounded part by part and eliminated by
    :func:`gaussian_elimination`."""
    r = len(rhs)
    m = [[b[i][j] for i in range(r)] + [rhs[j]] for j in range(r)]
    pattern = step_pattern([[[b0[i][j] for i in range(r)] for j in range(r)]
                            for b0 in b0s or [b]], p)
    free, chain, left = unit_chain(pattern, r)
    if not chain:
        return gaussian_elimination(m, p)
    depth = dict.fromkeys(free, 0)
    const = dict.fromkeys(free, (0, 0))
    coeff = {f: {g: (int(f == g), 0) for g in free} for f in free}
    for u, i in chain:
        others = [j for j in range(r) if j != u and pattern[i * r + j] != 0]
        k = 1 + max(depth[j] for j in others)
        cu = _gshift(m[i][r], p * k)
        d = dict.fromkeys(free, (0, 0))
        for j in others:
            shift = p * (k - 1 - depth[j])
            cu = _gsub(cu, _gshift(_gmul(m[i][j], const[j]), shift))
            for f in free:
                d[f] = _gsub(d[f], _gshift(_gmul(m[i][j], coeff[j][f]), shift))
        sign = pattern[i * r + u]
        depth[u] = k
        const[u] = (sign * cu[0], sign * cu[1])
        coeff[u] = {f: (sign * v[0], sign * v[1]) for f, v in d.items()}
    block = []
    for i in left:
        nonzero = [j for j in range(r) if pattern[i * r + j] != 0]
        K = max(depth[j] for j in nonzero)
        a = dict.fromkeys(free, (0, 0))
        n = _gshift(m[i][r], p * (K + 1))
        for j in nonzero:
            shift = p * (K - depth[j])
            n = _gsub(n, _gshift(_gmul(m[i][j], const[j]), shift))
            for f in free:
                a[f] = _gadd(a[f], _gshift(_gmul(m[i][j], coeff[j][f]), shift))
        block.append((K, [a[f] for f in free], n))
    x = [(0, 0)] * r
    if len(free) == 1:
        (_, ((ar, ai),), (nr, ni)), = block
        norm = ar * ar + ai * ai
        x[free[0]] = ((nr * ar + ni * ai) // norm, (ni * ar - nr * ai) // norm)
    else:
        solved = gaussian_elimination(
            [[(u >> p * K, v >> p * K) for u, v in a] + [_gshift(n, -p * (K + 1))]
             for K, a, n in block], p)
        for f, v in zip(free, solved):
            x[f] = v
    for u, i in chain:
        rest = _gshift(m[i][r], p)
        for j in range(r):
            if j != u:
                rest = _gsub(rest, _gmul(m[i][j], x[j]))
        sign = pattern[i * r + u]
        x[u] = (sign * rest[0] >> p, sign * rest[1] >> p)
    return x


def gaussian_elimination(m, p) -> list:
    """x with sum_j m_ij x_j = rhs_i 2^p by pivoted elimination on the
    Gaussian integers (re, im) themselves, m's rows followed by rhs_i:
    pivots of largest norm, multipliers at 2^-p."""
    r = len(m)
    for col in range(r):
        norms = [u * u + v * v for u, v in (m[i][col] for i in range(col, r))]
        norm = max(norms)
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


def test_tied_pivots_take_the_first_row():
    # |u| ties within a column: the real elimination takes the first of the
    # tied rows, as the Gaussian one takes the first of the tied norms
    p = 64
    one = 1 << p
    b = [[(2 * one, 0), (-2 * one, 0), (one, 0)],
         [(-one, 0), (3 * one, 0), (one, 0)],
         [(one, 0), (one, 0), (-3 * one, 0)]]
    rhs = [(7 << 90, 0), (-(5 << 90), 0), (3 << 90, 0)]
    m = [[b[i][j] for i in range(3)] + [rhs[j]] for j in range(3)]
    x = pivoted_solve([[u for u, _ in row] for row in m], p)
    assert [(u, 0) for u in x] == gaussian_elimination(m, p)
    # and with the unit entries of b as a chain, both steps read it alike
    assert real_form_step(b, rhs, p, 1) == gaussian_step(b, rhs, p, 1)


def per_exponent_solve(weights, system, lams, seeds, order, catalog, step=real_form_step) -> list:
    """The recursion of qline_solve written out once per exponent in
    Gaussian integers, with the same encodings: each row's reversed history
    against each series tail, per constant entry, and each step solved by
    ``step`` on the pattern of every exponent's matrix at n = 0.  The
    system is real (c = 1) when every encoded imaginary part is zero.
    Returns (re, im, bits) per entry."""
    r = len(weights)
    nome = system[0][1].nome
    s = Fraction(1, 2) if nome is Nome.Q2 else 1
    p = mpmath.libmp.dps_to_prec(vvmf.mlde.QLINE_DPS) + 32
    kdiag = {(i, i): Fraction(k, 12) for i, k in enumerate(weights) if k}
    m0 = [[0] * r for _ in range(r)]
    terms = []
    for S, e in (*system, (kdiag, catalog.e2_for(nome))):
        coeffs = [0] * round(as_complex(e.lead_exponent).real) + list(e.coeffs)
        order = min(order, len(coeffs) - 1)
        for (i, j), v in S.items():
            m0[i][j] += v * coeffs[0]
        if any(coeffs[1:]):
            terms += [(i, j, *to_fixed(v, p), coeffs[1:]) for (i, j), v in S.items()]
    b0s = [[[to_fixed((s * lam if i == j else 0) - m0[i][j], p) for j in range(r)]
            for i in range(r)] for lam in lams]
    scales = [p - (math.frexp(max(abs(as_complex(v)) for v in seed))[1] - 1) for seed in seeds]
    heads = [[to_fixed(v, bits) for v in seed] for seed, bits in zip(seeds, scales)]
    imaginary = [vi for *_, vi, _ in terms] + [v for b0 in b0s for row in b0 for _, v in row]
    c = 2 if any(imaginary + [v for head in heads for _, v in head]) else 1
    out = []
    for b0, bits, head in zip(b0s, scales, heads):
        res, ims = zip(*(([x], [y]) for x, y in head))
        for n in range(1, order + 1):
            acc = [[0, 0] for _ in range(r)]
            for i, j, vr, vi, e in terms:
                cr = sum(map(mul, res[i][n - 1::-1], e))
                ci = sum(map(mul, ims[i][n - 1::-1], e))
                acc[j][0] += cr * vr - ci * vi
                acc[j][1] += cr * vi + ci * vr
            b = [list(row) for row in b0]
            for i in range(r):
                b[i][i] = (b0[i][i][0] + n * int(s * (1 << p)), b0[i][i][1])
            x = step(b, [(u >> p, v >> p) for u, v in acc], p, c, b0s)
            for i, (u, v) in enumerate(x):
                res[i].append(u)
                ims[i].append(v)
        out.append([(tuple(u), tuple(v), bits) for u, v in zip(res, ims)])
    return out


def mantissas(rows) -> list:
    return [[(x.re.coeffs, x.im.coeffs, x.bits) for x in row] for row in rows]


def random_system(rng, r, order, nome, size, real=False):
    """An r x r system with exponents lams and left null seeds: M_0 is
    V^-1 diag(s lam) V - K for a random V, whose rows are the seeds, and
    one or two random exact-integer series with coefficients up to size
    carry random constant entries.  A real system has real exponents, V
    and entries."""
    s = Fraction(1, 2) if nome is Nome.Q2 else 1

    def number(scale, imag):
        if real:
            return rng.uniform(-scale, scale)
        return complex(rng.uniform(-scale, scale), rng.uniform(-imag, imag))

    weights = tuple(rng.choice(range(0, 14, 2)) for _ in range(r))
    while True:
        lams = [number(1, 0.3) for _ in range(r)]
        if all(abs(a - b - round((a - b).real)) > 0.05 for i, a in enumerate(lams) for b in lams[:i]):
            break
    entry = mpmath.mpf if real else mpmath.mpc
    V = mpmath.matrix([[entry(number(1, 1)) for _ in range(r)] for _ in range(r)])
    A = V**-1 * mpmath.diag([s * entry(v) for v in lams]) * V
    m0 = {(i, j): A[i, j] - (Fraction(weights[i], 12) if i == j else 0)
          for i in range(r) for j in range(r)}
    system = [(m0, PuiseuxSeries.one(nome, order))]
    for _ in range(rng.randint(1, 2)):
        lead = rng.randint(0, 1)
        coeffs = [0] * (1 - lead) + [rng.randint(-size, size) for _ in range(order + 1)]
        entries = {(rng.randrange(r), rng.randrange(r)): number(2, 2)
                   for _ in range(rng.randint(1, r * r))}
        system.append((entries, PuiseuxSeries(nome, lead, tuple(coeffs[:order + 1]))))
    seeds = [[V[l, i] for i in range(r)] for l in range(r)]
    return weights, system, lams, seeds


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=24), st.sampled_from([Nome.Q, Nome.Q2]),
       st.sampled_from([0, vvmf.mlde.LANE_HEADROOM]))
def test_packed_lanes_match_one_recursion_per_exponent(catalog40, seed, r, order, nome, headroom):
    # no headroom repacks at every step a row grows, so each lane sits at
    # its bound; the default headroom is the production path
    rng = random.Random(seed)
    with qline_precision():
        args = (*random_system(rng, r, order, nome, 10**rng.randint(0, 12)), order, catalog40)
        want = per_exponent_solve(*args)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vvmf.mlde, "LANE_HEADROOM", headroom)
            got = mantissas(qline_solve(*args))
    assert got == want


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=24), st.sampled_from([Nome.Q, Nome.Q2]))
def test_real_system_matches_gaussian_elimination(catalog40, seed, r, order, nome):
    # a real system runs on its r real rows and gives the rows of the
    # Gaussian-integer elimination: the same pivots and the same floors
    rng = random.Random(seed)
    with qline_precision():
        args = (*random_system(rng, r, order, nome, 10**rng.randint(0, 12), real=True),
                order, catalog40)
        assert mantissas(qline_solve(*args)) == per_exponent_solve(*args, step=gaussian_step)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=24), st.sampled_from([Nome.Q, Nome.Q2]))
def test_real_system_keeps_exact_zero_imaginary_parts(catalog40, seed, r, order, nome):
    # every encoded imaginary mantissa of a real system is exactly 0, so
    # each step eliminates r rows (a random system has no unit entry, so
    # its free block is the whole matrix) and every imaginary mantissa
    # out is 0
    rng = random.Random(seed)
    with qline_precision(), pytest.MonkeyPatch.context() as patch:
        sizes = record_eliminations(patch)
        weights, system, lams, seeds = random_system(rng, r, order, nome, 10**6, real=True)
        rows = qline_solve(weights, system, lams, seeds, order, catalog40)
    assert sizes == [r] * (r * order)
    assert all(x.im.coeffs == (0,) * (order + 1) for row in rows for x in row)


def test_growing_rows_widen_the_lanes(monkeypatch, catalog40):
    # coefficients near 2^60 grow the rows by about 60 bits a step, so the
    # history is repacked at a wider lane several times
    repacks = []
    pack = vvmf.mlde._packed_history
    monkeypatch.setattr(vvmf.mlde, "_packed_history",
                        lambda steps, rows, width: repacks.append(width) or pack(steps, rows, width))
    with qline_precision():
        weights, system, lams, seeds = random_system(random.Random(7), 3, 24, Nome.Q, 1)
        system.append(({(0, 1): 1.5, (2, 0): -0.75j},
                       PuiseuxSeries(Nome.Q, 1, tuple(3**38 * (n + 1) for n in range(25)))))
        args = (weights, system, lams, seeds, 24, catalog40)
        assert mantissas(qline_solve(*args)) == per_exponent_solve(*args)
    assert len(repacks) >= 3 and repacks == sorted(set(repacks))


def test_lane_bound_counts_the_terms_of_one_column(monkeypatch, catalog40):
    # T = 3 real entries just below 1, all on the one column, each against
    # the series (2^40 - 1) q, and a seed just below 2: every factor of the
    # first step's sum 3 (1 - 2^-60) (2^40 - 1) X_0 peaks at the top of its
    # bit length, so with no headroom the lane needs the bits(T) term of
    # its bound on top of the row, series, entry and sign bits
    monkeypatch.setattr(vvmf.mlde, "LANE_HEADROOM", 0)
    order = 6
    spike = PuiseuxSeries(Nome.Q, 1, ((1 << 40) - 1,) + (0,) * order)
    with qline_precision():
        entry = 1 - mpmath.mpf(2) ** -60
        system = [({(0, 0): 0.25}, PuiseuxSeries.one(Nome.Q, order))]
        system += [({(0, 0): entry}, spike) for _ in range(3)]
        args = ((0,), system, [0.25], [[2 - mpmath.mpf(2) ** -50]], order, catalog40)
        assert mantissas(qline_solve(*args)) == per_exponent_solve(*args)



@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=200),
       st.sampled_from([Nome.Q, Nome.Q2]), st.integers(min_value=1, max_value=8),
       st.integers(min_value=2, max_value=300))
def test_euler_block_is_the_dense_dot(catalog800, seed, order, nome, lanes, bits):
    # the K E_2 block through Y = X / P: at every step n the dot 24 sum k g_k
    # Y_{n-k} is the dense sum_{m >= 1} E2_m H_{n-m} as the same int, on a
    # random packed history H, and Y_n follows from H_n; mid-history H is
    # repacked at a wider width and Y rebuilt from the repacked words.  Y
    # is the history of the key (((0, 1),), over P) of the one packed row
    rng = random.Random(seed)
    e2 = catalog800.e2_for(nome).coeffs[1:order + 1]
    gs, ws, lagged = vvmf.mlde._euler_terms(catalog800, nome, order)
    keys = [(((0, 1),), True)]
    values = [[rng.randint(-(1 << (bits - 2)), 1 << (bits - 2)) for _ in range(lanes)]
              for _ in range(order + 1)]
    width, repack = bits, rng.randint(1, order)
    history = [vvmf.mlde._pack(values[0], width)]
    (y,) = vvmf.mlde._histories([history], keys, gs, lagged)
    for n in range(1, order + 1):
        words = lagged[n](y)
        assert sum(map(mul, ws, words)) == sum(map(mul, e2, reversed(history)))
        history.append(vvmf.mlde._pack(values[n], width))
        y.append(history[-1] - sum(map(mul, gs, words)))
        if n == repack:
            width += rng.randint(1, 64)
            history = [vvmf.mlde._pack(v, width) for v in values[:n + 1]]
            (y,) = vvmf.mlde._histories([history], keys, gs, lagged)
    assert [y] == vvmf.mlde._histories([history], keys, gs, lagged)


def pentagonal(bound: int) -> list:
    """The generalized pentagonal numbers 1, 2, 5, 7, ... up to bound: the
    lags of the Euler product."""
    return sorted(k * (3 * k + s) // 2 for k in range(1, bound + 1) for s in (-1, 1)
                  if k * (3 * k + s) // 2 <= bound)


@st.composite
def lag_sets(draw) -> list:
    """An ascending set of lags >= 1: empty, one lag, an arithmetic
    progression (step 1-3), the pentagonal lags (in q, or doubled in q2)
    or any."""
    kind = draw(st.sampled_from(["empty", "single", "arithmetic", "pentagonal", "any"]))
    if kind == "empty":
        return []
    if kind == "single":
        return [draw(st.integers(1, 60))]
    if kind == "arithmetic":
        k, d, count = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(2, 40))
        return list(range(k, k + d * count, d))
    if kind == "pentagonal":
        spacing = draw(st.sampled_from([1, 2]))
        return [spacing * k for k in pentagonal(draw(st.integers(1, 60)))]
    return sorted(draw(st.sets(st.integers(1, 90), max_size=30)))


@settings(max_examples=200, deadline=None)
@given(lag_sets(), st.integers(min_value=0, max_value=100))
def test_lag_readers_read_the_words_at_the_lags(lags, order):
    # at step n the history holds the n words H_0, ..., H_{n-1}, and its
    # reader takes H_{n-k} for the lags k <= n, in lag order
    readers = vvmf.mlde._lag_readers(lags, order)
    assert len(readers) == order + 1
    for n in range(order + 1):
        history = [f"H{m}" for m in range(n)]
        assert list(readers[n](history)) == [history[n - k] for k in lags if k <= n]


def test_arithmetic_lags_share_one_reader():
    # the 800 odd lags of theta_2^4 on the q2-line at q2-order 1600 read
    # through one slice at every step, where one getter per count of lags
    # held about 800^2 / 2 indices
    readers = vvmf.mlde._lag_readers(list(range(1, 1600, 2)), 1600)
    assert len(readers) == 1601 and len(set(map(id, readers))) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_cover_is_a_minimum_vertex_cover(rows, columns, data):
    # the dots of a block on a random bipartite graph of entries up to
    # 8 x 8: each edge (i, j, v) reaches acc[j] as v X_i exactly once,
    # through its row's dot or its column's merged one, and there are as
    # many dots as a minimum vertex cover has vertices; when every row is
    # such a cover the rows are taken
    edges = data.draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, columns - 1)),
                               unique=True))
    values = {edge: data.draw(st.integers(1, 9)) for edge in edges}
    reads = {}
    for (i, j), v in values.items():
        reads.setdefault(i, []).append((j, v))
    dots = vvmf.mlde._cover_block([1], None, sorted(reads.items()), False)
    X = [10**i for i in range(rows)]
    acc = [0] * columns
    for _, _, (sources, over_p), targets in dots:
        assert not over_p
        for j, v in targets:
            acc[j] += v * sum(w * X[i] for i, w in sources)
    assert acc == [sum(v * X[i] for (i, c), v in values.items() if c == j)
                   for j in range(columns)]
    assert len(dots) == min_cover_size(edges)
    if len(reads) == len(dots):
        assert [sources for _, _, (sources, _), _ in dots] == [((i, 1),) for i in sorted(reads)]


def equation_args(rng, shape: str, real: bool, order: int, catalog) -> tuple:
    """The arguments of the q-line solve of a random equation of the shape
    "cyclic1" ... "cyclic4" (rank 1-4) or "noncyclic", at exponents with an
    integer minimal weight k1 (cyclic: 12 Tr / r - (r - 1); noncyclic:
    3 Tr - 2), real or complex, no two within 0.05 of an integer gap, as
    :func:`vvmf.mlde._solved_rows` makes them."""
    r = 4 if shape == "noncyclic" else int(shape[-1])
    k1 = rng.randint(0, 9)
    trace = Fraction(k1 + 2, 3) if shape == "noncyclic" else Fraction(r * (k1 + r - 1), 12)
    while True:
        eigs = [complex(rng.uniform(-0.5, 1), 0 if real else rng.uniform(-0.3, 0.3))
                for _ in range(r - 1)]
        eigs.append(float(trace) - sum(eigs))
        gaps = [a - b for i, a in enumerate(eigs) for b in eigs[:i]]
        if all(abs(g - round(g.real)) > 0.05 for g in gaps):
            break
    case = NONCYCLIC if shape == "noncyclic" else CYCLIC
    co = equation_coefficients(eigs, case)
    weights = (k1, k1 + 2, k1 + 2, k1 + 4) if case == NONCYCLIC else tuple(
        k1 + 2 * i for i in range(r))
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        solve = vvmf.mlde.qline_solve
        patch.setattr(vvmf.mlde, "qline_solve", lambda *args: calls.append(args) or solve(*args))
        vvmf.mlde._solved_rows(weights, co, order, catalog)
    return calls[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.sampled_from(["cyclic1", "cyclic2", "cyclic3", "cyclic4", "noncyclic"]),
       st.booleans(), st.integers(min_value=1, max_value=16))
def test_unit_chains_match_one_recursion_per_exponent(catalog40, seed, shape, real, order):
    # the cyclic and noncyclic systems have unit entries, so each step
    # solves along their chain: real systems on r real rows with one free
    # variable, complex ones in real form with a free block of two.  Both
    # give the rows of the loop oracle, and a real system those of the
    # chain rule on its Gaussian integers
    with qline_precision():
        args = equation_args(random.Random(seed), shape, real, order, catalog40)
        with pytest.MonkeyPatch.context() as patch:
            sizes = record_eliminations(patch)
            got = mantissas(qline_solve(*args))
        assert got == per_exponent_solve(*args)
        if real:
            assert got == per_exponent_solve(*args, step=gaussian_step)
    # rank 1 has one exponent, k1 / 12, so its system is real
    r = len(args[0])
    assert sizes == [1 if real or r == 1 else 2] * (r * order)


def record_steps(patch) -> list:
    """Patch the q-line step so that each step appends, per exponent, the
    rows of its equations (:func:`test_mlde.exact_step`: the transposed
    step matrix at step n, then the right-hand side at 2^-Q as the step
    unpacks it) and its x."""
    steps = []
    compiled = vvmf.mlde._compiled_step

    def recorded(R, r, pattern):
        step = compiled(R, r, pattern)

        def run(acc, mats, shift, width, p):
            out = step(acc, mats, shift, width, p)
            acc, mask, half = list(acc), (1 << width) - 1, 1 << (width - 1)
            for l, mat in enumerate(mats):
                rhs = [((a & mask) ^ half) - half if l < r - 1 else a for a in acc]
                acc = [(a - v) >> width for a, v in zip(acc, rhs)]
                m = [[mat[i * R + j] + shift * (i == j) for j in range(R)] + [rhs[i] >> p]
                     for i in range(R)]
                steps.append((pattern, m, p, out[0][l * R:(l + 1) * R]))
            return out
        return run

    patch.setattr(vvmf.mlde, "_compiled_step", recorded)
    return steps


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.sampled_from(["cyclic4", "noncyclic", "induction"]))
def test_free_blocks_are_within_their_tested_bound(catalog40, seed, shape):
    # the free block of a complex rank-4 cyclic or noncyclic step is 2 x 2
    # and the induction pair's is its whole 4 x 4 matrix, eliminated on
    # rounded entries: each of its x is within 2^12 (1 + 2^-p max|xi|) of
    # the exact solution xi of the step's equations, the bound the
    # docstring of vvmf.mlde._step_source states as tested.  Over 300
    # draws of each shape the largest ratio was about 1030 (2 x 2, at
    # exponent gaps near 0.05 from an integer) and 164 (4 x 4)
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        steps = record_steps(patch)
        if shape == "induction":
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            job = make_job(r=rng.uniform(0.05, 0.45), a=a, trace=Fraction(rng.randint(1, 6), 3))
            vvmf.constructions._induction_stage(job, 6, catalog40)
        else:
            with qline_precision():
                qline_solve(*equation_args(rng, shape, False, 12, catalog40))
    assert steps
    for pattern, m, p, x in steps:
        R = len(m)
        free, _, _ = unit_chain(pattern, R)
        assert len(free) == (R if shape == "induction" else 2)
        xi = exact_step(m, p)
        bound = 2**12 * (1 + Fraction(max(map(abs, xi)), 1 << p))
        assert all(abs(x[f] - xi[f]) <= bound for f in free)


@pytest.mark.parametrize("seed, r", [(11, 1), (12, 2), (13, 3), (14, 4)])
def test_short_series_tail_ends_its_dot_products(catalog40, seed, r):
    # 1 + 3q - 2q^2 carries a tail of two coefficients into a solve of order
    # 24, so from X_3 on each of its dot products ends with the tail, not
    # with the history; its constant term is taken back out of M_0, so the
    # seeds stay left null vectors
    order = 24
    with qline_precision():
        weights, system, lams, seeds = random_system(random.Random(seed), r, order, Nome.Q,
                                                     10**6, real=True)
        entries = {(0, r - 1): 0.75, (r - 1, 0): -1.25}
        for ij, v in entries.items():
            system[0][0][ij] = system[0][0].get(ij, 0) - v
        system.append((entries, PuiseuxSeries.polynomial(Nome.Q, [1, 3, -2], order)))
        args = (weights, system, lams, seeds, order, catalog40)
        assert mantissas(qline_solve(*args)) == per_exponent_solve(*args, step=gaussian_step)

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
    return tensor_route(5)


def induction_route(order, catalog):
    return [induction_pipeline(make_job(0.27), order, catalog)]


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


def test_tensor_grid_at_order_200():
    catalog = ClassicalCatalog(200)
    gate([tensor_route(member)(200, catalog) for member in range(len(tensor_grid()))], 200)


def test_induction_order_sweep(monkeypatch):
    job = make_job(0.27)
    for order in (20, 80, 200):
        catalog = ClassicalCatalog(order)
        gate(induction_route(order, catalog), order)
    pair = minimal_pair(job, 200, catalog)
    finer(monkeypatch)
    assert minimal_pair(job, 200, catalog) == pair


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


@pytest.mark.slow
@pytest.mark.parametrize("route", ["cyclic", "tensor"])
def test_order_800_rows_match_one_recursion_per_exponent(monkeypatch, route, catalog800):
    # against the solver, not frozen digests
    solves = []
    solve = vvmf.mlde.qline_solve

    def checked(*args):
        rows = solve(*args)
        solves.append(mantissas(rows) == per_exponent_solve(*args))
        return rows

    for module in (vvmf.mlde, vvmf.constructions):
        monkeypatch.setattr(module, "qline_solve", checked)
    (generic_route(7, 1) if route == "cyclic" else tensor_route(5))(800, catalog800)
    assert solves == [True]


@pytest.mark.slow
@pytest.mark.parametrize("member, order", [(5, 600)] + [(m, 800) for m in range(10)])
def test_tensor_grid_holds_at_more_digits_at_high_order(monkeypatch, member, order):
    # the Kronecker products of the closed basis lost about 4 decades per
    # 100 orders on member 5: at order 600 they passed the gate with 1,494
    # numbers off a +50-digit run, at 800 they failed it at 4.0e-6.  The
    # rank-4 solve gives the same doubles at 50 more digits and passes
    pipeline, catalog = tensor_route(member), ClassicalCatalog(order)
    basis = pipeline(order, catalog)
    gate([basis], order)
    monkeypatch.setattr(vvmf.mlde, "QLINE_DPS", vvmf.mlde.QLINE_DPS + 50)
    assert pipeline(order, catalog).forms == basis.forms


@pytest.mark.slow
@pytest.mark.parametrize("order", [200, 800])
def test_sym3_bytes_do_not_follow_the_working_precision(monkeypatch, order):
    # the cube of the benchmark's ladder member once followed QLINE_DPS in
    # its last bits (6 coefficients off the 100-digit run at 30, 50 and 80
    # digits), when its rank-2 form solved at exponents rebuilt a few ulps
    # from the job's; at the job's own exponents it emits the same bytes
    payload = inputs.make_job("sym3", inputs.LADDER["sym3"], order, POOLS).payload
    texts = set()
    for dps in (30, 40, 50, 80, 100):
        monkeypatch.setattr(vvmf.mlde, "QLINE_DPS", dps)
        texts.add(emit(run(JobSpec.from_json(dict(payload)))))
    assert len(texts) == 1
