"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are pinned here; run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion report.
"""

import cmath
import time
from fractions import Fraction

import mpmath
import numpy as np

from vvmf.classical import ClassicalCatalog
from vvmf.constructions import (
    InductionJob,
    exhibited_exponents,
    induction_pipeline,
    induction_system,
    rank2_minimal,
    sym3_pipeline,
    tensor_pipeline,
)
from vvmf.mlde import (
    dimension,
    classify,
    indicial_shifts,
    modular_derivative,
    noncyclic_coeffs,
    system_residuals,
)
from vvmf.reps import (
    ExponentData,
    GRank2Rep,
    Group,
    Rank2Rep,
    Rank4Rep,
    induced_exponents,
    tensor_exponents,
)
from vvmf.series import FormStack, Nome, VectorSeries, compose_frobenius

from oracles import (
    build_hypergeometric_operator,
    build_noncyclic_operator,
    build_rank2_operator,
    composition_dps,
    downcast_to_complex,
    frobenius_solve,
    hypergeom_2f1,
    operator_residual,
    rank2_coeff,
    rank2_kline_pair,
    u_from_local_exponent,
)

ZETA = cmath.exp(2j * cmath.pi / 3)


def report(name: str, worst: float, tol: float, extra: str = "") -> None:
    status = "PASS" if worst < tol else "FAIL"
    print(f"{status} {name}: worst {worst:.3e} < {tol:.1e} {extra}")
    assert worst < tol, f"{name}: {worst} >= {tol}"


def rank2_data(r1, r2):
    rep = Rank2Rep(
        cmath.exp(2j * cmath.pi * r1), cmath.exp(2j * cmath.pi * r2)
    )
    return rep, ExponentData([r1, r2])


def kline_closed_form(factors, order, catalog):
    """The K-line route to a Kronecker product of rank-2 minimal forms.

    ``factors`` holds one (build_pair, k1) per rank-2 factor; build_pair()
    returns its weight-zero K-line pair and runs inside the working-precision
    block, so the pair is exact there.  Each pair is substituted into K(q)
    at ``composition_dps`` digits and rescaled by eta^{2 k1}, and the
    Kronecker products are formed before the one downcast: the composed
    series still carry cancellation digits that doubles would drop.
    Returns the K-line product and its q-expansion, both in double."""
    k_of_q = catalog.k_hauptmodul().truncate(order)
    with mpmath.workdps(composition_dps(k_of_q)):
        kline = qline = None
        for build_pair, k1 in factors:
            pair = build_pair()
            eta = catalog.eta_power(2 * k1)
            form = [compose_frobenius(s, k_of_q) * eta for s in pair]
            if kline is None:
                kline, qline = pair, form
            else:
                kline = [a * b for a in kline for b in pair]
                qline = [a * b for a in qline for b in form]
        return ([downcast_to_complex(s) for s in kline],
                [downcast_to_complex(s) for s in qline])


def deviation(got, want) -> float:
    """Largest coefficient difference over the largest coefficient of ``want``."""
    scale = max(abs(complex(c)) for c in want.coeffs) or 1.0
    diffs = (abs(complex(a) - complex(b)) for a, b in zip(got.coeffs, want.coeffs, strict=True))
    return max(diffs) / scale


#: per-coefficient bound of :func:`freeness_deviation`.  Rounding the
#: emitted doubles moves a determinant coefficient by a few 2^-53 of its
#: Leibniz magnitude; every basis the tests check reads 1e-15 or less.
FREENESS_TOL = 1e-12


def euler_power(m: int, n_max: int) -> list[int]:
    """prod_{n>=1} (1 - q^n)^m through q^n_max, one factor at a time
    (dividing by it for m < 0)."""
    coeffs = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        for _ in range(abs(m)):
            if m > 0:
                for i in range(n_max, n - 1, -1):
                    coeffs[i] -= coeffs[i - n]
            else:
                for i in range(n, n_max + 1):
                    coeffs[i] += coeffs[i - n]
    return coeffs


def freeness_deviation(forms) -> float:
    """Freeness oracle (Marks and Mason, J. London Math. Soc. 82, 2010): the
    determinant D of a free basis F_1..F_r, with the forms as rows and their
    components as columns, is c eta^{2 sum k} with c != 0, where sum k is
    the sum of the weights.

    D is formed from the emitted doubles at 80 digits by expanding column
    after column over the sets of rows used so far, each column's entries
    aligned at its lowest exponent.  L is the same expansion in absolute
    values, so L_n is the size of the terms that cancel into D_n.  c is read
    at the first coefficient of eta^{2 sum k}: AssertionError unless |D_n|
    there exceeds 1e-9 of L_n, since a dependent basis leaves only rounding.
    Returns max_n |D_n - c E_n| / L_n over the common window, with E the
    coefficients of eta^{2 sum k} (in q2 = q^(1/2) for forms in q2).

    D sees the volume of the basis, not each form: adding a series multiple
    of one row to another leaves it unchanged, and an error in a high
    coefficient is measured against the large L_n it enters (on the cyclic
    route at order 25, 1e-9 of coefficient 1 of one entry reads 8e-12, and
    1e-5 of coefficient 20 reads 5e-16)."""
    r = len(forms)
    m = 2 * sum(Fraction(f.weight) for f in forms)
    assert m.denominator == 1
    step = 2 if forms[0].nome is Nome.Q2 else 1
    with mpmath.workdps(80):
        cols, lead = [], 0
        for j in range(r):
            comps = [f.components[j] for f in forms]
            base = min(complex(c.lead_exponent).real for c in comps)
            lead += base
            cols.append([[0] * round(complex(c.lead_exponent).real - base)
                         + [mpmath.mpc(complex(x)) for x in c.coeffs] for c in comps])
        n = min(len(s) for col in cols for s in col)

        def conv(a, b):
            return [mpmath.fsum(a[k] * b[i - k] for k in range(i + 1)) for i in range(n)]

        unit = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (n - 1)
        minors = {(): (unit, unit)}  # rows used by the columns so far -> (D, L)
        for col in cols:
            grown = {}
            for rows, (d, size) in minors.items():
                for i in set(range(r)) - set(rows):
                    sign = (-1) ** sum(u > i for u in rows)
                    term = conv(d, col[i])
                    mag = conv(size, [abs(x) for x in col[i]])
                    key = tuple(sorted(rows + (i,)))
                    old = grown.get(key, ([0] * n, [0] * n))
                    grown[key] = ([x + sign * y for x, y in zip(old[0], term)],
                                  [x + y for x, y in zip(old[1], mag)])
            minors = grown
        (d, size), = minors.values()
        gap = float(m) * step / 24 - lead  # eta^{2 sum k} starts this far above D
        shift = round(gap)
        assert abs(gap - shift) < 1e-9 and 0 <= shift < n, (m, lead)
        e = [0] * n
        for k, v in enumerate(euler_power(int(m), (n - shift) // step)):
            if shift + step * k < n:
                e[shift + step * k] = v
        assert abs(d[shift]) > 1e-9 * size[shift], "the determinant vanishes: not a free basis"
        c = d[shift] / e[shift]
        return float(max(abs(x - c * y) / s for x, y, s in zip(d, e, size) if s))


def test_criterion_1_classical_identity_suite():
    t0 = time.perf_counter()
    res = ClassicalCatalog(200).level_one_residuals()
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (classical identities, order 200)",
        max(res.values()),
        1e-10,
        f"in {elapsed:.2f}s",
    )
    assert elapsed < 2.0, f"classical suite took {elapsed:.2f}s (budget 2s)"


def test_criterion_2_level_two_suite():
    res = ClassicalCatalog(50).level_two_residuals()  # q2-order 100
    report("criterion 2 (level-2 generators, q2-order 100)", max(res.values()), 1e-10)


def test_criterion_3_hypergeometric_cross_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = 0
    while cases < 20:
        a = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        b = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        c = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        if abs(c - round(c.real)) < 0.2 and c.real <= 0.5:
            continue
        series = hypergeom_2f1(a, b, c, 100)
        sol = frobenius_solve(build_hypergeometric_operator(a, b, c), 0, 100)
        diff = sol - series
        worst = max(
            worst,
            max(
                abs(complex(d)) / max(1.0, abs(complex(s)))
                for d, s in zip(diff.coeffs, series.coeffs)
            ),
        )
        cases += 1
    report("criterion 3 (2F1 vs Frobenius, 20 cases, order 100)", worst, 1e-12)


def sym3_grid():
    # T-regular pairs with r1 - r2 never in (1/3)Z or (1/2)Z (Sym^3 regular
    # and non-resonant) and x^2 - xy + y^2 != 0
    deltas = [0.21, 0.29, 0.37 + 0.05j, 0.41, 0.23 - 0.11j, 0.44]
    cases = []
    for i, s in enumerate((1, 2, 3, 4, 5, 7, 8, 10, 11, 13)):
        d = deltas[i % len(deltas)]
        cases.append(((s / 6 + d) / 2, (s / 6 - d) / 2))
    return cases


def test_criterion_4_sym3_end_to_end(catalog40):
    t0 = time.perf_counter()
    worst = 0.0
    for r1, r2 in sym3_grid():
        rep, L = rank2_data(r1, r2)
        basis = sym3_pipeline(rep, L, 30, catalog40)
        worst = max(worst, basis.residuals["cyclic_mlde"])
        assert basis.case.case == "cyclic"
        assert freeness_deviation(basis.forms) < FREENESS_TOL
    elapsed = time.perf_counter() - t0
    report(
        "criterion 4 (Sym^3 end-to-end, 10 pairs, order 30)",
        worst,
        1e-9,
        f"in {elapsed:.2f}s",
    )
    assert elapsed < 10.0, f"Sym^3 grid took {elapsed:.2f}s (budget 10s)"
    # grid member s=4, delta=0.41 at order 80: the gate fails there when the
    # rank-2 form is rounded to double before its eta rescale and cube
    rep, L = rank2_data(*sym3_grid()[3])
    basis = sym3_pipeline(rep, L, 80, ClassicalCatalog(80))
    report(
        "criterion 4 (Sym^3 grid member s=4, delta=0.41, order 80)",
        basis.residuals["cyclic_mlde"],
        1e-9,
    )


def tensor_grid():
    pairs = []
    specs = [
        (1, 0.21, 2, 0.13),
        (2, 0.17, 3, 0.29),
        (4, 0.31, 1, 0.23),
        (5, 0.13 + 0.07j, 2, 0.41),
        (3, 0.37, 3, 0.19),
        (1, 0.43, 4, 0.27),
        (2, 0.29 - 0.06j, 5, 0.11),
        (6, 0.23, 2, 0.37),
        (4, 0.19, 6, 0.31),
        (7, 0.41, 1, 0.29),
    ]
    for s1, d1, s2, d2 in specs:
        pairs.append(
            (
                ((s1 / 6 + d1) / 2, (s1 / 6 - d1) / 2),
                ((s2 / 6 + d2) / 2, (s2 / 6 - d2) / 2),
            )
        )
    return pairs


def test_criterion_5_tensor_end_to_end(catalog40):
    worst_form = 0.0
    worst_ode = 0.0
    worst_cols = 0.0
    worst_rule = 0.0
    # the grid at order 30, and grid member 5 at order 40, where the product
    # rule fails when its reference is formed from double-precision factors
    for (p1, p2), order in [(pair, 30) for pair in tensor_grid()] + [(tensor_grid()[5], 40)]:
        alpha, L1 = rank2_data(*p1)
        beta, L2 = rank2_data(*p2)
        basis = tensor_pipeline(alpha, beta, L1, L2, order, catalog40)
        ka, kb = (round((6 * sum(p) - 1).real) for p in (p1, p2))  # k1 = 6 Tr(L) - 1
        kline, closed = kline_closed_form(
            [(lambda: rank2_kline_pair(L1, order), ka),
             (lambda: rank2_kline_pair(L2, order), kb)],
            order,
            catalog40,
        )
        worst_form = max(
            worst_form,
            max(deviation(g, c) for g, c in zip(basis.forms[0].components, closed, strict=True)),
        )
        co = noncyclic_coeffs(indicial_shifts(tensor_exponents(L1, L2).eigenvalues, "noncyclic"))
        op = build_noncyclic_operator(co)
        worst_ode = max(worst_ode, max(operator_residual(op, s) for s in kline))
        worst_cols = max(
            worst_cols,
            basis.residuals["col2_d2f"],
            basis.residuals["col3_dg_e4f"],
            basis.residuals["col4_dh"],
        )
        worst_rule = max(worst_rule, basis.residuals["col1_df"])
        assert basis.case.case == "noncyclic"
        # every form leads exactly at the tensor exponents
        L12 = tensor_exponents(L1, L2).eigenvalues
        assert all(tuple(c.lead_exponent for c in form.components) == L12
                   for form in basis.forms)
    report("criterion 5a (tensor F is the K-line closed form)", worst_form, 1e-10)
    report("criterion 5a (the closed form solves the scalar equation)", worst_ode, 1e-9)
    report("criterion 5b (derivative-matrix column relations)", worst_cols, 1e-9)
    report("criterion 5d (product rule for DF)", worst_rule, 1e-9)


def test_criterion_6_weight_dimension_consistency():
    rng = np.random.default_rng(77)
    checked = {"cyclic": 0, "noncyclic": 0}
    while min(checked.values()) < 20:
        d = int(rng.integers(0, 6))
        e = (d + 1) % 2
        m = d + 3 * int(rng.integers(1, 5))
        es = list(rng.uniform(-0.3, 0.5, 3) + 1j * rng.uniform(-0.05, 0.05, 3))
        eigs = es + [m / 3 - sum(es)]
        rep = Rank4Rep(*[cmath.exp(2j * cmath.pi * v) for v in eigs], d=d, e=e)
        L = ExponentData(eigs)
        rep_case = classify(rep, L)
        top = rep_case.k1 + 24
        inv = [0] * (top + 1)
        for i4 in range(0, top + 1, 4):
            for i6 in range(0, top + 1 - i4, 6):
                inv[i4 + i6] += 1
        want = [0] * (top + 1)
        for kj in rep_case.weight_tuple:
            for n in range(top + 1 - kj):
                want[kj + n] += inv[n]
        got = [dimension(k, rep, L) for k in range(top + 1)]
        assert got == want, (rep_case, got, want)
        checked[rep_case.case] += 1
    print(
        f"PASS criterion 6 (dimension generating function): "
        f"{checked['cyclic']} cyclic + {checked['noncyclic']} noncyclic cases exact"
    )


def sorted_complex(values) -> list[complex]:
    return sorted(values, key=lambda z: (z.real, z.imag))


def q2_parity_parts(top, bottom) -> list[list[complex]]:
    """The even and odd q2-parts c +- e^{pi i lam} c|T^{-1} of an emitted
    component c (exponent lam) and its emitted partner c|T^{-1}."""
    phase = cmath.exp(1j * cmath.pi * complex(top.lead_exponent))
    return [[complex(a) + sign * phase * complex(b) for a, b in zip(top.coeffs, bottom.coeffs)]
            for sign in (1, -1)]


def test_criterion_7_induction_end_to_end():
    # every figure is read off the emitted bases: the upper half of each
    # basis' first form is the solved form of the pair, the lower half its
    # slash by T^{-1}
    catalog = ClassicalCatalog(20)  # q2-order 40
    rep = GRank2Rep(0, 1, ZETA, ZETA**2, 0.7 + 0.2j)
    L = ExponentData([1 / 3 + 0.11, 1 / 3 - 0.11], Group.G)
    worst_pair = 0.0
    worst_split = 0.0
    worst_multiset = 0.0
    for r in (0.27, 0.13 + 0.21j, 0.41, 0.05, 0.33 - 0.14j):
        job = InductionJob(rep, L, u_from_local_exponent(r))
        pair = []
        for fb in induction_pipeline(job, 20, catalog):
            G = fb.forms[0]
            half = G.rank // 2
            F = VectorSeries(G.components[:half], G.weight)
            pair.append(F)
            got = []
            for top, bottom in zip(G.components[:half], G.components[half:]):
                lam, scale = complex(top.lead_exponent), top.max_abs()
                for parity, part in enumerate(q2_parity_parts(top, bottom)):
                    worst_split = max(worst_split, max(map(abs, part[1 - parity::2])) / scale)
                    first = next(n for n in range(parity, len(part), 2) if part[n] != 0)
                    got.append((lam + first) / 2)
            want = induced_exponents(exhibited_exponents(F)).eigenvalues
            worst_multiset = max(
                worst_multiset,
                *(abs(g - w) for g, w in zip(sorted_complex(got), sorted_complex(want))),
            )
        X = FormStack.of(pair)
        system = induction_system(job.u, catalog.xi, catalog)
        worst_pair = max(worst_pair, *system_residuals(X, modular_derivative(X, catalog),
                                                       system, catalog))
    report("criterion 7a (pair derivative relation, q2-order 40)", worst_pair, 1e-9)
    report(
        "criterion 7b (induced exponent multisets)", worst_multiset, 1e-9
    )
    report("criterion 7c (even/odd q2-splitting)", worst_split, 1e-12, "(exact pattern)")


def test_criterion_8_rank2_oracle_equivalence(catalog60):
    worst = 0.0
    for (s, delta) in ((1, 0.21), (3, 0.17), (5, 0.37), (2, 0.29), (7, 0.11 + 0.06j)):
        r1, r2 = (s / 6 + delta) / 2, (s / 6 - delta) / 2
        rep, L = rank2_data(r1, r2)
        closed = rank2_minimal(rep, L, 50, catalog60)

        def frobenius_pair():
            # independent route: Frobenius-solve the rank-2 K-line operator at
            # both exponents, built at working precision with their sum pinned
            # to 1/6 exactly, so they are exact roots of the indicial polynomial
            f1 = mpmath.mpc(complex(r1 - (r1 + r2) / 2)) + mpmath.mpf(1) / 12
            f2 = mpmath.mpf(1) / 6 - f1
            op = build_rank2_operator(rank2_coeff(f1, f2))
            return [frobenius_solve(op, f, 50) for f in (f1, f2)]

        comps = kline_closed_form([(frobenius_pair, closed.k1)], 50, catalog60)[1]
        for frobenius_route, want in zip(comps, closed.components.components):
            diff = frobenius_route - want
            worst = max(
                worst,
                max(
                    abs(complex(dc)) / max(1.0, abs(complex(wc)))
                    for dc, wc in zip(diff.coeffs, want.coeffs)
                ),
            )
    report("criterion 8 (rank-2 Frobenius vs closed form, order 50)", worst, 1e-10)
