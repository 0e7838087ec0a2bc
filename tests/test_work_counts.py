"""Each pipeline computes every expensive quantity once, and no route touches
a hauptmodul: the q-line solves per system and exponent, the modular
derivatives, and the hauptmodul-side calls of the closed, generic and
induction routes are counted at every module that binds them.  The q-line
block runs in integers: no route makes an mpmath dot product or multiplies
series of mpmath numbers."""

import cmath
import math

import mpmath
import numpy as np
import pytest

import vvmf.classical
import vvmf.cli
import vvmf.constructions
import vvmf.mlde
import vvmf.series
from vvmf.classical import ClassicalCatalog
from vvmf.constructions import (
    InductionJob,
    induction_pipeline,
    rank2_minimal,
    sym3_pipeline,
    tensor_pipeline,
)
from vvmf.mlde import generic_basis, solve_minimal_form
from vvmf.reps import ExponentData, GRank2Rep, Group, Rank2Rep, Rank4Rep
from vvmf.series import FormStack, PuiseuxSeries

MODULES = (vvmf.series, vvmf.mlde, vvmf.constructions)


def count_calls(monkeypatch, home, name: str) -> list:
    """Replace the function ``home.name`` at each of its binding sites (or the
    method ``name`` of the class ``home``) by a wrapper that records the
    positional arguments of every call."""
    calls = []
    original = getattr(home, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if isinstance(home, type):
        monkeypatch.setattr(home, name, wrapper)
    for mod in MODULES:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def count_hauptmodul_work(monkeypatch) -> dict:
    """Calls of every function that substitutes or builds a hauptmodul, or
    divides series."""
    return {
        "compose_frobenius": count_calls(monkeypatch, vvmf.series, "compose_frobenius"),
        "divide": count_calls(monkeypatch, PuiseuxSeries, "divide"),
        "k_hauptmodul": count_calls(monkeypatch, ClassicalCatalog, "k_hauptmodul"),
        "z_hauptmodul": count_calls(monkeypatch, ClassicalCatalog, "z_hauptmodul"),
    }


def rank2_data(s, delta):
    r1, r2 = (s / 6 + delta) / 2, (s / 6 - delta) / 2
    rep = Rank2Rep(
        cmath.exp(2j * cmath.pi * r1), cmath.exp(2j * cmath.pi * r2)
    )
    return rep, ExponentData([r1, r2])


def generic_data(m, d):
    eigs = [0.11, 0.18, 0.31, m / 3 - 0.6]
    rep = Rank4Rep(*[cmath.exp(2j * cmath.pi * v) for v in eigs], d=d, e=0)
    return rep, ExponentData(eigs)


def distinct_exponents(calls) -> int:
    # qline_solve(weights, system, lams, seeds, order, catalog)
    return len({(round(complex(lam).real, 12), round(complex(lam).imag, 12))
                for a in calls for lam in a[2]})


def test_tensor_solves_each_exponent_once(monkeypatch, catalog40):
    calls = count_calls(monkeypatch, vvmf.series, "compose_frobenius")
    solves = count_calls(monkeypatch, vvmf.mlde, "qline_solve")
    divides = count_calls(monkeypatch, PuiseuxSeries, "divide")
    # first member of the acceptance suite's tensor grid
    alpha, L1 = rank2_data(1, 0.21)
    beta, L2 = rank2_data(2, 0.13)
    basis = tensor_pipeline(alpha, beta, L1, L2, 20, catalog40)
    assert basis.residuals["col3_dg_e4f"] < 1e-9
    assert calls == []
    # one rank-4 q-line solve at the four tensor exponents: no rank-2
    # factor is solved, no Kronecker product formed, no series divided
    assert len(solves) == 1 and distinct_exponents(solves) == 4
    assert not hasattr(vvmf.constructions, "_kronecker")
    assert divides == []


def test_noncyclic_solves_each_exponent_once(monkeypatch, catalog40):
    calls = count_calls(monkeypatch, vvmf.mlde, "qline_solve")
    rep, L = generic_data(8, 5)
    basis = generic_basis(rep, L, 20, catalog40)
    assert basis.case.case == "noncyclic"
    assert basis.residuals["col3_dg_e4f"] < 1e-12
    assert len(calls) == 1 and distinct_exponents(calls) == 4


def run_route(route: str, order: int = 20):
    catalog = ClassicalCatalog(order)
    alpha, L1 = rank2_data(1, 0.21)
    if route == "sym3":
        return sym3_pipeline(alpha, L1, order, catalog)
    if route == "tensor":
        beta, L2 = rank2_data(2, 0.13)
        return tensor_pipeline(alpha, beta, L1, L2, order, catalog)
    if route == "induction":
        return induction_pipeline(induction_job(), order // 2, catalog)
    return generic_basis(*generic_data(*{"cyclic": (7, 1), "noncyclic": (8, 5)}[route]),
                         order, catalog)


@pytest.mark.parametrize("route, solves", [
    ("sym3", 1), ("tensor", 1), ("cyclic", 1), ("noncyclic", 1), ("induction", 1)])
def test_one_solve_per_system(monkeypatch, route, solves):
    # every exponent of a system is solved in one call: the rank-2 pair of
    # the cube, the rank-4 system of the tensor and generic routes, the
    # induction pair
    calls = count_calls(monkeypatch, vvmf.mlde, "qline_solve")
    run_route(route)
    assert len(calls) == solves
    assert all(len(a[2]) == len(a[0]) for a in calls)


@pytest.mark.parametrize("route, derivatives", [("tensor", 4), ("induction", 10)])
def test_modular_derivatives_are_taken_once(monkeypatch, route, derivatives):
    # the tensor route checks its relations on DF, D DF, DG and DH of its
    # four emitted forms, in one pass; induction takes D of the pair A, B,
    # then of the lower half F|T^-1 of each induced form, whose upper half
    # D F the pair check took, and DF, D^2F and D^3F of each induced form
    calls = count_calls(monkeypatch, vvmf.mlde, "modular_derivative")
    run_route(route)
    assert sum(len(X.weights) for X, _ in calls) == derivatives
    # no component is differentiated twice
    rows = [row.tobytes() for X, _ in calls for form in X.z for row in form]
    assert len(rows) == len(set(rows)) == {"tensor": 16, "induction": 32}[route]


def test_relations_are_checked_by_the_system_residual():
    # the hand-written residuals beside system_residuals are gone, and so is
    # the rank-4 re-solve of the tensor basis
    assert not hasattr(vvmf.constructions, "induction_relation_residual")
    assert not hasattr(vvmf.cli, "_rank2_mlde_residual")
    assert not hasattr(vvmf.mlde, "assemble_noncyclic_basis")


@pytest.mark.parametrize("route", ["sym3", "cyclic"])
def test_identity_blocks_make_no_product(monkeypatch, route):
    # the chain columns D X_j = X_{j+1} of the cyclic system multiply by the
    # unit series, which system_residuals skips: no convolution has a unit
    # operand, and the only series products are the catalog's exact ones
    calls = count_calls(monkeypatch, vvmf.series, "_convolve")
    products = count_calls(monkeypatch, PuiseuxSeries, "__mul__")
    basis = run_route(route)
    assert basis.case.case == "cyclic" and basis.residuals["cyclic_mlde"] < 1e-9
    assert calls and all(type(c) is int for a in products for s in a[:2] for c in s.coeffs)
    assert not any(x[0] == 1 and not x[1:].any() for a in calls for x in a[:2])


@pytest.mark.parametrize("route, columns", [("sym3", 1), ("induction", 4)])
def test_assembly_checks_only_its_equation_column(monkeypatch, route, columns):
    # a cyclic basis records its equation column alone; the chain columns
    # D X_j = X_{j+1} hold by construction.  Induction also checks both
    # columns of its pair system.
    checked = []
    check = vvmf.mlde.system_residuals

    def counting(*args, **kwargs):
        out = check(*args, **kwargs)
        checked.extend(out)
        return out

    for mod in MODULES:
        if getattr(mod, "system_residuals", None) is check:
            monkeypatch.setattr(mod, "system_residuals", counting)
    run_route(route)
    assert len(checked) == columns


@pytest.mark.parametrize("m, d", [(7, 1), (8, 5)], ids=["cyclic", "noncyclic"])
def test_generic_route_touches_no_hauptmodul(monkeypatch, m, d):
    catalog = ClassicalCatalog(20)
    counts = count_hauptmodul_work(monkeypatch)
    rep, L = generic_data(m, d)
    generic_basis(rep, L, 20, catalog)
    solve_minimal_form(rep, L, 20, catalog)
    assert {k: len(v) for k, v in counts.items()} == dict.fromkeys(counts, 0)


def test_closed_routes_touch_no_hauptmodul(monkeypatch):
    catalog = ClassicalCatalog(20)
    counts = count_hauptmodul_work(monkeypatch)
    alpha, L1 = rank2_data(1, 0.21)
    beta, L2 = rank2_data(2, 0.13)
    rank2_minimal(alpha, L1, 20, catalog)
    sym3_pipeline(alpha, L1, 20, catalog)
    tensor_pipeline(alpha, beta, L1, L2, 20, catalog)
    assert {k: len(v) for k, v in counts.items()} == dict.fromkeys(counts, 0)


def test_induction_route_touches_no_hauptmodul(monkeypatch):
    catalog = ClassicalCatalog(10)
    counts = count_hauptmodul_work(monkeypatch)
    induction_pipeline(induction_job(), 10, catalog)
    assert {k: len(v) for k, v in counts.items()} == dict.fromkeys(counts, 0)


def count_mp_work(monkeypatch) -> dict:
    """Calls of mpmath.fdot, and series products with an mpmath
    coefficient."""
    counts = {"fdot": [], "mp_products": []}
    fdot, mul = mpmath.fdot, PuiseuxSeries.__mul__

    def counting_fdot(*args, **kwargs):
        counts["fdot"].append(args)
        return fdot(*args, **kwargs)

    def counting_mul(a, b):
        if isinstance(b, PuiseuxSeries) and any(
            isinstance(c, (mpmath.mpf, mpmath.mpc)) for c in a.coeffs + b.coeffs
        ):
            counts["mp_products"].append((a, b))
        return mul(a, b)

    monkeypatch.setattr(mpmath, "fdot", counting_fdot)
    monkeypatch.setattr(PuiseuxSeries, "__mul__", counting_mul)
    return counts


def induction_job() -> InductionJob:
    zeta = cmath.exp(2j * cmath.pi / 3)
    rep = GRank2Rep(0, 1, zeta, zeta**2, 0.7 + 0.2j)
    L = ExponentData([1 / 3 + 0.11, 1 / 3 - 0.11], Group.G)
    r = 0.27
    return InductionJob(rep, L, -(r * r) / (16 * cmath.exp(2j * cmath.pi / 6)))


@pytest.mark.parametrize("route", ["cyclic", "noncyclic", "induction", "closed", "closed-complex"])
def test_qline_block_runs_in_integers(monkeypatch, route):
    # the solve convolves and eliminates in fixed-point integers, and the
    # cube multiplies fixed-point mantissas
    catalog = ClassicalCatalog(20)
    counts = count_mp_work(monkeypatch)
    complex_products = count_calls(monkeypatch, vvmf.series, "_complex_mul")
    if route == "induction":
        induction_pipeline(induction_job(), 10, catalog)
    elif route.startswith("closed"):
        # real rows, or a factor with a complex exponent gap and complex rows
        alpha, L1 = rank2_data(1, 0.21) if route == "closed" else rank2_data(5, 0.13 + 0.07j)
        beta, L2 = rank2_data(2, 0.13)
        rank2_minimal(alpha, L1, 20, catalog)
        sym3_pipeline(alpha, L1, 20, catalog)
        tensor_pipeline(alpha, beta, L1, L2, 20, catalog)
    else:
        generic_basis(*generic_data(*{"cyclic": (7, 1), "noncyclic": (8, 5)}[route]), 20, catalog)
    assert counts["fdot"] == [] and counts["mp_products"] == []
    if route == "closed":
        # real rows pair up: the cube's two squares and two paired products,
        # one complex limb convolution each; the tensor route's rank-4 solve
        # makes none
        assert len(complex_products) == 4
    elif route == "closed-complex":
        # complex rows keep one convolution per product: the cube's 6
        assert len(complex_products) == 6


def test_double_products_run_in_numpy(monkeypatch):
    # the products of the modular derivatives and column relations on the
    # emitted doubles are long double numpy convolutions, each one call of
    # the kernel: 16 components times E_2, and the 3 products of the
    # equation column of each of the 4 forms
    calls = count_calls(monkeypatch, vvmf.series, "_convolve")
    operands = []
    convolve = np.convolve

    def counting_convolve(a, v, *args, **kwargs):
        operands.append((a.dtype, v.dtype))
        return convolve(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "convolve", counting_convolve)
    basis = generic_basis(*generic_data(7, 1), 40, ClassicalCatalog(40))
    assert basis.case.case == "cyclic"
    assert len(calls) == len(operands) == 16 + 12
    assert set(operands) == {(np.dtype(np.clongdouble),) * 2}


@pytest.mark.parametrize("route", ["sym3", "tensor", "cyclic", "noncyclic", "induction"])
def test_each_series_is_converted_once(monkeypatch, route):
    # the double check reads each emitted form component and each catalog
    # series into an array once per job; derivatives and products stay
    # arrays from there
    converted = []
    of = FormStack.of

    def counting_of(forms):
        converted.extend(c.coeffs for F in forms for c in F.components)
        return of(forms)

    monkeypatch.setattr(FormStack, "of", staticmethod(counting_of))
    run_route(route)
    catalog_series = [c for c in converted if all(type(x) is int for x in c)]
    assert len(catalog_series) == {"induction": 6, "noncyclic": 2, "tensor": 2}.get(route, 4)
    assert len(set(converted)) == len(converted)


def test_k_is_one_exact_division(monkeypatch):
    divides = count_calls(monkeypatch, PuiseuxSeries, "divide")
    inverts = count_calls(monkeypatch, PuiseuxSeries, "invert")
    k = ClassicalCatalog(40).k_hauptmodul()
    # 1728 Delta / E_4^3 by forward substitution; (E_4^3)^-1 is never formed
    assert len(divides) == 1 and inverts == []
    assert all(type(c) is int for c in k.coeffs)


def test_k_is_divided_once_per_process(monkeypatch):
    # the exact series live for the process at the largest order asked for:
    # K at 800 serves the order-50 level-two suite, the K job at 800 and the
    # check at 200, whose catalogs read prefixes
    divides = count_calls(monkeypatch, PuiseuxSeries, "divide")
    vvmf.cli.run(vvmf.cli.JobSpec.from_json({"command": "check", "order": 800}))
    with pytest.raises(OverflowError, match="coefficient 128 of an order-800 q-series"):
        vvmf.cli.run(vvmf.cli.JobSpec.from_json({"command": "classical", "name": "K",
                                                 "order": 800}))
    vvmf.cli.run(vvmf.cli.JobSpec.from_json({"command": "check", "order": 200}))
    assert len(divides) == 1


@pytest.mark.parametrize("power, products", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3)])
def test_power_starts_from_the_base(monkeypatch, power, products):
    # square and multiply from the lowest set bit of the exponent, with no
    # product by the unit series
    x = ClassicalCatalog(40).eisenstein(4)
    want = x
    for _ in range(power - 1):
        want = want * x
    calls = count_calls(monkeypatch, PuiseuxSeries, "__mul__")
    assert (x ** power).coeffs == want.coeffs
    assert len(calls) == products


def test_check_job_multiplies_out_e4_cubed_once(monkeypatch):
    # j, K and the level-one identity E4^3 - E6^2 = 1728 Delta share the one
    # memoized E4^3 of the catalog
    e4 = ClassicalCatalog(200).eisenstein(4)
    factors = {e4.coeffs, (e4 * e4).coeffs}
    calls = count_calls(monkeypatch, PuiseuxSeries, "__mul__")
    vvmf.cli.run(vvmf.cli.JobSpec.from_json({"command": "check", "order": 20}))
    cubes = [a for a in calls if {s.coeffs for s in a[:2]} == factors]
    assert len(cubes) == 1


def count_products(monkeypatch) -> dict:
    """Series products of exact ints, and of doubles (any other builtin
    number among the coefficients)."""
    counts = {"int": 0, "double": 0}
    mul = PuiseuxSeries.__mul__

    def counting_mul(a, b):
        if isinstance(b, PuiseuxSeries):
            types = {type(c) for c in a.coeffs + b.coeffs}
            assert types <= {int, float, complex}
            counts["int" if types == {int} else "double"] += 1
        return mul(a, b)

    monkeypatch.setattr(PuiseuxSeries, "__mul__", counting_mul)
    return counts


def test_check_job_forms_each_product_once(monkeypatch):
    # on a cleared store the level-one suite makes E4^2, E4^3 and j, and
    # evaluates its residual products at a point modulo a prime; the
    # level-two suite makes h, Z and 17 residual products (D f and D^2 f
    # take theirs in the stack pass).  A second check job reads E4^2, E4^3,
    # j, h and Z and the level-two residuals from the store
    counts = count_products(monkeypatch)
    job = {"command": "check", "order": 20}
    vvmf.cli.run(vvmf.cli.JobSpec.from_json(job))
    assert counts == {"int": 3, "double": 19}
    vvmf.cli.run(vvmf.cli.JobSpec.from_json(job))
    assert counts == {"int": 3, "double": 19}


def test_warm_check_job_forms_no_exact_product(monkeypatch):
    # every level-one identity reads 0 at the process's point modulo its
    # prime, from residues reduced once per stored series: a warm check at
    # order 800 multiplies no exact series and reduces none
    job = vvmf.cli.JobSpec.from_json({"command": "check", "order": 800})
    vvmf.cli.run(job)
    counts = count_products(monkeypatch)
    kernels = [count_calls(monkeypatch, vvmf.series, name)
               for name in ("_kronecker_mul", "_loop_mul")]
    reductions = []
    reduce = vvmf.classical._weighted_residues
    monkeypatch.setattr(vvmf.classical, "_weighted_residues",
                        lambda *args: reductions.append(args) or reduce(*args))
    env = vvmf.cli.run(job)
    assert all(env.residuals[key] == 0.0 for key in vvmf.classical._LEVEL_ONE_FORMS)
    assert counts["int"] == 0 and kernels == [[], []] and reductions == []


def test_check_job_forms_no_full_width_product_on_a_true_identity(monkeypatch):
    # j K = 1728 reads 1728 modulo the process's prime, so the check never
    # multiplies j by K at full width: every product at order 800 is packed
    loop = count_calls(monkeypatch, vvmf.series, "_loop_mul")
    env = vvmf.cli.run(vvmf.cli.JobSpec.from_json({"command": "check", "order": 800}))
    assert env.residuals["j*K=1728"] == 0.0
    assert loop == []


def test_check_job_forms_the_exact_j_times_k_once_on_a_broken_identity(monkeypatch):
    catalog = ClassicalCatalog(800)
    j, k = catalog.j_invariant(), catalog.k_hauptmodul()
    broken = PuiseuxSeries(k.nome, k.lead_exponent, k.coeffs[:7] + (k.coeffs[7] - 1,) + k.coeffs[8:])
    monkeypatch.setitem(vvmf.classical._EXACT_SERIES, "K", broken)
    products = count_calls(monkeypatch, PuiseuxSeries, "__mul__")
    env = vvmf.cli.run(vvmf.cli.JobSpec.from_json({"command": "check", "order": 800}))
    assert 0 < env.residuals["j*K=1728"] < math.inf
    assert [a for a in products if a[0] is j and a[1] is broken] == [(j, broken)]


def test_h_inverts_once_per_process(monkeypatch):
    # the h job at 800 builds h; the jobs at 400 and 200 read prefixes
    inverses = count_calls(monkeypatch, PuiseuxSeries, "invert")
    for order in (800, 400, 200):
        job = {"command": "classical", "name": "h", "order": order}
        series = vvmf.cli.run(vvmf.cli.JobSpec.from_json(job)).series
        assert len(series["coeffs"]) == 2 * order + 1
    assert [(s.nome, s.order) for (s,) in inverses] == [(vvmf.series.Nome.Q, 800)]


def test_z_raises_from_the_lowest_order_that_overflowed(monkeypatch):
    # Z at 200 overflows; Z at 400 and 800 raise their own line without an
    # inverse, and Z at 127, below that order, still builds
    inverses = count_calls(monkeypatch, PuiseuxSeries, "inverse_terms")
    for order in (200, 400, 800):
        job = {"command": "classical", "name": "Z", "order": order}
        with pytest.raises(OverflowError, match=rf"q2-order {2 * order} \(order {order}\)$"):
            vvmf.cli.run(vvmf.cli.JobSpec.from_json(job))
    assert len(inverses) == 1
    assert ClassicalCatalog(127).z_hauptmodul().order == 254
    assert len(inverses) == 2


def test_building_blocks_make_no_product_or_inverse(monkeypatch):
    # every eta power comes from the power recurrence and the theta fourth
    # powers from divisor sums: no series product and no inversion
    products = count_calls(monkeypatch, PuiseuxSeries, "__mul__")
    inverses = count_calls(monkeypatch, PuiseuxSeries, "invert")
    catalog = ClassicalCatalog(200)
    for m in range(-24, 25):
        catalog.eta_power(m)
    catalog.theta_fourth_powers()
    assert products == [] and inverses == []


def test_j_multiplies_once_and_inverts_nothing(monkeypatch):
    catalog = ClassicalCatalog(200)
    catalog.e4_cubed()
    products = count_calls(monkeypatch, PuiseuxSeries, "__mul__")
    inverses = count_calls(monkeypatch, PuiseuxSeries, "invert")
    catalog.j_invariant()
    assert len(products) == 1 and inverses == []


def test_induction_slashes_each_component_once(monkeypatch):
    # the induced form is (F, F|T^-1): one slash per component of each form
    # of the pair, and no other pass over the q2-parts
    calls = count_calls(monkeypatch, PuiseuxSeries, "slash_t_inverse")
    bases = run_route("induction")
    assert len(calls) == 4
    assert {id(args[0]) for args in calls} == {
        id(c) for fb in bases for c in fb.forms[0].components[:2]}


def test_induction_forms_the_induced_equation_once(monkeypatch):
    # A and B come from the same rows and declare the same exponents, so
    # both twists assemble against one set of induced cyclic coefficients
    calls = count_calls(monkeypatch, vvmf.mlde, "cyclic_coeffs")
    run_route("induction")
    assert len(calls) == 1


def test_h_inverts_once_on_the_q_series(monkeypatch):
    # E6 and eta^12 are series in q = q2^2: the one inverse runs on the
    # order-200 q-series, not on the q2-series of order 400
    inverses = count_calls(monkeypatch, PuiseuxSeries, "invert")
    ClassicalCatalog(200).h_series()
    assert [(s.nome, s.order) for (s,) in inverses] == [(vvmf.series.Nome.Q, 200)]
