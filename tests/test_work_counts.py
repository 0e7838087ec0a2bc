"""Each pipeline computes every expensive quantity once, and no route touches
a hauptmodul: the q-line solves per system and exponent, the modular
derivatives, and the hauptmodul-side calls of the closed, generic and
induction routes are counted at every module that binds them.  The q-line
block runs in integers: no route makes an mpmath dot product or multiplies
series of mpmath numbers."""

import ast
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
from vvmf.mlde import GENERIC_ROUTE, generic_basis, qline_precision, staged
from vvmf.reps import ExponentData, GRank2Rep, Group, Rank2Rep, Rank4Rep
from vvmf.series import FormStack, Nome, PuiseuxSeries

from test_cli import generic_job, rank2_job
from test_series import count_transforms

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


#: every route's basis job, and the rank-4 and rank-2 jobs of each command
#: that stops short of a basis
JOBS = ["sym3", "tensor", "cyclic", "noncyclic", "induction", "classify", "coeffs", "minimal",
        "rank2-classify", "rank2-coeffs", "rank2-minimal", "rank2-basis"]


def run_job(route: str):
    """A job of :data:`JOBS`: a route's basis (:func:`run_route`), or a
    command's job through the CLI."""
    if route.startswith("rank2-"):
        return vvmf.cli.run(vvmf.cli.JobSpec.from_json(rank2_job(route.removeprefix("rank2-"))))
    if route in ("classify", "coeffs", "minimal"):
        return vvmf.cli.run(vvmf.cli.JobSpec.from_json(generic_job(route)))
    return run_route(route)


@pytest.mark.parametrize("route", JOBS)
def test_every_rank4_job_classifies_once(monkeypatch, route):
    # the driver classifies the representation of every route and command
    # once, rank 2 and rank 4 alike, before any solve; the induction
    # route's beta^2-twist shares the beta-twist's report
    calls = count_calls(monkeypatch, vvmf.mlde, "classify")
    run_job(route)
    assert len(calls) == 1


@pytest.mark.parametrize("route", JOBS)
def test_every_job_enters_the_precision_scope_once(monkeypatch, route):
    # the driver opens a warm job's one working-precision scope around all
    # its stages, and no route opens another; an induction job's
    # InductionJob enters it once more, apart, to derive the local
    # exponent r before the driver runs
    run_job(route)
    scopes = count_calls(monkeypatch, vvmf.mlde, "qline_precision")
    if route == "induction":
        job = induction_job()
        assert len(scopes) == 1
        scopes.clear()
        induction_pipeline(job, 10, ClassicalCatalog(20))
    else:
        run_job(route)
    assert len(scopes) == 1


@pytest.mark.parametrize("route, derivatives", [("tensor", 4), ("induction", 10)])
def test_modular_derivatives_are_taken_once(monkeypatch, route, derivatives):
    # the tensor route checks its relations on DF, D DF, DG and DH of its
    # four emitted forms, in one pass; induction takes D of the pair A, B,
    # then of the slashed pair, the halves F|T^-1 of the induced forms (the
    # pair check took D of the halves F), and DF, D^2F and D^3F of each
    # induced form
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


def count_convolutions(monkeypatch) -> list:
    """Replace ``numpy.convolve`` by a wrapper that records the operands of
    every call."""
    operands = []
    convolve = np.convolve

    def counting_convolve(a, v, *args, **kwargs):
        operands.append((a, v))
        return convolve(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "convolve", counting_convolve)
    return operands


@pytest.mark.parametrize("route", ["sym3", "cyclic"])
def test_identity_blocks_make_no_product(monkeypatch, route):
    # the chain columns D X_j = X_{j+1} of the cyclic system multiply by the
    # unit series, which system_residuals skips: no convolution has a unit
    # operand, and the only series products are the catalog's exact ones
    operands = count_convolutions(monkeypatch)
    products = count_calls(monkeypatch, PuiseuxSeries, "__mul__")
    basis = run_route(route)
    assert basis.case.case == "cyclic" and basis.residuals["cyclic_mlde"] < 1e-9
    assert operands and all(type(c) is int for a in products for s in a[:2] for c in s.coeffs)
    assert not any(x[0] == 1 and not x[1:].any() for pair in operands for x in pair)


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
    staged(GENERIC_ROUTE, (rep, L), 20, catalog, "minimal")
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
    transforms = count_transforms(monkeypatch)
    cubes = count_calls(monkeypatch, vvmf.constructions, "_cube")
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
    # the cube transforms each row and each square once: real rows f + i g
    # and f^2 + i g^2, one square inverse and two cube inverses; complex
    # rows f, g, f^2 and g^2, two square inverses and four cube inverses.
    # The tensor route's rank-4 solve makes no transform
    assert len(cubes) == (1 if route.startswith("closed") else 0)
    assert len(transforms) == {"closed": 5, "closed-complex": 10}.get(route, 0)


def test_double_products_run_in_numpy(monkeypatch):
    # the products of the modular derivatives and column relations on the
    # emitted doubles are long double numpy convolutions.  The forms of a
    # real generic cyclic basis and every catalog series are real, so each
    # product is one real convolution per component and no complex one is
    # made: 16 components times E_2 (E_2 first), and the 3 products of the
    # equation column of each of the 4 forms (the form first); the
    # all-zero imaginary parts are convolved with nothing
    calls = count_calls(monkeypatch, vvmf.series, "_convolve")
    operands = count_convolutions(monkeypatch)
    catalog = ClassicalCatalog(40)
    basis = generic_basis(*generic_data(7, 1), 40, catalog)
    assert basis.case.case == "cyclic"
    assert not any(c.coeffs[n].imag for F in basis.forms for c in F.components
                   for n in range(41))
    assert calls == [] and len(operands) == 16 + 12
    assert {(a.dtype, v.dtype) for a, v in operands} == {(np.dtype(np.longdouble),) * 2}
    e2 = np.array(catalog.eisenstein(2).coeffs, dtype=np.longdouble)
    assert sum(np.array_equal(a, e2[:len(a)]) for a, _ in operands) == 16
    assert not any(x[0] == 1 and not x[1:].any() for pair in operands for x in pair)


def test_complex_series_keep_the_complex_kernel(monkeypatch, catalog40):
    # a series with an imaginary part, or a non-finite operand, takes the
    # complex kernel of each row as it is
    stack = FormStack.of(generic_basis(*generic_data(7, 1), 20, catalog40).forms)
    calls = count_calls(monkeypatch, vvmf.series, "_convolve")
    e = FormStack.of([vvmf.series.VectorSeries(
        (PuiseuxSeries(Nome.Q, 0, tuple(complex(1, n) for n in range(21))),), 0)])
    stack.times(0, e)
    assert len(calls) == 4
    stack.z[0, 0, 3] = np.inf
    stack.derive(catalog40.as_stack(catalog40.eisenstein(2)))
    assert len(calls) == 4 + 16


def test_euler_block_reads_a_square_root_of_the_history(monkeypatch, catalog800):
    # the K E_2 block of a q-line step n reads each row's Y = X / P at the
    # c(n) lags k <= n of the Euler product's nonzero coefficients (once,
    # for its 2 c(n) products: the dot and the next Y), where the dense
    # block read all n words X_{n-1}, ..., X_0: at order N, sum c(n) words
    # a row against N (N + 1) / 2
    reads = []

    class Counted(list):
        def __getitem__(self, index):
            words = list.__getitem__(self, index)
            reads.append(len(words) if isinstance(index, slice) else 1)
            return words

    count_histories(monkeypatch, Counted, over_p=True)
    pentagonal = sorted(k * (3 * k + s) // 2 for k in range(1, 30) for s in (-1, 1))
    for nome, order, spacing in ((Nome.Q, 800, 1), (Nome.Q2, 800, 2)):
        reads.clear()
        with qline_precision():
            lam = mpmath.mpf(spacing) / 12  # (1/12) / s, s = 1/2 in q2
            vvmf.mlde.qline_solve((1,), [({}, PuiseuxSeries.one(nome, order))], [lam],
                                  [[mpmath.mpf(1)]], order, catalog800)
        lags = [spacing * k for k in pentagonal]
        want = sum(sum(k <= n for k in lags) for n in range(1, order + 1))
        assert sum(reads) == want
        assert want * 10 < order * (order + 1) // 2
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


def test_induction_slashes_the_pair_once(monkeypatch):
    # the induced form is (F, F|T^-1): one slash of the pair's checked
    # stack and one modular derivative of the slashed pair, and no other
    # pass over the q2-parts.  The basis holds its forms as one stack, so
    # the pair and its slash are the halves of its two induced forms by
    # value
    slashes = []
    slash = FormStack.slash_t_inverse

    def recorded(X):
        slashes.append((X, slash(X)))
        return slashes[-1][1]

    monkeypatch.setattr(FormStack, "slash_t_inverse", recorded)
    derivatives = count_calls(monkeypatch, vvmf.mlde, "modular_derivative")
    basis = run_route("induction")
    ((pair, slashed),) = slashes
    induced = basis.stack.z[::4]
    assert pair.z.tobytes() == induced[:, :2].tobytes()
    assert slashed.z.tobytes() == induced[:, 2:].tobytes()
    assert [X is slashed for X, _ in derivatives].count(True) == 1


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


def recorded_patterns(monkeypatch) -> list:
    """The (R, r, pattern) of every q-line step compiled or read from the
    cache of compiled steps."""
    shapes = []
    compiled = vvmf.mlde._compiled_step
    monkeypatch.setattr(vvmf.mlde, "_compiled_step",
                        lambda *shape: shapes.append(shape) or compiled(*shape))
    return shapes


def floor_divisions(source: str) -> int:
    return sum(isinstance(node, ast.FloorDiv) for node in ast.walk(ast.parse(source)))


def copies(source: str) -> list:
    """The assignments in ``source`` that compute nothing: one name to
    another, or a value shifted left and back right by the same amount."""
    def no_op(value):
        return isinstance(value, ast.Name) or (
            isinstance(value, ast.BinOp) and isinstance(value.op, ast.RShift)
            and isinstance(value.left, ast.BinOp) and isinstance(value.left.op, ast.LShift)
            and ast.dump(value.left.right) == ast.dump(value.right))

    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and no_op(node.value)]


def test_induction_step_copies_no_name(monkeypatch):
    # the induction pair has no unit, so its 4 x 4 block is its entries
    # m_ij and right-hand sides themselves, eliminated in place
    shapes = recorded_patterns(monkeypatch)
    induction_pipeline(induction_job(), 10, ClassicalCatalog(20))
    (R, r, pattern), = set(shapes)
    source = vvmf.mlde._step_source(R, r, pattern)
    assert (R, r) == (4, 2)
    assert "m0_0, m0_1, m0_2, m0_3, m0_4, m1_0" in source  # a pivot swaps m rows
    assert copies(source) == []


@pytest.mark.parametrize("route", ["cyclic", "noncyclic", "rank2"])
def test_real_steps_make_one_floor_division_per_exponent(monkeypatch, route):
    # the unit chain of a real rank-4 cyclic or noncyclic system, and of a
    # real rank-2 one, leaves one free variable, found by one floor
    # division per exponent; every other variable is read off a unit entry
    # with a shift.  The pivoted elimination made 7-9 floor divisions
    shapes = recorded_patterns(monkeypatch)
    if route == "rank2":
        rank2_minimal(*rank2_data(1, 0.21), 20, ClassicalCatalog(20))
    else:
        run_route(route)
    (R, r, pattern), = shapes
    assert R == r == (2 if route == "rank2" else 4)
    assert floor_divisions(vvmf.mlde._step_source(R, r, pattern)) == r


def count_histories(monkeypatch, counted, over_p: bool) -> None:
    """Patch the q-line solve so that every history it builds
    (:func:`vvmf.mlde._histories`) whose key is over P or not, as
    ``over_p``, is the list subclass ``counted`` of its words."""
    histories = vvmf.mlde._histories
    monkeypatch.setattr(vvmf.mlde, "_histories", lambda packed, keys, *rest: [
        counted(h) if over == over_p else h
        for h, (_, over) in zip(histories(packed, keys, *rest), keys)])


def count_dense_reads(monkeypatch) -> list:
    """Patch the q-line solve so that every history its series blocks read
    (the plain rows and merged columns of :func:`vvmf.mlde._histories`, not
    those over P of the K E_2 block) records the words each dot takes from
    it: one entry per slice read (its word count) and one word per index a
    lag reader takes."""
    reads = []

    class Counted(list):
        def __getitem__(self, index):
            words = list.__getitem__(self, index)
            reads.append([len(words) if isinstance(index, slice) else 1])
            return words

    count_histories(monkeypatch, Counted, over_p=False)
    return reads


@pytest.mark.parametrize("route, dots", [
    ("cyclic", 3), ("noncyclic", 2), ("tensor", 2), ("noncyclic-complex", 4)])
def test_series_blocks_make_one_dot_per_cover_vertex(monkeypatch, route, dots):
    # a block's dots are a minimum vertex cover of its entries: the
    # noncyclic E_4 block (a, 1, b, c at (0, 1), (0, 2), (1, 3), (2, 3))
    # reads row 0 and the merged history of column 3, two dense dots where
    # the three rows it reads made three (four against six in the real
    # form of a complex system); each block of the cyclic system has one
    # entry, so its E_4, E_6 and E_4^2 blocks keep their three dots.  Each
    # dot at step n reads the n words X_{n-1}, ..., X_0
    reads = count_dense_reads(monkeypatch)
    order = 20
    if route == "noncyclic-complex":
        eigs = [0.11 + 0.05j, 0.18 - 0.02j, 0.31, 8 / 3 - 0.6 - 0.03j]
        rep = Rank4Rep(*[cmath.exp(2j * cmath.pi * v) for v in eigs], d=5, e=0)
        basis = generic_basis(rep, ExponentData(eigs), order, ClassicalCatalog(order))
    else:
        basis = run_route(route, order)
    assert basis.case.case == ("cyclic" if route == "cyclic" else "noncyclic")
    assert sorted(count for count, in reads) == sorted(
        n for n in range(1, order + 1) for _ in range(dots))


def test_theta_blocks_read_their_nonzero_lags(monkeypatch):
    # on the q2-line theta_2^4 has only odd powers and theta_3^4 + theta_4^4
    # only even ones, so each dot of their blocks at step n reads the words
    # at the c(n) nonzero lags k <= n of its tail, about half of the n
    # words a backwards read takes: sum c(n) words a dot over the solve
    # against N (N + 1) / 2.  Each block's four real rows are its cover
    reads = count_dense_reads(monkeypatch)
    order = 40
    catalog = ClassicalCatalog(order)
    rows, system = vvmf.constructions._induction_stage(induction_job(), order // 2, catalog)
    N = len(rows[0][0].re.coeffs) - 1
    want = 0
    for _, e in system:
        tail = ([0] * vvmf.mlde._lead_shift(e) + list(e.coeffs))[1:N + 1]
        assert 0 in tail
        lagged = sum(sum(1 for e_k in tail[:n] if e_k) for n in range(1, N + 1))
        assert 2 * lagged <= N * (N + 1) // 2 + N
        want += 4 * lagged
    assert sum(count for count, in reads) == want
