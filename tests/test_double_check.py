"""The double check of every route, its modular derivatives and column
relations taken in one array pass (:class:`vvmf.series.FormStack`,
:func:`vvmf.mlde.system_residuals`), keeps the bytes of the component by
component series arithmetic of ``tests/oracles.py``: every derivative
coefficient and every residual float is compared by ``repr``, so signed
zeros, infs and nans count too."""

import cmath
import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vvmf.classical import ClassicalCatalog
from vvmf.cli import JobSpec
from vvmf.constructions import (
    InductionJob,
    _induction_stage,
    exhibited_exponents,
    induction_pipeline,
    sym3_pipeline,
    tensor_pipeline,
)
from vvmf.mlde import (
    CYCLIC,
    NONCYCLIC_KEYS,
    cyclic_coeffs,
    cyclic_system,
    equation_coefficients,
    generic_basis,
    indicial_shifts,
    modular_derivative,
    noncyclic_system,
    qline_precision,
    system_residuals,
)
from vvmf.reps import induced_exponents, sym3_exponents, tensor_exponents
from vvmf.series import (
    FormStack,
    Nome,
    PuiseuxSeries,
    VectorSeries,
    relative_residual,
    residual_ratio,
)

from oracles import oracle_derivative, oracle_residuals

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)
POOLS = inputs.pool_payloads()
MEMBERS = [(route, i) for route in ("sym3", "tensor", "cyclic", "noncyclic", "induction")
           for i in range(len(POOLS[route]))]


def coefficient_reprs(F: VectorSeries) -> list:
    return [(repr(complex(c.lead_exponent)), [repr(x) for x in c.coeffs])
            for c in F.components]


def assert_same_forms(got, want) -> None:
    assert len(got) == len(want)
    for F, G in zip(got, want):
        assert F.weight == G.weight
        assert coefficient_reprs(F) == coefficient_reprs(G)


def assert_same_floats(got, want) -> None:
    assert list(map(repr, got)) == list(map(repr, want))


def check_cyclic_chain(basis, co, catalog) -> None:
    """F, DF, D^2F, D^3F of an assembled basis are the oracle's derivatives
    of the level before, and its cyclic_mlde is the oracle's."""
    forms = basis.forms
    assert_same_forms(forms[1:], [oracle_derivative(F, catalog) for F in forms[:3]])
    chain = list(forms) + [oracle_derivative(forms[3], catalog)]
    system = cyclic_system(co, catalog, forms[0].nome)
    want = oracle_residuals(chain[:4], chain[1:], system, columns=[3])
    assert_same_floats([basis.residuals["cyclic_mlde"]], want)


def check_solved_basis(basis, system, catalog) -> list:
    """The derivatives of a solved basis and its column residuals against
    the oracle's; returns the oracle's residuals."""
    X = FormStack.of(basis.forms)
    want = [oracle_derivative(F, catalog) for F in basis.forms]
    assert_same_forms(modular_derivative(X, catalog).vectors(), want)
    return oracle_residuals(basis.forms, want, system)


def check_member(route: str, index: int, order: int) -> None:
    job = JobSpec.from_json(inputs.make_job(route, index, order, POOLS).payload)
    catalog = ClassicalCatalog(job.order)
    if route == "sym3":
        basis = sym3_pipeline(job.reps[0], job.exponents[0], job.order, catalog)
        S3L = sym3_exponents(job.exponents[0])
        check_cyclic_chain(basis, cyclic_coeffs(indicial_shifts(S3L.eigenvalues, CYCLIC)),
                           catalog)
    elif route == "induction":
        ijob = InductionJob(job.reps[0], job.exponents[0], job.u)
        bases = induction_pipeline(ijob, job.order, catalog)
        rows, system = _induction_stage(ijob, job.order, catalog)
        A, B = (VectorSeries(tuple(row[i].downcast() for row in rows), ijob.k1) for i in range(2))
        pair = [oracle_derivative(F, catalog) for F in (A, B)]
        (pair_res,) = {b.residuals["pair_relation"] for b in bases}
        assert_same_floats([pair_res], [max(oracle_residuals((A, B), pair, system))])
        ind_L = induced_exponents(exhibited_exponents(A))
        co = cyclic_coeffs(indicial_shifts(ind_L.eigenvalues, CYCLIC))
        for basis in bases:
            check_cyclic_chain(basis, co, catalog)
    else:
        if route == "tensor":
            L1, L2 = job.exponents
            basis = tensor_pipeline(job.reps[0], job.reps[1], L1, L2, job.order, catalog)
            eigenvalues = tensor_exponents(L1, L2).eigenvalues
        else:
            basis = generic_basis(job.reps[0], job.exponents[0], job.order, catalog)
            eigenvalues = job.exponents[0].eigenvalues
        with qline_precision():
            co = equation_coefficients(eigenvalues, basis.case.case)
            system = (cyclic_system(co, catalog, Nome.Q)
                      if basis.case.case == CYCLIC
                      else noncyclic_system(co, catalog))
        res = check_solved_basis(basis, system, catalog)
        if basis.case.case == CYCLIC:
            want = {"cyclic_chain": max(res[:3]), "cyclic_mlde": res[3]}
        else:
            want = dict(zip(NONCYCLIC_KEYS, res))
        assert_same_floats(basis.residuals.values(), [want[k] for k in basis.residuals])


@pytest.mark.parametrize("order", [20, 40])
@pytest.mark.parametrize("route, index", MEMBERS)
def test_pool_member_matches_the_oracle(route, index, order):
    # every forms pool member of the benchmark; induction at q2-orders 20
    # and 40 (q-orders 10 and 20)
    check_member(route, index, order)


@pytest.mark.slow
@pytest.mark.parametrize("route, index", MEMBERS)
def test_pool_member_matches_the_oracle_at_80(route, index):
    check_member(route, index, 80)


# ---------------------------------------------------------------------------
# property cases: the q2 nome, lead shifts, non-finite operands, signed zeros
# ---------------------------------------------------------------------------

finite = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
#: doubles uniform in [-1e6, 1e6], with full mantissas.  Hypothesis draws
#: ``finite`` mostly as round numbers, whose products and sums are exact in
#: double, and its integers mostly small, so the value comes from a seeded
#: generator: a sum taken in the wrong precision shows on these
uniform = st.integers(0, 2**32 - 1).map(lambda seed: random.Random(seed).uniform(-1e6, 1e6))
non_finite = st.sampled_from([math.inf, -math.inf, math.nan])
leads = st.one_of(
    st.builds(complex, st.floats(-2, 2), st.sampled_from([0.0, -0.0, 0.25, -0.125])),
    st.fractions(min_value=-2, max_value=2, max_denominator=24),
)
constants = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=12),
    st.builds(complex, finite, finite),
    st.builds(lambda re, im: mpmath.mpc(re, im), finite, finite),
)


@st.composite
def stacks(draw):
    """Forms of one nome and leading exponents with random coefficients,
    all ``finite`` or all ``uniform``, in half of the cases with one real or
    imaginary part inf or nan, and a catalog of any order up to the forms'
    length.  When the forms outrun the catalog's series, their products stop
    at the series' length and the inf or nan lies past it: each product's
    finite prefix alone decides that it is summed in long double."""
    nome = draw(st.sampled_from([Nome.Q, Nome.Q2]))
    m, r, size = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 9))
    # the order and the index below are sampled, not drawn as integers,
    # which hypothesis draws mostly at the low end: a finite product prefix
    # of two terms or more, with an inf or nan after it, must come up
    catalog = ClassicalCatalog(draw(st.sampled_from(range(1, size + 1))))
    terms = min(size, len(catalog.e2_for(nome).coeffs))
    lams = [draw(leads) for _ in range(r)]
    values = draw(st.sampled_from([finite, uniform]))
    parts = [[[[draw(values), draw(values)] for _ in range(size)] for _ in range(r)]
             for _ in range(m)]
    if draw(st.booleans()):
        f, c, p = (draw(st.integers(0, k - 1)) for k in (m, r, 2))
        n = draw(st.sampled_from(range(terms if terms < size else 0, size)))
        parts[f][c][n][p] = draw(non_finite)
    forms = [VectorSeries(tuple(PuiseuxSeries(nome, lam, tuple(complex(*z) for z in comp))
                                for lam, comp in zip(lams, form)), draw(st.integers(-6, 12)))
             for form in parts]
    return forms, catalog


def system_series(catalog: ClassicalCatalog, nome: Nome) -> list:
    """Unit, exact and lead-shifted series of a system in the nome: theta_2^4
    leads at q2^1 and Delta at q^1."""
    if nome is Nome.Q2:
        t2, t3, t4 = catalog.theta_fourth_powers()
        return [PuiseuxSeries.one(nome, 2), t2, t3 + t4, catalog.eisenstein_q2(4)]
    return [PuiseuxSeries.one(nome, 2), catalog.eisenstein(4), catalog.delta(),
            catalog.e4_squared()]


@st.composite
def systems(draw, forms, catalog):
    series = system_series(catalog, forms[0].nome)
    m = len(forms)
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        cells = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                              min_size=1, max_size=3, unique=True))
        blocks.append(({ij: draw(constants) for ij in cells}, draw(st.sampled_from(series))))
    return blocks


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_derivatives_match_the_oracle(case):
    forms, catalog = case
    got = modular_derivative(FormStack.of(forms), catalog).vectors()
    assert_same_forms(got, [oracle_derivative(F, catalog) for F in forms])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_residuals_match_the_oracle(data):
    forms, catalog = data.draw(stacks())
    system = data.draw(systems(forms, catalog))
    X = FormStack.of(forms)
    DX = modular_derivative(X, catalog)
    got = system_residuals(X, DX, system, catalog)
    assert_same_floats(got, oracle_residuals(forms, DX.vectors(), system))


def test_lead_shift_is_aligned():
    # theta_2^4 leads at q2^1: its products enter one coefficient up.  A
    # column D X_0 = X_0 theta_2^4 v holds exactly for D X_0 built that way,
    # and reads O(1) if the shift is dropped.
    catalog = ClassicalCatalog(6)
    t2 = catalog.theta_fourth_powers()[0]
    x = PuiseuxSeries(Nome.Q2, 0.3 + 0.1j, tuple(complex(1 + n, -n) for n in range(13)))
    part = (x * t2).scale(0.5)
    lhs = PuiseuxSeries(Nome.Q2, x.lead_exponent, (0j,) + part.coeffs[:-1])
    X = FormStack.of([VectorSeries((x,), 0)])
    DX = FormStack.of([VectorSeries((lhs,), 2)])
    system = [({(0, 0): 0.5}, t2)]
    (got,) = system_residuals(X, DX, system, catalog)
    assert got == 0.0
    assert_same_floats([got], oracle_residuals([VectorSeries((x,), 0)],
                                               [VectorSeries((lhs,), 2)], system))


# ---------------------------------------------------------------------------
# non-finite values read non-finite
# ---------------------------------------------------------------------------

def test_a_nan_that_is_not_first_reads_non_finite():
    s = PuiseuxSeries(Nome.Q, 0.0, (1e-20, math.nan, 2e-20))
    fine = PuiseuxSeries(Nome.Q, 0.0, (1e-20, 3e-20, 2e-20))
    assert math.isnan(s.max_abs())
    assert relative_residual(s) == math.inf
    assert relative_residual(fine, s) == math.inf
    assert relative_residual(fine, fine) == 3e-20


def test_an_infinite_reference_reads_non_finite():
    assert residual_ratio(1e-20, [math.inf]) == math.inf
    assert residual_ratio(math.nan, [1.0]) == math.inf
    assert residual_ratio(2.0, [4.0, 0.5]) == 0.5


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["form", "derivative"])
def test_system_residuals_of_non_finite_forms(bad, where):
    # one coefficient past the first of one component: the column that
    # reads the form, or the derivative, is non-finite, the other is not
    catalog = ClassicalCatalog(8)
    comps = [PuiseuxSeries(Nome.Q, 0.25j, tuple(complex(1, n) for n in range(9)))
             for _ in range(2)]
    forms = [VectorSeries(tuple(comps), 0), VectorSeries(tuple(comps), 2)]
    X = FormStack.of(forms)
    DX = modular_derivative(X, catalog)
    dx = DX.vectors()
    if where == "form":
        c = comps[1].coeffs
        comps[1] = PuiseuxSeries(Nome.Q, 0.25j, c[:4] + (complex(bad, 0.0),) + c[5:])
        X = FormStack.of([VectorSeries(tuple(comps), 0), forms[1]])
    else:
        c = dx[1].components[0].coeffs
        bad_comp = PuiseuxSeries(Nome.Q, 0.25j, c[:4] + (complex(0.0, bad),) + c[5:])
        dx = (dx[0], VectorSeries((bad_comp,) + dx[1].components[1:], dx[1].weight))
        DX = FormStack.of(dx)
    # column 0 reads X_1 and DX_0, column 1 reads X_0 E_4 and DX_1
    system = [({(1, 0): 1}, PuiseuxSeries.one(Nome.Q, 8)),
              ({(0, 1): cmath.exp(0.3j)}, catalog.eisenstein(4))]
    got = system_residuals(X, DX, system, catalog)
    assert got[1] == math.inf and math.isfinite(got[0])
    assert_same_floats(got, oracle_residuals(X.vectors(), dx, system))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("at", [3, 6])
def test_only_a_product_prefix_decides_its_sum(bad, at):
    # forms of 8 coefficients against a catalog of order 3 (series of 4):
    # an inf or nan at 6 lies past every product, which is still summed in
    # long double; one at 3 makes each product of its component sum in
    # double.  The coefficients are drawn once from a fixed seed, for which
    # the two sums of the coefficients before 3 differ in the last bits,
    # which repr tells apart
    catalog = ClassicalCatalog(3)
    rng = random.Random(9)
    rough = [complex(rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)) for _ in range(8)]
    spoilt = rough[:at] + [complex(bad, rough[at].imag)] + rough[at + 1:]
    forms = [VectorSeries((PuiseuxSeries(Nome.Q, 0.25, tuple(comp)),
                           PuiseuxSeries(Nome.Q, 0.5, tuple(x * 1j for x in rough))), k)
             for comp, k in ((spoilt, 4), (rough[::-1], 2))]
    X = FormStack.of(forms)
    DX = modular_derivative(X, catalog)
    assert_same_forms(DX.vectors(), [oracle_derivative(F, catalog) for F in forms])
    system = [({(0, 1): cmath.exp(0.3j), (1, 0): 1.5}, catalog.eisenstein(4)),
              ({(0, 0): -0.7j}, catalog.delta())]
    got = system_residuals(X, DX, system, catalog)
    assert_same_floats(got, oracle_residuals(forms, DX.vectors(), system))
    assert all(map(math.isfinite, got)) == (at == 6)


def test_derivative_of_a_fraction_lead_rounds_lam_plus_n_once():
    # an exact leading exponent: (lam + n) is formed exactly, then rounded
    catalog = ClassicalCatalog(30)
    s = PuiseuxSeries(Nome.Q, Fraction(1, 24), tuple(complex(1, 1) for _ in range(31)))
    F = VectorSeries((s,), Fraction(1, 2))
    assert_same_forms(modular_derivative(FormStack.of([F]), catalog).vectors(),
                      [oracle_derivative(F, catalog)])
