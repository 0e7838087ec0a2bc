"""Each pipeline computes every expensive quantity once, and no route touches
a hauptmodul: the q-line solves per exponent and the hauptmodul-side calls
of the closed, generic and induction routes are counted at every module that
binds them.  The q-line block runs in integers: no route makes an mpmath dot
product or multiplies series of mpmath numbers."""

import cmath

import mpmath
import pytest

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
from vvmf.series import PuiseuxSeries

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
    """Calls of every function that substitutes, sizes or builds a
    hauptmodul, or divides series."""
    return {
        "compose_frobenius": count_calls(monkeypatch, vvmf.series, "compose_frobenius"),
        "composition_dps": count_calls(monkeypatch, vvmf.series, "composition_dps"),
        "divide": count_calls(monkeypatch, PuiseuxSeries, "divide"),
        "k_hauptmodul": count_calls(monkeypatch, ClassicalCatalog, "k_hauptmodul"),
        "z_hauptmodul": count_calls(monkeypatch, ClassicalCatalog, "z_hauptmodul"),
    }


def rank2_data(s, delta):
    r1, r2 = (s / 6 + delta) / 2, (s / 6 - delta) / 2
    rep = Rank2Rep.from_eigenvalues(
        cmath.exp(2j * cmath.pi * r1), cmath.exp(2j * cmath.pi * r2)
    )
    return rep, ExponentData.diagonal([r1, r2])


def generic_data(m, d):
    eigs = [0.11, 0.18, 0.31, m / 3 - 0.6]
    rep = Rank4Rep(*[cmath.exp(2j * cmath.pi * v) for v in eigs], d=d, e=0)
    return rep, ExponentData.diagonal(eigs)


def distinct_exponents(calls) -> int:
    # qline_solve(weights, system, lam, seed, order, catalog)
    return len({(round(complex(a[2]).real, 12), round(complex(a[2]).imag, 12)) for a in calls})


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
    # one q-line solve per exponent: two per rank-2 factor, then G at each of
    # the four tensor exponents, never from a division by E_4
    assert len(solves) == 8 and distinct_exponents(solves) == 8
    assert divides == []


def test_noncyclic_solves_each_exponent_once(monkeypatch, catalog40):
    calls = count_calls(monkeypatch, vvmf.mlde, "qline_solve")
    rep, L = generic_data(8, 5)
    basis = generic_basis(rep, L, 20, catalog40)
    assert basis.case.case == "noncyclic"
    assert basis.residuals["col3_dg_e4f"] < 1e-12
    assert len(calls) == 4 and distinct_exponents(calls) == 4


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
    """Calls of mpmath.fdot, and series products by operand type: with an
    mpmath coefficient, or all-int (the fixed-point products among them)."""
    counts = {"fdot": [], "mp_products": [], "int_products": []}
    fdot, mul = mpmath.fdot, PuiseuxSeries.__mul__

    def counting_fdot(*args, **kwargs):
        counts["fdot"].append(args)
        return fdot(*args, **kwargs)

    def counting_mul(a, b):
        if isinstance(b, PuiseuxSeries):
            coeffs = a.coeffs + b.coeffs
            if any(isinstance(c, (mpmath.mpf, mpmath.mpc)) for c in coeffs):
                counts["mp_products"].append((a, b))
            elif all(type(c) is int for c in coeffs):
                counts["int_products"].append((a, b))
        return mul(a, b)

    monkeypatch.setattr(mpmath, "fdot", counting_fdot)
    monkeypatch.setattr(PuiseuxSeries, "__mul__", counting_mul)
    return counts


def induction_job() -> InductionJob:
    zeta = cmath.exp(2j * cmath.pi / 3)
    rep = GRank2Rep(0, 1, zeta, zeta**2, 0.7 + 0.2j)
    L = ExponentData.diagonal([1 / 3 + 0.11, 1 / 3 - 0.11], Group.G)
    r = 0.27
    return InductionJob.make(rep, L, -(r * r) / (16 * cmath.exp(2j * cmath.pi / 6)))


@pytest.mark.parametrize("route", ["cyclic", "noncyclic", "induction", "closed"])
def test_qline_block_runs_in_integers(monkeypatch, route):
    # the solve convolves and eliminates in fixed-point integers, and the
    # cube and Kronecker products multiply fixed-point mantissas
    catalog = ClassicalCatalog(20)
    counts = count_mp_work(monkeypatch)
    if route == "induction":
        induction_pipeline(induction_job(), 10, catalog)
    elif route == "closed":
        alpha, L1 = rank2_data(1, 0.21)
        beta, L2 = rank2_data(2, 0.13)
        rank2_minimal(alpha, L1, 20, catalog)
        sym3_pipeline(alpha, L1, 20, catalog)
        tensor_pipeline(alpha, beta, L1, L2, 20, catalog)
    else:
        generic_basis(*generic_data(*{"cyclic": (7, 1), "noncyclic": (8, 5)}[route]), 20, catalog)
    assert counts["fdot"] == [] and counts["mp_products"] == []
    if route == "closed":
        # the cube's 6 products and the tensor's 4 + 8 Kronecker products,
        # three int products each
        assert len(counts["int_products"]) >= 3 * 18


def test_k_is_one_exact_division(monkeypatch):
    divides = count_calls(monkeypatch, PuiseuxSeries, "divide")
    inverts = count_calls(monkeypatch, PuiseuxSeries, "invert")
    k = ClassicalCatalog(40).k_hauptmodul()
    # 1728 Delta / E_4^3 by forward substitution; (E_4^3)^-1 is never formed
    assert len(divides) == 1 and inverts == []
    assert all(type(c) is int for c in k.coeffs)
