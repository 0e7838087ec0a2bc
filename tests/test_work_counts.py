"""Each pipeline computes every expensive quantity once: the K-line
compositions of a tensor job and the system solves of a noncyclic job are
counted at every module that binds them."""

import cmath

import vvmf.constructions
import vvmf.mlde
import vvmf.series
from vvmf.constructions import tensor_pipeline
from vvmf.mlde import generic_basis
from vvmf.reps import ExponentData, Rank2Rep, Rank4Rep

MODULES = (vvmf.series, vvmf.mlde, vvmf.constructions)


def count_calls(monkeypatch, home, name: str) -> list:
    """Replace the function ``home.name`` at each of its binding sites by a
    wrapper that records the positional arguments of every call."""
    calls = []
    original = getattr(home, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in MODULES:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def rank2_data(s, delta):
    r1, r2 = (s / 6 + delta) / 2, (s / 6 - delta) / 2
    rep = Rank2Rep.from_eigenvalues(
        cmath.exp(2j * cmath.pi * r1), cmath.exp(2j * cmath.pi * r2)
    )
    return rep, ExponentData.diagonal([r1, r2])


def test_tensor_composes_each_rank2_input_once(monkeypatch, catalog40):
    calls = count_calls(monkeypatch, vvmf.series, "compose_frobenius")
    # first member of the acceptance suite's tensor grid
    alpha, L1 = rank2_data(1, 0.21)
    beta, L2 = rank2_data(2, 0.13)
    basis = tensor_pipeline(alpha, beta, L1, L2, 20, catalog40)
    assert basis.residuals["col3_dg_e4f"] < 1e-9
    assert len(calls) == 4


def test_noncyclic_solves_each_exponent_once(monkeypatch, catalog40):
    calls = count_calls(monkeypatch, vvmf.mlde, "frobenius_solve_system")
    eigs = [0.11, 0.18, 0.31, 8 / 3 - 0.6]
    rep = Rank4Rep(*[cmath.exp(2j * cmath.pi * v) for v in eigs], d=5, e=0)
    basis = generic_basis(rep, ExponentData.diagonal(eigs), 20, catalog40)
    assert basis.case.case == "noncyclic"
    assert basis.residuals["system_self"] < 1e-12
    exponents = [complex(args[2]) for args in calls]
    assert len(exponents) == 4
    assert len({(round(z.real, 12), round(z.imag, 12)) for z in exponents}) == 4

