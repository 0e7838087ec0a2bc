"""vvmf: free bases of vector-valued modular forms of rank up to four.

The package computes q-expansions of minimal-weight vector-valued modular
forms for irreducible representations of the modular group by solving the
associated modular linear differential equations as first-order systems on
the q-line, term by term in the q-expansion (:func:`qline_solve`), and
assembles free bases for the cyclic, noncyclic, tensor-product,
symmetric-cube, and induction constructions.
"""

from .classical import ClassicalCatalog
from .constructions import (
    InductionJob,
    Rank2MinimalForm,
    induce_to_gamma,
    induction_minimal_pair,
    induction_pipeline,
    rank2_minimal,
    sym3_pipeline,
    tensor_pipeline,
)
from .errors import VvmfError
from .mlde import (
    CaseReport,
    FormBasis,
    ODECoefficients,
    assemble_cyclic_basis,
    classify,
    cyclic_coeffs,
    dimension,
    generic_basis,
    modular_derivative,
    noncyclic_coeffs,
    qline_solve,
    solve_minimal_form,
)
from .reps import (
    ExponentData,
    GRank2Rep,
    Group,
    Rank2Rep,
    Rank4Rep,
    induced_exponents,
    induction_is_irreducible,
    rank2_is_irreducible,
    sym3_exponents,
    sym3_is_irreducible,
    tensor_exponents,
    tensor_is_irreducible,
)
from .series import Nome, PuiseuxSeries, VectorSeries

__version__ = "0.1.0"

__all__ = [
    "ClassicalCatalog",
    "CaseReport",
    "ExponentData",
    "FormBasis",
    "GRank2Rep",
    "Group",
    "InductionJob",
    "Nome",
    "ODECoefficients",
    "PuiseuxSeries",
    "Rank2MinimalForm",
    "Rank2Rep",
    "Rank4Rep",
    "VectorSeries",
    "VvmfError",
    "assemble_cyclic_basis",
    "classify",
    "cyclic_coeffs",
    "dimension",
    "generic_basis",
    "induce_to_gamma",
    "induced_exponents",
    "induction_is_irreducible",
    "induction_minimal_pair",
    "induction_pipeline",
    "modular_derivative",
    "noncyclic_coeffs",
    "qline_solve",
    "rank2_is_irreducible",
    "rank2_minimal",
    "solve_minimal_form",
    "sym3_exponents",
    "sym3_is_irreducible",
    "sym3_pipeline",
    "tensor_exponents",
    "tensor_is_irreducible",
    "tensor_pipeline",
]
