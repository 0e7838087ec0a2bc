"""Exception hierarchy for the vvmf package.

Every contract violation raises a subclass of :class:`VvmfError`, so callers
can distinguish usage errors from genuine numerical failures.  Each class
names the pipeline stage it belongs to (:data:`STEPS`), wherever it is
raised; a :class:`ValidationError` belongs to none.
"""

#: the pipeline stages, by the letter an error's ``stage`` names
STEPS = {
    "a": "determinant/parity extraction",
    "b": "weight-case classification",
    "c": "equation coefficients",
    "d": "q-line solve",
    "e": "series arithmetic",
    "f": "basis assembly",
}


class VvmfError(Exception):
    """Base class for all vvmf contract errors."""
    stage: str | None = None


# --- series arithmetic -------------------------------------------------------

class NomeMismatch(VvmfError):
    """Arithmetic attempted between series in different formal variables."""
    stage = "e"


class NonIntegralExponentGap(VvmfError):
    """Addition of series whose leading exponents do not differ by an integer."""
    stage = "e"


class NonMonicLeadingCoefficient(VvmfError):
    """Binomial power of a series that is not of the form 1 + O(x)."""
    stage = "e"


class ZeroLeadingCoefficient(VvmfError):
    """A step divides by a series' leading coefficient, and it vanishes: the
    inverse, the divisor of a quotient or the substituted series of a
    composition."""
    stage = "e"


class WrongNome(VvmfError):
    """Operation applied to a series in the wrong formal variable."""
    stage = "e"


# --- representation data -----------------------------------------------------

class InconsistentRep(VvmfError):
    """Representation parameters violate a structural constraint."""
    stage = "a"


class GroupMismatch(VvmfError):
    """Exponent data for different groups was mixed."""
    stage = "a"


class WrongRank(VvmfError):
    """Exponent data has the wrong rank for the requested functor."""
    stage = "a"


# --- differential-equation engine --------------------------------------------

class NonIntegralThreeTrace(VvmfError):
    """Three times the exponent trace is not an integer."""
    stage = "b"


class TraceDCongruenceViolation(VvmfError):
    """3*Tr(L) is incompatible with the determinant invariant d mod 3."""
    stage = "b"


class ExponentSumMismatch(VvmfError):
    """Shifted indicial exponents have the wrong sum for the requested case."""
    stage = "c"


class NotAnExponent(VvmfError):
    """A start exponent of the q-line solve is not one: its seed row is not a
    left null vector of the system's indicial matrix there."""
    stage = "d"


class Resonance(VvmfError):
    """Exponents differ by an integer, 0 included, so log terms would be
    needed: an integer gap of the q-line solve, a T-irregular (Jordan)
    factor of a symmetric cube or tensor product, or an induction job's
    u = 0, which makes its two local exponents collide."""
    stage = "d"


class ZeroForm(VvmfError):
    """A basis assembly was started from the zero form."""
    stage = "f"


class DegenerateC(VvmfError):
    """Noncyclic structure constant c vanishes: the system of the q-line
    solve is refused when it is built."""
    stage = "d"


# --- construction pipelines ---------------------------------------------------

class NotIrreducible(VvmfError):
    """A representation a pipeline needs irreducible is not: a rank-2
    input, or the rank-4 representation a construction builds."""
    stage = "a"


class NormalizationError(VvmfError):
    """Induction orbit is not presented with the restricting member first."""
    stage = "a"


# --- CLI ----------------------------------------------------------------------

class ValidationError(VvmfError):
    """Job specification failed validation."""


class UnknownSeries(ValidationError, KeyError):
    """A classical series name the catalog does not know.

    A ValidationError for the CLI (exit status 2) and a KeyError for lookup
    callers; its message is the plain text, not KeyError's quoted repr."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown classical series {name!r}")

    __str__ = Exception.__str__

    def __reduce__(self):
        return type(self), (self.name,)
