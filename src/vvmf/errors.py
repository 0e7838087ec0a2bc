"""Exception hierarchy for the vvmf package.

Every contract violation raises a subclass of :class:`VvmfError`, so callers
can distinguish usage errors from genuine numerical failures.
"""


class VvmfError(Exception):
    """Base class for all vvmf contract errors."""


# --- series arithmetic -------------------------------------------------------

class NomeMismatch(VvmfError):
    """Arithmetic attempted between series in different formal variables."""


class NonIntegralExponentGap(VvmfError):
    """Addition of series whose leading exponents do not differ by an integer."""


class NonUnitLeadingCoefficient(VvmfError):
    """Inversion of a series whose leading coefficient vanishes."""


class NonMonicLeadingCoefficient(VvmfError):
    """Binomial power of a series that is not of the form 1 + O(x)."""


class ZeroLeadingCoefficient(VvmfError):
    """Composition target has a vanishing leading coefficient."""


class WrongNome(VvmfError):
    """Operation applied to a series in the wrong formal variable."""


# --- representation data -----------------------------------------------------

class InconsistentRep(VvmfError):
    """Representation parameters violate a structural constraint."""


class GroupMismatch(VvmfError):
    """Exponent data for different groups was mixed."""


class WrongRank(VvmfError):
    """Exponent data has the wrong rank for the requested functor."""


class ExponentMismatch(VvmfError):
    """Exponent multiset does not match the expected one."""


# --- differential-equation engine --------------------------------------------

class NonIntegralThreeTrace(VvmfError):
    """Three times the exponent trace is not an integer."""


class TraceDCongruenceViolation(VvmfError):
    """3*Tr(L) is incompatible with the determinant invariant d mod 3."""


class ExponentSumMismatch(VvmfError):
    """Shifted indicial exponents have the wrong sum for the requested case."""


class NotAnExponent(VvmfError):
    """Frobenius start exponent is not a root of the indicial polynomial."""


class Resonance(VvmfError):
    """Indicial roots differ by a nonzero integer; log terms would be needed."""


class PoleInC(VvmfError):
    """Hypergeometric lower parameter hits a nonpositive integer."""


class ZeroForm(VvmfError):
    """A basis assembly was started from the zero form."""


class DegenerateC(VvmfError):
    """Noncyclic structure constant c vanishes."""


# --- construction pipelines ---------------------------------------------------

class ReducibleRep(VvmfError):
    """Pipeline requires an irreducible representation."""


class NotIrreducible(VvmfError):
    """Constructed rank-4 representation is not irreducible."""


class ResonantExponents(VvmfError):
    """Exponent choice forces logarithmic solutions."""


class DegenerateU(VvmfError):
    """Induction family parameter u vanishes (double indicial root)."""


class NormalizationError(VvmfError):
    """Induction orbit is not presented with the restricting member first."""


class WeightParityMismatch(VvmfError):
    """Minimal weight and representation parity disagree mod 2."""


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
