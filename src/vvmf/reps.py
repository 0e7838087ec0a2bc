"""Representation parameters, irreducibility criteria, and the three exponent
functors (tensor product, symmetric cube, induction).

Each functor has a rank-4 partner (:func:`rank4_from_tensor`,
:func:`rank4_from_sym3`, :func:`rank4_from_induction`) that carries the
invariants d and e of the constructed representation; every construction
route classifies that partner at the functor's exponents with
:func:`vvmf.mlde.classify`, so each route's d has one source here.

Representations are stored by normal-form parameters only, and every
invariant here is read off them in builtin complex arithmetic, so this
module never loads numpy.  Exponent data is the list of eigenvalues of a
choice of exponents L with e^{2 pi i L} = rho(T) (rho(T^2) on the
subgroup): the case split, the minimal weight and the indicial exponents
read L only through its eigenvalues.  The constructors here run the
mathematical checks; the job format, and its checks, are :mod:`vvmf.cli`'s.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import GroupMismatch, InconsistentRep, WrongRank

TOL = 1e-9

XI = cmath.exp(2j * cmath.pi / 6)
ZETA3 = cmath.exp(2j * cmath.pi / 3)


class Group(str, Enum):
    GAMMA = "Gamma"  # SL2(Z); exponents for rho(T)
    G = "G"          # index-two subgroup; exponents for rho(T^2)


# ---------------------------------------------------------------------------
# rank 2 over the full modular group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rank2Rep:
    """Irreducible rank-2 representation, by the eigenvalues x, y of rho(T).

    x and y are stored as builtin complex numbers, and the constructor
    derives the rest from them: ``a`` is the determinant invariant,
    x*y = e^{2 pi i a / 12} (always even, since rho(-I) = +-I forces
    det rho(-I) = 1), and ``jordan`` marks the x = y single-Jordan-block
    family nu_chi.  A product xy that is not a sixth root of unity raises
    InconsistentRep.
    """

    x: complex
    y: complex
    a: int = field(init=False)
    jordan: bool = field(init=False)

    def __post_init__(self) -> None:
        x, y = complex(self.x), complex(self.y)
        prod = x * y
        if abs(abs(prod) - 1) > 1e-8:
            raise InconsistentRep(f"|xy| = {abs(prod)} but det rho(T) must be unimodular")
        ang = cmath.phase(prod) / (2 * cmath.pi)  # in (-1/2, 1/2]
        a = round(12 * ang) % 12
        if abs(prod - cmath.exp(2j * cmath.pi * a / 12)) > 1e-8 or a % 2:
            raise InconsistentRep(f"xy = {prod} is not a sixth root of unity")
        for name, value in (("x", x), ("y", y), ("a", a), ("jordan", abs(x - y) <= TOL)):
            object.__setattr__(self, name, value)

    @property
    def t_regular(self) -> bool:
        return not self.jordan

    @property
    def parity(self) -> int:
        """e with rho(-I) = (-1)^e; equals a/2 + 1 mod 2."""
        return (self.a // 2 + 1) % 2

    @property
    def det_power(self) -> int:
        """Exponent of the determinant on the sixth-root scale: xy = xi^this."""
        return (self.a // 2) % 6

    def t_eigenvalues(self) -> tuple[complex, complex]:
        return (self.x, self.y)


def rank2_is_irreducible(rep: Rank2Rep) -> bool:
    """x^2 - xy + y^2 != 0; the Jordan family nu_chi is always irreducible."""
    if rep.jordan:
        return True
    return abs(rep.x**2 - rep.x * rep.y + rep.y**2) > TOL


# ---------------------------------------------------------------------------
# rank 4 over the full modular group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rank4Rep:
    """Irreducible rank-4 representation in Tuba-Wenzl normal form.

    x, y, z, w are the eigenvalues of rho(T); d in {0..5} encodes the sign
    choice of D = sqrt(yz/xw) through D = xi^d (xw)^{-1} and pins down
    x y z w = e^{2 pi i d / 3}; e is the parity of rho(-I) and must differ
    from d mod 2.
    """

    x: complex
    y: complex
    z: complex
    w: complex
    d: int
    e: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", self.d % 6)
        object.__setattr__(self, "e", self.e % 2)
        prod = self.x * self.y * self.z * self.w
        if abs(prod - ZETA3**self.d) > 1e-8:
            raise InconsistentRep(
                f"xyzw = {prod} is not e^(2 pi i d/3) for d = {self.d}"
            )
        if self.e % 2 == self.d % 2:
            raise InconsistentRep(f"parity e = {self.e} must differ from d = {self.d} mod 2")

    def t_eigenvalues(self) -> tuple[complex, complex, complex, complex]:
        return (self.x, self.y, self.z, self.w)


# ---------------------------------------------------------------------------
# rank 2 over the index-two subgroup
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GRank2Rep:
    """Irreducible rank-2 representation of the index-two subgroup,
    rho(e, zeta1, zeta2, zeta3, a): rho(-1) = (-1)^e, rho(R0) diagonal with
    entries (-1)^e zeta_i, rho(R1) determined by zeta3 and the free
    parameter a."""

    e: int
    zeta1: complex
    zeta2: complex
    zeta3: complex
    a: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", self.e % 2)
        for name in ("zeta1", "zeta2", "zeta3"):
            z = complex(getattr(self, name))
            if abs(z**3 - 1) > 1e-8:
                raise InconsistentRep(f"{name} = {z} is not a cube root of unity")
            object.__setattr__(self, name, z)
        if abs(self.zeta1 - self.zeta2) <= TOL:
            raise InconsistentRep("zeta1 = zeta2 gives a reducible representation")
        a = complex(self.a)
        object.__setattr__(self, "a", a)
        if abs(a**2 + self.zeta3 * a + self.zeta3**2) <= TOL:
            raise InconsistentRep("a^2 + zeta3 a + zeta3^2 = 0 is excluded")

    def twist(self, j: int) -> "GRank2Rep":
        """Tensor with the j-th power of the cuspidal character beta."""
        zj = ZETA3 ** (j % 3)
        return GRank2Rep(
            self.e,
            self.zeta1 * zj,
            self.zeta2 * zj,
            self.zeta3 * zj**2,
            self.a * zj**2,
        )

    @property
    def restricts_from_gamma(self) -> bool:
        return abs(self.zeta1 + self.zeta2 + self.zeta3) <= 1e-8


def induction_is_irreducible(rep: GRank2Rep) -> bool:
    """Ind rho is irreducible iff zeta1+zeta2+zeta3 != 0 and a avoids one
    explicitly excluded value (sign of the exclusion flips with the parity)."""
    if rep.restricts_from_gamma:
        return False
    excluded = ((-1) ** rep.e) * (
        rep.zeta1 * rep.zeta2 + rep.zeta2 * rep.zeta3 + rep.zeta3**2
    ) / (rep.zeta1 - rep.zeta2)
    return abs(rep.a - excluded) > TOL


# ---------------------------------------------------------------------------
# tensor / symmetric-cube irreducibility
# ---------------------------------------------------------------------------

def _pairwise_distinct(values) -> bool:
    vals = list(values)
    return all(
        abs(vals[i] - vals[j]) > TOL
        for i in range(len(vals))
        for j in range(i + 1, len(vals))
    )


def tensor_is_irreducible(alpha: Rank2Rep, beta: Rank2Rep) -> bool:
    if not (rank2_is_irreducible(alpha) and rank2_is_irreducible(beta)):
        return False
    if alpha.t_regular != beta.t_regular:
        return True
    if not alpha.t_regular:
        return False  # nu tensor nu splits into Sym^2 and Lambda^2
    products = [xv * yv for xv in alpha.t_eigenvalues() for yv in beta.t_eigenvalues()]
    return _pairwise_distinct(products)


def sym3_is_irreducible(alpha: Rank2Rep) -> bool:
    if not rank2_is_irreducible(alpha):
        return False
    if not alpha.t_regular:
        return True  # symmetric powers of the inclusion family stay irreducible
    x, y = alpha.t_eigenvalues()
    return _pairwise_distinct([x**3, x**2 * y, x * y**2, y**3])


# ---------------------------------------------------------------------------
# exponent data and functors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentData:
    """Eigenvalues of a choice of exponents L, for rho(T) or rho(T^2)."""

    eigenvalues: tuple
    group: Group = Group.GAMMA

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "eigenvalues", tuple(complex(e) for e in self.eigenvalues)
        )
        object.__setattr__(self, "group", Group(self.group))

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)

    @property
    def trace(self) -> complex:
        return sum(self.eigenvalues)

    def validate_against(self, t_eigenvalues) -> None:
        """Check e^{2 pi i e_j} lands in the representation's T-spectrum."""
        targets = [complex(t) for t in t_eigenvalues]
        for ev in self.eigenvalues:
            image = cmath.exp(2j * cmath.pi * ev)
            if min(abs(image - t) for t in targets) > 1e-8:
                raise InconsistentRep(
                    f"exp(2 pi i {ev}) = {image} is not a T-eigenvalue"
                )


def tensor_exponents(L1: ExponentData, L2: ExponentData) -> ExponentData:
    """Kronecker-sum exponents: eigenvalues e_i + f_j."""
    if L1.group is not L2.group:
        raise GroupMismatch("tensor exponents need a common group")
    eigs = tuple(a + b for a in L1.eigenvalues for b in L2.eigenvalues)
    return ExponentData(eigs, L1.group)


def sym3_exponents(L: ExponentData) -> ExponentData:
    """Symmetric-cube exponents of a rank-2 L: eigenvalues
    (3r, 2r+s, r+2s, 3s), trace 6 Tr(L)."""
    if L.rank != 2:
        raise WrongRank("symmetric cube exponents need rank 2")
    r, s = L.eigenvalues
    return ExponentData((3 * r, 2 * r + s, r + 2 * s, 3 * s), L.group)


def induced_exponents(L: ExponentData) -> ExponentData:
    """Exponents for the induction to the full modular group: eigenvalues
    {e_j/2} and {(e_j+1)/2}, trace Tr(L) + rank/2."""
    if L.group is not Group.G:
        raise GroupMismatch("induced exponents start from exponents for the subgroup")
    eigs = tuple(e / 2 for e in L.eigenvalues) + tuple(
        (e + 1) / 2 for e in L.eigenvalues
    )
    return ExponentData(eigs, Group.GAMMA)


def rank4_from_tensor(alpha: Rank2Rep, beta: Rank2Rep) -> Rank4Rep:
    """Rank-4 data of alpha (x) beta: products of eigenvalues in
    Kronecker order, d = a6(alpha)+a6(beta)+3 mod 6, parity the sum."""
    eigs = [xv * yv for xv in alpha.t_eigenvalues() for yv in beta.t_eigenvalues()]
    s = alpha.det_power + beta.det_power
    return Rank4Rep(*eigs, d=(s + 3) % 6, e=(alpha.parity + beta.parity) % 2)


def rank4_from_sym3(alpha: Rank2Rep) -> Rank4Rep:
    x, y = alpha.t_eigenvalues()
    eigs = [x**3, x**2 * y, x * y**2, y**3]
    d = 0 if alpha.det_power % 2 == 0 else 3
    return Rank4Rep(*eigs, d=d, e=alpha.parity)


def rank4_from_induction(rho: GRank2Rep) -> Rank4Rep:
    """Rank-4 data of Ind rho; the T-matrix is the block antidiagonal
    (0, rho(T^2); 1, 0), with eigenvalues the two square roots of each
    eigenvalue of rho(T^2).  d follows from their product, det rho(T^2),
    which no beta-twist changes, and the parity e is rho's.  rho(T^2) has
    trace (-1)^e (a zeta1 - (zeta3 + a) zeta2) and determinant
    zeta1 zeta2 zeta3^2: mu1 is the root of larger modulus, mu2 = det / mu1."""
    sign = (-1) ** rho.e
    tr = sign * (rho.a * rho.zeta1 - (rho.zeta3 + rho.a) * rho.zeta2)
    det = rho.zeta1 * rho.zeta2 * rho.zeta3**2
    root = cmath.sqrt(tr * tr - 4 * det)
    mu1 = max((tr + root) / 2, (tr - root) / 2, key=abs)
    eigs = [s * cmath.sqrt(m) for m in (mu1, det / mu1) for s in (1, -1)]
    prod = math.prod(eigs)
    best = min(range(3), key=lambda k: abs(prod - ZETA3**k))
    if abs(prod - ZETA3**best) > 1e-8:
        raise InconsistentRep("induced determinant is not a cube root of unity")
    d = best if best % 2 != rho.e % 2 else best + 3
    return Rank4Rep(*eigs, d=d % 6, e=rho.e)

