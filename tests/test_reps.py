"""Representation parameters, irreducibility criteria, exponent functors."""

import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vvmf.errors import GroupMismatch, InconsistentRep, WrongRank
from vvmf.reps import (
    ExponentData,
    GRank2Rep,
    Group,
    Rank2Rep,
    Rank4Rep,
    induced_exponents,
    induction_is_irreducible,
    rank2_is_irreducible,
    rank4_from_induction,
    rank4_from_sym3,
    rank4_from_tensor,
    sym3_exponents,
    sym3_is_irreducible,
    tensor_exponents,
    tensor_is_irreducible,
)

from oracles import (
    d_invariant,
    match_multisets,
    r0_matrix,
    r1_matrix,
    t2_matrix,
    trace_residuals,
)

ZETA = cmath.exp(2j * cmath.pi / 3)
XI = cmath.exp(2j * cmath.pi / 6)


def rank2(r1, r2):
    return Rank2Rep(
        cmath.exp(2j * cmath.pi * r1), cmath.exp(2j * cmath.pi * r2)
    )


class TestRank2:
    def test_irreducible_examples(self):
        assert rank2_is_irreducible(Rank2Rep(1, -1))
        # x/y a primitive sixth root kills x^2 - xy + y^2
        bad = Rank2Rep(1, cmath.exp(1j * cmath.pi / 3))
        assert not rank2_is_irreducible(bad)

    def test_jordan_family_irreducible(self):
        nu = Rank2Rep(1, 1)
        assert nu.jordan and rank2_is_irreducible(nu)

    def test_determinant_invariant(self):
        rep = rank2(1 / 4, 1 / 12)
        # xy = e^{2 pi i /3}: a = 4 on the twelfth-root scale
        assert rep.a == 4
        assert rep.det_power == 2
        assert rep.parity == (2 + 1) % 2

    def test_derives_a_and_jordan(self):
        rep = rank2((1 / 6 + 0.21) / 2, (1 / 6 - 0.21) / 2)
        assert (rep.a, rep.jordan) == (2, False)
        assert Rank2Rep(1, -1).t_eigenvalues() == (1 + 0j, -1 + 0j)
        assert type(Rank2Rep(1, -1).x) is complex
        # a and jordan are derived, never given
        with pytest.raises(TypeError):
            Rank2Rep(rep.x, rep.y, 2, False)

    @pytest.mark.parametrize("a", range(0, 12, 2))
    def test_parity_is_the_det_power_rule(self, a):
        # the rank-4 parities of Sym^3 and of a tensor product read
        # Rank2Rep.parity; they once read (det_power + 1) % 2 and the sum
        # of the factors' det powers mod 2
        alpha = rank2(a / 12 + 0.13, -0.13)
        beta = rank2(0.21, 1 / 6 - 0.21)
        assert alpha.a == a
        assert alpha.parity == (alpha.det_power + 1) % 2
        assert rank4_from_sym3(alpha).e == (alpha.det_power + 1) % 2
        assert rank4_from_tensor(alpha, beta).e == (alpha.det_power + beta.det_power) % 2

    def test_rejects_non_sixth_root_product(self):
        # a genuine twelfth root (odd power) and a non-unimodular product
        with pytest.raises(InconsistentRep):
            Rank2Rep(cmath.exp(2j * cmath.pi / 12), 1)
        with pytest.raises(InconsistentRep):
            Rank2Rep(1.3, 1.0)


class TestRank4:
    def test_inconsistent_product(self):
        with pytest.raises(InconsistentRep):
            Rank4Rep(1, 1, 1, cmath.exp(0.7j), d=0, e=1)

    def test_parity_constraint(self):
        with pytest.raises(InconsistentRep):
            Rank4Rep(1, 1, 1, 1, d=0, e=0)

    def test_trace_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            d = int(rng.integers(0, 6))
            m = d + 3 * int(rng.integers(-2, 3))
            es = list(rng.uniform(-0.4, 0.6, 3) + 1j * rng.uniform(-0.1, 0.1, 3))
            es.append(m / 3 - sum(es))
            evs = [cmath.exp(2j * cmath.pi * e) for e in es]
            rep = Rank4Rep(*evs, d=d, e=(d + 1) % 2)
            res = trace_residuals(rep)
            assert res["trace_S"] < 1e-9
            assert res["trace_R"] < 1e-9
            assert res["minus_identity"] < 1e-9
            assert d_invariant(rep) == d


class TestGRank2:
    def rep(self, **kw):
        params = dict(e=0, zeta1=1, zeta2=ZETA, zeta3=1, a=5.0)
        params.update(kw)
        return GRank2Rep(**params)

    def test_validation(self):
        with pytest.raises(InconsistentRep):
            self.rep(zeta1=2.0)
        with pytest.raises(InconsistentRep):
            self.rep(zeta2=1)  # zeta1 == zeta2
        # a^2 + zeta3 a + zeta3^2 = 0 at a = zeta3 * primitive sixth root
        bad_a = complex(ZETA**0) * cmath.exp(2j * cmath.pi / 3) ** (1 / 1)
        with pytest.raises(InconsistentRep):
            self.rep(a=cmath.exp(2j * cmath.pi / 3))

    def test_restriction_criterion(self):
        assert self.rep(zeta2=ZETA, zeta3=ZETA**2).restricts_from_gamma
        assert not self.rep(zeta3=1).restricts_from_gamma

    def test_induction_irreducibility_excluded_value(self):
        z1, z2, z3 = 1, ZETA, 1
        excluded = (z1 * z2 + z2 * z3 + z3**2) / (z1 - z2)
        # here excluded == zeta, which the parameter constraint already bars,
        # so the e = 0 exclusion is vacuous; the sign-flipped e = 1 value is
        # admissible and must be rejected by the irreducibility test
        assert abs(excluded - ZETA) < 1e-12
        assert not induction_is_irreducible(self.rep(e=1, a=-excluded))
        assert induction_is_irreducible(self.rep(e=1, a=0.5))
        # for even parity -zeta is allowed and irreducible
        assert induction_is_irreducible(self.rep(e=0, a=-excluded))

    def test_restriction_sum_zero_not_irreducible(self):
        rep = self.rep(zeta2=ZETA, zeta3=ZETA**2)
        assert not induction_is_irreducible(rep)

    def test_twist_orbit_trichotomy(self):
        rng = np.random.default_rng(11)
        roots = [1, ZETA, ZETA**2]
        count = 0
        for _ in range(40):
            z1, z2, z3 = (roots[rng.integers(0, 3)] for _ in range(3))
            if abs(z1 - z2) < 1e-9:
                continue
            a = complex(rng.normal(), rng.normal())
            try:
                rep = GRank2Rep(int(rng.integers(0, 2)), z1, z2, z3, a)
            except InconsistentRep:
                continue
            hits = [
                r for r in (rep, rep.twist(1), rep.twist(2)) if r.restricts_from_gamma
            ]
            assert len(hits) == 1
            count += 1
        assert count > 20

    def test_t2_matrix_order(self):
        # T^2 = -R1 R0 inside the subgroup: check (R0 R1-free) consistency
        rep = self.rep()
        t2 = t2_matrix(rep)
        r0, r1 = r0_matrix(rep), r1_matrix(rep)
        assert np.allclose(t2, ((-1) ** rep.e) * (r1 @ r0))


class TestTensorSym3Irreducibility:
    def test_tensor_cases(self):
        regular = rank2(0.3, 1 / 6 - 0.3)
        nu = Rank2Rep(1, 1)
        assert tensor_is_irreducible(regular, nu)  # exactly one T-regular
        assert not tensor_is_irreducible(nu, nu)  # nu (x) nu splits
        # coincident products: alpha = diag(i,-i)-type against itself
        half = rank2(1 / 4, -1 / 4)
        assert not tensor_is_irreducible(half, half)

    def test_sym3_cases(self):
        nu = Rank2Rep(1, 1)
        assert sym3_is_irreducible(nu)
        quarter = rank2(5 / 24, -1 / 24)  # x/y = i: all six ratios distinct
        assert sym3_is_irreducible(quarter)
        sq = rank2(1 / 3, -1 / 6)  # (x/y)^2 = 1 forces a collision
        assert not sym3_is_irreducible(sq)


class TestExponentData:
    def test_validate_against(self):
        L = ExponentData([0.25, 0.75])
        L.validate_against([1j, -1j])
        with pytest.raises(InconsistentRep):
            L.validate_against([1, -1])


class TestTensorExponents:
    def test_pairwise_sums(self):
        L1 = ExponentData([Fraction(1, 3), Fraction(1, 6)])
        L2 = ExponentData([Fraction(1, 4), Fraction(1, 12)])
        out = tensor_exponents(L1, L2)
        got = sorted(e.real for e in out.eigenvalues)
        assert np.allclose(got, sorted([7 / 12, 5 / 12, 5 / 12, 1 / 4]))
        assert abs(out.trace - 5 / 3) < 1e-14

    def test_identity_factor(self):
        L1 = ExponentData([0.3, 0.7])
        L2 = ExponentData([0.0, 0.0])
        out = tensor_exponents(L1, L2)
        assert sorted(e.real for e in out.eigenvalues) == [0.3, 0.3, 0.7, 0.7]

    def test_cardinality_and_symmetry(self):
        L1 = ExponentData([0.1, 0.2])
        L2 = ExponentData([0.05, 0.4])
        a = tensor_exponents(L1, L2)
        b = tensor_exponents(L2, L1)
        assert len(a.eigenvalues) == 4
        assert sorted(e.real for e in a.eigenvalues) == pytest.approx(
            sorted(e.real for e in b.eigenvalues)
        )

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatch):
            tensor_exponents(
                ExponentData([0.1, 0.2]),
                ExponentData([0.1, 0.2], Group.G),
            )


class TestSym3Exponents:
    def test_formula(self):
        L = ExponentData([Fraction(1, 4), Fraction(1, 12)])
        out = sym3_exponents(L)
        got = sorted(e.real for e in out.eigenvalues)
        assert np.allclose(got, sorted([3 / 4, 7 / 12, 5 / 12, 1 / 4]))
        assert abs(out.trace - 2) < 1e-14

    def test_zero(self):
        out = sym3_exponents(ExponentData([0, 0]))
        assert out.eigenvalues == (0j, 0j, 0j, 0j)

    def test_wrong_rank(self):
        with pytest.raises(WrongRank):
            sym3_exponents(ExponentData([0.1, 0.2, 0.3]))


class TestInducedExponents:
    def test_halving_rule(self):
        L = ExponentData([0.25, 0.5], Group.G)
        out = induced_exponents(L)
        got = sorted(e.real for e in out.eigenvalues)
        assert np.allclose(got, [1 / 8, 1 / 4, 5 / 8, 3 / 4])
        assert abs(out.trace - 7 / 4) < 1e-14
        assert out.group is Group.GAMMA

    def test_rank_one_analogue(self):
        out = induced_exponents(ExponentData([0.0], Group.G))
        assert sorted(e.real for e in out.eigenvalues) == [0.0, 0.5]

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatch):
            induced_exponents(ExponentData([0.1, 0.2]))

    def test_spectrum_validation_against_rep(self):
        rep = GRank2Rep(0, 1, ZETA, ZETA**2, 0.7 + 0.2j)
        mu = np.linalg.eigvals(t2_matrix(rep))
        eigs = [cmath.log(m) / (2j * cmath.pi) for m in mu]
        L = ExponentData(eigs, Group.G)
        bad = ExponentData([0.123, 0.456], Group.G)
        spectrum = rank4_from_induction(rep).t_eigenvalues()

        def lands(exponents):
            images = [cmath.exp(2j * cmath.pi * e) for e in induced_exponents(exponents).eigenvalues]
            return match_multisets(images, spectrum, 1e-6)

        assert lands(L) and not lands(bad)


class TestConstructedRank4:
    def test_functor_spectra(self):
        alpha = rank2(0.3, 1 / 6 - 0.3)
        beta = rank2(1 / 3, -1 / 6)
        t = rank4_from_tensor(alpha, beta)
        prods = sorted(
            (x * y for x in alpha.t_eigenvalues() for y in beta.t_eigenvalues()),
            key=lambda z: (z.real, z.imag),
        )
        assert np.allclose(
            prods, sorted(t.t_eigenvalues(), key=lambda z: (z.real, z.imag))
        )
        s = rank4_from_sym3(alpha)
        x, y = alpha.t_eigenvalues()
        assert np.allclose(
            sorted(s.t_eigenvalues(), key=lambda z: (z.real, z.imag)),
            sorted([x**3, x**2 * y, x * y**2, y**3], key=lambda z: (z.real, z.imag)),
        )

    def test_tensor_and_sym3_data_validate(self):
        alpha = rank2(0.3, 1 / 6 - 0.3)
        beta = rank2(1 / 3, -1 / 6)
        assert trace_residuals(rank4_from_tensor(alpha, beta))["trace_R"] < 1e-9
        assert trace_residuals(rank4_from_sym3(alpha))["trace_R"] < 1e-9

    def test_induced_rank4(self):
        rep = GRank2Rep(0, 1, ZETA, ZETA**2, 0.7 + 0.2j)
        r4 = rank4_from_induction(rep.twist(1))
        assert r4.e == rep.e
        assert trace_residuals(r4)["trace_R"] < 1e-8

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 1), *[st.sampled_from([1, ZETA, ZETA**2])] * 3,
           *[st.floats(-3, 3, allow_nan=False)] * 2)
    def test_t2_spectrum_from_trace_and_determinant(self, e, z1, z2, z3, re_a, im_a):
        # the square of each induced T-eigenvalue is an eigenvalue of
        # rho(T^2); the tolerance covers LAPACK's error at a near-double root
        a = complex(re_a, im_a)
        assume(abs(z1 - z2) > 1e-9 and abs(a**2 + z3 * a + z3**2) > 1e-6)
        rep = GRank2Rep(e, z1, z2, z3, a)
        squares = [x * x for x in rank4_from_induction(rep).t_eigenvalues()]
        mu = np.linalg.eigvals(t2_matrix(rep))
        assert match_multisets(squares, [m for m in mu for _ in (0, 1)], 1e-6)

    def test_one_twist_closes_the_orbit(self):
        rep = GRank2Rep(0, 1, ZETA, ZETA**2, 0.7 + 0.2j)
        assert rep.restricts_from_gamma
        twisted = rep.twist(1)
        assert not twisted.restricts_from_gamma and not twisted.twist(1).restricts_from_gamma
        assert twisted.twist(2).restricts_from_gamma  # one more twist closes the orbit


class TestFunctorSpectrumInvariant:
    """e^{2 pi i e} lands in the constructed representation's T-spectrum for
    every eigenvalue each functor emits."""

    def assert_spectrum(self, exponents, t_eigenvalues):
        for ev in exponents.eigenvalues:
            image = cmath.exp(2j * cmath.pi * ev)
            assert min(abs(image - t) for t in t_eigenvalues) < 1e-9

    def test_tensor_and_sym3(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            s1, s2 = rng.integers(0, 12, 2) * 2  # even twelfth-root scales
            r1 = float(rng.uniform(-0.4, 0.6))
            r2 = s1 / 12 - r1
            t1 = float(rng.uniform(-0.4, 0.6))
            t2 = s2 / 12 - t1
            alpha, beta = rank2(r1, r2), rank2(t1, t2)
            L1 = ExponentData([r1, r2])
            L2 = ExponentData([t1, t2])
            both = tensor_exponents(L1, L2)
            self.assert_spectrum(
                both,
                [x * y for x in alpha.t_eigenvalues() for y in beta.t_eigenvalues()],
            )
            x, y = alpha.t_eigenvalues()
            self.assert_spectrum(
                sym3_exponents(L1), [x**3, x**2 * y, x * y**2, y**3]
            )

    def test_induction(self):
        rep = GRank2Rep(0, 1, ZETA, ZETA**2, 0.7 + 0.2j)
        mu = np.linalg.eigvals(t2_matrix(rep))
        eigs = [cmath.log(m) / (2j * cmath.pi) for m in mu]
        out = induced_exponents(ExponentData(eigs, Group.G))
        targets = [s * cmath.sqrt(m) for m in mu for s in (1, -1)]
        self.assert_spectrum(out, targets)
