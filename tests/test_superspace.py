import numpy as np
import pytest

from osp22 import EVEN, ODD
from osp22.grassmann import GENERATORS_EXTENDED, GrassmannAlgebra, default_algebra
from osp22.representation import build_generator
from osp22.superspace import (
    DimensionMismatchError,
    SuperVector,
    random_coefficient,
    random_supervector,
    super_inner_integral,
    superadjoint_defect,
)

ALG = default_algebra()


def vac(n=4):
    return SuperVector.basis_state(0, 0, n, ALG)


def odd0(n=4):
    return SuperVector.basis_state(1, 0, n, ALG)


class TestConstruction:
    def test_structural_generators_rejected(self):
        theta = ALG.gen("theta")
        with pytest.raises(ValueError):
            SuperVector(ALG, [theta], [ALG.zero()])

    def test_slot_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SuperVector(ALG, [ALG.one()], [])

    def test_array_round_trip(self):
        rng = np.random.default_rng(2)
        v = random_supervector(5, rng, ALG)
        assert v.coeffs.shape == (10, ALG.size)
        back = SuperVector.from_coeffs(ALG, v.coeffs)
        assert (v - back).max_abs() == 0.0
        again = SuperVector(ALG, v.even, v.odd)
        assert np.array_equal(again.coeffs, v.coeffs)
        for k in range(5):
            assert v.even[k] == back.even[k] and v.odd[k] == back.odd[k]

    def test_from_coeffs_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatchError):
            SuperVector.from_coeffs(ALG, np.zeros((3, ALG.size)))
        with pytest.raises(ValueError):
            SuperVector.from_coeffs(ALG, np.zeros((4, ALG.size + 1)))

    def test_from_coeffs_rejects_structural_generators(self):
        coeffs = np.zeros((2, ALG.size), dtype=complex)
        coeffs[0] = ALG.gen("theta_bar").coeffs
        with pytest.raises(ValueError):
            SuperVector.from_coeffs(ALG, coeffs)


def _loop_draw(alg, rng, parity=None):
    """Reference stream: one standard_normal(2) per theta-free mask, ascending."""
    data = {}
    for mask in range(1 << alg.n_generators):
        names = {alg.generators[k] for k in range(alg.n_generators) if mask >> k & 1}
        if names & {"theta", "theta_bar"}:
            continue
        odd = len(names) % 2
        if (parity == EVEN and odd) or (parity == ODD and not odd):
            continue
        re, im = rng.standard_normal(2)
        data[tuple(sorted(names, key=alg.index.get))] = complex(re, im) / np.sqrt(2.0)
    return alg.element(data)


class TestRandomDraws:
    """The batched draws consume the seeded stream exactly as a per-mask loop."""

    @pytest.mark.parametrize("generators", [None, GENERATORS_EXTENDED])
    @pytest.mark.parametrize("parity", [None, EVEN, ODD])
    def test_coefficient_matches_loop(self, generators, parity):
        alg = ALG if generators is None else GrassmannAlgebra(generators)
        got = random_coefficient(alg, np.random.default_rng(31), parity=parity)
        want = _loop_draw(alg, np.random.default_rng(31), parity=parity)
        assert got == want

    @pytest.mark.parametrize("parity", [None, EVEN, ODD])
    @pytest.mark.parametrize("support", [None, 3])
    def test_supervector_matches_loop(self, parity, support):
        n = 5
        top = n if support is None else support
        got = random_supervector(n, np.random.default_rng(32), ALG, parity=parity, support=support)
        rng = np.random.default_rng(32)
        flip = {None: None, EVEN: ODD, ODD: EVEN}[parity]
        even = [_loop_draw(ALG, rng, parity) if k < top else ALG.zero() for k in range(n)]
        odd = [_loop_draw(ALG, rng, flip) if k < top else ALG.zero() for k in range(n)]
        assert np.array_equal(got.coeffs, SuperVector(ALG, even, odd).coeffs)
        # the stream continues where the loop would have left it
        rng_got = np.random.default_rng(32)
        random_supervector(n, rng_got, ALG, parity=parity, support=support)
        assert rng_got.standard_normal() == rng.standard_normal()


class TestInnerProduct:
    def test_even_unit(self):
        assert vac().super_inner(vac()) == 1

    def test_odd_weight_i(self):
        assert odd0().super_inner(odd0()) == 1j

    def test_odd_scalar_rule_example(self):
        al = ALG.gen("alpha")
        v = al * odd0()
        want = -1j * (al.conj() * al)
        assert (v.super_inner(v) - want).max_abs() == 0.0

    def test_sector_orthogonality_exact(self):
        assert vac().super_inner(odd0()).is_zero()

    def test_truncation_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            vac(4).super_inner(vac(5))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            p1 = EVEN if rng.integers(2) else ODD
            p2 = EVEN if rng.integers(2) else ODD
            v1 = random_supervector(5, rng, ALG, parity=p1)
            v2 = random_supervector(5, rng, ALG, parity=p2)
            sign = -1.0 if (p1 == ODD and p2 == ODD) else 1.0
            assert (v1.super_inner(v2).conj() - sign * v2.super_inner(v1)).max_abs() < 1e-12

    def test_scalar_extraction_rule(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            p1 = EVEN if rng.integers(2) else ODD
            pb = EVEN if rng.integers(2) else ODD
            v1 = random_supervector(5, rng, ALG, parity=p1)
            v2 = random_supervector(5, rng, ALG)
            b1 = random_coefficient(ALG, rng)
            b2 = random_coefficient(ALG, rng, parity=pb)
            sign = -1.0 if (p1 == ODD and pb == ODD) else 1.0
            lhs = (b1 * v1).super_inner(b2 * v2)
            rhs = sign * (b1.conj() * b2 * v1.super_inner(v2))
            assert (lhs - rhs).max_abs() < 1e-12


class TestNorm:
    def test_basis_unit(self):
        assert SuperVector.basis_state(0, 3, 6, ALG).norm() == 1.0

    def test_mixed_vector_sums_sectors(self):
        assert abs((vac() + odd0()).norm() ** 2 - 2.0) < 1e-15

    def test_zero(self):
        assert SuperVector.zero(4, ALG).norm() == 0.0

    def test_nilpotent_coefficients_do_not_enter(self):
        al = ALG.gen("alpha")
        v = SuperVector(ALG, [1 + al * ALG.gen("alpha_bar")], [ALG.zero()])
        assert v.norm() == 1.0


class TestParity:
    def test_basis_parities(self):
        assert vac().total_parity == EVEN
        assert odd0().total_parity == ODD

    def test_odd_coefficient_flips(self):
        assert (ALG.gen("alpha") * odd0()).total_parity == EVEN

    def test_mixed_flagged(self):
        assert (vac() + odd0()).total_parity == "mixed"


class TestIntegralOracle:
    def test_matches_fast_path(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            v1 = random_supervector(6, rng, ALG)
            v2 = random_supervector(6, rng, ALG)
            d = (v1.super_inner(v2) - super_inner_integral(v1, v2, 0.0)).max_abs()
            assert d < 1e-10

    def test_matches_at_later_time(self):
        rng = np.random.default_rng(6)
        v1 = random_supervector(5, rng, ALG)
        v2 = random_supervector(5, rng, ALG)
        d = (v1.super_inner(v2) - super_inner_integral(v1, v2, 1.5)).max_abs()
        assert d < 1e-10


class TestSuperadjointDefect:
    def test_self_adjoint_K0(self):
        rng = np.random.default_rng(7)
        k0 = build_generator("K0", 6, ALG)
        for p in (EVEN, ODD):
            v1 = random_supervector(6, rng, ALG, parity=p, support=4)
            v2 = random_supervector(6, rng, ALG, support=4)
            assert superadjoint_defect(k0, k0, v1, v2).max_abs() < 1e-12

    def test_odd_pair(self):
        rng = np.random.default_rng(8)
        vp = build_generator("V+", 6, ALG)
        wm = build_generator("W-", 6, ALG)
        for p in (EVEN, ODD):
            v1 = random_supervector(6, rng, ALG, parity=p, support=4)
            v2 = random_supervector(6, rng, ALG, support=4)
            assert superadjoint_defect(vp, 1j * wm, v1, v2).max_abs() < 1e-12

    def test_negative_control(self):
        rng = np.random.default_rng(9)
        kp = build_generator("K+", 6, ALG)
        v1 = random_supervector(6, rng, ALG, parity=EVEN, support=4)
        v2 = random_supervector(6, rng, ALG, support=4)
        assert superadjoint_defect(kp, kp, v1, v2).max_abs() > 1e-3

    def test_mixed_first_vector_rejected(self):
        kp = build_generator("K+", 4, ALG)
        with pytest.raises(ValueError):
            superadjoint_defect(kp, kp, vac() + odd0(), vac())
