import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osp22 import coherent as coh
from osp22.basis import gram_matrix
from osp22.grassmann import (
    GENERATORS_EXTENDED,
    AlgebraMismatchError,
    GrassmannAlgebra,
    GrassmannElement,
    default_algebra,
    random_coefficients,
    random_element,
)
from osp22.representation import GENERATOR_NAMES, SUPERADJOINTS, build_generator
from osp22.superspace import (
    STRUCTURAL,
    DimensionMismatchError,
    _form,
    _integral_form,
    SuperVector,
    coefficient_algebra,
    random_supervector,
    super_inner_integral,
    superadjoint_defect,
)

ALG = default_algebra()
ALG6 = GrassmannAlgebra(GENERATORS_EXTENDED)
SCALARS = coefficient_algebra(ALG)  # superspace scalars: the algebra without theta, theta_bar
SCALARS6 = coefficient_algebra(ALG6)


def vac(n=4):
    return SuperVector.basis_state(0, 0, n, ALG)


def odd0(n=4):
    return SuperVector.basis_state(1, 0, n, ALG)


class TestConstruction:
    def test_structural_generators_rejected(self):
        theta = ALG.gen("theta")
        with pytest.raises(ValueError):
            SuperVector(ALG, [theta], [ALG.zero()])
        with pytest.raises(ValueError):
            SuperVector(ALG, [SCALARS.one()], [ALG.gen("alpha") * ALG.gen("theta_bar")])

    def test_theta_scalar_times_vector_rejected(self):
        with pytest.raises(ValueError):
            ALG.gen("theta") * vac()
        with pytest.raises(ValueError):
            (1.0 + ALG.gen("theta_bar") * ALG.gen("alpha")) * odd0()

    def test_incompatible_scalar_rejected(self):
        alpha6 = SCALARS6.gen("alpha")
        with pytest.raises(AlgebraMismatchError):
            SuperVector(ALG, [alpha6], [SCALARS.zero()])
        with pytest.raises(AlgebraMismatchError):
            alpha6 * vac()

    def test_slot_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SuperVector(ALG, [ALG.one()], [])

    def test_array_round_trip(self):
        rng = np.random.default_rng(2)
        v = random_supervector(5, rng, ALG)
        assert v.coeffs.shape == (10, 4)  # 2 n_max rows over (alpha, alpha_bar)
        assert random_supervector(3, rng, ALG6).coeffs.shape == (6, 16)
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
        """Superspace-width rows, the only ones that could hold theta, do not fit."""
        coeffs = np.zeros((2, ALG.size), dtype=complex)
        with pytest.raises(ValueError):
            SuperVector.from_coeffs(ALG, coeffs)
        coeffs[0] = ALG.gen("theta_bar").coeffs
        with pytest.raises(ValueError):
            SuperVector.from_coeffs(ALG, coeffs)


def _loop_draw(alg, rng, parity=None):
    """Reference stream: one standard_normal(2) per theta-free mask, ascending, as a scalar."""
    data = {}
    for mask in range(1 << alg.n_generators):
        names = {alg.generators[k] for k in range(alg.n_generators) if mask >> k & 1}
        if names & {"theta", "theta_bar"}:
            continue
        if parity is not None and len(names) % 2 != parity:
            continue
        re, im = rng.standard_normal(2)
        data[tuple(sorted(names, key=alg.index.get))] = complex(re, im) / np.sqrt(2.0)
    return coefficient_algebra(alg).element(data)


class TestRandomDraws:
    """The batched draws consume the seeded stream exactly as a per-mask loop."""

    @pytest.mark.parametrize("generators", [None, GENERATORS_EXTENDED])
    @pytest.mark.parametrize("parity", [None, 0, 1], ids=["None", "even", "odd"])
    def test_coefficient_matches_loop(self, generators, parity):
        alg = ALG if generators is None else GrassmannAlgebra(generators)
        got = random_element(coefficient_algebra(alg), np.random.default_rng(31), parity=parity)
        want = _loop_draw(alg, np.random.default_rng(31), parity=parity)
        assert got == want

    @pytest.mark.parametrize("parity", [None, 0, 1], ids=["None", "even", "odd"])
    @pytest.mark.parametrize("support", [None, 3])
    def test_supervector_matches_loop(self, parity, support):
        n = 5
        top = n if support is None else support
        got = random_supervector(n, np.random.default_rng(32), ALG, parity=parity, support=support)
        rng = np.random.default_rng(32)
        flip = None if parity is None else 1 - parity
        even = [_loop_draw(ALG, rng, parity) if k < top else SCALARS.zero() for k in range(n)]
        odd = [_loop_draw(ALG, rng, flip) if k < top else SCALARS.zero() for k in range(n)]
        want = np.array([c.coeffs for c in even + odd])
        assert np.array_equal(got.coeffs, want)
        # the stream continues where the loop would have left it
        rng_got = np.random.default_rng(32)
        random_supervector(n, rng_got, ALG, parity=parity, support=support)
        assert rng_got.standard_normal() == rng.standard_normal()


# each draw returns the elements or vectors it drew with the given parity
PARITY_DRAWS = [
    pytest.param(
        lambda rng, p: [GrassmannElement(ALG, row) for row in random_coefficients(ALG, rng, 3, p)],
        id="coefficients",
    ),
    pytest.param(
        lambda rng, p: [GrassmannElement(ALG, random_coefficients(ALG, rng, 3, [None, p, 1])[1])],
        id="coefficients-per-row",
    ),
    pytest.param(lambda rng, p: [random_element(ALG, rng, p)], id="element"),
    pytest.param(lambda rng, p: [random_supervector(4, rng, ALG, parity=p)], id="supervector"),
]


@pytest.mark.parametrize("draw", PARITY_DRAWS)
def test_parity_is_none_0_or_1(draw):
    """A parity is None, 0 (even) or 1 (odd); any other value, the strings included, is a KeyError."""
    draw(np.random.default_rng(5), None)
    for parity in (0, 1):
        assert {x.parity_bit for x in draw(np.random.default_rng(5), parity)} == {parity}
    for parity in ("even", "odd", 2, -1):
        with pytest.raises(KeyError):
            draw(np.random.default_rng(5), parity)


@pytest.mark.parametrize(
    "mixed",
    [
        pytest.param(lambda: (1 + SCALARS.gen("alpha")).parity_bit, id="element"),
        pytest.param(lambda: (vac() + odd0()).parity_bit, id="vector-sectors"),
        pytest.param(lambda: SuperVector(ALG, [1 + SCALARS.gen("alpha")], [0.0]).parity_bit, id="vector-slot"),
        pytest.param(lambda: (1 + SCALARS.gen("alpha")).power(0.5), id="power"),
        pytest.param(
            lambda: superadjoint_defect(build_generator("K+", 4, ALG), build_generator("K-", 4, ALG), vac() + odd0(), vac()),
            id="superadjoint_defect",
        ),
    ],
)
def test_a_mixed_value_has_no_parity(mixed):
    with pytest.raises(ValueError, match="not homogeneous"):
        mixed()


def _bits(x):
    """Exact bit patterns, so that a signed zero counts as a difference."""
    return np.ascontiguousarray(x).view(np.uint64)


@st.composite
def _coefficient_rows(draw):
    """Coefficient-algebra rows at g=4 or g=6, some entries exact zeros or small integers."""
    space = coefficient_algebra(draw(st.sampled_from([ALG, ALG6])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2, int(rng.integers(1, 8)), space.size)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x[rng.random(shape) < 0.3] = 0.0
    if draw(st.booleans()):
        x = np.round(4 * x)
    return space, x[0], x[1]


class TestCoefficientAlgebra:
    """Superspace scalars live in the algebra without theta, theta_bar; the integral
    oracle embeds its mask m as mask 4 m of the algebra with theta, theta_bar prepended."""

    def test_layout(self):
        for alg, names in ((ALG, ("alpha", "alpha_bar")), (ALG6, ("alpha", "alpha_bar", "xi", "xi_bar"))):
            space = coefficient_algebra(alg)
            assert space.generators == names
            assert space is coefficient_algebra(GrassmannAlgebra(alg.generators))
            assert space.plan is GrassmannAlgebra(names).plan
            assert coefficient_algebra(space) is space
            full = GrassmannAlgebra(STRUCTURAL + names)
            assert [full.monomial_name(4 * m) for m in range(space.size)] == [
                space.monomial_name(m) for m in range(space.size)
            ]

    @settings(max_examples=150, deadline=None)
    @given(_coefficient_rows())
    def test_plan_operations_bit_identical(self, rows):
        space, x, y = rows
        full, sub = GrassmannAlgebra(STRUCTURAL + space.generators).plan, space.plan
        embed = 4 * np.arange(space.size)

        def lift(rows):
            out = np.zeros(rows.shape[:-1] + (full.size,), dtype=complex)
            out[..., embed] = rows
            return out

        def same(full_result, sub_result):
            assert not np.any(np.delete(full_result, embed, axis=-1))
            np.testing.assert_array_equal(_bits(full_result[..., embed]), _bits(sub_result))

        fx, fy = lift(x), lift(y)
        same(full.mul(fx, fy), sub.mul(x, y))
        same(full.mul(fx[:, None, :], fy[None, :, :]), sub.mul(x[:, None, :], y[None, :, :]))
        same(full.conj(fx), sub.conj(x))
        same(full.grade(fx), sub.grade(x))
        for m in range(space.size):
            full_out, sub_out = np.zeros_like(fx), np.zeros_like(x)
            full.add_left_mul(int(embed[m]), fx, full_out)
            sub.add_left_mul(m, x, sub_out)
            same(full_out, sub_out)
        gram = x.conj().T @ y
        full_gram = np.zeros((full.size, full.size), dtype=complex)
        full_gram[np.ix_(embed, embed)] = gram
        same(full.contract(full_gram), sub.contract(gram))

    @pytest.mark.parametrize("alg", [ALG, ALG6], ids=["g4", "g6"])
    def test_every_scalar_is_over_the_vector_algebra(self, alg):
        """Scalars going in and coming out of vectors, operators and coherent states are
        elements of ``v.algebra``, with 2^(g-2) coefficients, whatever algebra was passed."""
        rng = np.random.default_rng(11)
        v = random_supervector(6, rng, alg)
        space = v.algebra
        assert space is coefficient_algebra(alg) and space.size == alg.size // 4
        b = random_element(space, rng)
        p = coh.CoherentParams(0.3 - 0.2j, 0.6 + 0.1j)
        cf = coh.closed_form(p, alg)
        ops = [build_generator(name, 64, alg) for name in GENERATOR_NAMES]
        trajectory = coh.trajectory(p, 0.5, alg)
        scalars = [
            v.super_inner(v),
            super_inner_integral(v, v),
            (b * v).even[0],
            *v.even,
            *v.odd,
            b,
            p.alpha(alg),
            cf.normalizer,
            cf.norm_sq(),
            *coh.berezin_symbols(ops, p, alg),
            *(coh.expected_symbol(name, p, alg) for name in GENERATOR_NAMES),
            trajectory["p_theta"],
            trajectory["x_theta"],
        ]
        for scalar in scalars:
            assert scalar.algebra is space and scalar.coeffs.shape == (space.size,)
        assert ops[0].algebra is space and (p.alpha(alg) * ops[0]).algebra is space

    def test_slot_elements_do_not_alias_the_coefficients(self):
        v = random_supervector(3, np.random.default_rng(12), ALG)
        for element in v.even + v.odd:
            assert not np.shares_memory(element.coeffs, v.coeffs)


class TestInnerProduct:
    def test_even_unit(self):
        assert vac().super_inner(vac()) == 1

    def test_odd_weight_i(self):
        assert odd0().super_inner(odd0()) == 1j

    def test_odd_scalar_rule_example(self):
        al = SCALARS.gen("alpha")
        v = al * odd0()
        want = -1j * (al.conj() * al)
        assert (v.super_inner(v) - want).max_abs() == 0.0

    def test_sector_orthogonality_exact(self):
        assert vac().super_inner(odd0()).max_abs() == 0.0

    def test_truncation_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            vac(4).super_inner(vac(5))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            p1 = 1 - int(rng.integers(2))
            p2 = 1 - int(rng.integers(2))
            v1 = random_supervector(5, rng, ALG, parity=p1)
            v2 = random_supervector(5, rng, ALG, parity=p2)
            sign = -1.0 if (p1 and p2) else 1.0
            assert (v1.super_inner(v2).conj() - sign * v2.super_inner(v1)).max_abs() < 1e-12

    def test_scalar_extraction_rule(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            p1 = 1 - int(rng.integers(2))
            pb = 1 - int(rng.integers(2))
            v1 = random_supervector(5, rng, ALG, parity=p1)
            v2 = random_supervector(5, rng, ALG)
            b1 = random_element(SCALARS, rng)
            b2 = random_element(SCALARS, rng, parity=pb)
            sign = -1.0 if (p1 and pb) else 1.0
            lhs = (b1 * v1).super_inner(b2 * v2)
            rhs = sign * (b1.conj() * b2 * v1.super_inner(v2))
            assert (lhs - rhs).max_abs() < 1e-12


def _form_by_assignment(space, bra, ket):
    """``_form`` as it graded a copy of the ket in place, with float signs cast to complex by
    numpy, and contracted the stacked (real, imag) parts of the signed gather."""
    plan = space.plan
    n = bra.shape[-2] // 2
    ket = ket.copy()
    ket[..., n:, :] = 1j * (plan.parity_sign.real * ket[..., n:, :])
    conj_bra = plan._conj_sign.real * np.conj(bra[..., plan._conj_perm])
    w = plan.sign * (np.swapaxes(conj_bra, -1, -2) @ ket)[..., plan.left, plan.right]
    return plan._accumulate(np.stack([w.real, w.imag], axis=-1), plan._full)


class TestFormBits:
    @pytest.mark.parametrize("alg", [ALG, ALG6], ids=["g4", "g6"])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["one", "stacked", "stacked2"])
    def test_form_matches_the_copy_and_assign_reference(self, alg, lead):
        """Stacked blocks of pairs, with signed zeros in both vectors, have the bits of the
        reference, and one pair those of ``super_inner``."""
        space = coefficient_algebra(alg)
        rng = np.random.default_rng(23)
        shape = lead + (2 * 6, space.size)
        bra, ket = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
        for x in (bra, ket):
            x.real[rng.random(shape) < 0.2] = -0.0
            x.imag[rng.random(shape) < 0.2] = -0.0
        got, want = _form(space, bra, ket), _form_by_assignment(space, bra, ket)
        assert got.shape == lead + (space.size,)
        assert np.array_equal(_bits(got), _bits(want))
        if not lead:
            pair = SuperVector.from_coeffs(space, bra).super_inner(SuperVector.from_coeffs(space, ket))
            assert np.array_equal(_bits(pair.coeffs), _bits(want))


class TestNorm:
    def test_basis_unit(self):
        assert SuperVector.basis_state(0, 3, 6, ALG).norm() == 1.0

    def test_mixed_vector_sums_sectors(self):
        assert abs((vac() + odd0()).norm() ** 2 - 2.0) < 1e-15

    def test_zero(self):
        assert SuperVector.zero(4, ALG).norm() == 0.0

    def test_nilpotent_coefficients_do_not_enter(self):
        al = SCALARS.gen("alpha")
        v = SuperVector(ALG, [1 + al * SCALARS.gen("alpha_bar")], [SCALARS.zero()])
        assert v.norm() == 1.0


class TestParity:
    def test_basis_parities(self):
        assert vac().parity_bit == 0
        assert odd0().parity_bit == 1

    def test_odd_coefficient_flips(self):
        assert (SCALARS.gen("alpha") * odd0()).parity_bit == 0

    def test_mixed_flagged(self):
        with pytest.raises(ValueError, match="not homogeneous"):
            (vac() + odd0()).parity_bit


class TestIntegralOracle:
    @pytest.mark.parametrize("alg", [ALG, ALG6], ids=["g4", "g6"])
    def test_berezin_over_theta_leaves_only_scalar_masks(self, alg):
        """Integrating out theta, theta_bar (the two low bits) leaves every theta- or
        theta_bar-carrying mask exactly 0.0, so the oracle reads its result back losslessly."""
        x = random_coefficients(alg, np.random.default_rng(13), 64)
        out = alg.berezin_coeffs(x, STRUCTURAL)
        assert np.any(out[:, ::4])
        carrying = (np.arange(alg.size) & 0b11) != 0
        assert np.all(out[:, carrying] == 0.0)  # signed zeros included: -0.0 == 0.0

    def test_matches_fast_path(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            v1 = random_supervector(6, rng, ALG)
            v2 = random_supervector(6, rng, ALG)
            d = (v1.super_inner(v2) - super_inner_integral(v1, v2, 0.0)).max_abs()
            assert d < 1e-10

    @pytest.mark.parametrize("alg", [ALG, ALG6], ids=["g4", "g6"])
    @pytest.mark.parametrize("t", [0.0, 1.5])
    def test_array_forms_match_the_vector_forms(self, alg, t):
        """On a (3, 4) stack of rounds, each pair's array-level fast form and oracle equal
        ``super_inner`` and ``super_inner_integral`` of its vectors, bit for bit."""
        rng = np.random.default_rng(41)
        space = coefficient_algebra(alg)
        pairs = [[random_supervector(6, rng, alg) for _ in range(2)] for _ in range(12)]
        bra, ket = (np.array([p[k].coeffs for p in pairs]).reshape(3, 4, 12, space.size) for k in (0, 1))
        fast = _form(space, bra, ket).reshape(12, -1)
        oracle = _integral_form(space, bra, ket, t).reshape(12, -1)
        for (v1, v2), got_fast, got_oracle in zip(pairs, fast, oracle, strict=True):
            assert np.array_equal(got_fast, v1.super_inner(v2).coeffs)
            assert np.array_equal(got_oracle, super_inner_integral(v1, v2, t).coeffs)

    def test_matches_at_later_time(self):
        rng = np.random.default_rng(6)
        v1 = random_supervector(5, rng, ALG)
        v2 = random_supervector(5, rng, ALG)
        d = (v1.super_inner(v2) - super_inner_integral(v1, v2, 1.5)).max_abs()
        assert d < 1e-10

    @pytest.mark.parametrize("t", [0.0, 1.5])
    def test_gram_first_matches_the_pairwise_integrand(self, t):
        """The oracle contracts the Gram with the kets first; the reference forms every slot
        pair's integrand bra_i ket_j and then contracts it with the Gram.  Only the summation
        order differs, so they agree to rounding."""
        alg = GrassmannAlgebra(STRUCTURAL + SCALARS.generators)
        plan, embed = alg.plan, 4 * np.arange(SCALARS.size)
        theta = alg.gen("theta").coeffs
        weight = (1j * (alg.one() - 1j * (alg.gen("theta_bar") * alg.gen("theta")))).coeffs
        n = 6
        gram = gram_matrix([2 * k for k in range(n)] + [2 * k + 1 for k in range(n)], t)

        def with_theta(vec):
            rows = np.zeros((2 * n, alg.size), dtype=complex)
            rows[:, embed] = vec.coeffs
            rows[n:] = plan.mul(rows[n:], theta)
            return rows

        rng = np.random.default_rng(17)
        for _ in range(30):
            v1 = random_supervector(n, rng, ALG)
            v2 = random_supervector(n, rng, ALG)
            bra = plan.conj(with_theta(v1))
            ket = plan.mul(with_theta(v2), weight)
            integrand = plan.mul(bra[:, None, :], ket[None, :, :])
            terms = alg.berezin_coeffs(integrand, STRUCTURAL)
            pairwise = np.einsum("ij,ijm->m", gram, terms)[embed]
            assert np.abs(super_inner_integral(v1, v2, t).coeffs - pairwise).max() <= 1e-13


class TestSuperadjointDefect:
    @pytest.mark.parametrize("name", list(SUPERADJOINTS))
    def test_claimed_adjoint(self, name):
        rng = np.random.default_rng(7)
        coeff, adjoint = SUPERADJOINTS[name]
        op = build_generator(name, 6, ALG)
        claimed = coeff * build_generator(adjoint, 6, ALG)
        for p in (0, 1):
            v1 = random_supervector(6, rng, ALG, parity=p, support=4)
            v2 = random_supervector(6, rng, ALG, support=4)
            assert superadjoint_defect(op, claimed, v1, v2).max_abs() < 1e-12
            # a sign-flipped claim misses by twice (A+ v1 | v2), far from rounding
            assert superadjoint_defect(op, -1.0 * claimed, v1, v2).max_abs() > 1e-3

    def test_negative_control(self):
        rng = np.random.default_rng(9)
        kp = build_generator("K+", 6, ALG)
        v1 = random_supervector(6, rng, ALG, parity=0, support=4)
        v2 = random_supervector(6, rng, ALG, support=4)
        assert superadjoint_defect(kp, kp, v1, v2).max_abs() > 1e-3

    def test_mixed_first_vector_rejected(self):
        kp = build_generator("K+", 4, ALG)
        with pytest.raises(ValueError):
            superadjoint_defect(kp, kp, vac() + odd0(), vac())
