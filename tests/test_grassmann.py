import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osp22.grassmann import (
    EVEN,
    MIXED,
    ODD,
    AlgebraMismatchError,
    GENERATORS_EXTENDED,
    GrassmannAlgebra,
    default_algebra,
    random_coefficients,
    random_element,
)

ALG = default_algebra()
THETA = ALG.gen("theta")
THETA_BAR = ALG.gen("theta_bar")
ALPHA = ALG.gen("alpha")
ALPHA_BAR = ALG.gen("alpha_bar")


def coeffs():
    return st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def elements():
    n_masks = 1 << ALG.n_generators
    return st.lists(coeffs(), min_size=n_masks, max_size=n_masks).map(
        lambda cs: sum((c * _mono(m) for m, c in enumerate(cs)), ALG.zero())
    )


def _mono(mask):
    out = ALG.one()
    for k, name in enumerate(ALG.generators):
        if mask >> k & 1:
            out = out * ALG.gen(name)
    return out


class TestProduct:
    def test_nilpotency(self):
        assert (THETA * THETA).max_abs() == 0.0

    def test_anticommutation_reorders_with_sign(self):
        assert THETA_BAR * THETA == -(THETA * THETA_BAR)

    def test_expansion(self):
        got = (1 + THETA) * (1 + THETA_BAR)
        assert got == 1 + THETA + THETA_BAR + THETA * THETA_BAR

    def test_mismatched_algebras_rejected(self):
        other = GrassmannAlgebra(GENERATORS_EXTENDED)
        with pytest.raises(AlgebraMismatchError):
            THETA * other.gen("xi")

    @settings(max_examples=60, deadline=None)
    @given(elements(), elements(), elements())
    def test_associativity(self, a, b, c):
        """The defect is scaled by the sign-free triple product |a| |b| |c|, which bounds the
        rounding of both groupings; |(ab)c| does not where their terms cancel."""
        defect = ((a * b) * c - a * (b * c)).max_abs()
        scale = ALG.plan.sign_free_mul(ALG.plan.sign_free_mul(a.coeffs, b.coeffs), c.coeffs)
        assert defect <= 1e-14 * scale.max()

    def test_sign_free_mul_bounds_the_product(self):
        rng = np.random.default_rng(3)
        for alg in (ALG, GrassmannAlgebra(GENERATORS_EXTENDED)):
            for _ in range(20):
                x, y = random_element(alg, rng), random_element(alg, rng)
                bound = alg.plan.sign_free_mul(x.coeffs, y.coeffs)
                assert bound.shape == (alg.size,) and bound.dtype == float
                assert np.all(np.abs((x * y).coeffs) <= bound * (1 + 1e-15))
            # on (..., 2^g) arrays, every row is bit for bit the per-row bound
            x, y = random_coefficients(alg, rng, 6), random_coefficients(alg, rng, 6)
            rows = np.array([alg.plan.sign_free_mul(a, b) for a, b in zip(x, y)])
            assert np.array_equal(alg.plan.sign_free_mul(x, y), rows)
            by_y0 = np.array([alg.plan.sign_free_mul(a, y[0]) for a in x]).reshape(2, 3, -1)
            assert np.array_equal(alg.plan.sign_free_mul(x.reshape(2, 3, -1), y[0]), by_y0)
        # theta_bar theta = -theta theta_bar: the sign is dropped, the modulus kept
        assert ALG.plan.sign_free_mul(THETA_BAR.coeffs, THETA.coeffs)[3] == 1.0

    def test_supercommutativity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pa = EVEN if rng.integers(2) else ODD
            pb = EVEN if rng.integers(2) else ODD
            a = random_element(ALG, rng, parity=pa)
            b = random_element(ALG, rng, parity=pb)
            sign = -1.0 if (pa == ODD and pb == ODD) else 1.0
            assert (a * b - sign * (b * a)).max_abs() < 1e-14


class TestConjugation:
    def test_partner_swap(self):
        assert THETA_BAR.conj() == THETA
        assert THETA.conj() == THETA_BAR

    def test_order_preserving_on_pair(self):
        # conj(i alpha_bar alpha) keeps the factor order, giving the same element back
        elem = 1j * (ALPHA_BAR * ALPHA)
        assert (elem.conj() - elem).max_abs() == 0.0

    def test_scalar_conjugation(self):
        assert ALG.scalar(2 - 3j).conj() == ALG.scalar(2 + 3j)

    @pytest.mark.parametrize("lead", [(), (200,), (3, 16)], ids=["one", "rows", "stack"])
    @pytest.mark.parametrize("g", [2, 4, 6])
    def test_gather_equals_scatter(self, g, lead):
        """``ProductPlan.conj`` reads through the conjugation permutation, its own inverse; it
        writes what the scatter out[..., P] = sign * conj(x) writes, bit for bit, signed zeros
        included."""
        plan = GrassmannAlgebra(GENERATORS_EXTENDED[:g]).plan
        rng = np.random.default_rng(g)
        parts = rng.standard_normal((2, *lead, plan.size))
        parts[rng.random(parts.shape) < 0.3] = 0.0
        parts *= rng.choice([-1.0, 1.0], parts.shape)  # zeros of both signs
        x = np.empty(parts.shape[1:], dtype=complex)
        x.real, x.imag = parts
        perm = np.array([m for m, _ in plan.conj_table])
        sign = np.array([float(s) for _, s in plan.conj_table])
        want = np.empty(x.shape, dtype=complex)
        want[..., perm] = sign * np.conj(x)
        got = plan.conj(x)
        assert got.shape == x.shape and got.dtype == want.dtype
        assert np.array_equal(np.ascontiguousarray(got).view(np.uint64), want.view(np.uint64))
        assert np.signbit(want.view(float)[want.view(float) == 0]).any()

    @settings(max_examples=60, deadline=None)
    @given(elements(), elements())
    def test_product_homomorphism(self, a, b):
        assert ((a * b).conj() - a.conj() * b.conj()).max_abs() < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(elements())
    def test_involution(self, a):
        assert (a.conj().conj() - a).max_abs() == 0.0


class TestBerezin:
    def test_pair_normalization(self):
        assert (THETA_BAR * THETA).berezin(("theta", "theta_bar")) == 1

    def test_constant_integrates_to_zero(self):
        assert ALG.one().berezin(("theta", "theta_bar")).max_abs() == 0.0

    def test_linearity_example(self):
        elem = 3.5 * (THETA_BAR * THETA) + (2 + 1j) * THETA
        assert elem.berezin(("theta", "theta_bar")) == 3.5

    def test_second_pair_same_convention(self):
        assert (ALPHA_BAR * ALPHA).berezin(("alpha", "alpha_bar")) == 1

    def test_kills_elements_without_the_generator(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_element(ALG, rng)
            no_theta = ALG.element(
                {names: c for names, c in a.terms() if "theta" not in names}
            )
            assert no_theta.berezin(("theta",)).max_abs() == 0.0

    def test_linearity_random(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = random_element(ALG, rng)
            b = random_element(ALG, rng)
            lhs = (a + 2.5 * b).berezin(("theta", "theta_bar"))
            rhs = a.berezin(("theta", "theta_bar")) + 2.5 * b.berezin(("theta", "theta_bar"))
            assert (lhs - rhs).max_abs() < 1e-14


class TestParity:
    def test_examples(self):
        assert (THETA * THETA_BAR).parity == EVEN
        assert ALPHA.parity == ODD
        assert (1 + THETA).parity == MIXED

    def test_zero_is_even(self):
        assert ALG.zero().parity == EVEN

    def test_parity_bit_raises_on_mixed(self):
        with pytest.raises(ValueError):
            (1 + THETA).parity_bit


class TestAnalytic:
    def test_power_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = random_element(ALG, rng, parity=EVEN) + 3.0
            assert (a * a.power(-1.0) - 1.0).max_abs() < 1e-13

    def test_power_sqrt_squares_back(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a = random_element(ALG, rng, parity=EVEN) + 4.0
            r = a.power(0.5)
            assert (r * r - a).max_abs() < 1e-12

    def test_power_requires_even(self):
        with pytest.raises(ValueError):
            (THETA + 1j * ALPHA).power(2.0)

    def test_power_requires_body(self):
        with pytest.raises(ZeroDivisionError):
            (THETA * THETA_BAR).power(0.5)


def test_extended_algebra_has_three_pairs():
    alg6 = GrassmannAlgebra(GENERATORS_EXTENDED)
    xi, xb = alg6.gen("xi"), alg6.gen("xi_bar")
    assert (xb * xi).berezin(("xi", "xi_bar")) == 1
    assert xi.conj() == xb


# -- first-principles reference for the product plan ---------------------------
#
# Elements are dicts {word: coefficient} over canonical words (tuples of
# generator names in algebra order).  A product concatenates words and sorts
# them back into canonical order, one sign per transposition; conjugation
# swaps partners in place and re-sorts; Berezin integration over g moves g to
# the right end of the word, one sign per letter passed, and drops it.

_ALG6 = GrassmannAlgebra(GENERATORS_EXTENDED)


def _canonical_words(alg):
    from itertools import combinations

    return [w for r in range(alg.n_generators + 1) for w in combinations(alg.generators, r)]


def _sort_word(alg, word):
    idx = [alg.index[name] for name in word]
    if len(set(idx)) < len(idx):
        return 0, ()
    inversions = sum(1 for i in range(len(idx)) for j in range(i + 1, len(idx)) if idx[i] > idx[j])
    return (-1) ** inversions, tuple(sorted(word, key=alg.index.get))


def _ref_add(out, word, value):
    out[word] = out.get(word, 0j) + value


def _ref_mul(alg, x, y):
    out = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            sign, word = _sort_word(alg, w1 + w2)
            if sign:
                _ref_add(out, word, sign * c1 * c2)
    return out


def _partner(name):
    return name[:-4] if name.endswith("_bar") else name + "_bar"


def _ref_conj(alg, x):
    out = {}
    for w, c in x.items():
        sign, word = _sort_word(alg, tuple(_partner(n) for n in w))
        _ref_add(out, word, sign * c.conjugate())
    return out


def _ref_berezin(x, over):
    for name in over:
        out = {}
        for w, c in x.items():
            if name in w:
                k = w.index(name)
                _ref_add(out, w[:k] + w[k + 1 :], (-1) ** (len(w) - 1 - k) * c)
        x = out
    return x


def _nonzero(x):
    return {w: c for w, c in x.items() if c != 0}


def _as_dict(elem):
    return dict(elem.terms())


@st.composite
def _kernel_case(draw, alg):
    """(algebra, coefficient dict) on dense, sparse or homogeneous supports."""
    words = _canonical_words(alg)
    kind = draw(st.sampled_from(["dense", "sparse", "even", "odd"]))
    if kind == "sparse":
        words = draw(st.lists(st.sampled_from(words), min_size=1, max_size=4, unique=True))
    elif kind != "dense":
        words = [w for w in words if len(w) % 2 == (kind == "odd")]
    cs = draw(st.lists(coeffs(), min_size=len(words), max_size=len(words)))
    return alg, dict(zip(words, cs))


def _close_to_reference(alg, got, ref, scale):
    """Entries agree within a bound fixed from the dtype and the operand sizes."""
    bound = 4 * alg.size * np.finfo(float).eps * max(scale, 1.0)
    for word in set(got) | set(ref):
        assert abs(got.get(word, 0j) - ref.get(word, 0j)) <= bound, word


_KERNEL_ALGEBRAS = st.sampled_from([ALG, _ALG6])


def _kernel_pairs():
    return _KERNEL_ALGEBRAS.flatmap(lambda alg: st.tuples(_kernel_case(alg), _kernel_case(alg)))


def _kernel_singles():
    return _KERNEL_ALGEBRAS.flatmap(_kernel_case)


class TestPlanAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(_kernel_pairs())
    def test_product(self, case):
        (alg, x), (_, y) = case
        got = alg.element(x) * alg.element(y)
        ref = _ref_mul(alg, x, y)
        scale = sum(abs(c) for c in x.values()) * sum(abs(c) for c in y.values())
        _close_to_reference(alg, _as_dict(got), ref, scale)

    @settings(max_examples=50, deadline=None)
    @given(_kernel_singles())
    def test_conj_exact(self, case):
        alg, x = case
        got = alg.element(x).conj()
        assert _as_dict(got) == _nonzero(_ref_conj(alg, x))

    @settings(max_examples=50, deadline=None)
    @given(_kernel_singles(), st.data())
    def test_berezin_exact(self, case, data):
        alg, x = case
        over = data.draw(st.lists(st.sampled_from(alg.generators), max_size=3, unique=True))
        got = alg.element(x).berezin(tuple(over))
        assert _as_dict(got) == _nonzero(_ref_berezin(x, over))

    @settings(max_examples=30, deadline=None)
    @given(_kernel_pairs())
    def test_conj_homomorphism_exact(self, case):
        (alg, x), (_, y) = case
        a, b = alg.element(x), alg.element(y)
        assert (a * b).conj() == a.conj() * b.conj()

    def test_element_applies_permutation_sign(self):
        for alg in (ALG, _ALG6):
            for word in _canonical_words(alg):
                for shuffled in (word[::-1], word[1:] + word[:1]):
                    sign, canon = _sort_word(alg, shuffled)
                    assert alg.element({shuffled: 1.0}).coeff(canon) == sign

    def test_batched_product_matches_elementwise(self):
        rng = np.random.default_rng(12)
        for alg in (ALG, _ALG6):
            xs = [random_element(alg, rng) for _ in range(5)]
            ys = [random_element(alg, rng) for _ in range(5)]
            batch = alg.plan.mul(
                np.array([x.coeffs for x in xs])[:, None, :],
                np.array([y.coeffs for y in ys])[None, :, :],
            )
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    assert np.array_equal(batch[i, j], (x * y).coeffs)

    def test_plan_built_once_per_generator_set(self):
        assert GrassmannAlgebra().plan is ALG.plan
        assert GrassmannAlgebra(GENERATORS_EXTENDED).plan is _ALG6.plan


@pytest.mark.parametrize("alg", [ALG, _ALG6], ids=["g4", "g6"])
@pytest.mark.parametrize("parity", [None, EVEN, ODD])
def test_random_element_draws_like_a_per_mask_loop(alg, parity):
    """One batched draw consumes the seeded stream as one standard_normal(2) per mask did."""
    rng = np.random.default_rng(41)
    terms = {}
    for mask in range(1 << alg.n_generators):
        word = tuple(name for k, name in enumerate(alg.generators) if mask >> k & 1)
        if (parity == EVEN and len(word) % 2) or (parity == ODD and not len(word) % 2):
            continue
        re, im = rng.standard_normal(2)
        terms[word] = complex(re, im) / np.sqrt(2.0)
    got_rng = np.random.default_rng(41)
    got = random_element(alg, got_rng, parity=parity)
    assert got == alg.element(terms)
    assert got_rng.standard_normal() == rng.standard_normal()
