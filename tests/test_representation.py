import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osp22 import basis, representation
from osp22.config import RunConfig
from osp22.grassmann import (
    GENERATORS_EXTENDED,
    AlgebraMismatchError,
    GrassmannAlgebra,
    GrassmannElement,
    default_algebra,
)
from osp22.representation import (
    COMMUTATOR_TABLE,
    GENERATOR_NAMES,
    HERMITIAN_BASE,
    SUPERADJOINTS,
    SuperOperator,
    _STENCILS,
    _generator_table,
    build_generator,
    chi_slot_permutation,
    generator_parity,
    hamiltonian_defects,
    interior_columns,
    operator_exp,
    ptheta_operator,
    structure_defects,
    vacuum_defects,
    xtheta_operator,
)
from osp22.coherent import CoherentParams, displacement_operator
from osp22.suites import suite_checks
from osp22.superspace import SuperVector, coefficient_algebra, random_supervector

ALG = default_algebra()
SCALARS = coefficient_algebra(ALG)  # superspace scalars: the algebra without theta, theta_bar
N = 12


ALL_NAMES = GENERATOR_NAMES + HERMITIAN_BASE + ("h", "p_theta")
ODD_NAMES = {"V+", "V-", "W+", "W-", "X5", "X6", "X7", "X8", "p_theta"}


def op(name, n=N):
    return build_generator(name, n, ALG)


def generators(n):
    return {name: op(name, n) for name in GENERATOR_NAMES}


class TestGenerators:
    def test_K0_vacuum(self):
        vac = SuperVector.basis_state(0, 0, N, ALG)
        assert (op("K0").apply(vac) - 0.25 * vac).max_abs() == 0.0

    def test_B_vacuum(self):
        vac = SuperVector.basis_state(0, 0, N, ALG)
        assert (op("B").apply(vac) + 0.25 * vac).max_abs() == 0.0

    def test_Vplus_vacuum(self):
        vac = SuperVector.basis_state(0, 0, N, ALG)
        odd0 = SuperVector.basis_state(1, 0, N, ALG)
        assert (op("V+").apply(vac) - (1 / np.sqrt(2)) * odd0).max_abs() < 1e-15

    def test_W_kills_even_sector(self):
        vac = SuperVector.basis_state(0, 0, N, ALG)
        assert op("W+").apply(vac).max_abs() == 0.0
        assert op("W-").apply(vac).max_abs() == 0.0

    def test_V_kills_odd_sector(self):
        odd3 = SuperVector.basis_state(1, 3, N, ALG)
        assert op("V+").apply(odd3).max_abs() == 0.0
        assert op("V-").apply(odd3).max_abs() == 0.0

    def test_block_patterns(self):
        for name in ALL_NAMES:
            assert op(name).block_pattern_defect() == 0.0

    def test_parities(self):
        for name in ALL_NAMES:
            assert op(name).parity_bit == generator_parity(name) == (name in ODD_NAMES)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_generator("Q", N, ALG)

    def test_min_truncation(self):
        with pytest.raises(ValueError):
            build_generator("K0", 1, ALG)

def _apply_per_slot(beta, name, v):
    """(beta G) v slot by slot: beta G (v_j Psi_j) = (-1)^{p(G) p(v_j)} beta v_j G Psi_j."""
    mat = op(name, v.n_max).body
    odd_g = op(name, v.n_max).parity_bit
    slots = v.even + v.odd
    # an odd G moving past c flips the sign of c's odd part
    moved = [beta * (GrassmannElement(SCALARS, SCALARS.plan.parity_sign * c.coeffs) if odd_g else c) for c in slots]
    out = []
    for i in range(2 * v.n_max):
        acc = SCALARS.zero()
        for j, c in enumerate(moved):
            if mat[i, j] != 0:
                acc = acc + complex(mat[i, j]) * c
        out.append(acc)
    return SuperVector(ALG, out[: v.n_max], out[v.n_max :])


class TestApplyAgainstSlots:
    @pytest.mark.parametrize(
        "beta_name, name", [("alpha", "V+"), ("alpha_bar", "W-"), ("alpha", "K+"), ("alpha_bar", "B")]
    )
    def test_grassmann_multiple(self, beta_name, name):
        rng = np.random.default_rng(21)
        beta = (0.7 - 0.4j) * SCALARS.gen(beta_name)
        for _ in range(3):
            v = random_supervector(N, rng, ALG, support=8)
            got = (beta * op(name)).apply(v)
            want = _apply_per_slot(beta, name, v)
            assert (got - want).max_abs() < 1e-13

    def test_odd_odd_koszul_sign(self):
        # alpha V+ on alpha_bar Psi_0^0: the odd block passes the odd coefficient
        vec = SCALARS.gen("alpha_bar") * SuperVector.basis_state(0, 0, N, ALG)
        got = (SCALARS.gen("alpha") * op("V+")).apply(vec)
        pair = SCALARS.gen("alpha") * SCALARS.gen("alpha_bar")
        want = (-np.sqrt(0.5)) * (pair * SuperVector.basis_state(1, 0, N, ALG))
        assert (got - want).max_abs() == 0.0


# -- quadrant-sparse composition ---------------------------------------------------

ALG6 = GrassmannAlgebra(GENERATORS_EXTENDED)
SCALARS6 = coefficient_algebra(ALG6)
DIAGONAL = {(0, 0), (1, 1)}
ODD_TO_EVEN = {(0, 1)}  # (row sector, column sector): rows in the even sector, columns odd
EVEN_TO_ODD = {(1, 0)}
BLOCK_KINDS = ("patterned", "single", "dense", "breaking", "diagonal")


def _random_block(rng, n, p, kind, integer):
    """A (2n x 2n) block; "patterned" fills the quadrants of sector parity p,
    "diagonal" fills one diagonal row - column = d of each, d drawn from [-n, n]."""
    if integer:
        draw = lambda shape: rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)
    else:
        draw = lambda shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    if kind == "dense":
        mat[:] = draw((2 * n, 2 * n))
        return mat
    if kind == "single":
        i, j = rng.integers(0, 2, size=2)
        mat[i * n : (i + 1) * n, j * n : (j + 1) * n] = draw((n, n))
        return mat
    for i in (0, 1):
        j = i ^ p
        if kind == "diagonal":
            d = int(rng.integers(-n, n + 1))  # |d| = n leaves the quadrant empty
            rows = np.arange(max(0, d), n + min(0, d))
            mat[i * n + rows, j * n + rows - d] = draw(rows.shape)
        else:
            mat[i * n : (i + 1) * n, j * n : (j + 1) * n] = draw((n, n))
    if kind == "breaking":
        i = int(rng.integers(0, 2))
        j = i ^ p ^ 1
        r, c = rng.integers(0, n, size=2)
        mat[i * n + r, j * n + c] = draw(())
    return mat


def _random_operator(alg, rng, n, parity, kind, integer):
    space = coefficient_algebra(alg)
    plan = space.plan
    masks = rng.choice(space.size, size=int(rng.integers(1, 4)), replace=False)
    blocks = {
        int(m): _random_block(rng, n, parity ^ plan.parity[m], kind, integer) for m in masks
    }
    return SuperOperator(alg, n, blocks, parity)


def _nonzero_quadrants(mat, n):
    """The (row sector, column sector) pairs of a (2n x 2n) block that hold a nonzero."""
    quadrant = lambda i, j: mat[i * n : (i + 1) * n, j * n : (j + 1) * n]
    return {(i, j) for i in (0, 1) for j in (0, 1) if np.any(quadrant(i, j))}


def _scanned_offsets(mat, n):
    """{(row sector, column sector): the sorted offsets row - column of that quadrant's
    nonzeros, or (None,) past representation._MAX_DIAGONALS of them}, over the nonzero
    quadrants of a (2n x 2n) block."""
    out = {}
    for i, j in _nonzero_quadrants(mat, n):
        rows, cols = np.nonzero(mat[i * n : (i + 1) * n, j * n : (j + 1) * n])
        diffs = tuple(sorted(set((rows - cols).tolist())))
        out[(i, j)] = diffs if len(diffs) <= representation._MAX_DIAGONALS else (None,)
    return out


def _offsets(quads):
    """{(row sector, column sector): (d, ...)} of one block's quadrant records."""
    return {ij: tuple(d for d, _ in record) for ij, record in quads.items()}


def _assert_offsets_hold(o):
    """The recorded offsets of each diagonal record hold all nonzeros of its quadrant,
    against a fresh scan of the assembled block."""
    for m, quads in o.blocks.items():
        fresh = _scanned_offsets(o.block(m), o.n_max)
        for ij, ds in _offsets(quads).items():
            if None not in ds and ij in fresh:  # a diagonal that cancelled to zero holds no nonzero
                assert set(fresh[ij]) <= set(ds), (m, ij, ds, fresh[ij])


def _dense_product(a, c):
    """sum over block pairs of sign * (ma @ mc) with full (2N x 2N) products."""
    plan = coefficient_algebra(a.algebra).plan
    out = {}
    for am in a.blocks:
        ma = a.block(am)
        for cm in c.blocks:
            mc = c.block(cm)
            step = plan.join[am][cm]
            if step is None:
                continue
            key, sign = step
            if (a.parity_bit ^ plan.parity[am]) and plan.parity[cm]:
                sign = -sign
            out[key] = out.get(key, 0) + sign * (ma @ mc)
    return {k: v for k, v in out.items() if np.any(v)}


def _dense_superadjoint(a):
    """Row weights * conj(mat)^T * column weights, summed per conjugate monomial."""
    plan = coefficient_algebra(a.algebra).plan
    p = np.repeat([0, 1], a.n_max)
    out = {}
    for am in a.blocks:
        mat = a.block(am)
        col = (-1j) ** p
        if a.parity_bit ^ plan.parity[am]:
            col = col * (-1.0) ** p
        mm, c = plan.conj_table[am]
        out[mm] = out.get(mm, 0) + c * (1j**p[:, None] * mat.conj().T * col[None, :])
    return out


def _dense_multiple(beta, a):
    """beta * a over the assembled blocks, in the order ``__rmul__`` adds them."""
    space = a.algebra
    row = beta.coeffs
    out = {}
    for bm in np.flatnonzero(row).tolist():
        for am in a.blocks:
            step = space.plan.join[bm][am]
            if step is not None:
                key, sign = step
                out[key] = out.get(key, 0) + (sign * complex(row[bm])) * a.block(am)
    return out


def _assert_diagonal_layout(o):
    """A held quadrant record is a tuple of (d, part) entries: either the one entry
    (None, N x N array), or one to representation._MAX_DIAGONALS entries with int d in
    increasing order, each part 1-D of length max(0, N - |d|); all storage is read-only."""
    n = o.n_max
    for m, quads in o.blocks.items():
        for ij, record in quads.items():
            offsets = [d for d, _ in record]
            assert type(record) is tuple and 1 <= len(record) <= representation._MAX_DIAGONALS, (m, ij)
            assert offsets == [None] or all(type(d) is int for d in offsets), (m, ij, offsets)
            assert None in offsets or offsets == sorted(set(offsets)), (m, ij, offsets)
            for d, part in record:
                assert (part.ndim == 1) == isinstance(d, int), (m, ij, d, part.shape)
                assert part.shape == ((n, n) if d is None else (max(0, n - abs(d)),))
                assert not part.flags.writeable


def _assert_diagnostics_match_blocks(o):
    """max_abs, with and without columns, and block_pattern_defect against the assembled blocks."""
    n = o.n_max
    plan = coefficient_algebra(o.algebra).plan
    p = np.repeat([0, 1], n)
    dense = [o.block(m) for m in o.blocks]
    assert o.max_abs() == max((float(np.abs(b).max()) for b in dense), default=0.0)
    for cols in (interior_columns(n, 1), np.arange(2 * n) % 3 == 1, [-1, 0]):
        assert o.max_abs(columns=cols) == max((float(np.abs(b[:, cols]).max()) for b in dense), default=0.0)
    off = [(p[:, None] ^ p[None, :]) != o.parity_bit ^ plan.parity[m] for m in o.blocks]
    want = max((float(np.abs(b[mask]).max()) for b, mask in zip(dense, off)), default=0.0)
    assert o.block_pattern_defect() == want


@st.composite
def _operator_pairs(draw, kinds=BLOCK_KINDS):
    alg = draw(st.sampled_from([ALG, ALG6]))
    n = draw(st.sampled_from([2, 3, 4, 5, 6]))
    kinds = draw(st.tuples(st.sampled_from(kinds), st.sampled_from(kinds)))
    parities = draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, c = (_random_operator(alg, rng, n, p, k, integer) for p, k in zip(parities, kinds))
    return a, c, integer


class TestQuadrantComposition:
    @settings(max_examples=80, deadline=None)
    @given(_operator_pairs())
    def test_product_matches_dense_reference(self, pair):
        """Integer-valued entries make every summation order exact, so those
        products must agree bit for bit; float entries agree to rounding."""
        a, c, integer = pair
        got = a @ c
        want = _dense_product(a, c)
        assert got.parity_bit == a.parity_bit ^ c.parity_bit
        for key in set(got.blocks) | set(want):
            ref = want.get(key, np.zeros((a.size, a.size), dtype=complex))
            if integer:
                np.testing.assert_array_equal(got.block(key), ref)
            else:
                scale = max(1.0, float(np.abs(ref).max()))
                assert np.abs(got.block(key) - ref).max() <= 1e-13 * a.size * scale

    @settings(max_examples=80, deadline=None)
    @given(_operator_pairs(), st.integers(0, 2**32 - 1))
    def test_offsets_follow_the_operations(self, pair, seed):
        """Sums, scalar and Grassmann multiples, products and superadjoints record
        offsets that a fresh scan of their entries confirms."""
        a, c, _ = pair
        alg = a.algebra
        space = coefficient_algebra(alg)
        rng = np.random.default_rng(seed)
        # a homogeneous theta-free scalar with several monomials, so that blocks meet in sums
        row = rng.standard_normal(space.size) * (np.array(space.plan.parity) == rng.integers(0, 2))
        beta = GrassmannElement(space, row)
        same = SuperOperator(alg, c.n_max, {m: c.block(m) for m in c.blocks}, a.parity_bit)
        product = a @ c
        for o in (
            a + same,
            a - same,
            (0.5 - 2j) * a,
            beta * a,
            beta * product,
            product,
            product @ a,
            (a + same) @ c,
            a.superadjoint(),
            product.superadjoint(),
            product.superadjoint() @ a.superadjoint(),
        ):
            _assert_offsets_hold(o)

    def test_generators_and_supercommutators_are_one_diagonal(self, monkeypatch):
        """Every held quadrant of the 8 generators and their 64 supercommutators has
        an offset, and each of their quadrant products is a diagonal product."""
        ops = generators(16)
        shifts = {name: {(t, s): (shift,) for t, s, shift, _ in _STENCILS[name]} for name in ops}
        for name, g in ops.items():
            assert set(g.blocks) == {0} and _offsets(g.blocks[0]) == shifts[name]
        diagonal_products = []
        product = representation._diagonal_product

        def counted(*args):
            diagonal_products.append(args)
            return product(*args)

        monkeypatch.setattr(representation, "_diagonal_product", counted)
        pairs = lambda x, y: sum(1 for (_, k) in x.blocks[0] for (kk, _) in y.blocks[0] if k == kk)
        for a_name, a in ops.items():
            for c_name, c in ops.items():
                before = len(diagonal_products)
                bracket = a.supercommutator(c)
                assert len(diagonal_products) - before == pairs(a, c) + pairs(c, a)
                assert bracket.blocks
                for m, quads in bracket.blocks.items():
                    assert all(len(ds) == 1 and ds != (None,) for ds in _offsets(quads).values()), (
                        a_name, c_name, m, _offsets(quads))
                _assert_offsets_hold(bracket)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(_operator_pairs(), _operator_pairs(kinds=("diagonal",))), st.integers(0, 2**32 - 1))
    def test_diagonal_storage_matches_dense_reference(self, pair, seed):
        """Operands, sums, differences, scalar and Grassmann multiples, products and
        superadjoints store a quadrant as its diagonal exactly when its offset is an
        int, and their blocks equal the same operations on assembled dense blocks.
        Integer-valued entries and multipliers make those bit for bit.  Half the
        pairs are one-diagonal throughout, so that products reach diagonals
        |d1 + d2| >= N, which hold no entry."""
        a, c, integer = pair
        alg = a.algebra
        space = coefficient_algebra(alg)
        rng = np.random.default_rng(seed)
        row = rng.integers(-3, 4, space.size) if integer else rng.standard_normal(space.size)
        beta = GrassmannElement(space, row * (np.array(space.plan.parity) == rng.integers(0, 2)))
        same = SuperOperator(alg, c.n_max, {m: c.block(m) for m in c.blocks}, a.parity_bit)
        dense = lambda o: {m: o.block(m) for m in o.blocks}
        plus = lambda x, y, sign: {m: x.get(m, 0) + sign * y.get(m, 0) for m in x.keys() | y.keys()}
        product, want_product = a @ c, _dense_product(a, c)
        cases = [
            (a, dense(a)),
            (a + same, plus(dense(a), dense(same), 1.0)),
            (a - same, plus(dense(a), dense(same), -1.0)),
            ((2 - 3j) * a, {m: (2 - 3j) * b for m, b in dense(a).items()}),
            (beta * a, _dense_multiple(beta, a)),
            (beta * product, _dense_multiple(beta, product)),
            (product, want_product),
            (a.superadjoint(), _dense_superadjoint(a)),
            (product.superadjoint(), _dense_superadjoint(product)),
        ]
        for got, want in cases:
            _assert_diagonal_layout(got)
            _assert_diagnostics_match_blocks(got)
            for m in got.blocks.keys() | want.keys():
                ref = want.get(m, 0) + np.zeros((a.size, a.size), dtype=complex)
                if integer:
                    np.testing.assert_array_equal(got.block(m), ref)
                else:
                    scale = max(1.0, float(np.abs(ref).max()))
                    assert np.abs(got.block(m) - ref).max() <= 1e-13 * a.size * scale

    def test_generators_and_supercommutators_hold_no_dense_quadrant(self):
        """At N = 128 the 8 generators and their 64 supercommutators store every
        held quadrant as its diagonal."""
        n = 128
        ops = generators(n)
        for a in ops.values():
            for o in [a] + [a.supercommutator(c) for c in ops.values()]:
                _assert_diagonal_layout(o)
                assert all(d is not None for quads in o.blocks.values() for r in quads.values() for d, _ in r), o

    @settings(max_examples=40, deadline=None)
    @given(_operator_pairs())
    def test_superadjoint_matches_dense_formula(self, pair):
        """Quadrant-wise adjoint against row weights * conj(mat)^T * column weights.

        The weights are units, which multiply exactly, so the match is exact.
        """
        a = pair[0]
        want = _dense_superadjoint(a)
        got = a.superadjoint()
        assert set(got.blocks) == {m for m, w in want.items() if np.any(w)}
        for m, w in want.items():
            np.testing.assert_array_equal(got.block(m), w)

    def test_combinations_keep_to_their_diagonals(self, monkeypatch):
        """Sums, products (and h cubed), superadjoints, max_abs over columns,
        block_pattern_defect and apply of X3, X4, h, p_theta and x_theta run without ``_expand``, and every result holds
        diagonal records only.  Each equals the same operation on the assembled blocks: sums,
        superadjoints and the diagnostics bit for bit, products and apply, which add over
        several diagonals in another order than a BLAS product, to rounding.  Products and
        apply also match the diagonals multiplied and added in record order bit for bit."""
        n = 12
        ops = [op(name, n) for name in ("X3", "X4", "h", "p_theta")] + [xtheta_operator(n, 0.7, ALG)]
        cols = interior_columns(n, 2)
        vectors = [random_supervector(n, np.random.default_rng(47), ALG, parity=p) for p in (0, 1)]
        expand = representation._expand

        def refuse(record, size):
            raise AssertionError("a quadrant record was expanded")

        monkeypatch.setattr(representation, "_expand", refuse)
        pairs = [(a, c) for a in ops for c in ops]
        sums = [(a, c, a + c, a - c) for a, c in pairs if a.parity_bit == c.parity_bit]
        products = [(a, c, a @ c) for a, c in pairs]
        h_squared = products[2 * len(ops) + 2][2]  # h @ h, 5 diagonals: h cubed holds 7
        products.append((h_squared, ops[2], h_squared @ ops[2]))
        adjoints = [(a, a.superadjoint()) for a in ops]
        norms = [(a, a.max_abs(columns=cols), a.block_pattern_defect()) for a in ops]
        applied = [(a, v, a.apply(v).coeffs) for a in ops for v in vectors]
        monkeypatch.setattr(representation, "_expand", expand)

        results = [o for *_, total, diff in sums for o in (total, diff)] + [p for *_, p in products]
        for o in results + [adj for _, adj in adjoints]:
            _assert_diagonal_layout(o)
            assert all(d is not None for quads in o.blocks.values() for r in quads.values() for d, _ in r)
        for a, c, total, diff in sums:
            np.testing.assert_array_equal(total.body, a.body + c.body)
            np.testing.assert_array_equal(diff.body, a.body - c.body)
        for a, c, product in products:
            np.testing.assert_array_equal(product.body, _body_product_by_diagonals(a, c))
            want = _dense_product(a, c).get(0, np.zeros((2 * n, 2 * n)))
            np.testing.assert_allclose(product.body, want, rtol=0, atol=4e-16 * max(1.0, np.abs(want).max()))
        for a, adj in adjoints:
            np.testing.assert_array_equal(adj.body, _dense_superadjoint(a)[0])
        for a, size, pattern in norms:
            assert size == np.abs(a.body[:, cols]).max() and pattern == 0.0
        for a, v, got in applied:
            np.testing.assert_array_equal(got, _apply_by_diagonals(a, v))
            want = _apply_all_columns(a, v)
            np.testing.assert_allclose(got, want, rtol=0, atol=4e-16 * np.abs(want).max())

    def test_patterned_product_is_one_term_per_quadrant(self):
        """Even times odd: each output quadrant is one N x N product, bit for bit."""
        rng = np.random.default_rng(31)
        n = 5
        a = SuperOperator(ALG, n, {0: _random_block(rng, n, 0, "patterned", False)}, 0)
        c = SuperOperator(ALG, n, {0: _random_block(rng, n, 1, "patterned", False)}, 1)
        got = (a @ c).body
        even, odd = slice(0, n), slice(n, 2 * n)
        np.testing.assert_array_equal(got[even, odd], a.body[even, even] @ c.body[even, odd])
        np.testing.assert_array_equal(got[odd, even], a.body[odd, odd] @ c.body[odd, even])
        assert not np.any(got[even, even]) and not np.any(got[odd, odd])
        assert set((a @ c).blocks[0]) == {(0, 1), (1, 0)}

    @pytest.mark.parametrize(
        "name, want",
        [
            ("K0", DIAGONAL),
            ("K+", DIAGONAL),
            ("K-", DIAGONAL),
            ("B", DIAGONAL),
            ("V+", EVEN_TO_ODD),
            ("V-", EVEN_TO_ODD),
            ("W+", ODD_TO_EVEN),
            ("W-", ODD_TO_EVEN),
        ],
    )
    def test_generator_quadrants(self, name, want):
        assert set(op(name).blocks) == {0}
        assert set(op(name).blocks[0]) == want == {(t, s) for t, s, _, _ in _STENCILS[name]}

    def test_commutator_quadrants(self):
        assert set(op("V+").supercommutator(op("W-")).blocks[0]) == DIAGONAL
        assert set(op("K+").supercommutator(op("V-")).blocks[0]) == EVEN_TO_ODD

    def test_stored_blocks_are_read_only(self):
        with pytest.raises(ValueError):
            op("K+").body[1, 0] = 1.0
        with pytest.raises(ValueError):
            (op("K0") @ op("K+")).body[0, 0] = 1.0

    def test_every_operation_leaves_read_only_records(self):
        """Each operation freezes the records it makes and shares only frozen ones, so every
        record of a result, and of its operands afterwards, is read-only."""
        al = SCALARS.gen("alpha")
        k, v, h = op("K+"), op("V+"), op("h")
        arr = np.zeros((2 * N, 2 * N), dtype=complex)
        arr[0, 0] = arr[N + 3, 2] = 1.0
        results = [
            k + h, k - h, h + op("K0"), 0.5 * h, -v, al * v, (al * v) + (al * v), k @ v, h @ h,
            v.superadjoint(), build_generator("X7", N, ALG),
            SuperOperator.identity(N, ALG), SuperOperator(ALG, N, {0: arr}, 0),
            displacement_operator(CoherentParams(0.3 - 0.2j, 0.7 - 0.4j), N, ALG),
            xtheta_operator(N, 0.5, ALG),
        ]
        for o in results + [k, v, h, al * v]:
            for quads in o.blocks.values():
                for record in quads.values():
                    for _, part in record:
                        assert not part.flags.writeable, o

    @staticmethod
    def _parts(o):
        return [part for quads in o.blocks.values() for record in quads.values() for _, part in record]

    def test_writing_into_a_result_raises(self):
        """Every part of the results of +, scalar *, @ and superadjoint is read-only, shared
        parts and new ones alike, and a write into one raises."""
        k, h, v = op("K+"), op("h"), op("V+")
        results = (k + h, h + h, 0.5 * h, SCALARS.gen("alpha") * v, k @ v, h @ h, v.superadjoint())
        for result in results:
            for part in self._parts(result):
                assert not part.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    part[0] = 1.0

    def test_operations_freeze_only_the_parts_they_create(self):
        """No wrap visits a part: operand parts left writable, which no public route makes,
        stay writable through every operation, while the parts it creates are read-only."""
        n = 6
        diag = {(0, 0): ((0, np.arange(1.0, n + 1) + 0j),), (1, 1): ((1, np.ones(n - 1, dtype=complex)),)}
        a = SuperOperator._wrap(SCALARS, n, {0: diag}, 0)
        b = SuperOperator._wrap(SCALARS, n, {0: {(1, 0): ((None, np.eye(n, dtype=complex)),)}}, 1)
        al = SCALARS.gen("alpha")
        results = [a + a, a + (al * al.conj()) * a, 0.5 * a, al * b, a @ b, b.superadjoint()]
        held = {id(part) for o in (a, b) for part in self._parts(o)}
        for result in results:
            for part in self._parts(result):
                assert part.flags.writeable == (id(part) in held), result
        assert all(part.flags.writeable for o in (a, b) for part in self._parts(o))

    def test_caller_array_is_copied(self):
        arr = np.zeros((8, 8), dtype=complex)
        arr[0, 0] = 1.0
        o = SuperOperator(ALG, 4, {0: arr}, 0)
        assert o.body is not arr
        arr[5, 0] = 7.0  # a write that would break the sector pattern
        assert o.body[5, 0] == 0.0
        assert set(o.blocks) == {0} and set(o.blocks[0]) == {(0, 0)}
        assert o.block_pattern_defect() == 0.0
        for parity in ("even", "odd", 2, -1):  # the parity is the int 0 or 1
            with pytest.raises(ValueError):
                SuperOperator(ALG, 4, {0: arr}, parity)

    def test_sum_shares_blocks_one_operand_holds(self):
        left = op("K0")
        right = (SCALARS.gen("alpha") * SCALARS.gen("alpha_bar")) * op("K+")
        total = left + right
        pair = 0b11  # alpha * alpha_bar in the coefficient algebra
        assert set(total.blocks) == {0, pair}
        for operand, mask in ((left, 0), (right, pair)):
            assert total.blocks[mask].keys() == operand.blocks[mask].keys()
            assert all(total.blocks[mask][ij] is record for ij, record in operand.blocks[mask].items())
        with pytest.raises(ValueError):
            total.blocks[pair][(0, 0)][0][1][1] = 0.0

    @settings(max_examples=40, deadline=None)
    @given(_operator_pairs())
    def test_sum_matches_dense_sum(self, pair):
        """Quadrant-wise sums equal the sums of the assembled blocks, bit for bit."""
        a, c, _ = pair
        # relabel c with a's parity so the two can be added; the sum ignores the pattern
        c = SuperOperator(c.algebra, c.n_max, {m: c.block(m) for m in c.blocks}, a.parity_bit)
        for got, sign in ((a + c, 1.0), (a - c, -1.0)):
            assert set(got.blocks) == set(a.blocks) | set(c.blocks)
            for m in got.blocks:
                np.testing.assert_array_equal(got.block(m), a.block(m) + sign * c.block(m))

    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    @settings(max_examples=15, deadline=None)
    @given(
        alg=st.sampled_from([ALG, ALG6]),
        n=st.sampled_from([2, 3, 5]),
        parity=st.integers(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_constructor_keeps_the_nonzero_quadrants(self, kind, alg, n, parity, seed):
        """SuperOperator(alg, n, {m: op.block(m)}, p) holds exactly the nonzero quadrants,
        also of an operator whose quadrants cancel to zero."""
        a = _random_operator(alg, np.random.default_rng(seed), n, parity, kind, False)
        for o in (a, a - a):
            for m in o.blocks:
                mat = o.block(m)
                back = SuperOperator(alg, n, {m: mat}, parity)
                assert set(back.blocks.get(m, {})) == _nonzero_quadrants(mat, n)
                assert _offsets(back.blocks.get(m, {})) == _scanned_offsets(mat, n)
                np.testing.assert_array_equal(back.block(m), mat)
        assert set((a - a).blocks) == set(a.blocks)  # cancellation keeps the zero quadrants
        assert (a - a).max_abs() == 0.0

    def test_max_abs_columns_match_dense_columns(self):
        for kind in ("dense", "diagonal"):
            o = _random_operator(ALG6, np.random.default_rng(3), 4, 0, kind, False)
            for cols in (interior_columns(4, 2), [-1, 0], slice(2, 7), np.arange(8) % 3 == 0):
                want = max(float(np.abs(o.block(m)[:, cols]).max()) for m in o.blocks)
                assert o.max_abs(columns=cols) == want
        with pytest.raises(IndexError):
            o.max_abs(columns=[8])

    @pytest.mark.parametrize("parity", [0, 1])
    def test_block_pattern_defect_matches_dense_mask(self, parity):
        """The largest entry off the sector pattern, against a dense mask of every block."""
        o = _random_operator(ALG6, np.random.default_rng(5 + parity), 4, parity, "breaking", False)
        plan = coefficient_algebra(ALG6).plan
        p = np.repeat([0, 1], 4)
        off = lambda m: (p[:, None] ^ p[None, :]) != parity ^ plan.parity[m]
        want = max(float(np.abs(o.block(m)[off(m)]).max()) for m in o.blocks)
        assert want > 0.0
        assert o.block_pattern_defect() == want

    @pytest.mark.parametrize("parity", [0, 1])
    def test_a_nan_in_any_quadrant_reads_nan(self, parity):
        """max_abs and block_pattern_defect return NaN for a NaN in any held quadrant of
        any monomial, the first one or a later one, not the largest finite entry."""
        n = 4
        rng = np.random.default_rng(11 + parity)
        blocks = {m: _random_block(rng, n, 0, "dense", False) for m in range(3)}
        plan = coefficient_algebra(ALG6).plan
        clean = SuperOperator(ALG6, n, blocks, parity).block_pattern_defect()
        for m in blocks:
            for i in (0, 1):
                for j in (0, 1):
                    poisoned = {k: mat.copy() for k, mat in blocks.items()}
                    poisoned[m][i * n + 2, j * n + 1] = np.nan  # an interior column, not the first entry
                    o = SuperOperator(ALG6, n, poisoned, parity)
                    assert np.isnan(o.max_abs())
                    assert np.isnan(o.max_abs(columns=interior_columns(n, 2)))
                    off_pattern = i ^ j != parity ^ plan.parity[m]
                    pattern = o.block_pattern_defect()
                    assert np.isnan(pattern) if off_pattern else pattern == clean

    def test_theta_scalar_rejected(self):
        with pytest.raises(ValueError):
            ALG.gen("theta") * op("K+")
        with pytest.raises(ValueError):
            (ALG.gen("alpha") + ALG.gen("theta_bar")) * op("V+")

    def test_incompatible_scalar_rejected(self):
        with pytest.raises(AlgebraMismatchError):
            ALG6.gen("alpha") * op("K+")


def _operator_on(spec, n, rng):
    """An even operator from {mask: {(row sector, column sector): offsets, or None}}: each listed
    diagonal of a quadrant filled with nonzero draws, or with None the whole quadrant."""
    draw = lambda shape: rng.choice([-1.0, 1.0], shape) * rng.uniform(0.5, 2.0, shape) + 1j * rng.integers(-1, 2, shape)
    blocks = {}
    for m, quads in spec.items():
        mat = np.zeros((2 * n, 2 * n), dtype=complex)
        for (i, j), offsets in quads.items():
            quad = mat[i * n : (i + 1) * n, j * n : (j + 1) * n]
            if offsets is None:
                quad[:] = draw((n, n))
            for d in offsets or ():
                rows = np.arange(max(0, d), n + min(0, d))
                quad[rows, rows - d] = draw(rows.shape)
        blocks[m] = mat
    return SuperOperator(ALG, n, blocks, 0)


def _assert_equal_but_zero_signs(got, want):
    """``got`` and ``want`` hold the same masks, quadrants and offsets and equal parts, and a
    real or imaginary part differs in its sign bit only where it is zero."""
    assert got.parity_bit == want.parity_bit
    assert got.blocks.keys() == want.blocks.keys()
    for m, quads in want.blocks.items():
        assert _offsets(got.blocks[m]) == _offsets(quads), m
        for ij, record in quads.items():
            for (_, x), (_, y) in zip(got.blocks[m][ij], record):
                np.testing.assert_array_equal(x, y)
                for u, v in ((x.real, y.real), (x.imag, y.imag)):
                    assert np.all((np.signbit(u) == np.signbit(v)) | (u == 0)), (m, ij)


# (left, right) operand specs of ``_operator_on``; mask 0b11 is alpha * alpha_bar
SIGNED_SUM_CASES = {
    # (0, 0) shares diagonals 0 and 2, and each side holds one the other lacks; quadrant
    # (1, 1) and the whole 0b11 block only the right operand holds
    "shared-and-one-sided-diagonals": (
        {0: {(0, 0): (-1, 0, 2)}},
        {0: {(0, 0): (0, 2, 3), (1, 1): (1,)}, 0b11: {(0, 0): (-2,)}},
    ),
    "diagonal-and-dense-records": ({0: {(0, 0): (0, 1), (1, 1): None}}, {0: {(0, 0): None, (1, 1): (-1,)}}),
    # 9 diagonals in all, one past representation._MAX_DIAGONALS, diagonal 0 shared
    "merge-past-max-diagonals": ({0: {(0, 0): (-4, -3, -2, -1, 0)}}, {0: {(0, 0): (0, 1, 2, 3, 4)}}),
    "empty-left": ({}, {0: {(0, 0): (0, 1)}, 0b11: {(1, 1): None}}),
    "empty-right": ({0: {(0, 0): (0, 1), (1, 1): None}}, {}),
}


class TestSignedSums:
    @pytest.mark.parametrize("case", SIGNED_SUM_CASES)
    def test_sum_and_difference_match_the_blocks_and_the_scaled_sum(self, case):
        """X + Y and X - Y equal the sum and difference of the assembled blocks, and X - Y holds
        the records of X + (-1.0) * Y, the difference formed through a scaled copy of Y, up to
        the sign of a zero."""
        x, y = (_operator_on(spec, N, np.random.default_rng(seed)) for spec, seed in zip(SIGNED_SUM_CASES[case], (3, 4)))
        for got, sign in ((x + y, 1.0), (x - y, -1.0)):
            _assert_diagonal_layout(got)
            assert set(got.blocks) == set(x.blocks) | set(y.blocks)
            for m in got.blocks:
                np.testing.assert_array_equal(got.block(m), x.block(m) + sign * y.block(m))
        _assert_equal_but_zero_signs(x - y, x + (-1.0) * y)
        _assert_equal_but_zero_signs(-y, (-1.0) * y)
        if case == "merge-past-max-diagonals":
            assert _offsets((x - y).blocks[0]) == {(0, 0): (None,)}

    def test_operators_of_different_parity_raise(self):
        for x, y in ((op("K0"), op("V+")), (op("W-"), op("B"))):
            with pytest.raises(ValueError):
                x + y
            with pytest.raises(ValueError):
                x - y

    def test_an_infinite_part_keeps_a_finite_imaginary_part(self):
        """-Y, zero - Y and X - Y negate a part that holds +-inf to -+inf with no warning and a
        finite imaginary part: on a diagonal X shares, one X lacks, a quadrant only Y holds and
        a dense record; scaling by -1 + 0j would make that imaginary part 0 * inf = nan."""
        n = 6
        mat = np.zeros((2 * n, 2 * n), dtype=complex)
        mat[0, 0] = mat[1, 0] = mat[2, 2 + n] = np.inf  # diagonals 0 and 1 of (0, 0), 0 of (0, 1)
        mat[n:, n:] = 1.0  # (1, 1) is dense: 11 diagonals
        mat[n + 3, n + 1] = -np.inf
        y = SuperOperator(ALG, n, {0: mat}, 0)
        assert _offsets(y.blocks[0]) == {(0, 0): (0, 1), (0, 1): (0,), (1, 1): (None,)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = {"-Y": -y, "zero - Y": SuperOperator.zero(n, ALG) - y, "X - Y": SuperOperator.identity(n, ALG) - y}
        for label, got in results.items():
            body = got.body
            assert np.all(np.isfinite(body.imag)), label
            assert body[0, 0].real == body[1, 0].real == body[2, 2 + n].real == -np.inf, label
            assert body[n + 3, n + 1].real == np.inf, label


def _left_mul(plan, mask, x):
    """The product of the unit monomial ``mask`` with each coefficient row of x, as a new
    array: the signed source columns scattered into zeros."""
    src, dst, sign = plan._left_mul[mask]
    out = np.zeros(np.shape(x), dtype=complex)
    out[..., dst] = sign * x[..., src]
    return out


def _apply_all_columns(o, v):
    """The all-column product, one assembled (2N x 2N) block @ coeffs per block over
    every monomial column of the vector's algebra."""
    plan = v.algebra.plan
    out = np.zeros_like(v.coeffs)
    for am in o.blocks:
        part = o.block(am) @ v.coeffs
        if o.parity_bit ^ plan.parity[am]:
            part = plan.grade(part)
        out += _left_mul(plan, am, part)
    return out


def _apply_by_diagonals(o, v):
    """``apply`` of an operator holding diagonal records only, written out independently:
    per block, each diagonal (d, part) of each quadrant (i, j), quadrants in sorted order and
    diagonals in record order, adds part times rows r - d of sector j to rows r of sector i,
    for the rows r that the diagonal reaches, picked by index arrays."""
    plan = v.algebra.plan
    n = o.n_max
    coeffs = v.coeffs.reshape(2, n, -1)
    out = np.zeros_like(coeffs)
    for am, quads in o.blocks.items():
        acc = np.zeros_like(coeffs)
        for (i, j), record in sorted(quads.items()):
            for d, part in record:
                rows = np.arange(n)
                rows = rows[(rows - d >= 0) & (rows - d < n)]
                acc[i, rows] += part[:, None] * coeffs[j, rows - d]
        graded = plan.grade(acc) if o.parity_bit ^ plan.parity[am] else acc
        out += _left_mul(plan, am, graded)
    return out.reshape(v.coeffs.shape)


def _apply_by_block_loop(o, v):
    """``apply`` as it ran block by block: a new array of zeros per block, its quadrants in
    sorted order, float grade signs cast to complex by numpy, and each block's left product
    scattered into zeros and added to the output."""
    plan = v.algebra.plan
    n = o.n_max
    coeffs = v.coeffs.reshape(2, n, -1)
    out = np.zeros_like(coeffs)
    for am, quads in o.blocks.items():
        acc = np.zeros_like(coeffs)
        for (i, j), record in sorted(quads.items()):
            for d, part in record:
                if d is None:
                    acc[i] += part @ coeffs[j]
                else:
                    lo = max(0, d)
                    hi = max(lo, n + min(0, d))
                    acc[i, lo:hi] += part[:, None] * coeffs[j, lo - d : hi - d]
        graded = plan.parity_sign.real * acc if o.parity_bit ^ plan.parity[am] else acc
        out += _left_mul(plan, am, graded) if am else graded
    return out.reshape(v.coeffs.shape)


def _body_product_by_diagonals(a, c):
    """The body of a @ c for complex operators of diagonal records, written out
    independently: each output quadrant (i, j) adds over k, then over the diagonals of
    a[i, k] in record order and for each those of c[k, j], the entrywise products
    a[r, r - d1] c[r - d1, r - d1 - d2] on the rows r where both entries exist."""
    n = a.n_max
    out = np.zeros((2, n, 2, n), dtype=complex)
    rows = np.arange(n)
    for (i, k), x in sorted(a.blocks.get(0, {}).items()):
        for j in (0, 1):
            for d1, p1 in x:
                for d2, p2 in c.blocks.get(0, {}).get((k, j), ()):
                    mid, col = rows - d1, rows - d1 - d2
                    keep = (mid >= 0) & (mid < n) & (col >= 0) & (col < n)
                    r = rows[keep]
                    out[i, r, j, col[keep]] += p1[r - max(0, d1)] * p2[mid[keep] - max(0, d2)]
    return out.reshape(2 * n, 2 * n)


class TestApplyColumns:
    @pytest.mark.parametrize("alg", [ALG, ALG6], ids=["g4", "g6"])
    def test_matches_all_column_product(self, alg):
        rng = np.random.default_rng(41)
        al, alb = coefficient_algebra(alg).gen("alpha"), coefficient_algebra(alg).gen("alpha_bar")
        k_plus = build_generator("K+", N, alg)
        ops = [
            operator_exp(0.3 * k_plus - 0.3 * build_generator("K-", N, alg) + al * build_generator("V+", N, alg)
                         - 1j * (alb * build_generator("W-", N, alg))),
            al * build_generator("V+", N, alg) + alb * build_generator("W-", N, alg),
            (al * alb) * k_plus + build_generator("B", N, alg),
        ]
        for o in ops:
            for parity in (None, 0, 1):
                v = random_supervector(N, rng, alg, parity=parity, support=7)
                got = o.apply(v).coeffs
                np.testing.assert_array_equal(got, _apply_all_columns(o, v))

    @pytest.mark.parametrize("n", [2, 3, 8, 128])
    @pytest.mark.parametrize("alg", [ALG, ALG6], ids=["g4", "g6"])
    def test_diagonals_apply_without_expansion(self, alg, n, monkeypatch):
        """``apply`` never expands a record: each diagonal acts by one slice product, also where
        it lies partly or wholly outside the quadrant (K+- cubed at N = 2 sit on diagonals +-3).
        Every operator matches the diagonal slices added in record order bit for bit.  Where a
        quadrant holds one diagonal whose entries are each real or imaginary, as in every basic
        generator, that is also the all-column product bit for bit.  Entries with both parts
        nonzero, as in (0.7 - 0.4i) alpha V+, may round differently in the BLAS product, and so
        may the sum over the diagonals of X3, X4, h, p_theta and x_theta, so those operators
        agree with it to rounding."""
        rng = np.random.default_rng(43)
        al, alb = coefficient_algebra(alg).gen("alpha"), coefficient_algebra(alg).gen("alpha_bar")
        gen = {name: build_generator(name, n, alg) for name in ALL_NAMES}
        ops = [*gen.values(), xtheta_operator(n, 0.7, alg), al * gen["V+"], (al * alb) * gen["K-"],
               gen["K+"] @ gen["K+"] @ gen["K+"], gen["K-"] @ gen["K-"] @ gen["K-"], gen["V-"] @ gen["K-"],
               (0.7 - 0.4j) * al * gen["V+"]]
        expand = representation._expand

        def refuse(record, size):
            raise AssertionError("apply expanded a quadrant record")

        for k, o in enumerate(ops):
            for parity in (None, 0, 1):
                v = random_supervector(n, rng, alg, parity=parity)
                monkeypatch.setattr(representation, "_expand", refuse)
                got = o.apply(v).coeffs
                monkeypatch.setattr(representation, "_expand", expand)
                label = f"ops[{k}], vector parity {parity}"
                np.testing.assert_array_equal(got, _apply_by_diagonals(o, v), err_msg=label)
                want = _apply_all_columns(o, v)
                if o is ops[-1] or any(len(r) > 1 for quads in o.blocks.values() for r in quads.values()):
                    np.testing.assert_allclose(got, want, rtol=0, atol=4e-16 * np.abs(want).max())
                else:
                    np.testing.assert_array_equal(got, want, err_msg=label)

    @pytest.mark.parametrize("alg", [ALG, ALG6], ids=["g4", "g6"])
    def test_matches_the_block_loop_bit_for_bit(self, alg):
        """Every generator and combination, the dense records of a displacement, whose blocks
        hold quadrants out of (i, j) order, and banded blocks, whose rows sum three diagonals of
        each quadrant of their sector, give the bits of the block-by-block loop, signed zeros
        included, on vectors of each parity."""
        rng = np.random.default_rng(47)
        al = coefficient_algebra(alg).gen("alpha")
        ops = {name: build_generator(name, N, alg) for name in ALL_NAMES}
        ops["alpha V+ + K0"] = al * ops["V+"] + ops["K0"]
        band = np.zeros((2, N, 2, N), dtype=complex)
        for d in (-1, 0, 2):
            rows = np.arange(max(0, d), N + min(0, d))
            band[:, rows, :, rows - d] = rng.standard_normal((rows.size, 2, 2)) + 1j
        band = band.reshape(2 * N, 2 * N)
        ops["banded"] = SuperOperator(alg, N, {0: band, 1: 2.0 * band}, 0)
        assert all(len(r) == 3 for q in ops["banded"].blocks.values() for r in q.values())
        ops["displacement"] = displacement_operator(CoherentParams(0.5 + 0.3j, 0.7 - 0.4j), N, alg)
        assert list(ops["displacement"].blocks[3]) == [(1, 1), (0, 0)]
        for label, o in ops.items():
            for parity in (None, 0, 1):
                v = random_supervector(N, rng, alg, parity=parity)
                v.coeffs.real[rng.random(v.coeffs.shape) < 0.2] = -0.0
                got, want = o.apply(v).coeffs, _apply_by_block_loop(o, v)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (label, parity)

    @pytest.mark.parametrize("alg", [ALG, ALG6], ids=["g4", "g6"])
    def test_unit_block_is_the_identity_gather(self, alg):
        """``apply`` adds the mask-0 block as it is: for the algebra and for its coefficient
        algebra, the unit monomial's left product gathers every column to itself with sign +1."""
        for space in (alg, coefficient_algebra(alg)):
            src, dst, sign = space.plan._left_mul[0]
            index = np.arange(space.size)
            assert np.array_equal(src, index) and np.array_equal(dst, index)
            assert sign.dtype == float and np.array_equal(sign, np.ones(space.size))

    def test_incompatible_vector_rejected(self):
        vac = SuperVector.basis_state(0, 0, N, ALG)
        with pytest.raises(AlgebraMismatchError):
            (SCALARS6.gen("alpha") * build_generator("V+", N, ALG6)).apply(vac)
        with pytest.raises(AlgebraMismatchError):  # xi has no column over four generators
            (SCALARS6.gen("xi") * build_generator("V+", N, ALG6)).apply(vac)


def _assert_same_records(got, want):
    """``got`` and ``want`` hold the same records bit for bit: parity, masks, quadrants and
    offsets agree, and each part equals its twin with the same sign on every zero."""
    assert got.parity_bit == want.parity_bit
    assert got.blocks.keys() == want.blocks.keys()
    for m, quads in want.blocks.items():
        assert _offsets(got.blocks[m]) == _offsets(quads)
        for ij, record in quads.items():
            for (_, x), (_, y) in zip(got.blocks[m][ij], record):
                np.testing.assert_array_equal(x, y)
                np.testing.assert_array_equal(np.signbit(x.real), np.signbit(y.real))
                np.testing.assert_array_equal(np.signbit(x.imag), np.signbit(y.imag))


class TestSupercommutator:
    def test_lowering_raising(self):
        got = op("K-").supercommutator(op("K+"))
        want = 2.0 * op("K0")
        assert (got - want).max_abs(columns=interior_columns(N, 2)) < 1e-13

    def test_odd_odd_pair(self):
        got = op("V+").supercommutator(op("W-"))
        want = op("K0") - op("B")
        assert (got - want).max_abs(columns=interior_columns(N, 2)) < 1e-13

    def test_diagonal_pair_commutes(self):
        assert op("B").supercommutator(op("K0")).max_abs() == 0.0

    def test_odd_squares_vanish(self):
        assert op("V+").supercommutator(op("V+")).max_abs() == 0.0
        assert op("W-").supercommutator(op("W-")).max_abs() == 0.0

    def test_parity_of_result(self):
        assert op("V+").supercommutator(op("W-")).parity_bit == 0
        assert op("K+").supercommutator(op("V-")).parity_bit == 1

    def test_full_table(self):
        defects = structure_defects(generators(N), seed=1)
        assert len(defects["table"]) == len(COMMUTATOR_TABLE)
        assert len(defects["unlisted"]) == 36 - len(COMMUTATOR_TABLE)  # pairs A <= C
        worst = {**defects["table"], **defects["unlisted"], "jacobi": defects["jacobi"]}
        assert max(worst.values()) < 1e-12, worst

    def test_structure_at_32(self):
        defects = structure_defects(generators(32), seed=7)
        worst = max(*defects["table"].values(), *defects["unlisted"].values(), defects["jacobi"])
        assert worst < 1e-12

    def test_needs_minimum_truncation(self):
        with pytest.raises(ValueError):
            structure_defects(generators(4))

    @staticmethod
    def assert_structure_gates_pass(**overrides):
        checks = {c["id"]: c for c in suite_checks("algebra", replace(RunConfig(), **overrides))}
        for cid in ("algebra.jacobi", "algebra.commutator_table"):
            assert checks[cid]["pass"], checks[cid]

    def test_jacobi_gate_at_seed_101(self):
        # the absolute Jacobi defect here is 1.36e-12; relative to |A||C||E| it is 3.2e-16
        self.assert_structure_gates_pass(seed=101)

    def test_structure_gates_at_nmax_40(self):
        # the absolute Jacobi defect here is 1.38e-12; relative to |A||C||E| it is 2.6e-16
        self.assert_structure_gates_pass(n_max=40)

    def test_relative_defects_keep_absolute_figures(self):
        ops = generators(32)
        defects = structure_defects(ops, seed=3)
        assert defects["table"].keys() == defects["table_abs"].keys()
        assert defects["unlisted"].keys() == defects["unlisted_abs"].keys()
        cols = interior_columns(32, 2)
        key = "[K-,K+] = 2*K0"
        scale = ops["K-"].max_abs(columns=cols) * ops["K+"].max_abs(columns=cols)
        assert defects["table_abs"][key] > 0.0
        assert defects["table"][key] == defects["table_abs"][key] / scale

    @pytest.mark.parametrize("n", [8, 128])
    def test_table_entries_are_the_calls(self, n):
        """Each entry of the shared generator table holds the records of its own ``a @ c`` or
        ``a.supercommutator(c)`` call: the same offsets and equal parts, signed zeros included."""
        ops = generators(n)
        products, brackets = _generator_table(ops)
        pairs = [(a, c) for a in GENERATOR_NAMES for c in GENERATOR_NAMES]
        assert list(products) == list(brackets) == pairs
        for a, c in pairs:
            _assert_same_records(products[a, c], ops[a] @ ops[c])
            _assert_same_records(brackets[a, c], ops[a].supercommutator(ops[c]))

    def test_a_nan_jacobi_sum_reads_nan(self, poison_call):
        """A NaN in the second Jacobi triple reaches both Jacobi figures; the pairs stay finite."""
        # the pairs and the inner brackets read the generator table, which makes no
        # supercommutator call; each triple makes 3, its outer brackets
        poison_call(SuperOperator, "supercommutator", 3 + 2, lambda r: np.nan * r)
        defects = structure_defects(generators(16), seed=3)
        assert np.isnan(defects["jacobi"]) and np.isnan(defects["jacobi_abs"])
        assert all(np.isfinite(v) for part in ("table", "unlisted") for v in defects[part].values())


class TestVacuum:
    def test_all_checks_exact(self):
        defects = vacuum_defects(generators(8))
        assert len(defects["lowest_weight"]) == 6
        assert set(defects["lowest_weight"].values()) == {0.0}
        assert defects["v_plus_norm"] < 1e-14

    def test_atypicality_markers(self):
        vac = SuperVector.basis_state(0, 0, 8, ALG)
        assert build_generator("V+", 8, ALG).apply(vac).norm() > 0.5
        assert build_generator("K+", 8, ALG).apply(vac).norm() > 0.5
        assert build_generator("W+", 8, ALG).apply(vac).max_abs() == 0.0


class TestSuperadjoint:
    def test_table(self):
        assert set(SUPERADJOINTS) == set(GENERATOR_NAMES)
        for name, (coeff, adjoint) in SUPERADJOINTS.items():
            assert (op(name).superadjoint() - coeff * op(adjoint)).max_abs() < 1e-14

    def test_involution(self):
        for name in GENERATOR_NAMES:
            a = op(name)
            assert (a.superadjoint().superadjoint() - a).max_abs() < 1e-14

    def test_product_rule(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            a = op(GENERATOR_NAMES[rng.integers(0, 8)])
            c = op(GENERATOR_NAMES[rng.integers(0, 8)])
            sign = -1.0 if (a.parity_bit and c.parity_bit) else 1.0
            lhs = (a @ c).superadjoint()
            rhs = sign * (c.superadjoint() @ a.superadjoint())
            assert (lhs - rhs).max_abs() < 1e-12

    def test_commutator_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            a = op(GENERATOR_NAMES[rng.integers(0, 8)])
            c = op(GENERATOR_NAMES[rng.integers(0, 8)])
            lhs = a.supercommutator(c).superadjoint()
            rhs = -(a.superadjoint().supercommutator(c.superadjoint()))
            assert (lhs - rhs).max_abs() < 1e-12

    def test_hermitian_base(self):
        for name in HERMITIAN_BASE:
            x = op(name)
            sign = -1.0 if x.parity_bit else 1.0
            assert (x.superadjoint() - sign * x).max_abs() < 1e-14

    def test_grassmann_scaled_adjoint(self):
        # (alpha V+)+ = conj(alpha) (V+)+ = alpha_bar i W-
        al = SCALARS.gen("alpha")
        lhs = (al * op("V+")).superadjoint()
        rhs = al.conj() * (1j * op("W-"))
        assert (lhs - rhs).max_abs() < 1e-14


class TestHamiltonian:
    def test_report(self):
        defects = hamiltonian_defects(16, ALG)
        assert defects["ladder_route"] < 1e-12
        assert defects["block_pattern"] == 0.0
        assert max(defects["quadrature"], defects["pointwise"], defects["vacuum"]) < 1e-8

    def test_route_equality_at_32(self):
        assert hamiltonian_defects(32, ALG)["ladder_route"] < 1e-12

    def test_ladder_route_is_relative(self):
        """ladder_route is the absolute figure over h's max-abs entry on the same interior
        columns; the absolute figure grows with n_max, the relative one does not."""
        defects = {n: hamiltonian_defects(n, ALG) for n in (128, 512)}
        for n, d in defects.items():
            scale = op("h", n).max_abs(columns=interior_columns(n, 2))
            assert d["ladder_route"] == d["ladder_route_abs"] / scale
        assert defects[512]["ladder_route_abs"] > defects[128]["ladder_route_abs"]
        assert defects[512]["ladder_route"] <= defects[128]["ladder_route"]

    @pytest.mark.parametrize("call, mode, key", [(1, 2, "quadrature"), (3, 5, "pointwise")])
    def test_a_nan_sample_reads_nan(self, poison_call, call, mode, key):
        """A NaN second derivative at a non-first mode reaches its figure; the other stays finite."""
        # one call per t over modes 0..6: the quadrature route takes calls 1-2, the pointwise route 3-4
        nan_row = np.arange(7)[:, None] == mode
        poison_call(basis, "eval_chi_derivatives", call, lambda r: (*r[:2], np.where(nan_row, np.nan, r[2])))
        defects = hamiltonian_defects(16, ALG)
        other = {"quadrature": "pointwise", "pointwise": "quadrature"}[key]
        assert np.isnan(defects[key]) and defects[other] < 1e-8

    @pytest.mark.parametrize("n", [8, 17, 64])
    def test_diagonal_route_matches_the_dense_square(self, n):
        """The three diagonals and the 9 x 9 corner against (a+ + a-)^2 formed densely on
        chi_0 .. chi_{2n-1}, and ``ladder_route_abs`` against the dense slot comparison."""
        size = 2 * n
        m = np.arange(size - 1)
        ladder = np.zeros((size, size))
        ladder[m + 1, m] = basis.ladder_coefficient("+", m)
        ladder[m, m + 1] = basis.ladder_coefficient("-", m + 1)
        square = ladder @ ladder
        lower, main, upper = representation._ladder_square(np.arange(size), size - 1)
        np.testing.assert_array_equal(lower[2:], np.diagonal(square, 2))
        np.testing.assert_array_equal(upper[:-2], np.diagonal(square, -2))
        np.testing.assert_allclose(main, np.diagonal(square), rtol=4e-16)
        assert np.count_nonzero(square) == 3 * size - 4
        lower, main, upper = representation._ladder_square(np.arange(9), size - 1)
        corner = np.diag(main) + np.diag(lower[2:], 2) + np.diag(upper[:-2], -2)
        np.testing.assert_allclose(corner, square[:9, :9], rtol=0, atol=4e-16 * np.abs(square[:9, :9]).max())
        perm = chi_slot_permutation(n)
        cols = interior_columns(n, 2)
        dense = np.abs((op("h", n).body - square[np.ix_(perm, perm)])[:, cols]).max()
        assert abs(hamiltonian_defects(n, ALG)["ladder_route_abs"] - dense) <= 4e-16 * n

    @pytest.mark.parametrize("n", [2, 4])
    def test_needs_minimum_truncation(self, n):
        """Below n_max 5 the 9 x 9 corner would miss paths from chi_8 and read as a defect."""
        with pytest.raises(ValueError):
            hamiltonian_defects(n, ALG)
        assert hamiltonian_defects(5, ALG)["pointwise"] < 1e-8

    def test_vacuum_expectation_frozen(self):
        assert hamiltonian_defects(16, ALG)["vacuum"] < 1e-10


class TestOperatorExp:
    def test_identity_at_zero(self):
        zero = SuperOperator.zero(6, ALG)
        assert (operator_exp(zero) - SuperOperator.identity(6, ALG)).max_abs() == 0.0

    def test_matches_scipy_on_body(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(12)
        mat = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        mat = 0.4 * mat
        # embed an even-pattern matrix so the block check holds
        full = np.zeros((24, 24), dtype=complex)
        full[:12, :12] = mat
        full[12:, 12:] = 2.0 * mat
        o = SuperOperator(ALG, 12, {0: full}, 0)
        got = operator_exp(o).body
        assert np.abs(got - expm(full)).max() < 1e-12

    def test_nilpotent_part_exact(self):
        # exp(alpha V+) = 1 + alpha V+ since (alpha V+)^2 = 0
        al = SCALARS.gen("alpha")
        x = al * op("V+", 6)
        got = operator_exp(x)
        want = SuperOperator.identity(6, ALG) + x
        assert (got - want).max_abs() < 1e-15

    def test_series_at_zero_z_is_exact(self):
        # at z = 0 the body block is exactly zero, so exp(X) = 1 + X + X^2/2 with X^3 = 0
        params = CoherentParams(0.0, 0.7 - 0.4j)
        a = params.alpha(ALG)
        x = (
            0.0 * op("K+", 6)
            - 0.0 * op("K-", 6)
            + a * op("V+", 6)
            + (-1j * a.conj()) * op("W-", 6)
        )
        want = SuperOperator.identity(6, ALG) + x + 0.5 * (x @ x)
        assert (x @ x).max_abs() > 0.1
        for got in (operator_exp(x), displacement_operator(params, 6, ALG)):
            assert (got - want).max_abs() == 0.0

    def test_odd_exponent_rejected(self):
        with pytest.raises(ValueError):
            operator_exp(op("V+", 6))


class TestSpectralExp:
    """The divided differences behind ``coherent.displacement_operator``."""

    @staticmethod
    def _phi_reference(n, d):
        """phi_n(d) = sum_m d^m / (m + n)! to 40 digits: the series near 0, the closed form
        (e^d - sum_{m < n} d^m / m!) / d^n elsewhere."""
        import mpmath

        with mpmath.workdps(40):
            d = mpmath.mpc(d)
            if abs(d) < 2:
                return complex(mpmath.nsum(lambda m: d**m / mpmath.factorial(m + n), [0, mpmath.inf]))
            head = sum(d**m / mpmath.factorial(m) for m in range(n))
            return complex((mpmath.exp(d) - head) / d**n)

    _RADII = [0.0, 1e-9, 1e-3, 0.5, 1.99, 2.01, 5.0, 40.0, 130.0]

    @pytest.mark.parametrize("radius", _RADII)
    def test_phi_on_both_sides_of_the_switch(self, radius):
        """The divided differences f[w, .., w, w + d] = e^w phi_n(d) of every order the
        Taylor route uses, on imaginary d = -i y like the eigenvalue gaps."""
        assert representation._PHI_SERIES == 2.0  # the radii straddle it
        y = radius * np.random.default_rng(17).choice([-1.0, 1.0], 6)
        got = representation._phi(y, representation._first_differences(y), 11)
        for n, phi in zip(range(2, 12), got):
            want = np.array([self._phi_reference(n, -1j * x) for x in y])
            assert np.abs(phi - want).max() < 1e-15

    @pytest.mark.parametrize("radius", _RADII)
    def test_sine_form_expm1(self, radius):
        """expm1(-i y) = -2 sin(y/2)^2 - i sin y against 40 digits, relative to its size."""
        import mpmath

        y = radius * np.random.default_rng(17).choice([-1.0, 1.0], 6)
        got = representation._expm1_imag(y)
        with mpmath.workdps(40):
            want = np.array([complex(mpmath.expm1(mpmath.mpc(0, -x))) for x in y])
        assert np.all(np.abs(got - want) <= 4e-16 * np.abs(want))

    def test_first_differences_are_exact_at_a_double_point(self):
        """phi_1(-i y) is 1 exactly at y = 0 of either sign, so F1 = e^lam_k where lam_i = lam_k."""
        y = np.array([0.0, -0.0, 0.3, -2.0])
        f = representation._first_differences(y)
        assert np.array_equal(f[:2].real, [1.0, 1.0]) and not f[:2].imag.any()
        d = -1j * y[2:]
        assert np.abs(f[2:] - np.expm1(d) / d).max() < 4e-16

    @pytest.mark.parametrize("z", [0.0, 0.3 - 0.5j, -0.7j])
    def test_displacement_exponent_matches_operator_exp(self, z):
        """Called directly, at a truncation the displacement tests do not use, the spectral
        route equals operator_exp of z K+ - conj(z) K- + a V+ - i conj(a) W-."""
        alpha = 0.7 - 0.4j
        a = alpha * SCALARS.gen("alpha")
        x = z * op("K+", 16) - np.conjugate(z) * op("K-", 16)
        x = x + a * op("V+", 16) + (-1j * a.conj()) * op("W-", 16)
        want = operator_exp(x)
        got = representation._spectral_exp(z, alpha, 16, ALG)
        assert set(got.blocks) == set(want.blocks)
        assert (got - want).max_abs() <= 1e-12 * max(1.0, want.max_abs())

    def test_truncation_below_two_rejected(self):
        with pytest.raises(ValueError):
            representation._spectral_exp(0.3, 0.7 - 0.4j, 1, ALG)


class TestChiBasisRoutes:
    def test_ladder_matrices(self):
        """(a+ + a-)^2 on chi_0 .. chi_5 by its diagonals: a+ a+ chi_0 = (1/2)(1/2) sqrt 2 chi_2,
        the square is symmetric, <chi_m| h |chi_m> = (2m + 1)/4 below the top mode, and the
        paths that leave the basis are missing at both ends."""
        lower, main, upper = representation._ladder_square(np.arange(6), 5)
        assert upper[0] == 0.25 * np.sqrt(2.0) and main[0] == 0.25
        assert np.array_equal(lower[2:], upper[:-2])  # entry (m, m + 2) is entry (m + 2, m)
        assert not lower[:2].any() and not upper[-2:].any()
        np.testing.assert_allclose(main, [0.25, 0.75, 1.25, 1.75, 2.25, 1.25], rtol=4e-16)

    def test_slot_permutation(self):
        perm = chi_slot_permutation(3)
        assert list(perm) == [0, 2, 4, 1, 3, 5]


class TestThetaOperators:
    def test_parities(self):
        assert ptheta_operator(8, ALG).parity_bit == 1
        assert xtheta_operator(8, 1.0, ALG).parity_bit == 1

    def test_xtheta_at_t0(self):
        # x theta reduces to i sqrt(2) (V+ - V-) at t = 0
        want = 1j * np.sqrt(2.0) * (op("V+", 8) - op("V-", 8))
        assert (xtheta_operator(8, 0.0, ALG) - want).max_abs() == 0.0
