"""Matrix realization of the osp(2/2) generators on the truncated superspace.

Operators are stored as sums of monomials of the coefficient algebra (the
algebra without theta, theta_bar; see ``osp22.superspace``), keyed by the
same masks as vectors, times complex matrices over the slot basis
(Psi_0^0 .. Psi_{N-1}^0, Psi_0^1 .. Psi_{N-1}^1).  An operator's ``algebra``
is that coefficient algebra, whatever algebra it was built with.  The eight
basic generators have purely complex matrices; Grassmann content enters only
through multiples by elements of that algebra.

Composition is quadrant-sparse.  The Z2 grading splits each block into four
(N x N) sector quadrants (row sector, column sector); a block of even total
parity fills only the diagonal ones, an odd block only the off-diagonal ones.
A block holds only the quadrants that are present, and a missing quadrant is
zero.  A block product forms output quadrant (i, j) as the sum over k of
A[i, k] @ C[k, j] where both are held: two quadrant products for a
sector-patterned pair instead of one (2N x 2N) product.

Each generator moves the basis by a fixed mode shift, so each of its
quadrants lies on one diagonal; a fixed combination such as h or x_theta, and
a product of a few of them, lies on a few.  A held quadrant is one read-only
record: a tuple of (d, part) entries.  A diagonal record holds one entry per
diagonal, at most ``_MAX_DIAGONALS`` of them, sorted by increasing d; d is the
int row - column and part is that diagonal alone, its max(0, N - |d|) entries
(r, r - d) in increasing row r.  A one-diagonal quadrant is the one-entry case.
A dense record is the one entry (None, part) with part the N x N array.  Every
quadrant sum or difference goes through one rule, ``_add``: two diagonal records
merge their offsets, adding or subtracting the 1-D arrays of a diagonal both hold,
and any other pair, or a merge past ``_MAX_DIAGONALS`` diagonals, is expanded to
N x N and combined; each graded bracket folds its +-1 into it (``_graded_difference``).  A
product of two diagonal records convolves their offsets: each pair of entries
is one elementwise product on diagonal d1 + d2 (``_diagonal_product``), and
products landing on one diagonal add in the order of the entries.  ``apply``
multiplies each diagonal onto the rows it reaches.  A diagonal is expanded to
N x N only by ``_expand``, which places the entries in a temporary array of
zeros, and only where it meets an N x N record or dense arithmetic: ``_add``
or ``@`` with a dense record or past ``_MAX_DIAGONALS``, and ``block``.  Each
such number comes from the same matrix product as when every quadrant was
stored dense.  Dense records come only from dense input to the constructor,
from growth past ``_MAX_DIAGONALS`` and from the output of ``_spectral_exp``;
no generator or fixed combination holds one.

``_spectral_exp(z, alpha, n_max, algebra)`` exponentiates the displacement
exponent z K+ - conj(z) K- + alpha V+ - i conj(alpha) W- from the eigensystem
of its body per sector.  All of it that does not depend on z sits in one
read-only cache per truncation, ``_z_free_eigenbasis``: the real
eigendecomposition of each sector and the real images, in those bases, of the
one stencil S that V+ and W- share.  ``_body_eigensystem`` adds |z| and a
diagonal phase.  Every change of basis is then a real product, the phase put
back by one elementwise product; ``operator_exp``, scaling and squaring over
these operator products, is its test oracle.

The records a result holds follow from its operands, not from its entries: a
product adds the offsets, the superadjoint negates them, a multiple keeps them
and a sum takes the union of its terms' offsets.  A quadrant or diagonal that
cancels to zero stays held.  Only the public constructor reads entries, to
keep the nonzero quadrants of the (2N x 2N) arrays it copies and find their
diagonals; ``block`` assembles one (2N x 2N) block.

The generators are declared once, in three tables.  ``_STENCILS`` gives
each basic generator (and "I") as entries (target sector, source sector,
mode shift, coefficient of the source mode j), each filled by one array
assignment; a generator is odd when its entries cross the sectors.  A
coefficient is one expression in j, a half and sqrt, evaluated on numpy
arrays here and exactly in sympy by tests/test_exact_algebra.py, which
composes the stencils to prove COMMUTATOR_TABLE at every mode.  ``_COMBOS``
holds X1..X8, h and p_theta, each built by ``_combo``, and
``SUPERADJOINTS`` pairs each basic generator with its superadjoint.

Sign conventions (Koszul rule): a component with operator-block parity p
applied to a coefficient monomial of parity q picks up (-1)^{p q}, both in
operator application and in operator composition.  Together with the
order-preserving conjugation this makes SUPERADJOINTS exact matrix identities.

Truncation: raising entries that would leave the basis are dropped, so
identity checks exclude the top two slots per sector ("interior modes").

Operators are immutable.

``structure_defects``, ``vacuum_defects`` and ``hamiltonian_defects`` return
named defects only, the structure defects and the Hamiltonian ladder route
relative to their operands' scale; ``osp22.suites`` holds every tolerance and
makes every pass decision.  Their maxima, like ``max_abs``, are numpy
reductions, so a NaN entry reads as NaN rather than being dropped.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import basis as _basis
from .grassmann import (
    _SCALAR_TYPES,
    AlgebraMismatchError,
    GrassmannElement,
    default_algebra,
)
from .superspace import DimensionMismatchError, SuperVector, _scalar_row, coefficient_algebra

__all__ = [
    "GENERATOR_NAMES",
    "HERMITIAN_BASE",
    "COMMUTATOR_TABLE",
    "SUPERADJOINTS",
    "SuperOperator",
    "build_generator",
    "generator_parity",
    "interior_columns",
    "chi_slot_permutation",
    "ptheta_operator",
    "xtheta_operator",
    "operator_exp",
    "structure_defects",
    "vacuum_defects",
    "hamiltonian_defects",
]

GENERATOR_NAMES = ("K0", "K+", "K-", "B", "V+", "V-", "W+", "W-")
HERMITIAN_BASE = ("X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8")

# (target sector, source sector, shift, coefficient): Psi_j^source -> coefficient(j) Psi_{j+shift}^target,
# with h = 0.5 and np.sqrt on mode arrays, or h = Rational(1, 2) and sympy.sqrt exactly.
_STENCILS = {
    "I": ((0, 0, 0, lambda j, h, sqrt: 1), (1, 1, 0, lambda j, h, sqrt: 1)),
    "K0": ((0, 0, 0, lambda j, h, sqrt: j + h / 2), (1, 1, 0, lambda j, h, sqrt: j + 3 * h / 2)),
    "K+": ((0, 0, 1, lambda j, h, sqrt: sqrt((j + 1) * (j + h))),
           (1, 1, 1, lambda j, h, sqrt: sqrt((j + 1) * (j + 3 * h)))),
    "K-": ((0, 0, -1, lambda j, h, sqrt: sqrt(j * (j - h))),
           (1, 1, -1, lambda j, h, sqrt: sqrt(j * (j + h)))),
    "B": ((0, 0, 0, lambda j, h, sqrt: -h / 2), (1, 1, 0, lambda j, h, sqrt: h / 2)),
    "V+": ((1, 0, 0, lambda j, h, sqrt: sqrt(j + h)),),
    "V-": ((1, 0, -1, lambda j, h, sqrt: sqrt(j)),),
    "W+": ((0, 1, 1, lambda j, h, sqrt: sqrt(j + 1)),),
    "W-": ((0, 1, 0, lambda j, h, sqrt: sqrt(j + h)),),
}

# Fixed linear combinations of the basic generators, each built by ``_combo``.
_COMBOS = {
    "X1": {"K0": 1.0},
    "X2": {"B": 1.0},
    "X3": {"K+": 1.0, "K-": 1.0},
    "X4": {"K+": 1j, "K-": -1j},
    "X5": {"V+": 1.0, "W-": -1j},
    "X6": {"V-": 1.0, "W+": -1j},
    "X7": {"W+": 1.0, "V-": -1j},
    "X8": {"W-": 1.0, "V+": -1j},
    "h": {"K+": 0.5, "K-": 0.5, "K0": 1.0},
    "p_theta": {"V+": -1.0 / np.sqrt(2.0), "V-": -1.0 / np.sqrt(2.0)},
}

def generator_parity(name: str) -> int:
    """1 if the named generator or combination is odd: its stencils cross the sectors."""
    base = next(iter(_COMBOS[name])) if name in _COMBOS else name
    if base not in _STENCILS:
        raise ValueError(f"unknown generator {name!r}")
    target, source = _STENCILS[base][0][:2]
    return int(target != source)


def interior_columns(n_max: int, drop: int = 2) -> np.ndarray:
    """Slot columns at least ``drop`` modes below the truncation, per sector."""
    keep = np.arange(max(n_max - drop, 0))
    return np.concatenate([keep, n_max + keep])


class SuperOperator:
    """(2 N_max) x (2 N_max) operator with Grassmann-monomial block decomposition.

    ``blocks`` maps each coefficient-algebra monomial mask to the block's held
    sector quadrants, {(row sector, column sector): record}, where a missing
    quadrant is zero.  A record is a tuple of (d, part) entries: one per
    diagonal d = row - column, sorted by d, each part the read-only 1-D
    diagonal of max(0, N - |d|) entries in increasing row order; or the one
    entry (None, part) with part the read-only (N x N) array.
    ``block(mask)`` assembles one block.  ``algebra`` is
    ``coefficient_algebra`` of the algebra the operator was built with.
    """

    __slots__ = ("algebra", "n_max", "blocks", "parity_bit")

    def __init__(self, algebra, n_max: int, blocks: dict, parity: int):
        """Copies the nonzero quadrants of each (2N x 2N) block, one whose nonzeros lie on
        at most ``_MAX_DIAGONALS`` diagonals as those diagonals: later writes to the
        caller's arrays cannot reach the operator.  ``parity`` is 0 (even) or 1 (odd)."""
        if parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {parity!r}")
        n = int(n_max)
        quadrants = {}
        for mask, mat in blocks.items():
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (2 * n, 2 * n):
                raise DimensionMismatchError("block shape does not match truncation")
            parts = mat.reshape(2, n, 2, n)  # row sector, row, column sector, column
            quads = {}
            for i, j in np.ndindex(2, 2):
                part = parts[i, :, j]
                rows, cols = np.nonzero(part)
                if rows.size:
                    offsets = np.unique(rows - cols).tolist()
                    if len(offsets) <= _MAX_DIAGONALS:
                        quads[(i, j)] = tuple((d, _frozen(part.diagonal(-d).copy())) for d in offsets)
                    else:
                        quads[(i, j)] = ((None, _frozen(part.copy())),)
            if quads:
                quadrants[int(mask)] = quads
        self.algebra, self.n_max = coefficient_algebra(algebra), n
        self.blocks, self.parity_bit = quadrants, int(parity)

    @classmethod
    def _wrap(cls, algebra, n_max: int, blocks: dict, parity_bit: int):
        """Operator over quadrant records whose parts are read-only already, held as they are.

        Each operation freezes the parts it creates, where it creates them, and shares the
        read-only parts of its operands, so no wrap visits a part a second time."""
        op = cls.__new__(cls)
        op.algebra, op.n_max, op.blocks, op.parity_bit = algebra, int(n_max), blocks, parity_bit
        return op

    # -- basic views -------------------------------------------------------------

    @property
    def size(self) -> int:
        return 2 * self.n_max

    def block(self, mask: int = 0) -> np.ndarray:
        """The (2N x 2N) block of a monomial, assembled from its quadrants; read-only."""
        n = self.n_max
        parts = np.zeros((2, n, 2, n), dtype=complex)
        for (i, j), record in self.blocks.get(mask, {}).items():
            parts[i, :, j] = _expand(record, n)
        mat = parts.reshape(2 * n, 2 * n)
        mat.flags.writeable = False
        return mat

    @property
    def body(self) -> np.ndarray:
        return self.block(0)

    @classmethod
    def identity(cls, n_max: int, algebra=None) -> "SuperOperator":
        alg = coefficient_algebra(algebra or default_algebra())
        eye = {(s, s): ((0, _frozen(np.ones(n_max, dtype=complex))),) for s in (0, 1)}
        return cls._wrap(alg, n_max, {0: eye}, 0)

    @classmethod
    def zero(cls, n_max: int, algebra=None) -> "SuperOperator":
        """The even operator with no block."""
        return cls._wrap(coefficient_algebra(algebra or default_algebra()), n_max, {}, 0)

    def _check(self, other):
        if not isinstance(other, SuperOperator):
            raise TypeError("expected a SuperOperator")
        if other.n_max != self.n_max:
            raise DimensionMismatchError("operator truncations differ")
        if not self.algebra.compatible(other.algebra):
            raise AlgebraMismatchError("operators over incompatible algebras")

    # -- linear structure ----------------------------------------------------------

    def _sum(self, other, subtract: bool):
        """self - other when ``subtract``, else self + other: the one body of + and -."""
        self._check(other)
        if not self.blocks:
            return -other if subtract else other
        if not other.blocks:
            return self
        if other.parity_bit != self.parity_bit:
            raise ValueError("cannot add operators of different parity")
        blocks = dict(self.blocks)  # read-only, so quadrants one operand holds are shared
        for m, qc in other.blocks.items():
            blocks[m] = out = dict(blocks.get(m, {}))
            for ij, r in qc.items():
                out[ij] = _add(out[ij], r, self.n_max, subtract) if ij in out else _negated(r) if subtract else r
        return SuperOperator._wrap(self.algebra, self.n_max, blocks, self.parity_bit)

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        blocks = {m: {ij: _negated(r) for ij, r in quads.items()} for m, quads in self.blocks.items()}
        return SuperOperator._wrap(self.algebra, self.n_max, blocks, self.parity_bit)

    def __rmul__(self, beta):
        """Left multiplication by a complex number or a homogeneous element of the operator's algebra."""
        if isinstance(beta, _SCALAR_TYPES):
            c = complex(beta)
            blocks = {m: {ij: _scaled(r, c) for ij, r in quads.items()} for m, quads in self.blocks.items()}
            return SuperOperator._wrap(self.algebra, self.n_max, blocks, self.parity_bit)
        if isinstance(beta, GrassmannElement):
            row = _scalar_row(self.algebra, beta)
            pb = beta.parity_bit
            join = self.algebra.plan.join
            blocks: dict[int, dict] = {}
            for bm in np.flatnonzero(row).tolist():
                coeff = complex(row[bm])
                for am, quads in self.blocks.items():
                    step = join[bm][am]
                    if step is None:
                        continue
                    key, sign = step
                    out = blocks.setdefault(key, {})
                    for ij, record in quads.items():
                        term = _scaled(record, sign * coeff)
                        out[ij] = _add(out[ij], term, self.n_max) if ij in out else term
            return SuperOperator._wrap(self.algebra, self.n_max, blocks, self.parity_bit ^ pb)
        return NotImplemented

    def __mul__(self, scalar):
        if isinstance(scalar, _SCALAR_TYPES):
            return self.__rmul__(scalar)
        return NotImplemented

    # -- composition and application --------------------------------------------------

    def __matmul__(self, other):
        """Block products over the sector quadrants both factors hold.

        Output quadrant (i, j) of a block product gains a[i, k] @ c[k, j] for
        each k, in increasing order, where both quadrants are held, so a
        sector-patterned pair costs two quadrant products.  Each term is a
        record, ``_product`` of the two.  It is negated for a negative sign,
        then stored or added to the output through ``_add``.
        """
        self._check(other)
        plan = self.algebra.plan
        n = self.n_max
        blocks: dict[int, dict] = {}
        for am, qa in self.blocks.items():
            p_ma = self.parity_bit ^ plan.parity[am]
            qa = sorted(qa.items())
            for cm, qc in other.blocks.items():
                step = plan.join[am][cm]
                if step is None:
                    continue
                key, sign = step
                if p_ma and plan.parity[cm]:
                    sign = -sign
                out = blocks.setdefault(key, {})
                for (i, k), x in qa:
                    for j in (0, 1):
                        y = qc.get((k, j))
                        if y is None:
                            continue
                        term = _product(x, y, n)
                        if sign < 0:
                            term = _negated(term)
                        out[(i, j)] = _add(out[(i, j)], term, n) if (i, j) in out else term
        return SuperOperator._wrap(self.algebra, self.n_max, blocks, self.parity_bit ^ other.parity_bit)

    def apply(self, v: SuperVector) -> SuperVector:
        """Quadrant products per block, Koszul-signed, scattered to columns am|v.

        Each diagonal (d, part) of quadrant (i, j) acts on the rows it
        reaches, lo <= r < hi with lo, hi = max(0, d), N + min(0, d): row r of
        sector i gains part[r - lo] times row r - d of sector j, one slice
        product for all rows.  An N x N record is one matrix product.
        """
        if v.n_max != self.n_max:
            raise DimensionMismatchError("vector truncation differs from operator")
        if not self.algebra.compatible(v.algebra):
            raise AlgebraMismatchError("vector over an incompatible algebra")
        plan = v.algebra.plan
        n = self.n_max
        coeffs = v.coeffs.reshape(2, n, -1)  # sector, mode, monomial column
        out = np.zeros_like(coeffs)
        for am, quads in self.blocks.items():
            acc = np.zeros_like(coeffs)
            for (i, j), record in sorted(quads.items()):
                for d, part in record:
                    if d is None:
                        acc[i] += part @ coeffs[j]
                    else:
                        lo = max(0, d)
                        hi = max(lo, n + min(0, d))  # lo == hi: the diagonal lies outside the quadrant
                        acc[i, lo:hi] += part[:, None] * coeffs[j, lo - d : hi - d]
            graded = plan.grade(acc) if self.parity_bit ^ plan.parity[am] else acc
            # the unit monomial's product is the identity gather with sign +1
            out += plan.left_mul(am, graded) if am else graded
        return SuperVector.from_coeffs(v.algebra, out.reshape(v.coeffs.shape))

    def supercommutator(self, other) -> "SuperOperator":
        """[A, C] = AC - (-1)^{p(A) p(C)} CA: AC + CA for two odd operators, else AC - CA."""
        self._check(other)
        return _graded_difference(self @ other, other @ self, self.parity_bit & other.parity_bit)

    # -- superadjoint ------------------------------------------------------------------

    def superadjoint(self) -> "SuperOperator":
        """Adjoint with respect to the super-Hermitian form (odd sector weight i).

        Output quadrant (i, j) is the conjugate transpose of input quadrant
        (j, i) times one unit weight: the sector weights i^i and (-i)^j, the
        Koszul sign of odd blocks on odd columns and the sign of the conjugate
        monomial.  Unit weights multiply exactly.  Transposing moves diagonal d
        to -d with its entries in the same order, so a diagonal is only
        conjugated and weighted, and the entries are taken in reverse to stay
        sorted.
        """
        blocks: dict[int, dict] = {}
        plan = self.algebra.plan
        for am, quads in self.blocks.items():
            p_ma = self.parity_bit ^ plan.parity[am]
            mm, c = plan.conj_table[am]  # conjugation permutes the masks
            blocks[mm] = adj = {}
            for (j, i), record in quads.items():
                weight = c * 1j**i * (-1j) ** j * ((-1.0) ** j if p_ma else 1.0)
                adj[(i, j)] = tuple(
                    (None, _frozen(weight * part.conj().T))
                    if d is None
                    else (-d, _frozen(weight * part.conj()))
                    for d, part in reversed(record)
                )
        return SuperOperator._wrap(self.algebra, self.n_max, blocks, self.parity_bit)

    # -- diagnostics -------------------------------------------------------------------

    def max_abs(self, columns=None) -> float:
        """Largest entry modulus, over the slot ``columns`` alone when given, as
        ``block(m)[:, columns]`` reads them.  The columns become one boolean mask per
        sector, and each held part reads the stretch of its sector's mask it spans."""
        n = self.n_max
        if columns is not None:
            mask = np.zeros(2 * n, dtype=bool)
            mask[columns] = True
            columns = mask.reshape(2, n)
        parts = [
            np.abs(part if columns is None else _columns(part, d, columns[j])).max(initial=0.0)
            for quads in self.blocks.values()
            for (_, j), record in quads.items()
            for d, part in record
        ]
        # the ufunc keeps a NaN, as np.max does, without np.max's dispatch cost per call
        return float(np.maximum.reduce(parts, initial=0.0))

    def block_pattern_defect(self) -> float:
        """Largest entry in a quadrant off the sector pattern implied by the parity."""
        parity = self.algebra.plan.parity
        parts = [
            np.abs(part).max(initial=0.0)
            for am, quads in self.blocks.items()
            for (i, j), record in quads.items()
            if i ^ j != self.parity_bit ^ parity[am]
            for _, part in record
        ]
        return float(np.maximum.reduce(parts, initial=0.0))

    def __repr__(self):
        return f"SuperOperator(n_max={self.n_max}, parity={self.parity_bit}, monomials={len(self.blocks)})"


# A diagonal record holds at most this many diagonals; a sum or product that would hold more
# is stored N x N.  That bounds a product of two records at 64 diagonal products.  The widest
# record of a fixed combination, a sector quadrant of h, holds 3, and a product of two of them 5.
_MAX_DIAGONALS = 8


def _expand(record: tuple, n: int) -> np.ndarray:
    """The N x N array of a quadrant record: the part of a dense record itself, else each
    diagonal (d, part) placed on the entries (r, r - d) of an N x N array of zeros."""
    if record[0][0] is None:
        return record[0][1]
    mat = np.zeros((n, n), dtype=complex)
    for d, part in record:
        rows = np.arange(max(0, d), n + min(0, d))
        mat[rows, rows - d] = part
    return mat


def _frozen(part: np.ndarray) -> np.ndarray:
    """``part``, made read-only in place: every part a record holds is."""
    part.setflags(write=False)  # about 60% of the cost of a ``flags.writeable`` store
    return part


def _scaled(record: tuple, c) -> tuple:
    """The record of c * x for a quadrant record x and a complex number c."""
    return tuple([(d, _frozen(c * part)) for d, part in record])


def _negated(record: tuple) -> tuple:
    """The record of -x for a quadrant record x: each part negated, with no complex multiply."""
    return tuple([(d, _frozen(-part)) for d, part in record])


def _add(x: tuple, y: tuple, n: int, subtract: bool = False) -> tuple:
    """The record of x + y, or of x - y when ``subtract``, for quadrant records x and y.

    Two diagonal records merge their offsets, a diagonal both hold combining in one ufunc;
    past ``_MAX_DIAGONALS`` diagonals, or with a dense record, the N x N expansions combine.
    A diagonal only x holds is shared, one only y holds shared in a sum, negated otherwise.
    """
    combine = np.subtract if subtract else np.add
    if x[0][0] is not None and y[0][0] is not None:
        merged = dict(x)
        for d, part in y:
            merged[d] = _frozen(combine(merged[d], part)) if d in merged else _frozen(-part) if subtract else part
        if len(merged) <= _MAX_DIAGONALS:
            return tuple(sorted(merged.items()))
    return ((None, _frozen(combine(_expand(x, n), _expand(y, n)))),)


def _graded_difference(x: SuperOperator, y: SuperOperator, odd: int) -> SuperOperator:
    """x - (-1)^odd y, x + y for ``odd`` 1 and x - y for 0: every graded bracket's one merge."""
    return x._sum(y, not odd)


def _product(x: tuple, y: tuple, n: int) -> tuple:
    """The record of x @ y for quadrant records x and y.

    Two diagonal records convolve their offsets: each pair of entries, x's in order and for
    each y's in order, is one ``_diagonal_product`` on diagonal d1 + d2, and the products
    landing on one diagonal add in that order.  With a dense record, or when the convolution
    would land on more than ``_MAX_DIAGONALS`` diagonals, which is known from the offsets
    before any entry is multiplied, the product is instead that of the N x N expansions.
    """
    if (
        x[0][0] is not None
        and y[0][0] is not None
        and (len(x) * len(y) <= _MAX_DIAGONALS or len({a[0] + c[0] for a in x for c in y}) <= _MAX_DIAGONALS)
    ):
        out = {}
        for a in x:
            for c in y:
                d, part = _diagonal_product(a, c, n)
                out[d] = out[d] + part if d in out else part
        return tuple(sorted((d, _frozen(part)) for d, part in out.items()))
    return ((None, _frozen(_expand(x, n) @ _expand(y, n))),)


def _columns(part: np.ndarray, d, mask: np.ndarray) -> np.ndarray:
    """The entries of a held quadrant in the columns a boolean ``mask`` of length N marks:
    diagonal d holds one entry per column from max(0, -d) on, so it reads that slice."""
    if d is None:
        return part[:, mask]
    lo = max(0, -d)
    return part[mask[lo : lo + part.size]]


def _diagonal_product(x: tuple, y: tuple, n: int) -> tuple:
    """The entry of x @ y for diagonal entries x = (d1, a) and y = (d2, c): diagonal d1 + d2.

    (x @ y)[r, r - d] = a[r, r - d1] * c[r - d1, r - d] for d = d1 + d2: one term, on the rows r
    where all three entries exist, and zero on the rest of the diagonal.
    """
    (d1, a), (d2, c) = x, y
    d = d1 + d2
    lo = max(0, d1, d)
    hi = max(lo, n + min(0, d1, d))  # lo == hi: the product is zero
    o, o1, o2 = max(0, d), max(0, d1), max(0, d2)
    term = a[lo - o1 : hi - o1] * c[lo - d1 - o2 : hi - d1 - o2]
    size = max(0, n - abs(d))
    if term.size == size:  # the rows reached are the whole diagonal
        return d, term
    out = np.zeros(size, dtype=complex)
    out[lo - o : hi - o] = term
    return d, out


# -- generator construction ----------------------------------------------------------


def _combo(names_coeffs: dict, ops: dict) -> SuperOperator:
    items = iter(names_coeffs.items())
    name, coeff = next(items)
    acc = coeff * ops[name]
    for name, coeff in items:
        acc = acc + coeff * ops[name]
    return acc


def build_generator(name: str, n_max: int, algebra=None) -> SuperOperator:
    """Matrix of a named generator at the given truncation.

    Accepts the eight basic names K0, K+, K-, B, V+, V-, W+, W- and "I", whose
    matrices are filled from ``_STENCILS``, and the combinations of
    ``_COMBOS``: the super-Hermitian base X1..X8, the Hamiltonian element "h"
    (= K+/2 + K-/2 + K0) and "p_theta".
    """
    alg = coefficient_algebra(algebra or default_algebra())
    if n_max < 2:
        raise ValueError("truncation must be at least 2")
    if name in _COMBOS:
        ops = {base: build_generator(base, n_max, alg) for base in _COMBOS[name]}
        return _combo(_COMBOS[name], ops)
    parity = generator_parity(name)  # ValueError for an unknown name, before any stencil is read
    return SuperOperator._wrap(alg, n_max, {0: _stencil_quadrants(name, n_max)}, parity)


def _stencil_quadrants(name: str, n_max: int) -> dict:
    """{(target, source): ((shift, values),)}: the one-diagonal quadrant records of a basic
    generator, each filled from its ``_STENCILS`` entry by one array evaluation."""
    quadrants = {}
    for target, source, shift, coeff in _STENCILS[name]:
        j = np.arange(max(0, -shift), n_max - max(0, shift))  # source modes whose target is kept
        values = np.full(j.shape, coeff(j.astype(float), 0.5, np.sqrt), dtype=complex)
        quadrants[(target, source)] = ((shift, _frozen(values)),)
    return quadrants


def chi_slot_permutation(n_max: int) -> np.ndarray:
    """chi index for each slot: even slots hold chi_{2n}, odd slots chi_{2n+1}."""
    return np.concatenate([2 * np.arange(n_max), 2 * np.arange(n_max) + 1])


def _ladder_square(m, top: int) -> tuple:
    """(lower, main, upper): the entries (m - 2, m), (m, m) and (m + 2, m) of (a+ + a-)^2 on
    chi_0 .. chi_top, for each chi index in the array m.

    Each entry sums the two-step paths that stay in the basis, a product of two
    ``basis.ladder_coefficient`` values per path: down twice, up twice, and on the main
    diagonal down then up plus up then down, in the order of the matrix product's middle
    index.  An entry whose paths all leave the basis is zero.
    """
    up = lambda k: _basis.ladder_coefficient("+", k)
    down = lambda k: _basis.ladder_coefficient("-", k)
    lower, main, upper = np.zeros(m.shape), np.zeros(m.shape), np.zeros(m.shape)
    k = m >= 2
    lower[k] = down(m[k] - 1) * down(m[k])
    k = m >= 1
    main[k] = up(m[k] - 1) * down(m[k])
    k = m < top
    main[k] += down(m[k] + 1) * up(m[k])
    k = m + 2 <= top
    upper[k] = up(m[k] + 1) * up(m[k])
    return lower, main, upper


def ptheta_operator(n_max: int, algebra=None) -> SuperOperator:
    """p * theta = -(1/sqrt 2)(V+ + V-); odd operator."""
    return build_generator("p_theta", n_max, algebra)


def xtheta_operator(n_max: int, t: float, algebra=None) -> SuperOperator:
    """x * theta = 2 t (p theta) + i sqrt(2) (V+ - V-); odd operator."""
    alg = algebra or default_algebra()
    return (2.0 * t) * ptheta_operator(n_max, alg) + (1j * np.sqrt(2.0)) * (
        build_generator("V+", n_max, alg) - build_generator("V-", n_max, alg)
    )


# The Taylor core of ``operator_exp`` stops at the first term whose largest entry is at most
# _EXP_TOL times max(1, the sum's largest entry), and raises if that takes over _EXP_TERMS terms.
_EXP_TOL = 1e-16
_EXP_TERMS = 80


def operator_exp(op: SuperOperator) -> SuperOperator:
    """Matrix exponential by scaling and squaring with a Taylor core.

    The squaring count is chosen from the 1-norm of the body block; nilpotent
    blocks terminate their own series exactly.  The exponent must be
    envelope-even so the result has a well-defined (even) parity.
    """
    if op.parity_bit:
        raise ValueError("exponent must have even total parity")
    n1 = float(np.linalg.norm(op.body, 1))
    s = max(0, int(np.ceil(np.log2(n1 / 0.5)))) if n1 > 0.5 else 0
    scaled = (0.5**s) * op
    acc = SuperOperator.identity(op.n_max, op.algebra)
    term = SuperOperator.identity(op.n_max, op.algebra)
    for k in range(1, _EXP_TERMS + 1):
        term = (1.0 / k) * (term @ scaled)
        if not term.blocks:
            break
        acc = acc + term
        if term.max_abs() <= _EXP_TOL * max(1.0, acc.max_abs()):
            break
    else:
        raise RuntimeError("exponential series did not converge")
    for _ in range(s):
        acc = acc @ acc
    return acc


# Switches between a quotient and a series, each set from an error curve against 50-digit
# values in CHANGES.md.  Entry (i, j) of a second-order term is summed as its Taylor series
# in lam_i - lam_j below this gap; the quotient by lam_i - lam_j errs by about 3e-16 / gap.
_CONFLUENT = 0.1
# |d| below which phi_n(d) is summed as a series and recurred downward rather than upward.
_PHI_SERIES = 2.0
_PHI_TERMS = 24  # Horner terms of that series; the first omitted one is below 1e-20 there


def _expm1_imag(y: np.ndarray) -> np.ndarray:
    """expm1(-i y) for real y: -2 sin(y/2)^2 - i sin y, the two parts ``np.expm1`` forms for an
    imaginary argument.  expm1(i y) is its conjugate, so one sine pass serves both signs."""
    half = np.sin(0.5 * y)
    out = np.empty(np.shape(y), dtype=complex)
    out.real = 0.0 - 2.0 * half * half
    out.imag = np.sin(-y)
    return out


def _first_differences(y: np.ndarray) -> np.ndarray:
    """phi_1(-i y) = expm1(-i y) / (-i y) for real y, and 1 where y == 0.

    Where lam_i - lam_k = -i y it is f[lam_i, lam_k] / e^lam_k for f = exp, so no difference of
    two exponentials is ever formed.  i expm1(-i y) = sin y - 2i sin(y/2)^2 is divided by y one
    real part at a time.
    """
    em1 = _expm1_imag(y)
    out = np.ones(np.shape(y), dtype=complex)
    nonzero = y != 0
    np.divide(-em1.imag, y, out=out.real, where=nonzero)
    np.divide(em1.real, y, out=out.imag, where=nonzero)
    return out


def _phi(y: np.ndarray, phi1: np.ndarray, top: int) -> list:
    """[phi_2(d), .., phi_top(d)] at d = -i y for real y, from phi1 = phi_1(d) as
    ``_first_differences`` gives it; phi_n(d) = sum_m d^m / (m + n)!, so that
    f[w, .., w, w + d] = e^w phi_n(d) for f = exp with w taken n times.  The coefficients are
    real, so phi_n(i y) is the conjugate.

    Where |d| >= _PHI_SERIES they come from phi_1 by phi_{n+1} = (phi_n - 1/n!) / d, which
    divides the rounding error by |d| at each step.  Elsewhere phi_top is summed by Horner's
    rule and phi_n = 1/n! + d phi_{n+1} runs downward, multiplying it by |d|.
    """
    d = -1j * y
    small = np.abs(y) < _PHI_SERIES
    step = np.where(small, 1.0, d)  # the small entries are overwritten below
    phi = phi1
    out, factorial = [], 1.0
    for n in range(1, top):
        phi = (phi - 1.0 / factorial) / step
        factorial *= n + 1
        out.append(phi)
    if small.any():
        ds = d[small]
        series = np.ones_like(ds)
        for m in range(_PHI_TERMS, 0, -1):  # 1 + ds * series / (top + m), in place
            series *= ds
            series /= top + m
            series += 1.0
        series = series / factorial
        for n in range(top, 1, -1):
            out[n - 2][small] = series
            factorial /= n
            series = 1.0 / factorial + ds * series
    return out


def _taylor_order(u_max: float) -> int:
    """Highest power of lam_i - lam_j kept: the first omitted term, at most u_max^(p + 1) /
    (p + 3)! relative to the factors, is below 1e-18; 0 when only lam_i = lam_j occurs."""
    p, bound = 0, u_max / 6.0
    while bound > 1e-18:
        p += 1
        bound *= u_max / (p + 3)
    return p


def _odd_stencil(n_max: int) -> np.ndarray:
    """S = diag(sqrt(j + 1/2)) as a real N x N array: the one quadrant of V+, (1, 0), and of
    W-, (0, 1), both on diagonal 0."""
    return np.diag(_STENCILS["V+"][0][3](np.arange(n_max, dtype=float), 0.5, np.sqrt))


@lru_cache(maxsize=16)
def _z_free_eigenbasis(n_max: int) -> tuple:
    """Read-only (pairs, images): all of the displacement that does not depend on z.

    pairs[s] = (mu_s, Q_s) = eigh(T_s) for the real symmetric tridiagonal T_s of sector s:
    zero diagonal and the sector's K+ stencil on both off-diagonals.  K- is the transpose of
    K+, so with D = diag((i e^{i arg z})^k) the sector body of the displacement is
    z K+ - conj(z) K- = -i |z| D T_s D^H: its eigenvalues are -i |z| mu_s and its eigenvectors
    D Q_s, for every z.  T_s is bipartite, so mu_s comes in pairs +-mu.

    images[s] = Q_s^T S Q_(1-s) is ``_odd_stencil``'s S across from sector s in those bases.
    S lies on diagonal 0, so D^H S D = S and (D Q_s)^H S (D Q_(1-s)) = images[s] for every z.
    """
    pairs = []
    for sector in (0, 1):
        off = _STENCILS["K+"][sector][3](np.arange(n_max - 1.0), 0.5, np.sqrt)
        pairs.append(tuple(np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))))
    (_, q0), (_, q1) = pairs
    stencil = _odd_stencil(n_max)
    images = (q0.T @ stencil @ q1, q1.T @ stencil @ q0)
    for array in (*pairs[0], *pairs[1], *images):
        array.flags.writeable = False
    return tuple(pairs), images


def _body_eigensystem(z: complex, n_max: int) -> tuple:
    """(radius, phase, pairs, images) for the body z K+ - conj(z) K-: radius = |z|, phase[k] =
    (i e^{i arg z})^k, and pairs and images those of ``_z_free_eigenbasis``, so that sector s
    of the body is V_s diag(-i radius mu_s) V_s^H with V_s = D Q_s and D = diag(phase).

    At z = 0 the body is zero and every basis diagonalizes it; the pairs are (0, I) and the
    images S there, so the exponential comes out exact rather than through Q Q^T = I to
    rounding.
    """
    k = np.arange(n_max)
    phase = np.array((1, 1j, -1, -1j))[k % 4] * np.exp(1j * np.angle(z) * k)  # i^k taken exactly
    if z == 0:
        stencil = _odd_stencil(n_max)
        return 0.0, phase, ((np.zeros(n_max), np.eye(n_max)),) * 2, (stencil, stencil)
    return abs(z), phase, *_z_free_eigenbasis(n_max)


def _phased(stacked: np.ndarray, right: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """outer o ((A + i B) right^T) for stacked = [A; B], a real (2N x N) array: one real product."""
    n = right.shape[0]
    both = stacked @ right.T
    out = np.empty((n, n), dtype=complex)
    out.real = both[:n]
    out.imag = both[n:]
    out *= outer
    return out


def _sandwich(left: np.ndarray, x: np.ndarray, right: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """outer o (left x right^T) for real left and right and complex x: two real products, of
    left by [Re x, Im x] and of its two halves, stacked, by right^T."""
    n = x.shape[1]
    half = left @ np.concatenate((x.real, x.imag), axis=1)
    return _phased(np.concatenate((half[:, :n], half[:, n:])), right, outer)


def _spectral_exp(z: complex, alpha: complex, n_max: int, algebra) -> SuperOperator:
    """exp(z K+ - conj(z) K- + a V+ - i conj(a) W-), a = alpha times the generator "alpha" of
    the coefficient algebra of ``algebra`` (default: ``default_algebra()``), from the
    eigensystem of its body in the real z-free eigenbases of ``_body_eigensystem``.

    a^2 = 0, so the series stops at second order (Higham, Functions of Matrices, SIAM 2008,
    ch. 3 and 10; Najfeld and Havel, Adv. Appl. Math. 16 (1995) 321).  Sector s of the body is
    V_s diag(lam_s) V_s^H with V_s = D Q_s, Q_s real, D = diag(phase) and lam_s = -i |z| mu_s.
    So V_s X V_t^H is D (Q_s X Q_t^T) D^H, two real products and one elementwise product by
    phase (x) conj(phase) (``_sandwich``).  The odd part across from sector s, in those bases,
    is G~_s = c_s images[s]: c_1 = alpha for V+ in quadrant (1, 0) and c_0 = -i conj(alpha) for
    W- in quadrant (0, 1).

    * mask 0: V_s e^lam_s V_s^H = D Q_s diag(cos |z| mu_s - i sin |z| mu_s) Q_s^T D^H;
    * the masks of a and conj(a): the Frechet derivative of exp at the body, quadrant (s, 1 - s)
      being V_s (F1 o G~_s) V_(1-s)^H with F1[i, k] = f[lam_s,i, lam_(1-s),k].  With
      y = |z| (mu_0,i - mu_1,k), lam_0,i - lam_1,k = -i y, so F1 = e^lam_1,k phi_1(-i y)
      across from sector 0 and its transpose across from sector 1, from one sine pass over y
      (``_first_differences``);
    * mask a | conj(a), with (a | conj(a), sign) = plan.join[a][conj(a)]: the second-order
      term, quadrant (s, s) being V_s M V_s^H with M[i, j] = sum_k f[lam_i, lam_k, lam_j]
      G~_s[i, k] G~_(1-s)[k, j] over the other sector's k.  It takes -sign in sector 1, where
      the a block is on the left and conj(a) passes its odd generator as in ``@``, and +sign
      in sector 0, where the order of the masks is swapped as well.  Away from lam_i = lam_j M
      is ((F1 o G~_s) G~_(1-s) - G~_s (F1 o G~_(1-s))) / (lam_i - lam_j), two matrix products.
      Within _CONFLUENT of it, it is the Taylor series sum_p (lam_i - lam_j)^p
      G~_s (Dp^T o G~_(1-s)) with Dp[j, k] = f[lam_j taken p + 2 times, lam_k] =
      e^lam_j phi_{p+2}(lam_k - lam_j), one matrix product per power; on the diagonal only
      p = 0 remains, summed over k entry by entry.  lam_k - lam_j is +-i y, so Dp reads
      phi_{p+2}(-i y) of y once: conjugated in sector 0, transposed in sector 1.

    At alpha = 0 the result is the body alone and no gap is formed.  Every held quadrant of
    the result is an N x N record.
    """
    alg = coefficient_algebra(algebra or default_algebra())
    n = int(n_max)
    if n < 2:
        raise ValueError("truncation must be at least 2")
    radius, phase, pairs, images = _body_eigensystem(z, n)
    outer = phase[:, None] * phase.conj()[None, :]
    mus, qs = zip(*pairs)
    angles = [radius * mu for mu in mus]
    cos, sin = [np.cos(a) for a in angles], [np.sin(a) for a in angles]
    body = [_frozen(_phased(np.concatenate((q * c, q * -s)), q, outer)) for q, c, s in zip(qs, cos, sin)]
    blocks = {0: {(s, s): ((None, body[s]),) for s in (0, 1)}}
    if alpha == 0:
        return SuperOperator._wrap(alg, n, blocks, 0)

    tilde = ((-1j * alpha.conjugate()) * images[0], alpha * images[1])
    y = radius * (mus[0][:, None] - mus[1][None, :])  # lam_0,i - lam_1,k = -i y
    phi1 = _first_differences(y)
    exp_lam = [c - 1j * s for c, s in zip(cos, sin)]
    f1 = phi1 * exp_lam[1][None, :]
    weighted = (f1 * tilde[0], f1.T * tilde[1])
    index = alg.index["alpha"]
    masks = (1 << alg.pair[index], 1 << index)  # masks[s]: the odd block across from sector s
    for s in (1, 0):
        blocks[masks[s]] = {(s, 1 - s): ((None, _frozen(_sandwich(qs[s], weighted[s], qs[1 - s], outer))),)}

    key, sign = alg.plan.join[masks[1]][masks[0]]
    gaps = [radius * (mu[:, None] - mu[None, :]) for mu in mus]  # lam_s,i - lam_s,j = -i gap
    close = [np.abs(gap) < _CONFLUENT for gap in gaps]
    orders = [_taylor_order(float(np.abs(np.where(c, gap, 0.0)).max())) for gap, c in zip(gaps, close)]
    phi = _phi(y, phi1, max(orders) + 2)
    dps = ([exp_lam[0][:, None] * np.conj(p) for p in phi], [exp_lam[1][:, None] * p.T for p in phi])
    blocks[key] = {}
    for s, turn in ((1, -sign), (0, sign)):
        ga, gb, dp, near = tilde[s], tilde[1 - s], dps[s], close[s]
        mid = 1j * (weighted[s] @ gb - ga @ weighted[1 - s]) / np.where(near, 1.0, gaps[s])
        if np.count_nonzero(near) > n:  # close pairs off the diagonal
            u = np.where(near, -1j * gaps[s], 0.0)
            taylor = 0.0
            for p in range(orders[s], -1, -1):
                taylor = taylor * u + ga @ (dp[p].T * gb)
            mid = np.where(near, taylor, mid)
        mid[np.diag_indices(n)] = np.sum(ga * dp[0] * gb.T, axis=1)  # u = 0: the p = 0 term
        blocks[key][(s, s)] = ((None, _frozen(_sandwich(qs[s], turn * mid, qs[s], outer))),)
    return SuperOperator._wrap(alg, n, blocks, 0)


# -- structure verification --------------------------------------------------------------

# [A, C] = sum of the listed generators; all other generator pairs supercommute.
COMMUTATOR_TABLE = (
    ("K0", "K+", {"K+": 1.0}),
    ("K0", "K-", {"K-": -1.0}),
    ("K-", "K+", {"K0": 2.0}),
    ("K0", "V+", {"V+": 0.5}),
    ("K0", "V-", {"V-": -0.5}),
    ("K0", "W+", {"W+": 0.5}),
    ("K0", "W-", {"W-": -0.5}),
    ("K+", "V-", {"V+": -1.0}),
    ("K-", "V+", {"V-": 1.0}),
    ("K+", "W-", {"W+": -1.0}),
    ("K-", "W+", {"W-": 1.0}),
    ("B", "V+", {"V+": 0.5}),
    ("B", "V-", {"V-": 0.5}),
    ("B", "W+", {"W+": -0.5}),
    ("B", "W-", {"W-": -0.5}),
    ("V+", "W+", {"K+": 1.0}),
    ("V-", "W-", {"K-": 1.0}),
    ("V+", "W-", {"K0": 1.0, "B": -1.0}),
    ("V-", "W+", {"K0": 1.0, "B": 1.0}),
)

# (G)+ = coefficient * generator under the super-Hermitian form, as exact matrix identities.
SUPERADJOINTS = {
    "K0": (1.0, "K0"), "K+": (1.0, "K-"), "K-": (1.0, "K+"), "B": (1.0, "B"),
    "V+": (1j, "W-"), "V-": (1j, "W+"), "W+": (1j, "V-"), "W-": (1j, "V+"),
}


def structure_defects(ops: dict, seed: int = 7) -> dict:
    """{"table"|"unlisted": {relation: defect}, "jacobi": defect}, each with an ``_abs`` twin.

    ``ops`` maps GENERATOR_NAMES to operators at one n_max >= 8.  Pairs are
    measured on interior columns, Jacobi sums of 20 triples drawn from ``seed``
    one mode deeper.  Products grow with n_max, so each defect is divided by its
    operands' max-abs entries on the same columns (|A||C| or |A||C||E|); the
    ``_abs`` twins keep the absolute figures.  The pairs and the inner brackets of
    each triple are read from the 64 generator brackets of ``_generator_table``;
    this is the one-call form of ``_structure_defects``, which ``suite_algebra``
    hands the table it shares with its other checks.
    """
    return _structure_defects(ops, _generator_table(ops)[1], seed)


def _generator_table(ops: dict) -> tuple:
    """(products, brackets): a @ c and [a, c] for every ordered pair of GENERATOR_NAMES, keyed
    (a, c).  Each bracket is ``_graded_difference`` of products[a, c] and products[c, a], as
    in ``SuperOperator.supercommutator``, so it equals that call record for record."""
    products = {(a, c): ops[a] @ ops[c] for a in GENERATOR_NAMES for c in GENERATOR_NAMES}
    brackets = {
        (a, c): _graded_difference(products[a, c], products[c, a], ops[a].parity_bit & ops[c].parity_bit)
        for a, c in products
    }
    return products, brackets


def _structure_defects(ops: dict, table: dict, seed: int) -> dict:
    """``structure_defects`` of ``ops``, with ``table`` the brackets of ``_generator_table``."""
    n_max = ops["K0"].n_max
    if n_max < 8:
        raise ValueError("structure verification needs n_max >= 8")
    cols_pair = interior_columns(n_max, 2)
    cols_triple = interior_columns(n_max, 3)
    size = {name: op.max_abs(columns=cols_pair) for name, op in ops.items()}
    deep = {name: op.max_abs(columns=cols_triple) for name, op in ops.items()}

    table_abs, unlisted_abs, scale = {}, {}, {}
    listed = set()
    for a, c, combo in COMMUTATOR_TABLE:
        listed.add((a, c))
        listed.add((c, a))
        rhs = " + ".join(f"{v:g}*{k}" for k, v in combo.items())
        key = f"[{a},{c}] = {rhs}"
        table_abs[key] = (table[a, c] - _combo(combo, ops)).max_abs(columns=cols_pair)
        scale[key] = size[a] * size[c]

    for i, a in enumerate(GENERATOR_NAMES):
        for c in GENERATOR_NAMES[i:]:
            if (a, c) not in listed:
                key = f"[{a},{c}] = 0"
                unlisted_abs[key] = table[a, c].max_abs(columns=cols_pair)
                scale[key] = size[a] * size[c]

    rng = np.random.default_rng(seed)
    jacobi, jacobi_abs = [], []
    for _ in range(20):
        a, c, e = (GENERATOR_NAMES[k] for k in rng.integers(0, 8, size=3))
        jac = _graded_difference(
            ops[a].supercommutator(table[c, e]) - table[a, c].supercommutator(ops[e]),
            ops[c].supercommutator(table[a, e]),
            ops[a].parity_bit & ops[c].parity_bit,
        )
        jacobi_abs.append(jac.max_abs(columns=cols_triple))
        jacobi.append(jacobi_abs[-1] / np.prod([deep[a], deep[c], deep[e]]))
    return {
        "table": {key: v / scale[key] for key, v in table_abs.items()},
        "unlisted": {key: v / scale[key] for key, v in unlisted_abs.items()},
        "jacobi": float(np.max(jacobi, initial=0.0)),
        "table_abs": table_abs,
        "unlisted_abs": unlisted_abs,
        "jacobi_abs": float(np.max(jacobi_abs, initial=0.0)),
    }


def vacuum_defects(ops: dict) -> dict:
    """{"lowest_weight": {property: defect}, "v_plus_norm": defect} of Psi_0^0.

    Lowest weight: the K0 and B eigenvalues and the four annihilators, exact.
    Atypicality: the one raising annihilator is W+, so |V+ Psi_0^0| = 1/sqrt 2.
    """
    k0 = ops["K0"]
    vac = SuperVector.basis_state(0, 0, k0.n_max, k0.algebra)
    lowest = {
        "K0 eigenvalue 1/4": (k0.apply(vac) - 0.25 * vac).max_abs(),
        "B eigenvalue -1/4": (ops["B"].apply(vac) + 0.25 * vac).max_abs(),
    }
    for name in ("K-", "V-", "W+", "W-"):
        lowest[f"{name} annihilates"] = ops[name].apply(vac).max_abs()
    v_plus = ops["V+"].apply(vac).norm()
    return {"lowest_weight": lowest, "v_plus_norm": abs(v_plus - 2**-0.5)}


def hamiltonian_defects(n_max: int = 32, algebra=None, spec=None) -> dict:
    """Defects of the Hamiltonian element h = K+/2 + K-/2 + K0, checked three ways.

    ``ladder_route``: h against (a+ + a-)^2 on the raw chi basis, whose
    diagonals -2, 0 and +2 (``_ladder_square``) are reordered into the slot
    diagonals -1, 0 and +1 of each sector, on interior columns and divided by
    h's max-abs entry there (``ladder_route_abs`` keeps the absolute figure);
    ``block_pattern``: entries off the sector pattern; ``quadrature`` and
    ``pointwise``: matrix elements and h chi_m against -chi_m'' (m <= 6), both
    reading the 9 x 9 corner of (a+ + a-)^2 on chi_0 .. chi_8; ``vacuum``:
    <chi_0| h |chi_0> against 1/4, read from the t = 0 quadrature matrix.
    The corner needs every path from chi_8, so n_max must be at least 5.
    """
    if n_max < 5:
        raise ValueError("the Hamiltonian routes need n_max >= 5")
    alg = algebra or default_algebra()
    h = build_generator("h", n_max, alg)

    top = 2 * n_max - 1  # the slots hold chi_0 .. chi_top
    ladder = {}
    for p, m in enumerate(chi_slot_permutation(n_max).reshape(2, n_max)):
        lower, main, upper = _ladder_square(m, top)
        # chi_{m -+ 2} is mode n -+ 1 of the same sector: slot diagonals -1, 0 and +1
        ladder[(p, p)] = ((-1, _frozen(lower[1:])), (0, _frozen(main)), (1, _frozen(upper[:-1])))
    h_chi = SuperOperator._wrap(h.algebra, n_max, {0: ladder}, 0)
    cols = interior_columns(n_max, 2)
    route = (h - h_chi).max_abs(columns=cols)
    lower, main, upper = _ladder_square(np.arange(9), top)
    corner = np.diag(main) + np.diag(lower[2:], 2) + np.diag(upper[:-2], -2)  # on chi_0 .. chi_8

    modes = np.arange(7)
    quad = []
    for t in (0.0, 1.0):
        x, w = _basis.quad_grid(t, spec)
        vals = _basis.chi_matrix(range(7), x, t)
        neg_d2 = -_basis.eval_chi_derivatives(modes, x, t)[2]
        quad_elements = (vals.conj() * w) @ neg_d2.T
        quad.append(np.abs(quad_elements - corner[:7, :7]).max())
        if t == 0.0:
            vac_h = complex(quad_elements[0, 0])  # <chi_0| h |chi_0>

    grid = np.linspace(-3.0, 3.0, 7)
    point = []
    for t in (0.0, 0.7):
        vals = _basis.chi_matrix(range(9), grid, t)
        neg_d2 = -_basis.eval_chi_derivatives(modes, grid, t)[2]
        for m in range(7):
            recon = corner[:, m] @ vals
            point.append(np.abs(recon - neg_d2[m]).max())

    return {
        "ladder_route": route / h.max_abs(columns=cols),
        "ladder_route_abs": route,
        "block_pattern": h.block_pattern_defect(),
        "quadrature": float(np.max(quad)),
        "pointwise": float(np.max(point)),
        "vacuum": abs(vac_h - 0.25),
    }
