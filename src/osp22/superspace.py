"""Truncated Hilbert superspace over the even/odd solution sectors.

Vectors carry exterior-algebra coefficients over the basis
Psi_n^0 = psi_n (even sector) and Psi_n^1 = theta * phi_n (odd sector).
theta and theta_bar are coordinates of the superspace, never scalars, so
every superspace scalar lives in ``coefficient_algebra(alg)``, the algebra on
the generators of ``alg`` other than theta, theta_bar: vectors, operators,
the scalars they take and every scalar they return.  Public functions take
any ``algebra=`` and map it there; a scalar from another algebra, one that
could carry theta, raises AlgebraMismatchError (a ValueError).

A vector stores all its coefficients as one complex array ``coeffs`` of
shape (2 n_max, 2^(g-2)): row n is the coefficient of Psi_n^0, row n_max + n
that of Psi_n^1, each row in that algebra's mask order.  Linear structure
is array arithmetic, and Grassmann products go through its plan, one batched
call per operation; ``even`` and ``odd`` copy the rows into elements.

The super-Hermitian form restricts to the ordinary L2 product on the even
sector and to i times it on the odd sector, and Grassmann scalars move
through it by the rule

    (beta1 Phi1 | beta2 Phi2)
        = (-1)^{p(Phi1) p(beta2)} conj(beta1) beta2 (Phi1 | Phi2).

`super_inner` is the fast route built on basis orthonormality: one
conj(A)^T B product of coefficient arrays, contracted through the plan.
`super_inner_integral` is the independent oracle and the one computation
that needs theta: in the algebra with theta, theta_bar prepended, it pairs
conj(Phi1) with Phi2 * i exp(-i theta_bar theta) through the quadrature Gram
of the slot basis functions, Berezin-integrates the pair (theta, theta_bar)
and so integrates x by quadrature.

Both routes are array-level: ``_form`` and ``_integral_form`` take coefficient
stacks (..., 2 n_max, 2^(g-2)) and broadcast over the leading axes, one batched
plan call per step whatever the number of pairs.  The two methods wrap them
for one pair of vectors; the suites call them on blocks of sampled pairs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import basis as _basis
from .grassmann import (
    _SCALAR_TYPES,
    AlgebraMismatchError,
    GrassmannAlgebra,
    GrassmannElement,
    default_algebra,
    random_coefficients,
)

__all__ = [
    "DimensionMismatchError",
    "SuperVector",
    "coefficient_algebra",
    "super_inner_integral",
    "superadjoint_defect",
    "random_supervector",
]

STRUCTURAL = ("theta", "theta_bar")


class DimensionMismatchError(ValueError):
    """Vectors or operators with different truncations were combined."""


def coefficient_algebra(algebra) -> GrassmannAlgebra:
    """The algebra on ``algebra``'s generators other than theta, theta_bar, in the same order:
    ``algebra`` itself when it has neither, else one instance per generator set."""
    if STRUCTURAL[0] not in algebra.index:
        return algebra
    return _theta_free(algebra.generators)


@lru_cache(maxsize=None)
def _theta_free(generators: tuple) -> GrassmannAlgebra:
    return GrassmannAlgebra(name for name in generators if name not in STRUCTURAL)


def _scalar_row(space, scalar: GrassmannElement) -> np.ndarray:
    """Coefficients of a superspace scalar; AlgebraMismatchError if it belongs to another algebra."""
    if not space.compatible(scalar.algebra):
        raise AlgebraMismatchError("scalar outside the coefficient algebra, or carrying theta")
    return scalar.coeffs


class SuperVector:
    """Truncated expansion sum_n c_n Psi_n^0 + sum_n d_n Psi_n^1.

    ``SuperVector(algebra, even, odd)`` takes the c_n and d_n as numbers or
    elements of ``coefficient_algebra(algebra)``, which becomes ``algebra``.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, even, odd):
        even = tuple(even)
        odd = tuple(odd)
        if len(even) != len(odd):
            raise DimensionMismatchError("even and odd slot counts must match")
        if not even:
            raise DimensionMismatchError("truncation must be at least 1")
        space = coefficient_algebra(algebra)
        coeffs = np.zeros((2 * len(even), space.size), dtype=complex)
        for row, c in enumerate(even + odd):
            if isinstance(c, GrassmannElement):
                coeffs[row] = _scalar_row(space, c)
            elif isinstance(c, _SCALAR_TYPES):
                coeffs[row, 0] = complex(c)
            else:
                raise TypeError(f"cannot use {type(c).__name__} as a coefficient")
        self.algebra, self.coeffs = space, coeffs

    @classmethod
    def from_coeffs(cls, algebra, coeffs) -> "SuperVector":
        """Vector over a (2 n_max, 2^(g-2)) coefficient-algebra array, even slots first."""
        space = coefficient_algebra(algebra)
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 2 or coeffs.shape[0] % 2 or not coeffs.shape[0]:
            raise DimensionMismatchError("expected an array of shape (2 n_max, 2^(g-2))")
        if coeffs.shape[1] != space.size:
            raise AlgebraMismatchError("coefficient rows do not match the coefficient algebra")
        vec = cls.__new__(cls)
        vec.algebra, vec.coeffs = space, coeffs
        return vec

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n_max: int, algebra=None) -> "SuperVector":
        space = coefficient_algebra(algebra or default_algebra())
        return cls.from_coeffs(space, np.zeros((2 * n_max, space.size), dtype=complex))

    @classmethod
    def basis_state(cls, sector: int, n: int, n_max: int, algebra=None) -> "SuperVector":
        """Psi_n^sector as a unit vector."""
        if sector not in (0, 1):
            raise ValueError("sector must be 0 or 1")
        if not 0 <= n < n_max:
            raise ValueError("slot index outside the truncation")
        vec = cls.zero(n_max, algebra)
        vec.coeffs[sector * n_max + n, 0] = 1.0
        return vec

    @property
    def n_max(self) -> int:
        return self.coeffs.shape[0] // 2

    def _elements(self, rows) -> tuple:
        return tuple(GrassmannElement(self.algebra, row) for row in self.coeffs[rows].copy())

    @property
    def even(self) -> tuple:
        """Coefficients c_n of the even sector, as elements of a copy of their rows."""
        return self._elements(slice(None, self.n_max))

    @property
    def odd(self) -> tuple:
        """Coefficients d_n of the odd sector, as elements of a copy of their rows."""
        return self._elements(slice(self.n_max, None))

    # -- linear structure ------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, SuperVector):
            raise TypeError("expected a SuperVector")
        if other.n_max != self.n_max:
            raise DimensionMismatchError("truncations differ")
        if not self.algebra.compatible(other.algebra):
            raise AlgebraMismatchError("vectors over incompatible algebras")

    def __add__(self, other):
        self._check(other)
        return SuperVector.from_coeffs(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return SuperVector.from_coeffs(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self):
        return SuperVector.from_coeffs(self.algebra, -self.coeffs)

    def __rmul__(self, beta):
        """Left multiplication by a complex number or an element of the vector's algebra."""
        if isinstance(beta, _SCALAR_TYPES):
            beta = self.algebra.scalar(complex(beta))
        if not isinstance(beta, GrassmannElement):
            return NotImplemented
        row = _scalar_row(self.algebra, beta)
        return SuperVector.from_coeffs(self.algebra, self.algebra.plan.mul(row, self.coeffs))

    def __mul__(self, scalar):
        if isinstance(scalar, _SCALAR_TYPES):
            return self.__rmul__(scalar)
        return NotImplemented

    # -- grading ----------------------------------------------------------------

    @property
    def parity_bit(self) -> int:
        """Envelope parity, coefficient parity plus slot parity: 0 (even, the zero vector
        included) or 1 (odd); ValueError if mixed."""
        has_even, has_odd = self.algebra.plan.parity_content(self.coeffs)
        n = self.n_max
        # an odd slot flips the envelope parity of its coefficient
        env_odd = has_odd[:n].any() or has_even[n:].any()
        env_even = has_even[:n].any() or has_odd[n:].any()
        if env_odd and env_even:
            raise ValueError("vector is not homogeneous")
        return int(env_odd)

    # -- super-Hermitian form ----------------------------------------------------

    def super_inner(self, other) -> GrassmannElement:
        """(self | other) via sector orthonormality; odd sector weighted by i.

        sum_n conj(c1_n) c2_n + i sum_n conj(d1_n) d2_n^grade, taken as one
        product conj(A)^T B' and one plan contraction, where B' carries the
        odd-sector weight i and the grade involution.
        """
        self._check(other)
        return GrassmannElement(self.algebra, _form(self.algebra, self.coeffs, other.coeffs))

    def norm(self) -> float:
        """Body-level norm sqrt(sum |c_n|^2 + sum |d_n|^2); nilpotents do not enter."""
        body = self.coeffs[:, 0]
        return float(np.sqrt(np.sum(np.hypot(body.real, body.imag) ** 2)))

    def max_abs(self) -> float:
        return float(np.hypot(self.coeffs.real, self.coeffs.imag).max())

    def __repr__(self):
        nz = int(np.count_nonzero(self.coeffs.any(axis=1)))
        return f"SuperVector(n_max={self.n_max}, nonzero_slots={nz})"


def _form(space, bra, ket) -> np.ndarray:
    """``super_inner`` of coefficient stacks (..., 2 n_max, 2^g) of ``space`` over their leading
    axes: conj(A)^T B' and one plan contraction, B' with its odd rows weighted i and graded,
    joined to the even rows of B in one step."""
    plan = space.plan
    n = bra.shape[-2] // 2
    ket = np.concatenate([ket[..., :n, :], 1j * plan.grade(ket[..., n:, :])], axis=-2)
    gram = np.swapaxes(plan.conj(bra), -1, -2) @ ket
    return plan.contract(gram)


def super_inner_integral(v1: SuperVector, v2: SuperVector, t: float = 0.0, spec=None):
    """Direct-integral oracle for the super-Hermitian form.

    In the exterior algebra with theta, theta_bar, the integrand of slot pair
    (i, j) is bra_i ket_j, with bra_i = conj(Phi1_i) and ket_j = Phi2_j * i
    exp(-i theta_bar theta) (the exponential expanded as 1 - i theta_bar
    theta); its x-dependence integrates to the quadrature Gram entry gram_ij
    of the underlying basis functions.  The form is bilinear, so
    sum_ij gram_ij bra_i ket_j = sum_i bra_i (gram @ ket)_i: Gram first, then
    one batched product per slot, summed and Berezin-integrated over
    (theta, theta_bar).
    """
    v1._check(v2)
    return GrassmannElement(v1.algebra, _integral_form(v1.algebra, v1.coeffs, v2.coeffs, t, spec))


def _integral_form(space, bra, ket, t: float = 0.0, spec=None) -> np.ndarray:
    """``super_inner_integral`` of coefficient stacks (..., 2 n_max, 2^g) of ``space`` over
    their leading axes: each step is one batched call for every pair."""
    alg, embed, theta, weight = _integrand_algebra(space.generators)
    plan = alg.plan
    n = bra.shape[-2] // 2

    def with_theta(coeffs):
        """Slot coefficients times their theta: c_n for Psi_n^0, d_n theta for Psi_n^1."""
        rows = np.zeros(coeffs.shape[:-1] + (alg.size,), dtype=complex)
        rows[..., embed] = coeffs
        rows[..., n:, :] = plan.mul(rows[..., n:, :], theta)
        return rows

    bra = plan.conj(with_theta(bra))
    ket = _slot_gram(n, t, spec) @ plan.mul(with_theta(ket), weight)
    integral = alg.berezin_coeffs(plan.mul(bra, ket).sum(axis=-2), STRUCTURAL)
    # integrating out theta and theta_bar leaves only the masks 4 m, so reading them back is lossless
    return integral[..., embed]


@lru_cache(maxsize=None)
def _integrand_algebra(generators: tuple) -> tuple:
    """The oracle's algebra, theta and theta_bar prepended to ``generators``, with read-only
    arrays: the embedding of scalar masks, and the coefficients of theta and of the weight
    i exp(-i theta_bar theta)."""
    alg = GrassmannAlgebra(STRUCTURAL + generators)
    # theta, theta_bar are the two low bits of the integrand's algebra, so scalar mask m is
    # its mask 4 m: the one place where a superspace scalar meets theta
    embed = 4 * np.arange(1 << len(generators))
    theta = alg.gen("theta")
    weight = 1j * (alg.one() - 1j * (alg.gen("theta_bar") * theta))
    arrays = (embed, theta.coeffs, weight.coeffs)
    for x in arrays:
        x.flags.writeable = False
    return (alg,) + arrays


@lru_cache(maxsize=32)
def _slot_gram(n_max: int, t: float, spec) -> np.ndarray:
    """Read-only quadrature Gram of the slot basis functions (chi_0, chi_2, .., chi_1, chi_3, ..)."""
    chi_order = [2 * k for k in range(n_max)] + [2 * k + 1 for k in range(n_max)]
    gram = _basis.gram_matrix(chi_order, t, spec)
    gram.flags.writeable = False
    return gram


def superadjoint_defect(op, claimed_adjoint, v1: SuperVector, v2: SuperVector):
    """(A+_claimed v1 | v2) - (-1)^{p(v1) p(A)} (v1 | A v2); zero certifies the claim."""
    sign = -1.0 if (v1.parity_bit and op.parity_bit) else 1.0
    lhs = claimed_adjoint.apply(v1).super_inner(v2)
    rhs = v1.super_inner(op.apply(v2))
    return lhs - sign * rhs


def _row_parities(top: int, parity) -> list:
    """``random_coefficients`` parities of the drawn rows of a vector with ``top`` slots per
    sector, even sector first: with ``parity`` set, an odd slot flips its coefficient's parity."""
    if parity is None:
        return [None] * (2 * top)
    # ``not`` flips 0 and 1 and takes any value, so a parity other than 0 or 1 reaches
    # random_coefficients in the even sector and raises its KeyError there
    return [parity] * top + [int(not parity)] * top


def random_supervector(
    n_max: int, rng, algebra=None, parity=None, support: int | None = None
) -> SuperVector:
    """Random vector with Grassmann coefficients free of theta, theta_bar.

    With ``parity`` 0 or 1, coefficients are chosen so the total envelope
    parity is that value.  ``support`` limits the nonzero slots to n < support.
    Both sectors are one draw, even sector first, slot after slot, each slot
    in ascending monomial order.
    """
    top = n_max if support is None else min(support, n_max)
    space = coefficient_algebra(algebra or default_algebra())
    coeffs = np.zeros((2, n_max, space.size), dtype=complex)
    rows = random_coefficients(space, rng, 2 * top, _row_parities(top, parity))
    coeffs[:, :top] = rows.reshape(2, top, space.size)
    return SuperVector.from_coeffs(space, coeffs.reshape(2 * n_max, space.size))
