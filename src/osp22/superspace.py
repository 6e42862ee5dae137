"""Truncated Hilbert superspace over the even/odd solution sectors.

Vectors carry exterior-algebra coefficients over the basis
Psi_n^0 = psi_n (even sector) and Psi_n^1 = theta * phi_n (odd sector); the
structural generators theta, theta_bar never appear inside coefficients.

A vector stores all its coefficients as one complex array ``coeffs`` of
shape (2 n_max, 2^g): row n is the coefficient of Psi_n^0, row n_max + n
that of Psi_n^1, and each row is a Grassmann coefficient array in the
algebra's mask order.  Linear structure is array arithmetic, and Grassmann
products go through the algebra's product plan, one batched call per
operation; ``even`` and ``odd`` expose the rows as elements.

The super-Hermitian form restricts to the ordinary L2 product on the even
sector and to i times it on the odd sector, and Grassmann scalars move
through it by the rule

    (beta1 Phi1 | beta2 Phi2)
        = (-1)^{p(Phi1) p(beta2)} conj(beta1) beta2 (Phi1 | Phi2).

`super_inner` is the fast route built on basis orthonormality: one
conj(A)^T B product of coefficient arrays, contracted through the plan.
`super_inner_integral` is the independent oracle that assembles the full
integrand conj(Phi1) (Phi2 * i exp(-i theta_bar theta)) for every slot pair,
Berezin-integrates the pair (theta, theta_bar) and quadrature-integrates x.
"""

from __future__ import annotations

import numpy as np

from . import basis as _basis
from .grassmann import (
    EVEN,
    MIXED,
    ODD,
    AlgebraMismatchError,
    GrassmannElement,
    default_algebra,
    random_coefficients,
)

__all__ = [
    "DimensionMismatchError",
    "SuperVector",
    "coefficient_columns",
    "random_coefficient",
    "super_inner_integral",
    "superadjoint_defect",
    "random_supervector",
]

_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)
STRUCTURAL = ("theta", "theta_bar")


class DimensionMismatchError(ValueError):
    """Vectors or operators with different truncations were combined."""


_COEFFICIENT_COLUMNS: dict[tuple, np.ndarray] = {}


def coefficient_columns(algebra) -> np.ndarray:
    """Ascending masks a slot coefficient may use: the monomials free of theta, theta_bar.

    Every other column of ``SuperVector.coeffs`` is zero.
    """
    cols = _COEFFICIENT_COLUMNS.get(algebra.generators)
    if cols is None:
        cols = algebra.monomials(free_of=STRUCTURAL)
        cols.flags.writeable = False
        _COEFFICIENT_COLUMNS[algebra.generators] = cols
    return cols


def _flip(p: str) -> str:
    return ODD if p == EVEN else EVEN


class SuperVector:
    """Truncated expansion sum_n c_n Psi_n^0 + sum_n d_n Psi_n^1."""

    __slots__ = ("algebra", "coeffs", "_rows")

    def __init__(self, algebra, even, odd):
        even = tuple(even)
        odd = tuple(odd)
        if len(even) != len(odd):
            raise DimensionMismatchError("even and odd slot counts must match")
        if not even:
            raise DimensionMismatchError("truncation must be at least 1")
        coeffs = np.zeros((2 * len(even), algebra.size), dtype=complex)
        body = algebra.plan.body(coeffs)
        for row, c in enumerate(even + odd):
            if isinstance(c, GrassmannElement):
                if not algebra.compatible(c.algebra):
                    raise AlgebraMismatchError("coefficient from an incompatible algebra")
                coeffs[row] = c.coeffs
            elif isinstance(c, _SCALARS):
                body[row] = complex(c)
            else:
                raise TypeError(f"cannot use {type(c).__name__} as a coefficient")
        self._set(algebra, coeffs)

    def _set(self, algebra, coeffs):
        if np.any(coeffs[:, algebra.involves(STRUCTURAL)]):
            raise ValueError("coefficients must not contain theta or theta_bar")
        self.algebra = algebra
        self.coeffs = coeffs
        self._rows = None

    @classmethod
    def from_coeffs(cls, algebra, coeffs) -> "SuperVector":
        """Vector over a (2 n_max, 2^g) coefficient array, even slots first."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 2 or coeffs.shape[0] % 2 or not coeffs.shape[0]:
            raise DimensionMismatchError("expected an array of shape (2 n_max, 2^g)")
        if coeffs.shape[1] != algebra.size:
            raise AlgebraMismatchError("coefficient rows do not match the algebra")
        vec = cls.__new__(cls)
        vec._set(algebra, coeffs)
        return vec

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n_max: int, algebra=None) -> "SuperVector":
        alg = algebra or default_algebra()
        return cls.from_coeffs(alg, np.zeros((2 * n_max, alg.size), dtype=complex))

    @classmethod
    def basis_state(cls, sector: int, n: int, n_max: int, algebra=None) -> "SuperVector":
        """Psi_n^sector as a unit vector."""
        alg = algebra or default_algebra()
        if sector not in (0, 1):
            raise ValueError("sector must be 0 or 1")
        if not 0 <= n < n_max:
            raise ValueError("slot index outside the truncation")
        coeffs = np.zeros((2 * n_max, alg.size), dtype=complex)
        coeffs[sector * n_max + n] = alg.one().coeffs
        return cls.from_coeffs(alg, coeffs)

    @property
    def n_max(self) -> int:
        return self.coeffs.shape[0] // 2

    def _elements(self) -> tuple:
        if self._rows is None:
            self._rows = tuple(GrassmannElement(self.algebra, row) for row in self.coeffs)
        return self._rows

    @property
    def even(self) -> tuple:
        """Coefficients c_n of the even sector, as elements."""
        return self._elements()[: self.n_max]

    @property
    def odd(self) -> tuple:
        """Coefficients d_n of the odd sector, as elements."""
        return self._elements()[self.n_max :]

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
        """Left multiplication by a complex number or Grassmann scalar."""
        if isinstance(beta, _SCALARS):
            beta = self.algebra.scalar(complex(beta))
        if not isinstance(beta, GrassmannElement):
            return NotImplemented
        if not self.algebra.compatible(beta.algebra):
            raise AlgebraMismatchError("scalar from an incompatible algebra")
        return SuperVector.from_coeffs(
            self.algebra, self.algebra.plan.mul(beta.coeffs, self.coeffs)
        )

    def __mul__(self, scalar):
        if isinstance(scalar, _SCALARS):
            return self.__rmul__(scalar)
        return NotImplemented

    # -- grading ----------------------------------------------------------------

    @property
    def total_parity(self) -> str:
        """Envelope parity: coefficient parity plus slot parity, or "mixed"."""
        nz = self.coeffs != 0
        odd = self.algebra.plan.parity_sign < 0
        has_odd = np.any(nz & odd, axis=1)
        has_even = np.any(nz & ~odd, axis=1)
        if np.any(has_odd & has_even):
            return MIXED
        n = self.n_max
        # an odd slot flips the envelope parity of its coefficient
        env_odd = bool(has_odd[:n].any() or has_even[n:].any())
        env_even = bool(has_even[:n].any() or has_odd[n:].any())
        if env_odd and env_even:
            return MIXED
        return ODD if env_odd else EVEN

    # -- super-Hermitian form ----------------------------------------------------

    def super_inner(self, other) -> GrassmannElement:
        """(self | other) via sector orthonormality; odd sector weighted by i.

        sum_n conj(c1_n) c2_n + i sum_n conj(d1_n) d2_n^grade, taken as one
        product conj(A)^T B' and one plan contraction, where B' carries the
        odd-sector weight i and the grade involution.
        """
        self._check(other)
        alg = self.algebra
        n = self.n_max
        ket = other.coeffs.copy()
        ket[n:] = 1j * alg.plan.grade(ket[n:])
        gram = alg.plan.conj(self.coeffs).T @ ket
        return GrassmannElement(alg, alg.plan.contract(gram))

    def norm(self) -> float:
        """Body-level norm sqrt(sum |c_n|^2 + sum |d_n|^2); nilpotents do not enter."""
        body = self.algebra.plan.body(self.coeffs)
        return float(np.sqrt(np.sum(np.hypot(body.real, body.imag) ** 2)))

    def max_abs(self) -> float:
        return float(np.hypot(self.coeffs.real, self.coeffs.imag).max())

    def __repr__(self):
        nz = int(np.count_nonzero(self.coeffs.any(axis=1)))
        return f"SuperVector(n_max={self.n_max}, nonzero_slots={nz})"


def super_inner_integral(v1: SuperVector, v2: SuperVector, t: float = 0.0, spec=None):
    """Direct-integral oracle for the super-Hermitian form.

    Builds conj(Phi1) (Phi2 * i exp(-i theta_bar theta)) in the exterior
    algebra (expanding the exponential as 1 - i theta_bar theta) for every
    slot pair in one batched product, Berezin-integrates over
    (theta, theta_bar), and pairs the x-dependence through quadrature Gram
    matrix entries of the underlying basis functions.
    """
    v1._check(v2)
    alg = v1.algebra
    plan = alg.plan
    n = v1.n_max
    chi_order = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    spec = spec or _basis.QuadratureSpec()
    x, w = _basis.quad_grid(t, spec)
    vals = _basis.chi_matrix(chi_order, x, t)
    gram = (vals.conj() * w) @ vals.T

    theta = alg.gen("theta")
    weight = 1j * (alg.one() - 1j * (alg.gen("theta_bar") * theta))

    def with_theta(vec):
        """Slot coefficients times their theta: c_n for Psi_n^0, d_n theta for Psi_n^1."""
        rows = vec.coeffs.copy()
        rows[n:] = plan.mul(rows[n:], theta.coeffs)
        return rows

    bra = plan.conj(with_theta(v1))
    ket = plan.mul(with_theta(v2), weight.coeffs)
    integrand = plan.mul(bra[:, None, :], ket[None, :, :])
    terms = alg.berezin_coeffs(integrand, STRUCTURAL)
    return GrassmannElement(alg, np.einsum("ij,ijm->m", gram, terms))


def superadjoint_defect(op, claimed_adjoint, v1: SuperVector, v2: SuperVector):
    """(A+_claimed v1 | v2) - (-1)^{p(v1) p(A)} (v1 | A v2); zero certifies the claim."""
    p1 = v1.total_parity
    if p1 == MIXED:
        raise ValueError("first vector must be homogeneous")
    sign = -1.0 if (p1 == ODD and op.parity_bit) else 1.0
    lhs = claimed_adjoint.apply(v1).super_inner(v2)
    rhs = v1.super_inner(op.apply(v2))
    return lhs - sign * rhs


def random_coefficient(algebra, rng, parity=None) -> GrassmannElement:
    """Random theta-free coefficient: iid complex normals on the allowed monomials."""
    return GrassmannElement(
        algebra, random_coefficients(algebra, rng, 1, parity, free_of=STRUCTURAL)[0]
    )


def random_supervector(
    n_max: int, rng, algebra=None, parity=None, support: int | None = None
) -> SuperVector:
    """Random vector with Grassmann coefficients free of theta, theta_bar.

    With ``parity`` set, coefficients are chosen so the total envelope parity
    is homogeneous.  ``support`` limits the nonzero slots to n < support.
    Each sector is one draw, slot after slot, in ascending monomial order.
    """
    alg = algebra or default_algebra()
    top = n_max if support is None else min(support, n_max)
    coeffs = np.zeros((2 * n_max, alg.size), dtype=complex)
    for sector in (0, 1):
        want = None
        if parity is not None:
            want = parity if sector == 0 else _flip(parity)
        rows = slice(sector * n_max, sector * n_max + top)
        coeffs[rows] = random_coefficients(alg, rng, top, want, free_of=STRUCTURAL)
    return SuperVector.from_coeffs(alg, coeffs)
