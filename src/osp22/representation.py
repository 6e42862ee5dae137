"""Matrix realization of the osp(2/2) generators on the truncated superspace.

Operators are stored as sums of Grassmann monomials times complex matrices
over the slot basis (Psi_0^0 .. Psi_{N-1}^0, Psi_0^1 .. Psi_{N-1}^1).  The
eight basic generators have purely complex matrices; Grassmann content enters
only through scalar multiples such as alpha * V+.

Sign conventions (Koszul rule): a component with operator-block parity p
applied to a coefficient monomial of parity q picks up (-1)^{p q}, both in
operator application and in operator composition.  Together with the
order-preserving conjugation this reproduces the superadjoint table
K0+ = K0, K+- + = K-+, B+ = B, V+-+ = i W-+, W+-+ = i V-+ as exact matrix
identities.

Truncation: raising entries that would leave the basis are dropped, so
identity checks exclude the top two slots per sector ("interior modes").
"""

from __future__ import annotations

import numpy as np

from . import basis as _basis
from .grassmann import (
    EVEN,
    ODD,
    AlgebraMismatchError,
    GrassmannElement,
    default_algebra,
)
from .superspace import DimensionMismatchError, SuperVector

__all__ = [
    "GENERATOR_NAMES",
    "HERMITIAN_BASE",
    "COMMUTATOR_TABLE",
    "SuperOperator",
    "build_generator",
    "generator_parity",
    "interior_columns",
    "chi_ladder_matrix",
    "chi_slot_permutation",
    "ptheta_operator",
    "xtheta_operator",
    "operator_exp",
    "verify_structure",
    "vacuum_checks",
    "hamiltonian_check",
]

GENERATOR_NAMES = ("K0", "K+", "K-", "B", "V+", "V-", "W+", "W-")
HERMITIAN_BASE = ("X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8")

_ODD_NAMES = {"V+", "V-", "W+", "W-", "X5", "X6", "X7", "X8"}

_SCALARS = (int, float, complex, np.integer, np.floating, np.complexfloating)


def generator_parity(name: str) -> int:
    return 1 if name in _ODD_NAMES else 0


def _slot_parity(n_max: int) -> np.ndarray:
    return np.concatenate([np.zeros(n_max, dtype=int), np.ones(n_max, dtype=int)])


def interior_columns(n_max: int, drop: int = 2) -> np.ndarray:
    """Slot columns at least ``drop`` modes below the truncation, per sector."""
    keep = np.arange(max(n_max - drop, 0))
    return np.concatenate([keep, n_max + keep])


class SuperOperator:
    """(2 N_max) x (2 N_max) operator with Grassmann-monomial block decomposition."""

    __slots__ = ("algebra", "n_max", "blocks", "parity_bit", "name")

    def __init__(self, algebra, n_max: int, blocks: dict, parity, name: str = ""):
        if parity in (EVEN, ODD):
            parity = 1 if parity == ODD else 0
        if parity not in (0, 1):
            raise ValueError("parity must be 0/1 or 'even'/'odd'")
        size = 2 * n_max
        clean = {}
        for mask, mat in blocks.items():
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (size, size):
                raise DimensionMismatchError("block shape does not match truncation")
            if np.any(mat):
                clean[int(mask)] = mat
        self.algebra = algebra
        self.n_max = int(n_max)
        self.blocks = clean
        self.parity_bit = parity
        self.name = name

    # -- basic views -------------------------------------------------------------

    @property
    def size(self) -> int:
        return 2 * self.n_max

    @property
    def parity(self) -> str:
        return ODD if self.parity_bit else EVEN

    def block(self, mask: int = 0) -> np.ndarray:
        mat = self.blocks.get(mask)
        if mat is None:
            return np.zeros((self.size, self.size), dtype=complex)
        return mat

    @property
    def body(self) -> np.ndarray:
        return self.block(0)

    @classmethod
    def identity(cls, n_max: int, algebra=None) -> "SuperOperator":
        alg = algebra or default_algebra()
        return cls(alg, n_max, {0: np.eye(2 * n_max, dtype=complex)}, 0, name="I")

    @classmethod
    def zero(cls, n_max: int, algebra=None, parity=0) -> "SuperOperator":
        alg = algebra or default_algebra()
        return cls(alg, n_max, {}, parity, name="0")

    def _check(self, other):
        if not isinstance(other, SuperOperator):
            raise TypeError("expected a SuperOperator")
        if other.n_max != self.n_max:
            raise DimensionMismatchError("operator truncations differ")
        if not self.algebra.compatible(other.algebra):
            raise AlgebraMismatchError("operators over incompatible algebras")

    # -- linear structure ----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        if not self.blocks:
            return other
        if not other.blocks:
            return self
        if other.parity_bit != self.parity_bit:
            raise ValueError("cannot add operators of different parity")
        blocks = {m: mat.copy() for m, mat in self.blocks.items()}
        for m, mat in other.blocks.items():
            blocks[m] = blocks.get(m, 0) + mat
        return SuperOperator(self.algebra, self.n_max, blocks, self.parity_bit)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, beta):
        """Left multiplication by a complex number or homogeneous Grassmann scalar."""
        if isinstance(beta, _SCALARS):
            c = complex(beta)
            blocks = {m: c * mat for m, mat in self.blocks.items()}
            return SuperOperator(self.algebra, self.n_max, blocks, self.parity_bit)
        if isinstance(beta, GrassmannElement):
            pb = beta.parity_bit
            join = self.algebra.plan.join
            blocks: dict[int, np.ndarray] = {}
            for bm in np.flatnonzero(beta.coeffs).tolist():
                coeff = complex(beta.coeffs[bm])
                for am, mat in self.blocks.items():
                    step = join[bm][am]
                    if step is None:
                        continue
                    key, sign = step
                    blocks[key] = blocks.get(key, 0) + (sign * coeff) * mat
            return SuperOperator(
                self.algebra, self.n_max, blocks, self.parity_bit ^ pb
            )
        return NotImplemented

    def __mul__(self, scalar):
        if isinstance(scalar, _SCALARS):
            return self.__rmul__(scalar)
        return NotImplemented

    # -- composition and application --------------------------------------------------

    def __matmul__(self, other):
        self._check(other)
        plan = self.algebra.plan
        blocks: dict[int, np.ndarray] = {}
        for am, ma in self.blocks.items():
            p_ma = self.parity_bit ^ plan.parity[am]
            for cm, mc in other.blocks.items():
                step = plan.join[am][cm]
                if step is None:
                    continue
                key, sign = step
                if p_ma and plan.parity[cm]:
                    sign = -sign
                blocks[key] = blocks.get(key, 0) + sign * (ma @ mc)
        return SuperOperator(
            self.algebra, self.n_max, blocks, self.parity_bit ^ other.parity_bit
        )

    def apply(self, v: SuperVector) -> SuperVector:
        """One ``mat @ coeffs`` per block, Koszul-signed, scattered to columns am|v."""
        if v.n_max != self.n_max:
            raise DimensionMismatchError("vector truncation differs from operator")
        plan = v.algebra.plan
        out = np.zeros_like(v.coeffs)
        for am, mat in self.blocks.items():
            part = mat @ v.coeffs
            if self.parity_bit ^ plan.parity[am]:
                part = plan.grade(part)
            out += plan.left_mul(am, part)
        return SuperVector.from_coeffs(v.algebra, out)

    def supercommutator(self, other) -> "SuperOperator":
        """[A, C] = AC - (-1)^{p(A) p(C)} CA."""
        self._check(other)
        sign = -1.0 if (self.parity_bit and other.parity_bit) else 1.0
        return (self @ other) - sign * (other @ self)

    # -- superadjoint ------------------------------------------------------------------

    def superadjoint(self) -> "SuperOperator":
        """Adjoint with respect to the super-Hermitian form (odd sector weight i)."""
        p = _slot_parity(self.n_max)
        row = 1j**p
        blocks: dict[int, np.ndarray] = {}
        plan = self.algebra.plan
        for am, mat in self.blocks.items():
            p_ma = self.parity_bit ^ plan.parity[am]
            col = (-1j) ** p
            if p_ma:
                col = col * ((-1.0) ** p)
            adj = row[:, None] * mat.conj().T * col[None, :]
            mm, c = plan.conj_table[am]
            blocks[mm] = blocks.get(mm, 0) + c * adj
        return SuperOperator(
            self.algebra, self.n_max, blocks, self.parity_bit, name=f"({self.name})+"
        )

    # -- diagnostics -------------------------------------------------------------------

    def max_abs(self, columns=None) -> float:
        best = 0.0
        for mat in self.blocks.values():
            view = mat if columns is None else mat[:, columns]
            if view.size:
                best = max(best, float(np.abs(view).max()))
        return best

    def block_pattern_defect(self) -> float:
        """Largest entry violating the sector pattern implied by the parity."""
        p = _slot_parity(self.n_max)
        parity = self.algebra.plan.parity
        worst = 0.0
        for am, mat in self.blocks.items():
            p_ma = self.parity_bit ^ parity[am]
            bad = (p[:, None] ^ p[None, :]) != p_ma
            if np.any(bad):
                worst = max(worst, float(np.abs(mat[bad]).max(initial=0.0)))
        return worst

    def __repr__(self):
        label = self.name or "?"
        return (
            f"SuperOperator({label}, n_max={self.n_max}, parity={self.parity}, "
            f"monomials={len(self.blocks)})"
        )


# -- generator construction ----------------------------------------------------------


def build_generator(name: str, n_max: int, algebra=None) -> SuperOperator:
    """Matrix of a named generator at the given truncation.

    Accepts the eight basic names K0, K+, K-, B, V+, V-, W+, W-, the
    super-Hermitian combinations X1..X8, the Hamiltonian element "h"
    (= K+/2 + K-/2 + K0) and "I".
    """
    alg = algebra or default_algebra()
    if n_max < 2:
        raise ValueError("truncation must be at least 2")
    n = np.arange(n_max, dtype=float)
    size = 2 * n_max
    mat = np.zeros((size, size), dtype=complex)

    if name == "I":
        return SuperOperator.identity(n_max, alg)
    if name == "K0":
        np.fill_diagonal(mat[:n_max, :n_max], n + 0.25)
        np.fill_diagonal(mat[n_max:, n_max:], n + 0.75)
    elif name == "K+":
        for k in range(n_max - 1):
            mat[k + 1, k] = np.sqrt((k + 1) * (k + 0.5))
            mat[n_max + k + 1, n_max + k] = np.sqrt((k + 1) * (k + 1.5))
    elif name == "K-":
        for k in range(n_max - 1):
            mat[k, k + 1] = np.sqrt((k + 1) * (k + 0.5))
            mat[n_max + k, n_max + k + 1] = np.sqrt((k + 1) * (k + 1.5))
    elif name == "B":
        np.fill_diagonal(mat[:n_max, :n_max], -0.25)
        np.fill_diagonal(mat[n_max:, n_max:], 0.25)
    elif name == "V+":
        for k in range(n_max):
            mat[n_max + k, k] = np.sqrt(k + 0.5)
    elif name == "V-":
        for k in range(1, n_max):
            mat[n_max + k - 1, k] = np.sqrt(k)
    elif name == "W+":
        for k in range(n_max - 1):
            mat[k + 1, n_max + k] = np.sqrt(k + 1)
    elif name == "W-":
        for k in range(n_max):
            mat[k, n_max + k] = np.sqrt(k + 0.5)
    elif name in ("X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "h"):
        combos = {
            "X1": {"K0": 1.0},
            "X2": {"B": 1.0},
            "X3": {"K+": 1.0, "K-": 1.0},
            "X4": {"K+": 1j, "K-": -1j},
            "X5": {"V+": 1.0, "W-": -1j},
            "X6": {"V-": 1.0, "W+": -1j},
            "X7": {"W+": 1.0, "V-": -1j},
            "X8": {"W-": 1.0, "V+": -1j},
            "h": {"K+": 0.5, "K-": 0.5, "K0": 1.0},
        }
        acc = SuperOperator.zero(n_max, alg, parity=generator_parity(name))
        for base, coeff in combos[name].items():
            acc = acc + coeff * build_generator(base, n_max, alg)
        acc.name = name
        return acc
    else:
        raise ValueError(f"unknown generator {name!r}")

    return SuperOperator(alg, n_max, {0: mat}, generator_parity(name), name=name)


def chi_ladder_matrix(sign, size: int) -> np.ndarray:
    """a+- on the raw chi basis (chi_0 .. chi_{size-1})."""
    mat = np.zeros((size, size), dtype=complex)
    if _basis._ladder_plus(sign):
        for m in range(size - 1):
            mat[m + 1, m] = 0.5 * np.sqrt(m + 1)
    else:
        for m in range(1, size):
            mat[m - 1, m] = 0.5 * np.sqrt(m)
    return mat


def chi_slot_permutation(n_max: int) -> np.ndarray:
    """chi index for each slot: even slots hold chi_{2n}, odd slots chi_{2n+1}."""
    return np.concatenate([2 * np.arange(n_max), 2 * np.arange(n_max) + 1])


def ptheta_operator(n_max: int, algebra=None) -> SuperOperator:
    """p * theta = -(1/sqrt 2)(V+ + V-); odd operator."""
    alg = algebra or default_algebra()
    op = (-1.0 / np.sqrt(2.0)) * (
        build_generator("V+", n_max, alg) + build_generator("V-", n_max, alg)
    )
    op.name = "p_theta"
    return op


def xtheta_operator(n_max: int, t: float, algebra=None) -> SuperOperator:
    """x * theta = 2 t (p theta) + i sqrt(2) (V+ - V-); odd operator."""
    alg = algebra or default_algebra()
    op = (2.0 * t) * ptheta_operator(n_max, alg) + (1j * np.sqrt(2.0)) * (
        build_generator("V+", n_max, alg) - build_generator("V-", n_max, alg)
    )
    op.name = "x_theta"
    return op


def operator_exp(op: SuperOperator, tol: float = 1e-16, max_terms: int = 80) -> SuperOperator:
    """Matrix exponential by scaling and squaring with a Taylor core.

    The squaring count is chosen from the 1-norm of the body block; nilpotent
    blocks terminate their own series exactly.  The exponent must be
    envelope-even so the result has a well-defined (even) parity.
    """
    if op.parity_bit:
        raise ValueError("exponent must have even total parity")
    body = op.blocks.get(0)
    n1 = float(np.linalg.norm(body, 1)) if body is not None else 0.0
    s = max(0, int(np.ceil(np.log2(n1 / 0.5)))) if n1 > 0.5 else 0
    scaled = (0.5**s) * op
    acc = SuperOperator.identity(op.n_max, op.algebra)
    term = SuperOperator.identity(op.n_max, op.algebra)
    for k in range(1, max_terms + 1):
        term = (1.0 / k) * (term @ scaled)
        if not term.blocks:
            break
        acc = acc + term
        if term.max_abs() <= tol * max(1.0, acc.max_abs()):
            break
    else:
        raise RuntimeError("exponential series did not converge")
    for _ in range(s):
        acc = acc @ acc
    acc.name = f"exp({op.name})"
    return acc


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


def _combo(names_coeffs: dict, ops: dict) -> SuperOperator:
    items = iter(names_coeffs.items())
    name, coeff = next(items)
    acc = coeff * ops[name]
    for name, coeff in items:
        acc = acc + coeff * ops[name]
    return acc


def verify_structure(n_max: int = 32, algebra=None, n_triples: int = 20, seed: int = 7,
                     tol: float = 1e-12) -> dict:
    """Check every listed supercommutator, vanishing of unlisted pairs, and
    the graded Jacobi identity on random triples.

    Returns {"records": [{relation, max_defect, modes_checked, pass}, ...],
    "pass": bool}; defects are measured on interior columns only.
    """
    if n_max < 8:
        raise ValueError("structure verification needs n_max >= 8")
    alg = algebra or default_algebra()
    ops = {name: build_generator(name, n_max, alg) for name in GENERATOR_NAMES}
    cols_pair = interior_columns(n_max, 2)
    cols_triple = interior_columns(n_max, 3)
    records = []

    listed = set()
    for a, c, combo in COMMUTATOR_TABLE:
        listed.add((a, c))
        listed.add((c, a))
        got = ops[a].supercommutator(ops[c])
        defect = (got - _combo(combo, ops)).max_abs(columns=cols_pair)
        rhs = " + ".join(f"{v:g}*{k}" for k, v in combo.items())
        records.append(
            {
                "relation": f"[{a},{c}] = {rhs}",
                "max_defect": defect,
                "modes_checked": int(n_max - 2),
                "pass": defect < tol,
            }
        )

    for i, a in enumerate(GENERATOR_NAMES):
        for c in GENERATOR_NAMES[i:]:
            if (a, c) in listed:
                continue
            defect = ops[a].supercommutator(ops[c]).max_abs(columns=cols_pair)
            records.append(
                {
                    "relation": f"[{a},{c}] = 0",
                    "max_defect": defect,
                    "modes_checked": int(n_max - 2),
                    "pass": defect < tol,
                }
            )

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_triples):
        a, c, e = (ops[GENERATOR_NAMES[k]] for k in rng.integers(0, 8, size=3))
        sign = -1.0 if (a.parity_bit and c.parity_bit) else 1.0
        jac = (
            a.supercommutator(c.supercommutator(e))
            - a.supercommutator(c).supercommutator(e)
            - sign * c.supercommutator(a.supercommutator(e))
        )
        worst = max(worst, jac.max_abs(columns=cols_triple))
    records.append(
        {
            "relation": f"graded Jacobi identity ({n_triples} random triples)",
            "max_defect": worst,
            "modes_checked": int(n_max - 3),
            "pass": worst < tol,
        }
    )

    return {"n_max": n_max, "records": records, "pass": all(r["pass"] for r in records)}


def vacuum_checks(n_max: int = 8, algebra=None) -> dict:
    """Lowest-weight properties of Psi_0^0, including the atypicality markers."""
    alg = algebra or default_algebra()
    vac = SuperVector.basis_state(0, 0, n_max, alg)
    ops = {name: build_generator(name, n_max, alg) for name in GENERATOR_NAMES}

    records = []

    def eig(name, value):
        defect = (ops[name].apply(vac) - value * vac).max_abs()
        records.append(
            {"check": f"{name} vacuum eigenvalue {value}", "defect": defect,
             "exact": defect == 0.0, "pass": defect == 0.0}
        )

    def annihilates(name):
        defect = ops[name].apply(vac).max_abs()
        records.append(
            {"check": f"{name} annihilates the vacuum", "defect": defect,
             "exact": defect == 0.0, "pass": defect == 0.0}
        )

    eig("K0", 0.25)
    eig("B", -0.25)
    for name in ("K-", "V-", "W+", "W-"):
        annihilates(name)

    # atypicality: the only raising annihilator is W+; V+ and K+ act nontrivially
    vplus = ops["V+"].apply(vac).norm()
    records.append(
        {"check": "V+ vacuum image has norm 1/sqrt(2)", "defect": abs(vplus - 2**-0.5),
         "exact": False, "pass": abs(vplus - 2**-0.5) < 1e-14}
    )
    kplus = ops["K+"].apply(vac).norm()
    records.append(
        {"check": "K+ vacuum image has norm sqrt(1/2)", "defect": abs(kplus - np.sqrt(0.5)),
         "exact": False, "pass": abs(kplus - np.sqrt(0.5)) < 1e-14}
    )

    return {"n_max": n_max, "records": records, "pass": all(r["pass"] for r in records)}


def hamiltonian_check(n_max: int = 32, algebra=None, tol_matrix: float = 1e-12,
                      tol_quad: float = 1e-8, spec=None) -> dict:
    """The Hamiltonian element h = K+/2 + K-/2 + K0 checked three ways.

    (a) against the squared ladder sum (a+ + a-)^2 assembled on the raw chi
    basis and reordered into slots; (b) matrix elements against quadrature of
    -conj(chi_k) chi_m''; (c) pointwise reconstruction of h chi_m against the
    analytic -chi_m''.
    """
    alg = algebra or default_algebra()
    h = build_generator("h", n_max, alg)

    size = 2 * n_max
    ap = chi_ladder_matrix("+", size)
    am = chi_ladder_matrix("-", size)
    ladder_sum = ap + am
    h_chi = ladder_sum @ ladder_sum
    perm = chi_slot_permutation(n_max)
    route_defect = float(
        np.abs((h.body - h_chi[np.ix_(perm, perm)])[:, interior_columns(n_max, 2)]).max()
    )

    records = [
        {"check": "h = (a+ + a-)^2 on interior modes", "defect": route_defect,
         "pass": route_defect < tol_matrix},
        {"check": "h preserves the sector block pattern", "defect": h.block_pattern_defect(),
         "pass": h.block_pattern_defect() == 0.0},
    ]

    spec = spec or _basis.QuadratureSpec()
    worst_quad = 0.0
    for t in (0.0, 1.0):
        x, w = _basis.quad_grid(t, spec)
        vals = _basis.chi_matrix(range(7), x, t)
        neg_d2 = np.array(
            [-_basis.eval_chi_derivatives(m, x, t)[2] for m in range(7)]
        )
        quad_elements = (vals.conj() * w) @ neg_d2.T
        worst_quad = max(worst_quad, float(np.abs(quad_elements - h_chi[:7, :7]).max()))
    records.append(
        {"check": "quadrature of -chi_k* chi_m'' matches the matrix elements (m,k<=6)",
         "defect": worst_quad, "pass": worst_quad < tol_quad}
    )

    grid = np.linspace(-3.0, 3.0, 7)
    worst_point = 0.0
    for t in (0.0, 0.7):
        vals = _basis.chi_matrix(range(9), grid, t)
        for m in range(7):
            recon = h_chi[:9, m] @ vals
            direct = -_basis.eval_chi_derivatives(m, grid, t)[2]
            worst_point = max(worst_point, float(np.abs(recon - direct).max()))
    records.append(
        {"check": "pointwise h chi_m = -chi_m'' (m<=6)", "defect": worst_point,
         "pass": worst_point < tol_quad}
    )

    # vacuum expectation of h, an oracle-frozen value
    t = 0.0
    f = _basis.chi_evaluator(0, t)
    g = lambda x: -_basis.eval_chi_derivatives(0, x, t)[2]
    vac_h = _basis.quad_inner(f, g, t, spec)
    records.append(
        {"check": "<chi_0| h |chi_0> = 1/4", "defect": abs(vac_h - 0.25),
         "pass": abs(vac_h - 0.25) < tol_quad}
    )

    return {"n_max": n_max, "records": records, "pass": all(r["pass"] for r in records)}
