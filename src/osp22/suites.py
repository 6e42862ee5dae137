"""Verification suites aggregating every module invariant into check records.

Each check is a dict {id, description, defect, tolerance, pass}; a suite
report collects them with a config echo.  All randomness is seeded from the
config, so reports are deterministic given (config, build).

This module is the one place a check is judged.  ``CHECKS`` declares every
check once, in report order: its id, its gate and its description.  A gate
is either a ``DEFAULT_TOLERANCES`` key, read through ``RunConfig.tol``, or a
literal tolerance that no config key reaches; both kinds are listed there.
The suites hand all of a check's defects to ``_check``, which takes their
maximum once, keeping a NaN, and judges it against the table.
Library modules report named defects, such as
``representation.structure_defects``, and carry no verdicts of their own.
The acceptance tests assert on the records made here, and the ``symbols``
and ``trajectory`` commands only format the rows of ``symbol_rows`` and
``trajectory_rows``; the ``symbols`` verdict is the ``symbols_check`` record.
"""

from __future__ import annotations

import math
import time

import numpy as np
from numpy.polynomial.hermite_e import hermeval

from . import basis as _basis
from . import coherent as _coh
from . import representation as _rep
from . import superspace as _ss
from .config import TOP_QUADRATURE_MODE, RunConfig
from .grassmann import (
    GENERATORS_EXTENDED,
    GrassmannAlgebra,
    _abs,
    default_algebra,
    random_coefficients,
)

__all__ = ["CHECKS", "SUITE_NAMES", "run_suite", "suite_checks", "symbol_rows", "symbols_check", "trajectory_rows"]

SUITE_NAMES = ("grassmann", "basis", "superspace", "algebra", "coherent")

# id -> (gate, description), in report order.  A str gate names a tolerance
# in DEFAULT_TOLERANCES; a float gate is a fixed literal.
CHECKS = {
    "grassmann.associativity": ("grassmann", "(ab)c = a(bc), 250 random triples, relative to the sign-free product"),
    "grassmann.supercommutativity": ("grassmann", "ab = (-1)^{pq} ba on homogeneous pairs, relative"),
    "grassmann.conjugation": ("grassmann", "conj(ab) = conj(a) conj(b) and conj is an involution"),
    "grassmann.berezin": (
        "grassmann",
        "pair normalization, linearity, and vanishing without the integrated generator",
    ),
    "grassmann.nilpotency": ("grassmann", "theta^2 = 0 and anticommutation"),
    "grassmann.parity": ("grassmann", "p(ab) = p(a) + p(b) mod 2"),
    "basis.orthonormality": ("quadrature", "<chi_m|chi_n> = delta_mn for m,n <= 20, t in {0, 0.5, 2}"),
    "basis.ladder": ("quadrature", "quadrature matrix elements reproduce the frozen ladder coefficients"),
    "basis.sector_weights": (
        "quadrature",
        "a+a- + a-a+ is diagonal with eigenvalue m/2 + 1/4 (weights 1/4 and 3/4)",
    ),
    "basis.residual": ("residual", "equation residual < tol on the 5x5 grid for m <= 20"),
    "basis.hermite": (
        1e-12,
        "the chi recurrence He_n/sqrt(n!) against numpy hermeval, relative to the sign-free recurrence",
    ),
    "basis.derivatives": (1e-7, "analytic x-derivatives against 4th-order finite differences"),
    "basis.symmetry_span": (1e-8, "dilation operator leaks nothing outside modes {1,3,5}"),
    "basis.negative_control": (
        1.0,
        "non-solution exp(-x^2) fails the residual gate (defect = gate/residual)",
    ),
    "superspace.examples": ("algebra", "unit, odd-weight i, scalar rule, and norm examples"),
    "superspace.integral_oracle": (
        "quadrature",
        "direct Berezin+quadrature integral matches the fast form on 100 random pairs",
    ),
    "superspace.conjugate_symmetry": ("algebra", "conj(Phi1|Phi2) = (-1)^{pq} (Phi2|Phi1)"),
    "superspace.scalar_rule": (
        "algebra",
        "(b1 Phi1 | b2 Phi2) = (-1)^{p(Phi1) p(b2)} conj(b1) b2 (Phi1|Phi2)",
    ),
    "superspace.sector_orthogonality": ("algebra", "even and odd sectors are orthogonal"),
    "superspace.superadjoint": ("algebra", "claimed adjoints satisfy the defining identity"),
    "superspace.negative_control": (
        1.0,
        "claiming K+ as its own adjoint fails (defect = tol/defect_found)",
    ),
    "algebra.commutator_table": ("algebra", "all listed supercommutator relations on interior modes, relative"),
    "algebra.unlisted_pairs": ("algebra", "every unlisted generator pair supercommutes, relative"),
    "algebra.jacobi": ("algebra", "graded Jacobi identity on 20 random triples, relative"),
    "algebra.vacuum": ("algebra", "lowest-weight eigenvalues and annihilators, exact"),
    "algebra.atypicality": ("algebra", "V+ moves the vacuum (norm exactly 1/sqrt 2)"),
    "algebra.superadjoint_table": ("algebra", "adjoint table and involution"),
    "algebra.adjoint_product": ("algebra", "(AC)+ = (-1)^{pq} C+ A+ on random pairs"),
    "algebra.adjoint_commutator": ("algebra", "[A,C]+ = -[A+, C+] on random pairs"),
    "algebra.hermitian_base": ("algebra", "X_j+ = (-1)^{p(X_j)} X_j for the eight combinations"),
    "algebra.parity_bookkeeping": ("algebra", "p([A,C]) = p(A)+p(C) and sector block patterns"),
    "algebra.hamiltonian_matrix": (
        "algebra",
        "h = K+/2 + K-/2 + K0 equals the squared ladder sum on interior modes, relative",
    ),
    "algebra.hamiltonian_blocks": ("algebra", "the Hamiltonian element preserves the sector block pattern"),
    "algebra.hamiltonian_quadrature": (1e-8, "matrix elements and pointwise action match -d2/dx2 for m <= 6"),
    "algebra.hamiltonian_vacuum": ("quadrature", "<chi_0| h |chi_0> = 1/4 by quadrature"),
    "coherent.three_routes": ("coherent", "closed form / raising series / gamma expansion agree"),
    "coherent.unit_super_norm": (1e-12, "(Psi|Psi) = 1 exactly (nilpotent cancellation)"),
    "coherent.residual": ("residual", "both wave-function components solve the equation"),
    "coherent.unit_l2_norm": ("quadrature", "<psi_z|psi_z> = 1 by quadrature"),
    "coherent.phi_norm": ("quadrature", "|phi_z|^2 integrates to 1/(4 (1 - |z|^2))"),
    "coherent.closed_norm_identity": (1e-11, "closed-form normalizer cancels the odd-sector nilpotent exactly"),
    "coherent.calibration": (1.0, "symbol convention calibrates to a single flag ({flag})"),
    "coherent.symbols": (
        "coherent",
        "all eight generator symbols match the closed forms under the calibrated flag",
    ),
    "coherent.trajectory_momentum": (1e-10, "odd-sector momentum is constant and equals p0 conj(alpha)"),
    "coherent.trajectory_line": (
        1e-9,
        "odd-sector position is affine in t with slope 2 p0 and intercept x0",
    ),
    "coherent.even_sector_rest": (1e-10, "<x> = <p> = 0 on both components by quadrature"),
    "coherent.superisometry": ("isometry", "displacement preserves the super-Hermitian form"),
    "coherent.displacement_vacuum": (
        "isometry",
        "displaced vacuum matches the series state at the tanh disk coordinate",
    ),
    "coherent.expansion_values": (1e-12, "leading gamma-expansion coefficients and ratios"),
}


def _check(cfg: RunConfig, cid: str, defects, **fmt) -> dict:
    """The record of check ``cid`` over its iterable of ``defects``.

    The defect is their maximum, taken once by numpy, so a NaN among them
    makes the defect NaN and fails the check; an empty iterable reads 0.0.
    ``fmt`` fills a templated description; without it the description is
    taken as written, so braces such as ``{1,3,5}`` stay literal.
    """
    gate, description = CHECKS[cid]
    tolerance = cfg.tol(gate) if isinstance(gate, str) else gate
    defect = float(np.max(np.fromiter(defects, dtype=float), initial=0.0))
    return {
        "id": cid,
        "description": description.format(**fmt) if fmt else description,
        "defect": defect,
        "tolerance": float(tolerance),
        "pass": bool(defect < tolerance),
    }


# -- grassmann ------------------------------------------------------------------


# rows per batched plan call in the grassmann suite, and rounds per block in the superspace
# suite.  The terms of a 16-row g = 6 product take about 0.2 MiB.  A block of 16 superspace
# rounds holds 16 pairs of 12-slot vectors, whose oracle multiplies in the 4-generator
# integrand algebra, about 0.25 MiB of terms; one block of all 100 rounds raised the peak
# RSS of a whole ``verify all`` pass by about 5 MiB.
BATCH_ROWS = 16


def _alternating_draws(rng, algebras, rounds: int, count: int) -> list:
    """Per algebra, ``count`` coefficient arrays (rounds / len(algebras), 2^g): the elements of
    ``rounds`` rounds that cycle through ``algebras`` and draw ``count`` random elements each.
    One draw, split by round, consumes the stream as that loop of random_element calls does."""
    sizes = [2 * count * alg.size for alg in algebras]
    draws = rng.standard_normal(rounds * sum(sizes) // len(algebras)).reshape(rounds // len(algebras), -1)
    blocks = np.split(draws, np.cumsum(sizes)[:-1], axis=1)
    return [
        np.moveaxis((b / np.sqrt(2.0)).view(complex).reshape(len(b), count, alg.size), 1, 0)
        for alg, b in zip(algebras, blocks)
    ]


def _parity_draw(rng) -> int:
    """One sampled parity, 0 (even) or 1 (odd): a draw of 1 is even."""
    return 1 - int(rng.integers(2))


def _homogeneous_pairs(rng, algebras, rounds: int) -> list:
    """Per algebra, arrays (a, b, parity a, parity b) over ``rounds`` rounds cycling through
    ``algebras``; each round draws two parities, then an element of each parity in one call,
    the stream of one random_element call per element."""
    drawn = [[] for _ in algebras]
    for k in range(rounds):
        alg = algebras[k % len(algebras)]
        pa, pb = (_parity_draw(rng) for _ in range(2))
        a, b = random_coefficients(alg, rng, 2, [pa, pb])
        drawn[k % len(algebras)].append((a, b, pa, pb))
    return [_columns(rows) for rows in drawn]


def _columns(rounds) -> tuple:
    """One array per field of the equal-length tuples ``rounds``, rounds along its first axis."""
    return tuple(np.array(column) for column in zip(*rounds))


def _in_blocks(*rows):
    """The aligned arrays ``rows``, cut into blocks of at most BATCH_ROWS rows."""
    for start in range(0, len(rows[0]), BATCH_ROWS):
        yield tuple(r[start : start + BATCH_ROWS] for r in rows)


def _row_max_abs(x) -> np.ndarray:
    """GrassmannElement.max_abs of each row."""
    return _abs(x).max(axis=-1)


def suite_grassmann(cfg: RunConfig) -> list:
    """Each check multiplies its samples in blocks of rows, one plan call per block."""
    rng = np.random.default_rng(cfg.seed)
    algebras = (default_algebra(), GrassmannAlgebra(GENERATORS_EXTENDED))
    checks = []

    defects = []
    for alg, draws in zip(algebras, _alternating_draws(rng, algebras, 250, 3)):
        mul, bound = alg.plan.mul, alg.plan.sign_free_mul
        for a, b, c in _in_blocks(*draws):
            scale = bound(bound(a, b), c).max(axis=-1)
            defects.append(_row_max_abs(mul(mul(a, b), c) - mul(a, mul(b, c))) / scale)
    checks.append(_check(cfg, "grassmann.associativity", np.concatenate(defects)))

    # grouped by (parity a, parity b), each group multiplies through its sector's pairs, which
    # is ``mul`` bit for bit on homogeneous rows; the record is a maximum, so the order is free
    defects = []
    for alg, (a, b, odd_a, odd_b) in zip(algebras, _homogeneous_pairs(rng, algebras, 250)):
        for pa, pb in ((0, 0), (0, 1), (1, 0), (1, 1)):
            sign = -1.0 if pa and pb else 1.0
            group = (odd_a == pa) & (odd_b == pb)
            for x, y in _in_blocks(a[group], b[group]):
                diff = alg.plan.sector_mul(x, y, pa, pb) - sign * alg.plan.sector_mul(y, x, pb, pa)
                defects.append(_row_max_abs(diff) / (_row_max_abs(x) * _row_max_abs(y)))
    checks.append(_check(cfg, "grassmann.supercommutativity", np.concatenate(defects)))

    defects = []
    for alg, draws in zip(algebras, _alternating_draws(rng, algebras, 250, 2)):
        plan = alg.plan
        for a, b in _in_blocks(*draws):
            defects.append(_row_max_abs(plan.conj(plan.mul(a, b)) - plan.mul(plan.conj(a), plan.conj(b))))
            defects.append(_row_max_abs(plan.conj(plan.conj(a)) - a))
    checks.append(_check(cfg, "grassmann.conjugation", np.concatenate(defects)))

    alg = default_algebra()
    th, tb = alg.gen("theta"), alg.gen("theta_bar")
    al, ab = alg.gen("alpha"), alg.gen("alpha_bar")
    xt, xtb = algebras[1].gen("theta"), algebras[1].gen("theta_bar")
    over = ("theta", "theta_bar")
    defects = [
        [
            ((tb * th).berezin(over) - 1.0).max_abs(),
            alg.one().berezin(over).max_abs(),
            ((ab * al).berezin(("alpha", "alpha_bar")) - 1.0).max_abs(),
            ((xtb * xt).berezin(over) - 1.0).max_abs(),
        ]
    ]
    for ak, draws in zip(algebras, _alternating_draws(rng, algebras, 250, 2)):
        with_theta = (np.arange(ak.size) & (1 << ak.index["theta"])) != 0
        for a, b in _in_blocks(*draws):
            lin = ak.berezin_coeffs(a + 2.5 * b, over) - (
                ak.berezin_coeffs(a, over) + 2.5 * ak.berezin_coeffs(b, over)
            )
            defects.append(_row_max_abs(lin))
            # anything missing an integrated generator integrates to zero
            defects.append(_row_max_abs(ak.berezin_coeffs(np.where(with_theta, 0j, a), ("theta",))))
    checks.append(_check(cfg, "grassmann.berezin", np.concatenate(defects)))

    checks.append(_check(cfg, "grassmann.nilpotency", [(th * th).max_abs(), (tb * th + th * tb).max_abs()]))

    defects = []
    (pairs,) = _homogeneous_pairs(rng, (alg,), 100)
    for a, b, odd_a, odd_b in _in_blocks(*pairs):
        prod = alg.plan.mul(a, b)
        has_even, has_odd = alg.plan.parity_content(prod)
        # a nonzero product fails when it holds a monomial of the wrong parity, and one that
        # holds a NaN reads NaN; only a zero product is skipped
        wrong = np.where(odd_a == odd_b, has_odd, has_even)
        size = _row_max_abs(prod)
        defects.append(np.where(np.isnan(size), size, wrong)[size != 0])
    checks.append(_check(cfg, "grassmann.parity", np.concatenate(defects)))
    return checks


# -- basis ----------------------------------------------------------------------


def suite_basis(cfg: RunConfig) -> list:
    """The ladder and sector-weight checks evaluate all modes of one t and grid in one call."""
    spec = _basis.QuadratureSpec(nodes=cfg.nodes)
    top = TOP_QUADRATURE_MODE  # the ladder raises mode top - 1 onto it
    checks = []

    defects = (np.abs(_basis.gram_matrix(range(top), t, spec) - np.eye(top)).max() for t in (0.0, 0.5, 2.0))
    checks.append(_check(cfg, "basis.orthonormality", defects))

    # one grid and one bra block per t; the kets stay pointwise, the independent route, each
    # evaluated for all modes at once and never read from the bras
    grids = {t: _basis.quad_grid(t, spec) for t in (0.0, 1.0)}
    bras = {t: _basis.chi_matrix(range(top + 1), x, t) for t, (x, _) in grids.items()}
    modes = np.arange(top)

    def overlaps(w, bra, ket):
        """Quadrature <bra_m | ket_m> of each row pair."""
        return np.sum(w * np.conjugate(bra) * ket, axis=-1)

    defects = []
    for t, (x, w) in grids.items():
        up = _basis.ladder_pointwise("+", modes, x, t)
        down = _basis.ladder_pointwise("-", modes, x, t)
        defects.append(_abs(overlaps(w, bras[t][1:], up) - _basis.ladder_coefficient("+", modes)))
        defects.append(_abs(overlaps(w, bras[t][: top - 1], down[1:]) - _basis.ladder_coefficient("-", modes[1:])))
        # a- annihilates chi_0
        defects.append([abs(complex(overlaps(w, down[0], down[0]))) ** 0.5])
    checks.append(_check(cfg, "basis.ladder", np.concatenate(defects)))

    defects = []
    grid = np.linspace(-4.0, 4.0, 9)
    weights = 0.5 * modes + 0.25
    for t, (x, w) in grids.items():
        sym = _basis.symmetric_ladder_pointwise(modes, x, t)
        defects.append(_abs(overlaps(w, bras[t][:top], sym) - weights))
        point = _basis.symmetric_ladder_pointwise(modes, grid, t)
        defects.append(np.abs(point - weights[:, None] * _basis.chi_matrix(modes, grid, t)).max(axis=-1))
    checks.append(_check(cfg, "basis.sector_weights", np.concatenate(defects)))

    xs, ts = np.meshgrid(np.linspace(-4.0, 4.0, 5), np.linspace(-2.0, 2.0, 5))
    defects = (
        _basis.schrodinger_residual(lambda x, t, m=m: _basis.eval_chi(m, x, t), xs, ts)
        for m in range(21)
    )
    checks.append(_check(cfg, "basis.residual", defects))

    def hermite(n, z, want):
        """|row n of the recurrence at z - want / sqrt(n!)|, relative to the sign-free
        recurrence over sqrt(n!), which is 0 only where He_n(0) = 0 exactly for odd n."""
        norm = math.sqrt(math.factorial(n))
        diff = abs(_basis._hermite_rows(z, n + 1)[n] - want / norm)
        return diff * norm / _basis.hermite_he_scale(n, z) if diff else 0.0

    rng = np.random.default_rng(cfg.seed + 1)
    defects = [hermite(2, 0.0, -1.0), hermite(3, 2.0, 2.0), hermite(0, 5.0, 1.0)]
    for _ in range(50):
        n = int(rng.integers(0, 26))
        z = float(rng.uniform(-5, 5))
        defects.append(hermite(n, z, float(hermeval(z, [0.0] * n + [1.0]))))
    checks.append(_check(cfg, "basis.hermite", defects))

    defects = []
    rng = np.random.default_rng(cfg.seed + 2)
    for _ in range(30):
        m = int(rng.integers(0, 11))
        x = float(rng.uniform(-5, 5))
        t = float(rng.uniform(-2, 2))
        v, a1, a2 = _basis.eval_chi_derivatives(m, x, t)
        h = 1e-3
        # the stencil's five points, each evaluated once
        fm2, fm1, f0, fp1, fp2 = (_basis.eval_chi(m, xx, t) for xx in (x - 2 * h, x - h, x, x + h, x + 2 * h))
        fd1 = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
        fd2 = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
        scale = max(abs(v), 1.0)
        defects += [abs(a1 - fd1) / max(abs(a1), scale), abs(a2 - fd2) / max(abs(a2), scale)]
    checks.append(_check(cfg, "basis.derivatives", defects))

    # the dilation-type operator maps chi_3 into span{chi_1, chi_3, chi_5}
    keep = {1, 3, 5}
    probe = [m for m in range(12) if m not in keep]
    f = lambda x: _basis.apply_symmetry_op("K0", 3, x, 0.5)
    coeffs = _basis.project_onto_modes(f, probe, 0.5, spec)
    checks.append(_check(cfg, "basis.symmetry_span", [np.sqrt(np.sum(np.abs(coeffs) ** 2))]))

    neg = _basis.schrodinger_residual(lambda x, t: np.exp(-x * x), 1.0, 0.0)
    checks.append(_check(cfg, "basis.negative_control", [cfg.tol("residual") / neg]))
    return checks


# -- superspace --------------------------------------------------------------------


def suite_superspace(cfg: RunConfig) -> list:
    """The sampled checks evaluate the form on blocks of rounds, one call per block and side."""
    alg = _ss.coefficient_algebra(default_algebra())
    spec = _basis.QuadratureSpec(nodes=cfg.nodes)
    rng = np.random.default_rng(cfg.seed + 3)
    checks = []

    vac = _ss.SuperVector.basis_state(0, 0, 4, alg)
    odd0 = _ss.SuperVector.basis_state(1, 0, 4, alg)
    al = alg.gen("alpha")
    av = al * odd0
    defects = [
        (vac.super_inner(vac) - 1.0).max_abs(),
        (odd0.super_inner(odd0) - 1j).max_abs(),
        (av.super_inner(av) - (-1j) * (al.conj() * al)).max_abs(),
        abs((vac + odd0).norm() ** 2 - 2.0),
        abs(_ss.SuperVector.zero(4, alg).norm()),
    ]
    checks.append(_check(cfg, "superspace.examples", defects))

    # one draw of the stream 100 rounds of two random_supervector(6) calls take: with no parity
    # and no support, each vector draws its 12 rows, even sector first, row after row
    plan = alg.plan
    draws = random_coefficients(alg, rng, 100 * 2 * 12).reshape(100, 2, 12, alg.size)
    defects = [
        _row_max_abs(_ss._form(alg, a, b) - _ss._integral_form(alg, a, b, 0.0, spec))
        for a, b in _in_blocks(draws[:, 0], draws[:, 1])
    ]
    checks.append(_check(cfg, "superspace.integral_oracle", np.concatenate(defects)))

    # these rounds draw their parities between the vectors, so each round draws in turn: one
    # call for its 20 rows, the stream of two random_supervector(5) calls
    rounds = []
    for _ in range(50):
        p1, p2 = (_parity_draw(rng) for _ in range(2))
        rows = random_coefficients(alg, rng, 20, _ss._row_parities(5, p1) + _ss._row_parities(5, p2))
        rounds.append((rows[:10], rows[10:], p1 & p2))
    defects = []
    for a, b, both_odd in _in_blocks(*_columns(rounds)):
        sign = np.where(both_odd, -1.0, 1.0)[:, None]
        defects.append(_row_max_abs(plan.conj(_ss._form(alg, a, b)) - sign * _ss._form(alg, b, a)))
    checks.append(_check(cfg, "superspace.conjugate_symmetry", np.concatenate(defects)))

    rounds = []
    for _ in range(50):
        p1 = _parity_draw(rng)
        pb = _parity_draw(rng)
        # v1, v2, b1 and b2 in one call, as their random_supervector and random_element calls
        parities = _ss._row_parities(5, p1) + _ss._row_parities(5, None) + [None, pb]
        rows = random_coefficients(alg, rng, 22, parities)
        rounds.append((rows[:10], rows[10:20], rows[20], rows[21], p1 & pb))
    defects = []
    for a, b, b1, b2, both_odd in _in_blocks(*_columns(rounds)):
        sign = np.where(both_odd, -1.0, 1.0)[:, None]
        lhs = _ss._form(alg, plan.mul(b1[:, None], a), plan.mul(b2[:, None], b))
        rhs = sign * plan.mul(plan.mul(plan.conj(b1), b2), _ss._form(alg, a, b))
        defects.append(_row_max_abs(lhs - rhs))
    checks.append(_check(cfg, "superspace.scalar_rule", np.concatenate(defects)))

    v_even = _ss.random_supervector(5, rng, alg)
    v_odd = _ss.random_supervector(5, rng, alg)
    pure_even = _ss.SuperVector(alg, v_even.even, [alg.zero()] * 5)
    pure_odd = _ss.SuperVector(alg, [alg.zero()] * 5, v_odd.odd)
    checks.append(_check(cfg, "superspace.sector_orthogonality", [pure_even.super_inner(pure_odd).max_abs()]))

    n = 8
    claims = [
        (_rep.build_generator(name, n, alg), coeff * _rep.build_generator(adjoint, n, alg))
        for name, (coeff, adjoint) in _rep.SUPERADJOINTS.items()
    ]
    defects = []
    for p1 in (0, 1):
        v1 = _ss.random_supervector(n, rng, alg, parity=p1, support=6)
        v2 = _ss.random_supervector(n, rng, alg, support=6)
        defects += [_ss.superadjoint_defect(gen, claimed, v1, v2).max_abs() for gen, claimed in claims]
    checks.append(_check(cfg, "superspace.superadjoint", defects))

    v1 = _ss.random_supervector(n, rng, alg, parity=0, support=6)
    v2 = _ss.random_supervector(n, rng, alg, support=6)
    kp = _rep.build_generator("K+", n, alg)
    bad = _ss.superadjoint_defect(kp, kp, v1, v2).max_abs()
    checks.append(_check(cfg, "superspace.negative_control", [cfg.tol("algebra") / max(bad, 1e-300)]))
    return checks


# -- algebra (osp(2/2) structure) ------------------------------------------------------


def suite_algebra(cfg: RunConfig) -> list:
    alg = default_algebra()
    n_max = cfg.n_max
    ops = {name: _rep.build_generator(name, n_max, alg) for name in _rep.GENERATOR_NAMES}
    # a @ c and [a, c] for every ordered generator pair, formed once: the structure checks,
    # the adjoint rules and the parity bookkeeping all read them here
    products, brackets = _rep._generator_table(ops)
    checks = []

    structure = _rep._structure_defects(ops, brackets, cfg.seed)
    checks.append(_check(cfg, "algebra.commutator_table", structure["table"].values()))
    checks.append(_check(cfg, "algebra.unlisted_pairs", structure["unlisted"].values()))
    checks.append(_check(cfg, "algebra.jacobi", [structure["jacobi"]]))

    vacuum = _rep.vacuum_defects(ops)
    checks.append(_check(cfg, "algebra.vacuum", vacuum["lowest_weight"].values()))
    checks.append(_check(cfg, "algebra.atypicality", [vacuum["v_plus_norm"]]))

    # the superadjoint of each generator, formed once for the table and the adjoint rules
    adjoints = {name: op.superadjoint() for name, op in ops.items()}
    defects = []
    for name, (coeff, adjoint) in _rep.SUPERADJOINTS.items():
        defects.append((adjoints[name] - coeff * ops[adjoint]).max_abs())
        defects.append((adjoints[name].superadjoint() - ops[name]).max_abs())
    checks.append(_check(cfg, "algebra.superadjoint_table", defects))

    rng = np.random.default_rng(cfg.seed + 4)
    adjoint_products, commutators = [], []
    for _ in range(20):
        a_name, c_name = (_rep.GENERATOR_NAMES[k] for k in rng.integers(0, 8, size=2))
        a, c = adjoints[a_name], adjoints[c_name]
        rule = _rep._graded_difference(products[a_name, c_name].superadjoint(), c @ a, a.parity_bit & c.parity_bit)
        adjoint_products.append(rule.max_abs())
        commutators.append((brackets[a_name, c_name].superadjoint() + a.supercommutator(c)).max_abs())
    checks.append(_check(cfg, "algebra.adjoint_product", adjoint_products))
    checks.append(_check(cfg, "algebra.adjoint_commutator", commutators))

    defects = []
    for name in _rep.HERMITIAN_BASE:
        x = _rep.build_generator(name, n_max, alg)
        defects.append(_rep._graded_difference(x.superadjoint(), x, x.parity_bit).max_abs())
    checks.append(_check(cfg, "algebra.hermitian_base", defects))

    defects = []
    for (a_name, c_name), comm in brackets.items():
        expect = ops[a_name].parity_bit ^ ops[c_name].parity_bit
        defects += [float(comm.parity_bit != expect), comm.block_pattern_defect()]
    checks.append(_check(cfg, "algebra.parity_bookkeeping", defects))

    ham = _rep.hamiltonian_defects(n_max, alg, _basis.QuadratureSpec(nodes=cfg.nodes))
    checks.append(_check(cfg, "algebra.hamiltonian_matrix", [ham["ladder_route"]]))
    checks.append(_check(cfg, "algebra.hamiltonian_blocks", [ham["block_pattern"]]))
    checks.append(_check(cfg, "algebra.hamiltonian_quadrature", [ham["quadrature"], ham["pointwise"]]))
    checks.append(_check(cfg, "algebra.hamiltonian_vacuum", [ham["vacuum"]]))
    return checks


# -- coherent ---------------------------------------------------------------------------


def suite_coherent(cfg: RunConfig) -> list:
    alg = default_algebra()
    spec = _basis.QuadratureSpec(nodes=cfg.nodes)
    checks = []

    # one chi kernel per t serves every z, and one report per (z, t, alpha) in that order
    routes, norms, residuals = [], [], []
    kernels = _coh._crosscheck_kernels(cfg.z_samples, cfg.t_samples)
    for z in cfg.z_samples:
        for reports in _coh._crosschecks(z, (0.0, cfg.alpha_coeff), cfg.t_samples, algebra=alg, kernels=kernels):
            for r in reports:
                routes += [r["max_pairwise_psi"], r["max_pairwise_phi"], r["coefficient_defect"]]
                norms.append(r["norm_defect"])
                residuals.append(r["max_residual"])
    checks.append(_check(cfg, "coherent.three_routes", routes))
    checks.append(_check(cfg, "coherent.unit_super_norm", norms))
    checks.append(_check(cfg, "coherent.residual", residuals))

    psi_norms, phi_norms, super_norms = [], [], []
    for z in cfg.z_samples:
        cf = _coh.closed_form(_coh.CoherentParams(z, cfg.alpha_coeff), alg)
        for t in cfg.t_samples:
            m = cf.moments(t, spec)  # of psi_z and phi_z, which alpha leaves alone
            psi_norms.append(abs(m["norm_psi"] - 1.0))
            phi_norms.append(abs(m["norm_phi"] - 0.25 / (1.0 - abs(z) ** 2)))
            super_norms.append((cf.norm_sq(t, spec) - 1.0).max_abs())
    checks.append(_check(cfg, "coherent.unit_l2_norm", psi_norms))
    checks.append(_check(cfg, "coherent.phi_norm", phi_norms))
    checks.append(_check(cfg, "coherent.closed_norm_identity", super_norms))

    flag, rows = symbol_rows(cfg)
    calibrated = flag in ("identity", "conjugate")
    checks.append(_check(cfg, "coherent.calibration", [0.0 if calibrated else 1.0], flag=flag))
    checks.append(symbols_check(cfg, rows))

    momenta, lines, rests = [], [], []
    abar = np.conjugate(cfg.alpha_coeff)
    for z in cfg.z_samples[:3]:
        tr = trajectory_rows(_coh.CoherentParams(z, cfg.alpha_coeff), (0.0, 1.0, 2.0, 3.0), alg, spec)
        sp = np.asarray([r["p_theta"] for r in tr["rows"]])
        momenta.extend(np.abs(sp - tr["p0"] * abar))
        slope, intercept = tr["fit"]
        lines += [tr["fit_residual"], abs(slope - 2.0 * tr["p0"] * abar), abs(intercept - tr["x0"] * abar)]
        rests += [r[key] for r in tr["rows"] for key in ("mean_x", "mean_p")]
    checks.append(_check(cfg, "coherent.trajectory_momentum", momenta))
    checks.append(_check(cfg, "coherent.trajectory_line", lines))
    checks.append(_check(cfg, "coherent.even_sector_rest", rests))

    rng = np.random.default_rng(cfg.seed + 5)
    n_iso = 64
    vac = _ss.SuperVector.basis_state(0, 0, n_iso, alg)
    isometries, vacua = [], []
    for z in (0.3, 0.2j, 0.15 - 0.25j):
        dis = _coh.displacement_operator(_coh.CoherentParams(z, cfg.alpha_coeff), n_iso, alg)
        for _ in range(2):
            v1 = _ss.random_supervector(n_iso, rng, alg, support=9)
            v2 = _ss.random_supervector(n_iso, rng, alg, support=9)
            isometries.append((dis.apply(v1).super_inner(dis.apply(v2)) - v1.super_inner(v2)).max_abs())
        # the body of exp(X) is exp(body X), so alpha leaves the body overlap alone
        ref = _coh.series_state(_coh.CoherentParams(_coh.disk_parameter(z)), n_iso, alg, tail_tol=1e-10)
        ov = ref.super_inner(dis.apply(vac))
        vacua.append(abs(abs(ov.body) - 1.0))
    checks.append(_check(cfg, "coherent.superisometry", isometries))
    checks.append(_check(cfg, "coherent.displacement_vacuum", vacua))

    defects = []
    for z in cfg.z_samples:
        ge, go = _coh.expansion_coefficients(z, 3)
        pref = (1.0 - abs(z) ** 2) ** 0.25
        defects += [abs(ge[0] - pref), abs(go[0] - 0.5 * pref), abs(ge[1] / ge[0] - z * np.sqrt(0.5))]
    checks.append(_check(cfg, "coherent.expansion_values", defects))
    return checks


def symbol_rows(cfg: RunConfig) -> tuple:
    """Calibrated convention flag and one row per (z, alpha, generator).

    Each row holds the computed Berezin symbol, the closed-form expected
    symbol and their defect, for alpha in {0, cfg.alpha_coeff}.
    """
    alg = default_algebra()
    for cal_z in (*cfg.z_samples, 0.3 + 0.25j):
        try:
            flag = _coh.calibrate_convention(cal_z, alg)
            break
        except ValueError:  # the two candidate symbols lie too close to tell apart
            pass
    rows = []
    alphas = (0.0, cfg.alpha_coeff)
    for z in cfg.z_samples:
        n = max(64, _coh.series_length_for(z, 1e-7))
        ops = [_rep.build_generator(name, n, alg) for name in _rep.GENERATOR_NAMES]
        for a, symbols in zip(alphas, _coh._berezin_symbols(ops, z, alphas, alg)):
            p = _coh.CoherentParams(z, a)
            for name, got in zip(_rep.GENERATOR_NAMES, symbols):
                want = _coh.expected_symbol(name, p, alg, flag)
                rows.append(
                    {
                        "generator": name,
                        "z": z,
                        "alpha_coeff": a,
                        "computed": got,
                        "expected": want,
                        "defect": (got - want).max_abs(),
                    }
                )
    return flag, rows


def symbols_check(cfg: RunConfig, rows: list) -> dict:
    """The ``coherent.symbols`` record over the rows of ``symbol_rows``."""
    return _check(cfg, "coherent.symbols", (r["defect"] for r in rows))


def trajectory_rows(params, ts, algebra, spec) -> dict:
    """Odd-sector line of one coherent state sampled at the times ``ts``.

    Per t: the conj(alpha) coefficients of the x*theta and p*theta symbols and
    the larger |<x>| and |<p>| of the two components.  Also the closed-form
    (x0, p0) and the affine fit (slope, intercept) of x_theta against t with
    its largest residual.
    """
    x0, p0 = _coh.trajectory_closed_form(params)
    rows = [
        {
            "t": r["t"],
            "x_theta": r["x_theta"].coeff("alpha_bar"),
            "p_theta": r["p_theta"].coeff("alpha_bar"),
            "mean_x": float(np.max([abs(r["mean_x_psi"]), abs(r["mean_x_phi"])])),
            "mean_p": float(np.max([abs(r["mean_p_psi"]), abs(r["mean_p_phi"])])),
        }
        for r in _coh._trajectories(params, ts, algebra, spec=spec)
    ]
    sx = np.asarray([r["x_theta"] for r in rows])
    fit = np.polyfit(ts, sx, 1)
    residual = float(np.abs(np.polyval(fit, ts) - sx).max())
    return {"x0": x0, "p0": p0, "rows": rows, "fit": fit, "fit_residual": residual}


_SUITES = {
    "grassmann": suite_grassmann,
    "basis": suite_basis,
    "superspace": suite_superspace,
    "algebra": suite_algebra,
    "coherent": suite_coherent,
}


def suite_checks(name: str, cfg: RunConfig) -> list:
    if name == "all":
        out = []
        for suite in SUITE_NAMES:
            out.extend(_SUITES[suite](cfg))
        return out
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _SUITES[name](cfg)


def run_suite(name: str, cfg: RunConfig) -> dict:
    """Run a suite and wrap the checks in a deterministic report payload.

    Wall time lives outside the payload so repeated runs produce byte-identical
    payload sections.
    """
    start = time.perf_counter()
    checks = suite_checks(name, cfg)
    elapsed = time.perf_counter() - start
    payload = {
        "suite": name,
        "config": cfg.echo(),
        "checks": checks,
        "n_checks": len(checks),
        "overall_pass": all(c["pass"] for c in checks),
    }
    return {"payload": payload, "wall_time_s": elapsed}
