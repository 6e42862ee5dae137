"""Verification suites aggregating every module invariant into check records.

Each check is a dict {id, description, defect, tolerance, pass}; a suite
report collects them with a config echo.  All randomness is seeded from the
config, so reports are deterministic given (config, build).

This module is the one place a check is judged.  ``CHECKS`` declares every
check once, in report order: its id, its gate and its description.  A gate
is either a ``DEFAULT_TOLERANCES`` key, read through ``RunConfig.tol``, or a
literal tolerance that no config key reaches; both kinds are listed there.
The suites compute defects and ``_check`` judges them against the table.
Library modules report named defects, such as
``representation.structure_defects``, and carry no verdicts of their own.
The acceptance tests assert on the records made here, and the ``symbols``
and ``trajectory`` commands only format the rows of ``symbol_rows`` and
``trajectory_rows``; the ``symbols`` verdict is the ``symbols_check`` record.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from . import basis as _basis
from . import coherent as _coh
from . import representation as _rep
from . import superspace as _ss
from .config import TOP_QUADRATURE_MODE, RunConfig
from .grassmann import EVEN, ODD, GrassmannAlgebra, GrassmannElement, GENERATORS_EXTENDED, default_algebra, random_element

__all__ = ["CHECKS", "SUITE_NAMES", "run_suite", "suite_checks", "symbol_rows", "symbols_check", "trajectory_rows"]

SUITE_NAMES = ("grassmann", "basis", "superspace", "algebra", "coherent")

# id -> (gate, description), in report order.  A str gate names a tolerance
# in DEFAULT_TOLERANCES; a float gate is a fixed literal.
CHECKS = {
    "grassmann.associativity": ("grassmann", "(ab)c = a(bc), 250 random triples, relative"),
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
    "basis.hermite": (1e-12, "recurrence values against scipy eval_hermitenorm"),
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
        "h = K+/2 + K-/2 + K0 equals the squared ladder sum on interior modes",
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


def _check(cfg: RunConfig, cid: str, defect: float, **fmt) -> dict:
    """The record of check ``cid``.

    ``fmt`` fills a templated description; without it the description is
    taken as written, so braces such as ``{1,3,5}`` stay literal.
    """
    gate, description = CHECKS[cid]
    tolerance = cfg.tol(gate) if isinstance(gate, str) else gate
    defect = float(defect)
    return {
        "id": cid,
        "description": description.format(**fmt) if fmt else description,
        "defect": defect,
        "tolerance": float(tolerance),
        "pass": bool(defect < tolerance),
    }


# -- grassmann ------------------------------------------------------------------


def suite_grassmann(cfg: RunConfig) -> list:
    rng = np.random.default_rng(cfg.seed)
    algebras = (default_algebra(), GrassmannAlgebra(GENERATORS_EXTENDED))
    checks = []

    worst = 0.0
    for k in range(250):
        alg = algebras[k % 2]
        a, b, c = (random_element(alg, rng) for _ in range(3))
        left = (a * b) * c
        scale = max(1.0, left.max_abs())
        worst = max(worst, (left - a * (b * c)).max_abs() / scale)
    checks.append(_check(cfg, "grassmann.associativity", worst))

    worst = 0.0
    for k in range(250):
        alg = algebras[k % 2]
        pa, pb = (EVEN if rng.integers(2) else ODD for _ in range(2))
        a = random_element(alg, rng, parity=pa)
        b = random_element(alg, rng, parity=pb)
        sign = -1.0 if (pa == ODD and pb == ODD) else 1.0
        worst = max(worst, (a * b - sign * (b * a)).max_abs() / (a.max_abs() * b.max_abs()))
    checks.append(_check(cfg, "grassmann.supercommutativity", worst))

    worst = 0.0
    for k in range(250):
        alg = algebras[k % 2]
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        worst = max(worst, ((a * b).conj() - a.conj() * b.conj()).max_abs())
        worst = max(worst, (a.conj().conj() - a).max_abs())
    checks.append(_check(cfg, "grassmann.conjugation", worst))

    alg = default_algebra()
    th, tb = alg.gen("theta"), alg.gen("theta_bar")
    worst = ((tb * th).berezin(("theta", "theta_bar")) - 1.0).max_abs()
    worst = max(worst, alg.one().berezin(("theta", "theta_bar")).max_abs())
    al, ab = alg.gen("alpha"), alg.gen("alpha_bar")
    worst = max(worst, ((ab * al).berezin(("alpha", "alpha_bar")) - 1.0).max_abs())
    xt, xtb = algebras[1].gen("theta"), algebras[1].gen("theta_bar")
    worst = max(worst, ((xtb * xt).berezin(("theta", "theta_bar")) - 1.0).max_abs())
    with_theta = [(np.arange(x.size) & (1 << x.index["theta"])) != 0 for x in algebras]
    for k in range(250):
        ak = algebras[k % 2]
        a = random_element(ak, rng)
        b = random_element(ak, rng)
        lin = (a + 2.5 * b).berezin(("theta", "theta_bar")) - (
            a.berezin(("theta", "theta_bar")) + 2.5 * b.berezin(("theta", "theta_bar"))
        )
        worst = max(worst, lin.max_abs())
        # anything missing an integrated generator integrates to zero
        no_theta = GrassmannElement(ak, np.where(with_theta[k % 2], 0j, a.coeffs))
        worst = max(worst, no_theta.berezin(("theta",)).max_abs())
    checks.append(_check(cfg, "grassmann.berezin", worst))

    worst = max((th * th).max_abs(), (tb * th + th * tb).max_abs())
    checks.append(_check(cfg, "grassmann.nilpotency", worst))

    worst = 0.0
    for _ in range(100):
        pa, pb = (EVEN if rng.integers(2) else ODD for _ in range(2))
        a = random_element(alg, rng, parity=pa)
        b = random_element(alg, rng, parity=pb)
        prod = a * b
        if prod.max_abs() > 0:
            expect = EVEN if pa == pb else ODD
            if prod.parity != expect:
                worst = 1.0
    checks.append(_check(cfg, "grassmann.parity", worst))
    return checks


# -- basis ----------------------------------------------------------------------


def suite_basis(cfg: RunConfig) -> list:
    spec = _basis.QuadratureSpec(nodes=cfg.nodes)
    top = TOP_QUADRATURE_MODE  # the ladder raises mode top - 1 onto it
    checks = []

    worst = 0.0
    for t in (0.0, 0.5, 2.0):
        G = _basis.gram_matrix(range(top), t, spec)
        worst = max(worst, float(np.abs(G - np.eye(top)).max()))
    checks.append(_check(cfg, "basis.orthonormality", worst))

    # one grid and one bra block per t; kets stay pointwise, the independent route
    grids = {t: _basis.quad_grid(t, spec) for t in (0.0, 1.0)}
    bras = {t: _basis.chi_matrix(range(top + 1), x, t) for t, (x, _) in grids.items()}

    worst = 0.0
    for t, (x, w) in grids.items():
        for m in range(top):
            for sign in ("+", "-"):
                coeff, target = _basis.apply_ladder(sign, m)
                av = _basis.ladder_pointwise(sign, m, x, t)
                if target is None:
                    worst = max(worst, abs(complex(np.sum(w * np.conjugate(av) * av))) ** 0.5)
                else:
                    got = complex(np.sum(w * np.conjugate(bras[t][target]) * av))
                    worst = max(worst, abs(got - coeff))
    checks.append(_check(cfg, "basis.ladder", worst))

    worst = 0.0
    grid = np.linspace(-4.0, 4.0, 9)
    for t, (x, w) in grids.items():
        for m in range(top):
            sym = _basis.symmetric_ladder_pointwise(m, x, t)
            diag = complex(np.sum(w * np.conjugate(bras[t][m]) * sym))
            worst = max(worst, abs(diag - (0.5 * m + 0.25)))
            point = np.abs(
                _basis.symmetric_ladder_pointwise(m, grid, t)
                - (0.5 * m + 0.25) * _basis.eval_chi(m, grid, t)
            ).max()
            worst = max(worst, float(point))
    checks.append(_check(cfg, "basis.sector_weights", worst))

    xs, ts = np.meshgrid(np.linspace(-4.0, 4.0, 5), np.linspace(-2.0, 2.0, 5))
    worst = max(
        _basis.schrodinger_residual(lambda x, t, m=m: _basis.eval_chi(m, x, t), xs, ts)
        for m in range(21)
    )
    checks.append(_check(cfg, "basis.residual", worst))

    from scipy.special import eval_hermitenorm

    rng = np.random.default_rng(cfg.seed + 1)
    worst = max(
        abs(_basis.hermite_he(2, 0.0) + 1.0),
        abs(_basis.hermite_he(3, 2.0) - 2.0),
        abs(_basis.hermite_he(0, 5.0) - 1.0),
    )
    for _ in range(50):
        n = int(rng.integers(0, 26))
        z = float(rng.uniform(-5, 5))
        ref = float(eval_hermitenorm(n, z))
        scale = max(1.0, abs(ref))
        worst = max(worst, abs(_basis.hermite_he(n, z) - ref) / scale)
    checks.append(_check(cfg, "basis.hermite", worst))

    worst = 0.0
    rng = np.random.default_rng(cfg.seed + 2)
    for _ in range(30):
        m = int(rng.integers(0, 11))
        x = float(rng.uniform(-5, 5))
        t = float(rng.uniform(-2, 2))
        v, a1, a2 = _basis.eval_chi_derivatives(m, x, t)
        h = 1e-3
        f = lambda xx: _basis.eval_chi(m, xx, t)
        fd1 = (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
        fd2 = (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h) - f(x + 2 * h)) / (
            12 * h * h
        )
        scale = max(abs(v), 1.0)
        worst = max(worst, abs(a1 - fd1) / max(abs(a1), scale), abs(a2 - fd2) / max(abs(a2), scale))
    checks.append(_check(cfg, "basis.derivatives", worst))

    # the dilation-type operator maps chi_3 into span{chi_1, chi_3, chi_5}
    keep = {1, 3, 5}
    probe = [m for m in range(12) if m not in keep]
    f = lambda x: _basis.apply_symmetry_op("K0", 3, x, 0.5)
    coeffs = _basis.project_onto_modes(f, probe, 0.5, spec)
    leak = float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))
    checks.append(_check(cfg, "basis.symmetry_span", leak))

    neg = _basis.schrodinger_residual(lambda x, t: np.exp(-x * x), 1.0, 0.0)
    checks.append(_check(cfg, "basis.negative_control", cfg.tol("residual") / neg))
    return checks


# -- superspace --------------------------------------------------------------------


def suite_superspace(cfg: RunConfig) -> list:
    alg = default_algebra()
    spec = _basis.QuadratureSpec(nodes=cfg.nodes)
    rng = np.random.default_rng(cfg.seed + 3)
    checks = []

    vac = _ss.SuperVector.basis_state(0, 0, 4, alg)
    odd0 = _ss.SuperVector.basis_state(1, 0, 4, alg)
    al = alg.gen("alpha")
    worst = (vac.super_inner(vac) - 1.0).max_abs()
    worst = max(worst, (odd0.super_inner(odd0) - 1j).max_abs())
    av = al * odd0
    worst = max(worst, (av.super_inner(av) - (-1j) * (al.conj() * al)).max_abs())
    worst = max(worst, abs((vac + odd0).norm() ** 2 - 2.0))
    worst = max(worst, abs(_ss.SuperVector.zero(4, alg).norm()))
    checks.append(_check(cfg, "superspace.examples", worst))

    worst = 0.0
    for _ in range(100):
        v1 = _ss.random_supervector(6, rng, alg)
        v2 = _ss.random_supervector(6, rng, alg)
        d = (v1.super_inner(v2) - _ss.super_inner_integral(v1, v2, 0.0, spec)).max_abs()
        worst = max(worst, d)
    checks.append(_check(cfg, "superspace.integral_oracle", worst))

    worst = 0.0
    for _ in range(50):
        p1, p2 = (EVEN if rng.integers(2) else ODD for _ in range(2))
        v1 = _ss.random_supervector(5, rng, alg, parity=p1)
        v2 = _ss.random_supervector(5, rng, alg, parity=p2)
        sign = -1.0 if (p1 == ODD and p2 == ODD) else 1.0
        worst = max(worst, (v1.super_inner(v2).conj() - sign * v2.super_inner(v1)).max_abs())
    checks.append(_check(cfg, "superspace.conjugate_symmetry", worst))

    worst = 0.0
    for _ in range(50):
        p1 = EVEN if rng.integers(2) else ODD
        pb = EVEN if rng.integers(2) else ODD
        v1 = _ss.random_supervector(5, rng, alg, parity=p1)
        v2 = _ss.random_supervector(5, rng, alg)
        b1 = _ss.random_coefficient(alg, rng)
        b2 = _ss.random_coefficient(alg, rng, parity=pb)
        sign = -1.0 if (p1 == ODD and pb == ODD) else 1.0
        lhs = (b1 * v1).super_inner(b2 * v2)
        rhs = sign * (b1.conj() * b2 * v1.super_inner(v2))
        worst = max(worst, (lhs - rhs).max_abs())
    checks.append(_check(cfg, "superspace.scalar_rule", worst))

    v_even = _ss.random_supervector(5, rng, alg)
    v_odd = _ss.random_supervector(5, rng, alg)
    pure_even = _ss.SuperVector(alg, v_even.even, [alg.zero()] * 5)
    pure_odd = _ss.SuperVector(alg, [alg.zero()] * 5, v_odd.odd)
    worst = pure_even.super_inner(pure_odd).max_abs()
    checks.append(_check(cfg, "superspace.sector_orthogonality", worst))

    n = 8
    claims = [
        (_rep.build_generator(name, n, alg), coeff * _rep.build_generator(adjoint, n, alg))
        for name, (coeff, adjoint) in _rep.SUPERADJOINTS.items()
    ]
    worst = 0.0
    for p1 in (EVEN, ODD):
        v1 = _ss.random_supervector(n, rng, alg, parity=p1, support=6)
        v2 = _ss.random_supervector(n, rng, alg, support=6)
        for gen, claimed in claims:
            worst = max(worst, _ss.superadjoint_defect(gen, claimed, v1, v2).max_abs())
    checks.append(_check(cfg, "superspace.superadjoint", worst))

    v1 = _ss.random_supervector(n, rng, alg, parity=EVEN, support=6)
    v2 = _ss.random_supervector(n, rng, alg, support=6)
    kp = _rep.build_generator("K+", n, alg)
    bad = _ss.superadjoint_defect(kp, kp, v1, v2).max_abs()
    checks.append(_check(cfg, "superspace.negative_control", cfg.tol("algebra") / max(bad, 1e-300)))
    return checks


# -- algebra (osp(2/2) structure) ------------------------------------------------------


def suite_algebra(cfg: RunConfig) -> list:
    alg = default_algebra()
    n_max = cfg.n_max
    ops = {name: _rep.build_generator(name, n_max, alg) for name in _rep.GENERATOR_NAMES}
    checks = []

    structure = _rep.structure_defects(ops, n_triples=20, seed=cfg.seed)
    checks.append(_check(cfg, "algebra.commutator_table", max(structure["table"].values())))
    checks.append(_check(cfg, "algebra.unlisted_pairs", max(structure["unlisted"].values())))
    checks.append(_check(cfg, "algebra.jacobi", structure["jacobi"]))

    vacuum = _rep.vacuum_defects(ops)
    checks.append(_check(cfg, "algebra.vacuum", max(vacuum["lowest_weight"].values())))
    checks.append(_check(cfg, "algebra.atypicality", vacuum["v_plus_norm"]))

    worst = 0.0
    for name, (coeff, adjoint) in _rep.SUPERADJOINTS.items():
        worst = max(worst, (ops[name].superadjoint() - coeff * ops[adjoint]).max_abs())
        worst = max(worst, (ops[name].superadjoint().superadjoint() - ops[name]).max_abs())
    checks.append(_check(cfg, "algebra.superadjoint_table", worst))

    rng = np.random.default_rng(cfg.seed + 4)
    worst_prod = 0.0
    worst_comm = 0.0
    for _ in range(20):
        a, c = (ops[_rep.GENERATOR_NAMES[k]] for k in rng.integers(0, 8, size=2))
        sign = -1.0 if (a.parity_bit and c.parity_bit) else 1.0
        worst_prod = max(
            worst_prod,
            ((a @ c).superadjoint() - sign * (c.superadjoint() @ a.superadjoint())).max_abs(),
        )
        worst_comm = max(
            worst_comm,
            (
                a.supercommutator(c).superadjoint()
                + a.superadjoint().supercommutator(c.superadjoint())
            ).max_abs(),
        )
    checks.append(_check(cfg, "algebra.adjoint_product", worst_prod))
    checks.append(_check(cfg, "algebra.adjoint_commutator", worst_comm))

    worst = 0.0
    for j, name in enumerate(_rep.HERMITIAN_BASE, start=1):
        x = _rep.build_generator(name, n_max, alg)
        sign = -1.0 if x.parity_bit else 1.0
        worst = max(worst, (x.superadjoint() - sign * x).max_abs())
    checks.append(_check(cfg, "algebra.hermitian_base", worst))

    worst = 0.0
    for a_name in _rep.GENERATOR_NAMES:
        for c_name in _rep.GENERATOR_NAMES:
            comm = ops[a_name].supercommutator(ops[c_name])
            expect = ops[a_name].parity_bit ^ ops[c_name].parity_bit
            if comm.parity_bit != expect:
                worst = 1.0
            worst = max(worst, comm.block_pattern_defect())
    checks.append(_check(cfg, "algebra.parity_bookkeeping", worst))

    ham = _rep.hamiltonian_defects(n_max, alg, _basis.QuadratureSpec(nodes=cfg.nodes))
    checks.append(_check(cfg, "algebra.hamiltonian_matrix", ham["ladder_route"]))
    checks.append(_check(cfg, "algebra.hamiltonian_blocks", ham["block_pattern"]))
    checks.append(_check(cfg, "algebra.hamiltonian_quadrature", max(ham["quadrature"], ham["pointwise"])))
    checks.append(_check(cfg, "algebra.hamiltonian_vacuum", ham["vacuum"]))
    return checks


# -- coherent ---------------------------------------------------------------------------


def suite_coherent(cfg: RunConfig) -> list:
    alg = default_algebra()
    spec = _basis.QuadratureSpec(nodes=cfg.nodes)
    checks = []

    worst_routes = 0.0
    worst_norm = 0.0
    worst_res = 0.0
    for z in cfg.z_samples:
        for t in cfg.t_samples:
            for a in (0.0, cfg.alpha_coeff):
                p = _coh.CoherentParams(z, a)
                r = _coh.crosscheck(p, t, spec=spec)
                worst_routes = max(
                    worst_routes,
                    r["max_pairwise_psi"],
                    r["max_pairwise_phi"],
                    r["coefficient_defect"],
                )
                worst_norm = max(worst_norm, r["norm_defect"])
                worst_res = max(worst_res, r["max_residual"])
    checks.append(_check(cfg, "coherent.three_routes", worst_routes))
    checks.append(_check(cfg, "coherent.unit_super_norm", worst_norm))
    checks.append(_check(cfg, "coherent.residual", worst_res))

    worst = 0.0
    worst_phi = 0.0
    for z in cfg.z_samples:
        p = _coh.CoherentParams(z)
        cf = _coh.closed_form(p, alg)
        for t in cfg.t_samples:
            qspec = replace(spec, scale=_coh.quad_scale(z, t))
            psi = lambda x: cf.psi(x, t)
            phi = lambda x: cf.phi(x, t)
            worst = max(worst, abs(_basis.quad_inner(psi, psi, t, qspec) - 1.0))
            nphi = _basis.quad_inner(phi, phi, t, qspec).real
            worst_phi = max(worst_phi, abs(nphi - 0.25 / (1.0 - abs(z) ** 2)))
    checks.append(_check(cfg, "coherent.unit_l2_norm", worst))
    checks.append(_check(cfg, "coherent.phi_norm", worst_phi))

    worst = 0.0
    for z in cfg.z_samples:
        p = _coh.CoherentParams(z, cfg.alpha_coeff)
        cf = _coh.closed_form(p, alg)
        for t in cfg.t_samples:
            worst = max(worst, (cf.norm_sq(t, spec) - 1.0).max_abs())
    checks.append(_check(cfg, "coherent.closed_norm_identity", worst))

    flag, rows = symbol_rows(cfg)
    calibrated = flag in ("identity", "conjugate")
    checks.append(_check(cfg, "coherent.calibration", 0.0 if calibrated else 1.0, flag=flag))
    checks.append(symbols_check(cfg, rows))

    worst_p = 0.0
    worst_fit = 0.0
    worst_mean = 0.0
    abar = np.conjugate(cfg.alpha_coeff)
    for z in cfg.z_samples[:3]:
        tr = trajectory_rows(_coh.CoherentParams(z, cfg.alpha_coeff), (0.0, 1.0, 2.0, 3.0), alg, spec)
        sp = np.asarray([r["p_theta"] for r in tr["rows"]])
        worst_p = max(worst_p, float(np.abs(sp - tr["p0"] * abar).max()))
        slope, intercept = tr["fit"]
        worst_fit = max(
            worst_fit,
            tr["fit_residual"],
            abs(slope - 2.0 * tr["p0"] * abar),
            abs(intercept - tr["x0"] * abar),
        )
        worst_mean = max(worst_mean, *(max(r["mean_x"], r["mean_p"]) for r in tr["rows"]))
    checks.append(_check(cfg, "coherent.trajectory_momentum", worst_p))
    checks.append(_check(cfg, "coherent.trajectory_line", worst_fit))
    checks.append(_check(cfg, "coherent.even_sector_rest", worst_mean))

    rng = np.random.default_rng(cfg.seed + 5)
    n_iso = 64
    vac = _ss.SuperVector.basis_state(0, 0, n_iso, alg)
    worst_iso = 0.0
    worst_vac = 0.0
    for z in (0.3, 0.2j, 0.15 - 0.25j):
        dis = _coh.displacement_operator(_coh.CoherentParams(z, cfg.alpha_coeff), n_iso, alg)
        for _ in range(2):
            v1 = _ss.random_supervector(n_iso, rng, alg, support=9)
            v2 = _ss.random_supervector(n_iso, rng, alg, support=9)
            d = (dis.apply(v1).super_inner(dis.apply(v2)) - v1.super_inner(v2)).max_abs()
            worst_iso = max(worst_iso, d)
        # the body of exp(X) is exp(body X), so alpha leaves the body overlap alone
        ref = _coh.series_state(_coh.CoherentParams(_coh.disk_parameter(z)), n_iso, alg, tail_tol=1e-10)
        ov = ref.super_inner(dis.apply(vac))
        worst_vac = max(worst_vac, abs(abs(ov.body) - 1.0))
    checks.append(_check(cfg, "coherent.superisometry", worst_iso))
    checks.append(_check(cfg, "coherent.displacement_vacuum", worst_vac))

    worst = 0.0
    for z in cfg.z_samples:
        ge, go = _coh.expansion_coefficients(z, 3)
        pref = (1.0 - abs(z) ** 2) ** 0.25
        worst = max(worst, abs(ge[0] - pref), abs(go[0] - 0.5 * pref))
        worst = max(worst, abs(ge[1] / ge[0] - z * np.sqrt(0.5)))
    checks.append(_check(cfg, "coherent.expansion_values", worst))
    return checks


def symbol_rows(cfg: RunConfig) -> tuple:
    """Calibrated convention flag and one row per (z, alpha, generator).

    Each row holds the computed Berezin symbol, the closed-form expected
    symbol and their defect, for alpha in {0, cfg.alpha_coeff}.
    """
    alg = default_algebra()
    cal_z = next((z for z in cfg.z_samples if abs(complex(z).imag) > 1e-9), 0.3 + 0.25j)
    flag = _coh.calibrate_convention(cal_z, alg)
    rows = []
    for z in cfg.z_samples:
        n = max(64, _coh.series_length_for(z, 1e-7))
        ops = {name: _rep.build_generator(name, n, alg) for name in _rep.GENERATOR_NAMES}
        for a in (0.0, cfg.alpha_coeff):
            p = _coh.CoherentParams(z, a)
            for name in _rep.GENERATOR_NAMES:
                got = _coh.berezin_symbol(ops[name], p, alg)
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
    return _check(cfg, "coherent.symbols", max((r["defect"] for r in rows), default=0.0))


def trajectory_rows(params, ts, algebra, spec) -> dict:
    """Odd-sector line of one coherent state sampled at the times ``ts``.

    Per t: the conj(alpha) coefficients of the x*theta and p*theta symbols and
    the larger |<x>| and |<p>| of the two components.  Also the closed-form
    (x0, p0) and the affine fit (slope, intercept) of x_theta against t with
    its largest residual.
    """
    x0, p0 = _coh.trajectory_closed_form(params)
    rows = []
    for t in ts:
        r = _coh.trajectory(params, t, algebra, spec=spec)
        rows.append(
            {
                "t": float(t),
                "x_theta": r["x_theta"].coeff("alpha_bar"),
                "p_theta": r["p_theta"].coeff("alpha_bar"),
                "mean_x": max(abs(r["mean_x_psi"]), abs(r["mean_x_phi"])),
                "mean_p": max(abs(r["mean_p_psi"]), abs(r["mean_p_phi"])),
            }
        )
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
