"""Verification suites aggregating every module invariant into check records.

Each check is a dict {id, description, defect, tolerance, pass}; a suite
report collects them with a config echo.  All randomness is seeded from the
config, so reports are deterministic given (config, build).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from . import basis as _basis
from . import coherent as _coh
from . import representation as _rep
from . import superspace as _ss
from .config import RunConfig
from .grassmann import EVEN, ODD, GrassmannAlgebra, GENERATORS_EXTENDED, default_algebra, random_element

__all__ = ["SUITE_NAMES", "run_suite", "suite_checks"]

SUITE_NAMES = ("grassmann", "basis", "superspace", "algebra", "coherent")


def _check(cid: str, description: str, defect: float, tolerance: float) -> dict:
    defect = float(defect)
    return {
        "id": cid,
        "description": description,
        "defect": defect,
        "tolerance": float(tolerance),
        "pass": bool(defect < tolerance),
    }


# -- grassmann ------------------------------------------------------------------


def suite_grassmann(cfg: RunConfig) -> list:
    tol = cfg.tol("grassmann")
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
    checks.append(
        _check("grassmann.associativity", "(ab)c = a(bc), 250 random triples, relative", worst, tol)
    )

    worst = 0.0
    for k in range(250):
        alg = algebras[k % 2]
        pa, pb = (EVEN if rng.integers(2) else ODD for _ in range(2))
        a = random_element(alg, rng, parity=pa)
        b = random_element(alg, rng, parity=pb)
        sign = -1.0 if (pa == ODD and pb == ODD) else 1.0
        worst = max(worst, (a * b - sign * (b * a)).max_abs())
    checks.append(
        _check("grassmann.supercommutativity", "ab = (-1)^{pq} ba on homogeneous pairs", worst, tol)
    )

    worst = 0.0
    for k in range(250):
        alg = algebras[k % 2]
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        worst = max(worst, ((a * b).conj() - a.conj() * b.conj()).max_abs())
        worst = max(worst, (a.conj().conj() - a).max_abs())
    checks.append(
        _check(
            "grassmann.conjugation",
            "conj(ab) = conj(a) conj(b) and conj is an involution",
            worst,
            tol,
        )
    )

    alg = default_algebra()
    th, tb = alg.gen("theta"), alg.gen("theta_bar")
    worst = ((tb * th).berezin(("theta", "theta_bar")) - 1.0).max_abs()
    worst = max(worst, alg.one().berezin(("theta", "theta_bar")).max_abs())
    al, ab = alg.gen("alpha"), alg.gen("alpha_bar")
    worst = max(worst, ((ab * al).berezin(("alpha", "alpha_bar")) - 1.0).max_abs())
    for k in range(250):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        lin = (a + 2.5 * b).berezin(("theta", "theta_bar")) - (
            a.berezin(("theta", "theta_bar")) + 2.5 * b.berezin(("theta", "theta_bar"))
        )
        worst = max(worst, lin.max_abs())
        # anything missing an integrated generator integrates to zero
        no_theta = alg.element({names: c for names, c in a.terms() if "theta" not in names})
        worst = max(worst, no_theta.berezin(("theta",)).max_abs())
    checks.append(
        _check(
            "grassmann.berezin",
            "pair normalization, linearity, and vanishing without the integrated generator",
            worst,
            tol,
        )
    )

    worst = max((th * th).max_abs(), (tb * th + th * tb).max_abs())
    checks.append(_check("grassmann.nilpotency", "theta^2 = 0 and anticommutation", worst, tol))

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
    checks.append(_check("grassmann.parity", "p(ab) = p(a) + p(b) mod 2", worst, tol))
    return checks


# -- basis ----------------------------------------------------------------------


def suite_basis(cfg: RunConfig) -> list:
    tol_q = cfg.tol("quadrature")
    tol_r = cfg.tol("residual")
    spec = _basis.QuadratureSpec(nodes=cfg.nodes)
    checks = []

    worst = 0.0
    for t in (0.0, 0.5, 2.0):
        G = _basis.gram_matrix(range(21), t, spec)
        worst = max(worst, float(np.abs(G - np.eye(21)).max()))
    checks.append(
        _check("basis.orthonormality", "<chi_m|chi_n> = delta_mn for m,n <= 20, t in {0, 0.5, 2}", worst, tol_q)
    )

    worst = 0.0
    for t in (0.0, 1.0):
        for m in range(21):
            for sign in ("+", "-"):
                coeff, target = _basis.apply_ladder(sign, m)
                av = lambda x: _basis.ladder_pointwise(sign, m, x, t)
                if target is None:
                    worst = max(worst, abs(_basis.quad_inner(av, av, t, spec)) ** 0.5)
                else:
                    got = _basis.quad_inner(_basis.chi_evaluator(target, t), av, t, spec)
                    worst = max(worst, abs(got - coeff))
    checks.append(
        _check("basis.ladder", "quadrature matrix elements reproduce the frozen ladder coefficients", worst, tol_q)
    )

    worst = 0.0
    grid = np.linspace(-4.0, 4.0, 9)
    for t in (0.0, 1.0):
        for m in range(21):
            diag = _basis.quad_inner(
                _basis.chi_evaluator(m, t),
                lambda x: _basis.symmetric_ladder_pointwise(m, x, t),
                t,
                spec,
            )
            worst = max(worst, abs(diag - (0.5 * m + 0.25)))
            point = np.abs(
                _basis.symmetric_ladder_pointwise(m, grid, t)
                - (0.5 * m + 0.25) * _basis.eval_chi(m, grid, t)
            ).max()
            worst = max(worst, float(point))
    checks.append(
        _check(
            "basis.sector_weights",
            "a+a- + a-a+ is diagonal with eigenvalue m/2 + 1/4 (weights 1/4 and 3/4)",
            worst,
            tol_q,
        )
    )

    worst = 0.0
    for m in range(21):
        ev = lambda x, t, m=m: _basis.eval_chi(m, x, t)
        for x in np.linspace(-4.0, 4.0, 5):
            for t in np.linspace(-2.0, 2.0, 5):
                worst = max(worst, _basis.schrodinger_residual(ev, x, t))
    checks.append(
        _check("basis.residual", "equation residual < tol on the 5x5 grid for m <= 20", worst, tol_r)
    )

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
    checks.append(_check("basis.hermite", "recurrence values against scipy eval_hermitenorm", worst, 1e-12))

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
    checks.append(
        _check("basis.derivatives", "analytic x-derivatives against 4th-order finite differences", worst, 1e-7)
    )

    # the dilation-type operator maps chi_3 into span{chi_1, chi_3, chi_5}
    keep = {1, 3, 5}
    probe = [m for m in range(12) if m not in keep]
    f = lambda x: _basis.apply_symmetry_op("K0", 3, x, 0.5)
    coeffs = _basis.project_onto_modes(f, probe, 0.5, spec)
    leak = float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))
    checks.append(
        _check("basis.symmetry_span", "dilation operator leaks nothing outside modes {1,3,5}", leak, 1e-8)
    )

    neg = _basis.schrodinger_residual(lambda x, t: np.exp(-x * x), 1.0, 0.0)
    checks.append(
        _check(
            "basis.negative_control",
            "non-solution exp(-x^2) fails the residual gate (defect = gate/residual)",
            1e-2 / neg,
            1.0,
        )
    )
    return checks


# -- superspace --------------------------------------------------------------------


def suite_superspace(cfg: RunConfig) -> list:
    alg = default_algebra()
    tol_q = cfg.tol("quadrature")
    tol_a = cfg.tol("algebra")
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
    checks.append(_check("superspace.examples", "unit, odd-weight i, scalar rule, and norm examples", worst, tol_a))

    worst = 0.0
    for _ in range(100):
        v1 = _ss.random_supervector(6, rng, alg)
        v2 = _ss.random_supervector(6, rng, alg)
        d = (v1.super_inner(v2) - _ss.super_inner_integral(v1, v2, 0.0, spec)).max_abs()
        worst = max(worst, d)
    checks.append(
        _check(
            "superspace.integral_oracle",
            "direct Berezin+quadrature integral matches the fast form on 100 random pairs",
            worst,
            tol_q,
        )
    )

    worst = 0.0
    for _ in range(50):
        p1, p2 = (EVEN if rng.integers(2) else ODD for _ in range(2))
        v1 = _ss.random_supervector(5, rng, alg, parity=p1)
        v2 = _ss.random_supervector(5, rng, alg, parity=p2)
        sign = -1.0 if (p1 == ODD and p2 == ODD) else 1.0
        worst = max(worst, (v1.super_inner(v2).conj() - sign * v2.super_inner(v1)).max_abs())
    checks.append(
        _check("superspace.conjugate_symmetry", "conj(Phi1|Phi2) = (-1)^{pq} (Phi2|Phi1)", worst, tol_a)
    )

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
    checks.append(
        _check(
            "superspace.scalar_rule",
            "(b1 Phi1 | b2 Phi2) = (-1)^{p(Phi1) p(b2)} conj(b1) b2 (Phi1|Phi2)",
            worst,
            tol_a,
        )
    )

    v_even = _ss.random_supervector(5, rng, alg)
    v_odd = _ss.random_supervector(5, rng, alg)
    pure_even = _ss.SuperVector(alg, v_even.even, [alg.zero()] * 5)
    pure_odd = _ss.SuperVector(alg, [alg.zero()] * 5, v_odd.odd)
    worst = pure_even.super_inner(pure_odd).max_abs()
    checks.append(_check("superspace.sector_orthogonality", "even and odd sectors are orthogonal", worst, tol_a))

    n = 8
    k0 = _rep.build_generator("K0", n, alg)
    kp = _rep.build_generator("K+", n, alg)
    km = _rep.build_generator("K-", n, alg)
    vp = _rep.build_generator("V+", n, alg)
    wm = _rep.build_generator("W-", n, alg)
    worst = 0.0
    for p1 in (EVEN, ODD):
        v1 = _ss.random_supervector(n, rng, alg, parity=p1, support=6)
        v2 = _ss.random_supervector(n, rng, alg, support=6)
        worst = max(worst, _ss.superadjoint_defect(k0, k0, v1, v2).max_abs())
        worst = max(worst, _ss.superadjoint_defect(kp, km, v1, v2).max_abs())
        worst = max(worst, _ss.superadjoint_defect(vp, 1j * wm, v1, v2).max_abs())
    checks.append(
        _check("superspace.superadjoint", "claimed adjoints satisfy the defining identity", worst, tol_a)
    )

    v1 = _ss.random_supervector(n, rng, alg, parity=EVEN, support=6)
    v2 = _ss.random_supervector(n, rng, alg, support=6)
    bad = _ss.superadjoint_defect(kp, kp, v1, v2).max_abs()
    checks.append(
        _check(
            "superspace.negative_control",
            "claiming K+ as its own adjoint fails (defect = tol/defect_found)",
            tol_a / max(bad, 1e-300),
            1.0,
        )
    )
    return checks


# -- algebra (osp(2/2) structure) ------------------------------------------------------


def suite_algebra(cfg: RunConfig) -> list:
    alg = default_algebra()
    tol = cfg.tol("algebra")
    n_max = cfg.n_max
    checks = []

    report = _rep.verify_structure(n_max, alg, n_triples=20, seed=cfg.seed, tol=tol)
    table = [r for r in report["records"] if r["relation"].startswith("[") and "= 0" not in r["relation"]]
    zeros = [r for r in report["records"] if "= 0" in r["relation"]]
    jac = [r for r in report["records"] if r["relation"].startswith("graded")]
    checks.append(
        _check(
            "algebra.commutator_table",
            "all listed supercommutator relations on interior modes",
            max(r["max_defect"] for r in table),
            tol,
        )
    )
    checks.append(
        _check(
            "algebra.unlisted_pairs",
            "every unlisted generator pair supercommutes",
            max(r["max_defect"] for r in zeros),
            tol,
        )
    )
    checks.append(
        _check("algebra.jacobi", "graded Jacobi identity on 20 random triples", jac[0]["max_defect"], tol)
    )

    vac_report = _rep.vacuum_checks(max(8, min(n_max, 16)), alg)
    worst = max(r["defect"] for r in vac_report["records"])
    checks.append(
        _check("algebra.vacuum", "lowest-weight eigenvalues and annihilators, exact", worst, tol)
    )

    n_small = max(8, min(n_max, 16))
    vac = _ss.SuperVector.basis_state(0, 0, n_small, alg)
    vp = _rep.build_generator("V+", n_small, alg)
    atypical = abs(vp.apply(vac).norm() - 2**-0.5)
    checks.append(
        _check("algebra.atypicality", "V+ moves the vacuum (norm exactly 1/sqrt 2)", atypical, tol)
    )

    ops = {name: _rep.build_generator(name, n_max, alg) for name in _rep.GENERATOR_NAMES}
    adj_expect = {
        "K0": ops["K0"],
        "K+": ops["K-"],
        "K-": ops["K+"],
        "B": ops["B"],
        "V+": 1j * ops["W-"],
        "V-": 1j * ops["W+"],
        "W+": 1j * ops["V-"],
        "W-": 1j * ops["V+"],
    }
    worst = 0.0
    for name, want in adj_expect.items():
        worst = max(worst, (ops[name].superadjoint() - want).max_abs())
        worst = max(worst, (ops[name].superadjoint().superadjoint() - ops[name]).max_abs())
    checks.append(_check("algebra.superadjoint_table", "adjoint table and involution", worst, tol))

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
    checks.append(
        _check("algebra.adjoint_product", "(AC)+ = (-1)^{pq} C+ A+ on random pairs", worst_prod, tol)
    )
    checks.append(
        _check("algebra.adjoint_commutator", "[A,C]+ = -[A+, C+] on random pairs", worst_comm, tol)
    )

    worst = 0.0
    for j, name in enumerate(_rep.HERMITIAN_BASE, start=1):
        x = _rep.build_generator(name, n_max, alg)
        sign = -1.0 if x.parity_bit else 1.0
        worst = max(worst, (x.superadjoint() - sign * x).max_abs())
    checks.append(
        _check("algebra.hermitian_base", "X_j+ = (-1)^{p(X_j)} X_j for the eight combinations", worst, tol)
    )

    worst = 0.0
    for a_name in _rep.GENERATOR_NAMES:
        for c_name in _rep.GENERATOR_NAMES:
            comm = ops[a_name].supercommutator(ops[c_name])
            expect = ops[a_name].parity_bit ^ ops[c_name].parity_bit
            if comm.parity_bit != expect:
                worst = 1.0
            worst = max(worst, comm.block_pattern_defect())
    checks.append(
        _check("algebra.parity_bookkeeping", "p([A,C]) = p(A)+p(C) and sector block patterns", worst, tol)
    )

    ham = _rep.hamiltonian_check(n_max, alg, tol_matrix=tol, tol_quad=1e-8)
    checks.append(
        _check(
            "algebra.hamiltonian_matrix",
            "h = K+/2 + K-/2 + K0 equals the squared ladder sum on interior modes",
            ham["records"][0]["defect"],
            tol,
        )
    )
    checks.append(
        _check(
            "algebra.hamiltonian_blocks",
            "the Hamiltonian element preserves the sector block pattern",
            ham["records"][1]["defect"],
            tol,
        )
    )
    checks.append(
        _check(
            "algebra.hamiltonian_quadrature",
            "matrix elements and pointwise action match -d2/dx2 for m <= 6",
            max(ham["records"][2]["defect"], ham["records"][3]["defect"]),
            1e-8,
        )
    )
    checks.append(
        _check(
            "algebra.hamiltonian_vacuum",
            "<chi_0| h |chi_0> = 1/4 by quadrature",
            ham["records"][4]["defect"],
            cfg.tol("quadrature"),
        )
    )
    return checks


# -- coherent ---------------------------------------------------------------------------


def suite_coherent(cfg: RunConfig) -> list:
    alg = default_algebra()
    tol_c = cfg.tol("coherent")
    tol_q = cfg.tol("quadrature")
    tol_r = cfg.tol("residual")
    tol_i = cfg.tol("isometry")
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
    checks.append(
        _check("coherent.three_routes", "closed form / raising series / gamma expansion agree", worst_routes, tol_c)
    )
    checks.append(
        _check("coherent.unit_super_norm", "(Psi|Psi) = 1 exactly (nilpotent cancellation)", worst_norm, 1e-12)
    )
    checks.append(
        _check("coherent.residual", "both wave-function components solve the equation", worst_res, tol_r)
    )

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
    checks.append(_check("coherent.unit_l2_norm", "<psi_z|psi_z> = 1 by quadrature", worst, tol_q))
    checks.append(
        _check(
            "coherent.phi_norm",
            "|phi_z|^2 integrates to 1/(4 (1 - |z|^2))",
            worst_phi,
            tol_q,
        )
    )

    worst = 0.0
    for z in cfg.z_samples:
        p = _coh.CoherentParams(z, cfg.alpha_coeff)
        cf = _coh.closed_form(p, alg)
        for t in cfg.t_samples:
            worst = max(worst, (cf.norm_sq(t, spec) - 1.0).max_abs())
    checks.append(
        _check(
            "coherent.closed_norm_identity",
            "closed-form normalizer cancels the odd-sector nilpotent exactly",
            worst,
            1e-11,
        )
    )

    cal_z = next((z for z in cfg.z_samples if abs(complex(z).imag) > 1e-9), 0.3 + 0.25j)
    flag = _coh.calibrate_convention(cal_z, alg)
    checks.append(
        _check(
            "coherent.calibration",
            f"symbol convention calibrates to a single flag ({flag})",
            0.0 if flag in ("identity", "conjugate") else 1.0,
            1.0,
        )
    )

    worst = 0.0
    for z in cfg.z_samples:
        n = max(64, _coh.series_length_for(z, 1e-7))
        ops = {name: _rep.build_generator(name, n, alg) for name in _rep.GENERATOR_NAMES}
        for a in (0.0, cfg.alpha_coeff):
            p = _coh.CoherentParams(z, a)
            for name in _rep.GENERATOR_NAMES:
                got = _coh.berezin_symbol(ops[name], p, alg)
                want = _coh.expected_symbol(name, p, alg, flag)
                worst = max(worst, (got - want).max_abs())
    checks.append(
        _check(
            "coherent.symbols",
            "all eight generator symbols match the closed forms under the calibrated flag",
            worst,
            tol_c,
        )
    )

    worst_p = 0.0
    worst_fit = 0.0
    worst_mean = 0.0
    ts = (0.0, 1.0, 2.0, 3.0)
    for z in cfg.z_samples[:3]:
        p = _coh.CoherentParams(z, cfg.alpha_coeff)
        x0, p0 = _coh.trajectory_closed_form(p)
        abar = np.conjugate(cfg.alpha_coeff)
        sx, sp = [], []
        for t in ts:
            r = _coh.trajectory(p, t, alg, spec=spec)
            sx.append(r["x_theta"].coeff("alpha_bar"))
            sp.append(r["p_theta"].coeff("alpha_bar"))
            worst_mean = max(
                worst_mean,
                abs(r["mean_x_psi"]),
                abs(r["mean_x_phi"]),
                abs(r["mean_p_psi"]),
                abs(r["mean_p_phi"]),
            )
        sp = np.asarray(sp)
        sx = np.asarray(sx)
        worst_p = max(worst_p, float(np.abs(sp - p0 * abar).max()))
        coef = np.polyfit(ts, sx, 1)
        worst_fit = max(worst_fit, float(np.abs(np.polyval(coef, ts) - sx).max()))
        worst_fit = max(worst_fit, abs(coef[0] - 2.0 * p0 * abar), abs(coef[1] - x0 * abar))
    checks.append(
        _check("coherent.trajectory_momentum", "odd-sector momentum is constant and equals p0 conj(alpha)", worst_p, 1e-10)
    )
    checks.append(
        _check(
            "coherent.trajectory_line",
            "odd-sector position is affine in t with slope 2 p0 and intercept x0",
            worst_fit,
            1e-9,
        )
    )
    checks.append(
        _check("coherent.even_sector_rest", "<x> = <p> = 0 on both components by quadrature", worst_mean, 1e-10)
    )

    rng = np.random.default_rng(cfg.seed + 5)
    n_iso = 64
    worst = 0.0
    for z in (0.3, 0.2j):
        p = _coh.CoherentParams(z, cfg.alpha_coeff)
        dis = _coh.displacement_operator(p, n_iso, alg)
        for _ in range(2):
            v1 = _ss.random_supervector(n_iso, rng, alg, support=9)
            v2 = _ss.random_supervector(n_iso, rng, alg, support=9)
            d = (dis.apply(v1).super_inner(dis.apply(v2)) - v1.super_inner(v2)).max_abs()
            worst = max(worst, d)
    checks.append(
        _check("coherent.superisometry", "displacement preserves the super-Hermitian form", worst, tol_i)
    )

    worst = 0.0
    vac = _ss.SuperVector.basis_state(0, 0, n_iso, alg)
    for z in (0.3, 0.2j, 0.15 - 0.25j):
        dis = _coh.displacement_operator(_coh.CoherentParams(z), n_iso, alg)
        w = _coh.disk_parameter(z)
        ref = _coh.series_state(_coh.CoherentParams(w), n_iso, alg, tail_tol=1e-10)
        ov = ref.super_inner(dis.apply(vac))
        worst = max(worst, abs(abs(ov.body) - 1.0))
    checks.append(
        _check(
            "coherent.displacement_vacuum",
            "displaced vacuum matches the series state at the tanh disk coordinate",
            worst,
            tol_i,
        )
    )

    worst = 0.0
    for z in cfg.z_samples:
        ge, go = _coh.expansion_coefficients(z, 3)
        pref = (1.0 - abs(z) ** 2) ** 0.25
        worst = max(worst, abs(ge[0] - pref), abs(go[0] - 0.5 * pref))
        worst = max(worst, abs(ge[1] / ge[0] - z * np.sqrt(0.5)))
    checks.append(
        _check("coherent.expansion_values", "leading gamma-expansion coefficients and ratios", worst, 1e-12)
    )
    return checks


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
