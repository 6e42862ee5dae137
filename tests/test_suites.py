"""The check table ``suites.CHECKS`` and the records the suites emit agree.

Each suite emits exactly its rows of the table, in table order, and each
record's tolerance is the row's gate: a config tolerance read through
``RunConfig.tol`` or the row's literal.  A NaN among a check's defects makes
its record NaN and failing.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osp22 import basis as _basis
from osp22 import coherent as _coh
from osp22 import grassmann as _grassmann
from osp22 import representation as _rep
from osp22 import suites as _suites
from osp22 import superspace as _ss
from osp22.basis import QuadratureSpec
from osp22.cli import main
from osp22.config import DEFAULT_TOLERANCES, DISK_RADIUS, MAX_N_MAX, TOP_QUADRATURE_MODE, RunConfig
from osp22.grassmann import (
    GENERATORS_EXTENDED,
    GrassmannAlgebra,
    GrassmannElement,
    ProductPlan,
    default_algebra,
    random_element,
)
from osp22.representation import hamiltonian_defects
from osp22.suites import CHECKS, SUITE_NAMES, _check, suite_checks, symbol_rows, symbols_check, trajectory_rows
from osp22.superspace import random_supervector

# six distinct values, none equal to a default or to a literal gate, so a
# record read through the wrong key shows
DISTINCT = {name: (k + 2) * 1e-3 for k, name in enumerate(DEFAULT_TOLERANCES)}


def _rows(suite):
    return [cid for cid in CHECKS if cid.split(".", 1)[0] == suite]


def test_every_row_belongs_to_a_suite():
    assert sum(len(_rows(suite)) for suite in SUITE_NAMES) == len(CHECKS)


def test_key_gates_are_tolerance_names():
    keys = {gate for gate, _ in CHECKS.values() if isinstance(gate, str)}
    assert keys <= set(DEFAULT_TOLERANCES)
    assert all(isinstance(gate, (str, float)) for gate, _ in CHECKS.values())


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_records_follow_the_table(suite):
    assert [c["id"] for c in suite_checks(suite, RunConfig())] == _rows(suite)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_record_tolerance_is_the_gate(suite):
    cfg = replace(RunConfig(), tolerances=dict(DISTINCT))
    for record in suite_checks(suite, cfg):
        gate, _ = CHECKS[record["id"]]
        assert record["tolerance"] == (cfg.tol(gate) if isinstance(gate, str) else gate), record["id"]


def test_basis_negative_control_follows_the_residual_gate():
    """defect = gate / residual of the non-solution exp(-x^2), at the configured residual gate."""
    defects = {}
    for tol in (1e-6, 1e-3):
        cfg = replace(RunConfig(), tolerances={**DEFAULT_TOLERANCES, "residual": tol})
        (record,) = [c for c in suite_checks("basis", cfg) if c["id"] == "basis.negative_control"]
        defects[tol] = record["defect"]
    assert defects[1e-6] == pytest.approx(5.02e-7, rel=1e-3)
    assert defects[1e-3] == pytest.approx(1e3 * defects[1e-6], rel=1e-12)


def test_algebra_quadrature_reads_the_node_count():
    cfg = replace(RunConfig(), nodes=22)
    ham = hamiltonian_defects(cfg.n_max, default_algebra(), QuadratureSpec(nodes=22))
    records = {c["id"]: c["defect"] for c in suite_checks("algebra", cfg)}
    assert records["algebra.hamiltonian_quadrature"] == max(ham["quadrature"], ham["pointwise"])
    assert records["algebra.hamiltonian_vacuum"] == ham["vacuum"]
    # the default rule gives other figures, so the node count did reach the suite
    assert hamiltonian_defects(cfg.n_max, default_algebra())["vacuum"] != ham["vacuum"]


NAN = float("nan")


def _nan_at(index):
    """Poison for a dict of named defects: its ``index``-th value becomes NaN."""
    return lambda values: {k: NAN if i == index else v for i, (k, v) in enumerate(values.items())}


def _nan_at_row(row):
    """The poison that makes one row of a batched result NaN."""

    def poison(r):
        r = r.copy()
        r[row] = NAN
        return r

    return poison


# (suite, owner, library call, poisoned call, poison, the check it feeds): at least one
# check per suite, each poisoned at a sample after its first.  The Berezin check integrates
# its random samples in blocks of rows; call 7 is the first block's b, and row 1 is its second sample.
# The ladder and sector-weight checks take all modes of one t at once; row 5 is mode 5.  Call 2 is
# the lowering kets at t = 0, call 6 the 9-point symmetric kets at t = 0.  The superspace checks
# evaluate blocks of rounds; round 20 is a row inside the second block
POISONED = [
    ("grassmann", GrassmannAlgebra, "berezin_coeffs", 7, _nan_at_row(1), "grassmann.berezin"),
    # call 2 draws the parity check's pairs: a NaN in the second pair's a makes its product NaN
    ("grassmann", _suites, "_homogeneous_pairs", 2, lambda r: [(_nan_at_row(1)(r[0][0]), *r[0][1:])], "grassmann.parity"),
    ("basis", _basis, "schrodinger_residual", 3, lambda r: NAN, "basis.residual"),
    ("basis", _basis, "eval_chi_derivatives", 2, lambda r: tuple(_nan_at_row(5)(a) for a in r), "basis.ladder"),
    (
        "basis",
        _basis,
        "eval_chi_derivatives",
        6,
        lambda r: tuple(_nan_at_row(5)(a) for a in r),
        "basis.sector_weights",
    ),
    # the oracle's one draw holds 24 rows a round: row 483 is row 3 of round 20's first vector
    ("superspace", _suites, "random_coefficients", 1, _nan_at_row(483), "superspace.integral_oracle"),
    # one draw a round after the oracle's: call 22 is round 20's, call 72 that of the scalar
    # rule's, and row 0 is slot 0 of its first vector
    ("superspace", _suites, "random_coefficients", 22, _nan_at_row(0), "superspace.conjugate_symmetry"),
    ("superspace", _suites, "random_coefficients", 72, _nan_at_row(0), "superspace.scalar_rule"),
    (
        "algebra",
        _rep,
        "_structure_defects",
        1,
        lambda r: {**r, "table": _nan_at(3)(r["table"])},
        "algebra.commutator_table",
    ),
    ("algebra", _rep, "hamiltonian_defects", 1, lambda r: {**r, "pointwise": NAN}, "algebra.hamiltonian_quadrature"),
    ("algebra", _rep, "vacuum_defects", 1, lambda r: {**r, "lowest_weight": _nan_at(2)(r["lowest_weight"])}, "algebra.vacuum"),
    ("coherent", _basis, "schrodinger_residual", 4, lambda r: NAN, "coherent.residual"),
]


@pytest.mark.parametrize("suite, owner, name, call, poison, cid", POISONED, ids=[p[-1] for p in POISONED])
def test_a_nan_defect_fails_its_check(suite, owner, name, call, poison, cid, poison_call, tmp_path):
    """A NaN at a non-first sample reaches the record as NaN, fails it and exits 1."""
    poison_call(owner, name, call, poison)
    assert main(["verify", suite, "--out", str(tmp_path)]) == 1
    doc = json.loads((tmp_path / f"osp22_verify_{suite}.json").read_text())
    records = {c["id"]: c for c in doc["payload"]["checks"]}
    assert math.isnan(records[cid]["defect"])
    assert [c for c, r in records.items() if not r["pass"]] == [cid]
    assert not doc["payload"]["overall_pass"]


def test_empty_defects_read_zero():
    assert _check(RunConfig(), "basis.residual", [])["defect"] == 0.0


def test_symbols_check_keeps_a_nan_row():
    rows = [{"defect": 1e-12}, {"defect": NAN}, {"defect": 2e-12}]
    record = symbols_check(RunConfig(), rows)
    assert math.isnan(record["defect"]) and not record["pass"]


def test_trajectory_rows_keep_a_nan_mean(poison_call):
    """mean_x and mean_p are the larger of two components; a NaN component is not dropped.
    The moments of the second t are poisoned."""
    poison = lambda r: {**r, "mean_x_phi": complex(NAN), "mean_p_phi": complex(NAN)}
    poison_call(_coh.ClosedFormState, "moments", 2, poison)
    tr = trajectory_rows(_coh.CoherentParams(0.3, 1.0), (0.0, 1.0, 2.0), default_algebra(), QuadratureSpec())
    means = [(r["mean_x"], r["mean_p"]) for r in tr["rows"]]
    assert all(math.isnan(v) for v in means[1])
    assert all(v < 1e-10 for k in (0, 2) for v in means[k])


def _grassmann_loop_defects(cfg):
    """The grassmann suite's defects drawn and multiplied one element at a time: the reference
    for the suite's blocks of rows, which must draw the same stream and round the same way."""
    rng = np.random.default_rng(cfg.seed)
    algebras = (default_algebra(), GrassmannAlgebra(GENERATORS_EXTENDED))
    out = {}

    defects = []
    for k in range(250):
        alg = algebras[k % 2]
        a, b, c = (random_element(alg, rng) for _ in range(3))
        scale = alg.plan.sign_free_mul(alg.plan.sign_free_mul(a.coeffs, b.coeffs), c.coeffs).max()
        defects.append(((a * b) * c - a * (b * c)).max_abs() / scale)
    out["grassmann.associativity"] = defects

    defects = []
    for k in range(250):
        alg = algebras[k % 2]
        pa, pb = (1 - int(rng.integers(2)) for _ in range(2))
        a = random_element(alg, rng, parity=pa)
        b = random_element(alg, rng, parity=pb)
        sign = -1.0 if (pa and pb) else 1.0
        defects.append((a * b - sign * (b * a)).max_abs() / (a.max_abs() * b.max_abs()))
    out["grassmann.supercommutativity"] = defects

    defects = []
    for k in range(250):
        alg = algebras[k % 2]
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        defects.append(((a * b).conj() - a.conj() * b.conj()).max_abs())
        defects.append((a.conj().conj() - a).max_abs())
    out["grassmann.conjugation"] = defects

    over = ("theta", "theta_bar")
    alg, ext = algebras
    defects = [
        ((alg.gen("theta_bar") * alg.gen("theta")).berezin(over) - 1.0).max_abs(),
        alg.one().berezin(over).max_abs(),
        ((alg.gen("alpha_bar") * alg.gen("alpha")).berezin(("alpha", "alpha_bar")) - 1.0).max_abs(),
        ((ext.gen("theta_bar") * ext.gen("theta")).berezin(over) - 1.0).max_abs(),
    ]
    for k in range(250):
        ak = algebras[k % 2]
        a = random_element(ak, rng)
        b = random_element(ak, rng)
        defects.append(((a + 2.5 * b).berezin(over) - (a.berezin(over) + 2.5 * b.berezin(over))).max_abs())
        with_theta = (np.arange(ak.size) & (1 << ak.index["theta"])) != 0
        defects.append(GrassmannElement(ak, np.where(with_theta, 0j, a.coeffs)).berezin(("theta",)).max_abs())
    out["grassmann.berezin"] = defects

    defects = []
    for _ in range(100):
        pa, pb = (1 - int(rng.integers(2)) for _ in range(2))
        prod = random_element(algebras[0], rng, parity=pa) * random_element(algebras[0], rng, parity=pb)
        size = prod.max_abs()
        if size != 0:
            try:
                wrong = prod.parity_bit != pa ^ pb
            except ValueError:  # a mixed product
                wrong = True
            defects.append(size if math.isnan(size) else float(wrong))
    out["grassmann.parity"] = defects
    return out


@pytest.mark.parametrize("seed", [RunConfig().seed, 7])
def test_grassmann_blocks_match_the_element_loop(seed):
    """Every sampled grassmann check reads bit for bit the defect of the one-element-at-a-time
    loop; nilpotency draws nothing, and the loop omits it."""
    cfg = replace(RunConfig(), seed=seed)
    records = {r["id"]: r["defect"] for r in suite_checks("grassmann", cfg)}
    for cid, defects in _grassmann_loop_defects(cfg).items():
        assert records[cid] == _check(cfg, cid, defects)["defect"], cid


def _basis_loop_defects(cfg):
    """The ladder and sector-weight defects taken one mode and one sign at a time: the reference
    for the suite's calls over all modes, which must round the same way."""
    spec = QuadratureSpec(nodes=cfg.nodes)
    top = TOP_QUADRATURE_MODE
    ladder, weights = [], []
    for t in (0.0, 1.0):
        x, w = _basis.quad_grid(t, spec)
        bras = _basis.chi_matrix(range(top + 1), x, t)
        grid = np.linspace(-4.0, 4.0, 9)
        for m in range(top):
            for sign in ("+", "-"):
                coeff, target = _basis.apply_ladder(sign, m)
                av = _basis.ladder_pointwise(sign, m, x, t)
                if target is None:
                    ladder.append(abs(complex(np.sum(w * np.conjugate(av) * av))) ** 0.5)
                else:
                    ladder.append(abs(complex(np.sum(w * np.conjugate(bras[target]) * av)) - coeff))
            sym = _basis.symmetric_ladder_pointwise(m, x, t)
            weights.append(abs(complex(np.sum(w * np.conjugate(bras[m]) * sym)) - (0.5 * m + 0.25)))
            point = _basis.symmetric_ladder_pointwise(m, grid, t) - (0.5 * m + 0.25) * _basis.eval_chi(m, grid, t)
            weights.append(np.abs(point).max())
    return {"basis.ladder": ladder, "basis.sector_weights": weights}


def _superspace_loop_defects(cfg):
    """The sampled superspace defects drawn and evaluated one pair of vectors at a time: the
    reference for the suite's blocks of rounds, which must draw the same stream and round the
    same way."""
    alg = _ss.coefficient_algebra(default_algebra())
    spec = QuadratureSpec(nodes=cfg.nodes)
    rng = np.random.default_rng(cfg.seed + 3)
    out = {}

    defects = []
    for _ in range(100):
        v1 = random_supervector(6, rng, alg)
        v2 = random_supervector(6, rng, alg)
        defects.append((v1.super_inner(v2) - _ss.super_inner_integral(v1, v2, 0.0, spec)).max_abs())
    out["superspace.integral_oracle"] = defects

    defects = []
    for _ in range(50):
        p1, p2 = (1 - int(rng.integers(2)) for _ in range(2))
        v1 = random_supervector(5, rng, alg, parity=p1)
        v2 = random_supervector(5, rng, alg, parity=p2)
        sign = -1.0 if (p1 and p2) else 1.0
        defects.append((v1.super_inner(v2).conj() - sign * v2.super_inner(v1)).max_abs())
    out["superspace.conjugate_symmetry"] = defects

    defects = []
    for _ in range(50):
        p1 = 1 - int(rng.integers(2))
        pb = 1 - int(rng.integers(2))
        v1 = random_supervector(5, rng, alg, parity=p1)
        v2 = random_supervector(5, rng, alg)
        b1 = random_element(alg, rng)
        b2 = random_element(alg, rng, parity=pb)
        sign = -1.0 if (p1 and pb) else 1.0
        lhs = (b1 * v1).super_inner(b2 * v2)
        rhs = sign * (b1.conj() * b2 * v1.super_inner(v2))
        defects.append((lhs - rhs).max_abs())
    out["superspace.scalar_rule"] = defects
    return out


@pytest.mark.parametrize("seed, nodes", [(RunConfig().seed, RunConfig().nodes), (7, 120)])
@pytest.mark.parametrize("suite, loop", [("basis", _basis_loop_defects), ("superspace", _superspace_loop_defects)])
def test_array_checks_match_the_loop(suite, loop, seed, nodes):
    """Every check the suite evaluates over all modes, or over blocks of rounds, reads bit for
    bit the defect of the one-at-a-time loop."""
    cfg = replace(RunConfig(), seed=seed, nodes=nodes)
    records = {r["id"]: r["defect"] for r in suite_checks(suite, cfg)}
    for cid, defects in loop(cfg).items():
        assert records[cid] == _check(cfg, cid, defects)["defect"], cid


def _dense_max_abs(op, cols):
    """``op.max_abs(columns=cols)`` read from the assembled blocks."""
    return max((float(np.abs(op.block(m)[:, cols]).max()) for m in op.blocks), default=0.0)


def _algebra_loop_defects(cfg):
    """The algebra suite's pair, Jacobi, adjoint-rule and parity defects with every
    supercommutator and product formed by its own call, and every column maximum read from
    the assembled blocks: the reference for the suite's one table of generator products."""
    names = _rep.GENERATOR_NAMES
    ops = {name: _rep.build_generator(name, cfg.n_max, default_algebra()) for name in names}
    pair, triple = _rep.interior_columns(cfg.n_max, 2), _rep.interior_columns(cfg.n_max, 3)
    scale = lambda a, c: _dense_max_abs(ops[a], pair) * _dense_max_abs(ops[c], pair)
    out = {"algebra.commutator_table": [], "algebra.unlisted_pairs": []}

    listed = set()
    for a, c, combo in _rep.COMMUTATOR_TABLE:
        listed |= {(a, c), (c, a)}
        got = ops[a].supercommutator(ops[c]) - _rep._combo(combo, ops)
        out["algebra.commutator_table"].append(_dense_max_abs(got, pair) / scale(a, c))
    for i, a in enumerate(names):
        for c in names[i:]:
            if (a, c) not in listed:
                got = ops[a].supercommutator(ops[c])
                out["algebra.unlisted_pairs"].append(_dense_max_abs(got, pair) / scale(a, c))

    rng = np.random.default_rng(cfg.seed)
    out["algebra.jacobi"] = []
    for _ in range(20):
        a, c, e = (ops[names[k]] for k in rng.integers(0, 8, size=3))
        sign = -1.0 if (a.parity_bit and c.parity_bit) else 1.0
        jac = (
            a.supercommutator(c.supercommutator(e))
            - a.supercommutator(c).supercommutator(e)
            - sign * c.supercommutator(a.supercommutator(e))
        )
        size = np.prod([_dense_max_abs(x, triple) for x in (a, c, e)])
        out["algebra.jacobi"].append(_dense_max_abs(jac, triple) / size)

    rng = np.random.default_rng(cfg.seed + 4)
    products, commutators = [], []
    for _ in range(20):
        a, c = (ops[names[k]] for k in rng.integers(0, 8, size=2))
        sign = -1.0 if (a.parity_bit and c.parity_bit) else 1.0
        products.append(((a @ c).superadjoint() - sign * (c.superadjoint() @ a.superadjoint())).max_abs())
        commutators.append(
            (a.supercommutator(c).superadjoint() + a.superadjoint().supercommutator(c.superadjoint())).max_abs()
        )
    out["algebra.adjoint_product"], out["algebra.adjoint_commutator"] = products, commutators

    out["algebra.parity_bookkeeping"] = []
    for a in names:
        for c in names:
            comm = ops[a].supercommutator(ops[c])
            expect = ops[a].parity_bit ^ ops[c].parity_bit
            out["algebra.parity_bookkeeping"] += [float(comm.parity_bit != expect), comm.block_pattern_defect()]
    return out


@pytest.mark.parametrize("seed", [RunConfig().seed, 1, 101])
@pytest.mark.parametrize("n_max", [8, 17, 128])
def test_algebra_table_matches_the_pair_loop(n_max, seed):
    """Every algebra check that reads the shared table of generator products reads bit for bit
    the defect of the loop that forms each product and supercommutator where it is used."""
    cfg = replace(RunConfig(), n_max=n_max, seed=seed)
    records = {r["id"]: r["defect"] for r in suite_checks("algebra", cfg)}
    for cid, defects in _algebra_loop_defects(cfg).items():
        assert records[cid] == _check(cfg, cid, defects)["defect"], cid


def _crosscheck_loop(cfg):
    """One ``crosscheck`` per (z, t, alpha), each with its own series chain and chi kernel."""
    spec = QuadratureSpec(nodes=cfg.nodes)
    alphas = (0.0, cfg.alpha_coeff)
    return [
        _coh.crosscheck(_coh.CoherentParams(z, a), t, spec=spec)
        for z in cfg.z_samples
        for t in cfg.t_samples
        for a in alphas
    ]


def _trajectory_rows_loop(params, ts, algebra, spec):
    """``trajectory_rows`` from one ``trajectory`` call per t, each with its own series state."""
    x0, p0 = _coh.trajectory_closed_form(params)
    rows = []
    for t in ts:
        r = _coh.trajectory(params, t, algebra, spec=spec)
        rows.append(
            {
                "t": float(t),
                "x_theta": r["x_theta"].coeff("alpha_bar"),
                "p_theta": r["p_theta"].coeff("alpha_bar"),
                "mean_x": float(np.max([abs(r["mean_x_psi"]), abs(r["mean_x_phi"])])),
                "mean_p": float(np.max([abs(r["mean_p_psi"]), abs(r["mean_p_phi"])])),
            }
        )
    sx = np.asarray([r["x_theta"] for r in rows])
    fit = np.polyfit(ts, sx, 1)
    residual = float(np.abs(np.polyval(fit, ts) - sx).max())
    return {"x0": x0, "p0": p0, "rows": rows, "fit": fit, "fit_residual": residual}


def _symbol_loop(cfg):
    """((z, alpha, generator), symbol) from one ``berezin_symbols`` call per (z, alpha)."""
    alg = default_algebra()
    out = []
    for z in cfg.z_samples:
        n = max(64, _coh.series_length_for(z, 1e-7))
        ops = [_rep.build_generator(name, n, alg) for name in _rep.GENERATOR_NAMES]
        for a in (0.0, cfg.alpha_coeff):
            symbols = _coh.berezin_symbols(ops, _coh.CoherentParams(z, a), alg)
            out += [((z, a, name), got) for name, got in zip(_rep.GENERATOR_NAMES, symbols)]
    return out


COHERENT_CONFIGS = [
    RunConfig(),
    replace(RunConfig(), z_samples=(0.9 + 0j, -0.9j, 0j), t_samples=(-5.0, 50.0), alpha_coeff=0.7 - 0.4j, nodes=120),
]


@pytest.mark.parametrize("cfg", COHERENT_CONFIGS, ids=["default", "ring"])
def test_coherent_sharing_matches_the_loop(cfg):
    """The suite's shared chains, chi kernels, states and closed forms give, bit for bit, the
    values of one public call per (z, t, alpha), per t and per alpha."""
    cfg.validate("coherent")
    alg = default_algebra()
    spec = QuadratureSpec(nodes=cfg.nodes)
    loop = _crosscheck_loop(cfg)
    kernels = _coh._crosscheck_kernels(cfg.z_samples, cfg.t_samples)
    shared = [
        r
        for z in cfg.z_samples
        for reports in _coh._crosschecks(z, (0.0, cfg.alpha_coeff), cfg.t_samples, algebra=alg, kernels=kernels)
        for r in reports
    ]
    assert shared == loop
    records = {r["id"]: r["defect"] for r in suite_checks("coherent", cfg)}
    defects = {
        "coherent.three_routes": [
            r[k] for r in loop for k in ("max_pairwise_psi", "max_pairwise_phi", "coefficient_defect")
        ],
        "coherent.unit_super_norm": [r["norm_defect"] for r in loop],
        "coherent.residual": [r["max_residual"] for r in loop],
    }
    for cid, values in defects.items():
        assert records[cid] == _check(cfg, cid, values)["defect"], cid

    ts = (0.0, 1.0, 2.0, 3.0)  # the times of suite_coherent's trajectory checks
    for z in cfg.z_samples[:3]:
        p = _coh.CoherentParams(z, cfg.alpha_coeff)
        got, want = trajectory_rows(p, ts, alg, spec), _trajectory_rows_loop(p, ts, alg, spec)
        assert got["rows"] == want["rows"] and got["fit_residual"] == want["fit_residual"]
        assert np.array_equal(got["fit"], want["fit"])

    _, rows = symbol_rows(cfg)
    loop = _symbol_loop(cfg)
    assert [(r["z"], r["alpha_coeff"], r["generator"]) for r in rows] == [key for key, _ in loop]
    for r, (_, symbol) in zip(rows, loop):
        assert np.array_equal(r["computed"].coeffs, symbol.coeffs)


# calls per suite pass: a per-sample loop that comes back multiplies these
CALL_CEILINGS = [
    # was 603: 4 per integral-oracle pair and 4 per scalar-rule round, now 4 per block of rounds
    pytest.param("superspace", ProductPlan, "mul", 47, id="superspace"),
    # was 538: the ladder and sector-weight checks made 210 of them, one per mode; then 338, where
    # the derivative check evaluated 9 stencil values a round; now each of its 5 points once
    pytest.param("basis", _basis, "_packets", 218, id="basis"),
    # was 16: one chi kernel per (z, t, alpha) crosscheck; now one per t
    pytest.param("coherent", _basis, "_packets", 2, id="coherent-packets"),
    # was 32: psi and phi per (z, t, alpha); now per (z, t)
    pytest.param("coherent", _basis, "schrodinger_residual", 16, id="coherent-residual"),
    # was 48 series states: now one chain per z for the crosschecks (4), the calibration (1),
    # the symbols (4), the trajectories (3) and the displacement references (3)
    pytest.param("coherent", _coh, "_series_chain", 15, id="coherent-chains"),
    # was 28: the closed-norm identity formed its own moments at each (z, t) the norm checks had
    # just formed; now it reads theirs, and the trajectories form the other 12
    pytest.param("coherent", _coh.ClosedFormState, "moments", 20, id="coherent-moments"),
    # was 32: hamiltonian_defects took -chi_m'' one mode at a time; now one call per t and route
    pytest.param("algebra", _basis, "_packets", 8, id="algebra-packets"),
    # was 560 and 260: the pairs, the Jacobi triples' inner brackets, the adjoint rules and the
    # parity bookkeeping each formed their own; now the 64 generator products are formed once
    # and every generator bracket is read from them
    pytest.param("algebra", _rep.SuperOperator, "__matmul__", 244, id="algebra-products"),
    pytest.param("algebra", _rep.SuperOperator, "supercommutator", 80, id="algebra-brackets"),
    # was 152: the superadjoint table and each adjoint round formed their own generator
    # adjoints; now the 8 are formed once, and the involutions, the 20 products, the 20
    # brackets and the 8 Hermitian-base generators take one each
    pytest.param("algebra", _rep.SuperOperator, "superadjoint", 64, id="algebra-superadjoints"),
    # was 486: each difference scaled its right operand by -1 first, and each bracket, Jacobi
    # sum and adjoint rule by +-1 before that; now every sign folds into one merge, and only
    # the combinations' and the superadjoint table's coefficients scale
    pytest.param("algebra", _rep.SuperOperator, "__rmul__", 46, id="algebra-scalings"),
    # was 700: one per homogeneous element; now one per pair, both elements in one call.  The
    # suites and superspace import the function by name, so each module's name is counted
    pytest.param("grassmann", (_grassmann, _suites, _ss), "random_coefficients", 350, id="grassmann-draws"),
    # was 517: one per sector of each vector and one per scalar; now one per sampling round and
    # one per vector outside the rounds
    pytest.param("superspace", (_grassmann, _suites, _ss), "random_coefficients", 109, id="superspace-draws"),
]


@pytest.mark.parametrize("suite, owner, name, ceiling", CALL_CEILINGS)
def test_suite_call_ceiling(suite, owner, name, ceiling, monkeypatch):
    calls = []

    def counted(original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for module in owner if isinstance(owner, tuple) else (owner,):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    suite_checks(suite, RunConfig())
    assert 0 < len(calls) <= ceiling


def test_supercommutativity_fails_on_a_flipped_sector_sign(monkeypatch):
    """The check reads the sector products: one sign flipped in the odd-by-even table of the
    6-generator plan fails it, and no other check."""
    plan = GrassmannAlgebra(GENERATORS_EXTENDED).plan
    left, right, sign, *rest = plan._sectors[1, 0]
    sign = sign.copy()
    sign[0] = -sign[0]
    monkeypatch.setitem(plan._sectors, (1, 0), (left, right, sign, *rest))
    failed = [r["id"] for r in suite_checks("grassmann", RunConfig()) if not r["pass"]]
    assert failed == ["grassmann.supercommutativity"]


@pytest.mark.parametrize("seed", [97, 1193])
def test_hermite_passes_where_cancellation_is_worst(seed):
    """Seeds whose draws hit the recurrence's cancellation: 1.255e-12 and 7.208e-12 against the
    1e-12 gate while each difference was divided by max(1, |He_n|)."""
    record = next(r for r in suite_checks("basis", replace(RunConfig(), seed=seed)) if r["id"] == "basis.hermite")
    assert record["pass"] and record["defect"] < 1e-15


def test_hermite_watches_the_chi_recurrence(monkeypatch):
    """Rows k >= 1 of the recurrence every chi runs, each scaled by 1 + 1e-9, fail basis.hermite:
    the check reads the rows ``_packets`` reads, not a copy of them."""
    rows, chi = _basis._hermite_rows, _basis.eval_chi(1, 0.5, 0.0)
    perturbed = lambda z, size: [h if k == 0 else h * (1.0 + 1e-9) for k, h in enumerate(rows(z, size))]
    monkeypatch.setattr(_basis, "_hermite_rows", perturbed)
    assert _basis.eval_chi(1, 0.5, 0.0) != chi
    record = next(r for r in suite_checks("basis", RunConfig()) if r["id"] == "basis.hermite")
    assert not record["pass"] and record["defect"] > 1e-10


def _disk_point(radius, phase):
    """radius * e^{i phase}, moved inward an ulp at a time until it lies in the closed disk, so
    a ring point drawn at DISK_RADIUS is one that ``validate`` accepts."""
    z = radius * np.exp(1j * phase)
    while abs(z) > DISK_RADIUS:
        z *= 1.0 - 2.0**-53
    return complex(z)


_PHASES = st.floats(-np.pi, np.pi)
_RADII = st.one_of(st.just(DISK_RADIUS), st.floats(0.0, DISK_RADIUS))
# the validated domain: n_max in [8, MAX_N_MAX], nodes in [22, 320], |z| <= 0.9, any real t, any seed;
# alpha stays in |alpha| <= 2 because the absolute coherent gates fail at large alpha
SWEEP = st.builds(
    RunConfig,
    n_max=st.sampled_from([8, 17, 32, 64, 128, MAX_N_MAX]),
    nodes=st.sampled_from([22, 200, 320]),
    z_samples=st.lists(st.builds(_disk_point, _RADII, _PHASES), min_size=1, max_size=3).map(tuple),
    t_samples=st.lists(
        st.one_of(st.floats(-5.0, 5.0), st.sampled_from([50.0, 1e3])), min_size=1, max_size=3
    ).map(tuple),
    alpha_coeff=st.builds(lambda r, phase: complex(r * np.exp(1j * phase)), st.floats(0.0, 2.0), _PHASES),
    seed=st.integers(min_value=0),
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(cfg=SWEEP, suites=st.lists(st.sampled_from(SUITE_NAMES), min_size=1, max_size=2, unique=True))
def test_every_check_passes_over_the_validated_domain(cfg, suites):
    """Each drawn point lies in the domain ``validate`` accepts, and there every record passes."""
    for suite in suites:
        cfg.validate(suite)
        failed = [(r["id"], r["defect"], r["tolerance"]) for r in suite_checks(suite, cfg) if not r["pass"]]
        assert not failed, (suite, cfg)


def test_algebra_passes_at_the_ceiling():
    """The largest truncation ``validate`` accepts, which the sweep's draws need not reach."""
    cfg = replace(RunConfig(), n_max=MAX_N_MAX)
    cfg.validate("algebra")
    failed = [(r["id"], r["defect"]) for r in suite_checks("algebra", cfg) if not r["pass"]]
    assert not failed
