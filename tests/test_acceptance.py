"""End-to-end acceptance gates.

Each release criterion is a set of gates on the check records of
``suites.suite_checks``: the suites are the one place a check is computed,
and this module only reads their defects against the release tolerances.
Each gate prints one PASS/FAIL line; the module doubles as the release
checklist.
"""

from dataclasses import replace

import pytest

from osp22.config import RunConfig
from osp22.suites import SUITE_NAMES, suite_checks

# Criterion 10a runs the coherent suite at a complex odd parameter as well.
CONFIGS = {
    "default": (RunConfig(), SUITE_NAMES),
    "complex_alpha": (replace(RunConfig(), alpha_coeff=0.7 - 0.4j), ("coherent",)),
}

# criterion -> [(gate label, config, check ids, tolerance)]; the gate defect is
# the largest defect of its checks, and a tolerance of None demands exactly 0.0.
CRITERIA = {
    "01": [
        (
            "1. Grassmann axioms (1000 randomized cases)",
            "default",
            (
                "grassmann.associativity",
                "grassmann.supercommutativity",
                "grassmann.conjugation",
                "grassmann.berezin",
            ),
            1e-14,
        ),
    ],
    "02": [
        ("2a. orthonormality m,n <= 20 at t in {0, 0.5, 2}", "default", ("basis.orthonormality",), 1e-10),
        ("2b. equation residual for m <= 20 on the 5x5 grid", "default", ("basis.residual",), 1e-6),
    ],
    "03": [
        ("3a. quadrature rederives the frozen ladder coefficients", "default", ("basis.ladder",), 1e-10),
        ("3b. sector weights 1/4 and 3/4 via the diagonal bilinear", "default", ("basis.sector_weights",), 1e-10),
    ],
    "04": [
        (
            "4a. full supercommutator table + vanishing pairs at n_max=32",
            "default",
            ("algebra.commutator_table", "algebra.unlisted_pairs"),
            1e-12,
        ),
        ("4b. graded Jacobi identity on 20 random triples", "default", ("algebra.jacobi",), 1e-12),
    ],
    "05": [
        ("5a. lowest-weight eigenvalues and annihilators (exact)", "default", ("algebra.vacuum",), None),
        ("5b. V+ does not annihilate the vacuum", "default", ("algebra.atypicality",), 1e-14),
    ],
    "06": [
        (
            "6a. superadjoint table, product and commutator rules",
            "default",
            ("algebra.superadjoint_table", "algebra.adjoint_product", "algebra.adjoint_commutator"),
            1e-12,
        ),
        ("6b. Berezin-integral oracle = fast form on 100 random pairs", "default", ("superspace.integral_oracle",), 1e-10),
    ],
    "07": [
        ("7a. closed form / series / gamma expansion agree", "default", ("coherent.three_routes",), 1e-8),
        ("7b. (Psi|Psi) = 1 with the nilpotent cancellation", "default", ("coherent.unit_super_norm",), 1e-12),
    ],
    "08": [
        ("8. all eight generator symbols under one convention", "default", ("coherent.symbols",), 1e-8),
    ],
    "09": [
        ("9a. odd-sector momentum symbol constant in t", "default", ("coherent.trajectory_momentum",), 1e-10),
        ("9b. odd-sector line: slope 2 p0, intercept x0", "default", ("coherent.trajectory_line",), 1e-9),
        ("9c. <x> = <p> = 0 on both components", "default", ("coherent.even_sector_rest",), 1e-10),
    ],
    "10": [
        (
            "10a. displacement superisometry (|z| <= 0.3, support n <= 8, alpha = 0.7-0.4i)",
            "complex_alpha",
            ("coherent.superisometry",),
            1e-6,
        ),
        (
            "10b. displaced vacuum = series state at the tanh disk coordinate",
            "default",
            ("coherent.displacement_vacuum",),
            1e-6,
        ),
    ],
    "11": [
        ("11a. h = K+/2 + K-/2 + K0 = (a+ + a-)^2 on interior modes", "default", ("algebra.hamiltonian_matrix",), 1e-12),
        (
            "11b. quadrature and pointwise action match -d2/dx2 for m <= 6",
            "default",
            ("algebra.hamiltonian_quadrature",),
            1e-8,
        ),
    ],
}


@pytest.fixture(scope="module")
def records():
    """Check records by config name and id; each config's suites run once."""
    cache = {}

    def lookup(config, cid):
        if config not in cache:
            cfg, suites = CONFIGS[config]
            cache[config] = {c["id"]: c for suite in suites for c in suite_checks(suite, cfg)}
        return cache[config][cid]

    return lookup


def _gates(records, criterion):
    failed = []
    for label, config, ids, tol in CRITERIA[criterion]:
        defect = max(records(config, cid)["defect"] for cid in ids)
        ok = defect == 0.0 if tol is None else defect < tol
        shown = "exact" if tol is None else f"{tol:.1e}"
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: defect={defect:.3e} tolerance={shown}")
        if not ok:
            failed.append(f"{label}: defect {defect:.3e} exceeds tolerance {shown}")
    assert not failed, "; ".join(failed)


def test_criterion_01_grassmann_axioms(records):
    _gates(records, "01")


def test_criterion_02_basis_integrity(records):
    _gates(records, "02")


def test_criterion_03_ladder_derivation(records):
    _gates(records, "03")


def test_criterion_04_supercommutator_table(records):
    _gates(records, "04")


def test_criterion_05_vacuum_atypicality(records):
    _gates(records, "05")


def test_criterion_06_superadjoints(records):
    _gates(records, "06")


def test_criterion_07_three_route_agreement(records):
    _gates(records, "07")


def test_criterion_08_berezin_symbols(records):
    _gates(records, "08")


def test_criterion_09_trajectory(records):
    _gates(records, "09")


def test_criterion_10_displacement(records):
    _gates(records, "10")


def test_criterion_11_hamiltonian_element(records):
    _gates(records, "11")

