"""End-to-end acceptance gates.

Each release criterion is a set of gates on the check records of
``suites.suite_checks``: the suites are the one place a check is computed
and judged, and this module reads each record's verdict and tolerance.  It
states a bound of its own only where the release is stricter than the check
table.  Each record prints one PASS/FAIL line; the module doubles as the
release checklist.
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

# criterion -> [(gate label, config, check ids)]; a gate passes when every one of
# its records passes against the tolerance the record carries from ``CHECKS``.
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
        ),
    ],
    "02": [
        ("2a. orthonormality m,n <= 20 at t in {0, 0.5, 2}", "default", ("basis.orthonormality",)),
        ("2b. equation residual for m <= 20 on the 5x5 grid", "default", ("basis.residual",)),
    ],
    "03": [
        ("3a. quadrature rederives the frozen ladder coefficients", "default", ("basis.ladder",)),
        ("3b. sector weights 1/4 and 3/4 via the diagonal bilinear", "default", ("basis.sector_weights",)),
    ],
    "04": [
        (
            "4a. full supercommutator table + vanishing pairs at n_max=32",
            "default",
            ("algebra.commutator_table", "algebra.unlisted_pairs"),
        ),
        ("4b. graded Jacobi identity on 20 random triples", "default", ("algebra.jacobi",)),
    ],
    "05": [
        ("5a. lowest-weight eigenvalues and annihilators (exact)", "default", ("algebra.vacuum",)),
        ("5b. V+ does not annihilate the vacuum", "default", ("algebra.atypicality",)),
    ],
    "06": [
        (
            "6a. superadjoint table, product and commutator rules",
            "default",
            ("algebra.superadjoint_table", "algebra.adjoint_product", "algebra.adjoint_commutator"),
        ),
        ("6b. Berezin-integral oracle = fast form on 100 random pairs", "default", ("superspace.integral_oracle",)),
    ],
    "07": [
        ("7a. closed form / series / gamma expansion agree", "default", ("coherent.three_routes",)),
        ("7b. (Psi|Psi) = 1 with the nilpotent cancellation", "default", ("coherent.unit_super_norm",)),
    ],
    "08": [
        ("8. all eight generator symbols under one convention", "default", ("coherent.symbols",)),
    ],
    "09": [
        ("9a. odd-sector momentum symbol constant in t", "default", ("coherent.trajectory_momentum",)),
        ("9b. odd-sector line: slope 2 p0, intercept x0", "default", ("coherent.trajectory_line",)),
        ("9c. <x> = <p> = 0 on both components", "default", ("coherent.even_sector_rest",)),
    ],
    "10": [
        (
            "10a. displacement superisometry (|z| <= 0.3, support n <= 8, alpha = 0.7-0.4i)",
            "complex_alpha",
            ("coherent.superisometry",),
        ),
        (
            "10b. displaced vacuum = series state at the tanh disk coordinate",
            "default",
            ("coherent.displacement_vacuum",),
        ),
    ],
    "11": [
        ("11a. h = K+/2 + K-/2 + K0 = (a+ + a-)^2 on interior modes", "default", ("algebra.hamiltonian_matrix",)),
        (
            "11b. quadrature and pointwise action match -d2/dx2 for m <= 6",
            "default",
            ("algebra.hamiltonian_quadrature",),
        ),
    ],
}

# Release bounds stricter than the check table, by check id: 5a demands an
# exact 0.0 and 5b caps the atypicality defect below its 1e-12 table gate.
STRICTER = {"algebra.vacuum": 0.0, "algebra.atypicality": 1e-14}


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


def _verdict(record):
    """(pass, shown bound): the record's own verdict, and a stricter release bound if any."""
    bound = STRICTER.get(record["id"])
    if bound is None:
        return record["pass"], f"{record['tolerance']:.1e}"
    within = record["defect"] == 0.0 if bound == 0.0 else record["defect"] < bound
    return record["pass"] and within, "exact" if bound == 0.0 else f"{bound:.1e}"


def _gates(records, criterion):
    failed = []
    for label, config, ids in CRITERIA[criterion]:
        for cid in ids:
            record = records(config, cid)
            ok, shown = _verdict(record)
            line = f"{label} [{cid}]: defect={record['defect']:.3e} tolerance={shown}"
            print(f"[{'PASS' if ok else 'FAIL'}] {line}")
            if not ok:
                failed.append(line)
    assert not failed, "; ".join(failed)


def test_stricter_bounds_are_not_looser_than_the_table(records):
    for cid, bound in STRICTER.items():
        assert bound < records("default", cid)["tolerance"], cid


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

