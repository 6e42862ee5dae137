"""The check table ``suites.CHECKS`` and the records the suites emit agree.

Each suite emits exactly its rows of the table, in table order, and each
record's tolerance is the row's gate: a config tolerance read through
``RunConfig.tol`` or the row's literal.
"""

from dataclasses import replace

import pytest

from osp22.basis import QuadratureSpec
from osp22.config import DEFAULT_TOLERANCES, RunConfig
from osp22.grassmann import default_algebra
from osp22.representation import hamiltonian_defects
from osp22.suites import CHECKS, SUITE_NAMES, suite_checks

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
