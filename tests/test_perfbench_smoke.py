"""The benchmark's workloads import and run against this tree's osp22.

The Tier-1 run does not collect ``perfbench/test_perfbench.py``, so this smoke
test imports ``perfbench/workloads.py`` as the benchmark does, builds every
workload and runs one coherent_sweep job.  That job calls ``crosscheck``,
``berezin_symbol``, ``trajectory`` and ``SuperOperator.max_abs``.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads


def test_workloads_build_and_one_job_runs(workloads):
    built = {name: workloads.build(name, 1) for name in workloads.WORKLOADS}
    assert [len(built[name].units) for name in workloads.WORKLOADS] == [5, 1, workloads.COHERENT_JOBS]
    records, fingerprint = built["coherent_sweep"].units[2].run()  # inside the ring |z| = 0.9
    assert [r["id"] for r in records] == list(workloads.JOB_GATES)
    assert all(r["pass"] for r in records), records
    assert fingerprint
