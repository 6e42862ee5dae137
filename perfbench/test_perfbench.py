"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses

import pytest

import run
import speed

workloads = run._import_workloads()
import tracing  # noqa: E402  (needs osp22 on the path)

from osp22 import basis, representation, suites  # noqa: E402
from osp22.grassmann import GrassmannElement  # noqa: E402


def test_job_list_is_a_pure_function_of_the_seed():
    assert workloads.coherent_jobs(7) == workloads.coherent_jobs(7)
    assert workloads.coherent_jobs(7) != workloads.coherent_jobs(8)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_job_list_covers_the_accepted_domain(seed):
    jobs = workloads.coherent_jobs(seed)
    assert len(jobs) == workloads.COHERENT_JOBS
    assert (jobs[0].z, jobs[0].t) == (0.9, 0.0)
    assert abs(abs(jobs[1].z) - 0.9) < 1e-12
    assert all(abs(j.z) <= 0.9 + 1e-12 and -5.0 <= j.t <= 5.0 for j in jobs)
    assert any(j.alpha == 0 for j in jobs) and any(j.alpha != 0 for j in jobs)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_passes_give_identical_records(name):
    workload = workloads.build(name, 3)
    if name == "coherent_sweep":
        workload = dataclasses.replace(workload, units=workload.units[:4])
    reference = speed.Reference()
    plain = run.run_pass(workload, reference)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run.run_pass(workload, reference, tracer)
    assert not plain.raised and not traced.raised
    assert traced.fingerprints == plain.fingerprints
    assert traced.records == plain.records
    assert tracer.stats("bench.job")[0] == len(workload.units)
    assert sum(tracer.calls) > len(workload.units)
    metrics = run.per_layer(tracer, tracing, [traced], [plain])
    shares = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_share"))
    assert 0.9 < shares <= 1.0


def test_wrappers_are_removed_afterwards_even_on_error():
    before = (GrassmannElement.__mul__, basis.chi_matrix, representation.build_generator,
              suites.suite_checks, suites._basis.chi_matrix)
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert GrassmannElement.__mul__ is not before[0]
            assert suites._basis.chi_matrix is not before[1]
            raise RuntimeError("boom")
    after = (GrassmannElement.__mul__, basis.chi_matrix, representation.build_generator,
             suites.suite_checks, suites._basis.chi_matrix)
    assert after == before


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    outer, inner = tracer.name_id("a.outer"), tracer.name_id("a.inner")

    def child():
        return sum(range(20000))

    tracer.call(outer, lambda: tracer.call(inner, child, (), {}), (), {})
    calls, total, self_s = tracer.stats("a.outer")
    assert calls == 1
    assert self_s == pytest.approx(total - tracer.stats("a.inner")[1])
    assert list(tracer.span_parent) == [-1, 0]


def test_gate_separates_known_defects_from_new_failures():
    known = workloads.KNOWN_DEFECTS["algebra_n128"]
    records = [
        {"unit": "suite:algebra", "id": "algebra.jacobi", "defect": 2e-12, "tolerance": 1e-12, "pass": False},
        {"unit": "suite:algebra", "id": "algebra.vacuum", "defect": 0.0, "tolerance": 1e-12, "pass": True},
        {"unit": "suite:algebra", "id": "basis.ladder", "defect": 1.0, "tolerance": 1e-10, "pass": False},
    ]
    g = run.gate(records, known)
    assert (g["attempted"], g["passed"]) == (3, 1)
    assert g["unexpected"] == ["suite:algebra/basis.ladder"]
    records[1]["pass"] = False  # a record that disagrees with its own defect
    assert "suite:algebra/algebra.vacuum" in run.gate(records, known)["unexpected"]


def test_gate_rejects_a_known_defect_in_another_unit_or_workload():
    residual = {"id": "coherent.residual", "defect": 3.6e-6, "tolerance": 1e-6, "pass": False}
    sweep = workloads.KNOWN_DEFECTS["coherent_sweep"]
    assert run.gate([dict(residual, unit="job:0")], sweep)["unexpected"] == []
    assert run.gate([dict(residual, unit="job:5")], sweep)["unexpected"] == ["job:5/coherent.residual"]
    jacobi = {"unit": "suite:algebra", "id": "algebra.jacobi", "defect": 2e-12, "tolerance": 1e-12, "pass": False}
    verify = workloads.KNOWN_DEFECTS.get("verify_default", {})
    assert run.gate([jacobi], verify)["unexpected"] == ["suite:algebra/algebra.jacobi"]
