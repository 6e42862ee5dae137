"""The benchmark's workloads, built only from osp22's public API.

A workload is a fixed list of units; one pass runs every unit once.  A unit
is one ``run_suite`` call on the verify workloads and one (z, alpha, t) job
on ``coherent_sweep``.  Every unit returns its check records (id, defect,
tolerance, pass) and a fingerprint of its deterministic output, which the
runner compares across passes and between traced and untraced passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from osp22 import basis, coherent, representation, superspace, suites
from osp22.config import DEFAULT_TOLERANCES, RunConfig
from osp22.grassmann import GENERATORS_EXTENDED, GrassmannAlgebra, default_algebra

WORKLOADS = ("verify_default", "algebra_n128", "coherent_sweep")

# Failures that ROADMAP records as known defects of the program, by workload
# and then by unit: the n_max scale defect of the algebra suite at n_max=128,
# and the coherent.residual stencil defect on the ring |z| = 0.9.  Job 0
# (z = 0.9, t = 0) always shows the stencil defect; job 1, also on the ring,
# shows it at a few (phase, t) pairs (5 of 2000 random draws, up to 3.1e-6).
# Just inside the ring, at the outermost area midpoint |z| = 0.884, the
# residual stayed below 4.7e-7 in 2000 draws.  Known failures count against
# pass_share like any failure.  Any other failure makes the run incorrect,
# including a known check that fails in another unit.
KNOWN_DEFECTS = {
    "algebra_n128": {"suite:algebra": frozenset({"algebra.commutator_table", "algebra.jacobi"})},
    "coherent_sweep": {
        "job:0": frozenset({"coherent.residual"}),
        "job:1": frozenset({"coherent.residual"}),
    },
}

COHERENT_JOBS = 16
RING = 0.9  # largest |z| that RunConfig.validate accepts for coherent suites
DISPLACEMENT_N = 64
ISOMETRY_PAIRS = 2

# Gates of the per-job checks: the suites' DEFAULT_TOLERANCES entry, or the
# fixed gate suite_coherent uses for the same quantity.
JOB_GATES = {
    "coherent.three_routes": DEFAULT_TOLERANCES["coherent"],
    "coherent.unit_super_norm": 1e-12,
    "coherent.residual": DEFAULT_TOLERANCES["residual"],
    "coherent.symbols": DEFAULT_TOLERANCES["coherent"],
    "coherent.trajectory_momentum": 1e-10,
    "coherent.trajectory_line": 1e-9,
    "coherent.even_sector_rest": 1e-10,
    "coherent.superisometry": DEFAULT_TOLERANCES["isometry"],
}


@dataclass(frozen=True)
class Job:
    z: complex
    alpha: complex
    t: float
    seed: int  # seeds the random supervectors of the superisometry check


def coherent_jobs(seed: int) -> list[Job]:
    """The (z, alpha, t) jobs of coherent_sweep: a pure function of ``seed``.

    The first job is z = 0.9, t = 0, where ROADMAP records the
    coherent.residual failure; the second lies on the ring |z| = 0.9 at a
    random phase.  The rest sit at the area midpoints of equal-area rings of
    the disk |z| < 0.9, at random phases.  The radii, which set the series
    lengths and so the cost of a job, are the same for every seed; t is
    stratified over [-5, 5] and every fourth job has alpha = 0.
    """
    rng = np.random.default_rng(seed)
    k = COHERENT_JOBS - 2
    radii = RING * np.sqrt((np.arange(k) + 0.5) / k)
    phases = rng.uniform(0.0, 2.0 * np.pi, k + 1)
    times = -5.0 + 10.0 * (rng.permutation(k + 1) + rng.random(k + 1)) / (k + 1)
    alphas = (rng.standard_normal(k + 2) + 1j * rng.standard_normal(k + 2)) / np.sqrt(2.0)
    job_seeds = rng.integers(0, 2**31, size=k + 2)
    points = [(complex(RING), 0.0)]
    points.append((complex(RING * np.exp(1j * phases[k])), float(times[k])))
    points += [(complex(r * np.exp(1j * p)), float(t)) for r, p, t in zip(radii, phases, times)]
    return [
        Job(z, 0j if i % 4 == 3 else complex(alphas[i]), t, int(job_seeds[i]))
        for i, (z, t) in enumerate(points)
    ]


def _record(cid: str, defect: float, tolerance: float) -> dict:
    defect = float(defect)
    return {"id": cid, "defect": defect, "tolerance": float(tolerance), "pass": bool(defect < tolerance)}


class CoherentSweep:
    """Inputs shared by the jobs: algebra, quadrature spec, calibration flag."""

    def __init__(self, seed: int):
        self.alg = default_algebra()
        self.spec = basis.QuadratureSpec(nodes=RunConfig().nodes)
        basis.quad_grid(0.0, self.spec)
        cal_z = next(z for z in RunConfig().z_samples if abs(complex(z).imag) > 1e-9)
        self.flag = coherent.calibrate_convention(cal_z, self.alg)
        self.jobs = coherent_jobs(seed)

    def run_job(self, job: Job) -> list:
        alg, spec = self.alg, self.spec
        p = coherent.CoherentParams(job.z, job.alpha)
        r = coherent.crosscheck(p, job.t, spec=spec)
        routes = max(r["max_pairwise_psi"], r["max_pairwise_phi"], r["coefficient_defect"])

        n = max(64, coherent.series_length_for(job.z, 1e-7))
        symbols = 0.0
        for name in representation.GENERATOR_NAMES:
            op = representation.build_generator(name, n, alg)
            got = coherent.berezin_symbol(op, p, alg)
            want = coherent.expected_symbol(name, p, alg, self.flag)
            symbols = max(symbols, (got - want).max_abs())

        tr = coherent.trajectory(p, job.t, alg, spec=spec)
        x0, p0 = coherent.trajectory_closed_form(p)
        abar = np.conjugate(job.alpha)
        momentum = abs(tr["p_theta"].coeff("alpha_bar") - p0 * abar)
        line = abs(tr["x_theta"].coeff("alpha_bar") - (2.0 * p0 * job.t + x0) * abar)
        rest = max(abs(tr[k]) for k in ("mean_x_psi", "mean_x_phi", "mean_p_psi", "mean_p_phi"))

        dis = coherent.displacement_operator(p, DISPLACEMENT_N, alg)
        rng = np.random.default_rng(job.seed)
        isometry = 0.0
        for _ in range(ISOMETRY_PAIRS):
            v1 = superspace.random_supervector(DISPLACEMENT_N, rng, alg, support=9)
            v2 = superspace.random_supervector(DISPLACEMENT_N, rng, alg, support=9)
            d = dis.apply(v1).super_inner(dis.apply(v2)) - v1.super_inner(v2)
            isometry = max(isometry, d.max_abs())

        defects = {
            "coherent.three_routes": routes,
            "coherent.unit_super_norm": r["norm_defect"],
            "coherent.residual": r["max_residual"],
            "coherent.symbols": symbols,
            "coherent.trajectory_momentum": momentum,
            "coherent.trajectory_line": line,
            "coherent.even_sector_rest": rest,
            "coherent.superisometry": isometry,
        }
        return [_record(cid, defects[cid], JOB_GATES[cid]) for cid in JOB_GATES]


@dataclass(frozen=True)
class Unit:
    label: str
    run: object  # () -> (check records, fingerprint of the deterministic output)
    n_checks: int  # records charged as failed if the unit raises


@dataclass(frozen=True)
class Workload:
    name: str
    units: list
    inputs: dict  # description of the generated inputs, for the report
    reference: str  # the speed.Reference kernel that matches the workload's work


def _suite_unit(name: str, cfg: RunConfig) -> Unit:
    def run():
        payload = suites.run_suite(name, cfg)["payload"]
        return payload["checks"], json.dumps(payload, sort_keys=True)

    return Unit(f"suite:{name}", run, 1)


def _job_unit(i: int, sweep: CoherentSweep, job: Job) -> Unit:
    def run():
        records = sweep.run_job(job)
        return records, json.dumps(records)

    return Unit(f"job:{i}", run, len(JOB_GATES))


def build(name: str, seed: int) -> Workload:
    """Set up a workload's inputs; everything done here counts as setup_s."""
    default_algebra()
    GrassmannAlgebra(GENERATORS_EXTENDED)
    if name in ("verify_default", "algebra_n128"):
        cfg = RunConfig() if name == "verify_default" else replace(RunConfig(), n_max=128)
        cfg.validate("all")
        basis.quad_grid(0.0, basis.QuadratureSpec(nodes=cfg.nodes))
        names = suites.SUITE_NAMES if name == "verify_default" else ("algebra",)
        units = [_suite_unit(s, cfg) for s in names]
        kernel = "mixed" if name == "verify_default" else "dense"
        return Workload(name, units, {"config": cfg.echo(), "suites": list(names)}, kernel)
    if name == "coherent_sweep":
        sweep = CoherentSweep(seed)
        units = [_job_unit(i, sweep, job) for i, job in enumerate(sweep.jobs)]
        jobs = [
            {"z": [job.z.real, job.z.imag], "alpha": [job.alpha.real, job.alpha.imag], "t": job.t}
            for job in sweep.jobs
        ]
        return Workload(name, units, {"calibration_flag": sweep.flag, "jobs": jobs}, "mixed")
    raise ValueError(f"unknown workload {name!r}")
