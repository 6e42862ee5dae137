"""osp22 benchmark: one workload, timed end to end or traced layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify_default --seed 1 --seconds 20 --trace 0

It imports osp22 from ``src/`` of that checkout and nothing else of the repo.
Untraced (``--trace 0``) it reports the end-to-end metrics; traced
(``--trace 1``) it alternates untraced and traced passes and reports the
per-layer metrics.  Every metric is printed by name with its unit, then the
provenance block, and the last line of standard output is the JSON result.
Details, and the spans of a traced run, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: idle OpenBLAS workers spin on the second core, which makes
# timings follow whatever else the machine runs.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
SETUP_REFERENCE_SAMPLES = 20
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "pass_s": "s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "setup_s": "s",
    "pass_share": "ratio",
    "min_margin": "ratio",
    "peak_rss_mb": "MiB",
}


def _limit_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _import_workloads():
    """Import the benchmark's workloads against the checkout's own osp22."""
    src = ROOT / "src"
    if not (src / "osp22" / "__init__.py").is_file():
        raise FileNotFoundError(f"no osp22 sources under {src}")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


# -- passes ------------------------------------------------------------------------


@dataclass
class PassResult:
    reference_s: float  # the reference kernel's time at reference speed
    unit_seconds: list = field(default_factory=list)  # raw wall time of each unit
    reference: list = field(default_factory=list)  # reference-kernel samples, in time order
    records: list = field(default_factory=list)  # check records, each tagged with its unit
    fingerprints: list = field(default_factory=list)
    raised: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.unit_seconds)

    @property
    def scaled_unit_seconds(self) -> list:
        """Unit times at reference machine speed.

        Unit k ran between ``reference[k + w - 1]`` and ``reference[k + w]``;
        it is scaled by the median of the ``w`` samples on each side of it.
        """
        w = speed.WINDOW
        return [
            s * self.reference_s / statistics.median(self.reference[k : k + 2 * w])
            for k, s in enumerate(self.unit_seconds)
        ]

    @property
    def seconds(self) -> float:
        """Pass time at reference machine speed."""
        return sum(self.scaled_unit_seconds)


def run_pass(workload, reference, tracer=None) -> PassResult:
    res = PassResult(reference.ref_s)
    job_span = tracer.name_id("bench.job") if tracer is not None else None
    res.reference.extend(reference.sample() for _ in range(speed.WINDOW))
    for k, unit in enumerate(workload.units):
        if k:
            res.reference.append(reference.sample())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                records, fingerprint = unit.run()
            else:
                records, fingerprint = tracer.call(job_span, unit.run, (), {})
        except Exception as exc:  # a raising unit is a failed operation, not a crash
            res.raised.append(f"{unit.label}: {exc!r}")
            records = [
                {"id": f"{unit.label}.raised", "defect": math.inf, "tolerance": 0.0, "pass": False}
            ] * unit.n_checks
            fingerprint = f"raised:{unit.label}"
        res.unit_seconds.append(time.perf_counter() - t0)
        res.records.extend(dict(r, unit=unit.label) for r in records)
        res.fingerprints.append(fingerprint)
    res.reference.extend(reference.sample() for _ in range(speed.WINDOW))
    return res


def gate(records: list, known_defects: dict) -> dict:
    """Compare each defect with its tolerance; list failures outside the known defects.

    ``known_defects`` maps a unit label to the check ids that may fail in that
    unit; a failure of any other (unit, check) pair is unexpected.
    """
    passed = [r["defect"] < r["tolerance"] for r in records]
    disagree = [f"{r['unit']}/{r['id']}" for r, ok in zip(records, passed) if ok != r["pass"]]
    failed = [r for r, ok in zip(records, passed) if not ok]
    new = [f"{r['unit']}/{r['id']}" for r in failed if r["id"] not in known_defects.get(r["unit"], ())]
    return {
        "attempted": len(records),
        "passed": sum(passed),
        "failed_ids": [f"{r['unit']}/{r['id']}" for r in failed],
        "unexpected": sorted(set(new) | set(disagree)),
    }


def margin(record: dict) -> float:
    """tolerance / defect; infinite for an exact zero, zero for a non-finite defect."""
    d = record["defect"]
    if d == 0.0:
        return math.inf
    if not math.isfinite(d):
        return 0.0
    return record["tolerance"] / d


# -- provenance ----------------------------------------------------------------------


def _blas_threads_reported():
    """Thread count the loaded OpenBLAS reports, read through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    found = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found or None


def _git(*args):
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_reported": _blas_threads_reported(),
        "nproc": NPROC,
        "machine": platform.machine(),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }


# -- setup probes ----------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time importing osp22 and building the workload's inputs."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    workloads.build(workload, seed)
    wall = time.perf_counter() - t0
    reference = speed.Reference()
    samples = [reference.sample() for _ in range(SETUP_REFERENCE_SAMPLES)]
    print(json.dumps({"setup_s": wall * reference.scale(samples), "wall_s": wall}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


# -- metrics ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def unit_medians(passes: list) -> list[float]:
    """Each unit's median latency over the passes at reference speed, in unit order."""
    return [statistics.median(times) for times in zip(*(p.scaled_unit_seconds for p in passes))]


def end_to_end(passes: list, setup: list[dict], checks: dict, min_margin: float) -> dict:
    units = unit_medians(passes)
    return {
        "pass_s": statistics.median(p.seconds for p in passes),
        "job_ms.p50": 1000.0 * percentile(units, 50),
        "job_ms.p90": 1000.0 * percentile(units, 90),
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "pass_share": checks["passed"] / checks["attempted"],
        "min_margin": min_margin,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, tracing, traced: list, untraced: list) -> dict:
    """Per-pass layer figures from the traced passes, as (value, unit) pairs.

    Layer times are raw wall-clock seconds, and shares are taken over raw
    traced pass time; only the overhead compares times at reference speed.
    """
    n = len(traced)
    busy = sum(p.wall_s for p in traced)
    out = {}
    for layer, name, _, _ in tracing.TARGETS:
        calls, _, self_s = tracer.stats(f"{layer}.{name}")
        out[f"{layer}.{name}.calls"] = (calls / n, "count")
        out[f"{layer}.{name}.self_s"] = (self_s / n, "s")
    c = tracer.counters
    out["representation.matmul.block_products"] = (c["representation.matmul.block_products"] / n, "count")
    out["representation.matmul.gflop"] = (c["representation.matmul.gflop"] / n, "GFLOP-computed")
    out["basis.chi_matrix.values"] = (c["basis.chi_matrix.values"] / n, "count")
    series_calls = tracer.stats("coherent.series_state")[0]
    slots_mean = c["coherent.series_state.slots_sum"] / series_calls if series_calls else 0.0
    out["coherent.series_state.slots_mean"] = (slots_mean, "count")
    out["coherent.series_state.slots_max"] = (float(c["coherent.series_state.slots_max"]), "count")
    from osp22.suites import SUITE_NAMES

    for suite in SUITE_NAMES:
        out[f"suites.{suite}.s"] = (tracer.stats(f"suites.{suite}")[1] / n, "s")
    for layer in tracing.LAYERS:
        out[f"{layer}.self_share"] = (tracer.layer_self_s(layer) / busy, "ratio")
    out["bench.self_share"] = (tracer.layer_self_s("bench") / busy, "ratio")
    untraced_s = statistics.median(p.seconds for p in untraced)
    out["trace.overhead_share"] = (statistics.median(p.seconds for p in traced) / untraced_s - 1.0, "ratio")
    return out


# -- main --------------------------------------------------------------------------------


def measure(workloads, tracing, name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = measure_setup(name, seed)
    workload = workloads.build(name, seed)
    reference = speed.Reference(workload.reference)
    warm = run_pass(workload, reference)
    expected = warm.fingerprints

    untraced, traced = [], []
    tracer = tracing.Tracer() if trace else None
    min_passes = 1 if trace else MIN_PASSES
    deadline = time.perf_counter() + seconds
    while len(untraced) < min_passes or time.perf_counter() < deadline:
        untraced.append(run_pass(workload, reference))
        if trace:
            tracer.pass_id = len(traced)
            with tracing.installed(tracer):
                traced.append(run_pass(workload, reference, tracer))

    all_passes = [warm] + untraced + traced
    checks = gate(untraced[0].records, workloads.KNOWN_DEFECTS.get(name, {}))
    drift = [i for i, p in enumerate(all_passes) if p.fingerprints != expected]
    raised = sorted({r for p in all_passes for r in p.raised})
    min_margin = min(margin(r) for r in untraced[0].records)
    correct = not drift and not raised and not checks["unexpected"]

    result = {
        "workload": name,
        "trace": trace,
        "inputs": workload.inputs,
        "reference_kernel": workload.reference,
        "setup_samples": setup,
        "pass_s": quartiles([p.seconds for p in untraced]),
        "pass_wall_s": quartiles([p.wall_s for p in untraced]),
        "reference_ms": quartiles([1000.0 * s for p in untraced for s in p.reference]),
        "job_ms_medians": [1000.0 * s for s in unit_medians(untraced)],
        "checks": {
            "attempted": checks["attempted"],
            "failed": checks["attempted"] - checks["passed"],
            "failed_ids": checks["failed_ids"],
            "unexpected_failures": checks["unexpected"],
        },
        "drifted_passes": drift,
        "raised": raised,
        "records": untraced[0].records,
    }
    if trace:
        result["traced_pass_s"] = quartiles([p.seconds for p in traced])
        result["traced_pass_wall_s"] = quartiles([p.wall_s for p in traced])
        metrics = per_layer(tracer, tracing, traced, untraced)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.npz"
        tracer.save(spans_path, name)
        result["spans"] = str(spans_path.relative_to(ROOT))
    else:
        values = end_to_end(untraced, setup, checks, min_margin)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    n_units = len(workload.units)
    result.update(
        correct=correct,
        attempted=n_units * len(untraced + traced),
        failed=sum(len(p.raised) for p in untraced + traced),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    return result


def report(result: dict, prov: dict) -> None:
    width = max(len(k) for k in result["metrics"])
    for key, m in result["metrics"].items():
        print(f"{key:<{width}}  {m['value']:.6g} {m['unit']}")
    for key in ("pass_s", "pass_wall_s", "reference_ms"):
        q = result[key]
        print(f"{key} quartiles: q1 {q['q1']:.4f} median {q['median']:.4f} q3 {q['q3']:.4f}, n={q['n']}")
    c = result["checks"]
    print(f"fail_share {c['failed']}/{c['attempted']} checks in one pass; failed: {c['failed_ids']}")
    if c["unexpected_failures"] or result["drifted_passes"] or result["raised"]:
        print(f"INCORRECT: unexpected {c['unexpected_failures']}, drifted passes "
              f"{result['drifted_passes']}, raised {result['raised']}")
    print("provenance " + json.dumps(prov, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _limit_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    try:
        workloads = _import_workloads()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}; run from the root of an osp22 source checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import tracing

    result = measure(workloads, tracing, args.workload, args.seed, args.seconds, bool(args.trace))
    prov = provenance(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(dict(result, provenance=prov), indent=1, default=str) + "\n")
    report(result, prov)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
