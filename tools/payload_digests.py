"""Print one ``<name> <sha256>`` line per deterministic osp22 payload.

Each digest is the SHA-256 of a payload serialized as sorted JSON, so two
source trees produce the same lines exactly when their payloads are
byte-identical.  Run from the root of a checkout, with osp22 taken from
``PYTHONPATH``, which may point at another checkout's ``src/``:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/payload_digests.py

The payloads are ``verify all`` at ``RunConfig()``; the algebra suite at
n_max 8, 17, 40, 128 and 512 and at seed 101; the coherent suite at
alpha = 0.7-0.4i; the 16 job records of the benchmark's ``coherent_sweep``
workload at seed 1201, built by this checkout's ``perfbench/workloads.py``;
the files that the ``profile``, ``symbols`` and ``trajectory`` commands
export at their defaults; and, as ``verify-csv``, the check table that
``verify all --format csv`` writes to ``osp22_verify_all.csv``.  Each file
is written to a temporary directory through ``osp22.cli.main`` and digested
as written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from osp22.cli import main as cli_main
from osp22.config import RunConfig
from osp22.suites import run_suite

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is a directory of scripts, not a package)

BASE = RunConfig()
SUITE_RUNS = {
    "all": ("all", BASE),
    **{f"algebra.n_max={n}": ("algebra", replace(BASE, n_max=n)) for n in (8, 17, 40, 128, 512)},
    "algebra.seed=101": ("algebra", replace(BASE, seed=101)),
    "coherent.alpha=0.7-0.4i": ("coherent", replace(BASE, alpha_coeff=0.7 - 0.4j)),
}
SWEEP_SEED = 1201
SWEEP_NAME = f"coherent_sweep.seed={SWEEP_SEED}"
EXPORTS = {  # name: (command line, file it writes)
    "profile": (["profile"], "osp22_profile.csv"),
    "symbols": (["symbols"], "osp22_symbols.json"),
    "trajectory": (["trajectory"], "osp22_trajectory.csv"),
    "verify-csv": (["verify", "all", "--format", "csv"], "osp22_verify_all.csv"),
}


def payloads():
    """(name, payload) pairs, in the order they are printed."""
    for name, (suite, cfg) in SUITE_RUNS.items():
        cfg.validate(suite)
        yield name, run_suite(suite, cfg)["payload"]
    sweep = workloads.build("coherent_sweep", SWEEP_SEED)
    yield SWEEP_NAME, [unit.run()[0] for unit in sweep.units]


def exports():
    """(name, file bytes) pairs of each export command line run at its defaults."""
    with tempfile.TemporaryDirectory() as out:
        for name, (argv, filename) in EXPORTS.items():
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main([*argv, "--out", out])
            yield name, (Path(out) / filename).read_bytes()


def main() -> None:
    for name, payload in payloads():
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        print(name, digest, flush=True)
    for name, data in exports():
        print(name, hashlib.sha256(data).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
