"""``tools/payload_digests.py`` still describes runs this tree accepts.

The tool is the one-command byte-identity check between two source trees,
and Tier-1 never runs it: its lines mean something only beside another
tree's (the whole tool takes about 1.3 s on a 2-core machine).  This test
imports it and checks, without computing a payload, that every export
command line parses, every suite config validates for its suite, and no two
digest lines share a name.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from osp22 import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "payload_digests.py"


@pytest.fixture(scope="module")
def digests():
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("payload_digests", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path  # the tool puts perfbench/ on the path to import the workloads
    return module


def test_export_command_lines_parse(digests):
    parser = cli.build_parser()
    for name, (argv, filename) in digests.EXPORTS.items():
        args = parser.parse_args([*argv, "--out", "."])
        assert args.command == argv[0] and filename.startswith(f"osp22_{argv[0]}"), name


def test_suite_configs_validate(digests):
    for name, (suite, cfg) in digests.SUITE_RUNS.items():
        cfg.validate(suite)


def test_digest_names_are_unique(digests):
    names = [*digests.SUITE_RUNS, digests.SWEEP_NAME, *digests.EXPORTS]
    assert len(set(names)) == len(names) == 13
