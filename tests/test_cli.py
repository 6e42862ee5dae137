import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from osp22.basis import QuadratureSpec
from osp22.cli import _attach_signed_values, _collect_config, build_parser, main
from osp22.coherent import CoherentParams
from osp22.config import (
    DEFAULT_TOLERANCES,
    MAX_N_MAX,
    MAX_NODES,
    MIN_NODES,
    TOP_QUADRATURE_MODE,
    ConfigError,
    build_config,
    format_complex,
    load_config_file,
    parse_complex,
)
from osp22.grassmann import default_algebra
from osp22.suites import suite_checks, trajectory_rows


class TestComplexParsing:
    def test_real(self):
        assert parse_complex("0.3") == 0.3

    def test_imaginary_suffix_i(self):
        assert parse_complex("0.5i") == 0.5j

    def test_full_form(self):
        assert parse_complex("-0.7+0.2i") == -0.7 + 0.2j

    def test_round_trip(self):
        for c in (0.3, 0.5j, -0.7 + 0.2j, -1.5j):
            assert parse_complex(format_complex(c)) == complex(c)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_complex("zebra")


class TestConfig:
    def test_defaults_validate(self):
        build_config().validate("all")

    def test_file_and_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_max = 16\nnodes = 100  # comment\ntol_algebra = 1e-11\n")
        values = load_config_file(str(path))
        cfg = build_config(values, {"nodes": 150})
        assert cfg.n_max == 16
        assert cfg.nodes == 150  # CLI flag wins
        assert cfg.tol("algebra") == 1e-11

    @pytest.mark.parametrize("key", list(DEFAULT_TOLERANCES))
    def test_tol_flag_reaches_the_config(self, key, monkeypatch):
        monkeypatch.delenv("OSP22_CONFIG", raising=False)
        cfg = _collect_config(build_parser().parse_args(["verify", "basis", f"--tol-{key}", "3.5e-5"]))
        assert cfg.tolerances == {**DEFAULT_TOLERANCES, key: 3.5e-5}

    def test_empty_out_exits_2(self, capsys):
        assert main(["verify", "grassmann", "--out="]) == 2
        assert "out must name a file or directory" in capsys.readouterr().err

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            build_config({"mystery": "1"})

    def test_boundary_z_rejected_for_coherent(self):
        cfg = build_config(overrides={"z_samples": (0.99,)})
        cfg.validate("basis")
        with pytest.raises(ConfigError):
            cfg.validate("coherent")

    @pytest.mark.parametrize(
        "line",
        # the last three name no tolerance, so they must not add one that no check reads
        [
            "n_max = abc",
            "t_samples = 0,x",
            "tol_algebra = x",
            "tol_quadature = 1e-20",
            "tol_ = 1",
            "tol_tol_algebra = 1",
        ],
    )
    def test_unparsable_file_value_exits_2(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError):
            build_config(load_config_file(str(path)))
        code = main(["verify", "basis", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2

    def test_env_var_config(self, tmp_path, monkeypatch):
        path = tmp_path / "env.cfg"
        path.write_text("seed = 7\n")
        monkeypatch.setenv("OSP22_CONFIG", str(path))
        from osp22.config import config_file_from_env

        assert config_file_from_env() == str(path)


TOLERANCE_FLAGS = tuple(f"--tol-{name}" for name in DEFAULT_TOLERANCES)
# the flags every command took when all of them shared one parent
SHARED_FLAGS = ("--config", "--nmax", "--nodes", "--seed", "--z", "--alpha", "--t", "--out", "--format")
SHARED_FLAGS += TOLERANCE_FLAGS
COMMAND_FLAGS = {  # the flags whose settings each command reads
    "verify": SHARED_FLAGS,
    "profile": ("--config", "--z", "--alpha", "--t", "--out", "--xmax", "--xpoints"),
    "symbols": ("--config", "--z", "--alpha", "--out", "--tol-coherent"),
    "trajectory": ("--config", "--z", "--alpha", "--t", "--nodes", "--out"),
}
REMOVED = [(cmd, flag) for cmd, flags in COMMAND_FLAGS.items() for flag in SHARED_FLAGS if flag not in flags]
VALID_VALUES = {"--nmax": "16", "--nodes": "100", "--seed": "3", "--t": "0,1,2", "--format": "csv"}


def _help_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return set(re.findall(r"--[a-z][\w-]*", capsys.readouterr().out)) - {"--help"}


class TestCommandFlags:
    def test_removed_pairs_are_counted(self):
        assert len(REMOVED) == 29

    @pytest.mark.parametrize("command, flag", REMOVED, ids=[f"{c}{f}" for c, f in REMOVED])
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys, command, flag):
        """A valid value for a flag the command ignores exits 2 and writes nothing."""
        value = VALID_VALUES.get(flag, "1")
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_help_lists_exactly_the_flags_read(self, capsys, command):
        assert _help_flags(command, capsys) == set(COMMAND_FLAGS[command])

    def test_readme_command_lines_parse(self, capsys):
        """Every ``osp22`` line of README's command-line section parses, and its list of
        each command's flags is the command's --help."""
        section = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("## Command line")[1]
        section = section.split("\n## ")[0]
        lines = re.findall(r"^osp22 (.*?)(?:\s+#.*)?$", section, flags=re.M)
        assert {shlex.split(line)[0] for line in lines} == set(COMMAND_FLAGS)
        for line in lines:
            build_parser().parse_args(_attach_signed_values(shlex.split(line)))
        listed = dict(re.findall(r"^- `osp22 (\w+)[^`]*`: (.*)$", section, flags=re.M))
        assert set(listed) == set(COMMAND_FLAGS)
        for command, flags in listed.items():
            assert set(re.findall(r"--[a-z][\w-]*", flags)) == _help_flags(command, capsys), command


class TestVerifyCommand:
    def test_grassmann_suite_passes(self, tmp_path):
        code = main(["verify", "grassmann", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "osp22_verify_grassmann.json").read_text())
        assert doc["payload"]["overall_pass"]
        assert doc["payload"]["n_checks"] >= 5

    def test_check_lines_show_margin(self, tmp_path, capsys):
        main(["verify", "grassmann", "--out", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        doc = json.loads((tmp_path / "osp22_verify_grassmann.json").read_text())
        checks = {c["id"]: c for c in doc["payload"]["checks"]}
        assert checks["grassmann.conjugation"]["defect"] == 0.0
        assert "[PASS] grassmann.conjugation: defect=0.000e+00 tol=1.0e-14 margin=inf" in lines
        assoc = checks["grassmann.associativity"]
        margin = assoc["tolerance"] / assoc["defect"]
        assert any(
            line.startswith("[PASS] grassmann.associativity:") and line.endswith(f"margin={margin:.3g}")
            for line in lines
        )

    def test_boundary_z_exits_2(self, tmp_path, capsys):
        code = main(["verify", "coherent", "--z", "0.99", "--out", str(tmp_path)])
        assert code == 2

    # every z on the ring |z| = DISK_RADIUS; the first non-real one calibrates the symbols
    RING_Z = ("--z", "0.9i", "--z=-0.9i", "--z", "0.9,0.8598028402130454+0.2659681859952056i")

    def test_ring_z_set_passes(self, tmp_path):
        assert main(["verify", "coherent", *self.RING_Z, "--out", str(tmp_path)]) == 0
        assert main(["symbols", *self.RING_Z, "--out", str(tmp_path)]) == 0

    def test_nodes_below_the_floor_exit_2(self, tmp_path, capsys):
        assert main(["verify", "basis", "--nodes", str(MIN_NODES - 1), "--out", str(tmp_path)]) == 2
        assert f"[{MIN_NODES}, 320]" in capsys.readouterr().err

    def test_nodes_at_the_floor_pass(self, tmp_path):
        assert MIN_NODES == TOP_QUADRATURE_MODE + 1 == 22
        assert main(["verify", "basis", "--nodes", str(MIN_NODES), "--out", str(tmp_path)]) == 0

    def test_one_node_ceiling(self, tmp_path, capsys):
        """The config and the quadrature rule reject the same node counts, each with its own error."""
        assert main(["verify", "basis", "--nodes", str(MAX_NODES + 1), "--out", str(tmp_path)]) == 2
        assert f"[{MIN_NODES}, {MAX_NODES}]" in capsys.readouterr().err
        assert QuadratureSpec(nodes=MAX_NODES).nodes == MAX_NODES
        with pytest.raises(ValueError, match="node count too large"):
            QuadratureSpec(nodes=MAX_NODES + 1)

    def test_near_real_z_before_a_calibration_point(self, tmp_path):
        """The first z is too close to real to calibrate on, so 0.5i is used and all checks pass."""
        assert main(["verify", "coherent", "--z", "1e-10+2e-9i,0.5i", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "osp22_verify_coherent.json").read_text())
        (record,) = [c for c in doc["payload"]["checks"] if c["id"] == "coherent.calibration"]
        assert record["pass"] and record["description"].endswith("(conjugate)")

    def test_report_payload_deterministic(self, tmp_path):
        main(["verify", "grassmann", "--out", str(tmp_path / "a")])
        main(["verify", "grassmann", "--out", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a" / "osp22_verify_grassmann.json").read_text())
        b = json.loads((tmp_path / "b" / "osp22_verify_grassmann.json").read_text())
        assert json.dumps(a["payload"], sort_keys=True) == json.dumps(b["payload"], sort_keys=True)

    @pytest.mark.parametrize(
        "flag, value",
        [("--t", "-3,0"), ("--z", "-0.3+0.2i"), ("--alpha", "-0.8-0.3i")],
    )
    def test_negative_value_as_separate_token(self, tmp_path, flag, value):
        joined = main(["verify", "basis", f"{flag}={value}", "--out", str(tmp_path / "a")])
        spaced = main(["verify", "basis", flag, value, "--out", str(tmp_path / "b")])
        assert joined == spaced == 0
        a = json.loads((tmp_path / "a" / "osp22_verify_basis.json").read_text())
        b = json.loads((tmp_path / "b" / "osp22_verify_basis.json").read_text())
        assert json.dumps(a["payload"], sort_keys=True) == json.dumps(b["payload"], sort_keys=True)

    def test_negative_t_reaches_the_config(self, tmp_path):
        main(["verify", "basis", "--t", "-3,0", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "osp22_verify_basis.json").read_text())
        assert doc["payload"]["config"]["t_samples"] == [-3.0, 0.0]

    def test_missing_value_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "basis", "--t", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unparsable_t_exits_2(self, tmp_path):
        code = main(["verify", "basis", "--t", "-abc", "--out", str(tmp_path)])
        assert code == 2

    def test_failing_tolerance_exits_1(self, tmp_path):
        code = main(
            ["verify", "grassmann", "--tol-grassmann", "1e-30", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_a_value_error_inside_a_check_exits_1(self, tmp_path, capsys):
        """At t = 5e11 the residual's finite-difference step no longer moves t, so
        ``schrodinger_residual`` raises ValueError inside the coherent suite: a check
        failure, reported without a traceback.  A ConfigError, also a ValueError, still
        exits 2 (``TestValidatedDomain``)."""
        assert main(["verify", "coherent", "--z", "0.9", "--t", "5e11", "--out", str(tmp_path)]) == 1
        assert "check failure: finite-difference step underflow" in capsys.readouterr().err


class TestValidatedDomain:
    """Inputs outside the validated domain exit 2 before any check runs."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "all", "--t=,"], "must not be empty"),
            (["verify", "coherent", "--z=,"], "must not be empty"),
            (["verify", "coherent", "--t=nan"], "t value nan must be finite"),
            (["verify", "coherent", "--z=nan"], "z value nan must be finite"),
            (["verify", "coherent", "--alpha=nan"], "alpha value nan must be finite"),
            (["verify", "grassmann", "--seed=-1"], "seed must be nonnegative"),
            (["profile", "--z=,"], "must not be empty"),
            (["trajectory", "--z=,"], "must not be empty"),
            (["profile", "--xpoints=-1"], "xpoints must be at least 1"),
            (["profile", "--xmax=nan"], "xmax value nan must be finite and positive"),
            (["profile", "--xmax=inf"], "xmax value inf must be finite and positive"),
            (["profile", "--xmax=-inf"], "xmax value -inf must be finite and positive"),
            (["profile", "--xmax=0"], "xmax value 0.0 must be finite and positive"),
            (["profile", "--xmax=-3"], "xmax value -3.0 must be finite and positive"),
            (["trajectory", "--z", "0.3", "--t", "0.5"], "affine fit needs at least 3 t samples, got 1"),
            (["trajectory", "--z", "0.3", "--t", "0,1"], "affine fit needs at least 3 t samples, got 2"),
            (["verify", "grassmann", "--tol-grassmann=nan"], "tolerance 'grassmann' value nan must be finite"),
            (["verify", "grassmann", "--tol-grassmann=inf"], "tolerance 'grassmann' value inf must be finite"),
            (["verify", "grassmann", "--tol-grassmann=0"], "tolerance 'grassmann' value 0.0 must be finite"),
            (["verify", "algebra", f"--nmax={MAX_N_MAX + 1}"], f"n_max must lie in [8, {MAX_N_MAX}]"),
            (["verify", "algebra", "--nmax=7"], f"n_max must lie in [8, {MAX_N_MAX}]"),
        ],
    )
    def test_exits_2(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_non_finite_tolerance_in_a_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("tol_algebra = nan\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["verify", "algebra", "--config", str(path), "--out", str(out)]) == 2
        assert "tolerance 'algebra' value nan must be finite and positive" in capsys.readouterr().err
        assert not any(out.iterdir())


class TestProfileCommand:
    def _read(self, path):
        rows = [r for r in open(path) if not r.startswith("#")]
        reader = csv.reader(rows)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
        return header, data

    def test_ground_state_profile(self, tmp_path):
        out = tmp_path / "prof.csv"
        code = main(["profile", "--z", "0", "--t", "0", "--out", str(out)])
        assert code == 0
        header, data = self._read(out)
        assert header == ["x", "re_psi", "im_psi", "re_phi", "im_phi"]
        x = data[:, 0]
        expect = (2 * np.pi) ** -0.25 * np.exp(-x * x / 4)
        assert np.abs(data[:, 1] - expect).max() < 1e-14
        assert np.abs(data[:, 2]).max() < 1e-15

    def test_grid_normalization(self, tmp_path):
        out = tmp_path / "prof.csv"
        main(["profile", "--z", "0.4i", "--t", "0.5", "--out", str(out)])
        _, data = self._read(out)
        x = data[:, 0]
        psi2 = data[:, 1] ** 2 + data[:, 2] ** 2
        integral = np.sum((psi2[1:] + psi2[:-1]) * np.diff(x)) / 2.0
        assert abs(integral - 1.0) < 1e-6

    def test_odd_component_vanishes_at_origin(self, tmp_path):
        out = tmp_path / "prof.csv"
        main(["profile", "--z", "0.3", "--t", "1.0", "--out", str(out)])
        _, data = self._read(out)
        k = np.argmin(np.abs(data[:, 0]))
        assert abs(complex(data[k, 3], data[k, 4])) < 1e-15

    def test_csv_layout(self, tmp_path):
        """Comment lines end in \\n and csv rows in \\r\\n; profile reads no truncation, so it names none."""
        out = tmp_path / "prof.csv"
        assert main(["profile", "--z", "0.3", "--t", "0", "--xpoints", "3", "--out", str(out)]) == 0
        data = out.read_bytes()
        comments, table = data[: data.index(b"x,")], data[data.index(b"x,") :]
        assert comments.startswith(b"# z = 0.3\n# t = 0.0\n# sigma = ") and comments.count(b"\n") == 3
        assert b"\r" not in comments and b"n_max" not in comments
        assert table.startswith(b"x,re_psi,im_psi,re_phi,im_phi\r\n-10.0,")
        assert table.endswith(b"\r\n") and table.count(b"\r\n") == 4

    def test_boundary_rejected(self, tmp_path):
        code = main(["profile", "--z", "1.2", "--t", "0", "--out", str(tmp_path)])
        assert code == 2


class TestSymbolsCommand:
    def test_report(self, tmp_path):
        code = main(["symbols", "--z", "0.3,0.4i", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "osp22_symbols.json").read_text())
        assert doc["convention"] == "conjugate"
        assert doc["max_defect"] < 1e-8
        k0_rows = [
            r
            for r in doc["rows"]
            if r["generator"] == "K0"
            and r["z"] == {"re": 0.3, "im": 0.0}
            and r["alpha_coeff"] == {"re": 0.0, "im": 0.0}
        ]
        assert len(k0_rows) == 1
        body = k0_rows[0]["computed_body"]
        assert abs(complex(body["re"], body["im"]) - 0.25 * 1.09 / 0.91) < 1e-10
        assert k0_rows[0]["computed_soul"] == []


    def test_near_real_z_is_not_a_calibration_point(self, tmp_path):
        """3e-9i puts both candidate bodies within tol; calibration moves to 0.3+0.25i."""
        assert main(["symbols", "--z", "3e-9i", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "osp22_symbols.json").read_text())
        assert doc["convention"] == "conjugate" and doc["pass"]


class TestTrajectoryCommand:
    def test_export(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            ["trajectory", "--z", "0.3", "--alpha", "0.8-0.3i", "--t", "0,1,2,3", "--out", str(out)]
        )
        assert code == 0
        rows = [r for r in open(out) if not r.startswith("#")]
        reader = csv.reader(rows)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
        cols = {name: k for k, name in enumerate(header)}
        p_theta = data[:, cols["re_p_theta"]] + 1j * data[:, cols["im_p_theta"]]
        assert np.abs(p_theta - p_theta[0]).max() < 1e-10
        assert data[:, cols["fit_residual"]].max() < 1e-9
        assert data[:, cols["mean_x"]].max() < 1e-10

    def _times(self, path):
        rows = [r for r in open(path) if not r.startswith("#")]
        return [float(row["t"]) for row in csv.DictReader(rows)]

    def test_default_times_when_no_t_is_given(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["trajectory", "--z", "0.3", "--out", str(out)]) == 0
        assert self._times(out) == [0.0, 1.0, 2.0, 3.0]

    def test_config_file_times(self, tmp_path, capsys):
        """t_samples from a config file count as given: they are used, and too few exit 2."""
        for times, code in (("0, 0.5, 2", 0), ("0.5", 2)):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"z_samples = 0.3\nt_samples = {times}\n")
            out = tmp_path / "traj.csv"
            assert main(["trajectory", "--config", str(cfg), "--out", str(out)]) == code
            if code == 0:
                assert self._times(out) == [0.0, 0.5, 2.0]
                out.unlink()
            else:
                assert "affine fit needs at least 3 t samples, got 1" in capsys.readouterr().err
                assert not out.exists()


class TestExportsMatchSuites:
    def test_symbols_and_trajectory_read_the_suite_records(self, tmp_path):
        args = ["--z", "0.3,0.4i", "--alpha", "0.8-0.3i"]
        assert main(["symbols", *args, "--out", str(tmp_path)]) == 0
        assert main(["trajectory", *args, "--t", "0,1,2", "--out", str(tmp_path / "traj.csv")]) == 0
        # a tolerance below the defect: the export fails as the record does
        strict = tmp_path / "strict"
        assert main(["symbols", *args, "--tol-coherent", "1e-300", "--out", str(strict)]) == 1
        overrides = {"z_samples": "0.3,0.4i", "alpha_coeff": "0.8-0.3i", "t_samples": "0,1,2"}
        cfg = build_config(overrides={**overrides, "tol_coherent": "1e-300"})

        (symbols,) = [c for c in suite_checks("coherent", cfg) if c["id"] == "coherent.symbols"]
        assert not symbols["pass"]
        doc = json.loads((tmp_path / "osp22_symbols.json").read_text())
        assert doc["max_defect"] == symbols["defect"]
        doc = json.loads((strict / "osp22_symbols.json").read_text())
        assert (doc["max_defect"], doc["tolerance"], doc["pass"]) == (
            symbols["defect"],
            symbols["tolerance"],
            symbols["pass"],
        )

        rows = [r for r in open(tmp_path / "traj.csv") if not r.startswith("#")]
        table = list(csv.DictReader(rows))
        p_theta = [complex(float(r["re_p_theta"]), float(r["im_p_theta"])) for r in table]
        tr = trajectory_rows(
            CoherentParams(cfg.z_samples[0], cfg.alpha_coeff),
            cfg.t_samples,
            default_algebra(),
            QuadratureSpec(nodes=cfg.nodes),
        )
        assert p_theta == [r["p_theta"] for r in tr["rows"]]
