import csv
import json
import os

import numpy as np
import pytest

from osp22.cli import main
from osp22.config import (
    ConfigError,
    build_config,
    format_complex,
    load_config_file,
    parse_complex,
)


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

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            build_config({"mystery": "1"})

    def test_boundary_z_rejected_for_coherent(self):
        cfg = build_config(overrides={"z_samples": (0.99,)})
        cfg.validate("basis")
        with pytest.raises(ConfigError):
            cfg.validate("coherent")

    def test_env_var_config(self, tmp_path, monkeypatch):
        path = tmp_path / "env.cfg"
        path.write_text("seed = 7\n")
        monkeypatch.setenv("OSP22_CONFIG", str(path))
        from osp22.config import config_file_from_env

        assert config_file_from_env() == str(path)


class TestVerifyCommand:
    def test_grassmann_suite_passes(self, tmp_path):
        code = main(["verify", "grassmann", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "osp22_verify_grassmann.json").read_text())
        assert doc["payload"]["overall_pass"]
        assert doc["payload"]["n_checks"] >= 5

    def test_boundary_z_exits_2(self, tmp_path, capsys):
        code = main(["verify", "coherent", "--z", "0.99", "--out", str(tmp_path)])
        assert code == 2

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
