"""Run configuration for the verification harness and CLI.

Configuration comes from (lowest to highest precedence) built-in defaults, a
flat ``key = value`` text file (path from ``--config`` or the OSP22_CONFIG
environment variable), and command-line flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .grassmann import _SCALAR_TYPES

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_complex",
    "format_complex",
    "complex_to_json",
    "load_config_file",
    "DEFAULT_TOLERANCES",
    "DISK_RADIUS",
    "ENV_CONFIG_VAR",
    "MAX_NODES",
    "MAX_N_MAX",
    "MIN_NODES",
    "TOP_QUADRATURE_MODE",
]

ENV_CONFIG_VAR = "OSP22_CONFIG"

DEFAULT_TOLERANCES = {
    "grassmann": 1e-14,
    "algebra": 1e-12,
    "quadrature": 1e-10,
    "coherent": 1e-8,
    "residual": 1e-6,
    "isometry": 1e-6,
}


# certified series truncation at the default depths, and the symbol
# calibration, hold for every z with |z| <= DISK_RADIUS
DISK_RADIUS = 0.9

# the basis suite integrates chi_m against a+- chi_m for m up to this mode, so
# Gauss-Hermite needs at least one node more than it; above MAX_NODES its
# weights lose stability (QuadratureSpec)
TOP_QUADRATURE_MODE = 21
MIN_NODES = TOP_QUADRATURE_MODE + 1
MAX_NODES = 320

# the largest truncation measured: the algebra suite's time and memory grow
# linearly in n_max, and at 4096 one pass took 0.1 s and 43 MiB peak RSS
MAX_N_MAX = 4096


class ConfigError(ValueError):
    """Invalid configuration value or file."""


def parse_complex(text) -> complex:
    """Parse "a+bi" (or "a+bj") strings; plain floats pass through."""
    if isinstance(text, _SCALAR_TYPES):
        return complex(text)
    s = str(text).strip().replace(" ", "")
    if not s:
        raise ConfigError("empty complex literal")
    s = s.replace("i", "j")
    try:
        return complex(s)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc


def format_complex(c: complex) -> str:
    c = complex(c)
    if c.imag == 0:
        return repr(c.real)
    if c.real == 0:
        return f"{c.imag!r}i"
    sign = "+" if c.imag >= 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


def complex_to_json(c: complex) -> dict:
    c = complex(c)
    return {"re": c.real, "im": c.imag}


def _default_z_samples() -> tuple:
    return (
        complex(0.3),
        0.5j,
        complex(-0.7),
        complex(0.8 * np.exp(1j * np.pi / 4.0)),
    )


@dataclass(frozen=True)
class RunConfig:
    n_max: int = 32
    nodes: int = 200
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    z_samples: tuple = field(default_factory=_default_z_samples)
    t_samples: tuple = (0.0, 1.0)
    alpha_coeff: complex = 1.0 + 0j
    out_dir: str = "."
    out_format: str = "json"
    seed: int = 20250810

    def tol(self, name: str) -> float:
        return float(self.tolerances[name])

    def validate(self, suite: str | None = None) -> None:
        if not 8 <= self.n_max <= MAX_N_MAX:
            raise ConfigError(f"n_max must lie in [8, {MAX_N_MAX}]")
        if not MIN_NODES <= self.nodes <= MAX_NODES:
            raise ConfigError(
                f"nodes must lie in [{MIN_NODES}, {MAX_NODES}]: the suites integrate modes up to "
                f"{TOP_QUADRATURE_MODE}"
            )
        if not self.out_dir:
            raise ConfigError("out must name a file or directory")
        if self.out_format not in ("json", "csv"):
            raise ConfigError("format must be 'json' or 'csv'")
        for name, value in self.tolerances.items():
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"tolerance {name!r} value {value!r} must be finite and positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not self.z_samples or not self.t_samples:
            raise ConfigError("z and t samples must not be empty")
        samples = {"z": self.z_samples, "t": self.t_samples, "alpha": (self.alpha_coeff,)}
        for name, values in samples.items():
            for value in values:
                if not np.isfinite(value):
                    raise ConfigError(f"{name} value {format_complex(value)} must be finite")
        for z in self.z_samples:
            if abs(z) >= 1.0:
                raise ConfigError(f"z sample {format_complex(z)} must satisfy |z| < 1")
        if suite in ("coherent", "all"):
            for z in self.z_samples:
                if abs(z) > DISK_RADIUS:
                    raise ConfigError(
                        f"z sample {format_complex(z)} too close to the unit circle "
                        f"for certified truncation (need |z| <= {DISK_RADIUS})"
                    )

    def echo(self) -> dict:
        return {
            "n_max": self.n_max,
            "nodes": self.nodes,
            "tolerances": {k: self.tolerances[k] for k in sorted(self.tolerances)},
            "z_samples": [complex_to_json(z) for z in self.z_samples],
            "t_samples": [float(t) for t in self.t_samples],
            "alpha_coeff": complex_to_json(self.alpha_coeff),
            "seed": self.seed,
        }


def load_config_file(path: str) -> dict:
    """Flat ``key = value`` file; '#' starts a comment; lists are comma-separated."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _parse_list(val, conv):
    if isinstance(val, (list, tuple)):
        return tuple(conv(v) for v in val)
    return tuple(conv(part) for part in str(val).split(",") if part.strip())


_CONVERTERS = {
    "n_max": int,
    "nodes": int,
    "seed": int,
    "z_samples": lambda val: _parse_list(val, parse_complex),
    "t_samples": lambda val: _parse_list(val, float),
    "alpha_coeff": parse_complex,
    "out_dir": str,
    "out_format": str,
}


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, config-file values, and CLI overrides (highest wins)."""
    cfg = RunConfig()
    for source in (file_values or {}, overrides or {}):
        updates: dict = {}
        tols = dict(cfg.tolerances)
        for key, val in source.items():
            if val is None:
                continue
            tol_name = key[4:] if key.startswith("tol_") else None
            conv = float if tol_name in DEFAULT_TOLERANCES else _CONVERTERS.get(key)
            if conv is None:
                raise ConfigError(f"unknown configuration key {key!r}")
            try:
                value = conv(val)
            except ValueError as exc:
                raise ConfigError(f"cannot parse {key} = {val!r}") from exc
            if tol_name:
                tols[tol_name] = value
            else:
                updates[key] = value
        updates["tolerances"] = tols
        cfg = replace(cfg, **updates)
    return cfg


def config_file_from_env() -> str | None:
    path = os.environ.get(ENV_CONFIG_VAR)
    return path if path else None
