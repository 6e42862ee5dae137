"""Command-line front end: verification suites, wave-function profiles,
generator symbols, and trajectory exports.

Each command takes only the flags whose settings it reads, as ``_COMMANDS``
lists them, and any other flag is a usage error.  ``_FLAGS`` declares each flag
once, with the ``RunConfig`` field it sets as its dest.  A config file may set
any ``RunConfig`` key for every command.

Exit codes: 0 all checks pass / output written, 1 check failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import basis as _basis
from . import coherent as _coh
from .config import (
    DEFAULT_TOLERANCES,
    MAX_N_MAX,
    ConfigError,
    RunConfig,
    build_config,
    complex_to_json,
    config_file_from_env,
    format_complex,
    load_config_file,
)
from .grassmann import default_algebra
from .suites import SUITE_NAMES, run_suite, symbol_rows, symbols_check, trajectory_rows

__all__ = ["main", "build_parser"]

TRAJECTORY_TIMES = (0.0, 1.0, 2.0, 3.0)  # trajectory t samples when neither --t nor a config file sets them

_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}


def _collect_config(args, defaults: dict | None = None) -> RunConfig:
    """The command's ``defaults``, then the config file, then the flags, each winning over the last."""
    path = args.config or config_file_from_env()
    file_values = {**(defaults or {}), **(load_config_file(path) if path else {})}
    overrides = {
        key: val
        for key, val in vars(args).items()
        if val is not None and (key in _CONFIG_FIELDS or key.startswith("tol_"))
    }
    if "z_samples" in overrides:
        overrides["z_samples"] = ",".join(overrides["z_samples"])
    return build_config(file_values, overrides)


def _out_path(cfg: RunConfig, default_name: str) -> str:
    out = cfg.out_dir
    if os.path.isdir(out) or out.endswith(os.sep) or not os.path.splitext(out)[1]:
        os.makedirs(out, exist_ok=True)
        return os.path.join(out, default_name)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    return out


def _dump_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, comments: dict, header: list, rows) -> None:
    """One ``# key = value`` line per comment, then the header and rows through ``csv.writer``.

    A float cell is written as its repr, which is its str.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {key} = {value}\n" for key, value in comments.items())
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_verify(args) -> int:
    cfg = _collect_config(args)
    cfg.validate(args.suite)
    report = run_suite(args.suite, cfg)
    payload = report["payload"]
    for check in payload["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        margin = check["tolerance"] / check["defect"] if check["defect"] else float("inf")
        print(
            f"[{status}] {check['id']}: defect={check['defect']:.3e} "
            f"tol={check['tolerance']:.1e} margin={margin:.3g}"
        )
    print(
        f"suite={args.suite} checks={payload['n_checks']} "
        f"pass={payload['overall_pass']} wall={report['wall_time_s']:.2f}s"
    )
    path = _out_path(cfg, f"osp22_verify_{args.suite}.json")
    _dump_json(path, report)
    print(f"report written to {path}")
    if cfg.out_format == "csv":
        csv_path = os.path.splitext(path)[0] + ".csv"
        keys = ["id", "description", "defect", "tolerance", "pass"]
        _write_csv(csv_path, {}, keys, [[check[k] for k in keys] for check in payload["checks"]])
        print(f"check table written to {csv_path}")
    return 0 if payload["overall_pass"] else 1


def cmd_profile(args) -> int:
    cfg = _collect_config(args)
    cfg.validate()
    if args.xpoints < 1:
        raise ConfigError("xpoints must be at least 1")
    if not (np.isfinite(args.xmax) and args.xmax > 0):
        raise ConfigError(f"xmax value {args.xmax} must be finite and positive")
    z = cfg.z_samples[0]
    t = cfg.t_samples[0]
    params = _coh.CoherentParams(z, cfg.alpha_coeff)
    cf = _coh.closed_form(params)
    x = np.linspace(-args.xmax, args.xmax, args.xpoints)
    psi, phi = cf.fields(x, t)[:2]
    path = _out_path(cfg, "osp22_profile.csv")
    _write_csv(
        path,
        {"z": format_complex(z), "t": repr(t), "sigma": format_complex(cf.sigma)},
        ["x", "re_psi", "im_psi", "re_phi", "im_phi"],
        np.column_stack([x, psi.real, psi.imag, phi.real, phi.imag]).tolist(),
    )
    print(f"profile written to {path}")
    return 0


def _grassmann_terms_json(elem) -> list:
    return [
        {"monomial": "*".join(names) if names else "1", "re": c.real, "im": c.imag}
        for names, c in elem.terms()
    ]


def cmd_symbols(args) -> int:
    cfg = _collect_config(args)
    cfg.validate("coherent")
    flag, records = symbol_rows(cfg)
    rows = [
        {
            "generator": r["generator"],
            "z": complex_to_json(r["z"]),
            "alpha_coeff": complex_to_json(r["alpha_coeff"]),
            "computed_body": complex_to_json(r["computed"].body),
            "computed_soul": _grassmann_terms_json(r["computed"].soul()),
            "expected_body": complex_to_json(r["expected"].body),
            "expected_soul": _grassmann_terms_json(r["expected"].soul()),
            "defect": r["defect"],
        }
        for r in records
    ]
    check = symbols_check(cfg, records)
    document = {
        "convention": flag,
        "rows": rows,
        "max_defect": check["defect"],
        "tolerance": check["tolerance"],
        "pass": check["pass"],
    }
    path = _out_path(cfg, "osp22_symbols.json")
    _dump_json(path, document)
    print(f"symbols written to {path} (convention={flag}, max defect {check['defect']:.3e})")
    return 0 if document["pass"] else 1


def cmd_trajectory(args) -> int:
    cfg = _collect_config(args, {"t_samples": TRAJECTORY_TIMES})
    cfg.validate("coherent")
    if len(cfg.t_samples) < 3:
        raise ConfigError(f"the trajectory's affine fit needs at least 3 t samples, got {len(cfg.t_samples)}")
    z = cfg.z_samples[0]
    tr = trajectory_rows(
        _coh.CoherentParams(z, cfg.alpha_coeff),
        list(cfg.t_samples),
        default_algebra(),
        _basis.QuadratureSpec(nodes=cfg.nodes),
    )
    x0, p0 = tr["x0"], tr["p0"]

    path = _out_path(cfg, "osp22_trajectory.csv")
    header = ["t", "re_x_theta", "im_x_theta", "re_p_theta", "im_p_theta", "re_x0", "im_x0", "re_p0", "im_p0"]
    header += ["mean_x", "mean_p", "fit_residual"]
    fixed = [x0.real, x0.imag, p0.real, p0.imag]
    rows = [
        [r["t"], r["x_theta"].real, r["x_theta"].imag, r["p_theta"].real, r["p_theta"].imag, *fixed]
        + [r["mean_x"], r["mean_p"], tr["fit_residual"]]
        for r in tr["rows"]
    ]
    comments = {"z": z, "alpha": cfg.alpha_coeff, "x0": x0, "p0": p0}
    _write_csv(path, {k: format_complex(v) for k, v in comments.items()}, header, rows)
    print(f"trajectory written to {path} (affine fit residual {tr['fit_residual']:.3e})")
    return 0


# Every flag, declared once.  A flag that sets a RunConfig field has that
# field's name as its dest (tol_<name> for a tolerance), so _collect_config
# reads the overrides straight off the parsed namespace.
_FLAGS = {
    "suite": dict(choices=SUITE_NAMES + ("all",)),
    "--config": dict(help="path to a key=value config file"),
    "--nmax": dict(type=int, dest="n_max", help=f"truncation, 8 to {MAX_N_MAX} (default 32)"),
    "--nodes": dict(type=int, help="quadrature node count (default 200)"),
    "--seed": dict(type=int, help="seed for randomized checks"),
    "--z": dict(action="append", dest="z_samples", help="z sample 'a+bi' (repeatable or comma list)"),
    "--alpha": dict(dest="alpha_coeff", help="odd-parameter coefficient 'a+bi'"),
    "--t": dict(dest="t_samples", help="comma-separated t samples"),
    "--out": dict(dest="out_dir", help="output file or directory"),
    "--format": dict(choices=("json", "csv"), dest="out_format"),
    **{f"--tol-{name}": dict(type=float, dest=f"tol_{name}") for name in DEFAULT_TOLERANCES},
    "--xmax": dict(type=float, default=10.0),
    "--xpoints": dict(type=int, default=201),
}

_COMMANDS = {  # name: (handler, help, the flags whose settings it reads)
    "verify": (
        cmd_verify,
        "run a verification suite",
        ("suite", "--config", "--nmax", "--nodes", "--seed", "--z", "--alpha", "--t", "--out", "--format")
        + tuple(f"--tol-{name}" for name in DEFAULT_TOLERANCES),
    ),
    "profile": (
        cmd_profile,
        "export psi_z, phi_z on a grid",
        ("--config", "--z", "--alpha", "--t", "--out", "--xmax", "--xpoints"),
    ),
    "symbols": (
        cmd_symbols,
        "export generator symbols vs closed forms",
        ("--config", "--z", "--alpha", "--out", "--tol-coherent"),
    ),
    "trajectory": (
        cmd_trajectory,
        "export the odd-sector trajectory",
        ("--config", "--z", "--alpha", "--t", "--nodes", "--out"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osp22",
        description=(
            "Verification harness for the Grassmann/superspace free-particle "
            "library: run check suites, export wave-function profiles, "
            "generator symbols, and odd-sector trajectories."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        # no abbreviations: "--t" must not reach --tol-coherent on a command without --t
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
        command.set_defaults(run=handler)
    return parser


# Flags whose values may be negative.  argparse takes a token such as "-3,0"
# or "-0.3+0.2i" for an option, so it is attached as "--t=-3,0" first.
_SIGNED_VALUE_FLAGS = ("--t", "--z", "--alpha")


def _attach_signed_values(argv: list) -> list:
    out = []
    k = 0
    while k < len(argv):
        tok = argv[k]
        nxt = argv[k + 1] if k + 1 < len(argv) else None
        if tok in _SIGNED_VALUE_FLAGS and nxt and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"{tok}={nxt}")
            k += 2
        else:
            out.append(tok)
            k += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_signed_values(argv))
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (_coh.CalibrationError, _coh.TruncationError, ValueError) as exc:
        # a ValueError that is no ConfigError was raised inside a check, after validation
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
