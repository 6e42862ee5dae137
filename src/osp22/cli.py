"""Command-line front end: verification suites, wave-function profiles,
generator symbols, and trajectory exports.

Exit codes: 0 all checks pass / output written, 1 check failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import basis as _basis
from . import coherent as _coh
from .config import (
    DEFAULT_TOLERANCES,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osp22",
        description=(
            "Verification harness for the Grassmann/superspace free-particle "
            "library: run check suites, export wave-function profiles, "
            "generator symbols, and odd-sector trajectories."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key=value config file")
    common.add_argument("--nmax", type=int, dest="n_max", help="truncation (default 32)")
    common.add_argument("--nodes", type=int, help="quadrature node count (default 200)")
    common.add_argument("--seed", type=int, help="seed for randomized checks")
    common.add_argument("--z", action="append", help="z sample 'a+bi' (repeatable or comma list)")
    common.add_argument("--alpha", help="odd-parameter coefficient 'a+bi'")
    common.add_argument("--t", help="comma-separated t samples")
    common.add_argument("--out", help="output file or directory")
    common.add_argument("--format", choices=("json", "csv"), dest="out_format")
    for name in DEFAULT_TOLERANCES:
        common.add_argument(f"--tol-{name}", type=float, dest=f"tol_{name}")

    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))

    p_profile = sub.add_parser("profile", parents=[common], help="export psi_z, phi_z on a grid")
    p_profile.add_argument("--xmax", type=float, default=10.0)
    p_profile.add_argument("--xpoints", type=int, default=201)

    sub.add_parser("symbols", parents=[common], help="export generator symbols vs closed forms")

    sub.add_parser("trajectory", parents=[common], help="export the odd-sector trajectory")
    return parser


def _collect_config(args, defaults: dict | None = None) -> RunConfig:
    """The command's ``defaults``, then the config file, then the flags, each winning over the last."""
    path = args.config or config_file_from_env()
    file_values = {**(defaults or {}), **(load_config_file(path) if path else {})}
    overrides: dict = {}
    for key in ("n_max", "nodes", "seed", "out_format", *(f"tol_{name}" for name in DEFAULT_TOLERANCES)):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "z", None):
        overrides["z_samples"] = ",".join(args.z)
    if getattr(args, "t", None):
        overrides["t_samples"] = args.t
    if getattr(args, "alpha", None) is not None:
        overrides["alpha_coeff"] = args.alpha
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
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
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "description", "defect", "tolerance", "pass"])
            for check in payload["checks"]:
                writer.writerow(
                    [
                        check["id"],
                        check["description"],
                        repr(check["defect"]),
                        repr(check["tolerance"]),
                        check["pass"],
                    ]
                )
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# z = {format_complex(z)}\n")
        fh.write(f"# t = {t!r}\n")
        fh.write(f"# n_max = {cfg.n_max}\n")
        fh.write(f"# sigma = {format_complex(cf.sigma)}\n")
        writer = csv.writer(fh)
        writer.writerow(["x", "re_psi", "im_psi", "re_phi", "im_phi"])
        for k in range(x.size):
            writer.writerow(
                [
                    repr(float(x[k])),
                    repr(float(psi[k].real)),
                    repr(float(psi[k].imag)),
                    repr(float(phi[k].real)),
                    repr(float(phi[k].imag)),
                ]
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# z = {format_complex(z)}\n")
        fh.write(f"# alpha = {format_complex(cfg.alpha_coeff)}\n")
        fh.write(f"# x0 = {format_complex(x0)}\n")
        fh.write(f"# p0 = {format_complex(p0)}\n")
        writer = csv.writer(fh)
        writer.writerow(
            [
                "t",
                "re_x_theta",
                "im_x_theta",
                "re_p_theta",
                "im_p_theta",
                "re_x0",
                "im_x0",
                "re_p0",
                "im_p0",
                "mean_x",
                "mean_p",
                "fit_residual",
            ]
        )
        for row in tr["rows"]:
            xth, pth = row["x_theta"], row["p_theta"]
            writer.writerow(
                [
                    repr(row["t"]),
                    repr(xth.real),
                    repr(xth.imag),
                    repr(pth.real),
                    repr(pth.imag),
                    repr(x0.real),
                    repr(x0.imag),
                    repr(p0.real),
                    repr(p0.imag),
                    repr(row["mean_x"]),
                    repr(row["mean_p"]),
                    repr(tr["fit_residual"]),
                ]
            )
    print(f"trajectory written to {path} (affine fit residual {tr['fit_residual']:.3e})")
    return 0


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
    handlers = {
        "verify": cmd_verify,
        "profile": cmd_profile,
        "symbols": cmd_symbols,
        "trajectory": cmd_trajectory,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (_coh.CalibrationError, _coh.TruncationError) as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
