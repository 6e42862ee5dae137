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
from dataclasses import replace

import numpy as np

from . import basis as _basis
from . import coherent as _coh
from . import representation as _rep
from .config import (
    ConfigError,
    RunConfig,
    build_config,
    complex_to_json,
    config_file_from_env,
    format_complex,
    load_config_file,
    parse_complex,
)
from .grassmann import default_algebra
from .suites import SUITE_NAMES, run_suite

__all__ = ["main", "build_parser"]


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
    for name in ("grassmann", "algebra", "quadrature", "coherent", "residual", "isometry"):
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


def _collect_config(args) -> RunConfig:
    path = args.config or config_file_from_env()
    file_values = load_config_file(path) if path else {}
    overrides: dict = {}
    for key in ("n_max", "nodes", "seed", "out_format"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    for name in ("grassmann", "algebra", "quadrature", "coherent", "residual", "isometry"):
        val = getattr(args, f"tol_{name}", None)
        if val is not None:
            overrides[f"tol_{name}"] = val
    if getattr(args, "z", None):
        parts = []
        for chunk in args.z:
            parts.extend(p for p in chunk.split(",") if p.strip())
        overrides["z_samples"] = tuple(parse_complex(p) for p in parts)
    if getattr(args, "t", None):
        try:
            overrides["t_samples"] = tuple(float(p) for p in str(args.t).split(",") if p.strip())
        except ValueError as exc:
            raise ConfigError(f"cannot parse t samples {args.t!r}") from exc
    if getattr(args, "alpha", None) is not None:
        overrides["alpha_coeff"] = parse_complex(args.alpha)
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
        print(f"[{status}] {check['id']}: defect={check['defect']:.3e} tol={check['tolerance']:.1e}")
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
    z = cfg.z_samples[0]
    if abs(z) >= 1.0:
        raise ConfigError("|z| must be < 1")
    t = cfg.t_samples[0]
    params = _coh.CoherentParams(z, cfg.alpha_coeff)
    cf = _coh.closed_form(params)
    x = np.linspace(-args.xmax, args.xmax, args.xpoints)
    psi = cf.psi(x, t)
    phi = cf.phi(x, t)
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
    alg = default_algebra()
    cal_z = next((z for z in cfg.z_samples if abs(complex(z).imag) > 1e-9), 0.3 + 0.25j)
    flag = _coh.calibrate_convention(cal_z, alg)
    rows = []
    worst = 0.0
    for z in cfg.z_samples:
        n = max(64, _coh.series_length_for(z, 1e-7))
        ops = {name: _rep.build_generator(name, n, alg) for name in _rep.GENERATOR_NAMES}
        for a in (0.0, cfg.alpha_coeff):
            params = _coh.CoherentParams(z, a)
            for name in _rep.GENERATOR_NAMES:
                got = _coh.berezin_symbol(ops[name], params, alg)
                want = _coh.expected_symbol(name, params, alg, flag)
                defect = (got - want).max_abs()
                worst = max(worst, defect)
                rows.append(
                    {
                        "generator": name,
                        "z": complex_to_json(z),
                        "alpha_coeff": complex_to_json(a),
                        "computed_body": complex_to_json(got.body),
                        "computed_soul": _grassmann_terms_json(got.soul()),
                        "expected_body": complex_to_json(want.body),
                        "expected_soul": _grassmann_terms_json(want.soul()),
                        "defect": defect,
                    }
                )
    document = {
        "convention": flag,
        "rows": rows,
        "max_defect": worst,
        "tolerance": cfg.tol("coherent"),
        "pass": worst < cfg.tol("coherent"),
    }
    path = _out_path(cfg, "osp22_symbols.json")
    _dump_json(path, document)
    print(f"symbols written to {path} (convention={flag}, max defect {worst:.3e})")
    return 0 if document["pass"] else 1


def cmd_trajectory(args) -> int:
    cfg = _collect_config(args)
    cfg.validate("coherent")
    alg = default_algebra()
    z = cfg.z_samples[0]
    params = _coh.CoherentParams(z, cfg.alpha_coeff)
    x0, p0 = _coh.trajectory_closed_form(params)
    spec = _basis.QuadratureSpec(nodes=cfg.nodes)
    ts = list(cfg.t_samples)
    if len(ts) < 3:
        ts = [0.0, 1.0, 2.0, 3.0]
    rows = []
    sx = []
    for t in ts:
        rec = _coh.trajectory(params, t, alg, spec=spec)
        sx.append(rec["x_theta"].coeff("alpha_bar"))
        rows.append(rec)
    coeffs = np.polyfit(ts, np.asarray(sx), 1)
    fit_residual = float(np.abs(np.polyval(coeffs, ts) - np.asarray(sx)).max())

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
        for t, rec in zip(ts, rows):
            xth = rec["x_theta"].coeff("alpha_bar")
            pth = rec["p_theta"].coeff("alpha_bar")
            mean_x = max(abs(rec["mean_x_psi"]), abs(rec["mean_x_phi"]))
            mean_p = max(abs(rec["mean_p_psi"]), abs(rec["mean_p_phi"]))
            writer.writerow(
                [
                    repr(float(t)),
                    repr(xth.real),
                    repr(xth.imag),
                    repr(pth.real),
                    repr(pth.imag),
                    repr(x0.real),
                    repr(x0.imag),
                    repr(p0.real),
                    repr(p0.imag),
                    repr(mean_x),
                    repr(mean_p),
                    repr(fit_residual),
                ]
            )
    print(f"trajectory written to {path} (affine fit residual {fit_residual:.3e})")
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
    except (_coh.CalibrationError, _coh.TruncationError, _basis.QuadratureError) as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
