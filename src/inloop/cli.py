"""Command-line front end.

Subcommands: rates, loop-spectrum, loop-sim, spectrum, fig2, trajectories.
All frequencies and times are in atomic-lifetime units (spontaneous decay
rate = 1); there is no unit conversion.  Physical parameters (eta, eps,
g or lambda, L) are never defaulted silently; solver and grid controls
have documented defaults that are echoed into the run manifest.

Exit codes: 0 success, 1 I/O failure, 2 usage, 3 config parse error,
4 parameter domain error, 5 loop instability or runtime divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, InstabilityError, ParameterError, StepSizeError
from .bloch import AtomState
from .feedback import build_generator, rates
from .loop import (
    LoopConfig,
    LoopFilter,
    homodyne_spectrum,
    in_loop_spectrum,
    lambda_from_gain,
    gain_from_lambda,
    simulate_classical_loop,
    squeezing_from_lambda,
    welch_spectrum,
)
from .output import load_config, reject_unknown, take, write_csv, write_manifest
from .spectra import analytic_power_spectrum, comparison_report, numerical_power_spectrum
from .squeezed_bath import build_squeezed_generator, free_rates, photon_parameters
from .trajectories import TrajectoryConfig, ensemble_current_psd, run_ensemble

EXIT_IO = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DOMAIN = 4
EXIT_UNSTABLE = 5


def _outdir(args) -> Path:
    base = args.outdir or os.environ.get("INLOOP_OUTDIR", ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _filter_from(kind: str, tau: float, time_constant: float | None) -> LoopFilter:
    if kind == "rectangular":
        return LoopFilter.rectangular(tau)
    if kind == "exponential":
        return LoopFilter.exponential(tau, time_constant)
    if kind == "single_pole":
        return LoopFilter.single_pole(tau)
    raise ParameterError(f"unsupported filter kind {kind!r}")


def _omega_grid(lo: float, hi: float, points: int) -> np.ndarray:
    if points < 1:
        raise ParameterError(f"--points must be at least 1, got {points}")
    return np.linspace(lo, hi, points)


# Config keys of the stochastic runs as (key, type, default), in the order
# they are read; _REQUIRED marks a key without a default.
_REQUIRED = object()
_LOOP_KEYS = (
    ("g", float, _REQUIRED),
    ("eps", float, _REQUIRED),
    ("eta", float, _REQUIRED),
    ("filter", str, "rectangular"),
    ("tau", float, _REQUIRED),
    ("time_constant", float, None),
    ("dt", float, _REQUIRED),
    ("duration", float, _REQUIRED),
)
_LOOP_SIM_KEYS = _LOOP_KEYS + (
    ("seed", int, None),
    ("nperseg", int, None),
    ("emit_records", bool, False),
)
_TRAJECTORY_KEYS = _LOOP_KEYS + (
    ("n_traj", int, _REQUIRED),
    ("seed", int, None),
    ("x0", float, 0.0),
    ("y0", float, 0.0),
    ("z0", float, -1.0),
    ("record_stride", int, None),
    ("record_current", bool, False),
    ("phi_guard", float, 1e3),
    ("nperseg", int, None),
)


def _read_run_config(args, keys, command: str) -> tuple[dict, LoopConfig]:
    """Read the --config file of a stochastic run: every key in table order,
    then reject the rest; --seed overrides the file's seed.  Returns the
    resolved values without the unset ones, which is the manifest config,
    and the loop they describe."""
    config = load_config(args.config)
    run = {
        key: take(config, key, kind, default=default, required=default is _REQUIRED)
        for key, kind, default in keys
    }
    reject_unknown(config, command)
    if args.seed is not None:
        run["seed"] = args.seed
    if run["seed"] is None:
        raise ConfigError("stochastic run needs a seed (--seed or config key)")
    filt = _filter_from(run["filter"], run["tau"], run["time_constant"])
    loop = LoopConfig(g=run["g"], eps=run["eps"], eta=run["eta"], filter=filt)
    return {k: v for k, v in run.items() if v is not None}, loop


def _feedback_lambda(args) -> float:
    """Feedback strength from --eps and exactly one of --lambda or --g."""
    if (args.lam is None) == (args.g is None):
        raise ParameterError("give exactly one of --lambda or --g for the feedback model")
    if args.eps is None:
        raise ParameterError("the feedback model needs --eps")
    return args.lam if args.lam is not None else lambda_from_gain(args.g, args.eta)


def cmd_rates(args) -> int:
    report: dict = {}
    if args.lam is not None or args.g is not None or args.eps is not None:
        lam = _feedback_lambda(args)
        g = args.g if args.g is not None else gain_from_lambda(lam, args.eta)
        rs = rates(lam, args.eta, args.eps)
        report["feedback"] = {
            "lambda": lam,
            "g": g,
            "S_in": squeezing_from_lambda(lam, args.eta, args.eps),
            "z_ss": rs.steady_state().z,
            **rs.as_dict(),
        }
    if args.level is not None:
        rs = free_rates(args.eta, args.level)
        n, m = photon_parameters(args.level)
        report["free"] = {
            "L": args.level,
            "N": n,
            "M": m,
            "z_ss": rs.steady_state().z,
            **rs.as_dict(),
        }
    if not report:
        raise ParameterError("nothing to report: give --lambda/--g (with --eps) and/or --L")
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json_out:
        Path(args.json_out).write_text(text + "\n")
    else:
        print(text)
    return 0


def cmd_loop_spectrum(args) -> int:
    filt = _filter_from(args.filter, args.tau, args.time_constant)
    cfg = LoopConfig(g=args.g, eps=args.eps, eta=args.eta, filter=filt)
    omega = _omega_grid(args.omega_min, args.omega_max, args.points)
    values = in_loop_spectrum(cfg, omega) if args.quantity == "in" else homodyne_spectrum(cfg, omega)
    out = _outdir(args) / args.out
    write_csv(out, {"omega": omega, "value": values}, comments=[f"quantity = S_{args.quantity}"])
    print(f"wrote {out}")
    return 0


def cmd_loop_sim(args) -> int:
    run, loop = _read_run_config(args, _LOOP_SIM_KEYS, "loop-sim")
    dt = run["dt"]
    record = simulate_classical_loop(loop, dt, run["duration"], run["seed"])
    # Every table is computed before the first file is written.
    tables = {}
    for name, series in (("psd_xin.csv", record.x_in), ("psd_current.csv", record.current)):
        omega, psd = welch_spectrum(series, dt, nperseg=run.get("nperseg"))
        tables[name] = {"omega": omega, "value": psd}
    if run["emit_records"]:
        for name, series in (("xin.csv", record.x_in), ("current.csv", record.current)):
            tables[name] = {"t": record.times, "value": series}
    outdir = _outdir(args)
    for name, table in tables.items():
        write_csv(outdir / name, table)
    outputs = list(tables)

    write_manifest(outdir / "loop_manifest.json", "loop-sim", run, outputs)
    print(f"wrote {', '.join(outputs)} and loop_manifest.json in {outdir}")
    return 0


def cmd_spectrum(args) -> int:
    foreign = {
        "feedback": (("--L", args.level),),
        "free": (("--eps", args.eps), ("--lambda", args.lam), ("--g", args.g)),
    }[args.model]
    stray = [flag for flag, value in foreign if value is not None]
    if stray:
        raise ParameterError(f"--model {args.model} does not take {', '.join(stray)}")
    if args.model == "feedback":
        gen = build_generator(_feedback_lambda(args), args.eta, args.eps)
    else:
        if args.level is None:
            raise ParameterError("the free model needs --L")
        gen = build_squeezed_generator(args.eta, args.level)
    grid = _omega_grid(-args.omega_max, args.omega_max, args.points)
    if args.method == "analytic":
        spec = analytic_power_spectrum(gen.rates, args.eta, grid)
    else:
        slowest = np.min(-np.linalg.eigvals(gen.drift).real)
        tau_max = 200.0 / slowest if args.tau_max is None else args.tau_max
        spec = numerical_power_spectrum(gen, args.eta, grid, tau_max, args.dtau)
    out = _outdir(args) / args.out
    write_csv(out, {"omega": spec.grid, "value": spec.values},
              comments=[f"model = {args.model}", f"method = {args.method}"])
    print(f"wrote {out}")
    return 0


def cmd_fig2(args) -> int:
    report = comparison_report(eta=args.eta, eps=args.eps)
    out = _outdir(args) / args.out
    write_csv(
        out,
        {
            "omega": report.grid,
            "P_inloop": report.p_inloop,
            "P_free": report.p_free,
            "P_natural": report.p_natural,
        },
        comments=[
            "natural curve: half-width 0.5 Lorentzian peak-matched to P_inloop(0)",
            f"natural_scale = {report.natural_scale!r}",
        ],
    )
    print(json.dumps(report.rate_table(), indent=2, sort_keys=True))
    print(f"wrote {out}")
    return 0


def cmd_trajectories(args) -> int:
    run, loop = _read_run_config(args, _TRAJECTORY_KEYS, "trajectories")
    cfg = TrajectoryConfig(
        loop=loop,
        dt=run["dt"],
        duration=run["duration"],
        n_traj=run["n_traj"],
        seed=run["seed"],
        initial_state=AtomState(run["x0"], run["y0"], run["z0"]),
        record_stride=run.get("record_stride"),
        record_current=run["record_current"],
        phi_guard=run["phi_guard"],
    )
    result = run_ensemble(cfg)
    # Every table is computed before the first file is written.
    tables = {
        "means.csv": {
            "t": result.times,
            "x": result.mean[:, 0],
            "y": result.mean[:, 1],
            "z": result.mean[:, 2],
            "se_x": result.stderr[:, 0],
            "se_y": result.stderr[:, 1],
            "se_z": result.stderr[:, 2],
        }
    }
    if cfg.record_current:
        omega, psd = ensemble_current_psd(result, nperseg=run.get("nperseg"))
        tables["current_psd.csv"] = {"omega": omega, "value": psd}
    outdir = _outdir(args)
    for name, table in tables.items():
        write_csv(outdir / name, table)
    outputs = list(tables)

    run["record_stride"] = cfg.stride()
    write_manifest(outdir / "trajectories_manifest.json", "trajectories", run, outputs)
    print(f"wrote {', '.join(outputs)} and trajectories_manifest.json in {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inloop",
        description="Two-level atom driven by in-loop squeezed light: "
        "decay rates, loop spectra, fluorescence spectra and conditioned trajectories.",
    )
    parser.add_argument("--version", action="version", version=f"inloop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="decay-rate report for one or both models (JSON)")
    p.add_argument("--eta", type=float, required=True, help="mode matching in [0, 1]")
    p.add_argument("--eps", type=float, help="detector efficiency in (0, 1]")
    p.add_argument("--lambda", dest="lam", type=float, help="feedback strength")
    p.add_argument("--g", type=float, help="round-loop gain (alternative to --lambda)")
    p.add_argument("--L", dest="level", type=float, help="free-bath X-quadrature level")
    p.add_argument("--json-out", help="write the report to a file instead of stdout")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("loop-spectrum", help="analytic in-loop or photocurrent spectrum (CSV)")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--filter", default="rectangular",
                   choices=["rectangular", "exponential", "single_pole"])
    p.add_argument("--tau", type=float, required=True, help="filter delay / time constant")
    p.add_argument("--time-constant", type=float, help="decay constant of the exponential filter")
    p.add_argument("--quantity", choices=["in", "hom"], default="in")
    p.add_argument("--omega-min", type=float, default=0.0)
    p.add_argument("--omega-max", type=float, required=True)
    p.add_argument("--points", type=int, default=1001)
    p.add_argument("--out", default="loop_spectrum.csv")
    p.add_argument("--outdir", help="output directory (default $INLOOP_OUTDIR or .)")
    p.set_defaults(func=cmd_loop_spectrum)

    p = sub.add_parser("loop-sim", help="Monte Carlo loop simulation (CSV + manifest)")
    p.add_argument("--config", required=True, help="key = value or JSON config file")
    p.add_argument("--seed", type=int, help="seed (mandatory here or in the config)")
    p.add_argument("--outdir", help="output directory (default $INLOOP_OUTDIR or .)")
    p.set_defaults(func=cmd_loop_sim)

    p = sub.add_parser("spectrum", help="fluorescence power spectrum of one model (CSV)")
    p.add_argument("--model", choices=["feedback", "free"], required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--g", type=float)
    p.add_argument("--L", dest="level", type=float)
    p.add_argument("--method", choices=["analytic", "numerical"], default="analytic")
    p.add_argument("--tau-max", type=float,
                   help="transform cutoff (numerical method; default 200 slowest decay times)")
    p.add_argument("--dtau", type=float, default=1e-3, help="transform step (numerical method)")
    p.add_argument("--omega-max", type=float, default=3.0)
    p.add_argument("--points", type=int, default=1201)
    p.add_argument("--out", default="spectrum.csv")
    p.add_argument("--outdir", help="output directory (default $INLOOP_OUTDIR or .)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fig2", help="paired in-loop / free-squeezing spectra comparison (CSV)")
    p.add_argument("--eta", type=float, default=0.8)
    p.add_argument("--eps", type=float, default=0.95)
    p.add_argument("--out", default="fig2.csv")
    p.add_argument("--outdir", help="output directory (default $INLOOP_OUTDIR or .)")
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("trajectories", help="conditioned-trajectory ensemble (CSV + manifest)")
    p.add_argument("--config", required=True, help="key = value or JSON config file")
    p.add_argument("--seed", type=int, help="seed (mandatory here or in the config)")
    p.add_argument("--outdir", help="output directory (default $INLOOP_OUTDIR or .)")
    p.set_defaults(func=cmd_trajectories)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (InstabilityError, StepSizeError) as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
