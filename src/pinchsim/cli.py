"""Command-line driver for the experiment suite.

Subcommands: ``heatmap``, ``compare-mimo``, ``noma-region``, ``tdma-demo``.
Exit status 0 on success, 2 on configuration or scenario-file errors, 3 on
numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from ._version import __version__
from .beamforming import RankDeficiencyError
from .experiments import ConfigError, ExperimentConfig, run_experiment
from .scenario_io import ScenarioFormatError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", required=True, help="scenario YAML file")
    sub.add_argument("--out", required=True, help="output directory for CSV files")
    sub.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")


def _parse_snr_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"--snr-db expects comma-separated numbers, got {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: every call returns
    the same parser, which callers use without changing it."""
    parser = argparse.ArgumentParser(
        prog="pinchsim",
        description="Pinching-antenna system simulator and experiment runner")
    parser.add_argument("--version", action="version", version=f"pinchsim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("heatmap", help="rate map: fixed antenna vs pinched placement")
    _add_common(p)
    p.add_argument("--grid-res", type=float, default=0.25, help="cell size in meters")
    p.add_argument("--bounds", type=float, nargs=4, default=(-5.0, 5.0, -5.0, 5.0),
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"))

    p = subs.add_parser("compare-mimo", help="pinching+ZF vs conventional array schemes")
    _add_common(p)
    p.add_argument("--snr-db", default="90,100,110,120",
                   help="comma-separated transmit SNR sweep in dB (default: the case "
                        "study's 0-30 dBm of transmit power over a -90 dBm noise floor)")
    p.add_argument("--drops", type=int, default=100, help="number of random user drops")
    p.add_argument("--bounds", type=float, nargs=4, default=(-5.0, 5.0, -5.0, 5.0),
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
                   help="user drop region")
    p.add_argument("--budget", type=int, default=10,
                   help="coordinate-descent cycle budget per drop")

    p = subs.add_parser("noma-region", help="two-user NOMA rate pairs over a power sweep")
    _add_common(p)
    p.add_argument("--alpha-step", type=float, default=0.01,
                   help="power-split sweep step in (0, 1)")

    p = subs.add_parser("tdma-demo", help="per-slot re-placement TDMA rates")
    _add_common(p)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    kind = args.command.replace("-", "_")
    kwargs = dict(scenario_path=args.scenario, kind=kind, out_dir=args.out,
                  seed=args.seed)
    if kind == "heatmap":
        kwargs.update(grid_res_m=args.grid_res, grid_bounds=tuple(args.bounds))
    elif kind == "compare_mimo":
        kwargs.update(snr_sweep_db=_parse_snr_list(args.snr_db),
                      drops=args.drops, grid_bounds=tuple(args.bounds),
                      cd_budget=args.budget)
    elif kind == "noma_region":
        kwargs.update(alpha_step=args.alpha_step)
    return ExperimentConfig(**kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        run_experiment(cfg)
    except (ConfigError, ScenarioFormatError) as exc:
        print(f"pinchsim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RankDeficiencyError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"pinchsim: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"pinchsim: wrote {args.command.replace('-', '_')}.csv to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
