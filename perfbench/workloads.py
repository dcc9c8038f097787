"""The benchmark's workloads: inputs made from a seed, CLI calls, output oracles.

A workload is one ``pinchsim`` CLI invocation, repeated, on a scenario file
the benchmark generated. Its CSV is checked by an oracle that does not call the code being timed: closed forms recomputed in
numpy, orderings the model guarantees, and references stored per shipped
seed in ``reference.json``.

Workloads (closed loop, one client, one process):

- ``mimo-sweep``: ``compare-mimo`` on the 3-guide x 3-user preset, SNR sweep
  0..110 dB, descent budget 10, 8 drops: 40 descents. Placement is ~99 %
  of the time. Each drop's geometry is reused at 5 SNRs, and the sweep
  holds both converging low-SNR and budget-limited high-SNR descents.
- ``heatmap-dense``: ``heatmap`` on the one-guide preset at 2 cm cells
  (251,001 cells, ~10 MB CSV). CSV writing is most of the time; it never
  reaches placement or beamforming.
- ``tdma-crowd``: ``tdma-demo`` on the TDMA preset guide with 2,000 users
  drawn from the seed. One channel synthesis per user dominates the run and
  YAML parsing dominates set-up.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from pinchsim import presets
from pinchsim.scenario import UserSet
from pinchsim.scenario_io import save_scenario

MIMO_DROPS = 8
MIMO_SNR_DB = (0, 30, 60, 90, 110)
MIMO_BUDGET = 10
MIMO_SCHEMES = ("conventional_zf", "conventional_mrc", "conventional_bound",
                "pinching_zf")
HEATMAP_RES_M = 0.02
HEATMAP_AXIS = np.linspace(-5.0, 5.0, 501)
TDMA_USERS = 2000
TDMA_FLOOR_M = (-5.0, 5.0, -10.0, 10.0)
SPEED_OF_LIGHT_M_S = 299792458.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class CheckError(Exception):
    """A workload's output failed its oracle; the message says which check."""


@dataclass(frozen=True)
class Workload:
    """One CLI invocation, repeated: its arguments, the CSV it writes, the work it does."""

    argv: tuple[str, ...]
    csv: Path
    units: int
    unit: str
    check: Callable[[Path], np.ndarray]  # raises CheckError; returns pinching rates
    sizes: dict


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_table(path: Path, header: str) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        meta = fh.readline()
        _require(meta.startswith("# pinchsim="), f"{path.name}: missing metadata line")
        _require(fh.readline().rstrip("\n") == header, f"{path.name}: wrong header")
        return list(csv.reader(fh))


def _reference(workload: str, seed: int):
    table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return table[workload].get(str(seed))


# --------------------------------------------------------------------------
# mimo-sweep
# --------------------------------------------------------------------------

def _check_mimo(path: Path, reference) -> np.ndarray:
    rows = read_table(path, "rho_db,scheme,mean_sum_rate_bps_hz")
    _require(len(rows) == len(MIMO_SNR_DB) * len(MIMO_SCHEMES),
             f"compare_mimo: {len(rows)} rows")
    values = {}
    for i, (rho, scheme, value) in enumerate(rows):
        _require(float(rho) == MIMO_SNR_DB[i // len(MIMO_SCHEMES)]
                 and scheme == MIMO_SCHEMES[i % len(MIMO_SCHEMES)],
                 f"compare_mimo: unexpected row {i}: {rho},{scheme}")
        values[float(rho), scheme] = float(value)
    for rho in MIMO_SNR_DB:
        bound = values[rho, "conventional_bound"]
        _require(bound >= values[rho, "conventional_zf"]
                 and bound >= values[rho, "conventional_mrc"],
                 f"compare_mimo: conventional bound below ZF or MRC at {rho} dB")
        _require(math.isfinite(values[rho, "pinching_zf"]),
                 f"compare_mimo: non-finite pinching_zf at {rho} dB")
    if reference is not None:
        _require(np.allclose(conventional_rows(values), reference, rtol=1e-9, atol=1e-12),
                 "compare_mimo: conventional rows differ from the stored reference")
    return np.array([values[rho, "pinching_zf"] for rho in MIMO_SNR_DB])


def conventional_rows(values: dict) -> list[float]:
    """The placement-independent values of a compare_mimo table, in sweep order."""
    return [values[float(rho), scheme] for rho in MIMO_SNR_DB for scheme in MIMO_SCHEMES[:3]]


def mimo_sweep(seed: int, work: Path) -> Workload:
    scenario = save_scenario(presets.compare_scenario(), work / "scenario.yaml")
    out = work / "compare"
    argv = ("compare-mimo", "--scenario", str(scenario), "--out", str(out),
            "--seed", str(seed), "--snr-db", ",".join(map(str, MIMO_SNR_DB)),
            "--budget", str(MIMO_BUDGET), "--drops", str(MIMO_DROPS))
    check = partial(_check_mimo, reference=_reference("mimo-sweep", seed))
    descents = MIMO_DROPS * len(MIMO_SNR_DB)
    sizes = {"guides": 3, "users": 3, "drops": MIMO_DROPS, "snr_db": list(MIMO_SNR_DB),
             "budget": MIMO_BUDGET, "descents": descents}
    return Workload(argv, out / "compare_mimo.csv", descents, "descents", check, sizes)


# --------------------------------------------------------------------------
# heatmap-dense
# --------------------------------------------------------------------------

def column_fingerprint(values: np.ndarray) -> list[float]:
    """Order-sensitive summary of a column: count, sum, index-weighted sum, sum of squares."""
    weights = np.arange(values.size) / values.size
    return [float(values.size), float(values.sum()), float(weights @ values),
            float(values @ values)]


def _check_heatmap(path: Path, reference) -> np.ndarray:
    with path.open(encoding="utf-8") as fh:
        fh.readline()
        _require(fh.readline().rstrip("\n")
                 == "x_m,y_m,rate_conventional_bps_hz,rate_pinching_bps_hz",
                 "heatmap: wrong header")
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    n = HEATMAP_AXIS.size
    _require(data.shape == (n * n, 4), f"heatmap: table shape {data.shape}")
    X, Y = np.meshgrid(HEATMAP_AXIS, HEATMAP_AXIS, indexing="ij")
    _require(np.allclose(data[:, 0], X.ravel(), rtol=0, atol=1e-9)
             and np.allclose(data[:, 1], Y.ravel(), rtol=0, atol=1e-9),
             "heatmap: cell coordinates are not the 2 cm grid")
    conventional, pinching = data[:, 2], data[:, 3]
    _require(bool(np.all(pinching >= conventional)),
             "heatmap: a cell rates the conventional antenna above the pinched one")
    if reference is not None:
        _require(np.allclose(column_fingerprint(conventional), reference, rtol=1e-9),
                 "heatmap: conventional column differs from the stored reference")
    return pinching


def heatmap_dense(seed: int, work: Path) -> Workload:
    scenario = save_scenario(presets.heatmap_scenario(), work / "scenario.yaml")
    out = work / "heatmap"
    argv = ("heatmap", "--scenario", str(scenario), "--out", str(out),
            "--seed", str(seed), "--grid-res", str(HEATMAP_RES_M))
    check = partial(_check_heatmap, reference=_reference("heatmap-dense", seed))
    sizes = {"cells": HEATMAP_AXIS.size ** 2, "grid_res_m": HEATMAP_RES_M,
             "bounds_m": [-5.0, 5.0, -5.0, 5.0]}
    return Workload(argv, out / "heatmap.csv", HEATMAP_AXIS.size ** 2, "cells", check, sizes)


# --------------------------------------------------------------------------
# tdma-crowd
# --------------------------------------------------------------------------

def tdma_expected_rates(users: np.ndarray, feed, axis, length_m: float,
                        frequency_hz: float, snr_db: float) -> np.ndarray:
    """Closed form: log2(1 + rho*(lambda0/(4*pi*d))^2)/K, d to the user's projection."""
    offsets = np.clip((users - feed) @ axis, 0.0, length_m)
    d = np.linalg.norm(users - (feed + offsets[:, None] * axis), axis=1)
    lam0 = SPEED_OF_LIGHT_M_S / frequency_hz
    rho = 10.0 ** (snr_db / 10.0)
    return np.log2(1.0 + rho * (lam0 / (4.0 * np.pi * d)) ** 2) / len(users)


def _check_tdma(path: Path, expected: np.ndarray) -> np.ndarray:
    rows = read_table(path, "scheme,user,sinr_db,rate_bps_hz")
    _require(len(rows) == expected.size, f"tdma_demo: {len(rows)} rows")
    _require(all(r[0] == "tdma" and int(r[1]) == u for u, r in enumerate(rows)),
             "tdma_demo: scheme or user column out of order")
    rates = np.array([float(r[3]) for r in rows])
    _require(np.allclose(rates, expected, rtol=1e-9, atol=0.0),
             "tdma_demo: a user's rate differs from the closed form")
    return rates


def tdma_crowd(seed: int, work: Path) -> Workload:
    xmin, xmax, ymin, ymax = TDMA_FLOOR_M
    rng = np.random.default_rng(seed)
    users = np.column_stack([rng.uniform(xmin, xmax, TDMA_USERS),
                             rng.uniform(ymin, ymax, TDMA_USERS),
                             np.zeros(TDMA_USERS)])
    base = presets.tdma_scenario()
    scenario = save_scenario(dataclasses.replace(base, users=UserSet(users)),
                             work / "scenario.yaml")
    guide = base.waveguides[0]
    expected = tdma_expected_rates(users, np.array(guide.feed_point),
                                   np.array(guide.axis_direction), guide.length_m,
                                   base.carrier.frequency_hz,
                                   10.0 * math.log10(base.transmit_snr))
    out = work / "tdma"
    argv = ("tdma-demo", "--scenario", str(scenario), "--out", str(out), "--seed", str(seed))
    sizes = {"users": TDMA_USERS, "floor_m": list(TDMA_FLOOR_M), "guides": 1}
    return Workload(argv, out / "tdma_demo.csv", TDMA_USERS, "users",
                    partial(_check_tdma, expected=expected), sizes)


WORKLOADS = {"mimo-sweep": mimo_sweep, "heatmap-dense": heatmap_dense,
             "tdma-crowd": tdma_crowd}
