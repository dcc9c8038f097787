"""Experiment drivers: coverage heatmaps, MIMO comparisons, NOMA and TDMA.

Every run is deterministic given (config, seed): random user drops use one
seeded stream per experiment with per-drop substreams derived by counter,
grid cells consume draws in index order, and result files are written in a
fixed order with fixed formatting, so identical inputs yield byte-identical
outputs. Each CSV starts with one ``#`` metadata line embedding the config
digest and seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from ._version import __version__
from .access import NomaCluster, TdmaSchedule, noma_rates, tdma_rates
from .beamforming import (
    RankDeficiencyError,
    conventional_bound,
    evaluate_rates,
    mrc_beamformer,
    shannon_rate,
    zf_beamformer,
)
from .channel import build_channel, free_space_gain, guide_distances, link_power, los_probability
from .placement import optimize_multi_waveguide_sweep, place_single_for_group
from .scenario import Scenario, UserSet, projected_offsets, validate_scenario
from .scenario_io import SNR_DB_LIMIT, load_scenario, scenario_to_dict

EXPERIMENT_KINDS = ("heatmap", "compare_mimo", "noma_region", "tdma_demo")
COMPARE_SCHEMES = ("conventional_zf", "conventional_mrc", "conventional_bound",
                   "pinching_zf")


class ConfigError(ValueError):
    """An experiment configuration is unusable; the message says why."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: scenario, kind, grid, sweep, seed and output."""

    scenario_path: str
    kind: str
    out_dir: str
    seed: int = 0
    grid_bounds: tuple[float, float, float, float] = (-5.0, 5.0, -5.0, 5.0)
    grid_res_m: float = 0.25
    snr_sweep_db: tuple[float, ...] = ()
    drops: int = 100
    cd_budget: int = 10
    alpha_step: float = 0.01

    def validate(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; "
                              f"expected one of {EXPERIMENT_KINDS}")
        xmin, xmax, ymin, ymax = self.grid_bounds
        if not all(map(math.isfinite, self.grid_bounds)) or xmax <= xmin or ymax <= ymin:
            raise ConfigError(f"grid bounds must be finite and non-degenerate, "
                              f"got {self.grid_bounds}")
        if not 0 < self.grid_res_m < math.inf:
            raise ConfigError(f"grid resolution must be positive and finite, "
                              f"got {self.grid_res_m}")
        if self.kind == "compare_mimo" and not self.snr_sweep_db:
            raise ConfigError("compare_mimo needs a non-empty snr_sweep_db")
        # NaN fails the comparison
        if not all(-SNR_DB_LIMIT <= v <= SNR_DB_LIMIT for v in self.snr_sweep_db):
            raise ConfigError(f"transmit SNRs must lie in [-{SNR_DB_LIMIT:g}, "
                              f"{SNR_DB_LIMIT:g}] dB, got {self.snr_sweep_db}")
        if self.cd_budget < 1:
            raise ConfigError(f"cd_budget must be >= 1, got {self.cd_budget}")
        if self.seed < 0 or self.seed >= 2 ** 64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.drops < 1:
            raise ConfigError(f"drops must be >= 1, got {self.drops}")
        if not 0 < self.alpha_step < 1:
            raise ConfigError(f"alpha_step must lie in (0, 1), got {self.alpha_step}")


@dataclass(frozen=True, eq=False)
class HeatmapResult:
    """Per-cell rates over the grid plus run metadata."""

    x_m: np.ndarray
    y_m: np.ndarray
    rate_conventional: np.ndarray
    rate_pinching: np.ndarray
    n_x: int
    n_y: int
    metadata: dict


@dataclass(frozen=True, eq=False)
class ExperimentTable:
    """Generic tabular result: column names, rows, metadata."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict


def config_digest(cfg: ExperimentConfig, scenario: Scenario) -> str:
    """Short content hash of the run's semantics.

    File locations are excluded: the resolved scenario content is hashed
    instead of its path, so identical runs written to different directories
    produce identical digests (and identical output bytes).
    """
    fields = dataclasses.asdict(cfg)
    fields.pop("scenario_path")
    fields.pop("out_dir")
    payload = {"config": fields,
               "scenario": scenario_to_dict(scenario),
               "version": __version__}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _metadata(cfg: ExperimentConfig, scenario: Scenario) -> dict:
    return {
        "pinchsim": __version__,
        "experiment": cfg.kind,
        "config_digest": config_digest(cfg, scenario),
        "seed": cfg.seed,
    }


_CHUNK_ROWS = 8192  # rows formatted per write: bounds the memory of one chunk


def _cell_kinds(row) -> tuple[bool, ...]:
    return tuple(isinstance(v, float) for v in row)


def write_csv(path, columns, rows, metadata: dict) -> Path:
    """Write a ``#`` metadata line, the header and ``rows`` to ``path``.

    ``rows`` is a sequence of tuples or a ``(rows, columns)`` float64 array.
    Float cells are written as ``%.12g`` and other cells as ``str``, through
    one ``%``-template per table, so each column must hold only floats or
    only non-floats (``ValueError`` otherwise). Rows are formatted in chunks
    into a temporary file next to ``path``, renamed onto it once complete:
    a failed write leaves no partial CSV and any earlier file as it was.
    """
    path = Path(path)
    n = len(columns)
    if isinstance(rows, np.ndarray):
        if rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[1] != n:
            raise ValueError(f"array rows must be float64 of shape (rows, {n}), "
                             f"got {rows.dtype} {rows.shape}")
        kinds = (True,) * n
    else:
        kinds = _cell_kinds(rows[0]) if len(rows) else (True,) * n
        if len(kinds) != n:
            raise ValueError(f"row 0 has {len(kinds)} cells for {n} columns")
    # "%.12g" % v == format(v, ".12g") for a float and "%s" % v == str(v)
    line = ",".join("%.12g" if k else "%s" for k in kinds) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    # "x" creates the file with the mode write_text would give it, unlike
    # tempfile's 0o600; the random name keeps concurrent writers apart
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in metadata.items()) + "\n")
            fh.write(",".join(columns) + "\n")
            for start in range(0, len(rows), _CHUNK_ROWS):
                chunk = rows[start:start + _CHUNK_ROWS]
                if isinstance(chunk, np.ndarray):
                    cells = chunk.ravel().tolist()
                else:
                    for i, row in enumerate(chunk, start):
                        if _cell_kinds(row) != kinds:
                            raise ValueError(
                                f"row {i} does not match the cell kinds of row 0: "
                                "each column must hold only floats or only non-floats")
                    cells = list(chain.from_iterable(chunk))
                fh.write((line * len(chunk)) % tuple(cells))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _load_validated(cfg: ExperimentConfig, require_common_height=False) -> Scenario:
    scenario = load_scenario(cfg.scenario_path)
    problems = validate_scenario(scenario, require_common_height=require_common_height)
    if problems:
        raise ConfigError("invalid scenario: "
                          + "; ".join(f"{v.code} ({v.detail})" for v in problems))
    return scenario


def _grid_axis(lo: float, hi: float, res: float, name: str) -> np.ndarray:
    steps = (hi - lo) / res
    if abs(steps - round(steps)) > 1e-9:
        raise ConfigError(
            f"grid resolution {res} does not evenly divide the {name} span "
            f"[{lo}, {hi}]; the grid must cover the bounds exactly")
    return np.linspace(lo, hi, int(round(steps)) + 1)


def run_heatmap(cfg: ExperimentConfig) -> HeatmapResult:
    """Rate-vs-location maps for a fixed conventional antenna and a pinched one.

    One user per grid cell: the conventional antenna sits at the waveguide's
    feed point with its LoS state sampled from the scenario's model (seeded,
    one draw per cell in index order); the pinching antenna moves to the
    cell's projection onto the guide and is LoS by construction.
    """
    cfg.validate()
    scenario = _load_validated(cfg)
    if len(scenario.waveguides) != 1:
        raise ConfigError("heatmap needs a scenario with exactly one waveguide")
    w = scenario.waveguides[0]
    lam0 = scenario.carrier.free_space_wavelength_m
    rho = scenario.transmit_snr
    penalty = scenario.los_model.nlos_extra_loss_db

    xmin, xmax, ymin, ymax = cfg.grid_bounds
    xs = _grid_axis(xmin, xmax, cfg.grid_res_m, "x")
    ys = _grid_axis(ymin, ymax, cfg.grid_res_m, "y")
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    cells = np.column_stack([X.ravel(), Y.ravel(), np.zeros(X.size)])

    d_conv = guide_distances(w, 0.0, cells)  # the conventional antenna sits at the feed
    rng = np.random.default_rng(cfg.seed)
    los = rng.uniform(size=cells.shape[0]) < los_probability(scenario.los_model, d_conv)
    g_conv = free_space_gain(d_conv, lam0, los, penalty)
    rate_conv = shannon_rate(rho * np.abs(g_conv) ** 2)

    offsets = projected_offsets(w, cells)
    rate_pinch = shannon_rate(rho * link_power(scenario, w, offsets, cells))

    meta = _metadata(cfg, scenario)
    result = HeatmapResult(cells[:, 0], cells[:, 1], rate_conv, rate_pinch,
                           len(xs), len(ys), meta)
    write_csv(Path(cfg.out_dir) / "heatmap.csv",
              ("x_m", "y_m", "rate_conventional_bps_hz", "rate_pinching_bps_hz"),
              np.column_stack([cells[:, 0], cells[:, 1], rate_conv, rate_pinch]), meta)
    return result


def conventional_array_positions(scenario: Scenario) -> np.ndarray:
    """Fixed-antenna baseline: one antenna per waveguide, spaced half a
    free-space wavelength along x around the origin at the guide height."""
    m = len(scenario.waveguides)
    lam0 = scenario.carrier.free_space_wavelength_m
    height = float(scenario.waveguides[0].feed_point[2])
    xs = (np.arange(m) - (m - 1) / 2.0) * lam0 / 2.0
    return np.column_stack([xs, np.zeros(m), np.full(m, height)])


def _conventional_channel(users, antenna_pos, scenario, rng) -> np.ndarray:
    dist = np.linalg.norm(users[:, None, :] - antenna_pos[None, :, :], axis=2)
    p_los = los_probability(scenario.los_model, dist)
    los = rng.uniform(size=dist.shape) < p_los
    return free_space_gain(dist, scenario.carrier.free_space_wavelength_m,
                           los, scenario.los_model.nlos_extra_loss_db)


def run_compare_mimo(cfg: ExperimentConfig) -> ExperimentTable:
    """Mean rates of pinching+ZF vs the conventional-array schemes.

    For each seeded user drop: conventional ZF, conventional MRC and the
    interference-free conventional bound on a half-wavelength-spaced fixed
    array (LoS sampled per link), plus pinching with per-drop coordinate-
    descent placement and ZF (pinched links LoS). Per-scheme sum rates are
    averaged over drops for every swept transmit SNR.
    """
    cfg.validate()
    scenario = _load_validated(cfg, require_common_height=True)
    m = len(scenario.waveguides)
    if m < 2:
        raise ConfigError("compare_mimo needs at least two waveguides")
    k = len(scenario.users)
    if k > m:
        raise ConfigError(f"compare_mimo with ZF needs users <= waveguides, "
                          f"got {k} > {m}")
    antenna_pos = conventional_array_positions(scenario)
    xmin, xmax, ymin, ymax = cfg.grid_bounds

    sums = {(rho_db, scheme): 0.0 for rho_db in cfg.snr_sweep_db
            for scheme in COMPARE_SCHEMES}
    rhos = [10.0 ** (rho_db / 10.0) for rho_db in cfg.snr_sweep_db]
    for drop in range(cfg.drops):
        rng = np.random.default_rng([cfg.seed, drop])
        users = np.column_stack([rng.uniform(xmin, xmax, k),
                                 rng.uniform(ymin, ymax, k),
                                 np.zeros(k)])
        h_conv = _conventional_channel(users, antenna_pos, scenario, rng)
        beams = {}
        for scheme, factory in (("conventional_zf", zf_beamformer),
                                ("conventional_mrc", mrc_beamformer)):
            try:
                beams[scheme] = factory(h_conv)
            except RankDeficiencyError:
                pass  # degenerate drop counts as zero rate for this scheme
        drop_geometry = dataclasses.replace(scenario, users=UserSet(users))
        solutions = optimize_multi_waveguide_sweep(drop_geometry, rhos, "zf", "sum_rate",
                                                   budget=cfg.cd_budget)
        for rho_db, rho, solution in zip(cfg.snr_sweep_db, rhos, solutions):
            sums[rho_db, "conventional_bound"] += float(
                conventional_bound(h_conv, rho).sum())
            for scheme, beam in beams.items():
                sums[rho_db, scheme] += evaluate_rates(h_conv, beam, rho).sum_rate_bps_hz
            sums[rho_db, "pinching_zf"] += solution.objective_value

    rows = tuple((float(rho_db), scheme, sums[rho_db, scheme] / cfg.drops)
                 for rho_db in cfg.snr_sweep_db for scheme in COMPARE_SCHEMES)
    meta = _metadata(cfg, scenario)
    table = ExperimentTable(("rho_db", "scheme", "mean_sum_rate_bps_hz"), rows, meta)
    write_csv(Path(cfg.out_dir) / "compare_mimo.csv", table.columns, rows, meta)
    return table


def run_noma_region(cfg: ExperimentConfig) -> ExperimentTable:
    """Two-user NOMA rate pairs over a power-split sweep on one waveguide.

    The antenna sits at the group sum-rate-optimal offset; alpha is the
    power fraction of the stronger user, the weaker user's message is
    decoded first at both receivers.
    """
    cfg.validate()
    scenario = _load_validated(cfg)
    if len(scenario.waveguides) != 1 or len(scenario.users) != 2:
        raise ConfigError("noma_region needs exactly one waveguide and two users")
    w = scenario.waveguides[0]
    solution = place_single_for_group(w, scenario.users, "sum_rate", scenario)
    H = build_channel(scenario, solution.layout, los_states=True)
    gains = np.abs(H.gains[:, 0]) ** 2
    strong, weak = (0, 1) if gains[0] >= gains[1] else (1, 0)

    alphas = np.arange(cfg.alpha_step, 1.0, cfg.alpha_step)
    beam = np.ones(1, dtype=complex)
    rows = []
    for alpha in alphas:
        cluster = NomaCluster(users=(weak, strong),
                              power_split=(1.0 - float(alpha), float(alpha)),
                              sic_order=(weak, strong))
        report = noma_rates(scenario, H, cluster, beam)
        rate_weak = float(report.per_user_rate_bps_hz[0])
        rate_strong = float(report.per_user_rate_bps_hz[1])
        rows.append((float(alpha), rate_weak, rate_strong, rate_weak + rate_strong))

    meta = _metadata(cfg, scenario)
    table = ExperimentTable(("alpha", "rate_weak_bps_hz", "rate_strong_bps_hz",
                             "sum_rate_bps_hz"), tuple(rows), meta)
    write_csv(Path(cfg.out_dir) / "noma_region.csv", table.columns, rows, meta)
    return table


def run_tdma_demo(cfg: ExperimentConfig) -> ExperimentTable:
    """Equal-share TDMA with per-slot re-placement onto each user's projection.

    Slot u serves user u from one full-power antenna per guide, at the
    user's projection onto that guide.
    """
    cfg.validate()
    scenario = _load_validated(cfg)
    k = len(scenario.users)
    m = len(scenario.waveguides)
    offsets = np.array([projected_offsets(w, scenario.users.positions)
                        for w in scenario.waveguides])  # (guides, users)
    schedule = TdmaSchedule(served=np.arange(k), slot_fractions=np.full(k, 1.0 / k),
                            guides_per_slot=np.full(k, m), minimum_spacing_m=np.zeros(k),
                            antenna_slot=np.repeat(np.arange(k), m),
                            antenna_guide=np.tile(np.arange(m), k),
                            offsets=offsets.T.ravel(), weights=np.ones(k * m))
    report = tdma_rates(scenario, schedule)

    rows = tuple(
        (report.scheme_label, u, 10.0 * math.log10(sinr) if sinr > 0 else float("-inf"), rate)
        for u, (sinr, rate) in enumerate(zip(report.per_user_sinr.tolist(),
                                             report.per_user_rate_bps_hz.tolist())))
    meta = _metadata(cfg, scenario)
    table = ExperimentTable(("scheme", "user", "sinr_db", "rate_bps_hz"), rows, meta)
    write_csv(Path(cfg.out_dir) / "tdma_demo.csv", table.columns, rows, meta)
    return table


def run_experiment(cfg: ExperimentConfig):
    """Dispatch to the experiment named by ``cfg.kind``."""
    runners = {
        "heatmap": run_heatmap,
        "compare_mimo": run_compare_mimo,
        "noma_region": run_noma_region,
        "tdma_demo": run_tdma_demo,
    }
    cfg.validate()
    return runners[cfg.kind](cfg)
