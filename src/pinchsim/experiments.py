"""Experiment drivers: coverage heatmaps, MIMO comparisons, NOMA and TDMA.

Every run is deterministic given (config, seed): random user drops use one
seeded stream per experiment with per-drop substreams derived by counter,
grid cells consume draws in index order, and result files are written in a
fixed order with fixed formatting, so identical inputs yield byte-identical
outputs. Every runner writes its rows as ``<out_dir>/<kind>.csv`` through
:func:`write_csv` and returns them as an :class:`ExperimentTable`: a dtype
with a field per CSV column, the row count, a function from a chunk's index
to that chunk's rows and the metadata line's fields. The heatmap computes
each chunk's cells when the writer asks for it, the other runners slice one
array. ``table.rows`` joins the chunks on first access. Each CSV starts with
one ``#`` metadata line embedding the config digest and seed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import shutil
from collections.abc import Callable
from contextlib import closing
from dataclasses import dataclass
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
from .placement import _fork_map, _sweep_drops, _usable_cpus, place_single_for_group
from .scenario import Scenario, projected_offsets, validate_scenario
from .scenario_io import SNR_DB_LIMIT, _scenario_settings, load_scenario

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


_CHUNK_ROWS = 8192  # rows per chunk: bounds the memory of one chunk and its strings


@dataclass(frozen=True, eq=False)
class ExperimentTable:
    """One experiment's result, as written to its CSV: ``n_rows`` rows of the
    1-D structured ``dtype``, whose field names are the CSV's columns and whose
    field dtypes give the columns' kinds, and the metadata line's fields.
    ``len(table)`` is ``n_rows``. ``chunk(i)`` returns rows ``[i *
    _CHUNK_ROWS, (i + 1) * _CHUNK_ROWS)``, fewer in the last chunk, as a 1-D
    structured array of ``dtype``, for any i of the ``n_chunks`` in any order,
    in this process or a forked one. ``rows`` is the whole table as one array
    (e.g. ``table.rows["x_m"]``), joined from the chunks on first access."""

    dtype: np.dtype
    n_rows: int
    chunk: Callable[[int], np.ndarray]
    metadata: dict

    @classmethod
    def of(cls, rows: np.ndarray, metadata: dict) -> ExperimentTable:
        """The 1-D structured array ``rows`` as a table of its slices."""
        return cls(rows.dtype, len(rows),
                   lambda i: rows[i * _CHUNK_ROWS:(i + 1) * _CHUNK_ROWS], metadata)

    def __len__(self) -> int:
        return self.n_rows

    @property
    def n_chunks(self) -> int:
        return -(-self.n_rows // _CHUNK_ROWS)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        rows = np.empty(self.n_rows, self.dtype)
        for i in range(self.n_chunks):
            rows[i * _CHUNK_ROWS:(i + 1) * _CHUNK_ROWS] = self.chunk(i)
        return rows


def config_digest(cfg: ExperimentConfig, scenario: Scenario) -> str:
    """Short content hash of the run's semantics.

    File locations are excluded: the resolved scenario content is hashed
    instead of its path, so identical runs written to different directories
    produce identical digests (and identical output bytes). The users enter
    as the sha256 of their positions' bytes (C order, little-endian float64),
    which tells every bit apart, -0.0 from 0.0 included.
    """
    fields = dataclasses.asdict(cfg)
    fields.pop("scenario_path")
    fields.pop("out_dir")
    users = np.ascontiguousarray(scenario.users.positions, dtype="<f8")
    payload = {"config": fields,
               "scenario": {**_scenario_settings(scenario),
                            "users": hashlib.sha256(users).hexdigest()},
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


def write_csv(path, columns, rows, metadata: dict) -> Path:
    """Write a ``#`` metadata line, the header and ``rows`` to ``path``.

    ``rows`` is a 1-D structured array, taken as ``ExperimentTable.of`` it,
    or an :class:`ExperimentTable`, with one field per column, named as in
    ``columns``; the field's dtype gives the column's kind. ``len(rows)`` is
    the number of data rows written. Float64 cells are written as ``%.12g``;
    integer, bool and str cells as ``str``. Any other dtype raises
    ``ValueError`` before a file is created, as does a table whose
    ``metadata`` is not ``metadata``; a chunk of another dtype or of another
    row count than the table's ``n_rows`` gives it raises it while writing.
    Each chunk is formatted on its own and the texts are written in order
    into a temporary file next to ``path``, renamed onto it once complete: a
    failed write leaves no partial CSV and any earlier file as it was. A
    table of at least four chunks per worker is computed and formatted in
    ``min(usable CPUs, n_chunks // 4)`` forked workers (:func:`_fork_map`),
    so a chunk's error is raised here with its type and message and no
    worker outlives the call; otherwise chunk by chunk in this process. Each
    process holds one chunk and its text at a time.
    """
    path = Path(path)
    columns = tuple(columns)
    if isinstance(rows, np.ndarray) and rows.ndim == 1:
        rows = ExperimentTable.of(rows, metadata)
    dtype = rows.dtype if isinstance(rows, ExperimentTable) else None
    if (dtype is None or dtype.names != columns
            or not all(dt == np.float64 or dt.kind in "iubU" for dt, *_ in dtype.fields.values())):
        got = getattr(rows, "dtype", type(rows).__name__)
        raise ValueError(f"rows must be a 1-D structured array of float64, integer, bool "
                         f"and str fields named {columns}, got {got}")
    if rows.metadata != metadata:
        raise ValueError(f"metadata {metadata} differs from the table's {rows.metadata}")
    floats = [dtype[name] == np.float64 for name in columns]
    pools = {}

    def formatted(i):
        chunk = rows.chunk(i)
        if not (isinstance(chunk, np.ndarray) and chunk.ndim == 1 and chunk.dtype == dtype):
            got = getattr(chunk, "dtype", type(chunk).__name__)
            raise ValueError(f"every chunk must be a 1-D array of {dtype}, got {got}")
        want = min(_CHUNK_ROWS, len(rows) - i * _CHUNK_ROWS)
        if len(chunk) != want:
            raise ValueError(f"chunk {i} of a table of {len(rows)} rows holds "
                             f"{len(chunk)} rows, not {want}")
        return _format_chunk(chunk, floats, pools)

    path.parent.mkdir(parents=True, exist_ok=True)
    # "x" creates the file with the mode write_text would give it, unlike
    # tempfile's 0o600; the random name keeps concurrent writers apart
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        workers = min(_usable_cpus(), rows.n_chunks // 4)
        with fh, closing(_fork_map(formatted, rows.n_chunks, workers)) as texts:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in metadata.items()) + "\n")
            fh.write(",".join(columns) + "\n")
            for text in texts:
                fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _format_chunk(chunk: np.ndarray, floats: list[bool], pools: dict) -> str:
    """``chunk``'s rows as CSV lines. A column with at most half as many
    distinct values as the chunk has rows (float64 columns by bit pattern)
    has each of them formatted once and enters the row template as ``%s`` of
    those strings; "%.12g" % v == format(v, ".12g") for a float and
    "%s" % v == str(v), so pooling does not change the bytes. ``pools`` holds
    each column's last pool, which a chunk of the same distinct values reuses
    (the heatmap's y coordinates repeat in every chunk)."""
    cells = np.empty((len(chunk), len(floats)), dtype=object)
    template = []
    for j, name in enumerate(chunk.dtype.names):
        fmt = "%.12g" if floats[j] else "%s"
        # bit patterns keep 0.0 and -0.0, and NaN payloads, apart
        keys = chunk[name].view(np.int64) if floats[j] else chunk[name]
        # a sort finds the distinct values several times faster than np.unique's
        # hash table; timsort ("stable") takes the runs of str and integer columns
        # (one scheme, ascending indices) in one pass, quicksort unordered floats
        ordered = np.sort(keys, kind=None if floats[j] else "stable")
        first = np.ones(ordered.shape, dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        if 2 * np.count_nonzero(first) <= len(chunk):
            distinct = ordered[first]
            if j not in pools or not np.array_equal(pools[j][0], distinct):
                values = distinct.view(np.float64) if floats[j] else distinct
                pools[j] = distinct, np.array([fmt % v for v in values.tolist()], dtype=object)
            cells[:, j] = pools[j][1][np.searchsorted(distinct, keys)]
            template.append("%s")
        else:
            cells[:, j] = chunk[name]  # as Python floats, ints, bools and strs
            template.append(fmt)
    return ((",".join(template) + "\n") * len(chunk)) % tuple(cells.ravel().tolist())


def _write_table(cfg: ExperimentConfig, scenario: Scenario, **columns) -> ExperimentTable:
    """Write ``columns`` (name -> 1-D array, in CSV order) to ``<out_dir>/<kind>.csv``
    as one structured array and return them as a table of its slices."""
    values = [np.asarray(v) for v in columns.values()]
    rows = np.empty(len(values[0]), dtype=[(name, v.dtype) for name, v in zip(columns, values)])
    for name, v in zip(columns, values):
        rows[name] = v
    table = ExperimentTable.of(rows, _metadata(cfg, scenario))
    write_csv(Path(cfg.out_dir) / f"{cfg.kind}.csv", rows.dtype.names, table, table.metadata)
    return table


def _load_validated(cfg: ExperimentConfig, require_common_height=False) -> Scenario:
    scenario = load_scenario(cfg.scenario_path)
    problems = validate_scenario(scenario, require_common_height=require_common_height)
    if problems:
        raise ConfigError("invalid scenario: "
                          + "; ".join(f"{v.code} ({v.detail})" for v in problems))
    return scenario


def _grid_points(lo: float, hi: float, res: float, name: str) -> int:
    steps = (hi - lo) / res
    if not math.isfinite(steps):
        raise ConfigError(f"grid resolution {res} gives {steps} steps over {name} [{lo}, {hi}]")
    if abs(steps - round(steps)) > 1e-9:
        raise ConfigError(
            f"grid resolution {res} does not evenly divide the {name} span "
            f"[{lo}, {hi}]; the grid must cover the bounds exactly")
    return int(round(steps)) + 1


def _grid_shape(cfg: ExperimentConfig) -> tuple[int, int]:
    """The heatmap grid's number of points along x and y, once its cells are
    known to fit an array index and their smallest CSV the free disk space."""
    xmin, xmax, ymin, ymax = cfg.grid_bounds
    nx = _grid_points(xmin, xmax, cfg.grid_res_m, "x")
    ny = _grid_points(ymin, ymax, cfg.grid_res_m, "y")
    if nx * ny > np.iinfo(np.intp).max:
        raise ConfigError(f"a grid of {nx:.6g} x {ny:.6g} cells exceeds the largest "
                          f"array index, {np.iinfo(np.intp).max}")
    out = Path(cfg.out_dir).absolute()
    free = shutil.disk_usage(next(p for p in (out, *out.parents) if p.exists())).free
    if 8 * nx * ny > free:  # 8 bytes: four one-character cells, three commas, a newline
        raise ConfigError(f"a grid of {nx:.6g} x {ny:.6g} cells needs at least "
                          f"{8 * nx * ny:.6g} bytes of CSV, more than the {free} free "
                          f"under {cfg.out_dir}")
    return nx, ny


def _grid_coords(i: np.ndarray, n: int, lo: float, hi: float) -> np.ndarray:
    """``np.linspace(lo, hi, n)[i]``, bit for bit, without making the axis:
    linspace's last point is ``hi`` itself, unless it is its only point."""
    return np.where(i < max(n - 1, 1), i * ((hi - lo) / max(n - 1, 1)) + lo, hi)


def run_heatmap(cfg: ExperimentConfig) -> ExperimentTable:
    """Rate-vs-location maps for a fixed conventional antenna and a pinched one.

    One user per grid cell: the conventional antenna sits at the waveguide's
    feed point with its LoS state sampled from the scenario's model (seeded,
    one draw per cell in index order); the pinching antenna moves to the
    cell's projection onto the guide and is LoS by construction. The table's
    ``chunk(i)`` computes cells ``[i * _CHUNK_ROWS, ...)`` when asked, in the
    writer's workers or in this process: its uniforms come from a generator
    seeded with the run's seed and advanced past the cells before it, so
    they are the slice of one stream, and the bits those of one batch, in
    whatever order or process the chunks are computed. No array sized by the
    grid is made until ``.rows`` is read, which computes the chunks afresh
    from the same validated scenario.
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
    nx, ny = _grid_shape(cfg)
    n_cells = nx * ny
    dtype = np.dtype([(name, np.float64) for name in (
        "x_m", "y_m", "rate_conventional_bps_hz", "rate_pinching_bps_hz")])

    def chunk(i):
        cell = np.arange(i * _CHUNK_ROWS, min((i + 1) * _CHUNK_ROWS, n_cells))
        rng = np.random.default_rng(cfg.seed)
        rng.bit_generator.advance(i * _CHUNK_ROWS)  # one draw per cell before this chunk
        block = np.empty(len(cell), dtype)
        block["x_m"] = _grid_coords(cell // ny, nx, xmin, xmax)  # x-major, meshgrid's "ij"
        block["y_m"] = _grid_coords(cell % ny, ny, ymin, ymax)
        cells = np.column_stack([block["x_m"], block["y_m"], np.zeros(len(block))])
        d_conv = guide_distances(w, 0.0, cells)  # the conventional antenna sits at the feed
        los = rng.uniform(size=len(cells)) < los_probability(scenario.los_model, d_conv)
        g_conv = free_space_gain(d_conv, lam0, los, penalty)
        block["rate_conventional_bps_hz"] = shannon_rate(rho * np.abs(g_conv) ** 2)
        offsets = projected_offsets(w, cells)
        block["rate_pinching_bps_hz"] = shannon_rate(
            rho * link_power(scenario, w, offsets, cells))
        return block

    table = ExperimentTable(dtype, n_cells, chunk, _metadata(cfg, scenario))
    write_csv(Path(cfg.out_dir) / "heatmap.csv", dtype.names, table, table.metadata)
    return table


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
    users, h_convs = np.empty((cfg.drops, k, 3)), []
    for drop in range(cfg.drops):
        rng = np.random.default_rng([cfg.seed, drop])
        users[drop] = np.column_stack([rng.uniform(xmin, xmax, k),
                                       rng.uniform(ymin, ymax, k),
                                       np.zeros(k)])
        h_convs.append(_conventional_channel(users[drop], antenna_pos, scenario, rng))
    placed = _sweep_drops(scenario, users, np.asarray(rhos), cfg.cd_budget)
    for h_conv, solutions in zip(h_convs, placed):
        beams = {}
        for scheme, factory in (("conventional_zf", zf_beamformer),
                                ("conventional_mrc", mrc_beamformer)):
            try:
                beams[scheme] = factory(h_conv)
            except RankDeficiencyError:
                pass  # degenerate drop counts as zero rate for this scheme
        for rho_db, rho, solution in zip(cfg.snr_sweep_db, rhos, solutions):
            sums[rho_db, "conventional_bound"] += float(
                conventional_bound(h_conv, rho).sum())
            for scheme, beam in beams.items():
                sums[rho_db, scheme] += evaluate_rates(h_conv, beam, rho).sum_rate_bps_hz
            sums[rho_db, "pinching_zf"] += solution.objective_value

    keys = [(rho_db, scheme) for rho_db in cfg.snr_sweep_db for scheme in COMPARE_SCHEMES]
    return _write_table(
        cfg, scenario, rho_db=[float(rho_db) for rho_db, _ in keys],
        scheme=[scheme for _, scheme in keys],
        mean_sum_rate_bps_hz=[sums[key] / cfg.drops for key in keys])


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
    alphas = alphas[alphas < 1.0]  # arange can round its last step up to 1
    beam = np.ones(1, dtype=complex)
    rates = np.empty((len(alphas), 2))  # weak, strong
    for i, alpha in enumerate(alphas):
        cluster = NomaCluster(users=(weak, strong),
                              power_split=(1.0 - float(alpha), float(alpha)),
                              sic_order=(weak, strong))
        rates[i] = noma_rates(scenario, H, cluster, beam).per_user_rate_bps_hz
    return _write_table(
        cfg, scenario, alpha=alphas, rate_weak_bps_hz=rates[:, 0],
        rate_strong_bps_hz=rates[:, 1], sum_rate_bps_hz=rates[:, 0] + rates[:, 1])


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
                            minimum_spacing_m=np.zeros(k),
                            antenna_slot=np.repeat(np.arange(k), m),
                            antenna_guide=np.tile(np.arange(m), k),
                            offsets=offsets.T.ravel(), weights=np.ones(k * m))
    report = tdma_rates(scenario, schedule)

    sinr = report.per_user_sinr
    sinr_db = np.full(k, -np.inf)
    served = sinr > 0
    # math.log10 per user, not np.log10: the CSV keeps the libm digits
    sinr_db[served] = 10.0 * np.fromiter(map(math.log10, sinr[served].tolist()), float)
    return _write_table(
        cfg, scenario, scheme=np.full(k, report.scheme_label), user=np.arange(k),
        sinr_db=sinr_db, rate_bps_hz=report.per_user_rate_bps_hz)


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
