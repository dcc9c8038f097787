import dataclasses
import hashlib
import math
import multiprocessing
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from pinchsim.experiments import (
    _CHUNK_ROWS,
    EXPERIMENT_KINDS,
    ConfigError,
    ExperimentConfig,
    ExperimentTable,
    _grid_coords,
    config_digest,
    run_compare_mimo,
    run_experiment,
    run_heatmap,
    run_noma_region,
    run_tdma_demo,
    write_csv,
)
from pinchsim.presets import (
    compare_scenario,
    heatmap_scenario,
    noma_scenario,
    tdma_scenario,
)
from pinchsim.scenario import UserSet
from pinchsim.scenario_io import load_scenario, save_scenario
from tests.conftest import set_cpus


def write_preset(tmp_path, scenario, name="scenario.yaml"):
    return str(save_scenario(scenario, tmp_path / name))


def heatmap_cfg(tmp_path, **overrides):
    kwargs = dict(
        kind="heatmap",
        out_dir=str(tmp_path / "out"),
        seed=5,
        grid_bounds=(-5.0, 5.0, -5.0, 5.0),
        grid_res_m=0.5,
    )
    kwargs.update(overrides)
    if "scenario_path" not in kwargs:  # the default file would overwrite a given scenario.yaml
        kwargs["scenario_path"] = write_preset(tmp_path, heatmap_scenario(los_kind="always_los"))
    return ExperimentConfig(**kwargs)


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig("s.yaml", "mystery", "out").validate()
    with pytest.raises(ConfigError, match="resolution"):
        heatmap_cfg(tmp_path, grid_res_m=0.0).validate()
    with pytest.raises(ConfigError, match="snr_sweep"):
        ExperimentConfig("s.yaml", "compare_mimo", "out").validate()
    with pytest.raises(ConfigError, match="bounds"):
        heatmap_cfg(tmp_path, grid_bounds=(1.0, 1.0, 0.0, 2.0)).validate()
    with pytest.raises(ConfigError, match="seed"):
        heatmap_cfg(tmp_path, seed=-1).validate()


def test_heatmap_structure(tmp_path):
    cfg = heatmap_cfg(tmp_path)
    rows = run_heatmap(cfg).rows
    nx, ny = np.unique(rows["x_m"]).size, np.unique(rows["y_m"]).size
    assert nx == ny == 21
    x = rows["x_m"].reshape(nx, ny)
    y = rows["y_m"].reshape(nx, ny)
    assert x.min() == -5.0 and x.max() == 5.0
    assert y.min() == -5.0 and y.max() == 5.0

    pinch = rows["rate_pinching_bps_hz"].reshape(nx, ny)
    conv = rows["rate_conventional_bps_hz"].reshape(nx, ny)
    # pinched antenna tracks the user along the guide: rate constant in y
    assert np.max(pinch.max(axis=1) - pinch.min(axis=1)) <= 1e-9
    # always_los scenario: pinching can only shorten the link
    assert np.all(pinch >= conv - 1e-12)
    # conventional rate decays monotonically away from the feed along y
    assert np.all(np.diff(conv, axis=1) <= 1e-12)

    out = tmp_path / "out" / "heatmap.csv"
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert f"seed={cfg.seed}" in lines[0]
    assert "config_digest=" in lines[0]
    assert lines[1] == "x_m,y_m,rate_conventional_bps_hz,rate_pinching_bps_hz"
    assert len(lines) == 2 + nx * ny


def test_heatmap_requires_single_guide(tmp_path):
    path = write_preset(tmp_path, compare_scenario(), name="three_guides.yaml")
    cfg = heatmap_cfg(tmp_path, scenario_path=path)
    with pytest.raises(ConfigError, match="one waveguide"):
        run_heatmap(cfg)


def test_heatmap_grid_must_cover_bounds(tmp_path):
    cfg = heatmap_cfg(tmp_path, grid_res_m=0.3)
    with pytest.raises(ConfigError, match="cover the bounds"):
        run_heatmap(cfg)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("los_kind", ["inmo", "exponential", "always_los"])
def test_heatmap_memory_is_one_block(tmp_path, monkeypatch, los_kind, workers):
    # 251,001 cells, an 8 MB table: a run holds one block and one chunk's
    # strings, whatever the LoS model and whether the chunks are computed
    # here or in workers; pooling the always-LoS rates over the whole column
    # held 21 MB
    set_cpus(monkeypatch, workers)
    cfg = heatmap_cfg(tmp_path, scenario_path=write_preset(
        tmp_path, heatmap_scenario(los_kind=los_kind)), grid_res_m=0.02)
    tracemalloc.start()
    try:
        run_heatmap(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_heatmap_makes_no_array_sized_by_an_axis(tmp_path, monkeypatch):
    # a 500,001 x 2 strip, stopped in its first chunk: its x axis as an array
    # would take 4 MB on its own
    from pinchsim import experiments

    def stop(*args):
        raise RuntimeError("stopped after the first block")

    monkeypatch.setattr(experiments, "_format_chunk", stop)
    cfg = heatmap_cfg(tmp_path, grid_bounds=(0.0, 5000.0, 0.0, 0.01), grid_res_m=0.01)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="first block"):
            run_heatmap(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_grid_coords_are_the_bits_of_linspace():
    rng = np.random.default_rng(27)
    axes = [(-0.0, 1.0, 1), (-0.0, 1.0, 2), (-5.0, 5.0, 1), (0.0, 5000.0, 500_001)]
    for _ in range(2000):
        lo = rng.standard_normal() * 10.0 ** rng.integers(-6, 7)
        hi = lo + rng.uniform(1e-3, 1.0) * 10.0 ** rng.integers(-6, 7)
        axes.append((lo, hi, int(rng.integers(1, 400))))
    for lo, hi, n in axes:
        i = np.arange(n)
        assert np.array_equal(_grid_coords(i, n, lo, hi).view(np.int64),
                              np.linspace(lo, hi, n).view(np.int64)), (lo, hi, n)


def test_compare_mimo_small_run(tmp_path):
    cfg = ExperimentConfig(
        scenario_path=write_preset(tmp_path, compare_scenario()),
        kind="compare_mimo",
        out_dir=str(tmp_path / "out"),
        seed=11,
        snr_sweep_db=(10.0,),
        drops=6,
        cd_budget=6,
    )
    table = run_compare_mimo(cfg)
    by_scheme = {(row[0], row[1]): row[2] for row in table.rows}
    assert set(s for _, s in by_scheme) == {
        "conventional_zf", "conventional_mrc", "conventional_bound", "pinching_zf"}
    assert by_scheme[(10.0, "conventional_bound")] >= by_scheme[(10.0, "conventional_zf")]
    assert by_scheme[(10.0, "conventional_bound")] >= by_scheme[(10.0, "conventional_mrc")]
    assert (tmp_path / "out" / "compare_mimo.csv").exists()


def test_compare_mimo_rank_deficient_zf_drop_adds_zero(tmp_path, monkeypatch):
    from pinchsim import experiments
    from pinchsim.beamforming import RankDeficiencyError

    cfg = ExperimentConfig(
        scenario_path=write_preset(tmp_path, compare_scenario()),
        kind="compare_mimo", out_dir=str(tmp_path / "out"), seed=11,
        snr_sweep_db=(10.0, 60.0, 110.0), drops=3, cd_budget=2)
    before = {row[:2]: row[2] for row in run_compare_mimo(cfg).rows.tolist()}
    calls = []

    def singular(h):
        calls.append(h)
        raise RankDeficiencyError("singular")

    monkeypatch.setattr(experiments, "zf_beamformer", singular)
    after = {row[:2]: row[2] for row in run_compare_mimo(cfg).rows.tolist()}
    assert len(calls) == cfg.drops  # one conventional ZF per drop, for every SNR
    for key, value in before.items():
        assert after[key] == (0.0 if key[1] == "conventional_zf" else value)


@pytest.mark.parametrize("drops", [1, 2, 3, 5])
def test_compare_mimo_drop_groups_match_one_sweep_per_drop(tmp_path, monkeypatch, drops):
    from pinchsim import experiments, optimize_multi_waveguide_sweep, placement

    cfg = ExperimentConfig(
        scenario_path=write_preset(tmp_path, compare_scenario()),
        kind="compare_mimo", out_dir=str(tmp_path / "grouped"), seed=5,
        snr_sweep_db=(0.0, 60.0, 120.0), drops=drops, cd_budget=3)
    descend, groups = placement._descend, []

    def counted(s, users, *rest):  # one call per group, in this process on one CPU
        groups.append(len(users))
        return descend(s, users, *rest)

    set_cpus(monkeypatch, 1)
    monkeypatch.setattr(placement, "_descend", counted)
    run_compare_mimo(cfg)
    # the preset's candidate tables let two drops share a lockstep; an odd tail steps alone
    assert groups == [2] * (drops // 2) + [1] * (drops % 2)

    def one_sweep_per_drop(s, users, snrs, budget):
        return [optimize_multi_waveguide_sweep(dataclasses.replace(s, users=UserSet(u)),
                                               snrs, budget) for u in users]

    monkeypatch.setattr(experiments, "_sweep_drops", one_sweep_per_drop)
    run_compare_mimo(dataclasses.replace(cfg, out_dir=str(tmp_path / "reference")))
    assert ((tmp_path / "grouped" / "compare_mimo.csv").read_bytes()
            == (tmp_path / "reference" / "compare_mimo.csv").read_bytes())


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def solution_fields(placed):
    return [[(sol.layout.offsets.tobytes(), sol.objective_value, sol.objective_kind,
              sol.iterations, sol.converged, sol.trace) for sol in solutions]
            for solutions in placed]


# the 3x3 preset steps two drops per group, so 5 drops make 3 groups; the 4x4
# one's tables fill a group with one drop
@pytest.mark.parametrize("guides, drops", [(3, 5), (4, 2)])
def test_compare_mimo_bits_match_at_one_and_two_workers(tmp_path, monkeypatch, forks,
                                                        guides, drops):
    from pinchsim import experiments

    cfg = ExperimentConfig(
        scenario_path=write_preset(tmp_path, compare_scenario(n_guides=guides,
                                                              n_users=guides)),
        kind="compare_mimo", out_dir="", seed=4, snr_sweep_db=(0.0, 90.0, 120.0),
        drops=drops, cd_budget=3)
    sweep, placed = experiments._sweep_drops, []

    def kept(*args):
        placed.append(sweep(*args))
        return placed[-1]

    monkeypatch.setattr(experiments, "_sweep_drops", kept)
    csvs = []
    for workers in (1, 2):
        set_cpus(monkeypatch, workers)
        out = tmp_path / f"w{workers}"
        run_compare_mimo(dataclasses.replace(cfg, out_dir=str(out)))
        csvs.append((out / "compare_mimo.csv").read_bytes())
    assert forks == [2]
    assert len(placed) == 2 and len(placed[0]) == drops
    assert solution_fields(placed[0]) == solution_fields(placed[1])
    assert csvs[0] == csvs[1]


def test_compare_mimo_leaves_no_process_or_thread(tmp_path, monkeypatch, forks):
    from pinchsim import placement

    set_cpus(monkeypatch, 2)
    cfg = ExperimentConfig(
        scenario_path=write_preset(tmp_path, compare_scenario()), kind="compare_mimo",
        out_dir=str(tmp_path / "out"), seed=2, snr_sweep_db=(90.0,), drops=4, cd_budget=2)
    threads = threading.active_count()
    run_compare_mimo(cfg)
    assert multiprocessing.active_children() == []
    assert_no_child()  # raw forks are no multiprocessing children
    assert threading.active_count() == threads

    def broken(*args):
        raise ValueError("no table")

    monkeypatch.setattr(placement, "_table", broken)
    with pytest.raises(ValueError, match="^no table$"):
        run_compare_mimo(cfg)
    assert multiprocessing.active_children() == []
    assert_no_child()
    assert threading.active_count() == threads
    assert forks == [2, 2]


@pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError])
def test_worker_errors_reach_the_cli_as_in_process(tmp_path, monkeypatch, capsys, forks,
                                                   error):
    from pinchsim import cli, placement

    def broken(*args):  # only _descend builds tables, so only a worker calls this
        raise error("table synthesis failed")

    monkeypatch.setattr(placement, "_table", broken)
    argv = ["compare-mimo", "--scenario", write_preset(tmp_path, compare_scenario()),
            "--out", str(tmp_path / "out"), "--snr-db", "90", "--drops", "4"]
    outcomes = []
    for workers in (1, 2):
        set_cpus(monkeypatch, workers)
        try:
            outcomes.append(cli.main(argv))
        except Exception as exc:  # what reaches the caller of the CLI
            outcomes.append((type(exc), str(exc)))
        outcomes.append(capsys.readouterr().err)
    assert forks == [2]
    assert outcomes[:2] == outcomes[2:]
    assert outcomes[:2] == ([(ValueError, "table synthesis failed"), ""]
                            if error is ValueError else
                            [cli.EXIT_NUMERICAL,
                             "pinchsim: numerical failure: table synthesis failed\n"])


def test_a_daemonic_caller_descends_in_process(monkeypatch, forks):
    from pinchsim import placement

    set_cpus(monkeypatch, 2)
    s = compare_scenario()
    users = np.random.default_rng(6).uniform(-5.0, 5.0, (4, 3, 3)) * [1.0, 1.0, 0.0]
    snrs = np.asarray([1e9, 1e11])
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def descend():  # a daemon may have no children
        try:
            send.send((len(forks), solution_fields(placement._sweep_drops(s, users, snrs, 2))))
        except Exception as exc:
            send.send(repr(exc))

    child = ctx.Process(target=descend, daemon=True)
    child.start()
    try:
        assert receive.poll(120)
        result = receive.recv()
    finally:
        child.join(30)
    assert child.exitcode == 0
    assert result == (0, solution_fields(placement._sweep_drops(s, users, snrs, 2)))
    assert forks == [2]  # this process is no daemon: the reference used workers


def test_compare_mimo_ordering_emerges_at_high_power(tmp_path):
    # At link budgets where per-link SINR >> 1, optimized pinching placement
    # beats the conventional-array interference-free bound on average.
    cfg = ExperimentConfig(
        scenario_path=write_preset(tmp_path, compare_scenario()),
        kind="compare_mimo",
        out_dir=str(tmp_path / "out"),
        seed=11,
        snr_sweep_db=(110.0,),
        drops=40,
        cd_budget=6,
    )
    table = run_compare_mimo(cfg)
    by_scheme = {row[1]: row[2] for row in table.rows}
    assert by_scheme["pinching_zf"] > by_scheme["conventional_bound"]
    assert by_scheme["conventional_bound"] > by_scheme["conventional_zf"]
    assert by_scheme["conventional_bound"] > by_scheme["conventional_mrc"]


def test_compare_mimo_point_region_converges_to_bound(tmp_path):
    # One user pinned at the origin: the optimized pinching antennas project
    # onto the conventional array's neighborhood and the rates converge.
    cfg = ExperimentConfig(
        scenario_path=write_preset(
            tmp_path, compare_scenario(n_users=1, los_kind="always_los")),
        kind="compare_mimo",
        out_dir=str(tmp_path / "out"),
        seed=3,
        grid_bounds=(-1e-6, 1e-6, -1e-6, 1e-6),
        snr_sweep_db=(120.0,),
        drops=4,
        cd_budget=6,
    )
    table = run_compare_mimo(cfg)
    by_scheme = {row[1]: row[2] for row in table.rows}
    gap = abs(by_scheme["pinching_zf"] - by_scheme["conventional_bound"])
    assert gap <= 0.05 * by_scheme["conventional_bound"]


def test_compare_mimo_rejects_unequal_heights(tmp_path):
    base = compare_scenario()
    tilted = dataclasses.replace(
        base, waveguides=(base.waveguides[0],
                          dataclasses.replace(base.waveguides[1],
                                              feed_point=(0.0, -10.0, 4.0)),
                          base.waveguides[2]))
    cfg = ExperimentConfig(
        scenario_path=write_preset(tmp_path, tilted),
        kind="compare_mimo", out_dir=str(tmp_path / "out"),
        snr_sweep_db=(10.0,), drops=2)
    with pytest.raises(ConfigError, match="unequal_waveguide_heights"):
        run_compare_mimo(cfg)


def test_noma_region_equal_gains_reproduce_sum_identity(tmp_path):
    cfg = ExperimentConfig(
        scenario_path=write_preset(tmp_path, noma_scenario(asymmetric=False)),
        kind="noma_region", out_dir=str(tmp_path / "out"), alpha_step=0.05)
    table = run_noma_region(cfg)
    sums = np.array([row[3] for row in table.rows])
    assert np.max(sums) - np.min(sums) <= 1e-9
    alphas = [row[0] for row in table.rows]
    assert alphas == sorted(alphas)
    assert (tmp_path / "out" / "noma_region.csv").exists()


# the per-alpha loop the runner's array expression replaced, as its oracle:
# the same bits, whichever user is the stronger, at low and high SNR
@pytest.mark.parametrize("scenario", [
    noma_scenario(), noma_scenario(asymmetric=False), noma_scenario(snr_db=20.0),
    dataclasses.replace(noma_scenario(), users=UserSet([(3.5, 6.0, 0.0), (1.0, -2.0, 0.0)]))],
    ids=["preset", "symmetric", "20dB", "swapped"])
def test_noma_region_rates_are_noma_rates_per_alpha(tmp_path, scenario):
    from pinchsim.access import NomaCluster, noma_rates
    from pinchsim.channel import build_channel
    from pinchsim.placement import place_single_for_group

    cfg = ExperimentConfig(scenario_path=write_preset(tmp_path, scenario), kind="noma_region",
                           out_dir=str(tmp_path / "out"), alpha_step=0.0125)
    table = run_noma_region(cfg)
    s = load_scenario(cfg.scenario_path)
    H = build_channel(s, place_single_for_group(s.waveguides[0], s.users, "sum_rate", s).layout,
                      los_states=True)
    gains = np.abs(H.gains[:, 0]) ** 2
    strong, weak = (0, 1) if gains[0] >= gains[1] else (1, 0)
    assert len(table) == 79
    for alpha, *rates in table.rows.tolist():
        cluster = NomaCluster(users=(weak, strong), power_split=(1.0 - alpha, alpha),
                              sic_order=(weak, strong))
        want = noma_rates(s, H, cluster, np.ones(1, dtype=complex)).per_user_rate_bps_hz
        assert rates == [want[0], want[1], want[0] + want[1]]


def test_noma_region_requires_two_users(tmp_path):
    cfg = ExperimentConfig(
        scenario_path=write_preset(tmp_path, tdma_scenario()),
        kind="noma_region", out_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="two users"):
        run_noma_region(cfg)


def test_tdma_demo_single_user_is_conventional_bound(tmp_path):
    base = tdma_scenario()
    solo = dataclasses.replace(base, users=type(base.users)([(2.0, 5.0, 0.0)]))
    cfg = ExperimentConfig(
        scenario_path=write_preset(tmp_path, solo),
        kind="tdma_demo", out_dir=str(tmp_path / "out"))
    table = run_tdma_demo(cfg)
    assert len(table.rows) == 1
    scheme, user, sinr_db, rate = table.rows[0]
    assert scheme == "tdma" and user == 0
    lam0 = solo.carrier.free_space_wavelength_m
    d = math.sqrt(2.0 ** 2 + 3.0 ** 2)
    expected = math.log2(1 + solo.transmit_snr * (lam0 / (4 * math.pi * d)) ** 2)
    assert rate == pytest.approx(expected, rel=1e-12)
    assert sinr_db == pytest.approx(10 * math.log10(2 ** expected - 1), rel=1e-9)


def test_tdma_demo_three_users(tmp_path):
    cfg = ExperimentConfig(
        scenario_path=write_preset(tmp_path, tdma_scenario()),
        kind="tdma_demo", out_dir=str(tmp_path / "out"))
    table = run_experiment(cfg)
    assert len(table.rows) == 3
    assert all(row[3] > 0 for row in table.rows)


def test_outputs_are_bit_reproducible(tmp_path):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = heatmap_cfg(tmp_path, out_dir=str(out), grid_res_m=1.0)
        run_heatmap(cfg)
        digests.append(hashlib.sha256((out / "heatmap.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_seed_changes_sampled_output(tmp_path):
    path = write_preset(tmp_path, heatmap_scenario(los_kind="inmo"))
    texts = []
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}"
        cfg = heatmap_cfg(tmp_path, scenario_path=path, out_dir=str(out),
                          seed=seed, grid_res_m=1.0)
        run_heatmap(cfg)
        texts.append((out / "heatmap.csv").read_text())
    assert texts[0] != texts[1]


def test_config_digest_tells_every_user_bit_apart():
    cfg = ExperimentConfig(scenario_path="s.yaml", kind="tdma_demo", out_dir="out")
    users = np.array([[1.5, -2.0, 0.0], [0.25, 3.0, 0.0], [-4.0, 1.0, 0.0]])
    moved = users.copy()
    moved[1, 0] = np.nextafter(moved[1, 0], np.inf)  # one ulp
    signed = users.copy()
    signed[0, 2] = -0.0
    swapped = users[[1, 0, 2]]
    digests = [config_digest(cfg, dataclasses.replace(tdma_scenario(), users=UserSet(u)))
               for u in (users, moved, signed, swapped)]
    assert len(set(digests)) == 4


def test_config_digest_ignores_where_the_scenario_is_saved(tmp_path):
    digests = set()
    for path in (tmp_path / "a" / "s.yaml", tmp_path / "b.yaml"):
        save_scenario(tdma_scenario(), path)
        cfg = ExperimentConfig(scenario_path=str(path), kind="tdma_demo",
                               out_dir=str(path.parent / "out"))
        digests.add(config_digest(cfg, load_scenario(path)))
    assert len(digests) == 1


# --- CSV writer -------------------------------------------------------------

HEATMAP_COLUMNS = ("x_m", "y_m", "rate_conventional_bps_hz", "rate_pinching_bps_hz")
SPECIAL_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e-310, 1e300)


def reference_csv(columns, rows, metadata) -> str:
    """The cell-by-cell formula that ``write_csv`` must reproduce byte for byte."""
    def fmt(value):
        return format(value, ".12g") if isinstance(value, float) else str(value)

    lines = ["# " + " ".join(f"{k}={v}" for k, v in metadata.items()), ",".join(columns)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# 0.0 and -0.0, two NaN payloads of each sign, infinities and subnormals
POOLED_FLOATS = np.array([0x0, 0x8000000000000000, 0x7FF8000000000000, 0x7FF8000000000001,
                          0xFFF8000000000000, 0xFFF0000000000001, 0x7FF0000000000000,
                          0xFFF0000000000000, 0x1, 0x800000000000000F, 0x000FFFFFFFFFFFFF],
                         dtype=np.uint64).view(np.float64)


def ulps_around(x, n=3):
    """x and the n floats on either side of it."""
    lo, hi, out = x, x, [x]
    for _ in range(n):
        lo, hi = np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


# a few ulps from the ties of %.12g's 12th digit (123456789012.5), from its
# rounding up to the next power of ten (9.9999999999995, 999999999999.5) and
# from the powers of ten where it changes notation (1e-5, 1e-4, 1e11, 1e12)
NEAR_EDGES = np.array([v for x in (123456789012.5, 1.000000000005, 0.000123456789012345,
                                   9.9999999999995, 999999999999.5, 99999999999.95,
                                   1e-5, 1e-4, 1e11, 1e12, 0.1, 0.3, 2.5)
                       for sign in (1.0, -1.0) for v in ulps_around(sign * x)])
# 2**53 and its neighbours, where exact float64 integers end, and int64's extremes
EDGE_INTS = np.array([sign * (2 ** 53 + d) for sign in (1, -1) for d in (-1, 0, 1)]
                     + [2 ** 63 - 1, -2 ** 63, 0, 9, -10, 9999, 10 ** 4, 10 ** 16 - 1],
                     dtype=np.int64)
# non-ASCII text and NUL characters, which the CSV keeps (a str field drops
# trailing NULs itself)
EDGE_TEXTS = ["\x00", "a\x00b", "\x00\x00c", "é", "日本語", "\U0001f4e1", "ß\x00ü"]

# each field kind's pool of values; rows draw from it, so a float pool of a few
# values over many rows is a column of few distinct values
FLOAT_POOL = st.lists(st.one_of(st.integers(0, POOLED_FLOATS.size - 1).map(POOLED_FLOATS.take),
                                st.floats(), st.sampled_from(SPECIAL_FLOATS)),
                      min_size=1, max_size=12)
POOLS = {
    "float": FLOAT_POOL,
    "distinct": FLOAT_POOL,  # float64, mostly distinct: every value is formatted in place
    # mostly distinct float64 that %.12g writes in fixed notation, some near its edges
    "fixed": st.just(NEAR_EDGES),
    "int": st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=12),
    "distinct_int": st.just(EDGE_INTS),  # int64 of every size, mostly distinct
    "index": st.just(None),  # strictly ascending int64
    "bool": st.just([False, True]),
    "str": st.lists(st.one_of(st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
                              st.sampled_from(EDGE_TEXTS)),
                    min_size=1, max_size=12),
    "distinct_str": st.just(EDGE_TEXTS),  # each row's number, then an edge text
}
DISTINCT_KINDS = ("distinct", "fixed", "distinct_int", "index", "distinct_str")


def distinct_column(kind, pool, n_rows, rng):
    """A column of ``kind`` with more distinct values than half its rows."""
    if kind == "index":
        return rng.integers(-2 ** 62, 2 ** 62) + np.cumsum(rng.integers(1, 10 ** 6, n_rows))
    if kind == "distinct_str":
        return np.array([f"{i}{pool[j]}" for i, j in enumerate(rng.integers(0, len(pool), n_rows))])
    if kind == "distinct":
        values = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-320, 300, n_rows)
    elif kind == "fixed":
        values = (rng.choice([-1.0, 1.0], n_rows) * rng.uniform(1.0, 10.0, n_rows)
                  * 10.0 ** rng.integers(-4, 12, n_rows))
    else:
        values = rng.integers(-2 ** 63, 2 ** 63, n_rows) >> rng.integers(0, 64, n_rows)
    special = rng.uniform(size=n_rows) < 0.3
    values[special] = rng.choice(np.array(pool), size=int(special.sum()))
    return values


def structured(names, arrays):
    rows = np.empty(len(arrays[0]), dtype=[(n, a.dtype) for n, a in zip(names, arrays)])
    for name, array in zip(names, arrays):
        rows[name] = array
    return rows


def chunks_of(rows, n_rows=None, fail_at=None, last_dtype=None, metadata=None):
    """``rows`` as a table of copies of its chunks, claiming ``n_rows``: chunk
    ``fail_at`` raises, and the last one can take another dtype. The metadata
    defaults to ``{"seed": 0}``."""
    from pinchsim import experiments

    n_rows = len(rows) if n_rows is None else n_rows

    def chunk(i):
        size = experiments._CHUNK_ROWS  # as the writer reads it
        if i == fail_at:
            raise RuntimeError("source failed")
        rows_i = rows[i * size:(i + 1) * size].copy()
        if last_dtype is not None and (i + 1) * size >= n_rows:
            rows_i = rows_i.astype(last_dtype)
        return rows_i
    return ExperimentTable(rows.dtype, n_rows, chunk,
                           {"seed": 0} if metadata is None else metadata)


# no shrinking: a failing table of up to 8,193 rows shrinks for minutes
@settings(max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(n_rows=st.sampled_from([0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1]),
       fields=st.lists(st.one_of(*(st.tuples(st.just(k), pool) for k, pool in POOLS.items())),
                       min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_write_csv_matches_reference(tmp_path_factory, n_rows, fields, seed):
    from pinchsim import experiments, placement

    rng = np.random.default_rng(seed)
    arrays = []
    for kind, pool in fields:
        if kind in DISTINCT_KINDS:
            values = distinct_column(kind, pool, n_rows, rng)
            assert n_rows == 0 or 2 * np.unique(values).size > n_rows
        else:
            values = np.array(pool, dtype={"float": float, "int": np.int64}.get(kind))
            values = values[rng.integers(0, values.size, n_rows)]
        arrays.append(values)
    names = tuple(f"{kind}{j}" for j, (kind, _) in enumerate(fields))
    rows = structured(names, arrays)
    meta = {"experiment": "t", "seed": seed}
    path = write_csv(tmp_path_factory.mktemp("csv") / "t.csv", names, rows, meta)
    # the reference sees the rows as tuples of Python floats, ints, bools and strs;
    # compared line by line, as pytest's diff of two whole texts takes minutes
    text = path.read_bytes()
    lines = text.decode("utf-8").split("\n")
    expected = reference_csv(names, rows.tolist(), meta).split("\n")
    assert len(lines) == len(expected)
    for line, want in zip(lines, expected):
        assert line == want
    # the same rows as a table of copies of chunks of a random size, up to 40
    # of them, formatted by two forked workers from 8 on
    chunk_rows = max(1, n_rows // int(rng.integers(1, 41)))
    table = chunks_of(rows, metadata=meta)
    patched = [(experiments, "_CHUNK_ROWS", chunk_rows),
               (experiments, "_usable_cpus", lambda: 2), (placement, "_usable_cpus", lambda: 2)]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patched]
    try:
        for module, name, value in patched:
            setattr(module, name, value)
        assert write_csv(path, names, table, meta).read_bytes() == text
        assert table.rows.tobytes() == rows.tobytes()
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


@pytest.mark.parametrize("rows", [
    np.array([(1.0,)], dtype=[("v", object)]),
    np.ones(2, dtype=[("v", np.float32)]),
    np.ones(2, dtype=[("v", complex)]),
    np.ones(2, dtype=[("v", ">f8")]),
    np.ones(2, dtype=[("v", "S3")]),
    np.ones(2, dtype=[("v", "M8[s]")]),
    np.ones(2, dtype=[("v", float, (2,))]),
    np.ones((2, 1), dtype=[("v", float)]),
    np.ones(2, dtype=[("w", float)]),
    np.ones(2, dtype=[("v", float), ("w", float)]),
    np.ones(2),
    np.ones((2, 1)),
    [(1.0,), (2.0,)],
], ids=["object", "float32", "complex", "big-endian", "bytes", "datetime", "subarray",
        "2-D", "other-name", "extra-field", "unstructured", "2-D-float64", "tuples"])
def test_write_csv_rejects_other_tables_before_any_file(tmp_path, rows):
    with pytest.raises(ValueError, match="1-D structured array"):
        write_csv(tmp_path / "out" / "m.csv", ("v",), rows, {})
    assert list(tmp_path.iterdir()) == []


def test_write_csv_rejects_other_metadata_before_any_file(tmp_path):
    rows = structured(("v",), [np.arange(3.0)])
    table = chunks_of(rows, metadata={"seed": 1})
    out = tmp_path / "out"
    for earlier in (None, b"# seed=1\nv\n7\n"):
        if earlier is not None:
            (out / "m.csv").write_bytes(earlier)
        with pytest.raises(ValueError, match="differs from the table's"):
            write_csv(out / "m.csv", ("v",), table, {"seed": 2})
        if earlier is None:
            assert not out.exists()  # no CSV, no temporary file
            out.mkdir()
        else:
            assert [p.name for p in out.iterdir()] == ["m.csv"]
            assert (out / "m.csv").read_bytes() == earlier
    assert write_csv(out / "m.csv", ("v",), table, {"seed": 1}).read_text() == (
        "# seed=1\nv\n0\n1\n2\n")


def test_heatmap_rows_match_the_csv_after_the_scenario_changes(tmp_path):
    # 40,401 cells: five blocks, the last partial
    path = write_preset(tmp_path, heatmap_scenario(los_kind="inmo"))
    table = run_heatmap(heatmap_cfg(tmp_path, scenario_path=path, grid_res_m=0.05))
    write_preset(tmp_path, compare_scenario())  # the rows come from the validated scenario
    text = (tmp_path / "out" / "heatmap.csv").read_bytes().decode("utf-8")
    assert len(table.rows) == len(table) == 201 * 201
    assert text == reference_csv(HEATMAP_COLUMNS, table.rows.tolist(), table.metadata)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_write_csv_rows_len_is_the_rows_written(tmp_path, monkeypatch, kind):
    from pinchsim import experiments

    counted = []
    write = experiments.write_csv

    def count_rows(*args, **kwargs):  # as the benchmark's per-layer trace counts them
        path = write(*args, **kwargs)
        counted.append(len(args[2]))
        return path

    monkeypatch.setattr(experiments, "write_csv", count_rows)
    out = tmp_path / "out"
    preset = {"heatmap": heatmap_scenario, "compare_mimo": compare_scenario,
              "noma_region": noma_scenario, "tdma_demo": tdma_scenario}[kind]()
    cfg = ExperimentConfig(scenario_path=write_preset(tmp_path, preset), kind=kind,
                           out_dir=str(out), grid_res_m=0.05, snr_sweep_db=(90.0, 100.0),
                           drops=2, alpha_step=0.1)
    run_experiment(cfg)
    lines = (out / f"{kind}.csv").read_text().count("\n")
    assert counted == [lines - 2]
    if kind == "heatmap":
        assert counted == [40401]


FLOAT_ROWS = structured(HEATMAP_COLUMNS, [np.arange(2 * _CHUNK_ROWS + 5.0)] * 4)


# three chunks, too few for workers: the writes happen here, where the hook sees them
@pytest.mark.parametrize("rows, error", [
    (chunks_of(FLOAT_ROWS), (OSError, "disk full")),
    (chunks_of(FLOAT_ROWS, fail_at=1), (RuntimeError, "source failed")),
    (chunks_of(FLOAT_ROWS, last_dtype=[(n, "<i8") for n in HEATMAP_COLUMNS]),
     (ValueError, "every chunk")),
    (chunks_of(FLOAT_ROWS[:_CHUNK_ROWS + 5], n_rows=len(FLOAT_ROWS)),
     (ValueError, "chunk 1 of a table of 16389 rows holds 5 rows, not 8192")),
    (chunks_of(FLOAT_ROWS, n_rows=_CHUNK_ROWS + 6),
     (ValueError, "chunk 1 of a table of 8198 rows holds 8192 rows, not 6")),
], ids=["write-fails", "source-raises", "later-dtype", "fewer-rows", "more-rows"])
def test_failed_write_keeps_earlier_csv(tmp_path, monkeypatch, rows, error):
    from pinchsim import experiments

    run_heatmap(heatmap_cfg(tmp_path))
    out = tmp_path / "out"
    before = (out / "heatmap.csv").read_bytes()
    writes = []

    def open_failing_after_first_chunk(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

        def write_three_then_fail(text):  # the metadata line, the header, one chunk
            if len(writes) == 3 and error[0] is OSError:
                raise OSError("disk full")
            writes.append(text)
            return write(text)

        fh.write = write_three_then_fail
        return fh

    monkeypatch.setattr(experiments, "open", open_failing_after_first_chunk, raising=False)
    with pytest.raises(error[0], match=error[1]):
        write_csv(out / "heatmap.csv", HEATMAP_COLUMNS, rows, {"seed": 0})
    assert len(writes) >= 3 and writes[2].count("\n") == _CHUNK_ROWS
    assert (out / "heatmap.csv").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["heatmap.csv"]


# 251 x 251 cells make 8 chunks and 401 x 201 make 10, both with a partial
# last chunk: at two CPUs, two workers format them
@pytest.mark.parametrize("bounds, res", [((-5.0, 5.0, -5.0, 5.0), 0.04),
                                         ((0.0, 20.0, -5.0, 5.0), 0.05)])
def test_heatmap_bits_match_at_one_and_two_workers(tmp_path, monkeypatch, forks, bounds, res):
    path = write_preset(tmp_path, heatmap_scenario(los_kind="inmo"))
    outcomes = []
    for workers in (1, 2):
        set_cpus(monkeypatch, workers)
        cfg = heatmap_cfg(tmp_path, scenario_path=path, grid_bounds=bounds, grid_res_m=res,
                          out_dir=str(tmp_path / f"w{workers}"))
        table = run_heatmap(cfg)
        assert table.n_chunks in (8, 10) and len(table) % _CHUNK_ROWS
        outcomes.append(((tmp_path / f"w{workers}" / "heatmap.csv").read_bytes(),
                         table.rows.tobytes()))
        assert_no_child()
    assert forks == [2]
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("seed", [0, 5, 7, 11])
def test_heatmap_chunks_draw_the_slices_of_one_stream(tmp_path, seed):
    from pinchsim.beamforming import shannon_rate
    from pinchsim.channel import free_space_gain, guide_distances, los_probability

    n = 5 * _CHUNK_ROWS + 7
    stream = np.random.default_rng(seed).uniform(size=n)
    for i in (0, 1, 3, 5):
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(i * _CHUNK_ROWS)
        size = min(_CHUNK_ROWS, n - i * _CHUNK_ROWS)
        assert np.array_equal(rng.uniform(size=size), stream[i * _CHUNK_ROWS:][:size])
    # 40,401 cells, five chunks: the conventional rates of one batch of draws,
    # whatever order the chunks are computed in
    path = write_preset(tmp_path, heatmap_scenario(los_kind="inmo"))
    table = run_heatmap(heatmap_cfg(tmp_path, scenario_path=path, grid_res_m=0.05, seed=seed))
    s = load_scenario(path)
    x, y = np.meshgrid(np.linspace(-5.0, 5.0, 201), np.linspace(-5.0, 5.0, 201), indexing="ij")
    cells = np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)])
    d = guide_distances(s.waveguides[0], 0.0, cells)
    los = np.random.default_rng(seed).uniform(size=len(cells)) < los_probability(s.los_model, d)
    gain = free_space_gain(d, s.carrier.free_space_wavelength_m, los,
                           s.los_model.nlos_extra_loss_db)
    want = shannon_rate(s.transmit_snr * np.abs(gain) ** 2)
    assert 0 < np.count_nonzero(los) < len(cells)
    assert table.rows["rate_conventional_bps_hz"].tobytes() == want.tobytes()
    for i in (4, 0, 2, 1, 3):
        assert table.chunk(i).tobytes() == table.rows[i * _CHUNK_ROWS:][:_CHUNK_ROWS].tobytes()


def nine_chunks(chunk):
    rows = structured(("v",), [np.arange(8 * _CHUNK_ROWS + 3.0)])
    return ExperimentTable(rows.dtype, len(rows),
                           lambda i: chunk(i, rows[i * _CHUNK_ROWS:(i + 1) * _CHUNK_ROWS]),
                           {"seed": 0})


def chunk_5_raises(i, rows):
    if i == 5:
        raise KeyError("chunk 5 failed")
    return rows


def chunk_5_is_short(i, rows):
    return rows[:-1] if i == 5 else rows


@pytest.mark.parametrize("chunk, error", [
    (chunk_5_raises, (KeyError, "'chunk 5 failed'")),
    (chunk_5_is_short, (ValueError, "chunk 5 of a table of 65539 rows holds 8191 rows, "
                                    "not 8192")),
], ids=["source-raises", "wrong-rows"])
def test_a_worker_error_is_raised_as_in_process(tmp_path, monkeypatch, forks, chunk, error):
    table = nine_chunks(chunk)
    out = tmp_path / "m.csv"
    out.write_bytes(b"earlier")
    outcomes = []
    for workers in (1, 2):
        set_cpus(monkeypatch, workers)
        with pytest.raises(Exception) as raised:
            write_csv(out, ("v",), table, {"seed": 0})
        outcomes.append((type(raised.value), str(raised.value)))
        assert out.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]
        assert_no_child()
    assert forks == [2]
    assert outcomes == [error, error]


def test_a_worker_that_dies_fails_the_write_promptly(tmp_path, monkeypatch, forks):
    parent = os.getpid()

    def chunk_5_exits(i, rows):
        if i == 5 and os.getpid() != parent:
            os._exit(3)
        return rows

    set_cpus(monkeypatch, 2)
    out = tmp_path / "m.csv"
    out.write_bytes(b"earlier")
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="died before sending result 5"):
        write_csv(out, ("v",), nine_chunks(chunk_5_exits), {"seed": 0})
    assert time.perf_counter() - start < 30
    assert out.read_bytes() == b"earlier"
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]
    assert_no_child()
    assert forks == [2]


def test_closing_a_fork_map_early_kills_its_workers(monkeypatch, forks):
    from pinchsim import placement

    def slow_after_two(i):
        if i >= 2:
            time.sleep(60)  # far longer than the close may take
        return i * i

    results = placement._fork_map(slow_after_two, 6, 2)
    assert [next(results), next(results)] == [0, 1]
    start = time.perf_counter()
    results.close()
    assert time.perf_counter() - start < 30
    assert_no_child()
    assert forks == [2]
