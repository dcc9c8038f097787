import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import conventional_bound
from pinchsim.experiments import (
    _CHUNK_ROWS,
    ConfigError,
    ExperimentConfig,
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
from pinchsim.scenario_io import save_scenario


def write_preset(tmp_path, scenario, name="scenario.yaml"):
    return str(save_scenario(scenario, tmp_path / name))


def heatmap_cfg(tmp_path, **overrides):
    kwargs = dict(
        scenario_path=write_preset(tmp_path, heatmap_scenario(los_kind="always_los")),
        kind="heatmap",
        out_dir=str(tmp_path / "out"),
        seed=5,
        grid_bounds=(-5.0, 5.0, -5.0, 5.0),
        grid_res_m=0.5,
    )
    kwargs.update(overrides)
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
    result = run_heatmap(cfg)
    nx, ny = result.n_x, result.n_y
    assert nx == ny == 21
    x = result.x_m.reshape(nx, ny)
    y = result.y_m.reshape(nx, ny)
    assert x.min() == -5.0 and x.max() == 5.0
    assert y.min() == -5.0 and y.max() == 5.0

    pinch = result.rate_pinching.reshape(nx, ny)
    conv = result.rate_conventional.reshape(nx, ny)
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
    before = {row[:2]: row[2] for row in run_compare_mimo(cfg).rows}
    calls = []

    def singular(h):
        calls.append(h)
        raise RankDeficiencyError("singular")

    monkeypatch.setattr(experiments, "zf_beamformer", singular)
    after = {row[:2]: row[2] for row in run_compare_mimo(cfg).rows}
    assert len(calls) == cfg.drops  # one conventional ZF per drop, for every SNR
    for key, value in before.items():
        assert after[key] == (0.0 if key[1] == "conventional_zf" else value)


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


def test_max_min_objective_also_beats_bound_at_high_power():
    # The high-power ordinal claim is objective-independent: optimizing the
    # weakest user's rate still lands above the conventional bound on average.
    import pinchsim as ps

    base = compare_scenario(los_kind="inmo")
    lam0 = base.carrier.free_space_wavelength_m
    conv = np.column_stack([(np.arange(3) - 1) * lam0 / 2, np.zeros(3), np.full(3, 3.0)])
    rho = 10.0 ** 11.0
    pinch_sum = bound_sum = 0.0
    drops = 20
    for drop in range(drops):
        rng = np.random.default_rng([11, drop])
        users = np.column_stack([rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3),
                                 np.zeros(3)])
        d = np.linalg.norm(users[:, None, :] - conv[None, :, :], axis=2)
        u = rng.uniform(size=(3, 3))
        from pinchsim import los_probability
        factor = np.where(u < los_probability(base.los_model, d), 1.0, 0.1)
        h = lam0 / (4 * np.pi * d) * np.exp(-2j * np.pi * d / lam0) * factor
        bound_sum += conventional_bound(h, rho).sum()
        s = dataclasses.replace(base, users=ps.UserSet(users), transmit_snr=rho)
        sol = ps.optimize_multi_waveguide(s, "zf", "max_min_rate", budget=6)
        H = ps.build_channel(s, sol.layout, los_states=True)
        pinch_sum += ps.evaluate_rates(
            H, ps.zf_beamformer(H), rho).per_user_rate_bps_hz.sum()
    assert pinch_sum / drops > bound_sum / drops


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


float_cell = st.one_of(st.floats(), st.floats().map(np.float64),
                       st.sampled_from(SPECIAL_FLOATS))
CELLS = {
    "float": float_cell,
    "int": st.integers(-10 ** 15, 10 ** 15),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
}


@st.composite
def tuple_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    rows = draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)), max_size=30))
    return tuple(f"{k}{j}" for j, k in enumerate(kinds)), rows


@settings(max_examples=200, deadline=None)
@given(table=tuple_tables())
def test_write_csv_tuple_rows_match_reference(tmp_path_factory, table):
    columns, rows = table
    meta = {"experiment": "t", "seed": 3}
    path = write_csv(tmp_path_factory.mktemp("csv") / "t.csv", columns, rows, meta)
    assert path.read_bytes().decode("utf-8") == reference_csv(columns, rows, meta)


@settings(max_examples=30, deadline=None)
@given(n_rows=st.sampled_from([0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1]),
       n_cols=st.integers(1, 4),
       pool=st.lists(float_cell.map(float), min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_write_csv_float_array_matches_reference(tmp_path_factory, n_rows, n_cols,
                                                 pool, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(
        -320, 300, (n_rows, n_cols))
    special = rng.uniform(size=values.shape) < 0.3
    values[special] = rng.choice(np.array(pool), size=int(special.sum()))
    columns = tuple(f"c{j}" for j in range(n_cols))
    meta = {"seed": seed}
    path = write_csv(tmp_path_factory.mktemp("csv") / "a.csv", columns, values, meta)
    # the reference sees np.float64 scalars, as the rows of zipped columns did
    expected = reference_csv(columns, [tuple(row) for row in values], meta)
    assert path.read_bytes().decode("utf-8") == expected


def test_write_csv_rejects_rows_unlike_row_0(tmp_path):
    with pytest.raises(ValueError, match="only floats or only non-floats"):
        write_csv(tmp_path / "m.csv", ("v",), [(1.0,), (10 ** 13,)], {})
    with pytest.raises(ValueError, match="only floats or only non-floats"):
        write_csv(tmp_path / "m.csv", ("v",), [(10 ** 13,), (1.0,)], {})
    with pytest.raises(ValueError, match="row 1 "):
        write_csv(tmp_path / "m.csv", ("a", "b"), [(1.0, 2.0), (3.0,)], {})
    with pytest.raises(ValueError, match="row 0 has 1 cells for 2 columns"):
        write_csv(tmp_path / "m.csv", ("a", "b"), [(3.0,), (1.0, 2.0)], {})
    with pytest.raises(ValueError, match="float64"):
        write_csv(tmp_path / "m.csv", ("v",), np.ones((2, 1), dtype=np.float32), {})
    assert list(tmp_path.iterdir()) == []


def test_heatmap_csv_matches_reference(tmp_path):
    cfg = heatmap_cfg(tmp_path, scenario_path=write_preset(
        tmp_path, heatmap_scenario(los_kind="inmo")))
    result = run_heatmap(cfg)
    rows = list(zip(result.x_m, result.y_m, result.rate_conventional, result.rate_pinching))
    text = (tmp_path / "out" / "heatmap.csv").read_bytes().decode("utf-8")
    assert text == reference_csv(HEATMAP_COLUMNS, rows, result.metadata)


def test_failed_write_keeps_earlier_csv(tmp_path):
    run_heatmap(heatmap_cfg(tmp_path))
    out = tmp_path / "out"
    before = (out / "heatmap.csv").read_bytes()
    bad = _CHUNK_ROWS + 2  # fails after the first chunk is written
    rows = [(float(i),) * 4 for i in range(_CHUNK_ROWS + 5)]
    rows[bad] = (1.0, 2.0, 3.0, 4)
    with pytest.raises(ValueError, match=f"row {bad} "):
        write_csv(out / "heatmap.csv", HEATMAP_COLUMNS, rows, {"seed": 0})
    assert (out / "heatmap.csv").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["heatmap.csv"]
