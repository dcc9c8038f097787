import dataclasses
import hashlib
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from pinchsim import cli
from pinchsim.beamforming import RankDeficiencyError
from pinchsim.presets import compare_scenario, heatmap_scenario, noma_scenario, tdma_scenario
from pinchsim.scenario import UserSet
from pinchsim.scenario_io import save_scenario


@pytest.fixture
def scenario_file(tmp_path):
    return str(save_scenario(heatmap_scenario(los_kind="always_los"),
                             tmp_path / "scenario.yaml"))


def test_heatmap_subcommand_writes_csv(tmp_path, scenario_file, capsys):
    out = tmp_path / "out"
    code = cli.main(["heatmap", "--scenario", scenario_file, "--out", str(out),
                     "--seed", "3", "--grid-res", "1.0"])
    assert code == 0
    assert (out / "heatmap.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_missing_scenario_file_is_config_error(tmp_path, capsys):
    code = cli.main(["heatmap", "--scenario", str(tmp_path / "ghost.yaml"),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_invalid_flag_value_is_config_error(tmp_path, scenario_file, capsys):
    code = cli.main(["compare-mimo", "--scenario", scenario_file,
                     "--out", str(tmp_path / "out"), "--snr-db", "ten,twenty"])
    assert code == cli.EXIT_CONFIG


def test_numerical_failures_map_to_exit_3(monkeypatch, tmp_path, scenario_file, capsys):
    def boom(cfg):
        raise RankDeficiencyError("all candidates singular")

    monkeypatch.setattr(cli, "run_experiment", boom)
    code = cli.main(["heatmap", "--scenario", scenario_file,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@settings(max_examples=10, deadline=None)
@given(field=st.sampled_from(["frequency_hz", "transmit_snr_db", "length_m", "los_model"]),
       value=st.sampled_from([".nan", ".inf", "-.inf",
                              '!!float "abc"', '!!int ""', '!!timestamp "x"']))
@example(field="frequency_hz", value='!!float "abc"')
@example(field="transmit_snr_db", value='!!int ""')
@example(field="length_m", value='!!timestamp "x"')
@example(field="los_model", value="5")
@example(field="los_model", value="inmo")
@example(field="los_model", value="0")
@example(field="los_model", value="false")
@example(field="los_model", value="''")
def test_non_finite_scenario_number_exits_2(tmp_path_factory, field, value):
    tmp = tmp_path_factory.mktemp("nf")
    path = save_scenario(tdma_scenario(), tmp / "scenario.yaml")
    text = path.read_text(encoding="utf-8")
    # the key's line and the more indented lines of its section, if any
    text, n = re.subn(rf"^( *){field}:.*(?:\n\1 .*)*",
                      lambda m: f"{m[1]}{field}: {value}", text, count=1, flags=re.M)
    assert n == 1
    path.write_text(text, encoding="utf-8")
    code = cli.main(["tdma-demo", "--scenario", str(path), "--out", str(tmp / "out")])
    assert code == cli.EXIT_CONFIG
    assert not (tmp / "out" / "tdma_demo.csv").exists()


@pytest.mark.parametrize("snr_db", ["4000.0", "-4000.0", "3000.5", "-3000.5"])
def test_out_of_range_scenario_snr_exits_2(tmp_path, capsys, snr_db):
    path = save_scenario(tdma_scenario(), tmp_path / "scenario.yaml")
    text, n = re.subn(r"^(\s*transmit_snr_db:) .*$", rf"\1 {snr_db}",
                      path.read_text(encoding="utf-8"), count=1, flags=re.M)
    assert n == 1
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["tdma-demo", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not (out / "tdma_demo.csv").exists()


@pytest.mark.parametrize("snr_db", ["3000.0", "-3000.0"])
def test_scenario_snr_at_the_range_edge_is_accepted(tmp_path, snr_db):
    path = save_scenario(tdma_scenario(), tmp_path / "scenario.yaml")
    text, n = re.subn(r"^(\s*transmit_snr_db:) .*$", rf"\1 {snr_db}",
                      path.read_text(encoding="utf-8"), count=1, flags=re.M)
    assert n == 1
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["tdma-demo", "--scenario", str(path), "--out", str(out)]) == 0
    assert (out / "tdma_demo.csv").exists()


def test_guide_on_users_plane_exits_2(tmp_path, capsys):
    base = heatmap_scenario(los_kind="always_los")
    ground = dataclasses.replace(base, waveguides=(dataclasses.replace(
        base.waveguides[0], feed_point=(0.0, -10.0, 0.0)),))
    path = save_scenario(ground, tmp_path / "ground.yaml")
    code = cli.main(["heatmap", "--scenario", str(path), "--out", str(tmp_path / "out"),
                     "--grid-res", "0.5"])
    assert code == cli.EXIT_CONFIG
    assert "guide_not_above_users" in capsys.readouterr().err
    assert not (tmp_path / "out" / "heatmap.csv").exists()


@pytest.mark.parametrize("constant, value", [
    ("inmo_far_scale", 5.0), ("inmo_near_decay_m", -1.0), ("inmo_far_decay_m", 0.0)])
def test_bad_inmo_constants_exit_2(tmp_path, capsys, constant, value):
    base = heatmap_scenario(los_kind="inmo")
    bad = dataclasses.replace(base, los_model=dataclasses.replace(base.los_model,
                                                                  **{constant: value}))
    path = save_scenario(bad, tmp_path / "inmo.yaml")
    code = cli.main(["heatmap", "--scenario", str(path), "--out", str(tmp_path / "out"),
                     "--grid-res", "0.5"])
    assert code == cli.EXIT_CONFIG
    assert "bad_inmo_constants" in capsys.readouterr().err
    assert not (tmp_path / "out" / "heatmap.csv").exists()


@pytest.mark.parametrize("argv", [
    ["compare-mimo", "--drops", "1", "--snr-db", "nan"],
    ["compare-mimo", "--drops", "1", "--snr-db", "inf,10"],
    ["compare-mimo", "--drops", "1", "--snr-db", "10", "--budget", "-1"],
    ["compare-mimo", "--drops", "1", "--snr-db", "10", "--bounds", "nan", "5", "-5", "5"],
    ["heatmap", "--bounds", "nan", "5", "-5", "5"],
    ["heatmap", "--grid-res", "nan"],
    # grids whose step count overflows a float, whose cells overflow an array
    # index, or whose smallest CSV (8 bytes a row, 1e16 rows) exceeds the free disk
    ["heatmap", "--grid-res", "1e-320"],
    ["heatmap", "--bounds", "-5", "1.7e308", "-5", "5"],
    ["heatmap", "--grid-res", "1e-300"],
    ["heatmap", "--grid-res", "1e-12"],
    ["heatmap", "--grid-res", "1e-7"],
])
def test_malformed_experiment_flags_exit_2(tmp_path, capsys, argv):
    preset = compare_scenario() if argv[0] == "compare-mimo" else heatmap_scenario()
    path = save_scenario(preset, tmp_path / "scenario.yaml")
    out = tmp_path / "out"
    assert cli.main(argv + ["--scenario", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and err.count("\n") == 1
    assert not out.exists()


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["teleport"])
    assert exc.value.code == 2


def test_noma_and_tdma_subcommands(tmp_path):
    noma_path = str(save_scenario(noma_scenario(), tmp_path / "noma.yaml"))
    tdma_path = str(save_scenario(tdma_scenario(), tmp_path / "tdma.yaml"))
    assert cli.main(["noma-region", "--scenario", noma_path,
                     "--out", str(tmp_path / "n"), "--alpha-step", "0.05"]) == 0
    assert cli.main(["tdma-demo", "--scenario", tdma_path,
                     "--out", str(tmp_path / "t")]) == 0
    assert (tmp_path / "n" / "noma_region.csv").exists()
    assert (tmp_path / "t" / "tdma_demo.csv").exists()


@pytest.mark.parametrize("step, rows", [(1 / 3, 2), (1 / 7, 6)])
def test_noma_region_alpha_grid_stops_below_one(tmp_path, step, rows):
    # np.arange rounds the last alpha of these steps up to 1.0, a split of (0, 1)
    noma_path = str(save_scenario(noma_scenario(), tmp_path / "noma.yaml"))
    assert cli.main(["noma-region", "--scenario", noma_path, "--out", str(tmp_path / "n"),
                     "--alpha-step", repr(step)]) == 0
    lines = (tmp_path / "n" / "noma_region.csv").read_text().splitlines()
    alphas = [float(line.split(",")[0]) for line in lines[2:]]
    assert len(alphas) == rows and max(alphas) < 1.0


def test_compare_mimo_subcommand(tmp_path):
    from pinchsim.presets import compare_scenario

    path = str(save_scenario(compare_scenario(), tmp_path / "compare.yaml"))
    out = tmp_path / "c"
    code = cli.main(["compare-mimo", "--scenario", path, "--out", str(out),
                     "--seed", "2", "--snr-db", "10", "--drops", "3",
                     "--budget", "4"])
    assert code == 0
    lines = (out / "compare_mimo.csv").read_text().splitlines()
    assert lines[1] == "rho_db,scheme,mean_sum_rate_bps_hz"
    assert len(lines) == 2 + 4  # one row per scheme


def test_cli_runs_are_reproducible(tmp_path, scenario_file):
    hashes = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main(["heatmap", "--scenario", scenario_file, "--out", str(out),
                         "--seed", "9", "--grid-res", "1.0"]) == 0
        hashes.append(hashlib.sha256((out / "heatmap.csv").read_bytes()).hexdigest())
    assert hashes[0] == hashes[1]


def run_cli_csv(tmp_path, threads, scenario, argv, name) -> bytes:
    """The CSV ``name`` of one ``pinchsim`` run in a fresh interpreter with
    ``threads`` BLAS threads."""
    path = str(save_scenario(scenario, tmp_path / "scenario.yaml"))
    out = tmp_path / "out"
    env = dict(os.environ, OMP_NUM_THREADS=str(threads), OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-m", "pinchsim.cli", argv[0], "--scenario", path,
                           "--out", str(out), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return (out / name).read_bytes()


# sha256 of this run's CSV, and of its rows alone (every line after the
# metadata line, whose config digest moved when it began to hash the users by
# their bytes); the rows have held since the descent stepped a drop's SNR
# sweep as one batch
PINNED_SWEEP_SHA256 = "53dd116c48f4aaf951612ce9d2fe4b1e2bc1c11224e561247e431f24e6eea91d"
PINNED_SWEEP_BODY_SHA256 = "daeec202ba1658b4cbac96bc6b0b76fb26c6f807bdc66b591c497aa0a0d21b09"


@pytest.mark.parametrize("threads", [1, 2])
def test_compare_mimo_sweep_csv_is_pinned(tmp_path, threads):
    data = run_cli_csv(tmp_path, threads, compare_scenario(),
                       ["compare-mimo", "--seed", "3", "--snr-db", "90,100,110",
                        "--drops", "2", "--budget", "4"], "compare_mimo.csv")
    assert hashlib.sha256(data.split(b"\n", 1)[1]).hexdigest() == PINNED_SWEEP_BODY_SHA256
    assert hashlib.sha256(data).hexdigest() == PINNED_SWEEP_SHA256


# sha256 of a 4-guide, 4-user run's CSV, and of its rows alone, computed
# while every K > 3 candidate of the grid scan was rank-tested: the scan that
# rank-tests only the candidates that can win writes the same bytes
PINNED_SWEEP_4X4_SHA256 = "05892e131a2a04dd7d60cd2d93f747ca79d370e74df5613cadcc3a917be7afe3"
PINNED_SWEEP_4X4_BODY_SHA256 = "3ae40a9bf2690caa8a9171aa63adb91aa5bb497c954c8beb3bb77b91cc15b815"


@pytest.mark.parametrize("threads", [1, 2])
def test_compare_mimo_four_user_csv_is_pinned(tmp_path, threads):
    data = run_cli_csv(tmp_path, threads, compare_scenario(n_guides=4, n_users=4),
                       ["compare-mimo", "--seed", "3", "--snr-db", "90,110",
                        "--drops", "2", "--budget", "3"], "compare_mimo.csv")
    assert hashlib.sha256(data.split(b"\n", 1)[1]).hexdigest() == PINNED_SWEEP_4X4_BODY_SHA256
    assert hashlib.sha256(data).hexdigest() == PINNED_SWEEP_4X4_SHA256



@pytest.mark.parametrize("workers", [1, 2])
def test_four_user_csv_is_pinned_at_one_and_two_workers(tmp_path, monkeypatch, workers):
    # each of the two drops' tables fills a group, so two workers take one each
    from pinchsim import placement

    monkeypatch.setattr(placement, "_usable_cpus", lambda: workers)
    path = str(save_scenario(compare_scenario(n_guides=4, n_users=4), tmp_path / "s.yaml"))
    assert cli.main(["compare-mimo", "--scenario", path, "--out", str(tmp_path / "out"),
                     "--seed", "3", "--snr-db", "90,110", "--drops", "2", "--budget", "3"]) == 0
    data = (tmp_path / "out" / "compare_mimo.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_SWEEP_4X4_SHA256

def test_compare_mimo_default_sweep_is_the_case_study():
    args = cli.build_parser().parse_args(["compare-mimo", "--scenario", "s.yaml", "--out", "o"])
    assert cli.config_from_args(args).snr_sweep_db == (90.0, 100.0, 110.0, 120.0)
    assert cli.build_parser() is cli.build_parser()  # built once per process


# sha256 of this run's CSV, and of its rows alone (every line after the
# metadata line); the rows have held since before TDMA schedules held their
# antennas as arrays
PINNED_TDMA_CROWD_SHA256 = "70870402e3ecaec15d5b933ac5016e4878c4e031f0c14b41864f6ac5df130eef"
PINNED_TDMA_CROWD_BODY_SHA256 = "f9ec660bff73dd39262ff0252db081db7ac0936d853b646e3004b07d45755e18"


@pytest.mark.parametrize("threads", [1, 2])
def test_tdma_demo_crowd_csv_is_pinned(tmp_path, threads):
    rng = np.random.default_rng(300)
    users = np.column_stack([rng.uniform(-5.0, 5.0, 300), rng.uniform(-10.0, 10.0, 300),
                             np.zeros(300)])
    crowd = dataclasses.replace(tdma_scenario(), users=UserSet(users))
    data = run_cli_csv(tmp_path, threads, crowd, ["tdma-demo", "--seed", "3"], "tdma_demo.csv")
    assert hashlib.sha256(data.split(b"\n", 1)[1]).hexdigest() == PINNED_TDMA_CROWD_BODY_SHA256
    assert hashlib.sha256(data).hexdigest() == PINNED_TDMA_CROWD_SHA256


# sha256 of these runs' CSVs, and of their rows alone (every line after the
# metadata line), computed with the writer that still took tuple rows and
# float64 matrices, before every table became one structured array: the one
# heatmap and NOMA outputs that no other test pins byte for byte
PINNED_HEATMAP_SHA256 = "418ab65d7dcdc7a623576aef843b720e2b11b400ef03e86325f62979ea019c94"
PINNED_HEATMAP_BODY_SHA256 = "d8136f65130970faf0c4bb66a9727f3c62baa07dbd606f59e434b5676f676f7e"
# the same at 5 cm cells: 40,401 cells, so the map is computed in five chunks,
# the last one partial, with sampled LoS states
PINNED_HEATMAP_BLOCKS_SHA256 = "551d8bf6ee6d63aeaff98430cecaa5044464aa280e303fc592f8cfe449b0b481"
PINNED_HEATMAP_BLOCKS_BODY_SHA256 = (
    "d4e9d23f0e319603798d4aec42673b9948c6cdd226acf2de57a73f97c8a6a366")
PINNED_NOMA_SHA256 = "4d5f0548172d4ddc0a99e9dab918d4a07f4527196d4449887f97e7f0c92fbf3a"
PINNED_NOMA_BODY_SHA256 = "dfb2acacd12a27db801a0611892dda118e07ca9d12e3473179644f716539799a"


@pytest.mark.parametrize("threads", [1, 2])
def test_heatmap_csv_is_pinned(tmp_path, threads):
    data = run_cli_csv(tmp_path, threads, heatmap_scenario(),
                       ["heatmap", "--grid-res", "0.25", "--seed", "3"], "heatmap.csv")
    assert hashlib.sha256(data.split(b"\n", 1)[1]).hexdigest() == PINNED_HEATMAP_BODY_SHA256
    assert hashlib.sha256(data).hexdigest() == PINNED_HEATMAP_SHA256


@pytest.mark.parametrize("threads", [1, 2])
def test_heatmap_csv_over_several_blocks_is_pinned(tmp_path, threads):
    data = run_cli_csv(tmp_path, threads, heatmap_scenario(),
                       ["heatmap", "--grid-res", "0.05", "--seed", "3"], "heatmap.csv")
    assert hashlib.sha256(data.split(b"\n", 1)[1]).hexdigest() == PINNED_HEATMAP_BLOCKS_BODY_SHA256
    assert hashlib.sha256(data).hexdigest() == PINNED_HEATMAP_BLOCKS_SHA256


@pytest.mark.parametrize("threads", [1, 2])
def test_noma_region_csv_is_pinned(tmp_path, threads):
    data = run_cli_csv(tmp_path, threads, noma_scenario(), ["noma-region"], "noma_region.csv")
    assert hashlib.sha256(data.split(b"\n", 1)[1]).hexdigest() == PINNED_NOMA_BODY_SHA256
    assert hashlib.sha256(data).hexdigest() == PINNED_NOMA_SHA256
