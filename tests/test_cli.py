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


@pytest.mark.parametrize("snr_db", ["4000.0", "-4000.0"])
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
])
def test_malformed_experiment_flags_exit_2(tmp_path, capsys, argv):
    preset = compare_scenario() if argv[0] == "compare-mimo" else heatmap_scenario()
    path = save_scenario(preset, tmp_path / "scenario.yaml")
    out = tmp_path / "out"
    assert cli.main(argv + ["--scenario", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
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


# sha256 of this run's CSV before the descent stepped a drop's SNR sweep as one batch
PINNED_SWEEP_SHA256 = "b2f40c98a9bbe2b996db63f2a5ab05e5b7df6e0abfc0dd173751c4f9a65e2bf3"


@pytest.mark.parametrize("threads", [1, 2])
def test_compare_mimo_sweep_csv_is_pinned(tmp_path, threads):
    path = str(save_scenario(compare_scenario(), tmp_path / "compare.yaml"))
    out = tmp_path / "out"
    env = dict(os.environ, OMP_NUM_THREADS=str(threads), OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-m", "pinchsim.cli", "compare-mimo",
                           "--scenario", path, "--out", str(out), "--seed", "3",
                           "--snr-db", "90,100,110", "--drops", "2", "--budget", "4"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256((out / "compare_mimo.csv").read_bytes()).hexdigest()
    assert digest == PINNED_SWEEP_SHA256


def test_compare_mimo_default_sweep_is_the_case_study():
    args = cli.build_parser().parse_args(["compare-mimo", "--scenario", "s.yaml", "--out", "o"])
    assert cli.config_from_args(args).snr_sweep_db == (90.0, 100.0, 110.0, 120.0)


# sha256 of this run's CSV before TDMA schedules held their antennas as arrays
PINNED_TDMA_CROWD_SHA256 = "c32af1557f22ebaee514f961fc7b1a5b24e7e556f169e7e81c6a2a99e2dd8a17"


@pytest.mark.parametrize("threads", [1, 2])
def test_tdma_demo_crowd_csv_is_pinned(tmp_path, threads):
    rng = np.random.default_rng(300)
    users = np.column_stack([rng.uniform(-5.0, 5.0, 300), rng.uniform(-10.0, 10.0, 300),
                             np.zeros(300)])
    crowd = dataclasses.replace(tdma_scenario(), users=UserSet(users))
    path = str(save_scenario(crowd, tmp_path / "crowd.yaml"))
    out = tmp_path / "out"
    env = dict(os.environ, OMP_NUM_THREADS=str(threads), OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-m", "pinchsim.cli", "tdma-demo",
                           "--scenario", path, "--out", str(out), "--seed", "3"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256((out / "tdma_demo.csv").read_bytes()).hexdigest()
    assert digest == PINNED_TDMA_CROWD_SHA256
