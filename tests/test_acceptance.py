"""Acceptance suite: one test per acceptance criterion, printed pass/fail.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion. Each test pins the tolerance stated for its criterion.
"""

import hashlib
import math
import os
import subprocess
import sys
import time

import numpy as np

from pinchsim import (
    LoSModelConfig,
    NomaCluster,
    PinchingLayout,
    align_multi_on_guide,
    build_channel,
    coherent_gain_bound,
    conventional_bound,
    evaluate_rates,
    guide_distances,
    guided_wavelength,
    link_gains,
    los_probability,
    mrc_beamformer,
    noma_rates,
    place_single_for_group,
    tdma_rates,
    zf_beamformer,
)
from pinchsim.experiments import ExperimentConfig, run_compare_mimo, run_heatmap
from pinchsim.presets import compare_scenario, heatmap_scenario, noma_scenario
from pinchsim.scenario import WaveguideSpec
from pinchsim.scenario_io import save_scenario
from tests.conftest import make_scenario, schedule_from_layouts

LAMBDA0 = 299792458.0 / 28e9
# Noise floor of the 28 GHz case study that ``compare_scenario`` copies. The
# program normalizes noise to 1, so P dBm of transmit power over this floor
# is a transmit SNR of P - NOISE_DBM dB.
NOISE_DBM = -90.0


def report(num, description, ok, detail=""):
    line = f"CRITERION {num:2d} [{'PASS' if ok else 'FAIL'}] {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_guided_wavelength_law():
    worst = 0.0
    for lam0 in (LAMBDA0, 1.0, 0.2, 3e-3, 42.0):
        got = guided_wavelength(lam0, 2.1)
        expected = lam0 * 2.1 ** -0.5
        worst = max(worst, abs(got - expected) / expected)
    report(1, "guided wavelength equals lambda0/sqrt(2.1)", worst <= 1e-12,
           f"max rel err {worst:.2e}")


def test_criterion_02_exponential_los_probability():
    model0 = LoSModelConfig(kind="exponential", rho_los_per_m=0.37)
    ok = los_probability(model0, 0.0) == 1.0
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        rho = rng.uniform(0.0, 2.0)
        r = rng.uniform(0.0, 60.0)
        got = los_probability(LoSModelConfig(kind="exponential", rho_los_per_m=rho), r)
        expected = math.exp(-rho * r)
        worst = max(worst, abs(got - expected) / max(expected, 1e-300))
    report(2, "exponential LoS probability matches exp(-rho*r)",
           ok and worst <= 1e-12, f"max rel err {worst:.2e}")


def test_criterion_03_in_guide_phase_model(guide_y):
    s = make_scenario([(2.0, 5.0, 0.0)], (guide_y,))
    user = s.users.positions[0]
    lam0 = s.carrier.free_space_wavelength_m
    lam_g = guided_wavelength(lam0, guide_y.relative_permittivity)

    def in_guide(x):
        """link_gains with its free-space phase k_0*d removed."""
        return (link_gains(s, guide_y, x, user)
                * np.exp(1j * (2.0 * math.pi / lam0) * guide_distances(guide_y, x, user)))

    base = np.random.default_rng(3).uniform(0.0, guide_y.length_m - lam_g, 50)
    f0 = in_guide(base)
    worst_full = np.max(np.abs(np.angle(in_guide(base + lam_g) * np.conj(f0))))
    worst_half = np.max(np.abs(np.abs(np.angle(in_guide(base + lam_g / 2) * np.conj(f0)))
                               - math.pi))
    report(3, "in-guide phase wraps by 2*pi per guided wavelength",
           worst_full <= 1e-9 and worst_half <= 1e-9,
           f"full {worst_full:.2e} rad, half {worst_half:.2e} rad")


def _well_conditioned(rng, users, feeds, min_rcond=1e-3):
    while True:
        G = rng.normal(size=(users, feeds)) + 1j * rng.normal(size=(users, feeds))
        sv = np.linalg.svd(G, compute_uv=False)
        if sv[-1] / sv[0] >= min_rcond:
            return G


def test_criterion_04_zf_nulling():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        G = _well_conditioned(rng, 3, 3)
        B = zf_beamformer(G)
        cross = np.abs(np.conj(G) @ B.vectors.T)
        np.fill_diagonal(cross, 0.0)
        worst = max(worst, float(np.max(cross / np.linalg.norm(G, axis=1)[:, None])))
    report(4, "ZF cross-channel residuals below 1e-10", worst <= 1e-10,
           f"max residual {worst:.2e}")


def test_criterion_05_mrc_optimality():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        h = rng.normal(size=m) + 1j * rng.normal(size=m)
        w = mrc_beamformer(h[None, :]).vectors[0]
        best = abs(np.conj(h) @ w)
        V = rng.normal(size=(1000, m)) + 1j * rng.normal(size=(1000, m))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        if not np.all(np.abs(V @ np.conj(h)) <= best + 1e-12):
            ok = False
            break
    report(5, "matched beam beats 1000 random unit beams on every trial", ok)


def test_criterion_06_bound_dominance(guide_y):
    rng = np.random.default_rng(6)
    ok = True
    worst = -np.inf

    for _ in range(350):  # ZF and MRC on random matrices
        users = int(rng.integers(1, 4))
        feeds = int(rng.integers(users, 5))
        G = _well_conditioned(rng, users, feeds)
        rho = 10.0 ** rng.uniform(-1, 11)
        bound = conventional_bound(G, rho)
        for factory in (zf_beamformer, mrc_beamformer):
            rates = evaluate_rates(G, factory(G), rho).per_user_rate_bps_hz
            gap = float(np.max(rates - bound))
            worst = max(worst, gap)
            ok &= gap <= 1e-12

    for _ in range(150):  # NOMA clusters sharing a random unit beam
        feeds = int(rng.integers(1, 4))
        G = rng.normal(size=(2, feeds)) + 1j * rng.normal(size=(2, feeds))
        beam = rng.normal(size=feeds) + 1j * rng.normal(size=feeds)
        beam /= np.linalg.norm(beam)
        rho = 10.0 ** rng.uniform(0, 11)
        gains = np.abs(np.conj(G) @ beam) ** 2
        weak, strong = np.argsort(gains)
        alpha = rng.uniform(0.05, 0.95)
        cluster = NomaCluster((int(weak), int(strong)), (1 - alpha, alpha),
                              (int(weak), int(strong)))
        s = make_scenario([(1, 1, 0)], snr_db=10 * math.log10(rho))
        rates = noma_rates(s, G, cluster, beam, transmit_snr=rho).per_user_rate_bps_hz
        bound = conventional_bound(G, rho)[[int(weak), int(strong)]]
        gap = float(np.max(rates - bound))
        worst = max(worst, gap)
        ok &= gap <= 1e-12

    for _ in range(150):  # single-slot TDMA against the slot channel's bound
        user = (rng.uniform(-4, 4), rng.uniform(0, 20), 0.0)
        s = make_scenario([user], (guide_y,), snr_db=rng.uniform(0, 110))
        offset = rng.uniform(0, guide_y.length_m)
        layout = PinchingLayout(((offset,),), ((1.0,),))
        frac_share = rng.uniform(0.1, 1.0)
        schedule = schedule_from_layouts(((0, layout),) * 2, (frac_share, 1.0 - frac_share))
        rates = tdma_rates(s, schedule).per_user_rate_bps_hz
        H = build_channel(s, layout, los_states=True)
        bound = conventional_bound(H, s.transmit_snr)
        gap = float(np.max(rates - bound))
        worst = max(worst, gap)
        ok &= gap <= 1e-12

    report(6, "conventional bound dominates ZF/MRC/NOMA/TDMA rates", ok,
           f"max rate-bound gap {worst:.2e}")


def test_criterion_07_heatmap_structure(tmp_path):
    start = time.perf_counter()
    scenario = heatmap_scenario(los_kind="always_los")
    cfg = ExperimentConfig(
        scenario_path=str(save_scenario(scenario, tmp_path / "s.yaml")),
        kind="heatmap", out_dir=str(tmp_path / "out"),
        seed=7, grid_bounds=(-5.0, 5.0, -5.0, 5.0), grid_res_m=0.25)
    result = run_heatmap(cfg)
    elapsed = time.perf_counter() - start

    pinch = result.rate_pinching.reshape(result.n_x, result.n_y)
    conv = result.rate_conventional.reshape(result.n_x, result.n_y)
    axis_dev = float(np.max(pinch.max(axis=1) - pinch.min(axis=1)))
    dominated = bool(np.all(pinch >= conv - 1e-12))
    monotone = bool(np.all(np.diff(conv, axis=1) <= 1e-12))
    ok = axis_dev <= 1e-9 and dominated and monotone and elapsed < 10.0
    report(7, "heatmap: pinching constant along guide, dominant, conv decays",
           ok, f"axis dev {axis_dev:.1e}, runtime {elapsed:.1f}s")


def test_criterion_08_mimo_comparison_ordering(tmp_path):
    powers_dbm = (0.0, 10.0, 20.0, 30.0)
    start = time.perf_counter()
    cfg = ExperimentConfig(
        scenario_path=str(save_scenario(compare_scenario(), tmp_path / "s.yaml")),
        kind="compare_mimo", out_dir=str(tmp_path / "out"),
        seed=8, grid_bounds=(-5.0, 5.0, -5.0, 5.0),
        snr_sweep_db=tuple(p_dbm - NOISE_DBM for p_dbm in powers_dbm), drops=100)
    table = run_compare_mimo(cfg)
    elapsed = time.perf_counter() - start
    means = {(row[0], row[1]): row[2] for row in table.rows}

    legs = []
    for p_dbm, rho_db in zip(powers_dbm, cfg.snr_sweep_db):
        bound = means[rho_db, "conventional_bound"]
        legs.append(("pinching>bound", p_dbm,
                     means[rho_db, "pinching_zf"] > bound,
                     means[rho_db, "pinching_zf"] / bound))
        legs.append(("bound>zf", p_dbm,
                     bound > means[rho_db, "conventional_zf"], None))
        legs.append(("bound>mrc", p_dbm,
                     bound > means[rho_db, "conventional_mrc"], None))
    failures = [(name, p_dbm, ratio) for name, p_dbm, ok, ratio in legs if not ok]
    detail = f"runtime {elapsed:.0f}s"
    if failures:
        detail += "; failed legs: " + ", ".join(
            f"{name}@{p_dbm:g}dBm" + (f" ratio {ratio:.3f}" if ratio else "")
            for name, p_dbm, ratio in failures)
    report(8, "mean pinching+ZF > conventional bound > conventional ZF/MRC "
              "at 0/10/20/30 dBm transmit power, -90 dBm noise "
              "(transmit SNR 90-120 dB) over 100 drops",
           not failures and elapsed < 60.0, detail)


def test_criterion_09_phase_alignment_coherence(guide_y):
    ok = True
    detail = []
    for user in ((0.0, 7.0, 0.0), (2.0, 12.0, 0.0)):
        s = make_scenario([user], (guide_y,))
        for n in (2, 4):
            sol = align_multi_on_guide(guide_y, user, n, s)
            H = build_channel(s, sol.layout, los_states=True)
            ratio = abs(H.gains[0, 0]) / coherent_gain_bound(H, 0)
            detail.append(f"n={n}: {ratio:.5f}")
            ok &= ratio >= 0.99
    report(9, "aligned arrays reach 99% of the coherent bound", ok,
           "; ".join(detail[:2] + detail[2:]))


def test_criterion_10_noma_identity_and_oma_dominance():
    # equal gains: SIC rates telescope to the single-user sum rate
    s = noma_scenario(asymmetric=False)
    w = s.waveguides[0]
    sol = place_single_for_group(w, s.users, "sum_rate", s)
    H = build_channel(s, sol.layout, los_states=True)
    g = abs(H.gains[0, 0]) ** 2
    rho = s.transmit_snr
    total = math.log2(1.0 + g * rho)
    beam = np.ones(1, dtype=complex)
    worst = 0.0
    for alpha in np.arange(0.01, 1.0, 0.01):
        cluster = NomaCluster((0, 1), (1 - alpha, alpha), (0, 1))
        rates = noma_rates(s, H, cluster, beam).per_user_rate_bps_hz
        worst = max(worst, abs(rates.sum() - total))
    identity_ok = worst <= 1e-12 * max(1.0, total)

    # asymmetric drops: the NOMA boundary covers the OMA time-share segment
    rng = np.random.default_rng(10)
    dominance_ok = True
    checked = 0
    while checked < 6:
        users = [(rng.uniform(-4, 4), rng.uniform(1, 19), 0.0) for _ in range(2)]
        sa = make_scenario(users, snr_db=110.0)
        wa = sa.waveguides[0]
        sol = place_single_for_group(wa, sa.users, "sum_rate", sa)
        Ha = build_channel(sa, sol.layout, los_states=True)
        gains = np.abs(Ha.gains[:, 0]) ** 2
        if max(gains) < 2.0 * min(gains):
            continue
        checked += 1
        strong, weak = (0, 1) if gains[0] >= gains[1] else (1, 0)
        solo = {u: math.log2(1 + gains[u] * sa.transmit_snr) for u in (strong, weak)}
        t = np.logspace(-8, 0, 400)
        alphas = np.unique(np.clip(np.concatenate([t, 1.0 - t]), 1e-10, 1 - 1e-10))
        pairs = []
        for alpha in alphas:
            cluster = NomaCluster((weak, strong), (1 - alpha, alpha), (weak, strong))
            r = noma_rates(sa, Ha, cluster, beam).per_user_rate_bps_hz
            pairs.append((r[1], r[0]))
        pairs = np.asarray(pairs)
        for tau in np.arange(0.05, 0.96, 0.05):
            target = (tau * solo[strong], (1 - tau) * solo[weak])
            if not np.any((pairs[:, 0] >= target[0] - 1e-9)
                          & (pairs[:, 1] >= target[1] - 1e-9)):
                dominance_ok = False
    report(10, "equal-gain SIC identity and NOMA-over-OMA dominance",
           identity_ok and dominance_ok, f"identity err {worst:.2e}")


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(11)
    ok = True
    worst = 0.0
    for _ in range(100):
        length = rng.uniform(8.0, 25.0)
        height = rng.uniform(1.0, 5.0)
        guide = WaveguideSpec(feed_point=(rng.uniform(-2, 2), 0.0, height),
                              axis_direction=(0.0, 1.0, 0.0), length_m=length)
        n_users = int(rng.integers(1, 5))
        users = [(rng.uniform(-5, 5), rng.uniform(-2, length + 2), 0.0)
                 for _ in range(n_users)]
        s = make_scenario(users, (guide,), snr_db=rng.uniform(20, 110))
        objective = "sum_rate" if rng.uniform() < 0.5 else "max_min_rate"
        sol = place_single_for_group(guide, s.users, objective, s)
        x = sol.layout.offsets_per_guide[0][0]

        # independent dense scan at four times the optimizer's resolution
        lam0 = s.carrier.free_space_wavelength_m
        grid = np.arange(0.0, length + lam0 / 32, lam0 / 16)
        pos = guide.feed_point[None, :] + grid[:, None] * guide.axis_direction[None, :]
        d = np.linalg.norm(np.asarray(users)[None, :, :] - pos[:, None, :], axis=2)
        rates = np.log2(1 + s.transmit_snr * (lam0 / (4 * np.pi * d)) ** 2)
        vals = rates.sum(axis=1) if objective == "sum_rate" else rates.min(axis=1)
        x_bf = grid[int(np.argmax(vals))]

        dev = abs(x - x_bf)
        worst = max(worst, dev)
        # value slack 1e-5: a max_min kink inside the refinement bracket
        # bounds the achievable value accuracy by slope * bracket width
        ok &= dev <= lam0 / 4 and sol.objective_value >= vals.max() - 1e-5
    report(11, "1-D placement matches dense brute force within grid resolution",
           ok, f"max offset deviation {worst:.2e} m")


def test_criterion_12_reproducibility(tmp_path):
    scenario_path = str(save_scenario(heatmap_scenario(los_kind="inmo"),
                                      tmp_path / "s.yaml"))
    compare_path = str(save_scenario(compare_scenario(), tmp_path / "c.yaml"))

    def run_cli(args, threads):
        env = dict(os.environ, OMP_NUM_THREADS=str(threads),
                   OPENBLAS_NUM_THREADS=str(threads))
        proc = subprocess.run([sys.executable, "-m", "pinchsim.cli", *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc

    hashes = []
    headers = []
    for run, threads in (("h1", 1), ("h2", 4)):
        out = tmp_path / run
        run_cli(["heatmap", "--scenario", scenario_path, "--out", str(out),
                 "--seed", "12", "--grid-res", "0.5"], threads)
        data = (out / "heatmap.csv").read_bytes()
        hashes.append(hashlib.sha256(data).hexdigest())
        headers.append(data.decode().splitlines()[0])
    heatmap_ok = hashes[0] == hashes[1]
    header_ok = all("config_digest=" in h and "seed=12" in h for h in headers)

    compare_hashes = []
    for run, threads in (("c1", 1), ("c2", 4)):
        out = tmp_path / run
        run_cli(["compare-mimo", "--scenario", compare_path, "--out", str(out),
                 "--seed", "12", "--snr-db", "10", "--drops", "3",
                 "--budget", "4"], threads)
        compare_hashes.append(hashlib.sha256(
            (out / "compare_mimo.csv").read_bytes()).hexdigest())
    compare_ok = compare_hashes[0] == compare_hashes[1]

    report(12, "byte-identical outputs for identical (config, seed), "
               "thread count varied", heatmap_ok and compare_ok and header_ok)
