import ast
import math
from pathlib import Path

import numpy as np
import pytest

import pinchsim
from pinchsim import (
    Beamformer,
    RankDeficiencyError,
    conventional_bound,
    evaluate_rates,
    mrc_beamformer,
    zf_beamformer,
)
from pinchsim.beamforming import shannon_rate


def random_channel(rng, users, feeds, min_rcond=1e-3):
    """Complex Gaussian channel, resampled until comfortably well conditioned."""
    while True:
        G = rng.normal(size=(users, feeds)) + 1j * rng.normal(size=(users, feeds))
        sv = np.linalg.svd(G, compute_uv=False)
        if sv[-1] / sv[0] >= min_rcond:
            return G


def test_mrc_single_user_reaches_channel_norm():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
    B = mrc_beamformer(h)
    assert abs(np.conj(h[0]) @ B.vectors[0]) == pytest.approx(np.linalg.norm(h), rel=1e-12)


def test_orthogonal_channels_make_mrc_interference_free():
    G = np.array([[1.0, 0.0, 0.0], [0.0, 1.0j, 0.0]], dtype=complex)
    B = mrc_beamformer(G)
    report = evaluate_rates(G, B, transmit_snr=8.0)
    # no cross terms: each user sees its single-user SNR at its power share
    expected = 0.5 * 8.0 * 1.0
    np.testing.assert_allclose(report.per_user_sinr, expected, rtol=1e-12)
    zf = zf_beamformer(G)
    for i in range(2):
        assert abs(np.vdot(zf.vectors[i], B.vectors[i])) == pytest.approx(1.0, abs=1e-10)


def test_identical_channels_split_into_self_interference():
    rng = np.random.default_rng(1)
    h = rng.normal(size=3) + 1j * rng.normal(size=3)
    G = np.stack([h, h])
    B = mrc_beamformer(G)
    report = evaluate_rates(G, B, transmit_snr=5.0)
    g = np.linalg.norm(h) ** 2
    expected = (0.5 * 5.0 * g) / (1.0 + 5.0 * 0.5 * g)
    np.testing.assert_allclose(report.per_user_sinr, expected, rtol=1e-12)


def test_mrc_rejects_zero_row():
    G = np.array([[0.0, 0.0], [1.0, 2.0]], dtype=complex)
    with pytest.raises(ValueError, match="zero channel"):
        mrc_beamformer(G)


def test_zf_nulls_cross_channels():
    rng = np.random.default_rng(2)
    G = random_channel(rng, 2, 3)
    B = zf_beamformer(G)
    for i in range(2):
        for j in range(2):
            if i != j:
                residual = abs(np.conj(G[j]) @ B.vectors[i])
                assert residual <= 1e-10 * np.linalg.norm(G[j])


def test_zf_rejects_rank_deficiency():
    row = np.array([1.0 + 1j, 2.0, -0.5j])
    G = np.stack([row, row, np.array([0.3, -1j, 1.0])])
    with pytest.raises(RankDeficiencyError):
        zf_beamformer(G)


def test_zf_rejects_oversubscription():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    with pytest.raises(ValueError, match="users <= feeds"):
        zf_beamformer(G)


def test_zf_with_exact_nulling_has_no_interference_term():
    rng = np.random.default_rng(4)
    G = random_channel(rng, 3, 4)
    B = zf_beamformer(G)
    report = evaluate_rates(G, B, transmit_snr=12.0)
    for i in range(3):
        signal = abs(np.conj(G[i]) @ B.vectors[i]) ** 2
        assert report.per_user_sinr[i] == pytest.approx(
            B.power_allocation[i] * 12.0 * signal, rel=1e-9)


def test_evaluate_rates_matches_scalar_expansion():
    rng = np.random.default_rng(5)
    G = random_channel(rng, 2, 3)
    B = mrc_beamformer(G)
    rho = 3.7
    report = evaluate_rates(G, B, rho)
    for i in range(2):
        signal = B.power_allocation[i] * abs(
            sum(np.conj(G[i, m]) * B.vectors[i, m] for m in range(3))) ** 2
        interf = sum(
            B.power_allocation[j] * abs(
                sum(np.conj(G[i, m]) * B.vectors[j, m] for m in range(3))) ** 2
            for j in range(2) if j != i)
        sinr = signal * rho / (1.0 + rho * interf)
        assert report.per_user_sinr[i] == pytest.approx(sinr, rel=1e-12)
        assert report.per_user_rate_bps_hz[i] == pytest.approx(
            math.log2(1.0 + sinr), rel=1e-12)


def test_single_user_mrc_meets_conventional_bound():
    rng = np.random.default_rng(6)
    h = rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))
    report = evaluate_rates(h, mrc_beamformer(h), 2.0)
    bound = conventional_bound(h, 2.0)
    assert report.per_user_rate_bps_hz[0] == pytest.approx(bound[0], rel=1e-12)


def test_conventional_bound_basics():
    G = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    bound = conventional_bound(G, 1.0)
    assert bound[0] == 0.0
    assert bound[1] == pytest.approx(1.0, rel=1e-12)


def test_bound_dominates_all_evaluated_rates():
    rng = np.random.default_rng(7)
    for _ in range(100):
        users = rng.integers(1, 4)
        feeds = rng.integers(users, 5)
        G = random_channel(rng, users, feeds)
        rho = 10.0 ** rng.uniform(-1, 10)
        bound = conventional_bound(G, rho)
        for factory in (mrc_beamformer, zf_beamformer):
            rates = evaluate_rates(G, factory(G), rho).per_user_rate_bps_hz
            assert np.all(rates <= bound + 1e-12)


def test_mrc_beats_random_beams():
    rng = np.random.default_rng(8)
    for _ in range(50):
        h = rng.normal(size=4) + 1j * rng.normal(size=4)
        w = mrc_beamformer(h[None, :]).vectors[0]
        best = abs(np.conj(h) @ w)
        V = rng.normal(size=(1000, 4)) + 1j * rng.normal(size=(1000, 4))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        assert np.all(np.abs(V @ np.conj(h)) <= best + 1e-12)


def test_rates_monotone_in_snr():
    rng = np.random.default_rng(9)
    G = random_channel(rng, 3, 4)
    for factory in (mrc_beamformer, zf_beamformer):
        B = factory(G)
        rates = [evaluate_rates(G, B, rho).sum_rate_bps_hz
                 for rho in np.logspace(-2, 10, 25)]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_common_scalar_leaves_directions_unchanged():
    rng = np.random.default_rng(10)
    G = random_channel(rng, 3, 4)
    c = 0.3 - 1.7j
    for factory in (mrc_beamformer, zf_beamformer):
        W1 = factory(G).vectors
        W2 = factory(c * G).vectors
        for i in range(3):
            assert abs(np.vdot(W1[i], W2[i])) == pytest.approx(1.0, abs=1e-9)


def test_rate_report_internal_consistency():
    rng = np.random.default_rng(11)
    G = random_channel(rng, 2, 2)
    report = evaluate_rates(G, mrc_beamformer(G), 4.0)
    np.testing.assert_allclose(report.per_user_rate_bps_hz,
                               np.log2(1 + report.per_user_sinr), rtol=1e-12)
    assert report.sum_rate_bps_hz == pytest.approx(report.per_user_rate_bps_hz.sum())


def test_beamformer_validation():
    with pytest.raises(ValueError, match="unit"):
        Beamformer(np.array([[2.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="power"):
        Beamformer(np.array([[1.0, 0.0]]), np.array([1.5]))
    with pytest.raises(ValueError, match="unit"):
        Beamformer(np.array([[np.nan, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="power"):
        Beamformer(np.eye(2), np.array([np.nan, 0.5]))


def test_evaluate_rates_dimension_mismatch():
    G = np.eye(2, dtype=complex)
    B = mrc_beamformer(np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="match"):
        evaluate_rates(G, B, 1.0)


def test_shannon_rate_is_the_rate_law_in_place_or_not():
    sinr = np.array([0.0, 1e-8, 1.0, 3.0, 1e12])
    expected = np.log2(1.0 + sinr)
    np.testing.assert_array_equal(shannon_rate(sinr), expected)
    np.testing.assert_array_equal(shannon_rate(sinr, out=sinr), expected)
    np.testing.assert_array_equal(sinr, expected)
    assert shannon_rate(3.0) == 2.0


def test_rate_law_has_one_home():
    """No module but beamforming calls log2 or log1p: every rate goes through
    ``shannon_rate``."""
    callers = []
    for path in sorted(Path(pinchsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "attr", getattr(node, "id", None))
            if name in ("log2", "log1p") and path.name != "beamforming.py":
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []
