"""Digital precoding across waveguide feeds: MRC, ZF, rates, and the bound.

Conventions: the channel matrix row h_i is user i's gain vector over feeds;
precoders w_i are unit-norm rows of a Beamformer, power carried separately.
Effective amplitudes are |h_i^H w_j| and the noise power is normalized to 1,
so ``transmit_snr`` is the single link-budget knob.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix

ZF_RCOND_LIMIT = 1e-10


class RankDeficiencyError(ValueError):
    """Channel rows too close to linearly dependent for meaningful nulling."""


def shannon_rate(sinr, out=None):
    """The rate law log2(1 + sinr) in bps/Hz; every rate in pinchsim comes from here.

    ``out``, when given, receives the result (``out=sinr`` works in place).
    """
    return np.log2(np.add(sinr, 1.0, out=out), out=out)


def _gains(H) -> np.ndarray:
    g = H.gains if isinstance(H, ChannelMatrix) else np.asarray(H)
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2:
        raise ValueError(f"expected a 2-D channel matrix, got shape {g.shape}")
    return g


@dataclass(frozen=True, eq=False)
class Beamformer:
    """Per-user unit-norm precoding rows plus a power allocation."""

    vectors: np.ndarray
    power_allocation: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        p = np.asarray(self.power_allocation, dtype=float)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "power_allocation", p)
        norms = np.linalg.norm(v, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):  # NaN fails these comparisons
            raise ValueError("precoding rows must have unit Euclidean norm")
        if not (np.all(p >= 0) and p.sum() <= 1.0 + 1e-12):
            raise ValueError("power allocation must be nonnegative and sum to <= 1")


@dataclass(frozen=True, eq=False)
class RateReport:
    """Per-user SINRs and rates for one scheme; rate_i = log2(1 + sinr_i)."""

    per_user_sinr: np.ndarray
    per_user_rate_bps_hz: np.ndarray
    sum_rate_bps_hz: float
    scheme_label: str

    @classmethod
    def from_sinr(cls, sinr, scheme_label: str) -> "RateReport":
        sinr = np.asarray(sinr, dtype=float)
        rates = shannon_rate(sinr)
        return cls(sinr, rates, float(rates.sum()), scheme_label)


def mrc_beamformer(H) -> Beamformer:
    """Match each beam to its user's own channel direction: w_i = h_i/|h_i|."""
    G = _gains(H)
    norms = np.linalg.norm(G, axis=1)
    if np.any(norms == 0):
        raise ValueError("degenerate channel: some user has a zero channel row")
    K = G.shape[0]
    return Beamformer(G / norms[:, None], np.full(K, 1.0 / K))


def _rcond(G) -> np.ndarray:
    """Reciprocal condition number of the rows of stacked (..., K, M) matrices, K <= M,
    from svd(conj(G)); 0 where all rows are zero. ZF needs it >= ``ZF_RCOND_LIMIT``."""
    sv = np.linalg.svd(np.conj(G), compute_uv=False)
    return np.divide(sv[..., -1], sv[..., 0], out=np.zeros(sv.shape[:-1]), where=sv[..., 0] != 0)


def zf_beamformer(H) -> Beamformer:
    """Null inter-user interference via the right pseudo-inverse.

    Requires at most as many users as feeds and channel rows that are
    linearly independent (reciprocal condition number >= 1e-10).
    """
    G = _gains(H)
    K, M = G.shape
    if K > M:
        raise ValueError(f"zero-forcing needs users <= feeds, got {K} > {M}")
    rcond = _rcond(G)
    if rcond < ZF_RCOND_LIMIT:
        raise RankDeficiencyError(f"channel rows are rank deficient (rcond = {rcond:.3e})")
    P = np.linalg.pinv(np.conj(G))
    norms = np.linalg.norm(P, axis=0)
    return Beamformer((P / norms).T, np.full(K, 1.0 / K))


def evaluate_rates(H, B: Beamformer, transmit_snr: float,
                   scheme_label: str = "") -> RateReport:
    """SINRs and rates under a beamformer with unit-normalized noise."""
    G = _gains(H)
    K = G.shape[0]
    if B.vectors.shape != G.shape or len(B.power_allocation) != K:
        raise ValueError(
            f"beamformer shape {B.vectors.shape} does not match channel {G.shape}")
    cross = np.abs(np.conj(G) @ B.vectors.T) ** 2     # cross[j, i] = |h_j^H w_i|^2
    weighted = cross * B.power_allocation[None, :]
    signal = np.diag(weighted)
    interference = weighted.sum(axis=1) - signal
    sinr = signal * transmit_snr / (1.0 + transmit_snr * interference)
    return RateReport.from_sinr(sinr, scheme_label)


def conventional_bound(H, transmit_snr: float) -> np.ndarray:
    """Interference-free single-user rate ceiling log2(1 + snr*|h_i|^2)."""
    G = _gains(H)
    return shannon_rate(transmit_snr * np.linalg.norm(G, axis=1) ** 2)
