"""Complex channel synthesis: free-space loss, LoS sampling, in-guide phase.

The aggregate gain from waveguide m to user k is the coherent sum over that
guide's activated antennas of

    weight * exp(-j*2*pi*offset/lambda_g - alpha*offset)      (in-guide)
           * (lambda_0 / (4*pi*d)) * exp(-j*2*pi*d/lambda_0)  (free space),

with an extra 10^(-penalty_db/20) amplitude factor on NLoS links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import (
    LoSModelConfig,
    PinchingLayout,
    Scenario,
    WaveguideSpec,
    first_layout_fault,
)


def guided_wavelength(lambda0_m: float, eps_r: float) -> float:
    """Wavelength inside a dielectric guide: lambda0 / sqrt(eps_r)."""
    if not lambda0_m > 0:  # NaN fails these comparisons
        raise ValueError(f"free-space wavelength must be positive, got {lambda0_m!r}")
    if not eps_r >= 1.0:
        raise ValueError(f"relative permittivity must be >= 1, got {eps_r!r}")
    return lambda0_m / math.sqrt(eps_r)


def _wavenumbers(s: Scenario, w: WaveguideSpec) -> tuple[float, float]:
    """Free-space and in-guide wavenumbers (k_0, k_g) of guide ``w`` in ``s``."""
    lam0 = s.carrier.free_space_wavelength_m
    return 2.0 * math.pi / lam0, 2.0 * math.pi / guided_wavelength(lam0, w.relative_permittivity)


def los_probability(model: LoSModelConfig, distance):
    """LoS probability at a given distance (scalar or array), in [0, 1]."""
    d = np.asarray(distance, dtype=float)
    if not np.all(d >= 0):
        raise ValueError("distance must be nonnegative")
    if model.kind == "always_los":
        p = np.ones_like(d)
    elif model.kind == "exponential":
        p = np.exp(-model.rho_los_per_m * d)
    elif model.kind == "inmo":
        p = np.where(
            d <= model.inmo_near_m,
            1.0,
            np.where(
                d < model.inmo_far_m,
                np.exp(-(d - model.inmo_near_m) / model.inmo_near_decay_m),
                model.inmo_far_scale * np.exp(-(d - model.inmo_far_m) / model.inmo_far_decay_m),
            ),
        )
    else:
        raise ValueError(f"unknown LoS model kind {model.kind!r}")
    return float(p) if np.ndim(distance) == 0 else p


def free_space_gain(distance_m, lambda0_m: float, los=True, nlos_extra_loss_db: float = 20.0):
    """Spherical-wave complex gain over a free-space link.

    Amplitude lambda0/(4*pi*d), phase -2*pi*d/lambda0; NLoS links are
    attenuated by an extra ``nlos_extra_loss_db`` dB of amplitude.
    Accepts scalars or broadcasting arrays.
    """
    d = np.asarray(distance_m, dtype=float)
    if not np.all(d > 0):
        raise ValueError("link distance must be positive")
    if not lambda0_m > 0:
        raise ValueError("free-space wavelength must be positive")
    g = lambda0_m / (4.0 * np.pi * d) * np.exp(-2j * np.pi * d / lambda0_m)
    if los is not True:
        penalty = 10.0 ** (-nlos_extra_loss_db / 20.0)
        g = np.where(np.asarray(los, dtype=bool), g, g * penalty)
    return complex(g) if np.ndim(g) == 0 else g


def guide_distances(w: WaveguideSpec, offsets, points) -> np.ndarray:
    """Distances from antennas at ``offsets`` (...) on ``w`` to ``points`` (..., 3).

    The antenna positions are ``feed_point + offset * axis_direction``;
    offsets and points broadcast, so ``offsets[None, :]`` against
    ``points[:, None, :]`` gives a points-by-offsets matrix.
    One array per coordinate, with the squares summed left to right as
    ``np.linalg.norm(..., axis=-1)`` sums them, so the bits are the norm's.
    """
    x = np.asarray(offsets, dtype=float)
    p = np.asarray(points, dtype=float)
    f, a = w.feed_point, w.axis_direction
    r0, r1, r2 = (p[..., i] - (f[i] + x * a[i]) for i in range(3))
    return np.sqrt(r0 * r0 + r1 * r1 + r2 * r2)


def link_gains(s: Scenario, w: WaveguideSpec, offsets, points, weights=1.0, los=True):
    """Complex gains from antennas at ``offsets`` on ``w`` to ``points``.

    Free-space gain x (weight x in-guide factor), broadcast as in
    :func:`guide_distances`; ``weights`` and ``los`` broadcast against the
    result. This is the one place the paper's link law is evaluated, as a
    real amplitude times one complex exponential of the loss and the phase
    lag k_0*d + k_g*x. Every operation is elementwise, so a link's bits do
    not depend on the shape of the batch it is computed in.
    """
    x = np.asarray(offsets, dtype=float)
    d = guide_distances(w, x, points)
    if np.any(d <= 0):
        raise ValueError("link distance must be positive")
    lam0 = s.carrier.free_space_wavelength_m
    k0, kg = _wavenumbers(s, w)
    amp = weights * lam0 / (4.0 * np.pi * d)
    if los is not True:
        penalty = 10.0 ** (-s.los_model.nlos_extra_loss_db / 20.0)
        amp = np.where(np.asarray(los, dtype=bool), amp, amp * penalty)
    return amp * np.exp(-w.guide_attenuation_np_per_m * x - 1j * (k0 * d + kg * x))


def link_power(s: Scenario, w: WaveguideSpec, offsets, points) -> np.ndarray:
    """LoS link power (lambda0/(4*pi*d) * exp(-alpha*x))^2, broadcast as in
    :func:`guide_distances`; equal to ``abs(link_gains(...))**2`` up to
    rounding, without the phase."""
    x = np.asarray(offsets, dtype=float)
    d = guide_distances(w, x, points)
    lam0 = s.carrier.free_space_wavelength_m
    return (lam0 / (4.0 * np.pi * d) * np.exp(-w.guide_attenuation_np_per_m * x)) ** 2


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Users-by-feeds complex gains plus the per-antenna breakdown.

    ``gains[k, m]`` aggregates waveguide m's antennas toward user k;
    ``per_antenna_breakdown[k, a]`` holds the weight-inclusive summand of the
    layout's antenna a (so each aggregate entry is the row-sum of its guide's
    columns), with columns in the layout's array order.
    """

    gains: np.ndarray
    per_antenna_breakdown: np.ndarray | None = None


def _check_clear_of_users(s: Scenario, guide_idx, offsets) -> None:
    """Raise ``ValueError`` if any antenna lies within 1e-9 m of any user.

    ``guide_idx`` and ``offsets`` are 1-D arrays over antennas.

    An antenna on guide g is never closer to a user than the guide's span of
    activated offsets is, so only users within 1e-6 m of that span are
    tested pairwise; memory stays linear in users plus antennas.
    """
    users = s.users.positions
    for g, w in enumerate(s.waveguides):
        on_g = guide_idx == g
        if not np.any(on_g):
            continue
        t = offsets[on_g]
        start = w.point_at(t.min())
        span = w.point_at(t.max()) - start
        rel = users - start
        length2 = float(span @ span)
        u = np.clip(rel @ span / length2, 0.0, 1.0) if length2 > 0 else 0.0
        near = np.linalg.norm(rel - np.multiply.outer(u, span), axis=1) < 1e-6
        for k in np.flatnonzero(near):
            if np.any(guide_distances(w, t, users[k]) < 1e-9):
                raise ValueError("an activated antenna coincides with a user position")


def build_channel(s: Scenario, layout: PinchingLayout, *,
                  seed=None, los_states=None) -> ChannelMatrix:
    """Synthesize the users-by-feeds channel for a given antenna layout.

    LoS states are either supplied explicitly (anything broadcastable to a
    (users, antennas) boolean array, e.g. ``True`` to force LoS everywhere)
    or sampled once per link from the scenario's LoS model using ``seed``.
    Sampling is reproducible: a fixed seed yields bit-identical channels.
    The layout is checked as a one-slot schedule by :func:`first_layout_fault`.
    """
    col, offsets, weights = layout.guide, layout.offsets, layout.weights
    fault = first_layout_fault(s, np.zeros(col.size, np.intp), col, offsets, weights,
                               [layout.minimum_spacing_m])
    if fault is not None:
        raise ValueError(fault[1])
    users = s.users.positions
    on = [col == g for g in range(len(s.waveguides))]
    _check_clear_of_users(s, col, offsets)
    shape = (users.shape[0], len(offsets))

    if los_states is not None:
        los = np.broadcast_to(np.asarray(los_states, dtype=bool), shape)
    elif s.los_model.kind == "always_los":
        los = np.ones(shape, dtype=bool)
    elif seed is not None:
        dist = np.empty(shape)
        for w, sel in zip(s.waveguides, on):
            dist[:, sel] = guide_distances(w, offsets[sel], users[:, None, :])
        rng = np.random.default_rng(seed)
        los = rng.uniform(size=shape) < los_probability(s.los_model, dist)
    else:
        raise ValueError(
            "LoS sampling needs a seed (or pass explicit los_states) when the "
            f"LoS model is probabilistic ({s.los_model.kind!r})")

    breakdown = np.empty(shape, dtype=complex)
    for w, sel in zip(s.waveguides, on):
        breakdown[:, sel] = link_gains(s, w, offsets[sel], users[:, None, :], weights[sel],
                                       los[:, sel])
    return ChannelMatrix(gains=np.stack([breakdown[:, sel].sum(axis=1) for sel in on], axis=1),
                         per_antenna_breakdown=breakdown)
