"""Geometric world description: carrier, waveguides, users, antenna layouts.

All types are immutable value objects. Construction is permissive; invariant
checking is done explicitly by :func:`validate_scenario`, which reports
violations as data rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

SPEED_OF_LIGHT_M_S = 299792458.0

LOS_MODEL_KINDS = ("exponential", "inmo", "always_los")


def _as_point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float).reshape(3)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class CarrierSpec:
    """Carrier frequency; the free-space wavelength is derived from it."""

    frequency_hz: float

    @property
    def free_space_wavelength_m(self) -> float:
        if not self.frequency_hz > 0:
            raise ValueError("carrier frequency must be positive")
        return SPEED_OF_LIGHT_M_S / self.frequency_hz


@dataclass(frozen=True, eq=False)
class WaveguideSpec:
    """A finite line-segment dielectric waveguide in 3-D space.

    ``feed_point`` is where the RF chain feeds the guide; antenna positions
    are scalar offsets along ``axis_direction`` measured from the feed.
    """

    feed_point: np.ndarray
    axis_direction: np.ndarray
    length_m: float
    relative_permittivity: float = 2.1
    guide_attenuation_np_per_m: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "feed_point", _as_point(self.feed_point))
        object.__setattr__(self, "axis_direction", _as_point(self.axis_direction))

    def point_at(self, offset: float) -> np.ndarray:
        """Position on the guide at a given offset from the feed."""
        return self.feed_point + float(offset) * self.axis_direction


@dataclass(frozen=True, eq=False)
class UserSet:
    """Ground-plane user locations (z = 0)."""

    positions: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        a.flags.writeable = False
        object.__setattr__(self, "positions", a)

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True, eq=False)
class LoSModelConfig:
    """Line-of-sight probability model and NLoS excess-loss knob.

    ``exponential`` uses exp(-rho_los * r); ``inmo`` is the indoor
    mixed-office piecewise curve (constants overridable); ``always_los``
    returns 1 at any distance. NLoS links lose an extra
    ``nlos_extra_loss_db`` dB of power: their amplitude is scaled by
    10^(-nlos_extra_loss_db/20), so the 20 dB default makes LoS 100x stronger.
    """

    kind: str = "inmo"
    rho_los_per_m: float = 0.1
    nlos_extra_loss_db: float = 20.0
    inmo_near_m: float = 1.2
    inmo_far_m: float = 6.5
    inmo_near_decay_m: float = 4.7
    inmo_far_decay_m: float = 32.6
    inmo_far_scale: float = 0.32


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete simulation world: carrier, guides, users and link budget.

    ``transmit_snr`` is the linear transmit power to noise ratio (noise
    normalized to 1), the single link-budget knob of all rate formulas.
    """

    carrier: CarrierSpec
    waveguides: tuple[WaveguideSpec, ...]
    users: UserSet
    transmit_snr: float
    los_model: LoSModelConfig = field(default_factory=LoSModelConfig)

    def __post_init__(self):
        object.__setattr__(self, "waveguides", tuple(self.waveguides))


@dataclass(frozen=True, eq=False)
class PinchingLayout:
    """Activated pinching-antenna state: offsets and power-split weights.

    One sequence of offsets (meters from the feed) and one of weights per
    waveguide; each guide's weight vector must have unit sum of squares so
    total radiated power is independent of the antenna count.
    """

    offsets_per_guide: tuple[tuple[float, ...], ...]
    weights_per_guide: tuple[tuple[float, ...], ...]
    minimum_spacing_m: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self,
            "offsets_per_guide",
            tuple(tuple(float(x) for x in off) for off in self.offsets_per_guide),
        )
        object.__setattr__(
            self,
            "weights_per_guide",
            tuple(tuple(float(w) for w in ws) for ws in self.weights_per_guide),
        )

    @classmethod
    def equal_split(cls, offsets_per_guide, minimum_spacing_m: float = 0.0) -> "PinchingLayout":
        """Layout with the symmetric 1/sqrt(N) power split on every guide."""
        offs = tuple(tuple(float(x) for x in off) for off in offsets_per_guide)
        weights = tuple(
            tuple(1.0 / math.sqrt(len(off)) for _ in off) if off else ()
            for off in offs
        )
        return cls(offs, weights, minimum_spacing_m)

    @property
    def total_antennas(self) -> int:
        return sum(len(off) for off in self.offsets_per_guide)

    def violations(self, waveguides: Sequence[WaveguideSpec] | None = None) -> list["Violation"]:
        """Check layout invariants; offsets are range-checked when guides are given."""
        out: list[Violation] = []
        if len(self.offsets_per_guide) != len(self.weights_per_guide):
            out.append(Violation("layout_shape_mismatch",
                                 "offsets and weights have different guide counts"))
            return out
        if self.minimum_spacing_m < 0:
            out.append(Violation("negative_minimum_spacing",
                                 f"minimum_spacing_m = {self.minimum_spacing_m}"))
        for g, (offs, ws) in enumerate(zip(self.offsets_per_guide, self.weights_per_guide)):
            if len(offs) != len(ws):
                out.append(Violation("layout_shape_mismatch",
                                     f"guide {g}: {len(offs)} offsets vs {len(ws)} weights"))
                continue
            if not offs:
                continue
            if any(b - a < -1e-15 for a, b in zip(offs, offs[1:])):
                out.append(Violation("offsets_unsorted", f"guide {g}: offsets not ascending"))
            elif any(b - a < self.minimum_spacing_m - 1e-12 for a, b in zip(offs, offs[1:])):
                out.append(Violation("spacing_violation",
                                     f"guide {g}: adjacent offsets closer than minimum spacing"))
            sos = sum(w * w for w in ws)
            if abs(sos - 1.0) > 1e-9:
                out.append(Violation("weights_not_normalized",
                                     f"guide {g}: sum of squared weights = {sos!r}"))
            if waveguides is not None:
                length = waveguides[g].length_m
                if min(offs) < -1e-12 or max(offs) > length + 1e-12:
                    out.append(Violation("offset_out_of_range",
                                         f"guide {g}: offsets outside [0, {length}]"))
        return out


@dataclass(frozen=True)
class Violation:
    """One invariant violation, with a machine-readable code."""

    code: str
    detail: str


class Projection(NamedTuple):
    offset: float | np.ndarray
    foot_point: np.ndarray
    distance: float | np.ndarray


def project_onto_waveguide(w: WaveguideSpec, p) -> Projection:
    """Closest points of the guide segment to one point (3,) or many (..., 3).

    Offsets are clamped to [0, length], so each foot point is the
    distance-minimizing point over the whole finite segment. One point gives
    a float offset and distance; many give arrays of their batch shape.
    """
    p = np.asarray(p, dtype=float)
    f, a = w.feed_point, w.axis_direction
    # written out, not a BLAS dot: one point then gets the bits it gets in a batch
    t = np.clip((p[..., 0] - f[0]) * a[0] + (p[..., 1] - f[1]) * a[1]
                + (p[..., 2] - f[2]) * a[2], 0.0, w.length_m)
    foot = f + t[..., None] * a
    d = np.linalg.norm(p - foot, axis=-1)
    if p.ndim == 1:
        return Projection(float(t), foot, float(d))
    return Projection(t, foot, d)


def validate_scenario(s: Scenario, require_common_height: bool = False) -> list[Violation]:
    """Collect every invariant violation of a scenario (empty list = valid).

    ``require_common_height`` additionally demands that all waveguides share
    one height, which a conventional-antenna baseline comparison needs to be
    geometrically meaningful.
    """
    out: list[Violation] = []
    if not s.carrier.frequency_hz > 0:
        out.append(Violation("nonpositive_frequency",
                             f"frequency_hz = {s.carrier.frequency_hz!r}"))
    if not s.waveguides:
        out.append(Violation("no_waveguides", "scenario has no waveguides"))
    for i, w in enumerate(s.waveguides):
        norm = float(np.linalg.norm(w.axis_direction))
        if abs(norm - 1.0) > 1e-12:
            out.append(Violation("axis_not_unit",
                                 f"waveguide {i}: |axis| = {norm!r}"))
        if w.relative_permittivity < 1.0:
            out.append(Violation("permittivity_below_one",
                                 f"waveguide {i}: eps_r = {w.relative_permittivity!r}"))
        if w.length_m <= 0:
            out.append(Violation("nonpositive_length",
                                 f"waveguide {i}: length_m = {w.length_m!r}"))
        if w.guide_attenuation_np_per_m < 0:
            out.append(Violation("negative_attenuation",
                                 f"waveguide {i}: attenuation = {w.guide_attenuation_np_per_m!r}"))
        # users sit at z = 0, and an antenna on a user has an infinite gain;
        # a straight guide with both ends above that plane stays above it
        feed_z, end_z = float(w.feed_point[2]), float(w.point_at(w.length_m)[2])
        if not (feed_z > 0 and end_z > 0):
            out.append(Violation("guide_not_above_users",
                                 f"waveguide {i}: feed z = {feed_z!r}, far-end z = {end_z!r}"))
    if len(s.users) == 0:
        out.append(Violation("empty_user_set", "scenario has no users"))
    elif np.any(s.users.positions[:, 2] != 0.0):
        out.append(Violation("user_off_ground", "user z-coordinates must be exactly 0"))
    if not s.transmit_snr > 0:
        out.append(Violation("nonpositive_snr", f"transmit_snr = {s.transmit_snr!r}"))
    m = s.los_model
    if m.kind not in LOS_MODEL_KINDS:
        out.append(Violation("unknown_los_model", f"kind = {m.kind!r}"))
    if m.rho_los_per_m < 0:
        out.append(Violation("negative_los_density", f"rho_los_per_m = {m.rho_los_per_m!r}"))
    if m.nlos_extra_loss_db < 0:
        out.append(Violation("negative_nlos_penalty",
                             f"nlos_extra_loss_db = {m.nlos_extra_loss_db!r}"))
    if require_common_height and s.waveguides:
        heights = {round(float(w.feed_point[2]), 12) for w in s.waveguides}
        if len(heights) > 1:
            out.append(Violation("unequal_waveguide_heights",
                                 f"heights {sorted(heights)} differ"))
    return out
