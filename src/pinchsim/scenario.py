"""Geometric world description: carrier, waveguides, users, antenna layouts.

All types are immutable value objects. Construction is permissive; invariant
checking is done explicitly by :func:`validate_scenario`, which reports
violations as data rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _check_user_indices(users, n_users: int) -> None:
    """Raise ``ValueError`` unless ``users`` are distinct indices in [0, n_users)."""
    unknown = sorted({u for u in users if not 0 <= u < n_users})
    if unknown:
        raise ValueError(f"unknown users {unknown}, not in [0, {n_users})")
    if len(set(users)) != len(users):
        raise ValueError(f"users {list(users)} repeat an index")


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


def _freeze(obj, **dtypes) -> None:
    """Set each named field of the frozen dataclass ``obj`` to a read-only array of its dtype.

    An ``np.intp`` field takes integers, integral floats such as 1.0
    included; any other value (1.9, NaN, inf) raises ``ValueError``.
    """
    for name, dtype in dtypes.items():
        given = np.asarray(getattr(obj, name))
        with np.errstate(invalid="ignore"):  # NaN and inf fail the check below
            a = given.astype(dtype)
        if dtype is np.intp and given.dtype.kind not in "biu" and not np.array_equal(a, given):
            raise ValueError(f"{name} must hold integers, got {given[a != given].tolist()}")
        a.flags.writeable = False
        object.__setattr__(obj, name, a)


@dataclass(frozen=True, eq=False)
class PinchingLayout:
    """Activated pinching antennas as flat read-only arrays, one entry per antenna.

    Antenna ``a`` sits on guide ``guide[a]``, ``offsets[a]`` meters from its
    feed, with power-split weight ``weights[a]``. The antennas of one guide
    form that guide's layout, in array order: offsets ascend at least
    ``minimum_spacing_m`` apart, and the weights have unit sum of squares so
    total radiated power is independent of the antenna count. A guide may
    have no antennas. :func:`first_layout_fault` checks a layout as its one
    slot.
    """

    guide: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    minimum_spacing_m: float = 0.0

    def __post_init__(self):
        _freeze(self, guide=np.intp, offsets=float, weights=float)


@dataclass(frozen=True)
class Violation:
    """One invariant violation, with a machine-readable code."""

    code: str
    detail: str


def first_layout_fault(s: Scenario, slot, guide, offsets, weights,
                       minimum_spacing_m) -> tuple[int, str] | None:
    """The first slot whose layout does not fit ``s`` and why, or None: the one
    check of antenna arrays, for a schedule's slots and for a lone layout.

    Antenna ``a`` is active in slot ``slot[a]`` on guide ``guide[a]``, at
    ``offsets[a]`` with weight ``weights[a]``. The antennas of one slot and
    guide form that slot's layout on the guide, in array order.
    ``minimum_spacing_m`` holds each slot's smallest allowed spacing.
    ``ValueError`` is raised unless the four antenna arrays are 1-D of one
    shape, each slot index lies in [0, len(minimum_spacing_m)) and each guide
    index in [0, len(s.waveguides)). Every slot's layout is then checked in
    one vectorized pass. A slot's fault is its violation codes, in this
    order: a negative spacing, then guide by guide ``offsets_unsorted`` or
    else ``spacing_violation``, ``weights_not_normalized`` and
    ``offset_out_of_range`` (against the guide's length); else that it has
    no antennas. A NaN weight is not normalized, a NaN offset out of range
    and a NaN spacing negative.
    """
    slot, guide = np.asarray(slot, dtype=np.intp), np.asarray(guide, dtype=np.intp)
    n_slots, n_guides = np.size(minimum_spacing_m), len(s.waveguides)
    if not (slot.ndim == 1 and slot.shape == guide.shape == np.shape(offsets)
            == np.shape(weights)):
        raise ValueError("invalid layout: layout_shape_mismatch "
                         "(antenna arrays of different shapes)")
    if np.any((slot < 0) | (slot >= n_slots)):
        raise ValueError(f"antenna slot indices must lie in [0, {n_slots})")
    if np.any((guide < 0) | (guide >= n_guides)):
        raise ValueError(f"antenna guide indices must lie in [0, {n_guides})")
    x, w = np.asarray(offsets, dtype=float), np.asarray(weights, dtype=float)
    spacing = np.asarray(minimum_spacing_m, dtype=float)

    order = np.lexsort((guide, slot))
    slot, guide, x, w = slot[order], guide[order], x[order], w[order]
    first = np.ones(slot.size, dtype=bool)
    first[1:] = (slot[1:] != slot[:-1]) | (guide[1:] != guide[:-1])
    group = np.cumsum(first) - 1
    n_groups = int(np.count_nonzero(first))

    def any_in_group(mask):
        return np.bincount(group[mask], minlength=n_groups) > 0

    step = np.zeros(slot.size)
    step[1:] = x[1:] - x[:-1]
    unsorted = any_in_group(~first & (step < -1e-15))
    crowded = any_in_group(~first & (step < spacing[slot] - 1e-12)) & ~unsorted
    sos = np.bincount(group, w * w, n_groups)  # summed in array order
    unnormalized = ~(np.abs(sos - 1.0) <= 1e-9)  # NaN fails these comparisons
    length = np.array([g.length_m for g in s.waveguides], dtype=float)[guide]
    out_of_range = any_in_group(~((x >= -1e-12) & (x <= length + 1e-12)))

    flags = np.stack([unsorted, crowded, unnormalized, out_of_range], axis=1)
    group_slot = slot[first]
    faulty = (np.bincount(slot, minlength=n_slots) == 0) | ~(spacing >= 0)
    faulty[group_slot[flags.any(axis=1)]] = True
    if not np.any(faulty):
        return None
    i = int(np.argmax(faulty))
    names = np.array(["offsets_unsorted", "spacing_violation", "weights_not_normalized",
                      "offset_out_of_range"])
    codes = [] if spacing[i] >= 0 else ["negative_minimum_spacing"]
    codes += names[flags[group_slot == i].nonzero()[1]].tolist()  # guide by guide
    if codes:
        return i, "invalid layout: " + "; ".join(codes)
    return i, "layout activates no antennas"


def projected_offsets(w: WaveguideSpec, p) -> np.ndarray:
    """Offsets of the guide points closest to one point (3,) or many (..., 3).

    The offset along the axis is clamped to [0, length], so each one's guide
    point is the distance-minimizing point over the whole finite segment.
    """
    p = np.asarray(p, dtype=float)
    f, a = w.feed_point, w.axis_direction
    # written out, not a BLAS dot: one point then gets the bits it gets in a batch
    return np.clip((p[..., 0] - f[0]) * a[0] + (p[..., 1] - f[1]) * a[1]
                   + (p[..., 2] - f[2]) * a[2], 0.0, w.length_m)


def validate_scenario(s: Scenario, require_common_height: bool = False) -> list[Violation]:
    """Collect every invariant violation of a scenario (empty list = valid).

    Every check is written so that a NaN fails it.

    ``require_common_height`` additionally demands that all waveguides share
    one height, which a conventional-antenna baseline comparison needs to be
    geometrically meaningful.
    """
    out: list[Violation] = []
    if not s.carrier.frequency_hz > 0:
        out.append(Violation("nonpositive_frequency",
                             f"frequency_hz = {s.carrier.frequency_hz!r}"))
    elif s.carrier.frequency_hz == math.inf:
        out.append(Violation("infinite_frequency", "frequency_hz = inf"))
    if not s.waveguides:
        out.append(Violation("no_waveguides", "scenario has no waveguides"))
    for i, w in enumerate(s.waveguides):
        norm = float(np.linalg.norm(w.axis_direction))
        if not abs(norm - 1.0) <= 1e-12:
            out.append(Violation("axis_not_unit",
                                 f"waveguide {i}: |axis| = {norm!r}"))
        if not w.relative_permittivity >= 1.0:
            out.append(Violation("permittivity_below_one",
                                 f"waveguide {i}: eps_r = {w.relative_permittivity!r}"))
        if not w.length_m > 0:
            out.append(Violation("nonpositive_length",
                                 f"waveguide {i}: length_m = {w.length_m!r}"))
        if not w.guide_attenuation_np_per_m >= 0:
            out.append(Violation("negative_attenuation",
                                 f"waveguide {i}: attenuation = {w.guide_attenuation_np_per_m!r}"))
        if not np.isfinite(w.feed_point).all():
            out.append(Violation("non_finite_feed", f"waveguide {i}: {w.feed_point.tolist()}"))
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
    if not np.isfinite(s.users.positions).all():
        out.append(Violation("non_finite_user", "user coordinates must be finite"))
    if not s.transmit_snr > 0:
        out.append(Violation("nonpositive_snr", f"transmit_snr = {s.transmit_snr!r}"))
    elif s.transmit_snr == math.inf:
        out.append(Violation("infinite_snr", "transmit_snr = inf"))
    m = s.los_model
    if m.kind not in LOS_MODEL_KINDS:
        out.append(Violation("unknown_los_model", f"kind = {m.kind!r}"))
    if not m.rho_los_per_m >= 0:
        out.append(Violation("negative_los_density", f"rho_los_per_m = {m.rho_los_per_m!r}"))
    if not m.nlos_extra_loss_db >= 0:
        out.append(Violation("negative_nlos_penalty",
                             f"nlos_extra_loss_db = {m.nlos_extra_loss_db!r}"))
    if m.kind == "inmo" and not (0 <= m.inmo_near_m <= m.inmo_far_m and m.inmo_near_decay_m > 0
                                 and m.inmo_far_decay_m > 0 and 0 <= m.inmo_far_scale <= 1):
        out.append(Violation("bad_inmo_constants",
                             f"near/far {m.inmo_near_m!r}/{m.inmo_far_m!r} m, decays "
                             f"{m.inmo_near_decay_m!r}/{m.inmo_far_decay_m!r} m, "
                             f"far scale {m.inmo_far_scale!r}"))
    if require_common_height and s.waveguides:
        heights = {round(float(w.feed_point[2]), 12) for w in s.waveguides}
        if len(heights) > 1:
            out.append(Violation("unequal_waveguide_heights",
                                 f"heights {sorted(heights)} differ"))
    return out
