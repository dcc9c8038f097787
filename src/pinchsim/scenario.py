"""Geometric world description: carrier, waveguides, users, antenna layouts.

All types are immutable value objects. Construction is permissive; invariant
checking is done explicitly by :func:`validate_scenario`, which reports
violations as data rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

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

    def antennas(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Guide index, offset and weight of every antenna, guide by guide in layout order."""
        if (len(self.offsets_per_guide) != len(self.weights_per_guide)
                or any(len(offs) != len(ws) for offs, ws in zip(self.offsets_per_guide,
                                                                 self.weights_per_guide))):
            raise ValueError("invalid layout: layout_shape_mismatch")
        guide = np.repeat(np.arange(len(self.offsets_per_guide)),
                          [len(offs) for offs in self.offsets_per_guide])
        offsets = np.array([x for offs in self.offsets_per_guide for x in offs], dtype=float)
        weights = np.array([w for ws in self.weights_per_guide for w in ws], dtype=float)
        return guide, offsets, weights

    def violations(self, waveguides: Sequence[WaveguideSpec] | None = None) -> list["Violation"]:
        """Check layout invariants; offsets are range-checked when guides are given."""
        try:
            guide, offsets, weights = self.antennas()
        except ValueError:
            return [Violation("layout_shape_mismatch",
                              "offsets and weights differ in guide count or length")]
        lengths = None if waveguides is None else [w.length_m for w in waveguides]
        return layout_violations(np.zeros(guide.size, np.intp), guide, offsets, weights,
                                 [self.minimum_spacing_m], lengths).get(0, [])


@dataclass(frozen=True)
class Violation:
    """One invariant violation, with a machine-readable code."""

    code: str
    detail: str


def layout_violations(slot, guide, offsets, weights, minimum_spacing_m,
                      lengths=None) -> dict[int, list[Violation]]:
    """Layout invariant violations of many slots' antennas, found in one vectorized pass.

    Antenna ``a`` is active in slot ``slot[a]`` on guide ``guide[a]``, at
    ``offsets[a]`` with weight ``weights[a]``. The antennas of one slot and
    guide form that slot's layout on the guide, in array order.
    ``minimum_spacing_m`` holds each slot's smallest allowed spacing. Offsets
    are range-checked against ``lengths`` (one per guide) when it is given;
    a guide past it is not range-checked. Each faulty slot maps to its
    violations, in this order: a negative spacing, then guide by guide
    ``offsets_unsorted`` or else ``spacing_violation``,
    ``weights_not_normalized`` and ``offset_out_of_range``. A NaN weight is
    not normalized, a NaN offset out of range and a NaN spacing negative.
    """
    slot, guide = np.asarray(slot, dtype=np.intp), np.asarray(guide, dtype=np.intp)
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
    out_of_range = np.zeros(n_groups, dtype=bool)
    if lengths is not None:
        known = guide < len(lengths)
        length = np.append(np.asarray(lengths, dtype=float), np.inf)[np.where(known, guide, -1)]
        out_of_range = any_in_group(known & ~((x >= -1e-12) & (x <= length + 1e-12)))

    found = {int(i): [Violation("negative_minimum_spacing", f"minimum_spacing_m = {spacing[i]}")]
             for i in np.flatnonzero(~(spacing >= 0))}
    group_slot, group_guide = slot[first], guide[first]
    for k in np.flatnonzero(unsorted | crowded | unnormalized | out_of_range):
        g, out = int(group_guide[k]), found.setdefault(int(group_slot[k]), [])
        if unsorted[k]:
            out.append(Violation("offsets_unsorted", f"guide {g}: offsets not ascending"))
        elif crowded[k]:
            out.append(Violation("spacing_violation",
                                 f"guide {g}: adjacent offsets closer than minimum spacing"))
        if unnormalized[k]:
            out.append(Violation("weights_not_normalized",
                                 f"guide {g}: sum of squared weights = {float(sos[k])!r}"))
        if out_of_range[k]:
            out.append(Violation("offset_out_of_range",
                                 f"guide {g}: offsets outside [0, {lengths[g]}]"))
    return found


def first_layout_fault(s: Scenario, slot, guide, offsets, weights, minimum_spacing_m,
                       guides_per_slot) -> tuple[int, str] | None:
    """The first slot whose layout does not fit ``s`` and why, or None.

    The antennas and spacings are given as to :func:`layout_violations`;
    ``guides_per_slot`` is the number of guides each slot's layout is
    written for. A slot's fault is, whichever comes first: a guide count
    other than the scenario's, its layout's violation codes, no antennas.
    """
    n_guides = len(s.waveguides)
    guides_per_slot = np.asarray(guides_per_slot)
    found = layout_violations(slot, guide, offsets, weights, minimum_spacing_m,
                              [w.length_m for w in s.waveguides])
    mismatched = guides_per_slot != n_guides
    faulty = mismatched | (np.bincount(np.asarray(slot, dtype=np.intp),
                                       minlength=guides_per_slot.size) == 0)
    faulty[list(found)] = True
    if not np.any(faulty):
        return None
    i = int(np.argmax(faulty))
    if mismatched[i]:
        return i, f"layout covers {guides_per_slot[i]} waveguides, scenario has {n_guides}"
    if i in found:
        return i, "invalid layout: " + "; ".join(v.code for v in found[i])
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
