"""Multiple access on top of the channel/beamforming stack: TDMA and NOMA.

TDMA serves one user per slot, re-placing the pinching antennas between
slots. NOMA superposes users on one beam and separates them in the power
domain with successive interference cancellation; messages of weaker users
are decoded (and cancelled) first at stronger users, and each message's
rate is pinned by the worst SINR among the users that must decode it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamforming import RateReport, _gains, shannon_rate
from .channel import _check_clear_of_users, link_gains
from .scenario import Scenario, _check_user_indices, first_layout_fault


def _frozen(values, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TdmaSchedule:
    """Ordered service slots and their activated antennas, as flat arrays.

    Slot ``i`` serves user ``served[i]`` for a time share
    ``slot_fractions[i]``. Like a :class:`PinchingLayout`, its layout is
    written for ``guides_per_slot[i]`` guides, which must be the scenario's
    guide count, and allows no spacing below ``minimum_spacing_m[i]``.
    Antenna ``a`` is active in slot ``antenna_slot[a]`` on guide
    ``antenna_guide[a]`` (below its slot's guide count), at ``offsets[a]``
    meters from that guide's feed with power-split weight ``weights[a]``.
    The antennas of one slot and guide form that slot's layout on the
    guide, in array order.
    """

    served: np.ndarray
    slot_fractions: np.ndarray
    guides_per_slot: np.ndarray
    minimum_spacing_m: np.ndarray
    antenna_slot: np.ndarray
    antenna_guide: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name, dtype in (("served", np.intp), ("slot_fractions", float),
                            ("guides_per_slot", np.intp), ("minimum_spacing_m", float),
                            ("antenna_slot", np.intp), ("antenna_guide", np.intp),
                            ("offsets", float), ("weights", float)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

    def validate(self, s: Scenario) -> None:
        """Raise ``ValueError`` unless the schedule fits ``s``, in one vectorized pass.

        The per-slot arrays, time shares, served users and antenna indices
        are checked first. Then the first slot with a fault is reported as
        :func:`build_channel` reports a layout (:func:`first_layout_fault`):
        a guide-count mismatch, else the layout's violation codes, else a
        slot with no antennas.
        """
        n_slots, n_users = self.served.size, len(s.users)
        for per_slot, what in ((self.slot_fractions, "slot fraction"),
                               (self.guides_per_slot, "guide count"),
                               (self.minimum_spacing_m, "minimum spacing")):
            if self.served.ndim != 1 or per_slot.shape != self.served.shape:
                raise ValueError(f"one {what} is needed per slot")
        if not n_slots:
            raise ValueError("schedule has no slots")
        fractions = self.slot_fractions
        if not np.all((fractions > 0) & (fractions <= 1)):  # NaN fails the comparisons
            raise ValueError("slot fractions must lie in (0, 1]")
        total = sum(fractions.tolist())  # summed in slot order, as a Python sum
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"slot fractions sum to {total!r}, not 1")
        served = self.served
        unknown = (served < 0) | (served >= n_users)
        if np.any(unknown):
            raise ValueError(f"schedule references unknown users "
                             f"{sorted(set(served[unknown].tolist()))}")
        idle = np.ones(n_users, dtype=bool)
        idle[served] = False
        if np.any(idle):
            raise ValueError(f"users {np.flatnonzero(idle).tolist()} appear in no slot")

        slot, guide = self.antenna_slot, self.antenna_guide
        if not (slot.ndim == 1 and slot.shape == guide.shape == self.offsets.shape
                == self.weights.shape):
            raise ValueError("invalid layout: layout_shape_mismatch "
                             "(antenna arrays of different shapes)")
        if np.any((slot < 0) | (slot >= n_slots)):
            raise ValueError(f"antenna slot indices must lie in [0, {n_slots})")
        if np.any((guide < 0) | (guide >= self.guides_per_slot[slot])):
            raise ValueError("antenna guide indices must lie in [0, their slot's guide count)")
        fault = first_layout_fault(s, slot, guide, self.offsets, self.weights,
                                   self.minimum_spacing_m, self.guides_per_slot)
        if fault is not None:
            raise ValueError(f"slot {fault[0]}: {fault[1]}")


def tdma_rates(s: Scenario, schedule: TdmaSchedule) -> RateReport:
    """Per-user TDMA rates: time-weighted single-user rates over the slots.

    Slot layouts place antennas next to their users, so every link is taken
    as LoS. :meth:`TdmaSchedule.validate` checks the schedule and every
    slot's layout in one pass, and no activated antenna may sit on any user
    (served or not), as in :func:`build_channel`. One kernel call per guide
    then synthesizes each slot's channel to its served user only, and rates
    are accumulated in slot order. With one antenna per guide in each slot,
    as ``tdma-demo`` places them, they equal the per-slot ``build_channel``
    result bit for bit; with more, a guide's terms are summed in array order
    and may differ from it in the last bits.
    """
    schedule.validate(s)
    slot_idx, guide_idx = schedule.antenna_slot, schedule.antenna_guide
    offsets, weights = schedule.offsets, schedule.weights
    _check_clear_of_users(s, guide_idx, offsets)
    served = schedule.served
    users = s.users.positions[served[slot_idx]]
    gains = np.zeros((len(served), len(s.waveguides)), dtype=complex)
    for g, w in enumerate(s.waveguides):
        on_g = guide_idx == g
        np.add.at(gains, (slot_idx[on_g], g),
                  link_gains(s, w, offsets[on_g], users[on_g], weights[on_g]))
    # |row|^2 as the 1-D np.linalg.norm(row) ** 2 computes it: one dot per
    # part, a square root, then pow.
    re, im = gains.real, gains.imag
    sqnorm = (re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0]
    gain2 = np.float_power(np.sqrt(sqnorm), 2)

    rho = s.transmit_snr
    rates = np.zeros(len(s.users))
    np.add.at(rates, served, schedule.slot_fractions * shannon_rate(rho * gain2))
    sinr = np.exp2(rates) - 1.0
    return RateReport(sinr, rates, float(rates.sum()), "tdma")


@dataclass(frozen=True, eq=False)
class NomaCluster:
    """Users sharing one beam, their power split, and the SIC decode order.

    ``sic_order`` lists cluster users in message-decode order: the first
    entry is decoded (and cancelled) by everyone, the last only by its own
    user. Consistency with the effective gains is checked at evaluation.
    """

    users: tuple[int, ...]
    power_split: tuple[float, ...]
    sic_order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(int(u) for u in self.users))
        object.__setattr__(self, "power_split", tuple(float(p) for p in self.power_split))
        object.__setattr__(self, "sic_order", tuple(int(u) for u in self.sic_order))

    def validate(self) -> None:
        if not self.users:
            raise ValueError("cluster has no users")
        if len(self.power_split) != len(self.users):
            raise ValueError("one power fraction is needed per cluster user")
        if len(self.users) > 1 and not all(0 < p < 1 for p in self.power_split):
            raise ValueError("power fractions must lie in (0, 1)")
        if not abs(sum(self.power_split) - 1.0) <= 1e-12:  # NaN fails it
            raise ValueError(f"power split sums to {sum(self.power_split)!r}, not 1")
        if sorted(self.sic_order) != sorted(self.users):
            raise ValueError("sic_order must be a permutation of the cluster users")


def noma_rates(s: Scenario, H, cluster: NomaCluster, beam,
               transmit_snr: float | None = None) -> RateReport:
    """Superposition-coding rates for one cluster sharing a single beam.

    The message decoded at stage t sees interference from the power of all
    later-decoded messages; its rate is the minimum over the SINRs at every
    user that must decode it (its own receiver and all later-stage users).
    Cluster users must be distinct rows of ``H``.
    """
    cluster.validate()
    rho = s.transmit_snr if transmit_snr is None else float(transmit_snr)
    G = _gains(H)
    _check_user_indices(cluster.users, G.shape[0])
    beam = np.asarray(beam, dtype=complex).reshape(-1)
    if beam.shape[0] != G.shape[1]:
        raise ValueError(f"beam length {beam.shape[0]} does not match feeds {G.shape[1]}")
    if not abs(np.linalg.norm(beam) - 1.0) <= 1e-9:
        raise ValueError("beam must have unit norm")

    gains = {u: float(np.abs(np.conj(G[u]) @ beam) ** 2) for u in cluster.users}
    power = dict(zip(cluster.users, cluster.power_split))

    rate_by_user: dict[int, float] = {}
    sinr_by_user: dict[int, float] = {}
    for t, msg_user in enumerate(cluster.sic_order):
        p_t = power[msg_user]
        later = sum(power[v] for v in cluster.sic_order[t + 1:])
        decoders = cluster.sic_order[t:]
        sinr = min(
            gains[u] * p_t * rho / (1.0 + rho * (gains[u] * later))
            for u in decoders
        )
        sinr_by_user[msg_user] = sinr
        rate_by_user[msg_user] = float(shannon_rate(sinr))

    sinr = np.array([sinr_by_user[u] for u in cluster.users])
    rates = np.array([rate_by_user[u] for u in cluster.users])
    return RateReport(sinr, rates, float(rates.sum()), "noma")
