import math
import os

import numpy as np
import pytest

from pinchsim import (
    CarrierSpec,
    LoSModelConfig,
    PinchingLayout,
    Scenario,
    TdmaSchedule,
    UserSet,
    WaveguideSpec,
)


@pytest.fixture
def carrier28():
    return CarrierSpec(28e9)


@pytest.fixture
def guide_y():
    """20 m guide along +y at 3 m height, feed at the origin end, PTFE core."""
    return WaveguideSpec(feed_point=(0.0, 0.0, 3.0),
                         axis_direction=(0.0, 1.0, 0.0),
                         length_m=20.0,
                         relative_permittivity=2.1)


def make_scenario(users, waveguides=None, snr_db=100.0, los_kind="always_los",
                  frequency_hz=28e9, **los_kwargs):
    if waveguides is None:
        waveguides = (WaveguideSpec(feed_point=(0.0, 0.0, 3.0),
                                    axis_direction=(0.0, 1.0, 0.0),
                                    length_m=20.0,
                                    relative_permittivity=2.1),)
    return Scenario(
        carrier=CarrierSpec(frequency_hz),
        waveguides=tuple(waveguides),
        users=UserSet(np.asarray(users, dtype=float)),
        transmit_snr=10.0 ** (snr_db / 10.0),
        los_model=LoSModelConfig(kind=los_kind, **los_kwargs),
    )


@pytest.fixture
def simple_scenario(guide_y):
    return make_scenario([(2.0, 5.0, 0.0)], (guide_y,))


def per_guide_layout(offsets_per_guide, weights_per_guide=None,
                     minimum_spacing_m=0.0) -> PinchingLayout:
    """The flat layout of these offsets, guide by guide in order.

    Each guide's weights default to the equal 1/sqrt(N) power split over its
    N antennas; given weights are not checked against the offsets here.
    """
    if weights_per_guide is None:
        weights_per_guide = [[1.0 / math.sqrt(len(offs)) for _ in offs]
                             for offs in offsets_per_guide]
    return PinchingLayout(guide=[g for g, offs in enumerate(offsets_per_guide) for _ in offs],
                          offsets=[x for offs in offsets_per_guide for x in offs],
                          weights=[w for ws in weights_per_guide for w in ws],
                          minimum_spacing_m=minimum_spacing_m)


def schedule_from_layouts(slots, slot_fractions) -> TdmaSchedule:
    """The schedule of ``(user, PinchingLayout)`` slots with these time shares.

    Each slot keeps its layout's arrays and minimum spacing; the layouts are
    checked by :meth:`TdmaSchedule.validate`, not here.
    """
    layouts = [layout for _, layout in slots]
    return TdmaSchedule(served=[u for u, _ in slots], slot_fractions=slot_fractions,
                        minimum_spacing_m=[lay.minimum_spacing_m for lay in layouts],
                        antenna_slot=np.repeat(np.arange(len(layouts)),
                                               [lay.guide.size for lay in layouts]),
                        antenna_guide=np.concatenate([lay.guide for lay in layouts]),
                        offsets=np.concatenate([lay.offsets for lay in layouts]),
                        weights=np.concatenate([lay.weights for lay in layouts]))


def coherent_gain_bound(H, user_index: int = 0) -> float:
    """Triangle-inequality ceiling: sum of per-antenna magnitudes for a user."""
    if H.per_antenna_breakdown is None:
        raise ValueError("channel matrix has no per-antenna breakdown")
    return float(np.sum(np.abs(H.per_antenna_breakdown[user_index])))


# The worker path: _sweep_drops maps _descend over its drop groups through
# _fork_map in min(usable CPUs, groups) forked workers, and write_csv formats
# the chunks of a table of at least four chunks per worker the same way. The
# tests set the CPU count (set_cpus), so that two workers run on any host, and
# count the workers each map forks (the forks fixture).
@pytest.fixture
def forks(monkeypatch):
    """The worker count of each _fork_map call that forks, in order."""
    from pinchsim import experiments, placement

    opened, children, fork, fork_map = [], [], os.fork, placement._fork_map

    def counted_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    def counted_map(fn, n, workers):
        start = len(children)
        try:
            yield from fork_map(fn, n, workers)
        finally:
            if len(children) > start:
                opened.append(len(children) - start)

    monkeypatch.setattr(os, "fork", counted_fork)
    for module in (placement, experiments):
        monkeypatch.setattr(module, "_fork_map", counted_map)
    return opened


def set_cpus(monkeypatch, n):
    from pinchsim import experiments, placement

    for module in (placement, experiments):
        monkeypatch.setattr(module, "_usable_cpus", lambda: n)
