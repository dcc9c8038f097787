import math

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
