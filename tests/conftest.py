import numpy as np
import pytest

from pinchsim import (
    CarrierSpec,
    LoSModelConfig,
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


def schedule_from_layouts(slots, slot_fractions) -> TdmaSchedule:
    """The schedule of ``(user, PinchingLayout)`` slots with these time shares.

    Each layout keeps its guide count and minimum spacing, and its antennas
    come guide by guide in layout order; the layouts themselves are checked
    by :meth:`TdmaSchedule.validate`, not here.
    """
    slots = tuple(slots)
    slot, guide, offsets, weights = [], [], [], []
    for i, (_, layout) in enumerate(slots):
        g, x, w = layout.antennas()
        slot += [i] * g.size
        guide += g.tolist()
        offsets += x.tolist()
        weights += w.tolist()
    return TdmaSchedule(served=[u for u, _ in slots], slot_fractions=slot_fractions,
                        guides_per_slot=[len(lay.offsets_per_guide) for _, lay in slots],
                        minimum_spacing_m=[lay.minimum_spacing_m for _, lay in slots],
                        antenna_slot=slot, antenna_guide=guide, offsets=offsets,
                        weights=weights)
