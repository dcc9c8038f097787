import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import (
    NomaCluster,
    PinchingLayout,
    TdmaSchedule,
    WaveguideSpec,
    build_channel,
    conventional_bound,
    link_power,
    noma_gain_reorder,
    noma_rates,
    place_single_for_group,
    place_single_for_user,
    tdma_rates,
)
from pinchsim.channel import _check_layout
from pinchsim.placement import _inversions, _offset_grid
from pinchsim.presets import noma_scenario
from pinchsim.scenario import projected_offsets
from tests.conftest import make_scenario, schedule_from_layouts

LAMBDA0 = 299792458.0 / 28e9


def slot_for(guide, user):
    return PinchingLayout(((place_single_for_user(guide, user),),), ((1.0,),))


# --- TDMA -------------------------------------------------------------------


def test_schedule_validation(guide_y):
    lay = slot_for(guide_y, (1, 1, 0))
    one = make_scenario([(1, 1, 0)], (guide_y,))
    two = make_scenario([(1, 1, 0), (2, 2, 0)], (guide_y,))
    with pytest.raises(ValueError, match="sum"):
        schedule_from_layouts(((0, lay),), (0.9,)).validate(one)
    with pytest.raises(ValueError, match="unknown users"):
        schedule_from_layouts(((3, lay),), (1.0,)).validate(two)
    with pytest.raises(ValueError, match="no slot"):
        schedule_from_layouts(((0, lay),), (1.0,)).validate(two)
    schedule_from_layouts(((0, lay), (1, lay)), (0.5, 0.5)).validate(two)


def test_single_user_full_slot_hits_conventional_bound(guide_y):
    user = (2.0, 5.0, 0.0)
    s = make_scenario([user], (guide_y,))
    schedule = schedule_from_layouts(((0, slot_for(guide_y, user)),), (1.0,))
    report = tdma_rates(s, schedule)
    d = math.sqrt(2.0 ** 2 + 3.0 ** 2)
    lam0 = s.carrier.free_space_wavelength_m
    expected = math.log2(1.0 + s.transmit_snr * (lam0 / (4 * math.pi * d)) ** 2)
    assert report.per_user_rate_bps_hz[0] == pytest.approx(expected, rel=1e-12)
    H = build_channel(s, slot_for(guide_y, user), los_states=True)
    assert report.per_user_rate_bps_hz[0] == pytest.approx(
        conventional_bound(H, s.transmit_snr)[0], rel=1e-12)


def test_symmetric_users_get_equal_rates(guide_y):
    users = [(2.0, 4.0, 0.0), (-2.0, 4.0, 0.0)]
    s = make_scenario(users, (guide_y,))
    schedule = schedule_from_layouts(
        ((0, slot_for(guide_y, users[0])), (1, slot_for(guide_y, users[1]))),
        (0.5, 0.5))
    report = tdma_rates(s, schedule)
    assert abs(report.per_user_rate_bps_hz[0] - report.per_user_rate_bps_hz[1]) <= 1e-12


def test_replacement_beats_fixed_compromise_on_dumbbell(guide_y):
    # Users 14 m apart along the guide: serving each from its own projection
    # during half the time beats half of what a fixed middle antenna gives.
    users = [(1.0, 3.0, 0.0), (1.0, 17.0, 0.0)]
    s = make_scenario(users, (guide_y,))
    schedule = schedule_from_layouts(
        ((0, slot_for(guide_y, users[0])), (1, slot_for(guide_y, users[1]))),
        (0.5, 0.5))
    tdma = tdma_rates(s, schedule)

    group = place_single_for_group(guide_y, s.users, "max_min_rate", s)
    H = build_channel(s, group.layout, los_states=True)
    fixed_rates = np.log2(1.0 + s.transmit_snr * np.abs(H.gains[:, 0]) ** 2)
    for k in range(2):
        assert tdma.per_user_rate_bps_hz[k] >= 0.5 * fixed_rates[k] - 1e-12


def test_growing_a_fraction_never_hurts_that_user(guide_y):
    users = [(1.0, 3.0, 0.0), (1.0, 12.0, 0.0)]
    s = make_scenario(users, (guide_y,))
    slots = ((0, slot_for(guide_y, users[0])), (1, slot_for(guide_y, users[1])))
    base = tdma_rates(s, schedule_from_layouts(slots, (0.5, 0.5)))
    grown = tdma_rates(s, schedule_from_layouts(slots, (2.0 / 3.0, 1.0 / 3.0)))
    assert grown.per_user_rate_bps_hz[0] >= base.per_user_rate_bps_hz[0] - 1e-12
    assert grown.per_user_rate_bps_hz[1] <= base.per_user_rate_bps_hz[1] + 1e-12


def test_tdma_report_is_internally_consistent(guide_y):
    users = [(1.0, 3.0, 0.0), (1.0, 12.0, 0.0)]
    s = make_scenario(users, (guide_y,))
    slots = ((0, slot_for(guide_y, users[0])), (1, slot_for(guide_y, users[1])))
    report = tdma_rates(s, schedule_from_layouts(slots, (0.25, 0.75)))
    np.testing.assert_allclose(report.per_user_rate_bps_hz,
                               np.log2(1 + report.per_user_sinr), rtol=1e-12)


def tdma_oracle(s, slots, fractions):
    """Per-slot build_channel over all users, keeping the served user's row."""
    rates = np.zeros(len(s.users))
    for (u, layout), f in zip(slots, fractions):
        H = build_channel(s, layout, los_states=True)
        rates[u] += f * np.log2(1.0 + s.transmit_snr * float(np.linalg.norm(H.gains[u]) ** 2))
    return rates


def two_guides():
    return (WaveguideSpec(feed_point=(-2.0, -10.0, 3.0), axis_direction=(0.0, 1.0, 0.0),
                          length_m=20.0, relative_permittivity=2.1),
            WaveguideSpec(feed_point=(2.5, -8.0, 2.5), axis_direction=(0.0, 1.0, 0.0),
                          length_m=16.0, relative_permittivity=3.0,
                          guide_attenuation_np_per_m=0.08))


def test_batched_tdma_matches_per_slot_channels_with_many_antennas():
    users = [(-1.0, -6.0, 0.0), (3.0, 1.5, 0.0), (0.5, 7.0, 0.0)]
    s = make_scenario(users, two_guides(), snr_db=110.0)
    slots = (
        (0, PinchingLayout(((2.0, 4.0, 4.5), (1.0, 6.0)), ((0.6, 0.0, 0.8), (0.8, 0.6)))),
        (1, PinchingLayout.equal_split(((9.0, 11.5, 12.0, 19.0), (9.5,)))),
        (2, PinchingLayout.equal_split(((16.0, 17.0), (14.0, 15.0, 15.9)))),
        (1, PinchingLayout.equal_split(((), (3.0, 8.0, 9.5, 10.0, 12.5, 13.0, 14.0, 15.0,
                                             15.5)))),
    )
    fractions = (0.1, 0.2, 0.3, 0.4)
    schedule = schedule_from_layouts(slots, fractions)
    report = tdma_rates(s, schedule)
    np.testing.assert_allclose(report.per_user_rate_bps_hz, tdma_oracle(s, slots, fractions),
                               rtol=1e-12, atol=0.0)
    assert report.sum_rate_bps_hz == pytest.approx(report.per_user_rate_bps_hz.sum(), rel=1e-15)


def test_batched_tdma_is_exact_with_one_antenna_per_guide():
    users = [(-1.0, -6.0, 0.0), (3.0, 1.5, 0.0), (0.5, 7.0, 0.0), (-4.0, 2.0, 0.0)]
    s = make_scenario(users, two_guides())
    guides = s.waveguides
    slots = tuple(
        (u, PinchingLayout.equal_split(
            tuple((projected_offsets(w, users[u]),) for w in guides)))
        for u in (0, 1, 2, 3, 2))
    fractions = (0.25, 0.25, 0.125, 0.25, 0.125)
    schedule = schedule_from_layouts(slots, fractions)
    assert np.array_equal(tdma_rates(s, schedule).per_user_rate_bps_hz,
                          tdma_oracle(s, slots, fractions))


def test_tdma_rejects_an_antenna_on_a_user_it_does_not_serve():
    ground_guide = WaveguideSpec(feed_point=(0.0, 0.0, 0.0), axis_direction=(0.0, 1.0, 0.0),
                                 length_m=20.0)
    s = make_scenario([(1.0, 5.0, 0.0), (0.0, 7.0, 0.0), (0.0, 12.0 + 1e-7, 0.0)],
                      (ground_guide,))
    on_user_1 = PinchingLayout(((7.0,),), ((1.0,),))
    others = ((1, slot_for(ground_guide, (5.0, 9.0, 0.0))),
              (2, slot_for(ground_guide, (5.0, 15.0, 0.0))))
    fractions = (0.5, 0.25, 0.25)
    schedule = schedule_from_layouts(((0, on_user_1),) + others, fractions)
    with pytest.raises(ValueError, match="coincides"):
        build_channel(s, on_user_1, los_states=True)
    with pytest.raises(ValueError, match="coincides"):
        tdma_rates(s, schedule)
    # An antenna 1e-7 m from user 2 is near enough to be tested pairwise,
    # far enough to pass, as in build_channel.
    near_user_2 = PinchingLayout(((12.0,),), ((1.0,),))
    slots = ((0, near_user_2),) + others
    schedule = schedule_from_layouts(slots, fractions)
    assert np.array_equal(tdma_rates(s, schedule).per_user_rate_bps_hz,
                          tdma_oracle(s, slots, fractions))


def test_tdma_keeps_the_per_slot_layout_checks(guide_y):
    s = make_scenario([(1.0, 3.0, 0.0), (1.0, 12.0, 0.0)], (guide_y,))
    good = slot_for(guide_y, (1.0, 3.0, 0.0))
    bad_slots = {
        "waveguides": PinchingLayout(((3.0,), (4.0,)), ((1.0,), (1.0,))),
        "offset_out_of_range": PinchingLayout(((25.0,),), ((1.0,),)),
        "no antennas": PinchingLayout(((),), ((),)),
    }
    for message, bad in bad_slots.items():
        with pytest.raises(ValueError, match=message):
            tdma_rates(s, schedule_from_layouts(((0, good), (1, bad)), (0.5, 0.5)))


def array_schedule(**changes):
    """A valid two-slot, two-guide schedule in array form, with ``changes``."""
    fields = dict(served=[0, 1], slot_fractions=[0.5, 0.5],
                  guides_per_slot=[2, 2], minimum_spacing_m=[0.0, 0.0],
                  antenna_slot=[0, 0, 0, 1], antenna_guide=[0, 0, 1, 1],
                  offsets=[2.0, 4.0, 1.0, 9.5], weights=[0.6, 0.8, 1.0, 1.0])
    fields.update(changes)
    return TdmaSchedule(**fields)


@pytest.mark.parametrize("changes, message", [
    (dict(slot_fractions=[1.0]), "one slot fraction is needed per slot"),
    (dict(guides_per_slot=[2]), "one guide count is needed per slot"),
    (dict(guides_per_slot=2), "one guide count is needed per slot"),
    (dict(minimum_spacing_m=[0.0]), "one minimum spacing is needed per slot"),
    (dict(minimum_spacing_m=0.0), "one minimum spacing is needed per slot"),
    (dict(served=[], slot_fractions=[], guides_per_slot=[], minimum_spacing_m=[]),
     "schedule has no slots"),
    (dict(slot_fractions=[1.5, -0.5]), r"slot fractions must lie in \(0, 1\]"),
    (dict(slot_fractions=[0.5, 0.4]), "slot fractions sum to 0.9, not 1"),
    (dict(served=[0, 5]), r"unknown users \[5\]"),
    (dict(served=[0, -1]), r"unknown users \[-1\]"),
    (dict(served=[1, 1]), r"users \[0\] appear in no slot"),
    (dict(offsets=[2.0, 4.0, 1.0]), "layout_shape_mismatch"),
    (dict(antenna_slot=[0, 0, 0, 2]), r"antenna slot indices must lie in \[0, 2\)"),
    (dict(antenna_guide=[0, 0, -1, 1]), r"antenna guide indices must lie in \[0, their slot"),
    (dict(antenna_guide=[0, 0, 1, 2]), r"antenna guide indices must lie in \[0, their slot"),
    (dict(guides_per_slot=[2, 1]), r"antenna guide indices must lie in \[0, their slot"),
    (dict(guides_per_slot=[2, 3], antenna_guide=[0, 0, 1, 2]),
     "slot 1: layout covers 3 waveguides, scenario has 2"),
    (dict(guides_per_slot=[2, 1], antenna_guide=[0, 0, 1, 0]),
     "slot 1: layout covers 1 waveguides, scenario has 2"),
    (dict(offsets=[4.0, 2.0, 1.0, 9.5]), "slot 0: invalid layout: offsets_unsorted$"),
    (dict(minimum_spacing_m=[2.5, 2.5]), "slot 0: invalid layout: spacing_violation$"),
    (dict(minimum_spacing_m=[0.0, -0.1]), "slot 1: invalid layout: negative_minimum_spacing$"),
    (dict(weights=[0.6, 0.8, 1.0, 0.9]), "slot 1: invalid layout: weights_not_normalized$"),
    (dict(offsets=[2.0, 4.0, 1.0, 16.5]), "slot 1: invalid layout: offset_out_of_range$"),
    (dict(offsets=[-0.1, 4.0, 1.0, 9.5]), "slot 0: invalid layout: offset_out_of_range$"),
    (dict(offsets=[4.0, 2.0, 1.0, 9.5], weights=[1.0, 1.0, 2.0, 1.0]),
     "slot 0: invalid layout: offsets_unsorted; weights_not_normalized; "
     "weights_not_normalized$"),
    (dict(antenna_slot=[0, 0, 0, 0], antenna_guide=[0, 0, 1, 1], offsets=[2.0, 4.0, 1.0, 9.5],
          weights=[0.6, 0.8, 0.6, 0.8]), "slot 1: layout activates no antennas"),
    (dict(offsets=[2.0, 4.0, 1.0, math.nan]), "slot 1: invalid layout: offset_out_of_range$"),
    (dict(weights=[0.6, math.nan, 1.0, 1.0]), "slot 0: invalid layout: weights_not_normalized$"),
    (dict(slot_fractions=[math.nan, 0.5]), r"slot fractions must lie in \(0, 1\]"),
    (dict(minimum_spacing_m=[math.nan, 0.0]), "slot 0: invalid layout: negative_minimum_spacing$"),
])
def test_array_schedule_rejects(changes, message):
    s = make_scenario([(-1.0, -6.0, 0.0), (3.0, 1.5, 0.0)], two_guides())
    array_schedule().validate(s)
    with pytest.raises(ValueError, match=message):
        tdma_rates(s, array_schedule(**changes))


def test_array_schedule_antennas_may_come_in_any_slot_order():
    # each (slot, guide) layout keeps the order its antennas have in the arrays
    s = make_scenario([(-1.0, -6.0, 0.0), (3.0, 1.5, 0.0)], two_guides())
    mixed = dict(antenna_slot=[0, 1, 0, 0], antenna_guide=[0, 1, 1, 0],
                 offsets=[2.0, 9.5, 1.0, 4.0], weights=[0.6, 1.0, 1.0, 0.8])
    assert np.array_equal(tdma_rates(s, array_schedule(**mixed)).per_user_rate_bps_hz,
                          tdma_rates(s, array_schedule()).per_user_rate_bps_hz)
    mixed["offsets"] = [4.0, 9.5, 1.0, 2.0]
    with pytest.raises(ValueError, match="slot 0: invalid layout: offsets_unsorted$"):
        array_schedule(**mixed).validate(s)


def test_slot_fractions_are_summed_in_slot_order():
    # Shares far below half an ulp of the first one vanish one by one in a sum
    # taken in slot order, as the builtin sum takes it; a pairwise sum keeps them.
    fractions = [1.0 - 2e-12] + [5e-17] * 40_000
    n = len(fractions)
    s = make_scenario(np.zeros((n, 3)))
    schedule = TdmaSchedule(served=np.arange(n), slot_fractions=fractions,
                            guides_per_slot=np.ones(n), minimum_spacing_m=np.zeros(n),
                            antenna_slot=np.arange(n), antenna_guide=np.zeros(n, dtype=int),
                            offsets=np.ones(n), weights=np.ones(n))
    assert abs(float(np.sum(fractions)) - 1.0) <= 1e-12
    total = sum(fractions)
    if abs(total - 1.0) > 1e-12:
        with pytest.raises(ValueError, match=f"sum to {total!r}, not 1"):
            schedule.validate(s)
    else:
        schedule.validate(s)


def test_array_schedule_rejects_an_antenna_on_a_user():
    ground_guide = WaveguideSpec(feed_point=(0.0, 0.0, 0.0), axis_direction=(0.0, 1.0, 0.0),
                                 length_m=20.0)
    s = make_scenario([(0.0, 5.0, 0.0), (0.0, 7.0, 0.0)], (ground_guide,))
    schedule = TdmaSchedule(served=[0, 1], slot_fractions=[0.5, 0.5], guides_per_slot=[1, 1],
                            minimum_spacing_m=[0.0, 0.0], antenna_slot=[0, 1],
                            antenna_guide=[0, 0], offsets=[4.0, 5.0], weights=[1.0, 1.0])
    with pytest.raises(ValueError, match="coincides"):
        tdma_rates(s, schedule)


OFFSETS = st.sampled_from([-1e-11, -1e-13, 0.0, 3.0, 3.0 + 1e-13, 3.2, 3.5, 9.0, 16.0,
                           16.0 + 1e-11, 19.0, 20.0 + 1e-13, 25.0])


@st.composite
def slot_layouts(draw):
    guides = draw(st.sampled_from([1, 2, 2, 2, 3]))
    offsets = [draw(st.lists(OFFSETS, max_size=3)) for _ in range(guides)]
    spacing = draw(st.sampled_from([0.0, 0.0, 0.4, -0.1]))
    if draw(st.booleans()):
        return PinchingLayout.equal_split(offsets, spacing)
    weights = [[draw(st.sampled_from([1.0, 0.6, 0.8, 0.5, math.sqrt(0.5)])) for _ in offs]
               for offs in offsets]
    return PinchingLayout(offsets, weights, spacing)


def reference_layout_fault(s, layout):
    """The reason build_channel gave for rejecting a layout, checked one
    antenna at a time as it was before the checks were vectorized, or None."""
    if len(layout.offsets_per_guide) != len(s.waveguides):
        return (f"layout covers {len(layout.offsets_per_guide)} waveguides, "
                f"scenario has {len(s.waveguides)}")
    codes = ["negative_minimum_spacing"] if layout.minimum_spacing_m < 0 else []
    for g, (offs, ws) in enumerate(zip(layout.offsets_per_guide, layout.weights_per_guide)):
        if not offs:
            continue
        if any(b - a < -1e-15 for a, b in zip(offs, offs[1:])):
            codes.append("offsets_unsorted")
        elif any(b - a < layout.minimum_spacing_m - 1e-12 for a, b in zip(offs, offs[1:])):
            codes.append("spacing_violation")
        if abs(sum(w * w for w in ws) - 1.0) > 1e-9:
            codes.append("weights_not_normalized")
        length = s.waveguides[g].length_m
        if min(offs) < -1e-12 or max(offs) > length + 1e-12:
            codes.append("offset_out_of_range")
    if codes:
        return "invalid layout: " + "; ".join(codes)
    return None if layout.antennas()[0].size else "layout activates no antennas"


@settings(max_examples=300, deadline=None)
@given(layouts=st.lists(slot_layouts(), min_size=1, max_size=4))
def test_one_pass_validation_reports_as_the_per_slot_checks(layouts):
    """The first faulty slot and its message, as a per-antenna check of each
    slot finds them, both for a schedule and for build_channel's layout check."""
    users = [(-1.0, -6.0 + k, 0.0) for k in range(len(layouts))]
    s = make_scenario(users, two_guides())
    expected = None
    for i, layout in enumerate(layouts):
        reason = reference_layout_fault(s, layout)
        try:
            _check_layout(s, layout)
            assert reason is None
        except ValueError as exc:
            assert str(exc) == reason
        if reason is not None and expected is None:
            expected = f"slot {i}: {reason}"
    schedule = schedule_from_layouts(tuple(enumerate(layouts)),
                                     (1.0 / len(layouts),) * len(layouts))
    try:
        schedule.validate(s)
        found = None
    except ValueError as exc:
        found = str(exc)
    assert found == expected


# --- NOMA -------------------------------------------------------------------


def test_cluster_validation():
    with pytest.raises(ValueError, match="permutation"):
        NomaCluster((0, 1), (0.5, 0.5), (0, 2)).validate()
    with pytest.raises(ValueError, match="sums"):
        NomaCluster((0, 1), (0.6, 0.6), (0, 1)).validate()
    with pytest.raises(ValueError, match="fractions"):
        NomaCluster((0, 1), (1.0, 0.0), (0, 1)).validate()
    with pytest.raises(ValueError, match="fractions"):
        NomaCluster((0, 1), (math.nan, 0.5), (0, 1)).validate()
    with pytest.raises(ValueError, match="sums"):
        NomaCluster((0,), (math.nan,), (0,)).validate()
    NomaCluster((0,), (1.0,), (0,)).validate()


def noma_setup(users, snr_db=110.0):
    s = make_scenario(users, snr_db=snr_db)
    w = s.waveguides[0]
    sol = place_single_for_group(w, s.users, "sum_rate", s)
    H = build_channel(s, sol.layout, los_states=True)
    return s, H, np.ones(1, dtype=complex)


def test_single_user_cluster_is_conventional_rate():
    s, H, beam = noma_setup([(2.0, 5.0, 0.0)])
    cluster = NomaCluster((0,), (1.0,), (0,))
    report = noma_rates(s, H, cluster, beam)
    g = abs(H.gains[0, 0]) ** 2
    assert report.per_user_rate_bps_hz[0] == pytest.approx(
        math.log2(1 + g * s.transmit_snr), rel=1e-12)


def test_equal_gain_sic_sum_rate_identity():
    # mirrored users: equal gains at every offset
    s, H, beam = noma_setup([(2.0, 3.0, 0.0), (-2.0, 3.0, 0.0)])
    g = abs(H.gains[0, 0]) ** 2
    assert abs(H.gains[1, 0]) ** 2 == pytest.approx(g, rel=1e-12)
    rho = s.transmit_snr
    total = math.log2(1.0 + g * rho)
    for alpha in np.arange(0.01, 1.0, 0.01):
        cluster = NomaCluster((0, 1), (1.0 - alpha, alpha), (0, 1))
        report = noma_rates(s, H, cluster, beam)
        weak, strong = report.per_user_rate_bps_hz
        assert weak == pytest.approx(
            math.log2(1 + g * rho * (1 - alpha) / (1 + g * rho * alpha)), rel=1e-12)
        assert strong == pytest.approx(math.log2(1 + g * rho * alpha), rel=1e-12)
        assert weak + strong == pytest.approx(total, abs=1e-12 * max(1.0, total))


def test_alpha_near_one_degenerates_to_strong_user_service():
    s, H, beam = noma_setup([(1.0, 4.0, 0.0), (3.0, 14.0, 0.0)])
    gains = np.abs(H.gains[:, 0]) ** 2
    strong, weak = (0, 1) if gains[0] >= gains[1] else (1, 0)
    cluster = NomaCluster((weak, strong), (1e-9, 1.0 - 1e-9), (weak, strong))
    report = noma_rates(s, H, cluster, beam)
    solo = math.log2(1 + gains[strong] * s.transmit_snr)
    assert report.per_user_rate_bps_hz[1] == pytest.approx(solo, rel=1e-6)
    assert report.per_user_rate_bps_hz[0] < 1e-6


def test_sic_rate_is_pinned_by_worst_decoder():
    s, H, beam = noma_setup([(1.0, 4.0, 0.0), (3.0, 14.0, 0.0)])
    gains = {u: abs(np.conj(H.gains[u]) @ beam) ** 2 for u in (0, 1)}
    rho = s.transmit_snr
    strong, weak = (0, 1) if gains[0] >= gains[1] else (1, 0)
    # deliberately decode the strong user's message first: both users must
    # decode it, so the weak receiver pins its rate
    cluster = NomaCluster((strong, weak), (0.3, 0.7), (strong, weak))
    report = noma_rates(s, H, cluster, beam)
    p = dict(zip(cluster.users, cluster.power_split))
    first_sinr = min(
        gains[u] * p[strong] * rho / (1 + gains[u] * rho * p[weak])
        for u in (strong, weak))
    assert report.per_user_sinr[0] == pytest.approx(first_sinr, rel=1e-12)
    # last decoded message is interference-free at its own receiver only
    assert report.per_user_sinr[1] == pytest.approx(gains[weak] * p[weak] * rho, rel=1e-12)


def test_noma_power_split_must_conserve():
    s, H, beam = noma_setup([(1.0, 4.0, 0.0), (3.0, 14.0, 0.0)])
    with pytest.raises(ValueError):
        noma_rates(s, H, NomaCluster((0, 1), (0.5, 0.4), (0, 1)), beam)
    with pytest.raises(ValueError, match="unit norm"):
        noma_rates(s, H, NomaCluster((0, 1), (0.5, 0.5), (0, 1)), 2.0 * beam)
    with pytest.raises(ValueError, match="unit norm"):
        noma_rates(s, H, NomaCluster((0, 1), (0.5, 0.5), (0, 1)), math.nan * beam)


def test_noma_rates_reject_aliased_user_indices():
    s, H, beam = noma_setup([(1.0, 4.0, 0.0), (3.0, 14.0, 0.0)])
    for users, match in (((0, 0), "repeat"), ((0, -1), "unknown users"),
                         ((0, 2), "unknown users")):
        with pytest.raises(ValueError, match=match):
            noma_rates(s, H, NomaCluster(users, (0.5, 0.5), users), beam)


def test_noma_boundary_dominates_oma_segment():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 8:
        users = [(rng.uniform(-4, 4), rng.uniform(1, 19), 0.0) for _ in range(2)]
        s, H, beam = noma_setup(users)
        gains = np.abs(H.gains[:, 0]) ** 2
        if max(gains) < 2.0 * min(gains):
            continue  # dominance margin needs clearly asymmetric drops
        checked += 1
        rho = s.transmit_snr
        strong, weak = (0, 1) if gains[0] >= gains[1] else (1, 0)
        solo = {u: math.log2(1 + gains[u] * rho) for u in (strong, weak)}
        # log-dense sweep mirrored at both ends: rates move like log2(alpha),
        # so a linear grid misses the boundary at high SNR
        t = np.logspace(-8, 0, 400)
        alphas = np.unique(np.clip(np.concatenate([t, 1.0 - t]), 1e-10, 1 - 1e-10))
        pairs = []
        for alpha in alphas:
            cluster = NomaCluster((weak, strong), (1 - alpha, alpha), (weak, strong))
            r = noma_rates(s, H, cluster, beam).per_user_rate_bps_hz
            pairs.append((r[1], r[0]))  # (strong, weak)
        pairs = np.asarray(pairs)
        for tau in np.arange(0.05, 0.96, 0.05):
            target = (tau * solo[strong], (1 - tau) * solo[weak])
            ok = np.any((pairs[:, 0] >= target[0] - 1e-9)
                        & (pairs[:, 1] >= target[1] - 1e-9))
            assert ok, f"OMA point {target} undominated for users {users}"


# --- gain reordering --------------------------------------------------------


def test_reorder_geometric_dominance(guide_y):
    # same along-guide coordinate, different lateral distances: user 0 is
    # closer at every offset, so only one ordering is achievable
    users = [(1.0, 5.0, 0.0), (4.0, 5.0, 0.0)]
    s = make_scenario(users, (guide_y,))
    sol = noma_gain_reorder(s, (0, 1), (0, 1))
    assert sol.converged
    sol_bad = noma_gain_reorder(s, (0, 1), (1, 0))
    assert not sol_bad.converged


def test_reorder_both_orders_achievable_along_guide(guide_y):
    users = [(2.0, 3.0, 0.0), (2.0, 12.0, 0.0)]
    s = make_scenario(users, (guide_y,))
    for target in ((0, 1), (1, 0)):
        sol = noma_gain_reorder(s, (0, 1), target)
        assert sol.converged
        x = sol.layout.offsets_per_guide[0][0]
        d = np.linalg.norm(np.asarray(users) - guide_y.point_at(x)[None, :], axis=1)
        ranking = tuple(np.argsort(d, kind="stable"))
        assert ranking == target
    # independent check: each target's region is non-empty on a dense grid
    grid = np.arange(0.0, 20.0, 0.05)
    pts = guide_y.feed_point[None, :] + grid[:, None] * guide_y.axis_direction[None, :]
    d = np.linalg.norm(np.asarray(users)[None, :, :] - pts[:, None, :], axis=2)
    assert np.any(d[:, 0] < d[:, 1]) and np.any(d[:, 1] < d[:, 0])


def test_reorder_is_noop_when_target_already_holds(guide_y):
    users = [(1.0, 5.0, 0.0), (4.0, 9.0, 0.0)]
    s = make_scenario(users, (guide_y,))
    group = place_single_for_group(guide_y, s.users, "sum_rate", s)
    x_opt = group.layout.offsets_per_guide[0][0]
    d = np.linalg.norm(np.asarray(users) - guide_y.point_at(x_opt)[None, :], axis=1)
    current = tuple(np.argsort(d, kind="stable"))
    sol = noma_gain_reorder(s, (0, 1), current)
    assert sol.converged
    assert sol.layout.offsets_per_guide[0][0] == x_opt


def test_reorder_requires_single_waveguide(guide_y):
    other = WaveguideSpec(feed_point=(4, 0, 3), axis_direction=(0, 1, 0), length_m=20)
    s = make_scenario([(1, 5, 0), (2, 6, 0)], (guide_y, other))
    with pytest.raises(ValueError, match="single waveguide"):
        noma_gain_reorder(s, (0, 1), (0, 1))


def kendall_reference(row, cluster, target):
    """Pairs ranked oppositely by the gains (strongest first, stable) and the target."""
    ranking = [cluster[i] for i in np.argsort(-np.asarray(row), kind="stable")]
    pos = {u: i for i, u in enumerate(target)}
    a = [pos[u] for u in ranking]
    return sum(1 for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] > a[j])


def test_inversions_match_kendall_reference():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 4, 5):
        power = rng.integers(0, 3, size=(200, k)).astype(float)  # many ties
        order = rng.permutation(k)
        cluster = tuple(range(k))
        expected = [kendall_reference(row, cluster, tuple(order)) for row in power]
        assert _inversions(power, order).tolist() == expected


def test_reorder_refines_the_grid_optimum():
    rng = np.random.default_rng(2026)
    refined = 0
    for case in range(24):
        k = int(rng.integers(2, 5))
        angle = rng.uniform(0, 2 * np.pi)
        w = WaveguideSpec(feed_point=(rng.uniform(-2, 2), rng.uniform(-2, 2), 3.0),
                          axis_direction=(np.cos(angle), np.sin(angle), 0.0),
                          length_m=float(rng.uniform(1, 8)), relative_permittivity=2.1,
                          guide_attenuation_np_per_m=(0.0, 0.08)[case % 2])
        users = [(rng.uniform(-6, 6), rng.uniform(-6, 6), 0.0) for _ in range(k + 1)]
        s = make_scenario(users, (w,))
        cluster = tuple(int(u) for u in rng.permutation(k + 1)[:k])
        target = tuple(int(u) for u in rng.permutation(cluster))
        sol = noma_gain_reorder(s, cluster, target)

        # grid only: the best sum rate among the grid offsets closest to the target
        grid = _offset_grid(0.0, w.length_m, s.carrier.free_space_wavelength_m / 4)
        power = link_power(s, w, grid[:, None], s.users.positions[list(cluster)])
        distance = np.array([kendall_reference(row, cluster, target) for row in power])
        rates = np.log2(1 + s.transmit_snr * power).sum(axis=1)
        grid_best = rates[distance == distance.min()].max()
        assert sol.objective_value >= grid_best - 1e-12
        assert sol.converged == (distance.min() == 0)
        group = place_single_for_group(w, s.users.positions[list(cluster)], "sum_rate", s)
        if (sol.layout.offsets_per_guide, sol.objective_value) != (
                group.layout.offsets_per_guide, group.objective_value):
            refined += sol.objective_value > grid_best + 1e-9
    assert refined > 0


def test_reorder_rejects_aliased_user_indices():
    s = noma_scenario()
    for cluster, target, match in (((0, -1), (-1, 0), "unknown users"),
                                   ((0, 2), (2, 0), "unknown users"),
                                   ((0, 0), (0, 0), "repeat")):
        with pytest.raises(ValueError, match=match):
            noma_gain_reorder(s, cluster, target)
