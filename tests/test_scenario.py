import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import (
    CarrierSpec,
    UserSet,
    WaveguideSpec,
    guide_distances,
    validate_scenario,
)
from pinchsim.scenario import first_layout_fault, projected_offsets
from tests.conftest import make_scenario

finite_coord = st.floats(min_value=-50.0, max_value=50.0,
                         allow_nan=False, allow_infinity=False)


def codes(violations):
    return sorted(v.code for v in violations)


def test_wavelength_derivation_is_exact():
    c = CarrierSpec(28e9)
    assert c.free_space_wavelength_m == 299792458.0 / 28e9


def test_wavelength_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        CarrierSpec(0.0).free_space_wavelength_m


def test_validate_flags_low_permittivity(guide_y):
    bad = WaveguideSpec(feed_point=(0, 0, 3), axis_direction=(0, 1, 0),
                        length_m=20.0, relative_permittivity=0.5)
    s = make_scenario([(1, 1, 0)], (bad,))
    assert codes(validate_scenario(s)) == ["permittivity_below_one"]


def test_validate_flags_empty_user_set(guide_y):
    s = make_scenario(np.empty((0, 3)), (guide_y,))
    assert codes(validate_scenario(s)) == ["empty_user_set"]


def test_validate_well_formed_scenario_is_clean(simple_scenario):
    assert validate_scenario(simple_scenario) == []


def test_validate_flags_axis_length_height_and_snr():
    w = WaveguideSpec(feed_point=(0, 0, 3), axis_direction=(0, 2, 0),
                      length_m=-1.0)
    s = make_scenario([(1, 1, 0)], (w,), snr_db=0.0)
    s = type(s)(carrier=s.carrier, waveguides=s.waveguides, users=s.users,
                transmit_snr=0.0, los_model=s.los_model)
    got = codes(validate_scenario(s))
    assert "axis_not_unit" in got
    assert "nonpositive_length" in got
    assert "nonpositive_snr" in got


@settings(max_examples=30, deadline=None)
@given(frequency=st.one_of(st.just(math.nan), st.floats(max_value=0.0, allow_nan=False)),
       snr=st.one_of(st.just(math.nan), st.floats(max_value=0.0, allow_nan=False)))
def test_validate_flags_nan_or_nonpositive_frequency_and_snr(frequency, snr):
    s = make_scenario([(1, 1, 0)])
    s = type(s)(carrier=CarrierSpec(frequency), waveguides=s.waveguides, users=s.users,
                transmit_snr=snr, los_model=s.los_model)
    assert codes(validate_scenario(s)) == ["nonpositive_frequency", "nonpositive_snr"]


@pytest.mark.parametrize("frequency, snr, expected", [
    (math.inf, 1e9, ["infinite_frequency"]),
    (28e9, math.inf, ["infinite_snr"]),
])
def test_validate_flags_infinite_frequency_and_snr(frequency, snr, expected):
    s = make_scenario([(1, 1, 0)])
    s = type(s)(carrier=CarrierSpec(frequency), waveguides=s.waveguides, users=s.users,
                transmit_snr=snr, los_model=s.los_model)
    assert codes(validate_scenario(s)) == expected


def test_validate_flags_user_off_ground(guide_y):
    s = make_scenario([(1, 1, 0.5)], (guide_y,))
    assert codes(validate_scenario(s)) == ["user_off_ground"]


@pytest.mark.parametrize("user", [(math.nan, 1.0, 0.0), (1.0, math.nan, 0.0)])
def test_validate_flags_non_finite_user(guide_y, user):
    s = make_scenario([(1, 1, 0), user], (guide_y,))
    assert codes(validate_scenario(s)) == ["non_finite_user"]


@pytest.mark.parametrize("change, expected", [
    (dict(relative_permittivity=math.nan), ["permittivity_below_one"]),
    (dict(guide_attenuation_np_per_m=math.nan), ["negative_attenuation"]),
    (dict(axis_direction=(0.0, math.nan, 0.0)), ["axis_not_unit"]),
    (dict(length_m=math.nan), ["guide_not_above_users", "nonpositive_length"]),
    (dict(feed_point=(math.nan, 0.0, 3.0)), ["non_finite_feed"]),
])
def test_validate_flags_nan_guide_fields(change, expected):
    fields = dict(feed_point=(0.0, 0.0, 3.0), axis_direction=(0.0, 1.0, 0.0), length_m=20.0)
    w = WaveguideSpec(**{**fields, **change})
    assert codes(validate_scenario(make_scenario([(1, 1, 0)], (w,)))) == expected


@pytest.mark.parametrize("los, expected", [
    (dict(los_kind="exponential", rho_los_per_m=math.nan), ["negative_los_density"]),
    (dict(nlos_extra_loss_db=math.nan), ["negative_nlos_penalty"]),
    (dict(los_kind="inmo", inmo_far_scale=5.0), ["bad_inmo_constants"]),
    (dict(los_kind="inmo", inmo_far_scale=-0.1), ["bad_inmo_constants"]),
    (dict(los_kind="inmo", inmo_near_decay_m=-1.0), ["bad_inmo_constants"]),
    (dict(los_kind="inmo", inmo_far_decay_m=0.0), ["bad_inmo_constants"]),
    (dict(los_kind="inmo", inmo_near_m=7.0), ["bad_inmo_constants"]),
    (dict(los_kind="inmo", inmo_near_m=-0.5), ["bad_inmo_constants"]),
    (dict(los_kind="inmo", inmo_far_m=math.nan), ["bad_inmo_constants"]),
    (dict(los_kind="exponential", inmo_far_decay_m=0.0), []),  # unused by this kind
    (dict(los_kind="inmo"), []),
])
def test_validate_flags_nan_and_bad_los_constants(los, expected):
    assert codes(validate_scenario(make_scenario([(1, 1, 0)], **los))) == expected


def test_validate_common_height_only_when_requested(guide_y):
    other = WaveguideSpec(feed_point=(5, 0, 4), axis_direction=(0, 1, 0), length_m=20.0)
    s = make_scenario([(1, 1, 0)], (guide_y, other))
    assert validate_scenario(s) == []
    assert codes(validate_scenario(s, require_common_height=True)) == [
        "unequal_waveguide_heights"]


@pytest.mark.parametrize("feed_z, axis", [
    (0.0, (0.0, 1.0, 0.0)),    # flat guide on the users' plane
    (-1.0, (0.0, 1.0, 0.0)),   # flat guide below it
    (1.0, (0.0, 0.8, -0.6)),   # tilted: feed above, far end at z = -2
])
def test_validate_flags_guide_not_above_users(feed_z, axis):
    w = WaveguideSpec(feed_point=(0.0, 0.0, feed_z), axis_direction=axis, length_m=5.0)
    s = make_scenario([(1, 1, 0)], (w,))
    assert codes(validate_scenario(s)) == ["guide_not_above_users"]
    rising = WaveguideSpec(feed_point=(0.0, 0.0, 1.0), axis_direction=(0.0, 0.8, 0.6),
                           length_m=5.0)
    assert validate_scenario(make_scenario([(1, 1, 0)], (rising,))) == []


def test_validation_is_order_independent(guide_y):
    bad_guide = WaveguideSpec(feed_point=(2, 0, 3), axis_direction=(0, 1, 0),
                              length_m=-2.0)
    users = [(1, 1, 0), (0, 2, 1.0)]
    a = make_scenario(users, (guide_y, bad_guide))
    b = make_scenario(list(reversed(users)), (bad_guide, guide_y))
    assert codes(validate_scenario(a)) == codes(validate_scenario(b))
    assert codes(validate_scenario(a)) == codes(validate_scenario(a))


# --- projection -----------------------------------------------------------


def brute_force_projection(w, p, resolution=1e-4):
    offs = np.arange(0.0, w.length_m + resolution / 2, resolution)
    pts = w.feed_point[None, :] + offs[:, None] * w.axis_direction[None, :]
    d = np.linalg.norm(np.asarray(p, float)[None, :] - pts, axis=1)
    i = int(np.argmin(d))
    return offs[i], d[i]


def project(w, p):
    """The projected offset of ``p`` on ``w`` and its distance to ``p``."""
    t = projected_offsets(w, p)
    return t, guide_distances(w, t, p)


def test_projection_interior_point(guide_y):
    offset, distance = project(guide_y, (2.0, 5.0, 0.0))
    assert offset == pytest.approx(5.0, abs=1e-12)
    assert distance == pytest.approx(math.sqrt(13.0), rel=1e-12)
    off_bf, d_bf = brute_force_projection(guide_y, (2.0, 5.0, 0.0))
    assert abs(offset - off_bf) <= 1e-4
    assert distance <= d_bf + 1e-12


def test_projection_below_feed(guide_y):
    offset, distance = project(guide_y, (0.0, 0.0, 0.0))
    assert offset == 0.0
    assert distance == pytest.approx(3.0, rel=1e-12)


def test_projection_clamps_past_far_end(guide_y):
    offset, distance = project(guide_y, (0.0, 25.0, 0.0))
    assert offset == 20.0
    assert distance == pytest.approx(math.sqrt(34.0), rel=1e-12)
    off_bf, d_bf = brute_force_projection(guide_y, (0.0, 25.0, 0.0))
    assert abs(offset - off_bf) <= 1e-4


@settings(max_examples=60, deadline=None)
@given(x=finite_coord, y=finite_coord, z=finite_coord, seed=st.integers(0, 2 ** 32 - 1))
def test_projection_beats_random_clamped_points(x, y, z, seed):
    w = WaveguideSpec(feed_point=(0.0, 0.0, 3.0), axis_direction=(0.0, 1.0, 0.0),
                      length_m=20.0)
    p = np.array([x, y, z])
    distance = project(w, p)[1]
    offs = np.random.default_rng(seed).uniform(0.0, w.length_m, 1000)
    pts = w.feed_point[None, :] + offs[:, None] * w.axis_direction[None, :]
    assert distance <= np.linalg.norm(p[None, :] - pts, axis=1).min() + 1e-12


# --- layouts --------------------------------------------------------------


def one_layout_codes(guide, offsets, weights, minimum_spacing_m=0.0, n_guides=1):
    """The violation codes of one layout's antenna arrays on 20 m guides, in
    :func:`first_layout_fault`'s order."""
    s = make_scenario([(1.0, 2.0, 0.0)], (WaveguideSpec((0, 0, 3), (0, 1, 0), 20.0),) * n_guides)
    fault = first_layout_fault(s, np.zeros(len(guide), np.intp), guide, offsets, weights,
                               [minimum_spacing_m])
    if fault is None:
        return []
    slot, message = fault
    assert slot == 0 and message.startswith("invalid layout: ")
    return message.removeprefix("invalid layout: ").split("; ")


def test_first_layout_fault_codes():
    assert "offsets_unsorted" in one_layout_codes([0, 0], [2.0, 1.0], [0.8, 0.6])
    assert "spacing_violation" in one_layout_codes([0, 0], [1.0, 1.001], [0.8, 0.6], 0.01)
    assert "weights_not_normalized" in one_layout_codes([0], [1.0], [0.5])
    assert "offset_out_of_range" in one_layout_codes([0], [25.0], [1.0])
    assert one_layout_codes([0, 0], [1.0, 2.0], [math.sqrt(0.5)] * 2, 0.5) == []


@pytest.mark.parametrize("inside_m, crowded", [(1e-3, True), (0.5e-3, True), (1e-6, True),
                                               (0.0, False)])
def test_spacing_violation_starts_just_inside_the_minimum(inside_m, crowded):
    # two antennas 0.5 m apart at the minimum, then closer by 1 mm down to 1 um
    codes = one_layout_codes([0, 0], [1.0, 1.5 - inside_m], [math.sqrt(0.5)] * 2, 0.5)
    assert codes == (["spacing_violation"] if crowded else [])


def test_first_layout_fault_orders_codes_guide_by_guide(guide_y):
    assert one_layout_codes([1, 1, 2], [3.0, 1.0, -1.0], [1.0, 1.0, 0.5], -0.5, 3) == [
        "negative_minimum_spacing",
        "offsets_unsorted",  # guide 1
        "weights_not_normalized",  # guide 1
        "weights_not_normalized",  # guide 2
        "offset_out_of_range",  # guide 2
    ]
    # antenna arrays of different lengths fail the shared check's shape test
    s = make_scenario([(1.0, 2.0, 0.0)], (guide_y,) * 2)
    with pytest.raises(ValueError, match="invalid layout: layout_shape_mismatch"):
        first_layout_fault(s, [0, 0, 0], [0, 1, 1], [1.0, 2.0, 3.0], [1.0, 1.0], [0.0])


def test_user_set_length():
    assert len(UserSet([(0, 0, 0), (1, 1, 0)])) == 2
