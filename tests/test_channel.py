import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pinchsim import (
    LoSModelConfig,
    PinchingLayout,
    WaveguideSpec,
    build_channel,
    free_space_gain,
    guide_distances,
    guided_wavelength,
    link_gains,
    link_power,
    los_probability,
)
from pinchsim.channel import _wavenumbers
from pinchsim.scenario import projected_offsets
from tests.conftest import make_scenario

LAMBDA0_28GHZ = 299792458.0 / 28e9


def test_guided_wavelength_vacuum_identity():
    assert guided_wavelength(1.0, 1.0) == 1.0


def test_guided_wavelength_ptfe_at_28ghz():
    got = guided_wavelength(LAMBDA0_28GHZ, 2.1)
    assert got == pytest.approx(LAMBDA0_28GHZ / math.sqrt(2.1), rel=1e-15)
    assert got == pytest.approx(0.007388, abs=5e-7)


def test_guided_wavelength_quarter_under_eps4():
    assert guided_wavelength(0.010707, 4.0) == pytest.approx(0.0053535, rel=1e-12)


def test_guided_wavelength_domain_errors():
    with pytest.raises(ValueError):
        guided_wavelength(1.0, 0.9)
    with pytest.raises(ValueError):
        guided_wavelength(0.0, 2.1)
    with pytest.raises(ValueError):
        guided_wavelength(1.0, math.nan)
    with pytest.raises(ValueError):
        guided_wavelength(math.nan, 2.1)


@settings(max_examples=100, deadline=None)
@given(f=st.floats(1e6, 1e12), eps=st.floats(1.0, 100.0))
def test_guided_wavelength_never_exceeds_free_space(f, eps):
    lam0 = 299792458.0 / f
    lam_g = guided_wavelength(lam0, eps)
    assert lam_g <= lam0 * (1 + 1e-12)
    assert abs(lam_g - lam0 / math.sqrt(eps)) <= 1e-12 * lam0


def test_guided_wave_wavenumber(guide_y):
    s = make_scenario([(2.0, 5.0, 0.0)], (guide_y,))
    lam0 = s.carrier.free_space_wavelength_m
    k0, kg = _wavenumbers(s, guide_y)
    assert k0 == pytest.approx(2 * math.pi / lam0)
    lam_g = guided_wavelength(lam0, guide_y.relative_permittivity)
    assert kg == pytest.approx(2 * math.pi / lam_g)


# --- LoS probability --------------------------------------------------------


def test_exponential_los_probability():
    model = LoSModelConfig(kind="exponential", rho_los_per_m=0.1)
    assert los_probability(model, 0.0) == 1.0
    assert los_probability(model, 10.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_inmo_short_range_plateau():
    model = LoSModelConfig(kind="inmo")
    assert los_probability(model, 1.0) == 1.0
    assert los_probability(model, 1.2) == 1.0


def test_inmo_piecewise_branches():
    model = LoSModelConfig(kind="inmo")
    assert los_probability(model, 3.0) == pytest.approx(math.exp(-1.8 / 4.7), rel=1e-12)
    assert los_probability(model, 10.0) == pytest.approx(
        0.32 * math.exp(-3.5 / 32.6), rel=1e-12)


def test_always_los_model():
    assert los_probability(LoSModelConfig(kind="always_los"), 1e6) == 1.0


@settings(max_examples=100, deadline=None)
@given(d=st.floats(0.0, 1e4), kind=st.sampled_from(["exponential", "inmo", "always_los"]),
       rho=st.floats(0.0, 10.0))
def test_los_probability_stays_in_unit_interval(d, kind, rho):
    p = los_probability(LoSModelConfig(kind=kind, rho_los_per_m=rho), d)
    assert 0.0 <= p <= 1.0


def test_los_probability_rejects_negative_distance():
    with pytest.raises(ValueError):
        los_probability(LoSModelConfig(), -1.0)
    with pytest.raises(ValueError):
        los_probability(LoSModelConfig(), [1.0, math.nan])


# --- free-space gain --------------------------------------------------------


def test_free_space_gain_magnitude_is_spherical():
    g = free_space_gain(7.0, LAMBDA0_28GHZ)
    assert abs(g) == pytest.approx(LAMBDA0_28GHZ / (4 * math.pi * 7.0), rel=1e-12)


def test_nlos_penalty_is_exact_amplitude_factor():
    g_los = free_space_gain(5.0, LAMBDA0_28GHZ, los=True)
    g_nlos = free_space_gain(5.0, LAMBDA0_28GHZ, los=False, nlos_extra_loss_db=20.0)
    assert abs(g_nlos) == pytest.approx(0.1 * abs(g_los), rel=1e-12)
    assert np.angle(g_nlos) == pytest.approx(np.angle(g_los), abs=1e-12)


def test_full_wavelength_phase_wraps_to_zero():
    g = free_space_gain(LAMBDA0_28GHZ, LAMBDA0_28GHZ)
    assert abs(np.angle(g)) <= 1e-9


def test_literal_los_true_matches_an_all_los_mask():
    d = np.linspace(0.5, 40.0, 257).reshape(1, -1) + np.array([[0.0], [0.01], [3.0]])
    fast = free_space_gain(d, LAMBDA0_28GHZ, los=True)
    assert np.array_equal(fast, free_space_gain(d, LAMBDA0_28GHZ, los=np.ones(d.shape, bool)))
    assert np.array_equal(fast, free_space_gain(d, LAMBDA0_28GHZ, los=1))
    assert isinstance(free_space_gain(2.0, LAMBDA0_28GHZ, los=True), complex)


def test_free_space_gain_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        free_space_gain(0.0, LAMBDA0_28GHZ)
    with pytest.raises(ValueError):
        free_space_gain(-1.0, LAMBDA0_28GHZ)
    with pytest.raises(ValueError):
        free_space_gain(math.nan, LAMBDA0_28GHZ)
    with pytest.raises(ValueError):
        free_space_gain(1.0, math.nan)


@settings(max_examples=60, deadline=None)
@given(d=st.floats(1e-3, 1e4))
def test_doubling_distance_halves_amplitude(d):
    g1 = abs(free_space_gain(d, LAMBDA0_28GHZ))
    g2 = abs(free_space_gain(2 * d, LAMBDA0_28GHZ))
    assert g2 == pytest.approx(g1 / 2, rel=1e-12)
    assert g2 < g1


# --- in-guide factor --------------------------------------------------------


def in_guide(w, x, user=(2.0, 5.0, 0.0)):
    """The in-guide factor of link_gains: its gain divided by the free-space
    factor lambda0/(4*pi*d) * exp(-j*k_0*d)."""
    s = make_scenario([user], (w,))
    lam0 = s.carrier.free_space_wavelength_m
    d = guide_distances(w, x, user)
    return (link_gains(s, w, x, user) * (4 * math.pi * d / lam0)
            * np.exp(1j * (2 * math.pi / lam0) * d))


def test_in_guide_phase_differences(carrier28, guide_y):
    lam_g = guided_wavelength(carrier28.free_space_wavelength_m, guide_y.relative_permittivity)
    base = 3.7
    f0 = in_guide(guide_y, base)
    f_full = in_guide(guide_y, base + lam_g)
    f_half = in_guide(guide_y, base + lam_g / 2)
    assert abs(np.angle(f_full * np.conj(f0))) <= 1e-9
    assert abs(abs(np.angle(f_half * np.conj(f0))) - math.pi) <= 1e-9


def test_lossless_guide_has_unit_magnitude(guide_y):
    assert abs(in_guide(guide_y, 3.7)) == pytest.approx(1.0, rel=1e-15)


def test_guide_attenuation_decays_amplitude():
    lossy = WaveguideSpec(feed_point=(0, 0, 3), axis_direction=(0, 1, 0),
                          length_m=20.0, guide_attenuation_np_per_m=0.1)
    assert abs(in_guide(lossy, 10.0)) == pytest.approx(math.exp(-1.0), rel=1e-12)


# --- channel synthesis ------------------------------------------------------


def test_single_antenna_at_feed_reduces_to_free_space(guide_y):
    s = make_scenario([(0.0, 0.0, 0.0)], (guide_y,))
    layout = PinchingLayout(((0.0,),), ((1.0,),))
    H = build_channel(s, layout, los_states=True)
    expected = free_space_gain(3.0, s.carrier.free_space_wavelength_m)
    assert H.gains[0, 0] == pytest.approx(expected, rel=1e-12)


def test_two_aligned_antennas_add_coherently(carrier28, guide_y):
    lam_g = guided_wavelength(carrier28.free_space_wavelength_m, guide_y.relative_permittivity)
    user = (2.0, 5.0, 0.0)
    s = make_scenario([user], (guide_y,))
    x = projected_offsets(guide_y, user)
    # Symmetric offsets a guided wavelength apart: equal distances, equal
    # in-guide phases mod 2*pi, so the contributions add in phase.
    offsets = (x - lam_g / 2, x + lam_g / 2)
    layout = PinchingLayout.equal_split((offsets,))
    H = build_channel(s, layout, los_states=True)
    d = np.linalg.norm(np.asarray(user) - guide_y.point_at(offsets[0]))
    expected = math.sqrt(2.0) * s.carrier.free_space_wavelength_m / (4 * math.pi * d)
    assert abs(H.gains[0, 0]) == pytest.approx(expected, rel=1e-9)
    coherent = np.sum(np.abs(H.per_antenna_breakdown[0]))
    assert abs(H.gains[0, 0]) == pytest.approx(coherent, rel=1e-9)


def test_two_opposed_antennas_cancel(carrier28, guide_y):
    lam_g = guided_wavelength(carrier28.free_space_wavelength_m, guide_y.relative_permittivity)
    user = (2.0, 5.0, 0.0)
    s = make_scenario([user], (guide_y,))
    x = projected_offsets(guide_y, user)
    offsets = (x - lam_g / 4, x + lam_g / 4)
    layout = PinchingLayout.equal_split((offsets,))
    H = build_channel(s, layout, los_states=True)
    assert abs(H.gains[0, 0]) <= 1e-12


def test_one_antenna_per_guide_reproduces_factor_product(carrier28, guide_y):
    other = WaveguideSpec(feed_point=(4.0, 0.0, 3.0), axis_direction=(0, 1, 0),
                          length_m=20.0, guide_attenuation_np_per_m=0.02)
    s = make_scenario([(1.0, 2.0, 0.0), (3.0, 9.0, 0.0)], (guide_y, other))
    offsets = (6.25, 11.5)
    layout = PinchingLayout(((offsets[0],), (offsets[1],)), ((1.0,), (1.0,)))
    H = build_channel(s, layout, los_states=True)
    lam0 = s.carrier.free_space_wavelength_m
    for g, w in enumerate(s.waveguides):
        k_g = 2 * math.pi / guided_wavelength(lam0, w.relative_permittivity)
        factor = cmath.exp(-(1j * k_g + w.guide_attenuation_np_per_m) * offsets[g])
        for k, user in enumerate(s.users.positions):
            d = np.linalg.norm(user - w.point_at(offsets[g]))
            expected = free_space_gain(d, lam0) * factor
            assert H.gains[k, g] == pytest.approx(expected, rel=1e-12)


def test_aggregate_matches_breakdown_row_sums(guide_y):
    other = WaveguideSpec(feed_point=(4.0, 0.0, 3.0), axis_direction=(0, 1, 0),
                          length_m=20.0)
    s = make_scenario([(1, 2, 0), (3, 9, 0)], (guide_y, other))
    layout = PinchingLayout.equal_split(((1.0, 4.0, 7.5), (2.0,)))
    H = build_channel(s, layout, los_states=True)
    cols = layout.antennas()[0]
    for g in range(2):
        np.testing.assert_allclose(
            H.gains[:, g], H.per_antenna_breakdown[:, cols == g].sum(axis=1),
            rtol=1e-12)


def test_coherent_triangle_bound(guide_y):
    rng = np.random.default_rng(11)
    s = make_scenario([(2.5, 4.0, 0.0)], (guide_y,))
    for _ in range(25):
        offs = tuple(sorted(rng.uniform(0, 20, size=3)))
        H = build_channel(s, PinchingLayout.equal_split((offs,)), los_states=True)
        bound = np.sum(np.abs(H.per_antenna_breakdown[0]))
        assert abs(H.gains[0, 0]) <= bound + 1e-15


def test_seeded_los_sampling_is_bit_reproducible(guide_y):
    s = make_scenario([(1, 2, 0), (4, 15, 0)], (guide_y,), los_kind="inmo")
    layout = PinchingLayout.equal_split(((3.0, 8.0),))
    a = build_channel(s, layout, seed=123)
    b = build_channel(s, layout, seed=123)
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.per_antenna_breakdown, b.per_antenna_breakdown)


def test_probabilistic_model_requires_seed_or_states(guide_y):
    s = make_scenario([(1, 2, 0)], (guide_y,), los_kind="inmo")
    layout = PinchingLayout(((3.0,),), ((1.0,),))
    with pytest.raises(ValueError, match="seed"):
        build_channel(s, layout)
    H = build_channel(s, layout, los_states=[[False]])
    expected = abs(free_space_gain(
        np.linalg.norm(np.array([1, 2, 0]) - guide_y.point_at(3.0)),
        s.carrier.free_space_wavelength_m))
    assert abs(H.gains[0, 0]) == pytest.approx(0.1 * expected, rel=1e-12)


def test_antenna_user_coincidence_is_an_error():
    ground_guide = WaveguideSpec(feed_point=(0, 0, 0), axis_direction=(0, 1, 0),
                                 length_m=20.0)
    s = make_scenario([(0.0, 5.0, 0.0)], (ground_guide,))
    layout = PinchingLayout(((5.0,),), ((1.0,),))
    with pytest.raises(ValueError, match="coincides"):
        build_channel(s, layout, los_states=True)


def test_invalid_layout_is_rejected(guide_y):
    s = make_scenario([(1, 2, 0)], (guide_y,))
    for layout in (PinchingLayout(((1.0,),), ((0.7,),)),
                   PinchingLayout(((math.nan,),), ((1.0,),)),
                   PinchingLayout(((1.0,),), ((math.nan,),))):
        with pytest.raises(ValueError, match="invalid layout"):
            build_channel(s, layout, los_states=True)
    with pytest.raises(ValueError, match="waveguides"):
        build_channel(s, PinchingLayout(((1.0,), (2.0,)), ((1.0,), (1.0,))),
                      los_states=True)


# --- link kernel ------------------------------------------------------------


@st.composite
def any_guide(draw):
    """A guide with any axis direction and any nonnegative attenuation."""
    axis = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    assume(np.linalg.norm(axis) > 1e-3)
    return WaveguideSpec(feed_point=[draw(st.floats(-10.0, 10.0)) for _ in range(3)],
                         axis_direction=axis / np.linalg.norm(axis),
                         length_m=draw(st.floats(0.1, 30.0)),
                         relative_permittivity=draw(st.floats(1.0, 12.0)),
                         guide_attenuation_np_per_m=draw(st.floats(0.0, 2.0)))


@settings(max_examples=60, deadline=None)
@given(w=any_guide(), frequency=st.floats(1e9, 1e11), seed=st.integers(0, 2 ** 32 - 1))
def test_link_kernel_broadcasts_and_matches_closed_form(w, frequency, seed):
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0.0, w.length_m, 5)
    points = rng.uniform(-20.0, 20.0, (4, 3))
    s = make_scenario(points, (w,), frequency_hz=frequency)

    outer = link_gains(s, w, offsets[None, :], points[:, None, :])
    paired = link_gains(s, w, np.tile(offsets, 4), np.repeat(points, 5, axis=0))
    assert np.array_equal(outer, paired.reshape(4, 5))
    power = link_power(s, w, offsets[None, :], points[:, None, :])
    assert np.abs(outer) ** 2 == pytest.approx(power, rel=1e-12)
    nlos = link_gains(s, w, offsets[None, :], points[:, None, :], 0.5, False)
    penalty = 10.0 ** (-s.los_model.nlos_extra_loss_db / 20.0)
    assert nlos == pytest.approx(0.5 * penalty * outer, rel=1e-12)

    lam0 = 299792458.0 / frequency
    k_g = 2.0 * math.pi * math.sqrt(w.relative_permittivity) / lam0
    alpha = w.guide_attenuation_np_per_m
    for i, p in enumerate(points):
        for j, x in enumerate(offsets):
            d = math.dist(p, w.feed_point + x * w.axis_direction)
            closed = (lam0 / (4.0 * math.pi * d) * cmath.exp(-2j * math.pi * d / lam0)
                      * cmath.exp(-(1j * k_g + alpha) * x))
            assert outer[i, j] == pytest.approx(closed, rel=1e-9)
            assert power[i, j] == pytest.approx(abs(closed) ** 2, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(w=any_guide(), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_projection_equals_scalar_calls(w, seed):
    rng = np.random.default_rng(seed)
    along = np.concatenate([[-1.0, w.length_m + 1.0],  # clamp to 0 and to length
                            rng.uniform(-0.5, 1.5, 6) * w.length_m])
    beside = rng.normal(0.0, 3.0, (8, 3))
    beside -= np.outer(beside @ w.axis_direction, w.axis_direction)  # across the guide
    points = w.feed_point + along[:, None] * w.axis_direction + beside
    batch = points.reshape(4, 2, 3)
    offsets = projected_offsets(w, batch)
    dists = guide_distances(w, offsets, batch)
    assert offsets.shape == dists.shape == (4, 2)
    offsets, dists = offsets.ravel(), dists.ravel()
    for i, p in enumerate(points):
        one = projected_offsets(w, p)
        assert isinstance(one, float)
        assert offsets[i] == one
        assert dists[i] == guide_distances(w, one, p)
    assert offsets[0] == 0.0 and offsets[1] == w.length_m
    assert 0.0 <= offsets.min() and offsets.max() <= w.length_m

