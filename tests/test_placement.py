import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import (
    RankDeficiencyError,
    WaveguideSpec,
    align_multi_on_guide,
    build_channel,
    coherent_gain_bound,
    conventional_bound,
    evaluate_rates,
    guided_wavelength,
    link_gains,
    link_power,
    mrc_beamformer,
    optimize_multi_waveguide,
    optimize_multi_waveguide_sweep,
    place_single_for_group,
    place_single_for_user,
    zf_beamformer,
)
from pinchsim.beamforming import ZF_RCOND_LIMIT, _rcond
from pinchsim.placement import (
    BRACKET_TOL_M,
    _argmax_tie_smallest,
    _features,
    _hermitian,
    _offset_grid,
    _scorer,
    _wrap,
    _zf_map,
    _zoom_max,
)
from pinchsim.scenario import UserSet, projected_offsets
from tests.conftest import make_scenario

LAMBDA0 = 299792458.0 / 28e9


def group_rates_oracle(w, users, s, offsets):
    """Straight-line reimplementation of the group objective for cross-checks."""
    users = np.asarray(users, dtype=float)
    out = np.empty((len(offsets), len(users)))
    lam0 = s.carrier.free_space_wavelength_m
    for i, t in enumerate(offsets):
        pos = w.feed_point + t * w.axis_direction
        d = np.linalg.norm(users - pos[None, :], axis=1)
        amp = lam0 / (4 * math.pi * d) * math.exp(-w.guide_attenuation_np_per_m * t)
        out[i] = np.log2(1 + s.transmit_snr * amp ** 2)
    return out


def test_place_single_for_user_is_projection(guide_y):
    assert place_single_for_user(guide_y, (2, 5, 0)) == pytest.approx(5.0, abs=1e-12)
    assert place_single_for_user(guide_y, (0, 0, 0)) == 0.0
    # symmetric users each get their own projection offset
    assert place_single_for_user(guide_y, (3, 4, 0)) == pytest.approx(4.0)
    assert place_single_for_user(guide_y, (-3, 4, 0)) == pytest.approx(4.0)


def test_place_single_for_user_finds_lossy_peak(guide_y):
    # a user 5 m from the guide, projecting at 12.0 m: the loss pulls the
    # peak to 12 - 2*0.08*25/(1 + 0.6) = 9.5 m; at 0.3 Np/m, 2*alpha*r >= 1
    # and the power falls all along the guide
    lossy = dataclasses.replace(guide_y, guide_attenuation_np_per_m=0.08)
    assert place_single_for_user(lossy, (4, 12, 0)) == pytest.approx(9.5, abs=1e-12)
    steep = dataclasses.replace(guide_y, guide_attenuation_np_per_m=0.3)
    assert place_single_for_user(steep, (4, 12, 0)) == 0.0

    rng = np.random.default_rng(41)
    for _ in range(30):
        angle = rng.uniform(0.0, 2 * math.pi)
        w = WaveguideSpec(feed_point=(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(1, 5)),
                          axis_direction=(math.cos(angle) * 0.98, math.sin(angle) * 0.98,
                                          math.sqrt(1 - 0.98 ** 2)),
                          length_m=rng.uniform(0.5, 20.0), relative_permittivity=2.1,
                          guide_attenuation_np_per_m=rng.choice([0.0, 0.02, 0.08, 0.3]))
        # users from before the feed to past the far end
        t = rng.uniform(-3.0, w.length_m + 3.0)
        user = w.point_at(0.0) + t * w.axis_direction + rng.uniform(-6, 6, 3)
        user[2] = 0.0
        x = place_single_for_user(w, user)
        if w.guide_attenuation_np_per_m == 0:
            assert x == projected_offsets(w, user)  # bit for bit
        s = make_scenario([user], (w,))
        scanned = place_single_for_group(w, s.users, "sum_rate", s).objective_value
        rate = math.log2(1 + s.transmit_snr * float(link_power(s, w, x, user)))
        assert rate >= scanned - 1e-12


def test_align_centres_on_lossy_peak(guide_y):
    lossy = dataclasses.replace(guide_y, guide_attenuation_np_per_m=0.08)
    user = (4.0, 12.0, 0.0)
    s = make_scenario([user], (lossy,))
    single = align_multi_on_guide(lossy, user, 1, s)
    assert single.layout.offsets_per_guide[0][0] == pytest.approx(9.5, abs=1e-12)
    assert single.objective_value == pytest.approx(5.6951, abs=1e-4)
    # the combs centred on the projection reached 6.435 and 8.438 bps/Hz
    for n, projection_centred in ((2, 6.435), (8, 8.438)):
        sol = align_multi_on_guide(lossy, user, n, s)
        assert sol.converged
        assert sol.objective_value > projection_centred + 0.2


def test_group_placement_symmetric_max_min(guide_y):
    users = [(2.0, 3.0, 0.0), (2.0, 7.0, 0.0)]
    s = make_scenario(users, (guide_y,))
    sol = place_single_for_group(guide_y, s.users, "max_min_rate", s)
    x = sol.layout.offsets_per_guide[0][0]
    assert x == pytest.approx(5.0, abs=1e-5)
    assert sol.converged
    rates = group_rates_oracle(guide_y, users, s, [x])[0]
    assert abs(rates[0] - rates[1]) <= 1e-9
    assert sol.objective_value == pytest.approx(rates.min(), rel=1e-12)


def test_group_placement_sum_rate_favors_near_user(guide_y):
    users = [(1.0, 3.0, 0.0), (4.5, 12.0, 0.0)]
    s = make_scenario(users, (guide_y,))
    sol = place_single_for_group(guide_y, s.users, "sum_rate", s)
    x = sol.layout.offsets_per_guide[0][0]
    assert abs(x - 3.0) < abs(x - 12.0)
    # independent dense scan confirms the argmax basin
    grid = np.arange(0.0, 20.0, LAMBDA0 / 16)
    vals = group_rates_oracle(guide_y, users, s, grid).sum(axis=1)
    x_bf = grid[int(np.argmax(vals))]
    assert abs(x - x_bf) <= LAMBDA0 / 4
    assert sol.objective_value >= vals.max() - 1e-9


def test_group_placement_single_user_degenerates_to_projection(guide_y):
    s = make_scenario([(2.0, 5.0, 0.0)], (guide_y,))
    sol = place_single_for_group(guide_y, s.users, "sum_rate", s)
    assert sol.layout.offsets_per_guide[0][0] == pytest.approx(
        place_single_for_user(guide_y, (2, 5, 0)), abs=1e-5)


def test_group_placement_rejects_unknown_objective(guide_y):
    s = make_scenario([(2.0, 5.0, 0.0)], (guide_y,))
    with pytest.raises(ValueError, match="objective"):
        place_single_for_group(guide_y, s.users, "fairness", s)


def test_zoom_max_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a, b, c = rng.uniform(-2, 2, 3)

        def fn(x):
            return np.sin(a * x + b) + 0.3 * np.cos(c * x) - 0.01 * (x - 5) ** 2

        # scan, then refine the best cell, as place_single_for_group does
        grid = _offset_grid(0.0, 10.0, 0.01)
        vals = fn(grid)
        i = _argmax_tie_smallest(vals)
        x, v = _zoom_max(lambda rows, xs: fn(xs), grid, [i], [vals[i]], BRACKET_TOL_M)
        x, v = x[0], v[0]
        fine = np.arange(0.0, 10.0, 0.001)
        x_bf = fine[int(np.argmax(fn(fine)))]
        assert abs(x - x_bf) <= 0.01
        assert v >= vals[i]
        assert v >= fn(np.asarray([x_bf]))[0] - 1e-9


# --- phase alignment --------------------------------------------------------


def test_align_single_antenna_degenerates_to_projection(guide_y):
    s = make_scenario([(2.0, 5.0, 0.0)], (guide_y,))
    sol = align_multi_on_guide(guide_y, (2, 5, 0), 1, s)
    assert sol.layout.offsets_per_guide[0][0] == pytest.approx(5.0, abs=1e-9)
    assert sol.converged


ALIGN_GEOMETRIES = {  # name: (changes to the 20 m guide_y, user)
    "default": ({}, (2.0, 7.0, 0.0)),
    "past_far_end": ({}, (2.0, 23.0, 0.0)),
    "before_feed": ({}, (2.0, -3.0, 0.0)),  # tooth gaps below lambda0/2 here
    "vacuum_core": ({"relative_permittivity": 1.0}, (2.0, 7.0, 0.0)),
    "lossy": ({"guide_attenuation_np_per_m": 0.08}, (2.0, 7.0, 0.0)),
}


@pytest.mark.parametrize("geometry,n", [
    pytest.param(name, n, id=str(n) if name == "default" else f"{name}-{n}")
    for name in ALIGN_GEOMETRIES for n in (2, 4, 5, 8, 12)])
def test_align_reaches_coherent_bound(guide_y, geometry, n):
    changes, user = ALIGN_GEOMETRIES[geometry]
    guide = dataclasses.replace(guide_y, **changes)
    s = make_scenario([user], (guide,))
    sol = align_multi_on_guide(guide, user, n, s)
    H = build_channel(s, sol.layout, los_states=True)
    bound = coherent_gain_bound(H, 0)
    assert abs(H.gains[0, 0]) >= 0.99 * bound
    assert sol.converged
    assert sol.layout.violations((guide,)) == []


def test_align_equalizes_total_phase_at_foot_point_user(guide_y):
    user = np.array([0.0, 7.0, 0.0])
    s = make_scenario([user], (guide_y,))
    sol = align_multi_on_guide(guide_y, user, 2, s)
    offs = np.asarray(sol.layout.offsets_per_guide[0])
    phases = np.angle(link_gains(s, guide_y, offs, user))
    assert abs(_wrap(phases[1] - phases[0])) <= 1e-6
    spacing = sol.layout.minimum_spacing_m
    assert offs[1] - offs[0] >= spacing - 1e-12


def test_align_never_loses_to_single_antenna(guide_y):
    rng = np.random.default_rng(23)
    for _ in range(5):
        user = (rng.uniform(-4, 4), rng.uniform(2, 18), 0.0)
        s = make_scenario([user], (guide_y,))
        single = align_multi_on_guide(guide_y, user, 1, s)
        for n in (2, 3, 4):
            multi = align_multi_on_guide(guide_y, user, n, s)
            assert multi.objective_value >= single.objective_value - 1e-9


def test_align_rejects_infeasible_spacing():
    stub = WaveguideSpec(feed_point=(0, 0, 3), axis_direction=(0, 1, 0),
                         length_m=0.005)
    s = make_scenario([(0.0, 0.0025, 0.0)], (stub,))
    with pytest.raises(ValueError, match="cannot host"):
        align_multi_on_guide(stub, (0, 0.0025, 0), 4, s)
    # 3 antennas span 10.7 mm at lambda0/2, but no two tooth gaps (about
    # 7.4 mm each) fit on 12 mm
    short = dataclasses.replace(stub, length_m=0.012)
    s = make_scenario([(0.0, 0.006, 0.0)], (short,))
    with pytest.raises(ValueError, match="no feasible phase-aligned arrangement"):
        align_multi_on_guide(short, (0, 0.006, 0), 3, s)


def test_align_layout_is_valid(guide_y):
    user = (1.0, 9.0, 0.0)
    s = make_scenario([user], (guide_y,))
    sol = align_multi_on_guide(guide_y, user, 4, s)
    assert sol.layout.violations((guide_y,)) == []


# --- multi-waveguide coordinate descent -------------------------------------


def three_guide_scenario(users, snr_db=100.0):
    guides = tuple(
        WaveguideSpec(feed_point=(x, -10.0, 3.0), axis_direction=(0, 1, 0),
                      length_m=20.0, relative_permittivity=2.1)
        for x in (-10.0 / 3.0, 0.0, 10.0 / 3.0))
    return make_scenario(users, guides, snr_db=snr_db)


def reevaluate(s, sol, kind="zf", objective="sum_rate"):
    H = build_channel(s, sol.layout, los_states=True)
    report = evaluate_rates(H, zf_beamformer(H), s.transmit_snr)
    rates = report.per_user_rate_bps_hz
    return rates.sum() if objective == "sum_rate" else rates.min()


def test_descent_single_user_single_guide_matches_projection(guide_y):
    s = make_scenario([(2.0, 5.0, 0.0)], (guide_y,))
    sol = optimize_multi_waveguide(s, "zf", "sum_rate")
    x = sol.layout.offsets_per_guide[0][0]
    assert x == pytest.approx(5.0, abs=1e-5)
    H = build_channel(s, sol.layout, los_states=True)
    assert sol.objective_value == pytest.approx(
        conventional_bound(H, s.transmit_snr)[0], rel=1e-12)


def test_descent_agrees_with_exhaustive_oracle_basin():
    # Users adjacent to distinct guides: the per-user placement basin. The
    # exhaustive scan shows the sum-rate optimum trades a little self-gain
    # for row decorrelation, so antennas land near (not exactly at) their
    # users' projections; coordinate descent must find the same basin.
    users = [(-10 / 3 + 0.1, -2.0, 0.0), (0.05, 1.0, 0.0), (10 / 3 - 0.08, 3.0, 0.0)]
    s = three_guide_scenario(users)
    sol = optimize_multi_waveguide(s, "zf", "sum_rate", budget=25)
    offsets = np.array([o[0] for o in sol.layout.offsets_per_guide])

    # coarse exhaustive oracle over all three offsets
    grid = np.linspace(0.0, 20.0, 41)
    coarse_res = grid[1] - grid[0]
    cols = []
    lam0 = s.carrier.free_space_wavelength_m
    for w in s.waveguides:
        k_g = 2 * np.pi / guided_wavelength(lam0, w.relative_permittivity)
        pos = w.feed_point[None, :] + grid[:, None] * w.axis_direction[None, :]
        d = np.linalg.norm(np.asarray(users)[:, None, :] - pos[None, :, :], axis=2)
        amp = lam0 / (4 * np.pi * d) * np.exp(-2j * np.pi * d / lam0)
        cols.append(amp.T * np.exp(-1j * k_g * grid)[:, None])
    G = np.zeros((41, 41, 41, 3, 3), dtype=complex)
    G[..., 0] = cols[0][:, None, None, :]
    G[..., 1] = cols[1][None, :, None, :]
    G[..., 2] = cols[2][None, None, :, :]
    G = G.reshape(-1, 3, 3)
    Mh = np.einsum("...km,...lm->...kl", np.conj(G), G)
    # ZF with unit-norm columns and power 1/3 each: sinr_k = snr / (3 [Mh^-1]_kk)
    d = np.linalg.inv(Mh).diagonal(axis1=-2, axis2=-1).real
    with np.errstate(divide="ignore", invalid="ignore"):
        obj = np.log2(1.0 + s.transmit_snr / (3.0 * d)).sum(axis=-1)
    obj = np.where(np.isfinite(obj) & (d > 0).all(axis=-1), obj, -np.inf)
    i1, i2, i3 = np.unravel_index(int(np.argmax(obj)), (41, 41, 41))
    coarse_best = np.array([grid[i1], grid[i2], grid[i3]])

    # The descent (which scans each coordinate densely) must beat every
    # joint configuration the coarse grid can see, and both optima must sit
    # in the per-user basin around the projections.
    assert sol.objective_value >= obj.max() - 1e-9
    projections = np.array([projected_offsets(w, u) for w, u in zip(s.waveguides, users)])
    assert np.all(np.abs(offsets - projections) <= 2 * coarse_res)
    assert np.all(np.abs(coarse_best - projections) <= 4 * coarse_res)


def test_descent_trace_is_monotone_and_value_consistent():
    users = [(-2.0, -4.0, 0.0), (1.0, 2.0, 0.0), (3.0, 4.5, 0.0)]
    s = three_guide_scenario(users)
    sol = optimize_multi_waveguide(s, "zf", "sum_rate", budget=25)
    assert all(b >= a for a, b in zip(sol.trace, sol.trace[1:]))
    assert sol.converged
    assert abs(sol.objective_value - sol.trace[-1]) <= 1e-9
    assert abs(sol.objective_value - reevaluate(s, sol)) <= 1e-9
    assert sol.layout.violations(s.waveguides) == []


def assert_same_solution(a, b):
    assert a.layout.offsets_per_guide == b.layout.offsets_per_guide
    assert a.objective_value == b.objective_value
    assert a.objective_kind == b.objective_kind
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.trace == b.trace


def test_descent_is_deterministic():
    users = [(-1.0, -3.0, 0.0), (2.0, 6.0, 0.0), (0.5, 8.0, 0.0)]
    s = three_guide_scenario(users)
    a = optimize_multi_waveguide(s, "zf", "sum_rate")
    b = optimize_multi_waveguide(s, "zf", "sum_rate")
    assert a.layout.offsets_per_guide == b.layout.offsets_per_guide
    assert a.objective_value == b.objective_value
    assert a.trace == b.trace
    # the same descent stepped inside a sweep gives the same solution
    rhos = (s.transmit_snr / 1e3, s.transmit_snr)
    assert_same_solution(optimize_multi_waveguide_sweep(s, rhos, "zf", "sum_rate")[1], a)


def test_descent_max_min_objective_runs():
    users = [(-2.0, -4.0, 0.0), (1.0, 2.0, 0.0)]
    s = three_guide_scenario(users)
    sol = optimize_multi_waveguide(s, "zf", "max_min_rate", budget=4)
    H = build_channel(s, sol.layout, los_states=True)
    rates = evaluate_rates(H, zf_beamformer(H), s.transmit_snr).per_user_rate_bps_hz
    assert sol.objective_value == pytest.approx(rates.min(), rel=1e-9)


def test_descent_mrc_objective_runs():
    users = [(-2.0, -4.0, 0.0), (1.0, 2.0, 0.0)]
    s = three_guide_scenario(users)
    sol = optimize_multi_waveguide(s, "mrc", "sum_rate", budget=4)
    assert np.isfinite(sol.objective_value)
    assert all(b >= a for a, b in zip(sol.trace, sol.trace[1:]))


def test_descent_with_identical_users_degenerates_gracefully():
    users = [(1.0, 2.0, 0.0), (1.0, 2.0, 0.0)]
    s = three_guide_scenario(users)
    sol = optimize_multi_waveguide(s, "zf", "sum_rate", budget=3)
    assert sol.objective_value == -np.inf


def test_descent_mrc_value_is_pinned():
    # Matched beams read the Gram entries from the same features as zero-forcing.
    # The value is held to 1e-12 relative, not to its bits: the link law's phase
    # lag (thousands of radians here) rounds to about 1e-12 rad.
    s = three_guide_scenario([(-2.0, -4.0, 0.0), (1.0, 2.0, 0.0), (3.0, 4.5, 0.0)])
    sol = optimize_multi_waveguide(s, "mrc", "sum_rate", budget=4)
    assert sol.objective_value == pytest.approx(22.53243825613072, rel=1e-12)
    assert sol.layout.offsets_per_guide == (
        (5.811163827744999,), (13.819524080390849,), (15.396311469455856,))
    assert sol.iterations == 4
    assert len(sol.trace) == 10


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("extra", [0, 1, 2])
def test_zf_map_matches_det_and_inverse(K, extra):
    # extra = 0: K = M guides, so the other guides' Gram F has rank K - 1;
    # otherwise F has full rank. Candidates whose Gram has a Hadamard ratio
    # h = det / prod(diag) below 1e-6 are left out. numpy's det and inv are
    # themselves only good to about eps / h, so both sides are compared at
    # 1e-12 of the Hadamard scale: |ddet| <= 1e-12 prod(diag), rel 1e-12 / h.
    rng = np.random.default_rng([K, extra])
    L, n, M = 3, 200, K + extra

    def columns(*shape):
        return rng.normal(size=(K,) + shape) + 1j * rng.normal(size=(K,) + shape)

    F = _features(columns(L, M - 1)).sum(axis=-1).T  # (L, K*K)
    T = _features(columns(n))
    score = _scorer(F, "zf", "sum_rate", np.full(L, 1e3))
    # the kernel's bits do not depend on how many states share the product
    together = score(np.arange(L), np.repeat(T[None], L, axis=0))
    assert np.array_equal(together, score(np.arange(L), T))
    for r in range(L):
        assert np.array_equal(score([r], T[None]), together[r:r + 1])

    weights, consts = _zf_map(F, K)
    out = weights @ T + consts[:, :, None]  # (L, 1+K, n): det, then C_kk
    gram = _hermitian(np.moveaxis(F[:, :, None] + T, 1, -1), K)  # (L, n, K, K)
    scale = np.prod(np.diagonal(gram, axis1=-2, axis2=-1).real, axis=-1)
    det = np.linalg.det(gram).real
    h = det / scale
    keep = h >= 1e-6
    assert keep.mean() > 0.5
    assert np.all(np.abs(out[:, 0] - det)[keep] <= 1e-12 * scale[keep])
    inv_diag = np.linalg.inv(gram).diagonal(axis1=-2, axis2=-1).real
    ratio = np.moveaxis(out[:, 1:] / out[:, :1], 1, -1) / inv_diag
    assert np.all((np.abs(ratio - 1.0) * h[..., None])[keep] <= 1e-12)


def test_descent_never_steps_on_singular_grams_at_four_users():
    # two identical users: every 4x4 Gram is singular, though its det is not 0
    guides = tuple(WaveguideSpec(feed_point=(x, -10.0, 3.0), axis_direction=(0, 1, 0),
                                 length_m=20.0, relative_permittivity=2.1)
                   for x in (-6.0, -2.0, 2.0, 6.0))
    users = [(1.0, 2.0, 0.0), (1.0, 2.0, 0.0), (-3.0, -4.0, 0.0), (4.0, 6.0, 0.0)]
    s = make_scenario(users, guides)
    sol = optimize_multi_waveguide(s, "zf", "sum_rate", budget=3)
    assert sol.trace == (-np.inf,)
    assert sol.objective_value == -np.inf


def test_descent_argument_validation(guide_y):
    s = make_scenario([(1, 1, 0), (2, 2, 0)], (guide_y,))
    with pytest.raises(ValueError, match="users <= waveguides"):
        optimize_multi_waveguide(s, "zf", "sum_rate")
    with pytest.raises(ValueError, match="beamformer"):
        optimize_multi_waveguide(s, "dirty", "sum_rate")
    with pytest.raises(ValueError, match="objective"):
        optimize_multi_waveguide(s, "mrc", "throughput")
    s3 = three_guide_scenario([(1, 1, 0)])
    (swept,) = optimize_multi_waveguide_sweep(s3, [s3.transmit_snr], "zf", "sum_rate")
    assert_same_solution(swept, optimize_multi_waveguide(s3, "zf", "sum_rate"))


@st.composite
def sweep_cases(draw):
    """Random geometry with K <= M <= 4 short guides above the users, an SNR list
    that may repeat, a beamformer and an objective; users may coincide."""
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, m))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    guides = []
    for _ in range(m):
        angle = draw(st.floats(0.0, 2 * math.pi))
        guides.append(WaveguideSpec(
            feed_point=(draw(coord), draw(coord), draw(st.floats(2.0, 4.0))),
            axis_direction=(math.cos(angle), math.sin(angle), draw(st.floats(-0.2, 0.2))),
            length_m=draw(st.floats(0.05, 1.0)), relative_permittivity=2.1,
            guide_attenuation_np_per_m=draw(st.sampled_from([0.0, 0.08]))))
    users = [(draw(coord), draw(coord), 0.0) for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        users[1] = users[0]  # identical users: ZF is degenerate everywhere
    snr_db = draw(st.lists(st.sampled_from([0.0, 30.0, 60.0, 90.0, 110.0]),
                           min_size=1, max_size=4))
    return (make_scenario(users, guides), [10.0 ** (v / 10.0) for v in snr_db],
            draw(st.sampled_from(["zf", "mrc"])),
            draw(st.sampled_from(["sum_rate", "max_min_rate"])), draw(st.integers(1, 4)))


@settings(max_examples=40, deadline=None)
@given(case=sweep_cases())
def test_sweep_equals_one_descent_per_snr(case):
    s, rhos, kind, objective, budget = case
    swept = optimize_multi_waveguide_sweep(s, rhos, kind, objective, budget)
    assert len(swept) == len(rhos)
    for rho, sol in zip(rhos, swept):
        single = optimize_multi_waveguide(dataclasses.replace(s, transmit_snr=rho),
                                          kind, objective, budget)
        assert_same_solution(sol, single)
        assert all(b >= a for a, b in zip(sol.trace, sol.trace[1:]))


def public_objective(s, sol, rho, kind, objective):
    """The descent's objective through build_channel and the public beamformers,
    and whether the Gram kernel can resolve the layout's channel."""
    H = build_channel(s, sol.layout, los_states=True)
    try:
        B = zf_beamformer(H) if kind == "zf" else mrc_beamformer(H)
    except RankDeficiencyError:
        return -np.inf, False
    rates = evaluate_rates(H, B, rho).per_user_rate_bps_hz
    # ZF's Gram has the channel's rcond squared; below ZF_RCOND_LIMIT its
    # inverse has no correct digits (users less than a micrometre apart)
    resolved = kind == "mrc" or _rcond(H.gains) ** 2 >= ZF_RCOND_LIMIT
    return (rates.sum() if objective == "sum_rate" else rates.min()), resolved


@settings(max_examples=60, deadline=None)
@given(case=sweep_cases())
def test_descent_value_matches_public_path(case):
    s, rhos, kind, objective, budget = case
    for rho, sol in zip(rhos, optimize_multi_waveguide_sweep(s, rhos, kind, objective, budget)):
        public, resolved = public_objective(s, sol, rho, kind, objective)
        if public == -np.inf:
            assert sol.objective_value == -np.inf
        elif resolved:
            # log2(1 + sinr) rounds 1 + sinr: up to 1.6e-16 bps/Hz per user and side
            assert sol.objective_value == pytest.approx(public, rel=1e-12, abs=2e-15)
        if np.isfinite(sol.objective_value):
            assert sol.objective_value == sol.trace[-1]
