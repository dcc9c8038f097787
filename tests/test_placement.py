import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchsim import (
    RankDeficiencyError,
    UserSet,
    WaveguideSpec,
    align_multi_on_guide,
    build_channel,
    conventional_bound,
    evaluate_rates,
    guided_wavelength,
    link_gains,
    link_power,
    optimize_multi_waveguide_sweep,
    place_single_for_group,
    place_single_for_user,
    placement,
    zf_beamformer,
)
from pinchsim.beamforming import ZF_RCOND_LIMIT, _rcond
from pinchsim.placement import (
    BRACKET_TOL_M,
    ZOOM_POINTS,
    _argmax_tie_smallest,
    _features,
    _hermitian,
    _offset_grid,
    _qr_zf_sum_rates,
    _resolved,
    _scorer,
    _sweep_drops,
    _wrap,
    _zf_map,
    _zoom_max,
    _zoom_offsets,
)
from pinchsim.scenario import first_layout_fault, projected_offsets
from tests.conftest import coherent_gain_bound, make_scenario, set_cpus

LAMBDA0 = 299792458.0 / 28e9


def layout_fault(s, layout):
    """Why ``layout`` does not fit ``s`` as a one-slot schedule, or None."""
    return first_layout_fault(s, np.zeros(layout.guide.size, np.intp), layout.guide,
                              layout.offsets, layout.weights, [layout.minimum_spacing_m])


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


def test_place_single_for_user_breaks_an_exact_power_tie_to_the_feed():
    # On a 100 m guide at 0.0465 Np/m this user's interior peak, 64.7 m out,
    # gets the feed's link power to the last bit (found by bisecting the user's
    # y for the crossing, then stepping it by ulps): the feed, the smaller
    # offset, wins the tie
    alpha = 0.0465079594127189
    w = WaveguideSpec(feed_point=(0.0, 0.0, 3.0), axis_direction=(0, 1, 0), length_m=100.0,
                      relative_permittivity=2.1, guide_attenuation_np_per_m=alpha)
    user = np.array([1.0600523344396762, 65.19878096143269, 0.0])
    r2 = user[0] ** 2 + 9.0
    x = np.array([user[1] - 2.0 * alpha * r2 / (1.0 + math.sqrt(1.0 - 4.0 * alpha ** 2 * r2)), 0.0])
    power = np.exp(-2.0 * alpha * x) / placement.guide_distances(w, x, user) ** 2
    if power[0] != power[1]:
        pytest.skip("this numpy's exp does not tie the two powers")
    assert x[0] > 60.0
    assert place_single_for_user(w, user) == 0.0


def test_align_centres_on_lossy_peak(guide_y):
    lossy = dataclasses.replace(guide_y, guide_attenuation_np_per_m=0.08)
    user = (4.0, 12.0, 0.0)
    s = make_scenario([user], (lossy,))
    single = align_multi_on_guide(lossy, user, 1, s)
    assert single.layout.offsets[0] == pytest.approx(9.5, abs=1e-12)
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
    x = sol.layout.offsets[0]
    assert x == pytest.approx(5.0, abs=1e-5)
    assert sol.converged
    rates = group_rates_oracle(guide_y, users, s, [x])[0]
    assert abs(rates[0] - rates[1]) <= 1e-9
    assert sol.objective_value == pytest.approx(rates.min(), rel=1e-12)


def test_group_placement_sum_rate_favors_near_user(guide_y):
    users = [(1.0, 3.0, 0.0), (4.5, 12.0, 0.0)]
    s = make_scenario(users, (guide_y,))
    sol = place_single_for_group(guide_y, s.users, "sum_rate", s)
    x = sol.layout.offsets[0]
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
    assert sol.layout.offsets[0] == pytest.approx(
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


def test_zoom_max_resolves_exact_ties_to_the_smaller_offset():
    # every candidate ties: each pass's first offset, the bracket's lower end,
    # ties the kept one at a smaller offset and replaces it, so the grid
    # maximum's bracket ends at its lower edge, one grid step down
    grid = _offset_grid(0.0, 1.0, 0.1)
    x, v = _zoom_max(lambda rows, xs: np.zeros(xs.shape), grid, [4, 0], [0.0, 0.0], 1e-6)
    assert x.tolist() == [grid[3], grid[0]] and v.tolist() == [0.0, 0.0]


def test_zoom_offsets_are_the_bits_of_linspace():
    # 20,000 random brackets, half of them 1 to 7 ulps wide, and one whose
    # b - a rounds so that a + 64 h misses b
    rng = np.random.default_rng(23)
    a = rng.uniform(-40.0, 40.0, 20_000)
    width = np.where(rng.random(a.size) < 0.5,
                     rng.integers(1, 8, a.size) * np.spacing(np.abs(a)),
                     10.0 ** rng.uniform(-12.0, 0.0, a.size))
    a, b = np.append(a, 0.000941), np.append(a + width, 0.009)
    assert np.all(b > a)
    assert (b[-1] - a[-1]) + a[-1] != b[-1]
    xs, _ = _zoom_offsets(a, b)
    assert np.array_equal(xs, np.linspace(a, b, ZOOM_POINTS, axis=-1))


# --- phase alignment --------------------------------------------------------


def test_align_single_antenna_degenerates_to_projection(guide_y):
    s = make_scenario([(2.0, 5.0, 0.0)], (guide_y,))
    sol = align_multi_on_guide(guide_y, (2, 5, 0), 1, s)
    assert sol.layout.offsets[0] == pytest.approx(5.0, abs=1e-9)
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
    assert layout_fault(s, sol.layout) is None


def test_align_equalizes_total_phase_at_foot_point_user(guide_y):
    user = np.array([0.0, 7.0, 0.0])
    s = make_scenario([user], (guide_y,))
    sol = align_multi_on_guide(guide_y, user, 2, s)
    offs = sol.layout.offsets
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
    assert layout_fault(s, sol.layout) is None


# --- multi-waveguide coordinate descent -------------------------------------


def three_guide_scenario(users, snr_db=100.0):
    guides = tuple(
        WaveguideSpec(feed_point=(x, -10.0, 3.0), axis_direction=(0, 1, 0),
                      length_m=20.0, relative_permittivity=2.1)
        for x in (-10.0 / 3.0, 0.0, 10.0 / 3.0))
    return make_scenario(users, guides, snr_db=snr_db)


def reevaluate(s, sol):
    H = build_channel(s, sol.layout, los_states=True)
    return evaluate_rates(H, zf_beamformer(H), s.transmit_snr).sum_rate_bps_hz


def test_descent_single_user_single_guide_matches_projection(guide_y):
    s = make_scenario([(2.0, 5.0, 0.0)], (guide_y,))
    sol = optimize_multi_waveguide_sweep(s, (s.transmit_snr,))[0]
    x = sol.layout.offsets[0]
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
    sol = optimize_multi_waveguide_sweep(s, (s.transmit_snr,), 25)[0]
    offsets = sol.layout.offsets

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
    sol = optimize_multi_waveguide_sweep(s, (s.transmit_snr,), 25)[0]
    assert all(b >= a for a, b in zip(sol.trace, sol.trace[1:]))
    assert sol.converged
    assert abs(sol.objective_value - sol.trace[-1]) <= 1e-9
    assert abs(sol.objective_value - reevaluate(s, sol)) <= 1e-9
    assert layout_fault(s, sol.layout) is None


def test_qr_zf_sum_rates_match_the_public_beamformer():
    rng = np.random.default_rng(5)
    for K, M in ((1, 1), (1, 3), (2, 2), (3, 4)):
        cols = rng.normal(size=(6, K, M)) + 1j * rng.normal(size=(6, K, M))
        rho = 10.0 ** rng.uniform(0.0, 11.0, size=6)
        got = _qr_zf_sum_rates(cols, rho)
        assert got.shape == (6,)
        for G, r, value in zip(cols, rho, got):
            public = evaluate_rates(G, zf_beamformer(G), r).sum_rate_bps_hz
            assert value == pytest.approx(public, rel=1e-12)


def test_qr_zf_sum_rates_keep_digits_of_ill_conditioned_channels():
    # G^H = Q R with R = [[1, 1], [0, t]]: rcond about t / 2, and
    # diag((G G^H)^-1) = row norms of R^-1 = (1 + 1/t^2, 1/t^2) exactly
    t, rho = 1e-6, 1e13
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 2))
                        + 1j * np.random.default_rng(4).normal(size=(3, 2)))
    G = (q @ np.array([[1.0, 1.0], [0.0, t]])).conj().T
    expected = sum(math.log2(1.0 + 0.5 * rho / d) for d in (1.0 + t ** -2, t ** -2))
    # a channel rcond of t loses about eps / t of relative accuracy
    assert _qr_zf_sum_rates(G[None], np.array([rho]))[0] == pytest.approx(expected, rel=1e-9)


def assert_same_solution(a, b):
    assert np.array_equal(a.layout.offsets, b.layout.offsets)
    assert a.objective_value == b.objective_value
    assert a.objective_kind == b.objective_kind
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.trace == b.trace


def test_descent_is_deterministic():
    users = [(-1.0, -3.0, 0.0), (2.0, 6.0, 0.0), (0.5, 8.0, 0.0)]
    s = three_guide_scenario(users)
    a = optimize_multi_waveguide_sweep(s, (s.transmit_snr,))[0]
    b = optimize_multi_waveguide_sweep(s, (s.transmit_snr,))[0]
    assert np.array_equal(a.layout.offsets, b.layout.offsets)
    assert a.objective_value == b.objective_value
    assert a.trace == b.trace
    # the same descent stepped inside a sweep gives the same solution
    rhos = (s.transmit_snr / 1e3, s.transmit_snr)
    assert_same_solution(optimize_multi_waveguide_sweep(s, rhos)[1], a)


def test_descent_with_identical_users_degenerates_gracefully():
    users = [(1.0, 2.0, 0.0), (1.0, 2.0, 0.0)]
    s = three_guide_scenario(users)
    sol = optimize_multi_waveguide_sweep(s, (s.transmit_snr,), 3)[0]
    assert sol.objective_value == -np.inf


def test_descent_zf_value_is_pinned():
    # A budget-limited descent, pinned so that a change to the kernel, the scan or
    # the zoom shows. The value is held to 1e-12 relative, not to its bits: the
    # link law's phase lag (thousands of radians here) rounds to about 1e-12 rad.
    s = three_guide_scenario([(-2.0, -4.0, 0.0), (1.0, 2.0, 0.0), (3.0, 4.5, 0.0)])
    sol = optimize_multi_waveguide_sweep(s, (s.transmit_snr,), 4)[0]
    assert sol.objective_value == pytest.approx(25.423279650986387, rel=1e-12)
    assert sol.layout.offsets.tolist() == [6.300674293995924, 12.30228478188688,
                                           13.712335115326548]
    assert sol.iterations == 4
    assert len(sol.trace) == 12
    assert not sol.converged


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
    score, scan = _scorer(F, np.full(L, 1e3))
    # the kernel's bits do not depend on how many states share the product,
    # and a state's window scan finds the eager argmax of its row
    together = score(np.arange(L), np.repeat(T[None], L, axis=0))
    for r in range(L):
        assert np.array_equal(score([r], T[None]), together[r:r + 1])
        j = _argmax_tie_smallest(together[r])
        assert scan(r, T) == (j, together[r, j])

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


PLANTS = ("tie", "near_tie", "nan", "negative", "zero", "shadow")


@st.composite
def planted_tables(draw):
    """A scorer's fixed features F (2, K*K) from M - 1 random columns per state,
    K*K x n candidate features of random unit-scale columns with planted cells,
    and a transmit SNR. Plants: ``tie`` copies a column to a smaller index,
    ``near_tie`` puts a copy scaled by 1 + 1e-15 there (a value within
    ``TIE_TOL``), ``nan`` a NaN cell, ``negative`` the negated features of a
    column (det / C_kk can fall below 0 while the product bound is large),
    ``zero`` a zero column, ``shadow`` a column's features times -1e6, whose
    bound is near the column's limit as it grows but whose Gram has a
    negative eigenvalue (unresolved for K = 4). Half the tables are then
    negated whole, which often leaves no candidate that counts."""
    K = draw(st.integers(1, 4))
    M = K + draw(st.integers(0, 1))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def columns(*shape):
        return rng.normal(size=(K,) + shape) + 1j * rng.normal(size=(K,) + shape)

    F = _features(columns(2, M - 1)).sum(axis=-1).T if M > 1 else np.zeros((2, K * K))
    c = columns(n)
    T = _features(c)
    for plant, at in draw(st.lists(st.tuples(st.sampled_from(PLANTS), st.integers(0, n - 1)),
                                   max_size=4)):
        src = draw(st.integers(at, n - 1))
        if plant == "tie":
            T[:, at] = T[:, src]
        elif plant == "near_tie":
            T[:, at] = _features(c[:, src] * (1 + 1e-15))
        elif plant == "nan":
            T[draw(st.integers(0, K * K - 1)), at] = np.nan
        elif plant == "negative":
            T[:, at] = -T[:, at]
        elif plant == "zero":
            T[:, at] = 0.0
        else:
            T[:, at] = -1e6 * T[:, src]
    if draw(st.booleans()):
        T = -T
    snr_db = draw(st.sampled_from([0.0, 30.0, 90.0, 120.0, 3000.0]))
    return F, T, 10.0 ** (snr_db / 10.0)


def eager_law(F, T, score, i):
    """State i's exact law on every candidate of T (K*K, n), each Gram rank-tested
    for K > 3: ``score``'s values, -inf wherever :func:`_resolved` fails."""
    obj = score([i], T[None])[0]
    K = math.isqrt(len(T))
    if K > 3:
        obj[~_resolved(_hermitian(np.moveaxis(F[i][:, None] + T, 0, -1), K))] = -np.inf
    return obj


@settings(max_examples=200, deadline=None)
@given(case=planted_tables())
def test_window_scan_is_the_eager_argmax(case):
    F, T, rho = case
    score, scan = _scorer(F, np.full(2, rho))
    for i in range(2):
        eager = eager_law(F, T, score, i)
        j = _argmax_tie_smallest(eager)
        assert scan(i, T) == (j, eager[j])
        # the law rank-tests only each row's TIE_TOL band: the best value, first
        # maximum and tie-smallest argmax are the eager law's
        obj = score([i], T[None])[0]
        assert obj.max() == eager.max() and obj.argmax() == eager.argmax()
        assert _argmax_tie_smallest(obj) == j


def test_band_is_tested_again_until_it_passes(monkeypatch):
    # K = 4 beside four random columns at 90 dB. Column 3 copies the best random
    # column b, an exact tie; column 7 is b's features times -1e6, whose Gram has
    # a negative eigenvalue but whose value tops the row. The first rank test
    # holds column 7 alone and fails it; the second holds the tie, which passes.
    rng = np.random.default_rng(5)
    n = 50

    def columns(*shape):
        return rng.normal(size=(4,) + shape) + 1j * rng.normal(size=(4,) + shape)

    F = _features(columns(1, 4)).sum(axis=-1).T
    T = _features(columns(n))
    score, _ = _scorer(F, np.array([1e9]))
    b = _argmax_tie_smallest(score([0], T[None])[0])
    T[:, 3], T[:, 7] = T[:, b], -1e6 * T[:, b]
    resolved, tested = placement._resolved, []

    def counted(m):
        tested.append(len(m))
        return resolved(m)

    monkeypatch.setattr(placement, "_resolved", counted)
    obj = score([0], T[None])[0]
    assert tested == [1, 2]
    assert obj[7] == -np.inf and obj[3] == obj[b] == obj.max()
    assert obj.argmax() == _argmax_tie_smallest(obj) == 3
    monkeypatch.undo()
    eager = eager_law(F, T, score, 0)
    assert eager.max() == obj.max() and eager.argmax() == 3


def counted_law(monkeypatch):
    """The candidate counts of the exact law's calls, from now on."""
    law, sizes = placement._zf_law, []

    def counted(F, T, dc, snr):
        sizes.append(T.shape[-1])
        return law(F, T, dc, snr)

    monkeypatch.setattr(placement, "_zf_law", counted)
    return sizes


def test_window_scan_falls_back_to_the_full_row(monkeypatch):
    # K = 4: the bound's best candidate, the best column's features times -1e6,
    # has a Gram with a negative eigenvalue, so the window is not certified; a
    # NaN cell, or a 3000 dB SNR that overflows the bound, leaves the bound no
    # finite maximum; a negated table at K = 1 leaves every bound below 1, so no
    # candidate counts. Each time the exact law scores the whole row.
    rng = np.random.default_rng(5)
    n = 50

    def columns(K, *shape):
        return rng.normal(size=(K,) + shape) + 1j * rng.normal(size=(K,) + shape)

    F = _features(columns(4, 1, 4)).sum(axis=-1).T
    T = _features(columns(4, n))
    T[:, 7] = -1e6 * T[:, _argmax_tie_smallest(_scorer(F, np.array([1e9]))[0]([0], T[None])[0])]
    nan_cell = T.copy()
    nan_cell[0, 3] = np.nan
    sizes = counted_law(monkeypatch)
    for fixed, table, rho, windowed in ((F, T, 1e9, True), (F, nan_cell, 1e9, False),
                                        (F, T, 1e300, False),
                                        (np.zeros((1, 1)), -_features(columns(1, n)), 1e9, False)):
        score, scan = _scorer(fixed, np.array([rho]))
        obj = score([0], table[None])[0]
        j = _argmax_tie_smallest(obj)
        sizes.clear()
        assert scan(0, table) == (j, obj[j])
        assert sizes[-1] == n and len(sizes) == 1 + windowed
        if windowed:
            assert obj[7] == -np.inf and j != 7
    assert obj.max() == -np.inf  # the negated table's


def test_window_certificate_fails_a_best_just_above_its_line(monkeypatch):
    # K = 2 at 90 dB. Column 0 copies the best random column, 1 + b, scaled by
    # 1 - 2e-13: a value within TIE_TOL below it, so the eager argmax is 0. The
    # last column maps to det -y and cofactors 1: the exact law drops it, as
    # det / C_kk < 0, while its bound (y rho / 2 - 1)^2 tops the row. y is
    # bisected until the window holds that column and column 1 + b alone, which
    # then clears the window's line by less than TIE_TOL: the certificate fails,
    # and the full row finds column 0 outside the window.
    rng = np.random.default_rng(11)
    K, n, rho = 2, 20, 1e9
    c = rng.normal(size=(K, 1 + n)) + 1j * rng.normal(size=(K, 1 + n))
    F, T = _features(c[:, :1]).T, _features(c[:, 1:])  # M = 2 guides
    score, scan = _scorer(F, np.array([rho]))
    obj = score([0], T[None])[0]
    b = _argmax_tie_smallest(obj)
    weights, consts = _zf_map(F, K)
    rhs = np.column_stack([[0.0, 1.0, 1.0] - consts[0], [-1.0, 0.0, 0.0]])
    u, v = np.linalg.lstsq(weights[0], rhs, rcond=None)[0].T  # u + y v maps to (-y, 1, 1)

    def table(y):
        return np.column_stack([T[:, b] * (1 - 2e-13), T, u + y * v])

    sizes = counted_law(monkeypatch)
    lo, hi = ((1.0 + math.sqrt(2.0 ** obj[b] * f)) / (rho / K) for f in (1 + 1e-10, 1 + 1e-9))
    for _ in range(60):
        y = (lo + hi) / 2
        sizes.clear()
        scan(0, table(y))
        if sizes[0] == 2:
            break
        lo, hi = (y, hi) if sizes[0] > 2 else (lo, y)
    obj = score([0], table(y)[None])[0]
    assert obj[-1] == -np.inf and 0 < obj[1 + b] - obj[0] < placement.TIE_TOL
    sizes.clear()
    assert scan(0, table(y)) == (0, obj[0])
    assert sizes == [2, n + 2]


def test_descent_never_steps_on_singular_grams_at_four_users():
    # two identical users: every 4x4 Gram is singular, though its det is not 0
    guides = tuple(WaveguideSpec(feed_point=(x, -10.0, 3.0), axis_direction=(0, 1, 0),
                                 length_m=20.0, relative_permittivity=2.1)
                   for x in (-6.0, -2.0, 2.0, 6.0))
    users = [(1.0, 2.0, 0.0), (1.0, 2.0, 0.0), (-3.0, -4.0, 0.0), (4.0, 6.0, 0.0)]
    s = make_scenario(users, guides)
    sol = optimize_multi_waveguide_sweep(s, (s.transmit_snr,), 3)[0]
    assert sol.trace == (-np.inf,)
    assert sol.objective_value == -np.inf


def test_descent_argument_validation(guide_y):
    s = make_scenario([(1, 1, 0), (2, 2, 0)], (guide_y,))
    with pytest.raises(ValueError, match="users <= waveguides"):
        optimize_multi_waveguide_sweep(s, (s.transmit_snr,))
    s3 = three_guide_scenario([(1, 1, 0)])
    (swept,) = optimize_multi_waveguide_sweep(s3, [s3.transmit_snr])
    assert_same_solution(swept, optimize_multi_waveguide_sweep(s3, (s3.transmit_snr,))[0])
    assert optimize_multi_waveguide_sweep(s3, []) == ()
    for bad in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match=f"finite and > 0, got {bad!r}"):
            optimize_multi_waveguide_sweep(s3, [s3.transmit_snr, bad])


def short_guides(*xs):
    return tuple(WaveguideSpec(feed_point=(x, -0.5, 3.0), axis_direction=(0, 1, 0),
                               length_m=1.0, relative_permittivity=2.1) for x in xs)


# Drops stepped in one lockstep. Two users under two guides at 0 dB: A's first
# cycle gains less than DESCENT_TOL, so it converges in cycle 1; B spends its
# budget of 4 cycles; C's identical users get a finite value from the kernel's
# rounding, but its final layout fails the rank test and scores -inf. Four
# users under four guides: D's two identical users leave no candidate a
# resolved Gram, so each of D's guide steps has no finite candidate, while E
# steps.
PAIR_GUIDES, QUAD_GUIDES = short_guides(-1.0, 1.0), short_guides(-1.5, -0.5, 0.5, 1.5)
GROUP_A = [(1.84, 0.42, 0.0), (0.06, 1.33, 0.0)]
GROUP_B = [(-0.04, 1.95, 0.0), (-1.27, 1.85, 0.0)]
GROUP_C = [(0.5, 0.5, 0.0), (0.5, 0.5, 0.0)]
GROUP_D = [(0.2, 0.1, 0.0), (0.2, 0.1, 0.0), (-1.0, 0.3, 0.0), (1.0, 0.6, 0.0)]
GROUP_E = [(-1.2, 0.1, 0.0), (-0.4, 0.9, 0.0), (0.6, -0.3, 0.0), (1.3, 0.4, 0.0)]


def assert_drops_match_one_sweep_each(s, drops, rhos, budget):
    """``_sweep_drops`` steps the drops (user lists) under ``s``'s guides
    together; each drop's solutions must equal, bit for bit, its own
    :func:`optimize_multi_waveguide_sweep`, which the function returns."""
    grouped = _sweep_drops(s, np.asarray(drops, dtype=float), np.asarray(rhos), budget)
    singles = [optimize_multi_waveguide_sweep(dataclasses.replace(s, users=UserSet(users)),
                                              rhos, budget) for users in drops]
    assert len(grouped) == len(singles)
    for solutions, references in zip(grouped, singles):
        assert len(solutions) == len(references)
        for sol, ref in zip(solutions, references):
            assert_same_solution(sol, ref)
    return singles


def test_nearest_user_starts_match_a_loop_per_drop_and_guide():
    # drops 0 and 1: users 0 and 1 are the same distance from the first guide,
    # sqrt(10) m, at different offsets, and user 2 is 5 m from it, so the
    # start is the lower index's
    guides = (WaveguideSpec((0.0, -10.0, 3.0), (0, 1, 0), 20.0),) + tuple(
        WaveguideSpec((x, -1.0, z), (math.cos(a), math.sin(a), 0.1), 3.0)
        for x, z, a in ((2.0, 2.5, 0.3), (-1.5, 3.5, 2.0)))
    s = make_scenario([(0.0, 0.0, 0.0)] * 3, guides)
    users = np.random.default_rng(3).uniform(-4.0, 4.0, (6, 3, 3)) * [1.0, 1.0, 0.0]
    users[0] = [(1.0, 2.0, 0.0), (-1.0, 5.0, 0.0), (4.0, -4.0, 0.0)]
    users[1] = users[0, [1, 0, 2]]
    starts = placement._nearest_user_starts(s, users)
    assert starts.shape == (6, 3) and (starts[0, 0], starts[1, 0]) == (12.0, 15.0)
    for d, g in np.ndindex(6, 3):
        t = projected_offsets(s.waveguides[g], users[d])
        dist = [float(np.linalg.norm(u - s.waveguides[g].feed_point
                                     - x * s.waveguides[g].axis_direction))
                for u, x in zip(users[d], t)]
        near = min(range(3), key=lambda k: (dist[k], k))
        assert starts[d, g].tobytes() == t[near].tobytes()
    for d in range(6):  # one drop at a time
        assert placement._nearest_user_starts(s, users[d]).tobytes() == starts[d].tobytes()


def test_states_of_one_drop_descend_from_their_own_starts():
    # two states of drop B, one from its nearest-user start and one from the
    # other ends of the guides, stepped together and alone
    s = make_scenario(GROUP_B, PAIR_GUIDES)
    users = np.asarray([GROUP_B], dtype=float)
    starts = np.stack([placement._nearest_user_starts(s, users[0]), [0.9, 0.1]])
    rho = np.array([1e9, 1e9])
    together = placement._descend(s, users, np.array([0, 0]), rho, starts, 4)
    assert together[0].trace != together[1].trace
    for i in range(2):
        (alone,) = placement._descend(s, users, np.array([0]), rho[i:i + 1], starts[i:i + 1], 4)
        assert together[i].layout.offsets.tobytes() == alone.layout.offsets.tobytes()
        assert_same_solution(together[i], alone)


def test_grouped_descent_steps_mixed_drops_as_one_sweep_each(monkeypatch):
    descend, calls = placement._descend, []

    def counted(s, users, *rest):
        calls.append(len(users))
        return descend(s, users, *rest)

    monkeypatch.setattr(placement, "_descend", counted)
    s = make_scenario(GROUP_A, PAIR_GUIDES)
    (a,), (b,), (c,) = assert_drops_match_one_sweep_each(s, [GROUP_A, GROUP_B, GROUP_C], [1.0], 4)
    assert a.iterations == 1 and a.converged and math.isfinite(a.objective_value)
    assert b.iterations == 4 and not b.converged
    assert math.isfinite(c.trace[-1]) and c.objective_value == -np.inf
    s = make_scenario(GROUP_D, QUAD_GUIDES)
    (d,), (e,) = assert_drops_match_one_sweep_each(s, [GROUP_D, GROUP_E], [1e6], 3)
    assert d.trace == (-np.inf,) and d.objective_value == -np.inf
    assert len(e.trace) > 1
    # one lockstep per case, then one per drop for the references
    assert calls == [3, 1, 1, 1, 2, 1, 1]


def test_workers_finish_their_states(monkeypatch, forks):
    # one group per drop, so the three groups fork two workers at two CPUs;
    # C's final layouts fail the rank test in whichever process descends them
    monkeypatch.setattr(placement, "TABLE_BYTES_IN_FLIGHT", 1)
    s = make_scenario(GROUP_A, PAIR_GUIDES)
    drops = np.asarray([GROUP_A, GROUP_B, GROUP_C], dtype=float)
    runs = []
    for cpus in (2, 1):
        set_cpus(monkeypatch, cpus)
        runs.append([sol for solutions in _sweep_drops(s, drops, np.asarray([1.0, 1e6]), 4)
                     for sol in solutions])
    assert forks == [2]
    assert [sol.objective_value for sol in runs[0][4:]] == [-np.inf, -np.inf]
    assert math.isfinite(runs[0][4].trace[-1])

    def bits(sol):
        layout = sol.layout
        return (layout.guide.tobytes(), layout.offsets.tobytes(), layout.weights.tobytes(),
                np.float64(sol.objective_value).tobytes(), np.array(sol.trace).tobytes(),
                sol.iterations, sol.converged)

    assert [bits(sol) for sol in runs[0]] == [bits(sol) for sol in runs[1]]
    for sol in runs[0] + runs[1]:
        assert not any(a.flags.writeable
                       for a in (sol.layout.guide, sol.layout.offsets, sol.layout.weights))


@st.composite
def sweep_cases(draw):
    """Random geometry with K <= M <= 4 short guides above the users, an SNR list
    that may repeat and a budget; users may coincide."""
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
            draw(st.integers(1, 4)))


@settings(max_examples=40, deadline=None)
@given(case=sweep_cases())
def test_sweep_equals_one_descent_per_snr(case):
    s, rhos, budget = case
    swept = optimize_multi_waveguide_sweep(s, rhos, budget)
    assert len(swept) == len(rhos)
    for rho, sol in zip(rhos, swept):
        (single,) = optimize_multi_waveguide_sweep(s, (rho,), budget)
        assert_same_solution(sol, single)
        assert all(b >= a for a, b in zip(sol.trace, sol.trace[1:]))


@st.composite
def drop_cases(draw):
    """A :func:`sweep_cases` geometry and budget with 1-3 drops of its users'
    count, and 1-3 SNRs from 0 to 120 dB."""
    s, _, budget = draw(sweep_cases())
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    user = st.tuples(coord, coord, st.just(0.0))
    k = len(s.users)
    drops = [s.users.positions.tolist()] + draw(
        st.lists(st.lists(user, min_size=k, max_size=k), max_size=2))
    snr_db = draw(st.lists(st.floats(0.0, 120.0), min_size=1, max_size=3))
    return s, drops, [10.0 ** (v / 10.0) for v in snr_db], budget


@settings(max_examples=40, deadline=None)
@given(case=drop_cases())
@example(case=(make_scenario(GROUP_D, QUAD_GUIDES), [GROUP_D], [1e6], 2))  # no step has a candidate
def test_grouped_descent_equals_one_sweep_per_drop(case):
    assert_drops_match_one_sweep_each(*case)


def public_objective(s, sol, rho):
    """The descent's ZF sum rate through build_channel and the public
    beamformer, and that channel's gains; -inf and None where the beamformer
    rejects the channel."""
    H = build_channel(s, sol.layout, los_states=True)
    try:
        B = zf_beamformer(H)
    except RankDeficiencyError:
        return -np.inf, None
    return evaluate_rates(H, B, rho).sum_rate_bps_hz, H.gains


def zf_oracle(G, rho):
    """The ZF sum rate of the float64 channel ``G`` (unit-norm pseudo-inverse
    columns, power 1/K each), in np.clongdouble: user k's SINR is rho / K
    times the squared norm of its row's part orthogonal to the other rows,
    projected out by Gram-Schmidt twice, which loses about eps / rcond of
    np.clongdouble (eps 1.1e-19 with x86's 80-bit long double)."""
    rows = np.asarray(G, dtype=np.clongdouble)
    k = len(rows)
    total = np.longdouble(0)
    for user in range(k):
        basis = []
        for v in (*np.delete(rows, user, axis=0), rows[user]):  # the user's row last
            for _ in range(2):
                for q in basis:
                    v = v - np.vdot(q, v) * q
            basis.append(v / np.sqrt(np.vdot(v, v).real))
        total += np.log1p(np.longdouble(rho) / k * np.vdot(v, v).real)
    return total / np.log(np.longdouble(2))


# Each path is judged against the oracle on its own. Both lose about eps /
# rcond of the channel (QR in the descent, the SVD's pinv in public): over
# 6,000 random geometries in sweep_cases' ranges, half of them four users, two
# 1e-6 m apart, under four 1 m guides, neither path of 11,890 resolved
# descents missed the oracle by more than 0.67 eps / rcond beyond the 2e-15
# below. The test allows 4 eps / rcond, at most the former fixed rel=1e-12
# wherever the channel's rcond is at least 8.9e-4.
ZF_EPS_PER_RCOND = 4


@settings(max_examples=60, deadline=None)
@given(case=sweep_cases())
# users 1e-5 m apart under four guides: a Gram rcond of 2.9e-7, at which the
# Gram kernel's own value is 3.3e-10 off the public path's
@example(case=(make_scenario([(0.0, 0.0, 0.0), (0.0, 1e-5, 0.0)],
                             [WaveguideSpec((0.0, y, 2.0), (1.0, 0.0, 0.0), 1.0)
                              for y in (1.0, 0.0, 0.0, 0.0)]),
               [1e9], 1))
# four users, two 1e-6 m apart, under four 1 m guides at 60 dB: a channel rcond
# of 1.8e-5, at which the descent's value is 3.8e-12 off the public path's
@example(case=(make_scenario([(0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.0, 0.0),
                              (0.0, 1e-6, 0.0)],
                             [WaveguideSpec(feed, axis, 1.0) for feed, axis in (
                                 ((0.38, 0.18, 3.32), (0.235, 0.972, -0.15)),
                                 ((1.9, 1.29, 3.66), (0.701, 0.713, 0.17)),
                                 ((-0.43, 1.02, 3.28), (0.97, -0.245, 0.02)),
                                 ((-0.72, 1.45, 2.81), (-0.429, -0.903, -0.14)))]),
               [1e6], 1))
def test_descent_value_matches_public_path(case):
    s, rhos, budget = case
    for rho, sol in zip(rhos, optimize_multi_waveguide_sweep(s, rhos, budget)):
        public, G = public_objective(s, sol, rho)
        if G is None:
            assert sol.objective_value == -np.inf
        # ZF's Gram has the channel's rcond squared; below ZF_RCOND_LIMIT its
        # inverse has no correct digits (users less than a micrometre apart)
        elif _rcond(G) ** 2 >= ZF_RCOND_LIMIT:
            exact = zf_oracle(G, rho)
            # log2(1 + sinr) rounds 1 + sinr: up to 1.6e-16 bps/Hz per user
            tolerance = ZF_EPS_PER_RCOND * np.finfo(float).eps / _rcond(G) * exact + 2e-15
            assert abs(sol.objective_value - exact) <= tolerance
            assert abs(public - exact) <= tolerance
        if np.isfinite(sol.objective_value):
            assert sol.objective_value == sol.trace[-1]
