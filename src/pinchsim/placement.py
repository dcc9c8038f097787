"""Pinching-antenna position optimization.

The rate optimizers are derivative-free: a dense grid scan, then refinement
of the best cell. The objectives are cheap at desk scale and the phase terms
make them multimodal, so scans are both robust and reproducible. One
refiner, the batched zoom :func:`_zoom_max`, serves the single-guide group
placement, gain-order steering and every step of the multi-waveguide
descent: it scores a few passes of evenly spaced candidates at once. Ties
within 1e-12 of the best grid value resolve to the smallest offset; grid
step, tolerances and zoom points are module constants. Phase alignment
needs no scan: one array bisection solves for in-phase offsets. The
multi-waveguide descent places antennas jointly with zero-forcing, their only
precoder, for the ZF sum rate; maximum-ratio beams serve only the
conventional array baseline in ``experiments``.

Placement objectives assume the pinched link is line-of-sight: the premise
of placing an antenna adjacent to a user is that doing so establishes LoS.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .beamforming import ZF_RCOND_LIMIT, _rcond, shannon_rate
from .channel import _wavenumbers, guide_distances, link_gains, link_power
from .scenario import (
    PinchingLayout,
    Scenario,
    UserSet,
    WaveguideSpec,
    _check_user_indices,
    projected_offsets,
)

TIE_TOL = 1e-12
BRACKET_TOL_M = 1e-6
PHASE_TOL_RAD = 1e-6
ZOOM_POINTS = 65
DESCENT_TOL = 1e-9  # smallest objective gain of a descent cycle that continues it
REFINE_TOL_M = 1e-8  # zoom bracket width that ends a descent step's refinement
TABLE_BYTES_IN_FLIGHT = 4 << 20  # candidate-table bytes of the drops one descent steps

@dataclass(frozen=True, eq=False)
class PlacementSolution:
    """Optimized layout with its objective value and convergence record.

    ``iterations`` counts optimizer cycles: coordinate-descent cycles for
    the multi-waveguide descent, 1 for the one-pass optimizers.
    """

    layout: PinchingLayout
    objective_value: float
    objective_kind: str
    iterations: int
    converged: bool
    trace: tuple[float, ...] = ()


def place_single_for_user(w: WaveguideSpec, user) -> float:
    """Offset serving one user best: the peak of its link power exp(-2*alpha*x)/d(x)^2.

    On a lossless guide that is the clamped projection. Loss pulls the interior
    peak feedward of the unclamped projection t, to t - 2*alpha*r^2/(1 +
    sqrt(1 - 4*alpha^2*r^2)) for a user r from the guide's line (none when
    2*alpha*r >= 1); clipped to the guide, it is compared with the feed,
    toward which the power rises again.
    """
    alpha = w.guide_attenuation_np_per_m
    if alpha == 0:
        return float(projected_offsets(w, user))
    rel = np.asarray(user, dtype=float).reshape(3) - w.feed_point
    t = float(rel @ w.axis_direction)
    r2 = float(np.sum((rel - t * w.axis_direction) ** 2))
    disc = 1.0 - 4.0 * alpha * alpha * r2
    peak = t - 2.0 * alpha * r2 / (1.0 + math.sqrt(disc)) if disc > 0.0 else 0.0
    x = np.array([min(max(peak, 0.0), w.length_m), 0.0])
    power = np.exp(-2.0 * alpha * x) / guide_distances(w, x, user) ** 2
    return float(x[0]) if power[0] > power[1] else 0.0


def default_grid_res(s: Scenario) -> float:
    return s.carrier.free_space_wavelength_m / 4.0


def _offset_grid(lo: float, hi: float, res: float) -> np.ndarray:
    """Evenly spaced offsets from lo to hi, both included, at most ``res`` apart."""
    return np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / res)) + 1))


def _argmax_tie_smallest(values: np.ndarray):
    """Index of the maximum along the last axis, ties within ``TIE_TOL`` to the smallest."""
    return np.argmax(values >= np.max(values, axis=-1, keepdims=True) - TIE_TOL, axis=-1)


def _single_antenna_rates(w: WaveguideSpec, users: np.ndarray, s: Scenario,
                          offsets: np.ndarray) -> np.ndarray:
    """LoS rates of every user for one full-power antenna at each offset.

    Returns an (..., users) array for offsets of any shape (...); a lone
    antenna's phase is irrelevant.
    """
    return shannon_rate(s.transmit_snr * link_power(s, w, offsets[..., None], users))


def _scan_zoom(fn, grid: np.ndarray) -> tuple[float, float]:
    """Best offset of ``fn`` (offsets (...) -> values (...)) and its value: a scan of
    ``grid``, then zoom of its best cell until the bracket is narrower than ``BRACKET_TOL_M``."""
    vals = fn(grid)
    i = _argmax_tie_smallest(vals)
    x, value = _zoom_max(lambda rows, xs: fn(xs), grid, [i], [vals[i]], BRACKET_TOL_M)
    return float(x[0]), float(value[0])


def place_single_for_group(w: WaveguideSpec, users, objective: str,
                           s: Scenario) -> PlacementSolution:
    """Best single-antenna offset for a user group under a rate objective.

    ``objective`` is ``sum_rate`` or ``max_min_rate``; the search is a dense
    grid scan at lambda0/4 refined by batched zoom until the
    bracket is narrower than 1e-6 m.
    """
    if objective not in ("sum_rate", "max_min_rate"):
        raise ValueError(f"unknown objective {objective!r}")
    pts = users.positions if isinstance(users, UserSet) else np.asarray(users, float).reshape(-1, 3)
    reduce = np.sum if objective == "sum_rate" else np.min
    x, value = _scan_zoom(lambda offs: reduce(_single_antenna_rates(w, pts, s, offs), axis=-1),
                          _offset_grid(0.0, w.length_m, default_grid_res(s)))
    return PlacementSolution(PinchingLayout([0], [x], [1.0]), value, objective, 1, True,
                             (value,))


def _inversions(power: np.ndarray, order) -> np.ndarray:
    """Kendall distance of each row of gains (..., users), ranked strongest first,
    from ``order``, a permutation of the columns: the column pairs the gains rank
    the other way, equal gains ranking the lower column first (a stable sort)."""
    order = np.asarray(order)
    i, j = np.triu_indices(order.size, 1)
    a, b = order[i], order[j]  # order ranks column a above column b
    pa, pb = power[..., a], power[..., b]
    return np.count_nonzero((pb > pa) | ((pb == pa) & (b < a)), axis=-1)


def noma_gain_reorder(s: Scenario, cluster_users, target_order) -> PlacementSolution:
    """Find a single-antenna offset realizing a desired channel-gain ranking.

    Only meaningful for a single waveguide serving the cluster: moving the
    antenna along the guide reorders the users' effective gains. The sum-rate
    group placement is returned if it ranks the users as requested (strongest
    first); otherwise the best sum rate among the grid offsets whose ranking
    is fewest pairwise inversions from the target, refined by zoom under that
    count, with ``converged=False`` unless the count is 0.
    """
    if len(s.waveguides) != 1:
        raise ValueError("gain reordering assumes a single waveguide")
    w = s.waveguides[0]
    cluster_users = tuple(int(u) for u in cluster_users)
    _check_user_indices(cluster_users, len(s.users))
    target_order = tuple(int(u) for u in target_order)
    if sorted(target_order) != sorted(cluster_users):
        raise ValueError("target_order must be a permutation of the cluster users")
    users = s.users.positions[list(cluster_users)]
    order = [cluster_users.index(u) for u in target_order]

    def power(offs):
        return link_power(s, w, offs[..., None], users)

    group = place_single_for_group(w, users, "sum_rate", s)
    if _inversions(power(group.layout.offsets), order)[0] == 0:
        return group
    grid = _offset_grid(0.0, w.length_m, default_grid_res(s))
    fewest = _inversions(power(grid), order).min()

    def constrained_sum_rate(offs):
        p = power(offs)
        return np.where(_inversions(p, order) == fewest,
                        shannon_rate(s.transmit_snr * p).sum(axis=-1), -np.inf)

    x, value = _scan_zoom(constrained_sum_rate, grid)
    return PlacementSolution(PinchingLayout([0], [x], [1.0]), value, "sum_rate", 1,
                             bool(fewest == 0), (value,))


def _wrap(phase):
    return np.angle(np.exp(1j * np.asarray(phase)))


def align_multi_on_guide(w: WaveguideSpec, user, n_antennas: int,
                         s: Scenario) -> PlacementSolution:
    """Place n antennas on one guide so their contributions add coherently.

    The link's phase lag from offset x to the user, k_g*x + k_0*d(x), rises
    strictly along the guide, so the offsets where it equals c + 2*pi*m
    form a comb of teeth at which antennas arrive in phase. One array
    bisection finds the teeth of 97 combs (96 evenly spaced phases c and
    the one with a tooth on :func:`place_single_for_user`'s offset), as many
    turns of the lag either side of that offset as n antennas can span.
    From every tooth a chain takes, n - 1 times, the first tooth at least
    lambda0/2 past its last; of the chains on the guide, the one with the
    largest coherent gain wins, and ``ValueError`` says none fits.
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    spacing = s.carrier.free_space_wavelength_m / 2.0
    user = np.asarray(user, dtype=float).reshape(3)

    if n_antennas == 1:
        x = place_single_for_user(w, user)
        layout = PinchingLayout([0], [x], [1.0], spacing)
        rate = float(_single_antenna_rates(w, user[None, :], s, np.asarray([x]))[0, 0])
        return PlacementSolution(layout, rate, "single_user_rate", 1, True, (rate,))

    span = (n_antennas - 1) * spacing
    if span > w.length_m + 1e-12:
        raise ValueError(
            f"waveguide of length {w.length_m} m cannot host {n_antennas} "
            f"antennas at spacing {spacing} m")

    k0, kg = _wavenumbers(s, w)

    def lag(x):
        """Unwrapped phase lag of the link to the user: minus the phase of link_gains."""
        return kg * x + k0 * guide_distances(w, x, user)

    # As |d'(x)| <= 1, teeth are at least 2*pi/(kg + k0) apart, which bounds
    # the turns one spacing can take.
    turns = n_antennas * (1 + int(spacing * (kg + k0) / (2.0 * math.pi)))
    lag_p = lag(place_single_for_user(w, user))
    combs = np.concatenate([[lag_p], np.linspace(-np.pi, np.pi, 96, endpoint=False)])
    whole = np.round((lag_p - combs) / (2.0 * np.pi))[:, None] + np.arange(-turns, turns + 1)
    targets = combs[:, None] + 2.0 * np.pi * whole  # (combs, teeth), rising along a row
    x, h = np.zeros(targets.shape), w.length_m
    for _ in range(64):  # x climbs to where lag reaches its target, within 1e-19 * length
        h /= 2.0
        x = np.where(lag(x + h) < targets, x + h, x)
    on_guide = (lag(0.0) <= targets) & (targets <= lag(w.length_m))
    # NaN marks a tooth off the guide; the extra last column is "no next tooth"
    teeth = np.pad(np.where(on_guide, x, np.nan), ((0, 0), (0, 1)), constant_values=np.nan)
    reach = teeth[:, None, :] >= teeth[:, :, None] + spacing
    reach[:, :, -1] = True
    step = np.argmax(reach, axis=-1)  # first tooth one spacing past, else the last column
    idx, chain = np.broadcast_to(np.arange(teeth.shape[1]), teeth.shape), [teeth]
    for _ in range(n_antennas - 1):  # every chain takes its next step at once
        idx = np.take_along_axis(step, idx, axis=-1)
        chain.append(np.take_along_axis(teeth, idx, axis=-1))
    chains = np.stack(chain, axis=-1).reshape(-1, n_antennas)
    chains = chains[~np.isnan(chains).any(axis=1)]
    if not chains.size:
        raise ValueError("no feasible phase-aligned arrangement found")

    weight = 1.0 / math.sqrt(n_antennas)
    gains = link_gains(s, w, chains, user, weight)
    agg = np.abs(gains.sum(axis=-1))
    best = int(np.argmax(agg))
    phases = np.angle(gains[best])
    aligned = bool(np.all(np.abs(_wrap(phases - phases[0])) <= PHASE_TOL_RAD))
    layout = PinchingLayout([0] * n_antennas, chains[best], [weight] * n_antennas, spacing)
    rate = float(shannon_rate(s.transmit_snr * agg[best] ** 2))
    return PlacementSolution(layout, rate, "single_user_rate", 1, aligned, (rate,))


# ---------------------------------------------------------------------------
# Multi-waveguide coordinate descent
# ---------------------------------------------------------------------------


@functools.cache
def _pairs(K: int):
    """Upper-triangle entries (k, l), k <= l, of a KxK Gram, row by row, and
    which of them are off its diagonal."""
    k, l = np.triu_indices(K)
    return k, l, k != l


def _features(c: np.ndarray) -> np.ndarray:
    """Real Gram features (K*K, ...) of stacked channel columns c (K, ...): Re of
    conj(c_k) c_l for every k <= l, then Im for every k < l.

    They are the free entries of a column's rank-1 Gram term, so a Gram's
    features are the sum of its columns'.
    """
    k, l, off = _pairs(len(c))
    t = np.conj(c[k]) * c[l]
    return np.concatenate([t.real, t.imag[off]])


def _hermitian(f: np.ndarray, K: int) -> np.ndarray:
    """Hermitian KxK Grams (..., K, K) from their features (..., K*K)."""
    k, l, off = _pairs(K)
    m = np.zeros(f.shape[:-1] + (K, K), dtype=complex)
    m[..., k, l] = f[..., :k.size]
    m[..., k[off], l[off]] += 1j * f[..., k.size:]
    m[..., l, k] = np.conj(m[..., k, l])
    return m


def _zf_map(F: np.ndarray, K: int):
    """Affine maps from a candidate column's Gram features T to det(F + T) and the
    cofactors C_kk(F + T), given fixed Gram features F (L, K*K).

    T is rank 1, so det(F + T) = det F + tr(adj(F) T) (matrix determinant
    lemma), which is affine in T's features. C_kk(F + T) is the same sum over
    F with row and column k set to the identity's, T with them set to zero.
    The adjugate entry adj(B)[a, b] is the det of B with row b replaced by the
    identity's row a, so one batched det gives every coefficient. Returns
    weights (L, 1+K, K*K) and constants (L, 1+K); row 0 maps to the det, row
    1+k to C_kk.
    """
    k, l, off = _pairs(K)
    eye = np.eye(K)
    bases = np.repeat(_hermitian(F, K)[:, None], 1 + K, axis=1)  # (L, 1+K, K, K)
    for j in range(K):
        bases[:, 1 + j, j, :] = bases[:, 1 + j, :, j] = eye[j]
    minors = np.repeat(bases[:, :, None], 1 + k.size, axis=2)  # (L, 1+K, 1+P, K, K)
    minors[:, :, 1 + np.arange(k.size), l] = eye[k]
    dets = np.linalg.det(minors)
    adj = dets[..., 1:]  # adj(B)[k, l] for k <= l
    u = np.arange(K)[:, None]
    adj[:, 1:][:, (k == u) | (l == u)] = 0.0  # C_uu's T has row and column u zeroed
    # tr(adj T) = sum_k adj_kk T_kk + 2 sum_{k<l} (Re adj_kl Re T_kl + Im adj_kl Im T_kl)
    weights = np.concatenate([np.where(off, 2.0, 1.0) * adj.real, 2.0 * adj.imag[..., off]],
                             axis=-1)
    return weights, dets[..., 0].real


def _resolved(m: np.ndarray) -> np.ndarray:
    """Whether Hermitian Grams (..., K, K) are finite with a reciprocal condition
    number lambda_min/lambda_max of at least ``ZF_RCOND_LIMIT``.

    A Gram's condition number is its channel's squared, so this is the
    tightest test double precision can resolve (a channel at
    :func:`zf_beamformer`'s limit has a Gram rcond of 1e-20).
    """
    ok = np.isfinite(m).all(axis=(-2, -1))
    ev = np.linalg.eigvalsh(m[ok])
    ok[ok] = ev[:, 0] / ev[:, -1] >= ZF_RCOND_LIMIT
    return ok


def _zf_law(F: np.ndarray, T: np.ndarray, dc: np.ndarray, snr: np.ndarray) -> np.ndarray:
    """The exact law: zero-forcing sum rates (rows, n) of candidate features ``T``
    (rows, K*K, n) beside fixed features ``F`` (rows, K*K), -inf where degenerate.

    ``dc`` (rows, 1+K, n) holds the candidates' det and cofactors C_kk from
    :func:`_zf_map`'s map, and is overwritten; ``snr`` (rows, 1, 1) is the
    per-user SNR rho/K of equal power. Then sinr_k = snr * det / C_kk, and a
    candidate counts where det / C_kk is positive (NaN and inf end up
    non-finite) and, for K > 3, where its Gram is :func:`_resolved`. Per-user
    rates are summed elementwise in user order. The rank test runs on the
    candidates within ``TIE_TOL`` of each row's best, where failures fall to
    -inf, until every candidate left in that band passes: each row's best
    value, first maximum and tie-smallest argmax are those of testing all.
    """
    K = dc.shape[1] - 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # det / C_kk = 1 / [Gram^{-1}]_kk, over the cofactors' rows
        sinr = np.divide(dc[:, :1], dc[:, 1:], out=dc[:, 1:])
        bad = sinr <= 0
        sinr *= snr
        np.copyto(sinr, np.nan, where=bad)
        obj = functools.reduce(np.add, shannon_rate(sinr, out=sinr).swapaxes(0, 1))
    np.copyto(obj, -np.inf, where=~np.isfinite(obj))
    while K > 3:
        r, j = np.nonzero((obj >= obj.max(axis=-1, keepdims=True) - TIE_TOL) & (obj > -np.inf))
        fail = ~_resolved(_hermitian(F[r] + T[r, :, j], K))
        obj[r[fail], j[fail]] = -np.inf
        if not fail.any():
            break
    return obj


# A window keeps the candidates whose product bound is within this factor of the
# best, 2^-1e-9 wider than the TIE_TOL band of the objective, its log2
WINDOW = 2.0 ** -(TIE_TOL + 1e-9)


def _scorer(F: np.ndarray, rho: np.ndarray):
    """Zero-forcing sum rate of one guide's candidate antennas for L states, -inf
    where degenerate: the functions ``score`` and ``scan``.

    ``F`` (L, K*K) holds each state's Gram features without the guide's
    column, ``rho`` (L,) its transmit SNR. Zero-forcing at equal power p =
    1/K gives sinr_k = p * rho * det / C_kk from :func:`_zf_map`'s affine map,
    built once here, and :func:`_zf_law` turns them into rates. ``score(rows,
    T)`` gives the law's objectives (rows, n), tie band rank-tested, of the
    Grams F + T for candidates ``T`` (rows, K*K, n), one product per state.

    ``scan(i, table)`` gives state i's best candidate of a grid table (K*K,
    n) as (index, value), ties within ``TIE_TOL`` to the smallest index: the
    bits of :func:`_argmax_tie_smallest` over ``score([i], table[None])``,
    from the same matrix product. The log-free product bound p = prod_k (C_kk +
    rho/K * det) / C_kk equals prod_k (1 + sinr_k), whose log2 is the
    objective, and is at least 1 wherever the exact law counts a candidate.
    The exact law runs only on the window of candidates with p >= max(p) *
    ``WINDOW``. A candidate outside it has an objective below log2 of that
    threshold plus eps, the rounding gap between log2 p and the summed logs
    (16*K ulps of the objective), so the window's tie-smallest argmax is the
    row's once its best value clears that line by ``TIE_TOL``. If it does not,
    for example when the window's winners are rank-deficient, or if p has no
    maximum in [1, inf) (overflow near 3000 dB, NaN, or no candidate that
    counts), the exact law scores the whole row.
    """
    K = math.isqrt(F.shape[-1])
    weights, consts = _zf_map(F, K)
    snr = 1.0 / K * rho

    def score(rows, T):
        dc = weights[rows] @ T  # (rows, 1+K, n)
        dc += consts[rows, :, None]
        return _zf_law(F[rows], T, dc, snr[rows, None, None])

    def scan(i, table):
        dc = weights[i] @ table  # (1+K, n)
        dc += consts[i, :, None]
        p, x = np.empty((2, table.shape[-1]))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k in range(1, 1 + K):  # 1 + sinr_k, in the exact law's steps
                f = np.divide(dc[0], dc[k], out=p if k == 1 else x)
                f *= snr[i]
                f += 1.0
                if k > 1:
                    p *= f
        top = float(p.max())
        if 1.0 <= top < math.inf:
            line = top * WINDOW
            w = (p >= line).nonzero()[0]
            obj = _zf_law(F[i:i + 1], table[:, w][None], dc[:, w][None],
                          snr[i:i + 1, None, None])[0]
            j = _argmax_tie_smallest(obj)
            # the certificate in the bound's terms: 2^(best - TIE_TOL - eps) > line
            best = float(obj[j])
            clear = best - TIE_TOL - 16 * K * math.ulp(max(1.0, best))
            if clear >= 1024.0 or 2.0 ** clear > line:
                return w[j], obj[j]
        obj = _zf_law(F[i:i + 1], table[None], dc[None], snr[i:i + 1, None, None])[0]
        j = _argmax_tie_smallest(obj)
        return j, obj[j]

    return score, scan


def _guide_columns(s: Scenario, g: int, xs: np.ndarray, users: np.ndarray) -> np.ndarray:
    """LoS channel columns (K, *xs.shape) of guide g with its antenna at offsets xs,
    toward users (*lead, K, 3): ``lead``, a leading part of xs.shape, gives each
    row of offsets its own users."""
    lead = users.shape[:-2]
    return link_gains(s, s.waveguides[g], xs, np.moveaxis(users, -2, 0).reshape(
        users.shape[-2:-1] + lead + (1,) * (xs.ndim - len(lead)) + (3,)))


def _zoom_offsets(a: np.ndarray, b: np.ndarray):
    """``ZOOM_POINTS`` offsets (rows, points) evenly spaced from a to b (rows,),
    and their spacing h (rows,): k*h + a for k < ZOOM_POINTS - 1, then b, the
    bits of ``np.linspace(a, b, ZOOM_POINTS, axis=-1)`` wherever h > 0."""
    h = (b - a) / (ZOOM_POINTS - 1)
    xs = np.arange(ZOOM_POINTS, dtype=float) * h[:, None] + a[:, None]
    xs[:, -1] = b
    return xs, h


def _zoom_max(fn, grid, idx, v0, bracket_tol: float):
    """Batched zoom refinement of grid maxima ``grid[idx]``, valued ``v0``.

    Arrays hold one row per state. Each row's bracket starts one grid step
    either side of its maximum, clipped to the grid. Each pass scores
    ``ZOOM_POINTS`` evenly spaced offsets across every open bracket at once,
    ``fn(rows, xs)`` mapping the open rows and their offsets (rows, points)
    to values, and shrinks each bracket to one spacing either side of its
    pass's best offset (exact ties to the smallest), until it is narrower
    than ``bracket_tol``. Returns the best (x, value) per row; the grid
    maximum is kept unless a candidate beats it or ties it at a smaller
    offset.
    """
    step = grid[1] - grid[0]
    x, v = grid[np.asarray(idx)], np.array(v0, dtype=float)
    a, b = np.maximum(grid[0], x - step), np.minimum(grid[-1], x + step)
    # b > a: ends even for bracket_tol <= 0
    rows = np.flatnonzero((b - a > bracket_tol) & (b > a))
    while rows.size:
        ar, br = a[rows], b[rows]
        xs, h = _zoom_offsets(ar, br)
        vals = fn(rows, xs)
        best = np.arange(rows.size), np.argmax(vals, axis=-1)
        xj, vj = xs[best], vals[best]
        better = (vj > v[rows]) | ((vj == v[rows]) & (xj < x[rows]))
        x[rows[better]], v[rows[better]] = xj[better], vj[better]
        a[rows], b[rows] = np.maximum(ar, xj - h), np.minimum(br, xj + h)
        rows = rows[(b[rows] - a[rows] > bracket_tol) & (b[rows] > a[rows])]
    return x, v


def _grids(s: Scenario) -> list[np.ndarray]:
    """Each guide's grid of candidate offsets for the descent."""
    return [_offset_grid(0.0, w.length_m, default_grid_res(s)) for w in s.waveguides]


def _table(s: Scenario, g: int, grid: np.ndarray, users: np.ndarray) -> np.ndarray:
    """Gram features (K*K, n) of guide g's columns toward users (K, 3) at the n
    offsets of ``grid``, synthesized 1024 offsets at a time so that the
    temporaries stay small beside the tables."""
    table = np.empty((users.shape[0] ** 2, grid.size))
    for j in range(0, grid.size, 1024):
        table[:, j:j + 1024] = _features(_guide_columns(s, g, grid[j:j + 1024], users))
    return table


def _nearest_user_starts(s: Scenario, users: np.ndarray) -> np.ndarray:
    """Elementwise start offsets (..., M) of drops (..., K, 3): each guide's
    antenna at the projection of its nearest user, lower user index on ties."""
    t = np.stack([projected_offsets(w, users) for w in s.waveguides], axis=-1)  # (..., K, M)
    d = np.stack([guide_distances(w, t[..., g], users) for g, w in enumerate(s.waveguides)], -1)
    return np.take_along_axis(t, np.argmin(d, axis=-2)[..., None, :], axis=-2)[..., 0, :]


def _descend(s: Scenario, users: np.ndarray, drop: np.ndarray, rho: np.ndarray,
             start: np.ndarray, budget: int) -> list[PlacementSolution]:
    """Zero-forcing sum-rate coordinate descent of L states, stepped in lockstep.

    ``users`` (D, K, 3) holds the drops' user positions under ``s``'s guides;
    state i descends drop ``drop[i]`` at transmit SNR ``rho[i]`` from the
    offsets ``start[i]`` (M,). The states of a drop share its candidate
    tables, built once: the Gram features (:func:`_features`) of each guide's
    channel column at every grid offset, (K*K, n), candidate axis last so that
    each feature is a contiguous array. A guide step builds one
    :func:`_scorer` for all live states. Its ``scan`` finds each state's best
    grid cell in its drop's table from the product bound, with the exact law
    on the bound's certified window alone, or on the whole grid where the
    window is not certified or the bound has no maximum in [1, inf). One
    batched zoom then refines the best cells of all states. A state leaves
    the lockstep when a cycle improves it by less than ``DESCENT_TOL``. Each
    state's final layout is then finished as
    :func:`optimize_multi_waveguide_sweep` says: rank-tested by
    :func:`_rcond`, its value recomputed by :func:`_qr_zf_sum_rates` and its
    trace lowered to that value. Returns one solution per state, in state
    order.
    """
    M, grids = len(s.waveguides), _grids(s)
    tables = [[_table(s, g, grid, drop_users) for g, grid in enumerate(grids)]
              for drop_users in users]
    state_users = users[drop]  # (L, K, 3)

    def others(c, g):
        """Gram features (L, K*K) of the columns c (L, K, M) but column g."""
        return _features(np.delete(c, g, axis=-1).swapaxes(0, 1)).sum(axis=-1).T

    offsets = np.array(start, dtype=float)
    cols = np.stack([_guide_columns(s, g, offsets[:, g], state_users) for g in range(M)],
                    axis=-1).swapaxes(0, 1)  # (L, K, M)
    live = np.arange(len(drop))
    # the start is scored as the last guide's candidate
    last = _features(cols[:, :, M - 1:].swapaxes(0, 1)).swapaxes(0, 1)
    value = _scorer(others(cols, M - 1), rho)[0](live, last)[:, 0]
    traces = [[float(v)] for v in value]
    cycles, converged = np.zeros(live.size, dtype=int), np.zeros(live.size, dtype=bool)
    for _ in range(budget):
        cycles[live] += 1
        cycle_gain = np.zeros(live.size)
        for g in range(M):
            score, scan = _scorer(others(cols[live], g), rho[live])
            idx = np.empty(live.size, dtype=int)
            best = np.empty(live.size)
            for i, d in enumerate(drop[live]):  # the scorer's rows: live states
                idx[i], best[i] = scan(i, tables[d][g])
            pos = np.flatnonzero(best != -np.inf)
            if not pos.size:
                continue
            zoom_users = state_users[live[pos]]

            def zoom_scores(open_rows, xs):
                c = _guide_columns(s, g, xs, zoom_users[open_rows])
                return score(pos[open_rows], _features(c).swapaxes(0, 1))

            x, v = _zoom_max(zoom_scores, grids[g], idx[pos], best[pos], REFINE_TOL_M)
            up = v > value[live[pos]]
            pos, x, v = pos[up], x[up], v[up]
            states = live[pos]
            cycle_gain[pos] += v - value[states]
            value[states] = v
            offsets[states, g] = x
            cols[states, :, g] = _guide_columns(s, g, x, state_users[states]).T
            for state, vs in zip(states, v):
                traces[state].append(float(vs))
        done = cycle_gain < DESCENT_TOL
        converged[live[done]] = True
        live = live[~done]
        if not live.size:
            break
    value[_rcond(cols) < ZF_RCOND_LIMIT] = -np.inf
    final = np.flatnonzero(np.isfinite(value))
    value[final] = _qr_zf_sum_rates(cols[final], rho[final])
    for i in final:
        v = float(value[i])
        traces[i] = [min(t, v) for t in traces[i][:-1]] + [v]
    return [PlacementSolution(PinchingLayout(np.arange(M), row, np.ones(M)), float(v),
                              "sum_rate", int(n), bool(done), tuple(trace))
            for row, v, n, done, trace in zip(offsets, value, cycles, converged, traces)]


def _qr_zf_sum_rates(cols: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Zero-forcing sum rates at equal power p = 1/K of channels (B, K, M) at
    transmit SNRs ``rho`` (B,), by one batched QR of their conjugate
    transposes (B, M, K) = Q R.

    The Gram is then R^H R, so diag(Gram^-1) is the squared row norms of R^-1
    and sinr_k = p * rho / [Gram^-1]_kk, accurate to about eps / (channel
    rcond) where the determinant-lemma kernel gets eps / (Gram rcond).
    """
    K = cols.shape[1]
    r_inv = np.linalg.inv(np.linalg.qr(np.conj(cols).swapaxes(-2, -1), mode="r"))
    sinr = 1.0 / (r_inv.real ** 2 + r_inv.imag ** 2).sum(axis=-1)
    sinr *= 1.0 / K * rho[:, None]
    return functools.reduce(np.add, shannon_rate(sinr, out=sinr).T)


def optimize_multi_waveguide_sweep(s: Scenario, transmit_snrs,
                                   budget: int = 10) -> tuple[PlacementSolution, ...]:
    """Jointly place one antenna per waveguide by coordinate descent for the
    zero-forcing sum rate at equal per-user power, at each transmit SNR in
    ``transmit_snrs`` (linear, each finite and positive; ``s.transmit_snr`` is
    unused). An empty list gives no solutions.

    Cycles over waveguides; each step scans that guide's offset on a dense
    grid at lambda0/4, then refines the best cell by batched zoom
    (``_zoom_max``) until the bracket is narrower than ``REFINE_TOL_M``. Moving
    one antenna changes one channel column, so every candidate's Gram matrix
    is the other guides' fixed part F plus the rank-1 term T of its own
    column. By the matrix determinant lemma the Gram's det and the cofactors
    that give the diagonal of its inverse are affine in T's K*K real
    entries: each guide step builds that map once from F's adjugates and
    scores each state's candidates with one matrix product. Steps
    are accepted only when they improve the objective, so each recorded
    trace is nondecreasing; a descent stops when a full cycle improves it by
    less than ``DESCENT_TOL`` or the cycle budget runs out. Candidates that leave the
    channel rank-deficient are skipped. Each descent then finishes its own
    layout, in the process where it ran: a final layout whose channel rows
    fail :func:`zf_beamformer`'s rank test scores -inf. Any other final value is
    recomputed by :func:`_qr_zf_sum_rates`, which keeps the digits the
    kernel loses to an ill-conditioned Gram, and replaces the trace's last
    entry. Earlier entries that the kernel's rounding left above it are
    lowered to it, so the trace stays nondecreasing.

    The descents share one user drop and one set of candidate tables, built
    here and freed on return, and are stepped together in this process: one
    drop is one group of :func:`_sweep_drops`, which forks workers only for
    two groups or more. The descents do not interact: each solution's bits
    are those of a sweep of its SNR alone, and those of the same drop inside
    a multi-drop sweep at any worker count.
    """
    K, M = len(s.users.positions), len(s.waveguides)
    if K == 0 or M == 0:
        raise ValueError("need at least one user and one waveguide")
    if K > M:
        raise ValueError(f"zero-forcing needs users <= waveguides, got {K} > {M}")
    rhos = [float(rho) for rho in transmit_snrs]
    bad = [rho for rho in rhos if not (math.isfinite(rho) and rho > 0)]  # NaN fails both
    if bad:
        raise ValueError(f"transmit SNRs must be finite and > 0, got {bad[0]!r}")
    if not rhos:
        return ()
    return _sweep_drops(s, s.users.positions[None], np.asarray(rhos), budget)[0]


def _sweep_drops(s: Scenario, users: np.ndarray, snrs: np.ndarray,
                 budget: int) -> list[tuple[PlacementSolution, ...]]:
    """:func:`optimize_multi_waveguide_sweep` of each drop of users (D, K, 3) under
    ``s``'s guides at the SNRs ``snrs`` (B,), which it takes as checked.

    Drops pass through :func:`_descend` in groups, as many per group as keep
    the candidate tables in flight within ``TABLE_BYTES_IN_FLIGHT`` (at least
    one), each as one state per SNR from :func:`_nearest_user_starts`. The
    groups run through :func:`_fork_map` in one child process per usable
    CPU, at most one per group; on one CPU, without ``fork`` or in a
    daemonic process, one after another in this process. A child builds the
    tables of one group at a time, so ``TABLE_BYTES_IN_FLIGHT`` bounds each
    process, and its exception is raised here with its type and message.
    A group's solutions depend on its states alone, so every state's bits
    are those of its own one-drop sweep, at any worker count.
    """
    K, B = users.shape[1], len(snrs)
    drop_bytes = 8 * K * K * sum(grid.size for grid in _grids(s))
    group = max(1, TABLE_BYTES_IN_FLIGHT // drop_bytes)
    cuts = range(group, len(users), group)
    states = (np.repeat(np.arange(len(users)) % group, B), np.tile(snrs, len(users)),
              np.repeat(_nearest_user_starts(s, users), B, axis=0))  # drop, rho, start
    groups = list(zip(np.split(users, cuts), *(np.split(a, [B * c for c in cuts]) for a in states)))
    descents = _fork_map(lambda i: _descend(s, *groups[i], budget), len(groups),
                         min(_usable_cpus(), len(groups)))
    placed = [solution for solutions in descents for solution in solutions]
    return [tuple(placed[i:i + B]) for i in range(0, len(placed), B)]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_map(fn, n: int, workers: int):
    """Yield ``fn(i)`` for i in range(n), in order, computed in ``workers``
    forked child processes.

    Child w computes ``fn(i)`` for each i = w (mod workers) and streams the
    pickled results through a pipe of its own; this process reads the pipes
    in index order, so a child runs at most a pipe's buffer ahead of the
    reader. A child's exception is raised here, with its type and message,
    in the place of its result, and a child that dies raises ``RuntimeError``
    rather than waiting forever. Every child is killed and reaped before the
    generator ends, also on error or an early ``close()``. With fewer than
    two workers, on a platform without ``os.fork`` or in a daemonic process
    (which may have no children), ``fn`` runs in this process instead, one
    index after another. Only the results need to pickle, not ``fn``.
    Children fork rather than spawn: a spawned child imports numpy and the
    package afresh, which takes about as long as the groups of a
    ``mimo-sweep`` run. A child has only the thread that forked it: a lock
    that another thread of the caller held at the fork stays held there.
    """
    serial = workers < 2 or not hasattr(os, "fork")
    if not serial:
        import multiprocessing

        serial = multiprocessing.current_process().daemon
    if serial:
        yield from map(fn, range(n))
        return
    import pickle
    import signal

    children = []  # (pid, the read end of its pipe)
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child: it never returns from here
                status = 1
                try:
                    os.close(read_fd)
                    for _, reader in children:
                        reader.close()
                    with open(write_fd, "wb") as out:
                        for i in range(w, n, workers):
                            try:
                                result = True, fn(i)
                            except BaseException as exc:
                                result = False, exc
                            try:
                                data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
                            except Exception as exc:  # a result that does not pickle
                                result = False, exc
                                data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
                            out.write(data)
                            out.flush()
                            if not result[0]:
                                break
                    status = 0
                finally:
                    os._exit(status)  # no atexit handlers, no flush of inherited buffers
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        for i in range(n):
            pid, reader = children[i % workers]
            try:
                ok, result = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker process {pid} died before sending "
                                   f"result {i}") from None
            if not ok:
                raise result
            yield result
    finally:
        for pid, reader in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)  # only a child with results still unread can be busy
            os.waitpid(pid, 0)
