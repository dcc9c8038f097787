"""Pinching-antenna position optimization.

The rate optimizers are derivative-free: a dense grid scan, then refinement
of the best cell. The objectives are cheap at desk scale and the phase terms
make them multimodal, so scans are both robust and reproducible. One
refiner, the batched zoom :func:`_zoom_max`, serves the single-guide group
placement, gain-order steering and every step of the multi-waveguide
descent: it scores a few passes of evenly spaced candidates at once. Ties
within 1e-12 of the best grid value resolve to the smallest offset; grid
step, tolerances and zoom points are module constants. Phase alignment
needs no scan: one array bisection solves for in-phase offsets.

Placement objectives assume the pinched link is line-of-sight: the premise
of placing an antenna adjacent to a user is that doing so establishes LoS.
"""

from __future__ import annotations

import functools
import math
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
    return PlacementSolution(PinchingLayout(((x,),), ((1.0,),)), value, objective, 1, True,
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
    if _inversions(power(np.array(group.layout.offsets_per_guide[0])), order)[0] == 0:
        return group
    grid = _offset_grid(0.0, w.length_m, default_grid_res(s))
    fewest = _inversions(power(grid), order).min()

    def constrained_sum_rate(offs):
        p = power(offs)
        return np.where(_inversions(p, order) == fewest,
                        shannon_rate(s.transmit_snr * p).sum(axis=-1), -np.inf)

    x, value = _scan_zoom(constrained_sum_rate, grid)
    return PlacementSolution(PinchingLayout(((x,),), ((1.0,),)), value, "sum_rate", 1,
                             bool(fewest == 0), (value,))


def _wrap(phase):
    return np.angle(np.exp(1j * np.asarray(phase)))


def align_multi_on_guide(w: WaveguideSpec, user, n_antennas: int,
                         s: Scenario, min_spacing: float | None = None) -> PlacementSolution:
    """Place n antennas on one guide so their contributions add coherently.

    The link's phase lag from offset x to the user, k_g*x + k_0*d(x), rises
    strictly along the guide, so the offsets where it equals c + 2*pi*m
    form a comb of teeth at which antennas arrive in phase. One array
    bisection finds the teeth of 97 combs (96 evenly spaced phases c and
    the one with a tooth on :func:`place_single_for_user`'s offset), as many
    turns of the lag either side of that offset as n antennas can span.
    From every tooth a chain takes, n - 1 times, the first tooth at least
    ``min_spacing`` (default lambda0/2) past its last; of the chains on the
    guide, the one with the largest coherent gain wins, and ``ValueError``
    says none fits.
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    lam0 = s.carrier.free_space_wavelength_m
    spacing = lam0 / 2.0 if min_spacing is None else float(min_spacing)
    user = np.asarray(user, dtype=float).reshape(3)

    if n_antennas == 1:
        x = place_single_for_user(w, user)
        layout = PinchingLayout(((x,),), ((1.0,),), spacing)
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
    layout = PinchingLayout((tuple(chains[best]),), ((weight,) * n_antennas,), spacing)
    rate = float(shannon_rate(s.transmit_snr * agg[best] ** 2))
    return PlacementSolution(layout, rate, "single_user_rate", 1, aligned, (rate,))


def coherent_gain_bound(H, user_index: int = 0) -> float:
    """Triangle-inequality ceiling: sum of per-antenna magnitudes for a user."""
    if H.per_antenna_breakdown is None:
        raise ValueError("channel matrix has no per-antenna breakdown")
    return float(np.sum(np.abs(H.per_antenna_breakdown[user_index])))


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


def _mrc_sinr(g: np.ndarray, K: int, rho: np.ndarray) -> np.ndarray:
    """Matched-beam SINRs (rows, K, n) from Gram features g (rows, K*K, n) at SNRs
    rho (rows, 1, 1): unit-norm beams at power p = 1/K give cross gains
    |h_j^H w_i|^2 = |Gram[j, i]|^2 / Gram[i, i]."""
    m = _hermitian(np.moveaxis(g, 1, -1), K)  # (rows, n, K, K)
    cross = (m.real ** 2 + m.imag ** 2) / np.diagonal(m.real, axis1=-2, axis2=-1)[..., None, :]
    own = np.diagonal(cross, axis1=-2, axis2=-1)
    interference = functools.reduce(np.add, np.moveaxis(cross, -1, 0)) - own
    return np.moveaxis(1.0 / K * own * rho / (1.0 + rho * (1.0 / K) * interference), -1, 1)


def _scorer(F: np.ndarray, kind: str, objective: str, rho: np.ndarray):
    """Objective of one guide's candidate antennas for L states, -inf where degenerate.

    ``F`` (L, K*K) holds each state's Gram features without the guide's
    column, ``rho`` (L,) its transmit SNR. ``score(rows, T)`` gives the
    objectives (rows, n) of the Grams F + T for candidate features ``T``,
    (K*K, n) or (rows, K*K, n). Zero-forcing at equal power p = 1/K gives
    sinr_k = p * rho * det / C_kk from :func:`_zf_map`'s affine map, built
    once here; a candidate counts where det / C_kk is finite and positive and,
    for K > 3, where its Gram is :func:`_resolved`. Per-user rates are folded
    elementwise in user order.
    """
    K = math.isqrt(F.shape[-1])
    if kind == "zf":
        weights, consts = _zf_map(F, K)
    elif kind != "mrc":
        raise ValueError(f"unknown beamformer kind {kind!r}")
    fold = np.add if objective == "sum_rate" else np.minimum

    def score(rows, T):
        if T.ndim == 2:  # a shared table, scored state by state: temporaries stay small
            return np.concatenate([score(rows[i:i + 1], T[None]) for i in range(len(rows))])
        r = rho[rows, None, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if kind == "zf":
                dc = weights[rows] @ T  # (rows, 1+K, n)
                dc += consts[rows, :, None]
                sinr = dc[:, :1] / dc[:, 1:]  # det / C_kk = 1 / [Gram^{-1}]_kk
                bad = ~(np.isfinite(sinr) & (sinr > 0))
                if K > 3:
                    gram = _hermitian(np.moveaxis(F[rows, :, None] + T, 1, -1), K)
                    bad |= ~_resolved(gram)[:, None]
                sinr *= 1.0 / K * r
                sinr[bad] = np.nan
            else:
                sinr = _mrc_sinr(F[rows, :, None] + T, K, r)
            obj = functools.reduce(fold, shannon_rate(sinr, out=sinr).swapaxes(0, 1))
        return np.where(np.isfinite(obj), obj, -np.inf)

    return score


def _one_per_guide_layout(offsets) -> PinchingLayout:
    return PinchingLayout(tuple((float(x),) for x in offsets),
                          tuple((1.0,) for _ in offsets))


def _guide_columns(s: Scenario, g: int, xs: np.ndarray) -> np.ndarray:
    """LoS channel columns (K, *xs.shape) of guide g with its antenna at offsets xs."""
    users = s.users.positions
    return link_gains(s, s.waveguides[g], xs,
                      users.reshape(users.shape[:1] + (1,) * xs.ndim + (3,)))


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
        xs = np.linspace(a[rows], b[rows], ZOOM_POINTS, axis=-1)
        vals = fn(rows, xs)
        best = np.arange(rows.size), np.argmax(vals, axis=-1)
        xj, vj = xs[best], vals[best]
        better = (vj > v[rows]) | ((vj == v[rows]) & (xj < x[rows]))
        x[rows[better]], v[rows[better]] = xj[better], vj[better]
        h = (b[rows] - a[rows]) / (ZOOM_POINTS - 1)
        a[rows], b[rows] = np.maximum(a[rows], xj - h), np.minimum(b[rows], xj + h)
        rows = rows[(b[rows] - a[rows] > bracket_tol) & (b[rows] > a[rows])]
    return x, v


def _descend(s: Scenario, transmit_snrs: np.ndarray, kind: str, objective: str,
             budget: int):
    """Coordinate descent of one state per transmit SNR, stepped in lockstep.

    The states share the geometry, the start and the candidate tables: the
    Gram features (:func:`_features`) of each guide's channel column at every
    grid offset, (K*K, n), candidate axis last so that each feature is a
    contiguous array. A guide step builds one :func:`_scorer` for all live
    states, scores every grid offset of every state with it and refines the
    best cells in one batched zoom. A state leaves the lockstep when a cycle
    improves it by less than ``DESCENT_TOL``. Returns per state the offsets
    (B, M), traces, cycles, converged flags, final objective values (B,) and
    final channel columns (B, K, M).
    """
    users = s.users.positions
    K, M, B = users.shape[0], len(s.waveguides), len(transmit_snrs)
    grids = [_offset_grid(0.0, w.length_m, default_grid_res(s)) for w in s.waveguides]
    tables = [_features(_guide_columns(s, g, grid)) for g, grid in enumerate(grids)]

    def others(c, g):
        """Gram features (L, K*K) of the columns c (L, K, M) but column g."""
        return _features(np.delete(c, g, axis=-1).swapaxes(0, 1)).sum(axis=-1).T

    # Start each antenna at the projection of the user nearest to its guide
    # (argmin breaks ties to the lower user index).
    start = np.empty(M)
    for g, w in enumerate(s.waveguides):
        t = projected_offsets(w, users)
        start[g] = t[np.argmin(guide_distances(w, t, users))]
    cols = np.repeat(np.concatenate([_guide_columns(s, g, start[g:g + 1]) for g in range(M)],
                                    axis=1)[None], B, axis=0)  # (B, K, M)
    live = np.arange(B)
    # the start is scored as the last guide's candidate
    value = _scorer(others(cols, M - 1), kind, objective, transmit_snrs)(
        live, _features(cols[0, :, M - 1:]))[:, 0]
    traces = [[float(v)] for v in value]
    offsets = np.tile(start, (B, 1))
    cycles = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    for _ in range(budget):
        cycles[live] += 1
        cycle_gain = np.zeros(live.size)
        for g in range(M):
            score = _scorer(others(cols[live], g), kind, objective, transmit_snrs[live])
            obj = score(np.arange(live.size), tables[g])  # (L, n)
            idx = _argmax_tie_smallest(obj)
            best = np.take_along_axis(obj, idx[:, None], axis=-1)[:, 0]
            pos = np.flatnonzero(best != -np.inf)
            if not pos.size:
                continue

            def zoom_scores(rows, xs):
                return score(pos[rows], _features(_guide_columns(s, g, xs)).swapaxes(0, 1))

            x, v = _zoom_max(zoom_scores, grids[g], idx[pos], best[pos], REFINE_TOL_M)
            up = v > value[live[pos]]
            pos, x, v = pos[up], x[up], v[up]
            states = live[pos]
            cycle_gain[pos] += v - value[states]
            value[states] = v
            offsets[states, g] = x
            cols[states, :, g] = _guide_columns(s, g, x).T
            for state, vs in zip(states, v):
                traces[state].append(float(vs))
        done = cycle_gain < DESCENT_TOL
        converged[live[done]] = True
        live = live[~done]
        if not live.size:
            break
    return offsets, traces, cycles, converged, value, cols


def optimize_multi_waveguide_sweep(s: Scenario, transmit_snrs, beamformer_kind: str = "zf",
                                   objective: str = "sum_rate",
                                   budget: int = 10) -> tuple[PlacementSolution, ...]:
    """Jointly place one antenna per waveguide by coordinate descent, at each
    transmit SNR in ``transmit_snrs`` (linear; ``s.transmit_snr`` is unused).

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
    channel rank-deficient are skipped. Each returned value is the one the
    Gram kernel computed for the final layout, so it equals the trace's last
    entry, except that a zero-forcing layout whose channel rows fail
    :func:`zf_beamformer`'s rank test scores -inf.

    The descents share one geometry and one set of candidate tables, built
    here and freed on return, and are stepped together; each solution equals
    the one :func:`optimize_multi_waveguide` returns at its SNR.
    """
    if beamformer_kind not in ("zf", "mrc"):
        raise ValueError(f"unknown beamformer kind {beamformer_kind!r}")
    if objective not in ("sum_rate", "max_min_rate"):
        raise ValueError(f"unknown objective {objective!r}")
    K, M = len(s.users.positions), len(s.waveguides)
    if K == 0 or M == 0:
        raise ValueError("need at least one user and one waveguide")
    if beamformer_kind == "zf" and K > M:
        raise ValueError(f"zero-forcing needs users <= waveguides, got {K} > {M}")
    offsets, traces, cycles, converged, values, cols = _descend(
        s, np.asarray([float(rho) for rho in transmit_snrs]), beamformer_kind, objective, budget)
    if beamformer_kind == "zf":
        values[_rcond(cols) < ZF_RCOND_LIMIT] = -np.inf
    return tuple(PlacementSolution(_one_per_guide_layout(row), float(v), objective,
                                   int(n), bool(done), tuple(trace))
                 for row, v, n, done, trace in zip(offsets, values, cycles, converged, traces))


def optimize_multi_waveguide(s: Scenario, beamformer_kind: str = "zf",
                             objective: str = "sum_rate", budget: int = 10) -> PlacementSolution:
    """Jointly place one antenna per waveguide by coordinate descent at
    ``s.transmit_snr``: the one-SNR case of :func:`optimize_multi_waveguide_sweep`."""
    return optimize_multi_waveguide_sweep(s, (s.transmit_snr,), beamformer_kind, objective,
                                          budget)[0]
