"""Pinching-antenna position optimization.

The rate optimizers are derivative-free: a dense grid scan, then refinement
of the best cell. The objectives are cheap at desk scale and the phase terms
make them multimodal, so scans are both robust and reproducible. One
refiner, the batched zoom :func:`_zoom_max`, serves the single-guide group
placement and every step of the multi-waveguide descent: it scores a few
passes of evenly spaced candidates at once. Ties within 1e-12 of the best
grid value resolve to the smallest offset; grid step, tolerances and zoom
points are module constants. Phase alignment needs no scan: one array
bisection solves for in-phase offsets.

Placement objectives assume the pinched link is line-of-sight: the premise
of placing an antenna adjacent to a user is that doing so establishes LoS.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .beamforming import (
    RankDeficiencyError,
    evaluate_rates,
    mrc_beamformer,
    shannon_rate,
    zf_beamformer,
)
from .channel import GuidedWave, build_channel, guide_distances, link_gains, link_power
from .scenario import (
    PinchingLayout,
    Scenario,
    UserSet,
    WaveguideSpec,
    project_onto_waveguide,
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
    """Offset serving one user best on a lossless guide: the clamped
    projection onto the guide. In-guide loss moves the best offset feedward."""
    return project_onto_waveguide(w, user).offset


def default_grid_res(s: Scenario) -> float:
    return s.carrier.free_space_wavelength_m / 4.0


def _offset_grid(lo: float, hi: float, res: float) -> np.ndarray:
    """Evenly spaced offsets from lo to hi, both included, at most ``res`` apart."""
    return np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / res)) + 1))


def _argmax_tie_smallest(values: np.ndarray) -> int:
    vmax = np.max(values)
    return int(np.nonzero(values >= vmax - TIE_TOL)[0][0])


def _single_antenna_rates(w: WaveguideSpec, users: np.ndarray, s: Scenario,
                          offsets: np.ndarray) -> np.ndarray:
    """LoS rates of every user for one full-power antenna at each offset.

    Returns an (..., users) array for offsets of any shape (...); a lone
    antenna's phase is irrelevant.
    """
    return shannon_rate(s.transmit_snr * link_power(s, w, offsets[..., None], users))


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

    def fn(offs):
        return reduce(_single_antenna_rates(w, pts, s, offs), axis=-1)

    grid = _offset_grid(0.0, w.length_m, default_grid_res(s))
    vals = fn(grid)
    i = _argmax_tie_smallest(vals)
    x, value = _zoom_max(lambda rows, xs: fn(xs), grid, [i], [vals[i]], BRACKET_TOL_M)
    layout = PinchingLayout(((float(x[0]),),), ((1.0,),))
    return PlacementSolution(layout, float(value[0]), objective, 1, True, (float(value[0]),))


def _wrap(phase):
    return np.angle(np.exp(1j * np.asarray(phase)))


def align_multi_on_guide(w: WaveguideSpec, user, n_antennas: int,
                         s: Scenario, min_spacing: float | None = None) -> PlacementSolution:
    """Place n antennas on one guide so their contributions add coherently.

    The link's phase lag from offset x to the user, k_g*x + k_0*d(x), rises
    strictly along the guide, so the offsets where it equals c + 2*pi*m
    form a comb of teeth at which antennas arrive in phase. One array
    bisection finds the teeth of 97 combs (96 evenly spaced phases c and
    the one with a tooth on the user's projection), as many turns of the lag
    either side of the projection as n antennas can span. From every tooth
    a chain takes, n - 1 times, the first tooth at least ``min_spacing``
    (default lambda0/2) past its last; of the chains on the guide, the one
    with the largest coherent gain wins, and ``ValueError`` says none fits.
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

    k0, kg = 2.0 * math.pi / lam0, GuidedWave.for_waveguide(s.carrier, w).wavenumber_rad_per_m

    def lag(x):
        """Unwrapped phase lag of the link to the user: minus the phase of link_gains."""
        return kg * x + k0 * guide_distances(w, x, user)

    # As |d'(x)| <= 1, teeth are at least 2*pi/(kg + k0) apart, which bounds
    # the turns one spacing can take.
    turns = n_antennas * (1 + int(spacing * (kg + k0) / (2.0 * math.pi)))
    lag_p = lag(project_onto_waveguide(w, user).offset)
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


def _gram_inverse_diag(m, K: int) -> list:
    """Real diagonal of the inverse of Hermitian KxK Gram matrices, per user.

    ``m(k, l)`` returns the Gram entries h_k^H h_l, stacked over candidates.
    The closed forms for K <= 3 read only the diagonal and the upper
    triangle; degenerate (non positive definite) matrices produce
    non-finite or nonpositive entries, and for K > 3 exactly singular ones
    produce NaN, which callers treat as invalid candidates.
    """
    if K == 1:
        return [1.0 / m(0, 0).real]
    if K == 2:
        m00, m11 = m(0, 0).real, m(1, 1).real
        m01 = m(0, 1)
        det = m00 * m11 - (m01.real ** 2 + m01.imag ** 2)
        return [m11 / det, m00 / det]
    if K == 3:
        # The hot path of the descent's scans: updates are in place to spare
        # temporaries; each one rounds as the written-out expression would.
        m00, m11, m22 = m(0, 0).real, m(1, 1).real, m(2, 2).real
        m01, m02, m12 = m(0, 1), m(0, 2), m(1, 2)
        a01 = m01.real ** 2
        a01 += m01.imag ** 2
        a02 = m02.real ** 2
        a02 += m02.imag ** 2
        a12 = m12.real ** 2
        a12 += m12.imag ** 2
        c00 = m11 * m22
        c00 -= a12
        c11 = m00 * m22
        c11 -= a02
        c22 = m00 * m11
        c22 -= a01
        det = m00 * c00
        det -= m11 * a02
        det -= m22 * a01
        triple = m01 * m12
        triple *= np.conj(m02)
        det += 2.0 * triple.real
        return [c00 / det, c11 / det, c22 / det]
    Mh = np.stack([np.stack([m(k, l) for l in range(K)], axis=-1) for k in range(K)], axis=-2)
    # np.linalg.inv raises on the first exactly singular matrix of a stack
    inv = np.full(Mh.shape, np.nan, dtype=complex)
    regular = np.linalg.det(Mh) != 0
    inv[regular] = np.linalg.inv(Mh[regular])
    return [inv[..., k, k].real for k in range(K)]


def _gram_rates(m, K: int, kind: str, transmit_snr) -> list:
    """Per-user rates, one array per user, from Gram entries m(k, l) = h_k^H h_l.

    Each entry is evaluated only when it is read. With unit-norm precoding
    columns and equal power p = 1/K, zero-forcing gives sinr_i = p * snr /
    [Mh^{-1}]_ii and matched beams give cross gains |h_j^H w_i|^2 =
    |Mh[j, i]|^2 / Mh[i, i]. ``transmit_snr`` broadcasts against the
    entries. Numerically degenerate candidates come out as NaN; callers map
    them to -inf objectives. The descent's final value is re-scored through
    the public beamforming path.
    """
    p = 1.0 / K
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind == "zf":
            sinr = []
            for d in _gram_inverse_diag(m, K):
                x = p * transmit_snr / d
                np.copyto(x, np.nan, where=~(np.isfinite(d) & (d > 0)))
                sinr.append(x)
        elif kind == "mrc":
            diag = [m(i, i).real for i in range(K)]
            sinr = []
            for j in range(K):
                cross = [(z.real ** 2 + z.imag ** 2) / diag[i]
                         for i, z in enumerate(m(j, i) for i in range(K))]
                interference = functools.reduce(np.add, cross) - cross[j]
                sinr.append(p * cross[j] * transmit_snr
                            / (1.0 + transmit_snr * p * interference))
        else:
            raise ValueError(f"unknown beamformer kind {kind!r}")
        for x in sinr:
            shannon_rate(x, out=x)
        return sinr


def _reduce_objective(rates, objective: str):
    """Reduce per-user rates (a sequence over users) in user order.

    An elementwise fold over the K users is far faster than a reduction
    along the short last axis of a long stack of candidates.
    """
    if objective == "sum_rate":
        fold = np.add
    elif objective == "max_min_rate":
        fold = np.minimum
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return functools.reduce(fold, rates)


def _scores(m, K: int, kind: str, objective: str, transmit_snr) -> np.ndarray:
    """Objective from Gram entries m(k, l), -inf where degenerate."""
    obj = _reduce_objective(_gram_rates(m, K, kind, transmit_snr), objective)
    return np.where(np.isfinite(obj), obj, -np.inf)


def _one_per_guide_layout(offsets) -> PinchingLayout:
    return PinchingLayout(tuple((float(x),) for x in offsets),
                          tuple((1.0,) for _ in offsets))


def _guide_columns(s: Scenario, g: int, xs: np.ndarray) -> np.ndarray:
    """LoS channel columns (K, *xs.shape) of guide g with its antenna at offsets xs.

    The leading length-1 axis of the offsets is kept: numpy's complex
    multiply takes another kernel, with other rounding, when an operand is
    broadcast along the inner loop, so the layout fixes the bits.
    """
    users = s.users.positions
    return link_gains(s, s.waveguides[g], xs[None],
                      users.reshape(users.shape[:1] + (1,) * xs.ndim + (3,)))


def _outer(c: np.ndarray) -> np.ndarray:
    """Rank-1 Gram terms of stacked columns: (..., K, n) -> (..., K, K, n)."""
    return np.conj(c)[..., :, None, :] * c[..., None, :, :]


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
    rank-1 Gram terms conj(c_k) c_l of each guide's channel column c at
    every grid offset, candidate axis last (K, K, n) so that each Gram entry
    is a contiguous array. A state leaves the lockstep when a cycle improves
    it by less than ``DESCENT_TOL``. Returns offsets (B, M), traces, cycles and
    converged flags per state.
    """
    users = s.users.positions
    K, M, B = users.shape[0], len(s.waveguides), len(transmit_snrs)
    grids = [_offset_grid(0.0, w.length_m, default_grid_res(s)) for w in s.waveguides]
    tables = [_outer(_guide_columns(s, g, grid)) for g, grid in enumerate(grids)]

    # Start each antenna at the projection of the user nearest to its guide
    # (argmin breaks ties to the lower user index).
    start = np.empty(M)
    for g, w in enumerate(s.waveguides):
        proj = project_onto_waveguide(w, users)
        start[g] = proj.offset[np.argmin(proj.distance)]
    cols0 = np.concatenate([_guide_columns(s, g, start[g:g + 1]) for g in range(M)],
                           axis=1)  # (K, M)
    gram = _outer(cols0).sum(axis=-1)[:, :, None]
    value = _scores(lambda k, l: gram[k, l], K, kind, objective, transmit_snrs)
    traces = [[float(v)] for v in value]
    offsets = np.tile(start, (B, 1))
    cols = np.repeat(cols0[None], B, axis=0)  # (B, K, M)
    cycles = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    live = np.arange(B)
    for _ in range(budget):
        cycles[live] += 1
        cycle_gain = np.zeros(live.size)
        for g in range(M):
            fixed = _outer(np.delete(cols[live], g, axis=-1)).sum(axis=-1)  # (L, K, K)
            grid, table = grids[g], tables[g]
            found = []  # (position in live, grid index, grid value)
            for r, state in enumerate(live):
                f = fixed[r]
                obj = _scores(lambda k, l: f[k, l] + table[k, l], K, kind, objective,
                              transmit_snrs[state])
                i = _argmax_tie_smallest(obj)
                if obj[i] != -np.inf:
                    found.append((r, i, obj[i]))
            if not found:
                continue
            pos, idx, best = (np.array(t) for t in zip(*found))
            fz, rho_z = fixed[pos], transmit_snrs[live[pos], None]

            def zoom_scores(rows, xs):
                c = _guide_columns(s, g, xs)  # (K, rows, points)
                F = fz[rows]
                return _scores(lambda k, l: F[:, k, l, None] + np.conj(c[k]) * c[l],
                               K, kind, objective, rho_z[rows])

            x, v = _zoom_max(zoom_scores, grid, idx, best, REFINE_TOL_M)
            up = v > value[live[pos]]
            pos, x, v = pos[up], x[up], v[up]
            states = live[pos]
            cycle_gain[pos] += v - value[states]
            value[states] = v
            offsets[states, g] = x
            for state, vs in zip(states, v):
                cols[state, :, g] = _guide_columns(s, g, offsets[state, g:g + 1])[:, 0]
                traces[state].append(float(vs))
        done = cycle_gain < DESCENT_TOL
        converged[live[done]] = True
        live = live[~done]
        if not live.size:
            break
    return offsets, traces, cycles, converged


def optimize_multi_waveguide_sweep(s: Scenario, transmit_snrs, beamformer_kind: str = "zf",
                                   objective: str = "sum_rate",
                                   budget: int = 10) -> tuple[PlacementSolution, ...]:
    """Jointly place one antenna per waveguide by coordinate descent, at each
    transmit SNR in ``transmit_snrs`` (linear; ``s.transmit_snr`` is unused).

    Cycles over waveguides; each step scans that guide's offset on a dense
    grid at lambda0/4, then refines the best cell by batched zoom
    (``_zoom_max``) until the bracket is narrower than ``REFINE_TOL_M``. Moving
    one antenna changes one channel column, so every candidate's Gram matrix
    is the other guides' fixed part plus the rank-1 outer product of its own
    column, from which the beamformer's rates follow in closed form. Steps
    are accepted only when they improve the objective, so each recorded
    trace is nondecreasing; a descent stops when a full cycle improves it by
    less than ``DESCENT_TOL`` or the cycle budget runs out. Candidates that leave the
    channel rank-deficient are skipped. Each returned value is re-scored
    through ``build_channel`` and the public beamformers.

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
    rhos = [float(rho) for rho in transmit_snrs]
    offsets, traces, cycles, converged = _descend(
        s, np.asarray(rhos), beamformer_kind, objective, budget)

    def public_objective(layout, rho) -> float:
        try:
            H = build_channel(s, layout, los_states=True)
            B = zf_beamformer(H) if beamformer_kind == "zf" else mrc_beamformer(H)
            report = evaluate_rates(H, B, rho)
        except (RankDeficiencyError, ValueError):
            return -np.inf
        return float(_reduce_objective(report.per_user_rate_bps_hz, objective))

    layouts = [_one_per_guide_layout(row) for row in offsets]
    return tuple(PlacementSolution(layout, public_objective(layout, rho), objective,
                                   int(n), bool(done), tuple(trace))
                 for layout, rho, n, done, trace in zip(layouts, rhos, cycles, converged, traces))


def optimize_multi_waveguide(s: Scenario, beamformer_kind: str = "zf",
                             objective: str = "sum_rate", budget: int = 10) -> PlacementSolution:
    """Jointly place one antenna per waveguide by coordinate descent at
    ``s.transmit_snr``: the one-SNR case of :func:`optimize_multi_waveguide_sweep`."""
    return optimize_multi_waveguide_sweep(s, (s.transmit_snr,), beamformer_kind, objective,
                                          budget)[0]
