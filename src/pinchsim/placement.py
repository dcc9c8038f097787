"""Pinching-antenna position optimization.

All optimizers are derivative-free: a dense grid scan, then refinement of
the best cell. The objectives are cheap at desk scale and the phase terms
make them multimodal, so scans are both robust and reproducible. One
refiner, the batched zoom :func:`_zoom_max`, serves the single-guide group
placement and every step of the multi-waveguide descent: it scores a few
passes of evenly spaced candidates at once. Ties within 1e-12 of the best
grid value resolve to the smallest offset.

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
from .channel import GuidedWave, build_channel, link_gains, link_power
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

OBJECTIVES = ("sum_rate", "max_min_rate", "single_user_rate")


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
    """Offset serving one user best: the clamped projection onto the guide."""
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
                           s: Scenario, grid_res: float | None = None) -> PlacementSolution:
    """Best single-antenna offset for a user group under a rate objective.

    ``objective`` is ``sum_rate`` or ``max_min_rate``; the search is a dense
    grid scan (lambda0/4 by default) refined by batched zoom until the
    bracket is narrower than 1e-6 m.
    """
    if objective not in ("sum_rate", "max_min_rate"):
        raise ValueError(f"unknown objective {objective!r}")
    pts = users.positions if isinstance(users, UserSet) else np.asarray(users, float).reshape(-1, 3)
    res = default_grid_res(s) if grid_res is None else grid_res

    reduce = np.sum if objective == "sum_rate" else np.min

    def fn(offs):
        return reduce(_single_antenna_rates(w, pts, s, offs), axis=-1)

    grid = _offset_grid(0.0, w.length_m, res)
    vals = fn(grid)
    i = _argmax_tie_smallest(vals)
    x, value = _zoom_max(lambda rows, xs: fn(xs), grid, [i], [vals[i]], BRACKET_TOL_M)
    layout = PinchingLayout(((float(x[0]),),), ((1.0,),))
    return PlacementSolution(layout, float(value[0]), objective, 1, True, (float(value[0]),))


def _wrap(phase):
    return np.angle(np.exp(1j * np.asarray(phase)))


def _solve_phase_offset(phase_fn, lo: float, hi: float, target: float,
                        samples: int = 65, tol_rad: float = 1e-9):
    """Offset in [lo, hi] whose phase matches ``target`` modulo 2*pi.

    Phase is strictly decreasing in the offset, so a wrapped sign change
    brackets a true root; bisection then drives the residual below
    ``tol_rad``. Falls back to the least-misaligned sample when the window
    does not span the target.
    """
    xs = np.linspace(lo, hi, samples)
    delta = _wrap(phase_fn(xs) - target)
    bracket = None
    for i in range(samples - 1):
        if delta[i] >= 0.0 >= delta[i + 1] and delta[i] - delta[i + 1] < np.pi:
            bracket = (xs[i], xs[i + 1], delta[i], delta[i + 1])
            break
    if bracket is None:
        j = int(np.argmin(np.abs(delta)))
        return float(xs[j]), float(abs(delta[j]))
    a, b, da, db = bracket
    for _ in range(80):
        m = 0.5 * (a + b)
        dm = float(_wrap(phase_fn(m) - target))
        if abs(dm) <= tol_rad:
            return float(m), abs(dm)
        if dm > 0:
            a, da = m, dm
        else:
            b, db = m, dm
    m = a if abs(da) <= abs(db) else b
    return float(m), float(min(abs(da), abs(db)))


def align_multi_on_guide(w: WaveguideSpec, user, n_antennas: int,
                         s: Scenario, min_spacing: float | None = None,
                         phase_candidates: int = 96) -> PlacementSolution:
    """Place n antennas on one guide so their contributions add coherently.

    Stage 1 centers a uniformly spaced array (spacing = ``min_spacing``,
    default lambda0/2) on the user's projection. Stage 2 nudges each offset
    within half a guided wavelength to equalize every antenna's total phase
    (in-guide plus free-space) at the user, preserving ordering and spacing;
    the common target phase is scanned so the chain of per-antenna windows
    stays feasible.
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

    proj = project_onto_waveguide(w, user)
    center = min(max(proj.offset, span / 2.0), w.length_m - span / 2.0)
    coarse = center + (np.arange(n_antennas) - (n_antennas - 1) / 2.0) * spacing
    lamg = GuidedWave.for_waveguide(s.carrier, w).guided_wavelength_m
    weight = 1.0 / math.sqrt(n_antennas)

    def phase_fn(x):
        """Total phase (in-guide plus free-space) at the user, wrapped."""
        return np.angle(link_gains(s, w, x, user))

    targets = np.concatenate([
        phase_fn(coarse),
        np.linspace(-np.pi, np.pi, phase_candidates, endpoint=False),
    ])

    best = None
    for target in targets:
        offsets = []
        miss = 0.0
        feasible = True
        prev = -np.inf
        for i, c in enumerate(coarse):
            lo = max(0.0, c - lamg / 2.0, prev + spacing)
            hi = min(w.length_m - (n_antennas - 1 - i) * spacing, c + lamg / 2.0)
            if hi < lo:
                feasible = False
                break
            x, err = _solve_phase_offset(phase_fn, lo, hi, float(target))
            offsets.append(x)
            miss = max(miss, err)
            prev = x
        if not feasible:
            continue
        offs = np.asarray(offsets)
        agg = float(np.abs(np.sum(link_gains(s, w, offs, user, weight))))
        if best is None or agg > best[0]:
            best = (agg, offs, miss)

    if best is None:
        raise ValueError("no feasible phase-aligned arrangement found")
    agg, offs, miss = best
    layout = PinchingLayout(tuple([tuple(offs)]),
                            tuple([tuple([weight] * n_antennas)]), spacing)
    rate = float(shannon_rate(s.transmit_snr * agg ** 2))
    return PlacementSolution(layout, rate, "single_user_rate", 1,
                             miss <= PHASE_TOL_RAD, (rate,))


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


def _zoom_max(fn, grid, idx, v0, bracket_tol: float, points: int = ZOOM_POINTS):
    """Batched zoom refinement of grid maxima ``grid[idx]``, valued ``v0``.

    Arrays hold one row per state. Each row's bracket starts one grid step
    either side of its maximum, clipped to the grid. Each pass scores
    ``points`` evenly spaced offsets across every open bracket at once,
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
        xs = np.linspace(a[rows], b[rows], points, axis=-1)
        vals = fn(rows, xs)
        best = np.arange(rows.size), np.argmax(vals, axis=-1)
        xj, vj = xs[best], vals[best]
        better = (vj > v[rows]) | ((vj == v[rows]) & (xj < x[rows]))
        x[rows[better]], v[rows[better]] = xj[better], vj[better]
        h = (b[rows] - a[rows]) / (points - 1)
        a[rows], b[rows] = np.maximum(a[rows], xj - h), np.minimum(b[rows], xj + h)
        rows = rows[(b[rows] - a[rows] > bracket_tol) & (b[rows] > a[rows])]
    return x, v


def _descend(s: Scenario, transmit_snrs: np.ndarray, kind: str, objective: str,
             budget: int, grid_res: float | None, tol: float, refine_tol: float):
    """Coordinate descent of one state per transmit SNR, stepped in lockstep.

    The states share the geometry, the start and the candidate tables: the
    rank-1 Gram terms conj(c_k) c_l of each guide's channel column c at
    every grid offset, candidate axis last (K, K, n) so that each Gram entry
    is a contiguous array. A state leaves the lockstep when a cycle improves
    it by less than ``tol``. Returns offsets (B, M), traces, cycles and
    converged flags per state.
    """
    users = s.users.positions
    K, M, B = users.shape[0], len(s.waveguides), len(transmit_snrs)
    res = default_grid_res(s) if grid_res is None else grid_res
    grids = [_offset_grid(0.0, w.length_m, res) for w in s.waveguides]
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

            x, v = _zoom_max(zoom_scores, grid, idx, best, refine_tol)
            up = v > value[live[pos]]
            pos, x, v = pos[up], x[up], v[up]
            states = live[pos]
            cycle_gain[pos] += v - value[states]
            value[states] = v
            offsets[states, g] = x
            for state, vs in zip(states, v):
                cols[state, :, g] = _guide_columns(s, g, offsets[state, g:g + 1])[:, 0]
                traces[state].append(float(vs))
        done = cycle_gain < tol
        converged[live[done]] = True
        live = live[~done]
        if not live.size:
            break
    return offsets, traces, cycles, converged


def optimize_multi_waveguide_sweep(s: Scenario, transmit_snrs, beamformer_kind: str = "zf",
                                   objective: str = "sum_rate", budget: int = 10,
                                   grid_res: float | None = None, tol: float = 1e-9,
                                   refine_tol: float = 1e-8) -> tuple[PlacementSolution, ...]:
    """Jointly place one antenna per waveguide by coordinate descent, at each
    transmit SNR in ``transmit_snrs`` (linear; ``s.transmit_snr`` is unused).

    Cycles over waveguides; each step scans that guide's offset on a dense
    grid (lambda0/4 by default), then refines the best cell by batched zoom
    (``_zoom_max``) until the bracket is narrower than ``refine_tol``. Moving
    one antenna changes one channel column, so every candidate's Gram matrix
    is the other guides' fixed part plus the rank-1 outer product of its own
    column, from which the beamformer's rates follow in closed form. Steps
    are accepted only when they improve the objective, so each recorded
    trace is nondecreasing; a descent stops when a full cycle improves it by
    less than ``tol`` or the cycle budget runs out. Candidates that leave the
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
        s, np.asarray(rhos), beamformer_kind, objective, budget, grid_res, tol, refine_tol)

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
                             objective: str = "sum_rate", budget: int = 10,
                             grid_res: float | None = None,
                             tol: float = 1e-9,
                             refine_tol: float = 1e-8) -> PlacementSolution:
    """Jointly place one antenna per waveguide by coordinate descent at
    ``s.transmit_snr``: the one-SNR case of :func:`optimize_multi_waveguide_sweep`."""
    return optimize_multi_waveguide_sweep(s, (s.transmit_snr,), beamformer_kind, objective,
                                          budget, grid_res, tol, refine_tol)[0]
