"""Pinching-antenna position optimization.

All optimizers are derivative-free: a dense grid scan, then refinement of
the best cell. The objectives are cheap at desk scale and the phase terms
make them multimodal, so scans are both robust and reproducible. The
single-guide optimizers refine by golden section; the multi-waveguide
descent refines by batched zoom, scoring a few passes of evenly spaced
candidates at once. Ties within 1e-12 of the best grid value resolve to the
smallest offset.

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
    zf_beamformer,
)
from .channel import GuidedWave, build_channel, link_gains, link_power
from .scenario import (
    CarrierSpec,
    PinchingLayout,
    Scenario,
    UserSet,
    WaveguideSpec,
    project_onto_waveguide,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
TIE_TOL = 1e-12
BRACKET_TOL_M = 1e-6
PHASE_TOL_RAD = 1e-6
ZOOM_POINTS = 65

OBJECTIVES = ("sum_rate", "max_min_rate", "single_user_rate")


@dataclass(frozen=True, eq=False)
class PlacementSolution:
    """Optimized layout with its objective value and convergence record."""

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


def _golden_max(fn, a: float, b: float, bracket_tol: float = BRACKET_TOL_M,
                max_iter: int = 200):
    """Golden-section maximization on [a, b]; returns (x, value, evals, converged)."""
    evals = 0
    if b - a <= bracket_tol:
        x = 0.5 * (a + b)
        return x, fn(x), 1, True
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    evals += 2
    while b - a > bracket_tol and evals < max_iter:
        if f2 > f1:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = fn(x1)
        evals += 1
    if f1 > f2 or (f1 == f2 and x1 < x2):
        return x1, f1, evals, (b - a) <= bracket_tol
    return x2, f2, evals, (b - a) <= bracket_tol


def maximize_on_segment(fn_batch, lo: float, hi: float, grid_res: float,
                        bracket_tol: float = BRACKET_TOL_M):
    """Grid scan at ``grid_res`` plus golden-section refinement in the best cell.

    ``fn_batch`` maps an array of offsets to an array of objective values.
    Returns (offset, value, evaluations, converged).
    """
    grid = _offset_grid(lo, hi, grid_res)
    n = len(grid)
    vals = np.asarray(fn_batch(grid), dtype=float)
    i = _argmax_tie_smallest(vals)
    step = (hi - lo) / (n - 1)
    a = max(lo, grid[i] - step)
    b = min(hi, grid[i] + step)

    def scalar(x):
        return float(fn_batch(np.asarray([x]))[0])

    xr, fr, extra, converged = _golden_max(scalar, a, b, bracket_tol)
    if fr > vals[i] or (fr == vals[i] and xr < grid[i]):
        return float(xr), float(fr), n + extra, converged
    return float(grid[i]), float(vals[i]), n + extra, converged


def _single_antenna_rates(w: WaveguideSpec, users: np.ndarray, s: Scenario,
                          offsets: np.ndarray) -> np.ndarray:
    """LoS rates of every user for one full-power antenna at each offset.

    Returns an (offsets, users) array; a lone antenna's phase is irrelevant.
    """
    return np.log2(1.0 + s.transmit_snr * link_power(s, w, offsets[:, None], users[None, :, :]))


def place_single_for_group(w: WaveguideSpec, users, objective: str,
                           s: Scenario, grid_res: float | None = None) -> PlacementSolution:
    """Best single-antenna offset for a user group under a rate objective.

    ``objective`` is ``sum_rate`` or ``max_min_rate``; the search is a dense
    grid scan (lambda0/4 by default) refined by golden section until the
    bracket is narrower than 1e-6 m.
    """
    if objective not in ("sum_rate", "max_min_rate"):
        raise ValueError(f"unknown objective {objective!r}")
    pts = users.positions if isinstance(users, UserSet) else np.asarray(users, float).reshape(-1, 3)
    res = default_grid_res(s) if grid_res is None else grid_res

    reduce = np.sum if objective == "sum_rate" else np.min

    def fn(offs):
        return reduce(_single_antenna_rates(w, pts, s, offs), axis=1)

    x, value, evals, converged = maximize_on_segment(fn, 0.0, w.length_m, res)
    layout = PinchingLayout(((x,),), ((1.0,),))
    return PlacementSolution(layout, value, objective, evals, converged, (value,))


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


def align_multi_on_guide(w: WaveguideSpec, gw: GuidedWave, user, n_antennas: int,
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
    lamg = gw.guided_wavelength_m
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
    rate = float(np.log2(1.0 + s.transmit_snr * agg ** 2))
    return PlacementSolution(layout, rate, "single_user_rate", len(targets),
                             miss <= PHASE_TOL_RAD, (rate,))


def coherent_gain_bound(H, user_index: int = 0) -> float:
    """Triangle-inequality ceiling: sum of per-antenna magnitudes for a user."""
    if H.per_antenna_breakdown is None:
        raise ValueError("channel matrix has no per-antenna breakdown")
    return float(np.sum(np.abs(H.per_antenna_breakdown[user_index])))


# ---------------------------------------------------------------------------
# Multi-waveguide coordinate descent
# ---------------------------------------------------------------------------


def _gram_inverse_diag(Mh: np.ndarray) -> np.ndarray:
    """Real diagonal of the inverse of stacked Hermitian KxK Gram matrices.

    Closed forms for K <= 3; degenerate (non positive definite) matrices
    produce non-finite or nonpositive entries, which callers treat as
    invalid candidates.
    """
    K = Mh.shape[-1]
    if K == 1:
        return (1.0 / Mh[..., 0, 0].real)[..., None]
    if K == 2:
        m00, m11 = Mh[..., 0, 0].real, Mh[..., 1, 1].real
        m01 = Mh[..., 0, 1]
        det = m00 * m11 - (m01.real ** 2 + m01.imag ** 2)
        return np.stack([m11 / det, m00 / det], axis=-1)
    if K == 3:
        m00, m11, m22 = Mh[..., 0, 0].real, Mh[..., 1, 1].real, Mh[..., 2, 2].real
        m01, m02, m12 = Mh[..., 0, 1], Mh[..., 0, 2], Mh[..., 1, 2]
        a01 = m01.real ** 2 + m01.imag ** 2
        a02 = m02.real ** 2 + m02.imag ** 2
        a12 = m12.real ** 2 + m12.imag ** 2
        c00 = m11 * m22 - a12
        c11 = m00 * m22 - a02
        c22 = m00 * m11 - a01
        det = m00 * c00 - m11 * a02 - m22 * a01 \
            + 2.0 * (m01 * m12 * np.conj(m02)).real
        return np.stack([c00 / det, c11 / det, c22 / det], axis=-1)
    return np.einsum("...ii->...i", np.linalg.inv(Mh)).real


def _batch_rates(G: np.ndarray, kind: str, transmit_snr: float) -> np.ndarray:
    """Per-user rates for stacked channels (..., K, M) under ZF or MRC."""
    return _gram_rates(np.einsum("...km,...lm->...kl", np.conj(G), G), kind,
                       transmit_snr)


def _gram_rates(Mh: np.ndarray, kind: str, transmit_snr: float) -> np.ndarray:
    """Per-user rates from stacked Gram matrices Mh[k, l] = h_k^H h_l (..., K, K).

    With unit-norm precoding columns and equal power p = 1/K, zero-forcing
    gives sinr_i = p * snr / [Mh^{-1}]_ii and matched beams give cross gains
    |h_j^H w_i|^2 = |Mh[j, i]|^2 / Mh[i, i]. Numerically degenerate
    candidates come out as NaN; callers map them to -inf objectives. The
    descent's final value is re-scored through the public beamforming path.
    """
    K = Mh.shape[-1]
    p = 1.0 / K
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind == "zf":
            inv_diag = _gram_inverse_diag(Mh)
            valid = np.isfinite(inv_diag) & (inv_diag > 0)
            sinr = np.where(valid, p * transmit_snr / inv_diag, np.nan)
        elif kind == "mrc":
            diag = np.einsum("...ii->...i", Mh).real
            cross = (Mh.real ** 2 + Mh.imag ** 2) / diag[..., None, :]
            signal = np.einsum("...ii->...i", cross)
            interference = cross.sum(axis=-1) - signal
            sinr = p * signal * transmit_snr / (1.0 + transmit_snr * p * interference)
        else:
            raise ValueError(f"unknown beamformer kind {kind!r}")
        return np.log2(1.0 + sinr)


def _reduce_objective(rates: np.ndarray, objective: str) -> np.ndarray:
    """Reduce per-user rates (..., K) over users, folding in user order.

    An elementwise fold over the K users is far faster than a reduction
    along the short last axis of a long stack of candidates.
    """
    if objective == "sum_rate":
        fold = np.add
    elif objective == "max_min_rate":
        fold = np.minimum
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return functools.reduce(fold, np.moveaxis(rates, -1, 0))


def _one_per_guide_layout(offsets) -> PinchingLayout:
    return PinchingLayout(tuple((float(x),) for x in offsets),
                          tuple((1.0,) for _ in offsets))


@dataclass(frozen=True, eq=False)
class _CandidateTables:
    """Geometry-only inputs of the descent, shared across transmit SNRs.

    ``outers[g]`` holds the rank-1 Gram terms conj(c_k) c_l of guide g's
    channel column c at every candidate in ``grids[g]``, batch axis last
    (K, K, n) so that each Gram entry is a contiguous array.
    """

    carrier: CarrierSpec
    waveguides: tuple[WaveguideSpec, ...]
    users: np.ndarray
    grid_res: float
    grids: tuple[np.ndarray, ...]
    outers: tuple[np.ndarray, ...]


def _guide_columns(s: Scenario, g: int, xs: np.ndarray) -> np.ndarray:
    """LoS channel columns (K, len(xs)) of guide g with its antenna at offsets xs."""
    return link_gains(s, s.waveguides[g], xs[None, :], s.users.positions[:, None, :])


def _outer(c: np.ndarray) -> np.ndarray:
    """Rank-1 Gram terms of stacked columns: (K, n) -> (K, K, n)."""
    return np.conj(c)[:, None, :] * c[None, :, :]


def _candidate_tables(s: Scenario, grid_res: float | None = None) -> _CandidateTables:
    """Candidate grids (``grid_res``, default lambda0/4) and their Gram terms."""
    res = default_grid_res(s) if grid_res is None else grid_res
    grids = tuple(_offset_grid(0.0, w.length_m, res) for w in s.waveguides)
    outers = tuple(_outer(_guide_columns(s, g, grid)) for g, grid in enumerate(grids))
    return _CandidateTables(s.carrier, s.waveguides, s.users.positions, res, grids, outers)


def _zoom_max(fn_batch, a: float, b: float, x0: float, v0: float,
              bracket_tol: float, points: int = ZOOM_POINTS):
    """Batched zoom refinement of a grid maximum (x0, v0) inside [a, b].

    Each pass scores ``points`` evenly spaced offsets across the bracket and
    shrinks it to one spacing either side of the pass's best offset (exact
    ties to the smallest), until it is narrower than ``bracket_tol``.
    Returns the best (x, value) seen; (x0, v0) is kept unless a candidate
    beats it or ties it at a smaller offset.
    """
    x_best, v_best = x0, v0
    while b - a > bracket_tol and b > a:  # b > a: ends even for bracket_tol <= 0
        xs = np.linspace(a, b, points)
        vals = fn_batch(xs)
        j = int(np.argmax(vals))
        if vals[j] > v_best or (vals[j] == v_best and xs[j] < x_best):
            x_best, v_best = float(xs[j]), float(vals[j])
        h = (b - a) / (points - 1)
        a, b = max(a, xs[j] - h), min(b, xs[j] + h)
    return x_best, v_best


def optimize_multi_waveguide(s: Scenario, beamformer_kind: str = "zf",
                             objective: str = "sum_rate", budget: int = 10,
                             grid_res: float | None = None,
                             tol: float = 1e-9,
                             refine_tol: float = 1e-8, *,
                             _tables: _CandidateTables | None = None) -> PlacementSolution:
    """Jointly place one antenna per waveguide by coordinate descent.

    Cycles over waveguides; each step scans that guide's offset on a dense
    grid (lambda0/4 by default), then refines the best cell by batched zoom
    (``_zoom_max``) until the bracket is narrower than ``refine_tol``. Moving
    one antenna changes one channel column, so every candidate's Gram matrix
    is the other guides' fixed part plus the rank-1 outer product of its own
    column, from which the beamformer's rates follow in closed form. Steps
    are accepted only when they improve the objective, so the recorded trace
    is nondecreasing; the descent stops when a full cycle improves it by less
    than ``tol`` or the cycle budget runs out. Candidates that leave the
    channel rank-deficient are skipped. The returned value is re-scored
    through ``build_channel`` and the public beamformers.

    ``_tables`` (from ``_candidate_tables``) lets callers that sweep the
    transmit SNR over one geometry build the candidate tables once.
    """
    if beamformer_kind not in ("zf", "mrc"):
        raise ValueError(f"unknown beamformer kind {beamformer_kind!r}")
    if objective not in ("sum_rate", "max_min_rate"):
        raise ValueError(f"unknown objective {objective!r}")
    users = s.users.positions
    K, M = users.shape[0], len(s.waveguides)
    if K == 0 or M == 0:
        raise ValueError("need at least one user and one waveguide")
    if beamformer_kind == "zf" and K > M:
        raise ValueError(f"zero-forcing needs users <= waveguides, got {K} > {M}")
    tables = _candidate_tables(s, grid_res) if _tables is None else _tables
    if (tables.carrier is not s.carrier or tables.waveguides is not s.waveguides
            or not np.array_equal(tables.users, users)
            or grid_res not in (None, tables.grid_res)):
        raise ValueError("candidate tables were built for another geometry")
    rho = s.transmit_snr

    def scores(grams: np.ndarray) -> np.ndarray:
        """Objective of stacked Gram matrices (K, K, n), -inf where degenerate."""
        rates = _gram_rates(np.moveaxis(grams, -1, 0), beamformer_kind, rho)
        obj = _reduce_objective(rates, objective)
        return np.where(np.isfinite(obj), obj, -np.inf)

    def public_objective(offsets) -> float:
        layout = _one_per_guide_layout(offsets)
        try:
            H = build_channel(s, layout, los_states=True)
            B = zf_beamformer(H) if beamformer_kind == "zf" else mrc_beamformer(H)
            report = evaluate_rates(H, B, rho)
        except (RankDeficiencyError, ValueError):
            return -np.inf
        return float(_reduce_objective(report.per_user_rate_bps_hz, objective))

    # Start each antenna at the projection of the user nearest to its guide
    # (argmin breaks ties to the lower user index).
    offsets = np.empty(M)
    for g, w in enumerate(s.waveguides):
        proj = project_onto_waveguide(w, users)
        offsets[g] = proj.offset[np.argmin(proj.distance)]
    cols = np.concatenate([_guide_columns(s, g, offsets[g:g + 1])
                           for g in range(M)], axis=1)  # (K, M)

    value = float(scores(_outer(cols).sum(axis=-1)[:, :, None])[0])
    trace = [value]
    cycles = 0
    converged = False
    while cycles < budget:
        cycles += 1
        cycle_gain = 0.0
        for g in range(M):
            fixed = _outer(np.delete(cols, g, axis=1)).sum(axis=-1)[:, :, None]
            obj = scores(fixed + tables.outers[g])
            i = _argmax_tie_smallest(obj)
            if obj[i] == -np.inf:
                continue
            grid = tables.grids[g]
            step = grid[1] - grid[0]
            a = max(0.0, grid[i] - step)
            b = min(s.waveguides[g].length_m, grid[i] + step)
            cand_x, cand_v = _zoom_max(
                lambda xs: scores(fixed + _outer(_guide_columns(s, g, xs))),
                a, b, float(grid[i]), float(obj[i]), refine_tol)
            if cand_v > value:
                cycle_gain += cand_v - value
                value = cand_v
                offsets[g] = cand_x
                cols[:, g] = _guide_columns(s, g, offsets[g:g + 1])[:, 0]
                trace.append(value)
        if cycle_gain < tol:
            converged = True
            break

    layout = _one_per_guide_layout(offsets)
    final = public_objective(offsets)
    return PlacementSolution(layout, final, objective, cycles, converged, tuple(trace))
