"""Principal's robust contracting equation on a bounded (x, y) grid.

State is the pair (output, promised agent utility).  The terminal reward is
U_P(L(x) - U_A^{-1}(y)) and the value marches backward under the upper
game operator G: a sup over contract sensitivities (z, gamma) in a box of
computed radius, against an inf over the nature control.

Scheme
------
Explicit in time.  Each time step estimates derivatives of the later slice
with central differences on a ghost-padded array, selects the saddle
controls nodewise once, then realizes the chosen operator monotonically:

* drift terms upwind in each direction,
* own-diffusions by central second differences,
* the cross term by the sign-split four-point stencil, with the cross
  coefficient clipped into the monotone cone when the grid aspect ratio
  cannot represent it (the clipped mass is reported as a diagnostic).

The diffusion matrix of the pair state has rank one (the promised-value
noise is z times the output noise), so the cross stencil is exactly
representable when dy = |z| dx and the clip is inactive there.

The step's CFL substeps march on that frozen stencil, counted from its
measured erosion of the center weight, never assumed; the selection lags
the iterate by at most one step.  Off the edges each substep is a convex
combination of the iterate's values; that a whole step keeps ordered data
ordered is tested, not proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hamiltonians import R_MIN, ModelSpec, TIE_TOL, uniform_grid
from . import numerics

# largest (z, gamma) box radius of the saddle search
_RADIUS_CAP = 1024.0
# (entry, nature, gamma, node) elements one block of the saddle
# enumeration may hold, 1 MB of doubles; a block holds at least one z.
# At 13x13 nodes a block holds 7 of the 21 z, at 49x49 one
_BLOCK_ELEMENTS = 2 ** 17
# stable substeps one time slice may take before the solve gives up
_MAX_SUBSTEPS = 10000
# share of the realized stability bound that one substep uses
CFL_SAFETY = 0.9
# the policy fields a solve records per node, in artifact column order
POLICY_FIELDS = ("z", "gamma", "effort", "nature", "k_rate", "fstar")
# how far, in ulps of max(|g[0]|, |g[-1]|), a policy axis's spacings may
# stray from its first and the axis still count as uniform: np.linspace
# puts each node within about 1.5 such ulps of its exact place, so its
# spacings differ by at most about 6 (2.5 over 20,000 random grids), while
# spacings that differ by more move the cell midpoints, where the
# arithmetic nearest node changes, away from the true ones
_UNIFORM_ULPS = 8


@dataclass(frozen=True)
class GridSpec:
    """Bounded tensor grid for the pair state plus the time axis.

    Construction raises ``ValueError`` unless each space axis has finite
    bounds, the horizon is positive and finite, and every axis holds its
    nodes on distinct doubles."""

    x_lo: float
    x_hi: float
    x_nodes: int
    y_lo: float
    y_hi: float
    y_nodes: int
    t_steps: int
    horizon: float

    def __post_init__(self):
        if self.x_nodes < 3 or self.y_nodes < 3:
            raise ValueError("need at least 3 nodes per space axis")
        if not (self.x_hi > self.x_lo and self.y_hi > self.y_lo):
            raise ValueError("empty space interval")
        if not all(map(math.isfinite, (self.x_lo, self.x_hi, self.y_lo,
                                       self.y_hi))):
            raise ValueError("space bounds must be finite")
        if self.t_steps < 0:
            raise ValueError("negative time step count")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(
                f"horizon must be positive and finite, got {self.horizon}")
        # an interval too narrow for its magnitude puts nodes on equal
        # doubles
        for name, g in (("x", self.x_grid()), ("y", self.y_grid()),
                        ("t", self.t_grid())):
            if not np.all(np.diff(g) > 0.0):
                raise ValueError(
                    f"the {name} interval [{float(g[0])!r}, "
                    f"{float(g[-1])!r}] cannot hold {len(g)} distinct nodes")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.x_nodes - 1)

    @property
    def dy(self) -> float:
        return (self.y_hi - self.y_lo) / (self.y_nodes - 1)

    @property
    def dt(self) -> float:
        if self.t_steps == 0:
            return 0.0
        return self.horizon / self.t_steps

    def x_grid(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.x_nodes)

    def y_grid(self) -> np.ndarray:
        return np.linspace(self.y_lo, self.y_hi, self.y_nodes)

    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.t_steps + 1)


@dataclass
class _Selection:
    """Nodewise saddle controls realized on one slice (flat arrays)."""

    value: np.ndarray
    z: np.ndarray
    gamma: np.ndarray
    nature: np.ndarray
    effort: np.ndarray
    sig2: np.ndarray
    hval: np.ndarray
    fstar: np.ndarray
    bdrift: np.ndarray
    radius: float
    sat_mask: np.ndarray
    qt_nonneg_saturated: int


@dataclass
class PrincipalSolution:
    """Backward value surface with the realized controls per slice."""

    t_grid: np.ndarray
    x_grid: np.ndarray
    y_grid: np.ndarray
    values: np.ndarray          # (t, x, y)
    z: np.ndarray
    gamma: np.ndarray
    effort: np.ndarray
    nature: np.ndarray
    k_rate: np.ndarray
    fstar: np.ndarray
    diagnostics: dict

    def value(self, t: float, x, y):
        """Trilinear interpolation of the value surface, clamped to the box.

        ``x`` and ``y`` may be arrays; scalar inputs return a float.
        """
        v = numerics.surface_value(self.t_grid, self.x_grid, self.y_grid,
                                   self.values, t, x, y)
        return float(v) if np.ndim(v) == 0 else v


# ---------------------------------------------------------------------------
# slice machinery
# ---------------------------------------------------------------------------

def _static_tables(model: ModelSpec, t: float, X: np.ndarray, Y: np.ndarray):
    """Per-slice caches: squared volatilities per nature control on
    (nature, node), of length 1 on an axis the volatility ignores; the
    effort grid as a column ``a_rows``; and the z-independent reward parts
    of every grid effort, drift ``B`` and ``BASE = -k y - c``, on the
    ``numerics`` effort kernel's own shapes.  A model with exact (z, gamma)
    candidates skips the effort grid: ``a_rows``, ``B`` and ``BASE`` have
    no rows then."""
    n_grid = model.n_grid()
    n_col = np.asarray(n_grid)[:, None]
    sig = numerics.field(model.vol_sigma, t, X, n_col)
    sig2 = np.atleast_2d(sig * sig)
    if model.candidate_zgamma is not None:
        a_rows = B = BASE = np.empty((0, 1))
    else:
        a_rows = model.a_grid()[:, None]
        BASE, B = numerics.effort_payoff(model, t, X, Y, a_rows,
                                         n_col[:, :, None])[:2]
    return n_grid, a_rows, sig, sig2, B, BASE


# the fields of a saddle block on (entry, nature, node)
_PER_NATURE = ("effort", "fstar", "bdrift")


def _saddle_block(model, t, X, Y, tables, z, gam, p, pt, q, qt, r):
    """Evaluate a block of enumeration entries on one tensor.

    ``z`` holds one z per entry on (entry, node), of length 1 on the node
    axis for grid entries; ``gam`` holds the gammas on (entry, gamma,
    node), of length 1 on the entry and node axes for the shared gamma
    grid.  The tensors are (entry, nature, gamma, node); per entry the
    arithmetic is the single-entry evaluation's, expression by expression,
    so a block's results do not depend on how many entries it holds.

    The effort enumeration is the ``numerics`` effort kernel's: the
    candidate row, evaluated for every nature in one call, ahead of the
    grid rows ``BASE + B z``, stacked by ``numerics.effort_rows`` on an
    (entry, nature, effort, node) tensor that has a nature axis of length
    1 unless the payoff depends on nature.  The best effort per (entry,
    nature, node) is the earliest within ``TIE_TOL`` of the maximum.
    Returns arrays keyed by field: on (entry, gamma, node) the
    inf-over-nature payoff ``value``, the nature index ``n_idx`` attaining
    it and ``hval``, with ``z`` and ``gamma`` broadcasting there; on
    (entry, nature, node) the best ``effort``, its payoff ``fstar`` and
    its drift ``bdrift``, to be read at ``n_idx``.
    """
    n_grid, a_rows, sig, sig2, B, BASE = tables
    zB = z[:, None, :]                                      # (E, 1, N|1)
    count = len(a_rows)

    ac = numerics.clamped_candidate(model, t, X, zB, sig)
    fc = bc = None
    if ac is not None:
        base, bc, _, _ = numerics.effort_payoff(model, t, X, Y, ac,
                                                np.asarray(n_grid)[:, None])
        fc = base + bc * zB
    idx, fmax = numerics.best_effort(
        numerics.effort_rows(fc, BASE + B * zB[..., None, :], count))
    nodes = np.arange(X.size)
    at = (np.arange(len(z))[:, None, None], np.arange(len(n_grid))[:, None],
          idx, nodes)
    astar = numerics.pick(numerics.effort_rows(ac, a_rows, count), at)
    bstar = numerics.pick(numerics.effort_rows(bc, B, count), at)

    gam4 = gam[:, None]                                     # (E, 1, G, N|1)
    half_sig2 = 0.5 * sig2                                  # (n, N)
    hall = half_sig2[:, None, :] * gam4 + fmax[..., None, :]
    hval = hall.min(axis=-3)                                # (E, G, N)

    # gamma-independent part of the payoff, (E, n, N)
    g0 = (p * bstar + half_sig2 * q + pt * bstar * zB
          + zB * sig2 * r + qt * (zB * zB) * half_sig2)
    gstack = (g0[..., None, :]
              + (pt * half_sig2)[:, None, :] * gam4
              - (pt * hval)[:, None])
    n_idx, best = numerics.first_argmin(gstack, axis=-3)    # (E, G, N)
    return {"value": best, "n_idx": n_idx, "hval": hval, "z": zB,
            "gamma": gam, "effort": astar, "fstar": fmax, "bdrift": bstar}


def _enumeration(model: ModelSpec, t, X, Y, p, q, radius):
    """The enumeration as (z, gamma) blocks for :func:`_saddle_block`: the
    model's exact candidates, clamped to the box, all in one block; or,
    without them, the uniform box grid in z-major order, at most
    ``_BLOCK_ELEMENTS`` (entry, nature, gamma, node) elements, and at
    least one z, per block."""
    if model.candidate_zgamma is not None:
        cand = np.clip([np.broadcast_to(np.asarray(v, dtype=float), X.shape)
                        for pair in model.candidate_zgamma(t, X, Y, p, q)
                        for v in pair], -radius, radius)
        return [(cand[0::2], cand[1::2, None, :])]
    z_vals = uniform_grid(-radius, radius, model.z_grid_points)[:, None]
    gam_vals = uniform_grid(-radius, radius,
                            model.gamma_grid_points)[None, :, None]
    per_z = model.n_grid_points * gam_vals.size * X.size
    step = max(1, _BLOCK_ELEMENTS // per_z)
    return [(z_vals[i:i + step], gam_vals)
            for i in range(0, len(z_vals), step)]


def _read_winners(blocks, win):
    """Each node's controls, read in the block that holds its winning row
    ``win`` among the blocks' stacked (entry, gamma) rows: at the winning
    nature for the fields on (entry, nature, node), else at the winning
    gamma."""
    out = {name: np.empty(win.size, dtype=arr.dtype)
           for name, arr in blocks[0].items() if name != "value"}
    lo = 0
    for b in blocks:
        entries, gammas, _ = b["value"].shape
        at = np.flatnonzero((win >= lo) & (win < lo + entries * gammas))
        e, g = np.divmod(win[at] - lo, gammas)
        n_sel = b["n_idx"][e, g, at]
        for name in out:
            row = n_sel if name in _PER_NATURE else g
            out[name][at] = numerics.pick(b[name], (e, row, at))
        lo += entries * gammas
    return out


def _select_slice(model, t, X, Y, p, pt, q, qt, r, radius) -> _Selection:
    """Nodewise saddle selection over the full enumeration.

    The enumeration is evaluated block by block (:func:`_enumeration`,
    :func:`_saddle_block`): a block's (entry, nature, gamma, node) tensors
    hold at most ``_BLOCK_ELEMENTS`` elements, or one z's worth where one z
    needs more.  Blocks of a few z make each NumPy call large enough that
    the arithmetic, not the call, costs; the cap keeps the tensors near the
    cache size.  The winning (entry, gamma) row per node is the earliest
    within ``TIE_TOL`` of the best over every block's value rows, stacked
    in enumeration order; only the value rows are stacked, and the
    winner's controls are read in the block that holds it.

    A model with ``candidate_zgamma`` has exact saddle controls (the
    ``ModelSpec`` contract): no grid entry can improve on them, and ties
    resolve candidate-first anyway, so they are enumerated alone, against
    the candidate effort alone.  The pointwise ``eval_G`` keeps the box
    grid after them, which is what validates the shortcut.
    """
    tables = _static_tables(model, t, X, Y)
    blocks = [_saddle_block(model, t, X, Y, tables, z, gam, p, pt, q, qt, r)
              for z, gam in _enumeration(model, t, X, Y, p, q, radius)]
    win, top = numerics.first_argmax(
        np.concatenate([b["value"].reshape(-1, X.size) for b in blocks]))
    chosen = _read_winners(blocks, win)
    n_sel = chosen.pop("n_idx")
    nodes = np.arange(X.size)
    edge = radius * (1.0 - 1e-9)
    sat = (np.abs(chosen["z"]) >= edge) | (np.abs(chosen["gamma"]) >= edge)
    # a constant volatility gathers to 0-d; the stencil needs one per node
    sig2 = np.broadcast_to(numerics.pick(tables[3], (n_sel, nodes)), X.size)
    return _Selection(
        value=top, nature=np.asarray(tables[0])[n_sel], sig2=sig2,
        radius=radius, sat_mask=sat,
        qt_nonneg_saturated=int(np.count_nonzero(sat & (qt >= 0.0))), **chosen)


def _derivatives(u: np.ndarray, dx: float, dy: float):
    """Central estimates (p, pt, q, qt, r) on the ghost-padded slice."""
    up = numerics.ghost_pad2(u)
    p = (up[2:, 1:-1] - up[:-2, 1:-1]) / (2.0 * dx)
    pt = (up[1:-1, 2:] - up[1:-1, :-2]) / (2.0 * dy)
    q = (up[2:, 1:-1] - 2.0 * u + up[:-2, 1:-1]) / (dx * dx)
    qt = (up[1:-1, 2:] - 2.0 * u + up[1:-1, :-2]) / (dy * dy)
    r = (up[2:, 2:] - up[2:, :-2] - up[:-2, 2:] + up[:-2, :-2]) / (4.0 * dx * dy)
    return p, pt, q, qt, r


class _Stencil(NamedTuple):
    """A step's monotone stencil, frozen for its substeps: diffusion weights,
    the clipped cross coefficient, drifts, the center weight's erosion rate
    (the stable step bound) and the largest cross mass the clip removed."""

    a2: np.ndarray
    c2: np.ndarray
    rho: np.ndarray
    bx: np.ndarray
    by: np.ndarray
    erosion: np.ndarray
    defect: float


def _stencil(sel: _Selection, dx, dy, shape) -> _Stencil:
    """Build the monotone stencil of the selected controls on ``shape``."""
    sig2 = sel.sig2.reshape(shape)
    z = sel.z.reshape(shape)
    a2 = 0.5 * sig2
    c2 = 0.5 * z * z * sig2
    rho = z * sig2
    cap = np.minimum(2.0 * a2 * dy / dx, 2.0 * c2 * dx / dy)
    rho_used = np.sign(rho) * np.minimum(np.abs(rho), cap)
    defect = float(np.max(np.abs(rho) - np.abs(rho_used), initial=0.0))
    bx = sel.bdrift.reshape(shape)
    by = a2 * sel.gamma.reshape(shape) - sel.hval.reshape(shape) + bx * z
    erosion = (2.0 * a2 / (dx * dx) + 2.0 * c2 / (dy * dy)
               - np.abs(rho_used) / (dx * dy)
               + np.abs(bx) / dx + np.abs(by) / dy)
    return _Stencil(a2, c2, rho_used, bx, by, erosion, defect)


def _apply(st: _Stencil, u, dx, dy):
    """The stencil's right-hand side on slice ``u``: central own
    diffusions, the sign-split cross stencil and upwind drifts."""
    up = numerics.ghost_pad2(u)
    ctr = up[1:-1, 1:-1]
    dxx = (up[2:, 1:-1] - 2.0 * ctr + up[:-2, 1:-1]) / (dx * dx)
    dyy = (up[1:-1, 2:] - 2.0 * ctr + up[1:-1, :-2]) / (dy * dy)
    dpx = (up[2:, 1:-1] - ctr) / dx
    dmx = (ctr - up[:-2, 1:-1]) / dx
    dpy = (up[1:-1, 2:] - ctr) / dy
    dmy = (ctr - up[1:-1, :-2]) / dy
    cross_p = (2.0 * ctr + up[2:, 2:] + up[:-2, :-2]
               - up[2:, 1:-1] - up[:-2, 1:-1]
               - up[1:-1, 2:] - up[1:-1, :-2]) / (2.0 * dx * dy)
    cross_m = -(2.0 * ctr + up[2:, :-2] + up[:-2, 2:]
                - up[2:, 1:-1] - up[:-2, 1:-1]
                - up[1:-1, 2:] - up[1:-1, :-2]) / (2.0 * dx * dy)
    cross = np.where(st.rho >= 0.0, cross_p, cross_m)
    return (st.a2 * dxx + st.c2 * dyy + st.rho * cross
            + np.maximum(st.bx, 0.0) * dpx - np.maximum(-st.bx, 0.0) * dmx
            + np.maximum(st.by, 0.0) * dpy - np.maximum(-st.by, 0.0) * dmy)


def _terminal_reward(model: ModelSpec, xg, yg) -> np.ndarray:
    """Liquidation reward U_P(L(x) - U_A^{-1}(y)) on the (x, y) grid.

    Raises ``ValueError`` naming the count of non-finite nodes and the
    first of them, since a march from such data fails far from its cause.
    """
    pay = numerics.apply1(model.liquidation_L, xg)
    wage = numerics.apply1(model.utility_agent_inv, yg)
    reward = numerics.apply1(model.utility_principal,
                             pay[:, None] - wage[None, :])
    bad = ~np.isfinite(reward)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"terminal reward is not finite at {int(bad.sum())} of "
            f"{bad.size} nodes, first at (x={float(xg[i])!r}, "
            f"y={float(yg[j])!r}): {float(reward[i, j])!r}")
    return reward


def _new_diagnostics() -> dict:
    return {"radius_max": 0.0, "substeps_max": 0, "selections": 0,
            "monotonicity_defect": 0.0, "saturated_nodes": 0,
            "coercivity_unverified_nodes": 0}


def _select_with_radius(model, t, X, Y, p, pt, q, qt, r, diags) -> _Selection:
    """Select a slice's saddle controls under the box radius policy.

    Exact candidates (``candidate_zgamma``) lie in the envelope radius,
    which then never doubles.  Otherwise the box doubles while a
    coercive node (negative second y-derivative) sits on the boundary
    AND doubling still moves the sup; a boundary optimum on a value
    plateau accepts the smaller box.  Non-coercive nodes never drive
    expansion; they are counted instead, since their semi-relaxed sup
    may be infinite and a box value is the honest truncation.  The
    radius and saturation counts accumulate into ``diags``.

    The doubled box is probed on the expandable nodes alone, and only an
    accepted doubling re-selects the whole slice.  This relies on the
    selection being node-wise: a node's result depends on its own inputs
    and the shared radius, never on other nodes (pinned by
    ``tests/test_principal.py::TestNodeLocality``).
    """
    radius = max(R_MIN, float(np.max(np.abs(p))), float(np.max(np.abs(q))))
    sel = _select_slice(model, t, X, Y, p, pt, q, qt, r, radius)
    if model.candidate_zgamma is None:
        while radius < _RADIUS_CAP:
            idx = np.flatnonzero(sel.sat_mask & (qt < 0.0))
            if not idx.size:
                break
            probe = _select_slice(model, t, X[idx], Y[idx], p[idx], pt[idx],
                                  q[idx], qt[idx], r[idx], 2.0 * radius)
            moved = np.abs(probe.value - sel.value[idx])
            scale = 1.0 + float(np.max(np.abs(sel.value[idx])))
            if float(moved.max()) <= 1e-9 * scale:
                break
            radius *= 2.0
            sel = _select_slice(model, t, X, Y, p, pt, q, qt, r, radius)
        diags["saturated_nodes"] += int(
            np.count_nonzero(sel.sat_mask & (qt < 0.0)))
        diags["coercivity_unverified_nodes"] += sel.qt_nonneg_saturated
    diags["radius_max"] = max(diags["radius_max"], sel.radius)
    return sel


def _flat_derivatives(u, grid: GridSpec):
    """Flat (p, pt, q, qt, r) of one slice, ordered like the raveled nodes."""
    return tuple(arr.ravel() for arr in _derivatives(u, grid.dx, grid.dy))


def _substep(emax: float, dt_rem: float) -> float:
    """The next substep under erosion ``emax``: all of ``dt_rem`` if stable."""
    return dt_rem if emax * dt_rem <= CFL_SAFETY else CFL_SAFETY / emax


def solve_hjbi(model: ModelSpec, grid: GridSpec) -> PrincipalSolution:
    """March the principal equation backward from the liquidation reward."""
    xg, yg, tg = grid.x_grid(), grid.y_grid(), grid.t_grid()
    nx, ny, nt = grid.x_nodes, grid.y_nodes, grid.t_steps
    X2, Y2 = np.meshgrid(xg, yg, indexing="ij")
    Xf, Yf = X2.ravel(), Y2.ravel()

    terminal = _terminal_reward(model, xg, yg)
    values = np.empty((nt + 1, nx, ny))
    values[nt] = terminal
    pol = {name: np.zeros((nt + 1, nx, ny)) for name in POLICY_FIELDS}
    diags = _new_diagnostics()

    def select(t, u):
        diags["selections"] += 1
        return _select_with_radius(model, t, Xf, Yf,
                                   *_flat_derivatives(u, grid), diags)

    def fill_policy(step, sel):
        kr = np.maximum(sel.fstar + 0.5 * sel.sig2 * sel.gamma - sel.hval, 0.0)
        for name in POLICY_FIELDS:
            got = kr if name == "k_rate" else getattr(sel, name)
            pol[name][step] = got.reshape(nx, ny)

    for step in range(nt - 1, -1, -1):
        sel = select(float(tg[step]), values[step + 1])
        st = _stencil(sel, grid.dx, grid.dy, (nx, ny))
        diags["monotonicity_defect"] = max(diags["monotonicity_defect"],
                                           st.defect)
        emax = float(np.max(st.erosion))
        if emax * grid.dt > CFL_SAFETY * _MAX_SUBSTEPS:
            raise RuntimeError(f"slice needs more than {_MAX_SUBSTEPS} "
                               "stable substeps; refine the grid")
        cur, dt_rem, substeps = values[step + 1], grid.dt, 0
        while dt_rem > 0.0:
            dt_n = _substep(emax, dt_rem)
            cur = cur + dt_n * _apply(st, cur, grid.dx, grid.dy)
            dt_rem -= dt_n
            substeps += 1
        values[step] = cur
        fill_policy(step, sel)
        diags["substeps_max"] = max(diags["substeps_max"], substeps)

    if nt:
        for name in pol:
            pol[name][nt] = pol[name][nt - 1]
    else:
        fill_policy(0, select(tg[0], terminal))
    return PrincipalSolution(tg, xg, yg, values, diagnostics=diags, **pol)


# ---------------------------------------------------------------------------
# monotonicity probe
# ---------------------------------------------------------------------------

def probe_monotonicity(model: ModelSpec, grid: GridSpec) -> dict:
    """The solver's first backward step's stencil weights, as minima.

    As in ``solve_hjbi``, the step selects from the terminal slice at the
    last time node under the solver's own radius policy; the center weight
    is its first substep's.  Nonnegative minima certify that substep is a
    convex combination of slice values.
    """
    xg, yg = grid.x_grid(), grid.y_grid()
    X2, Y2 = np.meshgrid(xg, yg, indexing="ij")
    terminal = _terminal_reward(model, xg, yg)
    sel = _select_with_radius(model, float(grid.t_grid()[grid.t_steps - 1]),
                              X2.ravel(), Y2.ravel(),
                              *_flat_derivatives(terminal, grid),
                              _new_diagnostics())
    st = _stencil(sel, grid.dx, grid.dy, (grid.x_nodes, grid.y_nodes))
    w_x = st.a2 / grid.dx ** 2 - np.abs(st.rho) / (2.0 * grid.dx * grid.dy)
    w_y = st.c2 / grid.dy ** 2 - np.abs(st.rho) / (2.0 * grid.dx * grid.dy)
    emax = float(np.max(st.erosion))
    return {
        "min_neighbor_weight": float(min(w_x.min(), w_y.min())),
        "min_center_weight": 1.0 - _substep(emax, grid.dt) * emax,
        "clipped_cross_mass": st.defect,
    }


# ---------------------------------------------------------------------------
# contract extraction and the y0 choice
# ---------------------------------------------------------------------------

def _nearest_node(g, v):
    """Index of the node of the uniform grid ``g`` nearest ``v``:
    ``clip(ceil((v - g[0]) / h - 0.5), 0, n - 1)`` with h = g[1] - g[0],
    so a value on a cell midpoint takes the lower node.  fmin sends NaN and
    +inf to the last node, -inf goes to the first.  On a grid that is not
    uniform the result is not the nearest node; ``ContractPolicy`` refuses
    such axes.  The value is worked in one float buffer; only the final
    cast allocates another."""
    with np.errstate(over="ignore"):
        u = np.subtract(v, g[0], out=np.empty(np.shape(v)))
        np.divide(u, g[1] - g[0], out=u)
    np.subtract(u, 0.5, out=u)
    np.ceil(u, out=u)
    np.fmin(u, len(g) - 1, out=u)
    return np.maximum(u, 0.0, out=u).astype(np.intp)


def _finite_increasing(g) -> bool:
    return bool(np.all(np.isfinite(g)) and np.all(np.diff(g) > 0.0))


def _uniform(g) -> bool:
    """Whether each spacing of ``g`` is within ``_UNIFORM_ULPS`` ulps of
    max(|g[0]|, |g[-1]|) of the first."""
    if len(g) < 3:
        return True
    gaps = np.diff(g)
    slack = _UNIFORM_ULPS * np.spacing(max(abs(g[0]), abs(g[-1])))
    return bool(np.all(np.abs(gaps - gaps[0]) <= slack))


@dataclass
class ContractPolicy:
    """Gridded optimal-contract fields ready for pathwise lookup.

    Each field has shape (len(t_grid), len(x_grid), len(y_grid)).  The x
    and y axes are finite, strictly increasing, at least two nodes long
    and uniform (see ``_UNIFORM_ULPS``), so :meth:`gather` finds a
    value's nearest node by arithmetic; the time axis is one node or
    finite, strictly increasing and uniform, as :meth:`slice_index`
    assumes.  Construction, and so ``dataclasses.replace``, raises
    ``ValueError`` otherwise.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    y_grid: np.ndarray
    z: np.ndarray
    gamma: np.ndarray
    effort: np.ndarray
    nature: np.ndarray
    k_rate: np.ndarray
    fstar: np.ndarray

    def __post_init__(self):
        for name in ("x_grid", "y_grid"):
            g = getattr(self, name)
            if np.ndim(g) != 1 or len(g) < 2:
                raise ValueError(f"policy {name} needs at least 2 nodes")
            if not _finite_increasing(g):
                raise ValueError(f"policy {name} is not finite and "
                                 "strictly increasing")
            if not _uniform(g):
                raise ValueError(f"policy {name} is not uniform")
        if np.ndim(self.t_grid) != 1:
            raise ValueError("policy t_grid is not 1-D")
        # one time node (a zero-step solve) has no spacing to check
        if len(self.t_grid) > 1 and not _finite_increasing(self.t_grid):
            raise ValueError("policy t_grid is not finite and strictly "
                             "increasing")
        if not _uniform(self.t_grid):
            raise ValueError("policy t_grid is not uniform")
        shape = (len(self.t_grid), len(self.x_grid), len(self.y_grid))
        for name in POLICY_FIELDS:
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValueError(f"policy field {name} has shape {got}, "
                                 f"not {shape}")

    def slice_index(self, t: float) -> int:
        nt = len(self.t_grid) - 1
        if nt == 0:
            return 0
        dt = self.t_grid[1] - self.t_grid[0]
        return min(max(math.floor((t - self.t_grid[0]) / dt), 0), nt - 1)

    def gather(self, t: float, x, y, *, fields=POLICY_FIELDS) -> dict:
        """Nearest-node control arrays for a batch of (x, y) states.

        ``fields`` names the policy arrays looked up (all six by default).
        The node is :func:`_nearest_node` on each axis: the value's offset
        from the first node in spacings, rounded half down and clamped to
        the axis, which is the nearest node because the axis is uniform.
        """
        step = self.slice_index(t)
        node = _nearest_node(self.x_grid, x)
        np.multiply(node, len(self.y_grid), out=node)
        node = node + _nearest_node(self.y_grid, y)
        return {name: getattr(self, name)[step].take(node) for name in fields}


def extract_contract(solution: PrincipalSolution) -> ContractPolicy:
    return ContractPolicy(
        t_grid=solution.t_grid, x_grid=solution.x_grid,
        y_grid=solution.y_grid,
        **{name: getattr(solution, name) for name in POLICY_FIELDS})


class Y0Result(NamedTuple):
    """Chosen promised value, the initial value there, and whether it sits
    on the upper edge of the y grid."""

    y0: float
    value: float
    at_upper_edge: bool


def optimize_y0(solution: PrincipalSolution, x0: float,
                reservation: float | None = None) -> Y0Result:
    """Honest argmax of the initial value over admissible promised values.

    The admissible set is the y grid above the agent's reservation
    utility.  The maximizer is found by enumeration (earliest within the
    tie tolerance), never by assuming monotonicity, and the result is
    checked against the raw row maximum before returning.
    """
    yg = solution.y_grid
    row = solution.value(solution.t_grid[0], x0, yg)
    admissible = np.ones(len(yg), dtype=bool) if reservation is None \
        else yg >= reservation - 1e-12
    if not np.any(admissible):
        raise ValueError("no admissible promised value on the grid")
    idx_local, best = numerics.first_argmax(row[admissible])
    idx = np.flatnonzero(admissible)[idx_local]
    if not row[idx] >= best - TIE_TOL:
        raise RuntimeError(
            f"initial value row has no maximizer (row maximum {best})")
    at_edge = bool(idx == len(yg) - 1)
    return Y0Result(float(yg[idx]), float(row[idx]), at_edge)
