"""Principal's robust contracting equation on a bounded (x, y) grid.

State is the pair (output, promised agent utility).  The terminal reward is
U_P(L(x) - U_A^{-1}(y)) and the value marches backward under the upper
game operator G: a sup over contract sensitivities (z, gamma) in a box of
computed radius, against an inf over the nature control.

Scheme
------
Explicit in time.  Each slice estimates derivatives with central
differences on a ghost-padded array, selects the saddle controls nodewise
with the same candidates-first enumeration the pointwise evaluator uses,
then re-realizes the chosen operator monotonically:

* drift terms upwind in each direction,
* own-diffusions by central second differences,
* the cross term by the sign-split four-point stencil, with the cross
  coefficient clipped into the monotone cone when the grid aspect ratio
  cannot represent it (the clipped mass is reported as a diagnostic).

The diffusion matrix of the pair state has rank one (the promised-value
noise is z times the output noise), so the cross stencil is exactly
representable when dy = |z| dx and the clip is inactive there.

Each slice substeps internally against the realized stability bound; the
number of substeps is chosen from the measured erosion of the center
weight, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .hamiltonians import ModelSpec, TIE_TOL, uniform_grid
from . import numerics


@dataclass(frozen=True)
class GridSpec:
    """Bounded tensor grid for the pair state plus the time axis."""

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
        if self.t_steps < 0:
            raise ValueError("negative time step count")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

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
    saturated: int
    qt_nonneg_saturated: int


@dataclass
class PrincipalSolution:
    """Backward value surface with the realized controls per slice."""

    model: ModelSpec
    grid: GridSpec
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
    diagnostics: dict = dc_field(default_factory=dict)

    def value(self, t: float, x: float, y: float) -> float:
        """Trilinear interpolation of the value surface."""
        tg = self.t_grid
        ti = int(np.clip(np.searchsorted(tg, t) - 1, 0, max(len(tg) - 2, 0)))
        if len(tg) == 1:
            wt = 0.0
            ti = 0
            hi = 0
        else:
            wt = float(np.clip((t - tg[ti]) / (tg[ti + 1] - tg[ti]), 0.0, 1.0))
            hi = ti + 1
        lo_plane = self._plane(self.values[ti], x, y)
        hi_plane = self._plane(self.values[hi], x, y)
        return (1.0 - wt) * lo_plane + wt * hi_plane

    def _plane(self, plane: np.ndarray, x: float, y: float) -> float:
        xg, yg = self.x_grid, self.y_grid
        i = int(np.clip(np.searchsorted(xg, x) - 1, 0, len(xg) - 2))
        j = int(np.clip(np.searchsorted(yg, y) - 1, 0, len(yg) - 2))
        wx = float(np.clip((x - xg[i]) / (xg[i + 1] - xg[i]), 0.0, 1.0))
        wy = float(np.clip((y - yg[j]) / (yg[j + 1] - yg[j]), 0.0, 1.0))
        return float((1 - wx) * (1 - wy) * plane[i, j]
                     + wx * (1 - wy) * plane[i + 1, j]
                     + (1 - wx) * wy * plane[i, j + 1]
                     + wx * wy * plane[i + 1, j + 1])


# ---------------------------------------------------------------------------
# slice machinery
# ---------------------------------------------------------------------------

def _static_tables(model: ModelSpec, t: float, X: np.ndarray, Y: np.ndarray,
                   exact_only: bool = False):
    """Per-slice caches: volatilities per nature control and the
    z-independent reward parts for every grid effort."""
    n_grid = model.n_grid()
    a_grid = model.a_grid()
    sig = np.stack([numerics.field(model.vol_sigma, t, X, n) for n in n_grid])
    sig2 = sig * sig
    b_na, base_na = [], []
    if not exact_only:
        for n in n_grid:
            b_row, base_row = [], []
            for a in a_grid:
                b = numerics.field(model.drift_b, t, X, a, n)
                k = numerics.field(model.discount_k, t, X, a, n)
                c = numerics.field(model.cost_c, t, X, a)
                b_row.append(b)
                base_row.append(-k * Y - c)
            b_na.append(b_row)
            base_na.append(base_row)
    return n_grid, a_grid, sig, sig2, b_na, base_na


def _entry_eval(model, t, X, Y, tables, z_spec, gam_rows, p, pt, q, qt, r,
                exact_only=False):
    """Evaluate one enumeration layer: a z choice against a batch of gammas.

    ``z_spec`` is a float (grid layer) or per-node array (candidate layer);
    ``gam_rows`` has shape (G,) for grid gammas or (G, N) for per-node ones.
    With ``exact_only`` the effort enumeration trusts the closed-form
    candidate alone.  Returns the inf-over-nature payoff rows plus
    everything needed to reconstruct the winning controls.
    """
    n_grid, a_grid, sig, sig2, b_na, base_na = tables
    N = X.size
    n_n = len(n_grid)
    zB = np.asarray(z_spec, dtype=float)

    fmax = np.empty((n_n, N))
    astar = np.empty((n_n, N))
    bstar = np.empty((n_n, N))
    lo, hi = model.effort_set_A
    for i, n in enumerate(n_grid):
        rows_f, rows_a, rows_b = [], [], []
        if model.candidate_effort is not None:
            ac = numerics.field(model.candidate_effort, t, X, zB, sig[i])
            ac = np.clip(ac, lo, hi)
            bc = numerics.field(model.drift_b, t, X, ac, n)
            kc = numerics.field(model.discount_k, t, X, ac, n)
            cc = numerics.field(model.cost_c, t, X, ac)
            rows_f.append(-kc * Y - cc + bc * zB)
            rows_a.append(ac)
            rows_b.append(bc)
        if not (exact_only and rows_f):
            for j, a in enumerate(a_grid):
                rows_f.append(base_na[i][j] + b_na[i][j] * zB)
                rows_a.append(np.full(N, a))
                rows_b.append(b_na[i][j])
        if len(rows_f) == 1:
            fmax[i], astar[i], bstar[i] = rows_f[0], rows_a[0], rows_b[0]
        else:
            idx, fbest = numerics.first_argmax(np.stack(rows_f), TIE_TOL)
            fmax[i] = fbest
            astar[i] = numerics.take_rows(np.stack(rows_a), idx)
            bstar[i] = numerics.take_rows(np.stack(rows_b), idx)

    gam = np.asarray(gam_rows, dtype=float)
    gam2 = gam[:, None] if gam.ndim == 1 else gam          # (G, 1|N)
    half_sig2 = 0.5 * sig2                                  # (n, N)
    hall = half_sig2[:, None, :] * gam2[None, :, :] + fmax[:, None, :]
    hval = hall.min(axis=0)                                 # (G, N)

    # gamma-independent part of the payoff, (n, N)
    g0 = (p * bstar + half_sig2 * q + pt * bstar * zB
          + zB * sig2 * r + qt * (zB * zB) * half_sig2)
    gstack = (g0[:, None, :]
              + (pt * half_sig2)[:, None, :] * gam2[None, :, :]
              - (pt * hval)[None, :, :])
    best = gstack.min(axis=0)                               # (G, N)
    n_idx = np.argmin(gstack - best[None, :, :] > TIE_TOL, axis=0)
    return best, n_idx, hval, fmax, astar, bstar, sig2, gam2


def _enumerate_entries(model: ModelSpec, t, X, Y, p, q, radius,
                       include_grid=True):
    """Canonical (z, gamma-batch) layers: clamped closed-form candidates
    first, then the uniform box grid in z-major order."""
    entries = []
    if model.candidate_zgamma is not None:
        N = X.size
        zc = gc = None
        try:
            pairs = model.candidate_zgamma(t, X, Y, p, q)
            zc = np.stack([np.broadcast_to(np.asarray(zv, dtype=float), (N,))
                           for zv, gv in pairs])
            gc = np.stack([np.broadcast_to(np.asarray(gv, dtype=float), (N,))
                           for zv, gv in pairs])
        except Exception:
            zc = gc = None
        if zc is None:
            probe = model.candidate_zgamma(t, float(X[0]), float(Y[0]),
                                           float(p[0]), float(q[0]))
            k = len(probe)
            zc = np.empty((k, N))
            gc = np.empty((k, N))
            for idx in range(N):
                pairs = model.candidate_zgamma(t, float(X[idx]), float(Y[idx]),
                                               float(p[idx]), float(q[idx]))
                if len(pairs) != k:
                    raise ValueError(
                        "candidate list length must not vary by node")
                for s, (zv, gv) in enumerate(pairs):
                    zc[s, idx] = zv
                    gc[s, idx] = gv
        zc = np.clip(zc, -radius, radius)
        gc = np.clip(gc, -radius, radius)
        for s in range(zc.shape[0]):
            entries.append((zc[s], gc[s][None, :]))
    if include_grid:
        z_vals = uniform_grid(-radius, radius, model.z_grid_points)
        gam_vals = np.asarray(uniform_grid(-radius, radius,
                                           model.gamma_grid_points))
        for zv in z_vals:
            entries.append((float(zv), gam_vals))
    if not entries:
        raise ValueError("empty control enumeration")
    return entries


def _select_slice(model, t, X, Y, p, pt, q, qt, r, radius) -> _Selection:
    """Nodewise two-pass saddle selection over the full enumeration.

    Models flagged risk-neutral declare their closed-form candidates exact
    optimizers, so the box grid can never improve on them and ties resolve
    candidate-first regardless; the enumeration then shrinks to the
    candidates alone.  The pointwise evaluator keeps the full enumeration,
    which is what validates the flag.
    """
    exact_only = bool(model.risk_neutral and model.candidate_zgamma is not None
                      and model.candidate_effort is not None)
    tables = _static_tables(model, t, X, Y, exact_only)
    entries = _enumerate_entries(model, t, X, Y, p, q, radius,
                                 include_grid=not exact_only)
    rows = []
    meta = []
    for e_idx, (z_spec, gam_rows) in enumerate(entries):
        best, *_ = _entry_eval(model, t, X, Y, tables, z_spec, gam_rows,
                               p, pt, q, qt, r, exact_only)
        for gk in range(best.shape[0]):
            rows.append(best[gk])
            meta.append((e_idx, gk))
    stack = np.stack(rows)
    top = stack.max(axis=0)
    win = np.argmax(stack >= top - TIE_TOL, axis=0)

    N = X.size
    out = _Selection(
        value=top, z=np.empty(N), gamma=np.empty(N), nature=np.empty(N),
        effort=np.empty(N), sig2=np.empty(N), hval=np.empty(N),
        fstar=np.empty(N), bdrift=np.empty(N), radius=radius,
        sat_mask=np.zeros(N, dtype=bool), saturated=0, qt_nonneg_saturated=0)
    n_grid = np.asarray(model.n_grid())
    node_ids = np.arange(N)
    for row_id in np.unique(win):
        e_idx, gk = meta[row_id]
        z_spec, gam_rows = entries[e_idx]
        best, n_idx, hval, fmax, astar, bstar, sig2, gam2 = _entry_eval(
            model, t, X, Y, tables, z_spec, gam_rows, p, pt, q, qt, r,
            exact_only)
        mask = win == row_id
        nsel = n_idx[gk][mask]
        nodes = node_ids[mask]
        out.z[mask] = np.broadcast_to(np.asarray(z_spec, dtype=float), (N,))[mask]
        out.gamma[mask] = np.broadcast_to(gam2[gk], (N,))[mask]
        out.nature[mask] = n_grid[nsel]
        out.effort[mask] = astar[nsel, nodes]
        out.sig2[mask] = sig2[nsel, nodes]
        out.hval[mask] = hval[gk][mask]
        out.fstar[mask] = fmax[nsel, nodes]
        out.bdrift[mask] = bstar[nsel, nodes]

    edge = radius * (1.0 - 1e-9)
    sat = (np.abs(out.z) >= edge) | (np.abs(out.gamma) >= edge)
    out.sat_mask = sat
    out.saturated = int(np.count_nonzero(sat))
    out.qt_nonneg_saturated = int(np.count_nonzero(sat & (qt >= 0.0)))
    return out


def _derivatives(u: np.ndarray, dx: float, dy: float):
    """Central estimates (p, pt, q, qt, r) on the ghost-padded slice."""
    up = numerics.ghost_pad2(u)
    p = (up[2:, 1:-1] - up[:-2, 1:-1]) / (2.0 * dx)
    pt = (up[1:-1, 2:] - up[1:-1, :-2]) / (2.0 * dy)
    q = (up[2:, 1:-1] - 2.0 * u + up[:-2, 1:-1]) / (dx * dx)
    qt = (up[1:-1, 2:] - 2.0 * u + up[1:-1, :-2]) / (dy * dy)
    r = (up[2:, 2:] - up[2:, :-2] - up[:-2, 2:] + up[:-2, :-2]) / (4.0 * dx * dy)
    return p, pt, q, qt, r


def _monotone_rhs(u, sel: _Selection, dx, dy, shape):
    """Realize the selected operator with monotone stencils.

    Returns (rhs, erosion, clipped_cross_mass); erosion is the nodewise
    decay rate of the center weight that bounds the stable step size.
    """
    nx, ny = shape
    a2 = (0.5 * sel.sig2).reshape(nx, ny)
    z = sel.z.reshape(nx, ny)
    c2 = 0.5 * z * z * sel.sig2.reshape(nx, ny)
    rho = z * sel.sig2.reshape(nx, ny)
    bx = sel.bdrift.reshape(nx, ny)
    hv = sel.hval.reshape(nx, ny)
    gm = sel.gamma.reshape(nx, ny)
    by = 0.5 * sel.sig2.reshape(nx, ny) * gm - hv + bx * z

    cap = np.minimum(2.0 * a2 * dy / dx, 2.0 * c2 * dx / dy)
    rho_used = np.sign(rho) * np.minimum(np.abs(rho), cap)
    defect = float(np.max(np.abs(rho) - np.abs(rho_used), initial=0.0))

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
    cross = np.where(rho_used >= 0.0, cross_p, cross_m)

    rhs = (a2 * dxx + c2 * dyy + rho_used * cross
           + np.maximum(bx, 0.0) * dpx - np.maximum(-bx, 0.0) * dmx
           + np.maximum(by, 0.0) * dpy - np.maximum(-by, 0.0) * dmy)
    erosion = (2.0 * a2 / (dx * dx) + 2.0 * c2 / (dy * dy)
               - np.abs(rho_used) / (dx * dy)
               + np.abs(bx) / dx + np.abs(by) / dy)
    return rhs, erosion, defect


def solve_hjbi(model: ModelSpec, grid: GridSpec, *,
               cfl_safety: float = 0.9, r_min: float = 1e-3,
               radius_cap: float = 1024.0,
               max_substeps: int = 10000) -> PrincipalSolution:
    """March the principal equation backward from the liquidation reward."""
    if not 0.0 < cfl_safety <= 1.0:
        raise ValueError("cfl_safety must lie in (0, 1]")
    xg, yg, tg = grid.x_grid(), grid.y_grid(), grid.t_grid()
    nx, ny, nt = grid.x_nodes, grid.y_nodes, grid.t_steps
    X2, Y2 = np.meshgrid(xg, yg, indexing="ij")
    Xf, Yf = X2.ravel(), Y2.ravel()

    pay = numerics.apply1(model.liquidation_L, xg)
    wage = numerics.apply1(model.utility_agent_inv, yg)
    terminal = numerics.apply1(model.utility_principal,
                               pay[:, None] - wage[None, :])

    values = np.empty((nt + 1, nx, ny))
    values[nt] = terminal
    pol_shape = (nt + 1, nx, ny)
    pol = {name: np.zeros(pol_shape) for name in
           ("z", "gamma", "effort", "nature", "k_rate", "fstar")}

    diags = {"radius_max": 0.0, "substeps_max": 0,
             "monotonicity_defect": 0.0, "saturated_nodes": 0,
             "coercivity_unverified_nodes": 0}

    def select_with_radius(t, p, pt, q, qt, r):
        """Box radius policy.

        Risk-neutral models carry exact candidates, so the envelope radius
        already contains the optimum.  Otherwise the box doubles while a
        coercive node (negative second y-derivative) sits on the boundary
        AND doubling still moves the sup; a boundary optimum on a value
        plateau accepts the smaller box.  Non-coercive nodes never drive
        expansion; they are counted instead, since their semi-relaxed sup
        may be infinite and a box value is the honest truncation.
        """
        radius = max(r_min, float(np.max(np.abs(p))), float(np.max(np.abs(q))))
        sel = _select_slice(model, t, Xf, Yf, p, pt, q, qt, r, radius)
        if not model.risk_neutral:
            while radius < radius_cap:
                expandable = sel.sat_mask & (qt < 0.0)
                if not expandable.any():
                    break
                wider = _select_slice(model, t, Xf, Yf, p, pt, q, qt, r,
                                      2.0 * radius)
                moved = np.abs(wider.value - sel.value)[expandable]
                scale = 1.0 + float(np.max(np.abs(sel.value[expandable])))
                if float(moved.max()) <= 1e-9 * scale:
                    break
                radius *= 2.0
                sel = wider
            diags["saturated_nodes"] += int(
                np.count_nonzero(sel.sat_mask & (qt < 0.0)))
            diags["coercivity_unverified_nodes"] += sel.qt_nonneg_saturated
        diags["radius_max"] = max(diags["radius_max"], sel.radius)
        return sel

    def fill_policy(step, sel):
        kr = np.maximum(sel.fstar + 0.5 * sel.sig2 * sel.gamma - sel.hval, 0.0)
        pol["z"][step] = sel.z.reshape(nx, ny)
        pol["gamma"][step] = sel.gamma.reshape(nx, ny)
        pol["effort"][step] = sel.effort.reshape(nx, ny)
        pol["nature"][step] = sel.nature.reshape(nx, ny)
        pol["k_rate"][step] = kr.reshape(nx, ny)
        pol["fstar"][step] = sel.fstar.reshape(nx, ny)

    if nt == 0:
        p, pt, q, qt, r = (arr.ravel() for arr in
                           _derivatives(terminal, grid.dx, grid.dy))
        sel = select_with_radius(tg[0], p, pt, q, qt, r)
        fill_policy(0, sel)
        return PrincipalSolution(model, grid, tg, xg, yg, values,
                                 pol["z"], pol["gamma"], pol["effort"],
                                 pol["nature"], pol["k_rate"], pol["fstar"],
                                 diags)

    for step in range(nt - 1, -1, -1):
        cur = values[step + 1].copy()
        dt_rem = grid.dt
        substeps = 0
        sel = None
        while dt_rem > 0.0:
            p, pt, q, qt, r = (arr.ravel() for arr in
                               _derivatives(cur, grid.dx, grid.dy))
            sel = select_with_radius(float(tg[step]), p, pt, q, qt, r)
            rhs, erosion, defect = _monotone_rhs(cur, sel, grid.dx, grid.dy,
                                                 (nx, ny))
            diags["monotonicity_defect"] = max(
                diags["monotonicity_defect"], defect)
            emax = float(np.max(erosion))
            if emax * dt_rem <= cfl_safety:
                dt_n = dt_rem
            else:
                dt_n = cfl_safety / emax
            substeps += 1
            if substeps + dt_rem / dt_n - 1.0 > max_substeps:
                raise RuntimeError(
                    "slice needs more than max_substeps stable substeps; "
                    "refine the grid or raise the cap")
            cur = cur + dt_n * rhs
            dt_rem -= dt_n
        values[step] = cur
        fill_policy(step, sel)
        diags["substeps_max"] = max(diags["substeps_max"], substeps)

    for name in pol:
        pol[name][nt] = pol[name][nt - 1]
    return PrincipalSolution(model, grid, tg, xg, yg, values,
                             pol["z"], pol["gamma"], pol["effort"],
                             pol["nature"], pol["k_rate"], pol["fstar"],
                             diags)


# ---------------------------------------------------------------------------
# monotonicity probe
# ---------------------------------------------------------------------------

def probe_monotonicity(model: ModelSpec, grid: GridSpec) -> dict:
    """One backward step's stencil weights, reported as minima.

    A nonnegative ``min_neighbor_weight`` together with a nonnegative
    ``min_center_weight`` certifies the first update is a convex
    combination of slice values.
    """
    xg, yg = grid.x_grid(), grid.y_grid()
    X2, Y2 = np.meshgrid(xg, yg, indexing="ij")
    pay = numerics.apply1(model.liquidation_L, xg)
    wage = numerics.apply1(model.utility_agent_inv, yg)
    terminal = numerics.apply1(model.utility_principal,
                               pay[:, None] - wage[None, :])
    p, pt, q, qt, r = (arr.ravel() for arr in
                       _derivatives(terminal, grid.dx, grid.dy))
    radius = max(1e-3, float(np.max(np.abs(p))), float(np.max(np.abs(q))))
    sel = _select_slice(model, 0.0, X2.ravel(), Y2.ravel(),
                        p, pt, q, qt, r, radius)
    nx, ny = grid.x_nodes, grid.y_nodes
    a2 = (0.5 * sel.sig2).reshape(nx, ny)
    z = sel.z.reshape(nx, ny)
    c2 = 0.5 * z * z * sel.sig2.reshape(nx, ny)
    rho = z * sel.sig2.reshape(nx, ny)
    cap = np.minimum(2.0 * a2 * grid.dy / grid.dx,
                     2.0 * c2 * grid.dx / grid.dy)
    rho_used = np.sign(rho) * np.minimum(np.abs(rho), cap)
    w_x = a2 / grid.dx ** 2 - np.abs(rho_used) / (2.0 * grid.dx * grid.dy)
    w_y = c2 / grid.dy ** 2 - np.abs(rho_used) / (2.0 * grid.dx * grid.dy)
    _, erosion, defect = _monotone_rhs(terminal, sel, grid.dx, grid.dy,
                                       (nx, ny))
    dt = grid.dt if grid.t_steps else 0.0
    return {
        "min_neighbor_weight": float(min(w_x.min(), w_y.min())),
        "min_center_weight": float(1.0 - dt * erosion.max()) if dt else 1.0,
        "clipped_cross_mass": defect,
    }


# ---------------------------------------------------------------------------
# contract extraction and the y0 choice
# ---------------------------------------------------------------------------

@dataclass
class ContractPolicy:
    """Gridded optimal-contract fields ready for pathwise lookup."""

    t_grid: np.ndarray
    x_grid: np.ndarray
    y_grid: np.ndarray
    z: np.ndarray
    gamma: np.ndarray
    effort: np.ndarray
    nature: np.ndarray
    k_rate: np.ndarray
    fstar: np.ndarray

    def slice_index(self, t: float) -> int:
        nt = len(self.t_grid) - 1
        if nt == 0:
            return 0
        dt = self.t_grid[1] - self.t_grid[0]
        return int(np.clip(math.floor((t - self.t_grid[0]) / dt), 0, nt - 1))

    def gather(self, t: float, x, y, *,
               fields=("z", "gamma", "effort", "nature", "k_rate", "fstar"),
               ) -> dict:
        """Nearest-node control arrays for a batch of (x, y) states.

        ``fields`` names the policy arrays looked up (all six by default).
        """
        step = self.slice_index(t)
        xi = np.clip(np.searchsorted(self.x_grid,
                                     np.asarray(x) - 0.5 * (self.x_grid[1] - self.x_grid[0])),
                     0, len(self.x_grid) - 1)
        yi = np.clip(np.searchsorted(self.y_grid,
                                     np.asarray(y) - 0.5 * (self.y_grid[1] - self.y_grid[0])),
                     0, len(self.y_grid) - 1)
        node = xi * len(self.y_grid) + yi
        return {name: getattr(self, name)[step].take(node) for name in fields}


def extract_contract(solution: PrincipalSolution) -> ContractPolicy:
    return ContractPolicy(
        t_grid=solution.t_grid, x_grid=solution.x_grid,
        y_grid=solution.y_grid, z=solution.z, gamma=solution.gamma,
        effort=solution.effort, nature=solution.nature,
        k_rate=solution.k_rate, fstar=solution.fstar)


class Y0Result(tuple):
    """(y0, value, at_upper_edge) with named access."""

    __slots__ = ()

    def __new__(cls, y0, value, at_upper_edge):
        return super().__new__(cls, (y0, value, at_upper_edge))

    @property
    def y0(self):
        return self[0]

    @property
    def value(self):
        return self[1]

    @property
    def at_upper_edge(self):
        return self[2]


def optimize_y0(solution: PrincipalSolution, x0: float,
                reservation: float | None = None) -> Y0Result:
    """Honest argmax of the initial value over admissible promised values.

    The admissible set is the y grid above the agent's reservation
    utility.  The maximizer is found by enumeration (earliest within the
    tie tolerance), never by assuming monotonicity, and the result is
    checked against the raw row maximum before returning.
    """
    yg = solution.y_grid
    row = np.array([solution.value(solution.t_grid[0], x0, y) for y in yg])
    admissible = np.ones(len(yg), dtype=bool) if reservation is None \
        else yg >= reservation - 1e-12
    if not np.any(admissible):
        raise ValueError("no admissible promised value on the grid")
    sub = row[admissible]
    best = float(np.max(sub))
    idx_local = int(np.argmax(sub >= best - TIE_TOL))
    idx = np.flatnonzero(admissible)[idx_local]
    if not row[idx] >= best - TIE_TOL:
        raise RuntimeError(
            f"initial value row has no maximizer (row maximum {best})")
    at_edge = bool(idx == len(yg) - 1)
    return Y0Result(float(yg[idx]), float(row[idx]), at_edge)


# ---------------------------------------------------------------------------
# sandwich check against a smooth candidate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateFunction:
    """Smooth candidate with analytic derivatives for residual checks."""

    value: Callable[[float, float, float], float]
    dt: Callable[[float, float, float], float]
    dx: Callable[[float, float, float], float]
    dy: Callable[[float, float, float], float]
    dxx: Callable[[float, float, float], float]
    dyy: Callable[[float, float, float], float]
    dxy: Callable[[float, float, float], float]


def perron_sandwich_check(model: ModelSpec, candidate: CandidateFunction, *,
                          horizon: float, x_range: tuple[float, float],
                          y_range: tuple[float, float], t_samples: int = 5,
                          x_samples: int = 7, y_samples: int = 7,
                          r_min: float = 1e-3) -> dict:
    """Pointwise residual of a smooth candidate in the interior equation.

    Returns the worst one-sided defects: ``sub_defect`` must vanish for a
    subsolution, ``super_defect`` for a supersolution, and both vanish for
    the saddle value itself.  ``terminal_defect`` compares the candidate at
    the horizon with the liquidation reward.
    """
    from .hamiltonians import eval_G, compute_radius

    sub_defect = 0.0
    super_defect = 0.0
    for t in np.linspace(0.0, horizon, t_samples + 1)[:-1]:
        for x in np.linspace(*x_range, x_samples):
            for y in np.linspace(*y_range, y_samples):
                p = candidate.dx(t, x, y)
                pt = candidate.dy(t, x, y)
                q = candidate.dxx(t, x, y)
                qt = candidate.dyy(t, x, y)
                rr = candidate.dxy(t, x, y)
                radius = compute_radius(model, t, x, y, p, q, pt, qt, rr,
                                        r_min=r_min)
                gval = eval_G(model, t, x, y, p, pt, q, qt, rr, radius).value
                residual = -candidate.dt(t, x, y) - gval
                sub_defect = max(sub_defect, residual)
                super_defect = max(super_defect, -residual)
    terminal_defect = 0.0
    for x in np.linspace(*x_range, x_samples):
        for y in np.linspace(*y_range, y_samples):
            want = model.utility_principal(model.liquidation_L(x)
                                           - model.utility_agent_inv(y))
            got = candidate.value(horizon, x, y)
            terminal_defect = max(terminal_defect, abs(got - want))
    return {"sub_defect": sub_defect, "super_defect": super_defect,
            "terminal_defect": terminal_defect,
            "max_abs_residual": max(sub_defect, super_defect)}
