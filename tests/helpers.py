"""Shared test utilities: model builders, brute-force oracles and the
pointwise residual of a smooth candidate value.

The oracles re-run every reduction as plain nested Python loops with the
same enumeration order and tie-break rule as the library (candidates first,
ascending grids, earliest argument within 1e-12 of the exact optimum), so
agreement is required bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from robustcontract import ModelSpec, GrowthParams
from robustcontract import (eval_F, eval_G, eval_g, export, level_set_V,
                            numerics, principal)
from robustcontract.agent import AgentSolution
from robustcontract.hamiltonians import R_MIN, uniform_grid

TIE = 1e-12


# increasing grids for the nearest-node and search tests: two nodes,
# negative, offset far from zero for their span, fine, non-uniform
SEARCH_GRIDS = {
    "2": np.linspace(0.0, 1.0, 2),
    "3-negative": np.linspace(-7.5, -2.25, 3),
    "13-offset": np.linspace(1e3, 1e3 + 0.3, 13),
    "41": np.linspace(-8.0, 8.0, 41),
    "401-offset": np.linspace(-3.3, 0.7, 401),
    "non-uniform": np.array([-2.0, -1.999, -1.0, 0.0, 1e-9, 0.5, 3.0,
                             3.25, 40.0]),
}


def search_probes(grid):
    """Nodes, cell midpoints, the doubles either side of each, the
    non-finite and extreme values, -0.0 and 200k normals about the grid."""
    base = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1])])
    rng = np.random.default_rng(7)
    return np.concatenate([
        base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf),
        [np.inf, -np.inf, np.nan, 1e300, -1e300, -0.0],
        grid[len(grid) // 2] + np.ptp(grid) * rng.standard_normal(200_000)])


def build_model(b=None, sigma=None, c=None, k=None, A=(0.0, 1.0), N=(1.0, 2.0),
                a_points=21, n_points=5, z_points=21, gamma_points=21,
                kappa=1.0, allow_degenerate_vol=False, u_a=None, u_a_inv=None,
                u_p=None, L=None, truncation_M=2.0, **extra) -> ModelSpec:
    """Compact custom model for tests; defaults are the linear benchmark."""
    ident = lambda v: v
    return ModelSpec(
        drift_b=b if b is not None else (lambda t, x, a, n: a),
        vol_sigma=sigma if sigma is not None else (lambda t, x, n: n),
        cost_c=c if c is not None else (lambda t, x, a: 0.5 * a * a),
        discount_k=k if k is not None else (lambda t, x, a, n: 0.0),
        utility_agent=u_a if u_a is not None else ident,
        utility_agent_inv=u_a_inv if u_a_inv is not None else ident,
        utility_principal=u_p if u_p is not None else ident,
        liquidation_L=L if L is not None else ident,
        effort_set_A=A, nature_set_N=N,
        growth_params=GrowthParams(ell=1.0, m=2.0, m_lower=1.0, kappa=kappa),
        truncation_M=truncation_M,
        a_grid_points=a_points, n_grid_points=n_points,
        z_grid_points=z_points, gamma_grid_points=gamma_points,
        allow_degenerate_vol=allow_degenerate_vol,
        **extra,
    )


def nearest(g, v):
    """The nearest-node rule of a uniform grid written out plainly: the
    position (v - g[0]) / h in cells, h = g[1] - g[0], rounded half down
    and clamped to the grid, with NaN at the last node."""
    with np.errstate(over="ignore"):
        cells = (np.asarray(v, dtype=float) - g[0]) / (g[1] - g[0])
    node = np.clip(np.ceil(cells - 0.5), 0, len(g) - 1)
    return np.where(np.isnan(node), len(g) - 1, node).astype(np.intp)


def reference_simulate(model, policy, nature, cfg, effort_transform=None):
    """``sim.simulate_system`` written out plainly: the policy read at the
    :func:`nearest` node, the whole payoff evaluated at the played effort,
    the discount and the discounted cost updated at every step, and the
    realized quadratic variation as the mean of the finite squares.
    Returns the ``SimResult`` fields as a dict."""
    from robustcontract import sim

    steps = cfg.steps_for(float(policy.t_grid[-1]))
    rows = reference_draw(cfg.seed, cfg.paths, steps)
    X = np.full(cfg.paths, float(cfg.x0))
    Y = np.full(cfg.paths, float(cfg.y0))
    disc, cost = np.ones(cfg.paths), np.zeros(cfg.paths)
    logw, qv = np.zeros(cfg.paths), np.empty(steps)
    ny = len(policy.y_grid)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(steps):
            t = k * cfg.dt
            node = nearest(policy.x_grid, X) * ny + nearest(policy.y_grid, Y)
            at = {name: getattr(policy, name)[policy.slice_index(t)].take(node)
                  for name in ("z", "k_rate", "nature")}
            n_now = nature.value_at(t) if nature is not None else at["nature"]
            a, fstar, sig, _ = sim._response(model, t, X, Y, at["z"], n_now)
            if effort_transform is not None:
                a = np.clip(effort_transform(t, X, a), *model.effort_set_A)
            _, b, k_a, c_a = numerics.effort_payoff(model, t, X, Y, a, n_now)
            cost = cost + disc * c_a * cfg.dt
            disc = disc * np.exp(-k_a * cfg.dt)
            dw = math.sqrt(cfg.dt) * rows[k]
            if cfg.girsanov_mode:
                dX = sig * dw
                theta = np.where(b != 0.0, b / np.where(sig > 0.0, sig, np.nan),
                                 0.0)
                logw += theta * dw - 0.5 * theta * theta * cfg.dt
            else:
                dX = b * cfg.dt + sig * dw
            Y = Y + at["z"] * dX - fstar * cfg.dt + at["k_rate"] * cfg.dt
            sq = dX * dX
            kept = sq[np.isfinite(sq)]
            qv[k] = float(np.mean(kept) / cfg.dt) if kept.size else math.nan
            X = X + dX
        pay = numerics.apply1(model.utility_agent_inv, Y)
        agent = disc * numerics.apply1(model.utility_agent, pay) - cost
        principal_samples = numerics.apply1(
            model.utility_principal,
            numerics.apply1(model.liquidation_L, X) - pay)
    weights = np.exp(logw) if cfg.girsanov_mode else None
    good = (np.isfinite(X) & np.isfinite(Y) & np.isfinite(agent)
            & np.isfinite(principal_samples))
    if weights is not None:
        good &= np.isfinite(weights)

    def estimate(samples):
        vals = samples[good]
        return sim._estimate(vals if weights is None else vals * weights[good])

    return {"principal_estimate": estimate(principal_samples),
            "agent_estimate": estimate(agent), "terminal_x": X,
            "terminal_y": Y, "realized_qv": qv,
            "paths_used": int(np.count_nonzero(good)),
            "discount_bounds": (float(np.min(disc[good])),
                                float(np.max(disc[good]))),
            "weights": weights}


def reference_draw(seed, paths, steps):
    """The increment splitting rule executed directly: one spawned
    SeedSequence child and one PCG64 stream per time step, filling that
    step's row of a (steps, paths) matrix."""
    out = np.empty((steps, paths))
    for k in range(steps):
        child = np.random.SeedSequence(seed, spawn_key=(k,))
        out[k] = np.random.Generator(np.random.PCG64(child)).standard_normal(paths)
    return out


def oracle_write_table(path, names, columns):
    """The columnar writer cell by cell: every number through
    ``export.render_float``, one row at a time."""
    cols = [np.atleast_1d(np.asarray(c, dtype=float)) for c in columns]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(" ".join(names) + "\n")
        for i in range(cols[0].shape[0] if cols else 0):
            fh.write(" ".join(export.render_float(c[i]) for c in cols) + "\n")


def first_within(values, target):
    for i, v in enumerate(values):
        if abs(v - target) <= TIE:
            return i
    raise AssertionError("target not in enumeration")


def effort_enumeration(model, t, x, z, sigma):
    out = []
    if model.candidate_effort is not None:
        out.append(model.clamp_effort(model.candidate_effort(t, x, z, sigma)))
    out.extend(float(a) for a in model.a_grid())
    return out


def oracle_F_star(model, t, x, y, z, Sigma, tol=None):
    """(value, arg_a, arg_n) by exhaustive loops."""
    level = level_set_V(model, t, x, Sigma, tol)
    assert level, "oracle needs a nonempty level set"
    efforts = effort_enumeration(model, t, x, z, float(np.sqrt(Sigma)))
    inner = []
    rows = []
    for a in efforts:
        row = [eval_F(model, t, x, y, z, a, n) for n in level]
        rows.append(row)
        inner.append(min(row))
    value = max(inner)
    ia = first_within(inner, value)
    jn = first_within(rows[ia], inner[ia])
    return value, efforts[ia], level[jn]


def oracle_H(model, t, x, y, z, gamma):
    """(value, arg_a, arg_n) of the n-outer, effort-inner reduction."""
    pair_vals = []
    per_n = []
    grid = [float(n) for n in model.n_grid()]
    for n in grid:
        sig = model.vol_sigma(t, x, n)
        efforts = effort_enumeration(model, t, x, z, sig)
        fs = [eval_F(model, t, x, y, z, a, n) for a in efforts]
        pair_vals.append(0.5 * sig * sig * gamma + max(fs))
        per_n.append((efforts, fs))
    value = min(pair_vals)
    jn = first_within(pair_vals, value)
    efforts, fs = per_n[jn]
    ia = first_within(fs, max(fs))
    return value, efforts[ia], grid[jn]


def oracle_G(model, t, x, y, p, p_tilde, q, q_tilde, r, radius):
    """(value, z, gamma, n) by exhaustive loops over the control box."""
    pairs = []
    if model.candidate_zgamma is not None:
        for (zc, gc) in model.candidate_zgamma(t, x, y, p, q):
            pairs.append((min(max(zc, -radius), radius),
                          min(max(gc, -radius), radius)))
    for zv in uniform_grid(-radius, radius, model.z_grid_points):
        for gv in uniform_grid(-radius, radius, model.gamma_grid_points):
            pairs.append((float(zv), float(gv)))
    n_grid = [float(n) for n in model.n_grid()]
    outer = []
    rows = []
    for (zv, gv) in pairs:
        row = [eval_g(model, t, x, y, p, p_tilde, q, q_tilde, r, zv, gv, n)
               for n in n_grid]
        rows.append(row)
        outer.append(min(row))
    value = max(outer)
    k = first_within(outer, value)
    jn = first_within(rows[k], outer[k])
    return value, pairs[k][0], pairs[k][1], n_grid[jn]


def full_field(fn, t, x, *args):
    """A coefficient broadcast to the full shape of its arguments."""
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(np.asarray(fn(t, x, *args), dtype=float),
                           np.broadcast(x, *args).shape)


def ghost_pad(v):
    """Pad a 1-D node array with linearly extrapolated ghost values.

    The extrapolation keeps first differences and zeroes the one-sided
    second difference at the boundary, which is the monotone choice for a
    domain-truncated problem.
    """
    v = np.asarray(v, dtype=float)
    return np.concatenate(([2.0 * v[0] - v[1]], v, [2.0 * v[-1] - v[-2]]))


def central_differences(v, dx):
    """First (central) and second differences of a ghost-padded array."""
    vp = ghost_pad(v)
    z = (vp[2:] - vp[:-2]) / (2.0 * dx)
    gam = (vp[2:] - 2.0 * vp[1:-1] + vp[:-2]) / (dx * dx)
    return z, gam


def oracle_saddle_step(model, t, x_arr, v, z, gam):
    """``agent._saddle_step`` on the full (nature, effort, node) tensor.

    Every coefficient is broadcast to that tensor and the effort maximum
    is taken once per nature control, whatever the coefficients ignore.
    """
    n_col = np.asarray(model.n_grid())[:, None]
    a_grid = model.a_grid()
    A = np.broadcast_to(a_grid[None, :, None],
                        (len(n_col), len(a_grid), x_arr.size))
    sig = full_field(model.vol_sigma, t, x_arr, n_col)
    sig2 = sig * sig
    if model.candidate_effort is not None:
        a_c = np.clip(full_field(model.candidate_effort, t, x_arr, z, sig),
                      *model.effort_set_A)
        A = np.concatenate([a_c[:, None, :], A], axis=1)
    n3 = n_col[:, :, None]
    b = full_field(model.drift_b, t, x_arr, A, n3)
    k = full_field(model.discount_k, t, x_arr, A, n3)
    c = full_field(model.cost_c, t, x_arr, A)
    a_idx, f_best = numerics.first_argmax(-k * v - c + b * z, axis=1)
    n_idx, _ = numerics.first_argmin(0.5 * sig2 * gam + f_best)
    nodes = np.arange(x_arr.size)
    at = (n_idx, a_idx[n_idx, nodes], nodes)
    return (A[at], n_col[n_idx, 0], sig2[n_idx, nodes], b[at], k[at], c[at])


def reference_solve_agent(model, contract, *, x_lo, x_hi, x_nodes,
                          t_steps, horizon):
    """``agent.solve_agent`` restated plainly.

    The CFL scan takes the largest sigma^2 one time node at a time, on the
    full (nature, node) tensor.  Each backward step then takes fresh
    ghost-padded central differences, the full-tensor saddle
    (:func:`oracle_saddle_step`), forward slopes by ``np.diff`` with each
    wall repeating its one-sided slope, and folds the step's largest |z|
    into the gradient bound by builtin ``max``: a NaN there compares false,
    so a step whose largest |z| is NaN leaves the bound as it was.
    """
    t_grid = np.linspace(0.0, horizon, t_steps + 1)
    x_grid = np.linspace(x_lo, x_hi, x_nodes)
    dx = x_grid[1] - x_grid[0]
    dt = t_grid[1] - t_grid[0]
    n_col = np.asarray(model.n_grid())[:, None]
    sig2_max = 0.0
    for t in t_grid:
        sig = full_field(model.vol_sigma, float(t), x_grid, n_col)
        sig2_max = max(sig2_max, float(np.max(sig * sig)))
    cfl = dt * sig2_max / (dx * dx)
    if cfl > 1.0 + 1e-12:
        raise ValueError(f"stability bound violated: {cfl}")

    shape = (t_steps + 1, x_nodes)
    values = np.empty(shape)
    effort = np.zeros(shape)
    nature = np.full(shape, model.nature_set_N[0], dtype=float)
    values[t_steps] = np.broadcast_to(np.asarray(
        model.utility_agent(contract.payment(x_grid)), dtype=float), x_nodes)
    max_grad = 0.0
    for step in range(t_steps - 1, -1, -1):
        v = values[step + 1]
        z, gam = central_differences(v, dx)
        a_star, n_star, sig2, b, k, c = oracle_saddle_step(
            model, float(t_grid[step]), x_grid, v, z, gam)
        slope = np.diff(v) / dx
        up = np.concatenate((slope, slope[-1:]))
        dn = np.concatenate((slope[:1], slope))
        b_pos = np.maximum(b, 0.0)
        b_neg = np.maximum(-b, 0.0)
        values[step] = v + dt * (0.5 * sig2 * gam - k * v - c
                                 + b_pos * up - b_neg * dn)
        effort[step] = a_star
        nature[step] = n_star
        max_grad = max(max_grad, float(np.max(np.abs(z))))
    effort[t_steps] = effort[t_steps - 1]
    nature[t_steps] = nature[t_steps - 1]
    return AgentSolution(
        t_grid=t_grid, x_grid=x_grid, values=values, effort=effort,
        nature=nature, cfl_number=float(cfl),
        max_abs_value=float(np.max(np.abs(values))),
        max_abs_gradient=max_grad)


def _reference_entry(model, t, X, Y, sig, z, gam, p, pt, q, qt, r,
                     exact_only):
    """One enumeration entry, a z (a float, or one per node) against its
    gammas, (G,) or (1, N), on full (nature, effort, node) and (nature,
    gamma, node) tensors.  Returns (G, N) rows keyed by field."""
    n_col = np.asarray(model.n_grid())[:, None]
    a_grid = np.empty(0) if exact_only else model.a_grid()
    n, N = len(n_col), X.size
    A = np.broadcast_to(a_grid[None, :, None], (n, len(a_grid), N))
    if model.candidate_effort is not None:
        a_c = np.clip(full_field(model.candidate_effort, t, X,
                                 np.broadcast_to(z, (n, N)), sig),
                      *model.effort_set_A)
        A = np.concatenate([a_c[:, None, :], A], axis=1)
    n3 = n_col[:, :, None]
    b = full_field(model.drift_b, t, X, A, n3)
    k = full_field(model.discount_k, t, X, A, n3)
    c = full_field(model.cost_c, t, X, A)
    a_idx, fmax = numerics.first_argmax(-k * Y - c + b * z, axis=1)
    at = (np.arange(n)[:, None], a_idx, np.arange(N))
    astar, bstar = A[at], b[at]
    sig2 = sig * sig
    half_sig2 = 0.5 * sig2
    gam2 = gam[:, None] if gam.ndim == 1 else gam
    hval = (half_sig2[:, None, :] * gam2[None] + fmax[:, None, :]).min(axis=0)
    g0 = (p * bstar + half_sig2 * q + pt * bstar * z
          + z * sig2 * r + qt * (z * z) * half_sig2)
    n_idx, best = numerics.first_argmin(
        g0[:, None, :] + (pt * half_sig2)[:, None, :] * gam2[None]
        - (pt * hval)[None])
    rows = np.broadcast_to(np.arange(N), best.shape)
    return {"value": best, "z": np.broadcast_to(z, best.shape),
            "gamma": np.broadcast_to(gam2, best.shape), "n_idx": n_idx,
            "hval": hval, "effort": astar[n_idx, rows],
            "fstar": fmax[n_idx, rows], "bdrift": bstar[n_idx, rows]}


def reference_select_slice(model, t, X, Y, p, pt, q, qt, r, radius):
    """``principal._select_slice`` as a per-entry enumeration: the model's
    clamped (z, gamma) candidates alone, against the candidate effort
    alone, or else each grid z against every grid gamma, one entry at a
    time; every field of every entry concatenated in that order, and each
    node's controls read at the earliest row within 1e-12 of its best
    value."""
    exact_only = model.candidate_zgamma is not None
    n_col = np.asarray(model.n_grid())[:, None]
    sig = full_field(model.vol_sigma, t, X, n_col)
    entries = []
    if exact_only:
        for zc, gc in model.candidate_zgamma(t, X, Y, p, q):
            zc, gc = (np.clip(np.broadcast_to(np.asarray(v, dtype=float),
                                              X.shape), -radius, radius)
                      for v in (zc, gc))
            entries.append((zc, gc[None, :]))
    else:
        gammas = uniform_grid(-radius, radius, model.gamma_grid_points)
        entries += [(float(zv), gammas)
                    for zv in uniform_grid(-radius, radius,
                                           model.z_grid_points)]
    rows = [_reference_entry(model, t, X, Y, sig, z, gam, p, pt, q, qt, r,
                             exact_only) for z, gam in entries]
    stacked = {name: np.concatenate([row[name] for row in rows])
               for name in rows[0]}
    win, top = numerics.first_argmax(stacked.pop("value"))
    nodes = np.arange(X.size)
    chosen = {name: arr[win, nodes] for name, arr in stacked.items()}
    n_sel = chosen.pop("n_idx")
    edge = radius * (1.0 - 1e-9)
    sat = (np.abs(chosen["z"]) >= edge) | (np.abs(chosen["gamma"]) >= edge)
    return principal._Selection(
        value=top, nature=n_col[n_sel, 0], sig2=(sig * sig)[n_sel, nodes],
        radius=radius, sat_mask=sat, saturated=int(np.count_nonzero(sat)),
        qt_nonneg_saturated=int(np.count_nonzero(sat & (qt >= 0.0))),
        **chosen)


def radius_policy_at(model, t, x, y, p, pt, q, qt, r):
    """``principal._select_with_radius`` on the one node (x, y) with
    scalar derivatives, under fresh diagnostics."""
    return principal._select_with_radius(
        model, t, *np.array([[x], [y], [p], [pt], [q], [qt], [r]]),
        principal._new_diagnostics())


def oracle_select_with_radius(model, t, X, Y, p, pt, q, qt, r, diags):
    """The box radius policy with every probe a whole-slice selection.

    The doubled box is selected on all nodes, its sup compared on the
    expandable ones (saturated with ``qt < 0``), and kept when it moved.
    """
    radius = max(R_MIN, float(np.max(np.abs(p))), float(np.max(np.abs(q))))
    sel = principal._select_slice(model, t, X, Y, p, pt, q, qt, r, radius)
    if model.candidate_zgamma is None:
        while radius < principal._RADIUS_CAP:
            expandable = sel.sat_mask & (qt < 0.0)
            if not expandable.any():
                break
            wider = principal._select_slice(model, t, X, Y, p, pt, q, qt, r,
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


def per_substep_values(model, grid):
    """The principal's backward march with a fresh selection on every
    CFL substep: each substep re-runs the radius policy on the current
    iterate and builds its stencil from that selection, where
    ``principal.solve_hjbi`` selects once per time step and marches the
    substeps on that step's frozen stencil.  Returns the (t, x, y) values.
    """
    xg, yg, tg = grid.x_grid(), grid.y_grid(), grid.t_grid()
    X2, Y2 = np.meshgrid(xg, yg, indexing="ij")
    X, Y = X2.ravel(), Y2.ravel()
    values = np.empty((grid.t_steps + 1, grid.x_nodes, grid.y_nodes))
    values[-1] = principal._terminal_reward(model, xg, yg)
    diags = principal._new_diagnostics()
    safety = principal.CFL_SAFETY
    for step in range(grid.t_steps - 1, -1, -1):
        cur, dt_rem = values[step + 1], grid.dt
        while dt_rem > 0.0:
            sel = principal._select_with_radius(
                model, float(tg[step]), X, Y,
                *principal._flat_derivatives(cur, grid), diags)
            st = principal._stencil(sel, grid.dx, grid.dy, cur.shape)
            emax = float(np.max(st.erosion))
            dt_n = dt_rem if emax * dt_rem <= safety else safety / emax
            cur = cur + dt_n * principal._apply(st, cur, grid.dx, grid.dy)
            dt_rem -= dt_n
        values[step] = cur
    return values


def random_polynomial_model(rng: np.random.Generator, max_points=7):
    """Random bounded-coefficient model with grids of at most max_points."""
    b0, b1, b2, b3, b4 = rng.uniform(-2.0, 2.0, size=5)
    s0 = rng.uniform(0.2, 2.0)
    s1 = rng.uniform(0.0, 1.5)
    s2 = rng.uniform(0.0, 1.0)
    c1 = rng.uniform(0.0, 1.5)
    c2 = rng.uniform(0.1, 2.0)
    k0 = rng.uniform(-0.8, 0.8)
    k1 = rng.uniform(-0.5, 0.5)
    n_lo = rng.uniform(0.1, 1.0)
    n_hi = n_lo + rng.uniform(0.1, 2.0)
    a_bar = rng.uniform(0.5, 2.0)
    kappa = abs(k0) + abs(k1) * a_bar * n_hi + 0.1
    counts = rng.integers(2, max_points + 1, size=4)
    return build_model(
        b=lambda t, x, a, n: b0 + b1 * a + b2 * n + b3 * a * n + b4 * x,
        sigma=lambda t, x, n: s0 + s1 * n + s2 * n * n,
        c=lambda t, x, a: c1 * a + c2 * a * a,
        k=lambda t, x, a, n: k0 + k1 * a * n,
        A=(0.0, float(a_bar)), N=(float(n_lo), float(n_hi)),
        a_points=int(counts[0]), n_points=int(counts[1]),
        z_points=int(counts[2]), gamma_points=int(counts[3]),
        kappa=float(kappa),
    )


def polynomial_with_candidate():
    """A random polynomial model whose payoff reads nature, with a
    candidate effort that reads the volatility."""
    model = random_polynomial_model(np.random.default_rng(5))
    return dataclasses.replace(
        model, candidate_effort=lambda t, x, z, sig: 0.8 * z - 0.3 * sig)


# scalar-only primitives (a Python ``if`` or ``float()`` on the arguments),
# which the model wraps in ``hamiltonians.elementwise``
SCALAR_ONLY = {
    "b": lambda t, x, a, n: a if n > 1.5 else 0.5 * a + 0.1 * x,
    "sigma": lambda t, x, n: n if x < 0.5 else 1.25 * n,
    "c": lambda t, x, a: 0.5 * a * a if x < 0.0 else a * a,
    "k": lambda t, x, a, n: 0.25 * a if x > 0.0 else 0.0,
    "candidate_effort": lambda t, x, z, sigma: float(np.clip(z / sigma, 0.0, 1.0)),
}


def girsanov_weight(model, path, effort_path, nature_path, *, dt):
    """Discrete stochastic exponential of the drift/volatility ratio, one
    scalar step at a time: the reference for the engine's ``logw``.

    ``path`` must be simulated under the driftless dynamics; the returned
    weight converts its expectations to the drifted measure.  The ratio
    theta = b/sigma is taken as 0 wherever b vanishes; a nonzero drift at
    zero volatility has no equivalent measure change and raises.
    """
    x = np.asarray(path, dtype=float)
    a = np.asarray(effort_path, dtype=float)
    nu = np.asarray(nature_path, dtype=float)
    if x.ndim != 1 or len(x) != len(a) + 1 or len(a) != len(nu):
        raise ValueError("need len(path) = len(effort_path)+1 = len(nature_path)+1")
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    log_weight = 0.0
    for k in range(len(a)):
        t = k * dt
        b = model.drift_b(t, float(x[k]), float(a[k]), float(nu[k]))
        if b == 0.0:
            continue
        sig = model.vol_sigma(t, float(x[k]), float(nu[k]))
        if sig <= 0.0:
            raise ValueError(
                "nonzero drift at zero volatility admits no likelihood ratio")
        theta = b / sig
        dw = (float(x[k + 1]) - float(x[k])) / sig
        log_weight += theta * dw - 0.5 * theta * theta * dt
    return math.exp(log_weight)


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
                          y_range: tuple[float, float], t_samples: int,
                          x_samples: int, y_samples: int) -> dict:
    """Pointwise residual of a smooth candidate in the interior equation.

    Returns the worst one-sided defects: ``sub_defect`` must vanish for a
    subsolution, ``super_defect`` for a supersolution, and both vanish for
    the saddle value itself.  ``terminal_defect`` compares the candidate at
    the horizon with the liquidation reward.  Each point's box radius is
    the principal solver's own: its radius policy on that one node.
    """
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
                radius = radius_policy_at(model, t, x, y, p, pt, q, qt,
                                          rr).radius
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
