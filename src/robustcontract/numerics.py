"""Shared grid utilities for the finite-difference solvers.

The solvers evaluate each model coefficient ``fn(t, x, *controls)`` once
per step on a tensor: nodes last, control grids (nature, effort) on leading
axes.  :func:`field` returns the primitive's own result, which broadcasts to
the shape of its arguments but may omit an axis the primitive ignores (a
constant comes back 0-d, a drift free of nature has no nature axis), so the
model's structure shows in the shapes.  ``ModelSpec`` has already wrapped
any primitive written for scalars, so every call here is one array call; a
wrapped primitive returns the full shape.
The effort kernel owns the agent's response rule for the agent and
principal solvers and the engine: :func:`clamped_candidate` is the effort
enumeration's first entry, ahead of the a-grid (:func:`effort_rows` stacks
it there), :func:`effort_parts` evaluates an effort's drift, discount and
cost, and :func:`effort_payoff` adds the base ``-k*y - c`` in ``eval_F``'s
expression order, so ``base + b*z`` is ``-k*y - c + b*z`` bit for bit.  Each caller keeps its
own reduction and runs it on the smallest shape the coefficients allow;
broadcasting never changes an elementwise result, so the reductions agree
bit for bit with the full tensor's.
Selection helpers reproduce the evaluator tie-break rule (earliest
enumerated index within ``TIE_TOL``) along one axis of such a tensor, so
vectorized kernels and scalar evaluators agree about which control wins.
"""

from __future__ import annotations

import math

import numpy as np

#: an arg-optimum is the earliest index within this of the optimum
TIE_TOL = 1e-12


def _distinct(name: str, g: np.ndarray) -> np.ndarray:
    """``g``, refused where an interval too narrow for its magnitude puts
    two of its nodes on one double."""
    if not np.all(np.diff(g) > 0.0):
        raise ValueError(f"the {name} interval [{float(g[0])!r}, "
                         f"{float(g[-1])!r}] cannot hold {len(g)} distinct "
                         "nodes")
    return g


def axis(name: str, lo: float, hi: float, nodes: int) -> np.ndarray:
    """``np.linspace(lo, hi, nodes)`` for the grid keys ``{name}_lo``,
    ``{name}_hi`` and ``{name}_nodes``: the one space-axis rule of both
    solvers.  ``ValueError`` names the key unless, checked in this order,
    there are at least 3 nodes, both ends are finite, the interval is not
    empty and the nodes fall on distinct doubles."""
    if nodes < 3:
        raise ValueError(f"{name}_nodes must be at least 3, got {nodes}")
    for key, value in ((f"{name}_lo", lo), (f"{name}_hi", hi)):
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
    if not hi > lo:
        raise ValueError(f"{name}_hi must exceed {name}_lo, got "
                         f"[{lo!r}, {hi!r}]")
    return _distinct(name, np.linspace(lo, hi, nodes))


def time_axis(t_steps: int, horizon: float) -> np.ndarray:
    """``np.linspace(0, horizon, t_steps + 1)``: ``ValueError`` names the
    key unless there is at least 1 step and the horizon is positive and
    finite, and when the steps do not fall on distinct doubles."""
    if t_steps < 1:
        raise ValueError(f"t_steps must be at least 1, got {t_steps}")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    return _distinct("t", np.linspace(0.0, horizon, t_steps + 1))


def field(fn, t, x, *args):
    """Evaluate ``fn(t, x, *args)`` as a float array.

    The result keeps the primitive's own shape: it broadcasts to the shape
    of ``x`` and ``args`` but may omit (or have length 1 on) an axis the
    primitive ignores, so a constant comes back 0-d.  Callers broadcast it
    where they need the full shape.
    """
    return np.asarray(fn(t, np.asarray(x, dtype=float), *args), dtype=float)


def clamped_candidate(model, t, x, z, sig):
    """The closed-form effort candidate clipped into the effort set, on the
    candidate's own shape (:func:`field`); None when the model has no
    candidate hook."""
    if model.candidate_effort is not None:
        return np.clip(field(model.candidate_effort, t, x, z, sig),
                       *model.effort_set_A)


def effort_parts(model, t, x, a, n, c=None):
    """Drift, discount rate and cost ``(b, k, c)`` of effort ``a``, each on
    its own :func:`field` shape; a given cost ``c``, which is free of ``n``,
    is reused."""
    b = field(model.drift_b, t, x, a, n)
    k = field(model.discount_k, t, x, a, n)
    if c is None:
        c = field(model.cost_c, t, x, a)
    return b, k, c


def effort_payoff(model, t, x, y, a, n, c=None):
    """Running-payoff parts ``(base, b, k, c)`` with ``base = -k*y - c``
    and ``(b, k, c)`` from :func:`effort_parts`."""
    b, k, c = effort_parts(model, t, x, a, n, c)
    return -k * y - c, b, k, c


def effort_rows(cand, rows, count):
    """The candidate row ahead of ``count`` effort rows on the effort axis
    (second to last) of a (nature, effort, node) tensor; ``rows`` as they
    are when ``cand`` is None.

    ``cand`` broadcasts to (nature, node) and ``rows`` to (nature, count,
    node); either may omit an axis it ignores.  Only the axes the
    concatenation needs are broadcast: the result has a nature axis only
    when an input has one.
    """
    if cand is None:
        return rows
    cand = np.atleast_1d(cand)[..., None, :]
    *lead, _, nodes = np.broadcast_shapes(cand.shape, np.shape(rows))
    return np.concatenate([np.broadcast_to(cand, (*lead, 1, nodes)),
                           np.broadcast_to(rows, (*lead, count, nodes))],
                          axis=-2)


def best_effort(pay):
    """:func:`first_argmax` over the effort axis (second to last) of a
    payoff on a (nature, effort, node) tensor.  A payoff without that axis
    is the same for every effort, so the first effort wins with it."""
    pay = np.asarray(pay)
    if pay.ndim < 2:
        return 0, pay
    return first_argmax(pay, axis=-2)


def pick(arr, at):
    """``arr`` at the index arrays ``at`` of the full tensor it broadcasts
    to, without broadcasting it: an axis ``arr`` lacks is skipped and one
    of length 1 is read at 0, so the result may omit axes too."""
    arr = np.asarray(arr)
    if not arr.ndim:
        return arr[()]
    # squeezing the length-1 axes leaves fewer index arrays to broadcast
    return arr.squeeze()[tuple(i for i, n in zip(at[len(at) - arr.ndim:],
                                                 arr.shape) if n > 1)]


def max_sigma_sq(model, t_grid, x_grid):
    """Largest squared volatility over the space-time grid and nature set."""
    n_col = np.asarray(model.n_grid())[:, None]
    worst = 0.0
    for t in t_grid.tolist():
        sig = field(model.vol_sigma, t, x_grid, n_col)
        worst = max(worst, (sig * sig).max())
    return float(worst)


def apply1(fn, arr):
    """Evaluate a one-argument primitive on an array, broadcasting a constant."""
    arr = np.asarray(arr, dtype=float)
    out = np.asarray(fn(arr), dtype=float)
    return out if out.shape == arr.shape else np.full(arr.shape, out)


def ghost_pad2(u):
    """Linear-extrapolation ghost frame around a 2-D node array."""
    u = np.asarray(u, dtype=float)
    nx, ny = u.shape
    up = np.empty((nx + 2, ny + 2))
    up[1:-1, 1:-1] = u
    up[0, 1:-1] = 2.0 * u[0] - u[1]
    up[-1, 1:-1] = 2.0 * u[-1] - u[-2]
    up[:, 0] = 2.0 * up[:, 1] - up[:, 2]
    up[:, -1] = 2.0 * up[:, -2] - up[:, -3]
    return up


# first_argmax and first_argmin call array methods, not their np.*
# wrappers: the solvers call them once per step on small tensors, where the
# wrappers' Python overhead is a measurable share.  ``[()]`` turns the 0-d
# optimum of a 1-D stack into a scalar, as np.max returns it.

def first_argmax(stack, axis=0):
    """Earliest index along ``axis`` within ``TIE_TOL`` of the max."""
    stack = np.asarray(stack, dtype=float)
    best = stack.max(axis=axis, keepdims=True)
    return ((stack >= best - TIE_TOL).argmax(axis=axis),
            best.squeeze(axis)[()])


def first_argmin(stack, axis=0):
    """Earliest index along ``axis`` within ``TIE_TOL`` of the min."""
    stack = np.asarray(stack, dtype=float)
    best = stack.min(axis=axis, keepdims=True)
    # argmin copies its operand to put ``axis`` last in memory unless it
    # is there already, so the tie mask is written in that layout
    axis %= stack.ndim
    last = stack.ndim - 1
    shape = stack.shape
    far = np.empty(shape[:axis] + shape[axis + 1:] + shape[axis:axis + 1],
                   dtype=bool)
    mask = far.transpose(*range(axis), last, *range(axis, last))
    np.greater(stack - best, TIE_TOL, out=mask)
    return mask.argmin(axis=axis), best.squeeze(axis)[()]


def grid_searchsorted(grid, q):
    """``np.searchsorted(grid, q)`` (side left) for a strictly increasing grid.

    The index is estimated from ``grid[0]`` and the first spacing as
    ``ceil((q - grid[0]) / h)``, clipped to ``[0, len(grid)]``, then moved
    one node at a time against the grid values until no index moves: one
    correcting pass on a uniform grid, and exact on any increasing grid of
    at least two nodes.  NaN goes past the end and +-inf to the ends, as
    ``np.searchsorted`` sends them.
    """
    grid = np.asarray(grid, dtype=float)
    q = np.asarray(q, dtype=float)
    n = len(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        est = np.ceil((q - grid[0]) / (grid[1] - grid[0]))
    # fmin sends NaN to the end
    i = np.maximum(np.fmin(est, n), 0).astype(np.intp)
    # below[i] is grid[i - 1] and above[i] is grid[i]; the NaN ends compare
    # false, so no index leaves [0, n]
    below = np.concatenate(([np.nan], grid))
    above = np.concatenate((grid, [np.nan]))
    while True:
        down = below[i] >= q
        up = above[i] < q
        if not (down.any() or up.any()):
            return i
        i = i + up - down


def surface_value(t_grid, x_grid, y_grid, values, t, x, y):
    """Trilinear lookup of a ``values[t, x, y]`` node surface.

    ``t`` is a scalar; ``x`` and ``y`` are scalars or arrays that broadcast
    together.  Every coordinate is clamped to the grid box first, so points
    outside it (including +-inf) read the boundary value; NaN gives NaN.
    Every axis holds at least two nodes.
    """
    def bilinear(plane):
        xc = np.clip(x, x_grid[0], x_grid[-1])
        yc = np.clip(y, y_grid[0], y_grid[-1])
        i = np.clip(grid_searchsorted(x_grid, xc) - 1, 0, len(x_grid) - 2)
        j = np.clip(grid_searchsorted(y_grid, yc) - 1, 0, len(y_grid) - 2)
        wx = (xc - x_grid[i]) / (x_grid[i + 1] - x_grid[i])
        wy = (yc - y_grid[j]) / (y_grid[j + 1] - y_grid[j])
        return ((1 - wx) * (1 - wy) * plane[i, j]
                + wx * (1 - wy) * plane[i + 1, j]
                + (1 - wx) * wy * plane[i, j + 1]
                + wx * wy * plane[i + 1, j + 1])

    tc = min(max(t, t_grid[0]), t_grid[-1])
    k = int(np.clip(grid_searchsorted(t_grid, tc) - 1, 0, len(t_grid) - 2))
    wt = (tc - t_grid[k]) / (t_grid[k + 1] - t_grid[k])
    return (1 - wt) * bilinear(values[k]) + wt * bilinear(values[k + 1])
