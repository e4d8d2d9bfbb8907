"""Robust value of the agent under a fixed terminal contract.

The agent observes the paid contract ``xi(X_T)`` and reacts with the effort
that is optimal against the worst admissible volatility, so the value
function solves a degenerate-parabolic equation whose spatial operator is
the saddle Hamiltonian evaluated at the local derivative estimates:

    dV/dt + H(t, x, V, dV/dx, d2V/dx2) = 0,      V(T, x) = U_A(xi(x)).

The solver marches backward with an explicit monotone scheme.  The CFL
scan runs once, before the march: it takes the largest sigma^2 over the
time nodes, the space nodes and the nature grid, and a grid that breaks the
stability bound dt * max sigma^2 / dx^2 <= 1 is rejected rather than
silently substepped.  One step from the row v then evaluates

- the central differences z and gam of v, padded at each wall with a
  linearly extrapolated ghost value;
- the saddle (``_saddle_step``): for each nature control the effort that
  maximizes the running reward -k v - c + b z, then the nature control
  that minimizes 1/2 sigma^2 gam plus that reward, each the earliest
  within tolerance;
- the update v + dt (1/2 sigma^2 gam - k v - c + b+ up - b- dn) at the
  chosen controls, whose drift is upwinded on the forward slopes (each wall
  repeating its one-sided slope), so every node update is a convex
  combination under the bound.

The padded row and the slopes live in buffers made once per solve, and
the march allocates nothing the size of the (t, x) surface beyond its
three output arrays.

A second, independent route to the same number exists for models without
drift, running cost or discounting: conditionally on a frozen nature control
the value is a Gaussian convolution of the terminal data, and robustness is
an infimum of those convolutions.  ``inf_of_bsdes`` computes that by
quadrature and is used to cross-check the PDE solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hamiltonians import PROBE_W, ModelSpec, vectorized
from . import numerics


_CFL_SLACK = 1e-12
# slack of the participation test against the reservation utility
_PARTICIPATION_TOL = 1e-9
# frozen nature controls of the quadrature route, and its Gauss-Hermite nodes
_FROZEN_NATURE_POINTS = 41
_QUAD_POINTS = 96


@dataclass(frozen=True)
class ContractFunction:
    """Terminal payment ``xi(x)`` handed to the agent at the horizon.

    ``payment`` broadcasts over arrays, or construction wraps it once in
    ``hamiltonians.elementwise`` (the ``ModelSpec`` coefficient contract)."""

    payment: Callable[[float], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "payment", vectorized(self.payment, PROBE_W))

    @classmethod
    def from_preset(cls, text: str) -> "ContractFunction":
        """Parse ``"linear:slope,intercept"``, ``"call:strike"`` or
        ``"tabulated:path"`` into a payment function."""
        kind, _, arg = text.partition(":")
        if kind == "linear":
            parts = [float(p) for p in arg.split(",")] if arg else [1.0, 0.0]
            if len(parts) == 1:
                parts.append(0.0)
            slope, intercept = parts[0], parts[1]
            return cls(lambda x: slope * x + intercept)
        if kind == "call":
            strike = float(arg) if arg else 0.0
            return cls(lambda x: np.maximum(x - strike, 0.0))
        if kind == "tabulated":
            table = np.loadtxt(arg)
            if table.ndim != 2 or table.shape[1] != 2:
                raise ValueError("tabulated contract needs two columns (x, payment)")
            xs, ps = table[:, 0], table[:, 1]
            if not np.all(np.diff(xs) > 0):
                raise ValueError("tabulated contract abscissae must be increasing")
            return cls(lambda x: np.interp(x, xs, ps))
        raise ValueError(f"unknown contract preset {kind!r}")


@dataclass
class AgentSolution:
    """Backward-solved robust value with the realized saddle controls."""

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray          # (t, x)
    effort: np.ndarray          # (t, x), terminal row repeats the last step
    nature: np.ndarray          # (t, x)
    cfl_number: float
    max_abs_value: float
    max_abs_gradient: float

    def value(self, t: float, x: float) -> float:
        """Bilinear interpolation of the value surface."""
        ti = np.clip(np.searchsorted(self.t_grid, t) - 1, 0, len(self.t_grid) - 2)
        wt = (t - self.t_grid[ti]) / (self.t_grid[ti + 1] - self.t_grid[ti])
        wt = float(np.clip(wt, 0.0, 1.0))
        row = (1.0 - wt) * self.values[ti] + wt * self.values[ti + 1]
        return float(np.interp(x, self.x_grid, row))


def _control_grids(model: ModelSpec, x_nodes: int):
    """Nature column (Nn, 1), effort column (Na, 1) and node indices."""
    return (np.asarray(model.n_grid())[:, None], model.a_grid()[:, None],
            np.arange(x_nodes))


def _saddle_step(model: ModelSpec, t, x_arr, v, z, gam, grids):
    """Vectorized one-slice saddle: returns (a_star, n_star, sig2, b, k, c),
    each per node or, where the model ignores the node, broadcasting to it.

    The ``numerics`` effort kernel gives the efforts and the running payoff
    on a (nature, effort, node) tensor whose axes are only as long as the
    coefficients need: a payoff free of nature has no nature axis, so its
    effort maximum is taken once per node rather than once per nature
    control.  Mirrors the scalar evaluator selection rule: for each nature
    control the effort maximizing the running reward wins (earliest within
    tolerance), then the nature control minimizing the realized
    second-order Hamiltonian is chosen the same way; b, k and c are
    gathered at the selected controls only, from their own shapes
    (``numerics.pick``).  ``grids`` is ``_control_grids``' result (the
    nature and effort columns and the node indices), built once per solve.
    """
    n_col, a_col, nodes = grids
    sig = numerics.field(model.vol_sigma, t, x_arr, n_col)
    sig2 = sig * sig
    a_c = numerics.clamped_candidate(model, t, x_arr, z, sig)
    A = numerics.effort_rows(a_c, a_col, len(a_col))
    base, b, k, c = numerics.effort_payoff(model, t, x_arr, v, A,
                                           n_col[:, :, None])
    a_idx, f_best = numerics.best_effort(base + b * z)
    n_idx, _ = numerics.first_argmin(
        np.atleast_2d(0.5 * sig2 * gam + f_best))
    at = (n_idx, numerics.pick(a_idx, (n_idx, nodes)), nodes)
    return (numerics.pick(A, at), numerics.pick(n_col, at[::2]),
            numerics.pick(sig2, at[::2]),
            *(numerics.pick(arr, at) for arr in (b, k, c)))


def agent_grids(x_lo: float, x_hi: float, x_nodes: int, t_steps: int,
                horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """The agent solve's (t, x) grids; ``ValueError`` on a degenerate one
    or a bound or horizon that is not finite."""
    for name, value in (("x_lo", x_lo), ("x_hi", x_hi), ("horizon", horizon)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if x_nodes < 3:
        raise ValueError("need at least 3 space nodes")
    if t_steps < 1:
        raise ValueError("need at least 1 time step")
    if not x_hi > x_lo:
        raise ValueError("empty space interval")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return (np.linspace(0.0, horizon, t_steps + 1),
            np.linspace(x_lo, x_hi, x_nodes))


def solve_agent(model: ModelSpec, contract: ContractFunction, *,
                x_lo: float, x_hi: float, x_nodes: int,
                t_steps: int, horizon: float) -> AgentSolution:
    """March the agent equation backward from ``U_A(xi(x))``.

    Raises ``ValueError`` on a degenerate grid (``agent_grids``), when
    the diffusion stability bound fails, or on a terminal row that is not
    finite, naming the count of such nodes and the first of them; the
    caller picks grids, the solver never substeps on its own.
    """
    t_grid, x_grid = agent_grids(x_lo, x_hi, x_nodes, t_steps, horizon)
    dx = x_grid[1] - x_grid[0]
    dt = t_grid[1] - t_grid[0]

    sig2_max = numerics.max_sigma_sq(model, t_grid, x_grid)
    cfl = dt * sig2_max / (dx * dx)
    if not cfl <= 1.0 + _CFL_SLACK:     # NaN fails too
        raise ValueError(
            f"stability bound violated: dt*max(sigma^2)/dx^2 = {cfl:.6g} > 1; "
            "refine the time grid")

    values = np.empty((t_steps + 1, x_nodes))
    effort = np.zeros((t_steps + 1, x_nodes))
    nature = np.full((t_steps + 1, x_nodes), model.nature_set_N[0], dtype=float)
    values[t_steps] = numerics.apply1(
        model.utility_agent, numerics.apply1(contract.payment, x_grid))
    bad = ~np.isfinite(values[t_steps])
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"terminal value is not finite at {int(bad.sum())} of "
            f"{x_nodes} nodes, first at x={float(x_grid[i])!r}: "
            f"{float(values[t_steps, i])!r}")

    grids = _control_grids(model, x_nodes)
    # v, the row being stepped, between two ghost values extrapolated
    # linearly from it; z, gam and the slopes read shifted views of it
    pad = np.empty(x_nodes + 2)
    left, v, right = pad[:-2], pad[1:-1], pad[2:]
    # the forward slopes, each wall repeating its one-sided slope: dn is
    # the slope ending at a node, up the one starting there
    walls = np.empty(x_nodes + 1)
    slope, dn, up = walls[1:-1], walls[:-1], walls[1:]
    ahead, behind = v[1:], v[:-1]
    two_dx, dx2 = 2.0 * dx, dx * dx
    times = t_grid.tolist()
    v[:] = values[t_steps]
    max_grad = 0.0
    for step in range(t_steps - 1, -1, -1):
        pad[0] = 2.0 * pad[1] - pad[2]
        pad[-1] = 2.0 * pad[-2] - pad[-3]
        z = (right - left) / two_dx
        gam = (right - 2.0 * v + left) / dx2
        a_star, n_star, sig2, b, k, c = _saddle_step(model, times[step],
                                                     x_grid, v, z, gam, grids)
        np.subtract(ahead, behind, out=slope)
        slope /= dx
        walls[0], walls[-1] = slope[0], slope[-1]
        b_pos = np.maximum(b, 0.0)
        b_neg = np.maximum(-b, 0.0)
        v += dt * (0.5 * sig2 * gam - k * v - c + b_pos * up - b_neg * dn)
        values[step] = v
        effort[step] = a_star
        nature[step] = n_star
        max_grad = max(max_grad, abs(z).max())

    effort[t_steps] = effort[t_steps - 1]
    nature[t_steps] = nature[t_steps - 1]
    # the largest |v| from the extremes, with no |values| temporary;
    # abs() turns an all-zero surface's -0.0 into 0.0
    return AgentSolution(
        t_grid=t_grid, x_grid=x_grid, values=values,
        effort=effort, nature=nature, cfl_number=float(cfl),
        max_abs_value=float(abs(max(values.max(), -values.min()))),
        max_abs_gradient=float(max_grad))


# ---------------------------------------------------------------------------
# independent cross-check for driftless, costless, undiscounted models
# ---------------------------------------------------------------------------

@functools.cache
def _hermite_rule():
    nodes, weights = np.polynomial.hermite.hermgauss(_QUAD_POINTS)
    return nodes, weights / np.sqrt(np.pi)


def _require_linear_family(model: ModelSpec):
    x = np.linspace(-model.truncation_M, model.truncation_M, 5)
    a = model.a_grid()[:: max(1, len(model.a_grid()) // 3), None, None]
    n = model.n_grid()[:, None]
    for coeff in numerics.effort_payoff(model, 0.0, x, 0.0, a, n)[1:]:
        if np.any(np.abs(coeff) > 1e-12):
            raise ValueError(
                "quadrature cross-check needs zero drift, cost and discount")


def linear_bsde_value(model: ModelSpec, contract: ContractFunction,
                      n, t: float, x, horizon: float):
    """Value under a frozen nature control: Gaussian convolution by
    Gauss-Hermite quadrature.  Only valid in the linear family.  ``n`` is a
    float or an array of frozen controls broadcasting with ``x``."""
    _require_linear_family(model)
    x = np.asarray(x, dtype=float)
    # inf_of_bsdes reduces over the nature axis, so sigma keeps it
    sig = np.broadcast_to(numerics.field(model.vol_sigma, t, x, n),
                          np.broadcast_shapes(x.shape, np.shape(n)))
    tau = horizon - t
    if tau < 0:
        raise ValueError("evaluation time past the horizon")
    nodes, weights = _hermite_rule()
    pts = x[..., None] + np.sqrt(2.0 * tau) * (sig[..., None] * nodes)
    vals = numerics.apply1(
        lambda p: model.utility_agent(contract.payment(p)), pts)
    out = vals @ weights
    return out if out.ndim else float(out)


def inf_of_bsdes(model: ModelSpec, contract: ContractFunction,
                 t: float, x, horizon: float):
    """Robust value as the infimum over frozen nature controls.

    This is the dual route to ``solve_agent`` for the linear family: no
    finite differences, no saddle search, just convolutions, evaluated for
    every nature point at once.
    """
    n_grid = np.linspace(*model.nature_set_N, _FROZEN_NATURE_POINTS)
    x = np.asarray(x, dtype=float)
    vals = linear_bsde_value(model, contract,
                             n_grid.reshape((-1,) + (1,) * x.ndim), t, x,
                             horizon)
    out = np.min(vals, axis=0)
    return out if x.ndim else float(out)


def participation_check(solution: AgentSolution, x0: float,
                        reservation: float):
    """Does the agent weakly prefer the contract to the outside option?"""
    v0 = solution.value(solution.t_grid[0], x0)
    return v0 >= reservation - _PARTICIPATION_TOL, v0 - reservation
