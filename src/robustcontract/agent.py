"""Robust value of the agent under a fixed terminal contract.

The agent observes the paid contract ``xi(X_T)`` and reacts with the effort
that is optimal against the worst admissible volatility, so the value
function solves a degenerate-parabolic equation whose spatial operator is
the saddle Hamiltonian evaluated at the local derivative estimates:

    dV/dt + H(t, x, V, dV/dx, d2V/dx2) = 0,      V(T, x) = U_A(xi(x)).

The solver marches backward with an explicit monotone scheme: derivative
probes are central, the chosen saddle controls are then re-realized with
upwinded drift so every node update is a convex combination under the
stability bound dt * max sigma^2 / dx^2 <= 1.  The bound is checked once up
front and violations are rejected rather than silently substepped.

A second, independent route to the same number exists for models without
drift, running cost or discounting: conditionally on a frozen nature control
the value is a Gaussian convolution of the terminal data, and robustness is
an infimum of those convolutions.  ``inf_of_bsdes`` computes that by
quadrature and is used to cross-check the PDE solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hamiltonians import ModelSpec, TIE_TOL
from . import numerics


_CFL_SLACK = 1e-12


@dataclass(frozen=True)
class ContractFunction:
    """Terminal payment ``xi(x)`` handed to the agent at the horizon."""

    payment: Callable[[float], float]
    label: str = "custom"

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
            return cls(lambda x: slope * x + intercept, label=text)
        if kind == "call":
            strike = float(arg) if arg else 0.0
            return cls(lambda x: np.maximum(x - strike, 0.0), label=text)
        if kind == "tabulated":
            table = np.loadtxt(arg)
            if table.ndim != 2 or table.shape[1] != 2:
                raise ValueError("tabulated contract needs two columns (x, payment)")
            xs, ps = table[:, 0], table[:, 1]
            if not np.all(np.diff(xs) > 0):
                raise ValueError("tabulated contract abscissae must be increasing")
            return cls(lambda x: np.interp(x, xs, ps), label=text)
        raise ValueError(f"unknown contract preset {kind!r}")

    def __call__(self, x):
        return self.payment(x)


@dataclass
class AgentSolution:
    """Backward-solved robust value with the realized saddle controls."""

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray          # (t, x)
    effort: np.ndarray          # (t, x), terminal row repeats the last step
    nature: np.ndarray          # (t, x)
    cfl_number: float
    max_abs_value: float = 0.0
    max_abs_gradient: float = 0.0

    def value(self, t: float, x: float) -> float:
        """Bilinear interpolation of the value surface."""
        ti = np.clip(np.searchsorted(self.t_grid, t) - 1, 0, len(self.t_grid) - 2)
        wt = (t - self.t_grid[ti]) / (self.t_grid[ti + 1] - self.t_grid[ti])
        wt = float(np.clip(wt, 0.0, 1.0))
        row = (1.0 - wt) * self.values[ti] + wt * self.values[ti + 1]
        return float(np.interp(x, self.x_grid, row))

    def policy(self, t: float, x: float) -> tuple[float, float]:
        """Nearest-node saddle controls (effort, nature)."""
        ti = int(np.clip(np.searchsorted(self.t_grid, t), 0, len(self.t_grid) - 1))
        xi = int(np.argmin(np.abs(self.x_grid - x)))
        return float(self.effort[ti, xi]), float(self.nature[ti, xi])


def _control_grids(model: ModelSpec, nodes: int):
    """Nature column (Nn, 1) and the effort-grid tensor (Nn, Na, nodes)."""
    n_col = np.asarray(model.n_grid())[:, None]
    a_grid = model.a_grid()
    return n_col, np.broadcast_to(a_grid[None, :, None],
                                  (len(n_col), len(a_grid), nodes))


def _saddle_step(model: ModelSpec, t, x_arr, v, z, gam, grids=None):
    """Vectorized one-slice saddle: returns (a_star, n_star, sig2, b, k, c).

    Each coefficient is evaluated once on a (nature, effort, node) tensor
    whose effort axis lists the clamped closed-form candidate first and
    then the effort grid.  Mirrors the scalar evaluator selection rule:
    for each nature control the effort maximizing the running reward wins
    (earliest within tolerance), then the nature control minimizing the
    realized second-order Hamiltonian is chosen the same way.  The
    returned drift, discount and running cost are gathered from the same
    tensors at the selected controls.  ``grids`` is ``_control_grids``'
    result, which a caller stepping many slices builds once.
    """
    n_col, A = grids if grids is not None else _control_grids(model, x_arr.size)
    sig = numerics.field(model.vol_sigma, t, x_arr, n_col)         # (Nn, X)
    sig2 = sig * sig
    if model.candidate_effort is not None:
        a_c = numerics.field(model.candidate_effort, t, x_arr, z, sig)
        a_c = np.clip(a_c, model.effort_set_A[0], model.effort_set_A[1])
        A = np.concatenate([a_c[:, None, :], A], axis=1)
    n_row = n_col[:, :, None]
    b = numerics.field(model.drift_b, t, x_arr, A, n_row)
    k = numerics.field(model.discount_k, t, x_arr, A, n_row)
    c = numerics.field(model.cost_c, t, x_arr, A)
    f = -k * v - c + b * z                                          # (Nn, E, X)
    a_idx, f_best = numerics.first_argmax(f, TIE_TOL, axis=1)
    n_idx, _ = numerics.first_argmin(0.5 * sig2 * gam + f_best, TIE_TOL)
    nodes = np.arange(x_arr.size)
    at = (n_idx, a_idx[n_idx, nodes], nodes)
    return (A[at], n_col[n_idx, 0], sig2[n_idx, nodes], b[at], k[at], c[at])


def solve_agent(model: ModelSpec, contract: ContractFunction, *,
                x_lo: float, x_hi: float, x_nodes: int,
                t_steps: int, horizon: float) -> AgentSolution:
    """March the agent equation backward from ``U_A(xi(x))``.

    Raises ``ValueError`` when the diffusion stability bound fails; the
    caller picks grids, the solver never substeps on its own.
    """
    if x_nodes < 3:
        raise ValueError("need at least 3 space nodes")
    if t_steps < 1:
        raise ValueError("need at least 1 time step")
    if not x_hi > x_lo:
        raise ValueError("empty space interval")
    if horizon <= 0:
        raise ValueError("horizon must be positive")

    x_grid = np.linspace(x_lo, x_hi, x_nodes)
    t_grid = np.linspace(0.0, horizon, t_steps + 1)
    dx = x_grid[1] - x_grid[0]
    dt = t_grid[1] - t_grid[0]

    sig2_max = numerics.max_sigma_sq(model, t_grid, x_grid)
    cfl = dt * sig2_max / (dx * dx)
    if cfl > 1.0 + _CFL_SLACK:
        raise ValueError(
            f"stability bound violated: dt*max(sigma^2)/dx^2 = {cfl:.6g} > 1; "
            "refine the time grid")

    pay = np.array([float(contract.payment(xi)) for xi in x_grid])
    values = np.empty((t_steps + 1, x_nodes))
    effort = np.zeros((t_steps + 1, x_nodes))
    nature = np.full((t_steps + 1, x_nodes), model.nature_set_N[0], dtype=float)
    values[t_steps] = np.array([float(model.utility_agent(p)) for p in pay])

    grids = _control_grids(model, x_nodes)
    max_grad = 0.0
    for step in range(t_steps - 1, -1, -1):
        t = float(t_grid[step])
        v = values[step + 1]
        z, gam = numerics.central_differences(v, dx)
        a_star, n_star, sig2, b, k, c = _saddle_step(model, t, x_grid, v, z,
                                                     gam, grids)

        # forward and backward slopes; the walls reuse the one-sided slope
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
        t_grid=t_grid, x_grid=x_grid, values=values,
        effort=effort, nature=nature, cfl_number=float(cfl),
        max_abs_value=float(np.max(np.abs(values))),
        max_abs_gradient=max_grad)


# ---------------------------------------------------------------------------
# independent cross-check for driftless, costless, undiscounted models
# ---------------------------------------------------------------------------

_HERMITE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _hermite_rule(points: int):
    if points not in _HERMITE_CACHE:
        nodes, weights = np.polynomial.hermite.hermgauss(points)
        _HERMITE_CACHE[points] = (nodes, weights / np.sqrt(np.pi))
    return _HERMITE_CACHE[points]


def _require_linear_family(model: ModelSpec):
    x = np.linspace(-model.truncation_M, model.truncation_M, 5)
    a = model.a_grid()[:: max(1, len(model.a_grid()) // 3), None, None]
    n = model.n_grid()[:, None]
    for coeff in (numerics.field(model.drift_b, 0.0, x, a, n),
                  numerics.field(model.cost_c, 0.0, x, a),
                  numerics.field(model.discount_k, 0.0, x, a, n)):
        if np.any(np.abs(coeff) > 1e-12):
            raise ValueError(
                "quadrature cross-check needs zero drift, cost and discount")


def linear_bsde_value(model: ModelSpec, contract: ContractFunction,
                      n, t: float, x, horizon: float,
                      quad_points: int = 96):
    """Value under a frozen nature control: Gaussian convolution by
    Gauss-Hermite quadrature.  Only valid in the linear family.  ``n`` is a
    float or an array of frozen controls broadcasting with ``x``."""
    _require_linear_family(model)
    x = np.asarray(x, dtype=float)
    sig = numerics.field(model.vol_sigma, t, x, n)
    tau = horizon - t
    if tau < 0:
        raise ValueError("evaluation time past the horizon")
    nodes, weights = _hermite_rule(quad_points)
    pts = x[..., None] + np.sqrt(2.0 * tau) * (sig[..., None] * nodes)
    vals = numerics.apply1(
        lambda p: model.utility_agent(contract.payment(p)), pts)
    out = vals @ weights
    return out if out.ndim else float(out)


def inf_of_bsdes(model: ModelSpec, contract: ContractFunction,
                 t: float, x, horizon: float, n_points: int = 41,
                 quad_points: int = 96):
    """Robust value as the infimum over frozen nature controls.

    This is the dual route to ``solve_agent`` for the linear family: no
    finite differences, no saddle search, just convolutions, evaluated for
    every nature point at once.
    """
    lo, hi = model.nature_set_N
    n_grid = np.linspace(lo, hi, n_points) if n_points > 1 else np.array([lo])
    x = np.asarray(x, dtype=float)
    vals = linear_bsde_value(model, contract,
                             n_grid.reshape((-1,) + (1,) * x.ndim), t, x,
                             horizon, quad_points)
    out = np.min(vals, axis=0)
    return out if x.ndim else float(out)


def participation_check(solution: AgentSolution, x0: float,
                        reservation: float, tol: float = 1e-9):
    """Does the agent weakly prefer the contract to the outside option?"""
    v0 = solution.value(solution.t_grid[0], x0)
    return v0 >= reservation - tol, v0 - reservation
