"""Named model constructors selected by tests and the config layer.

Each preset is one instance of the primitive tuple (b, sigma, c, k, U_A,
U_P, L) and states only what sets it apart.  ``_model`` supplies what the
presets share: zero drift, cost and discount; identity utilities and
liquidation; the effort set [0, 1]; and the discount bound ``kappa = 1.0``.
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import ModelSpec


def smooth_cutoff(x, M: float):
    """C2 spatial cutoff: 1 on |x| <= M, 0 on |x| >= M+1, quintic in between."""
    s = np.clip(np.abs(x) - M, 0.0, 1.0)
    return 1.0 - s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)


def _identity(v):
    return v


def _zero(t, x, *controls):
    return 0.0


def _vol_is_n(t, x, n):
    return n


def _drift_is_effort(t, x, a, n):
    return a


def _quadratic_cost(t, x, a):
    return 0.5 * a * a


def _clamped_effort(a_bar: float):
    """The effort response clamp(z, 0, a_bar) of drift a and cost a^2/2."""

    def candidate_effort(t, x, z, sigma):
        return np.clip(z, 0.0, a_bar)

    return candidate_effort


def _model(grid_counts: dict, **fields) -> ModelSpec:
    """``ModelSpec`` of ``fields`` over the shared defaults, plus the
    caller's ``grid_counts``; a count naming a field that is set here
    raises ``TypeError``, as a direct ``ModelSpec`` call does."""
    shared = dict(drift_b=_zero, cost_c=_zero, discount_k=_zero,
                  utility_agent=_identity, utility_agent_inv=_identity,
                  utility_principal=_identity, liquidation_L=_identity,
                  effort_set_A=(0.0, 1.0), kappa=1.0)
    return ModelSpec(**{**shared, **fields}, **grid_counts)


def risk_neutral(n_band: tuple[float, float] = (0.5, 1.0), a_bar: float = 1.0,
                 truncation_M: float = 6.0, **grid_counts) -> ModelSpec:
    """Linear-utility benchmark: b = a, sigma = n, c = a^2/2, k = 0.

    The effort response is the clamp of the contract sensitivity and the
    optimal second-order controls coincide with the value derivatives, which
    is what the candidate hooks encode.
    """

    def candidate_zgamma(t, x, y, p, q):
        return [(p, q)]

    return _model(grid_counts, drift_b=_drift_is_effort, vol_sigma=_vol_is_n,
                  cost_c=_quadratic_cost, effort_set_A=(0.0, a_bar),
                  nature_set_N=n_band, truncation_M=truncation_M,
                  candidate_effort=_clamped_effort(a_bar),
                  candidate_zgamma=candidate_zgamma)


def saturated_utility(w0: float = 2.0):
    """Bounded increasing utility attaining +-1 at +-w0, with exact inverse.

    Inside [-w0, w0] it is sin(pi w / (2 w0)); outside it saturates, and the
    inverse maps the attained bounds back to +-w0.
    """
    if not 0.0 < w0 < np.inf:
        raise ValueError(f"w0 must be positive and finite, got {w0}")
    half_pi_over = np.pi / (2.0 * w0)

    def u(w):
        return np.sin(half_pi_over * np.clip(w, -w0, w0))

    def u_inv(y):
        return np.arcsin(np.clip(y, -1.0, 1.0)) / half_pi_over

    return u, u_inv


def quadratic_bounded(M: float = 2.0, a_bar: float = 1.0,
                      n_band: tuple[float, float] = (0.5, 1.0),
                      w0: float = 2.0, utility_principal=None,
                      **grid_counts) -> ModelSpec:
    """Bounded-domain model: coefficients vanish outside |x| >= M+1.

    b = a phi(x), sigma = n phi(x), c = a^2/2, k = 0, bounded agent utility.
    The optimal effort has the closed form clamp(z phi(x), 0, a_bar).
    """
    u_a, u_a_inv = saturated_utility(w0)

    def drift_b(t, x, a, n):
        return a * smooth_cutoff(x, M)

    def vol_sigma(t, x, n):
        return n * smooth_cutoff(x, M)

    def candidate_effort(t, x, z, sigma):
        return np.clip(z * smooth_cutoff(x, M), 0.0, a_bar)

    return _model(
        grid_counts, drift_b=drift_b, vol_sigma=vol_sigma,
        cost_c=_quadratic_cost, utility_agent=u_a, utility_agent_inv=u_a_inv,
        utility_principal=(_identity if utility_principal is None
                           else utility_principal),
        effort_set_A=(0.0, a_bar), nature_set_N=n_band, truncation_M=M,
        candidate_effort=candidate_effort)


def heat_band(band: tuple[float, float] = (0.2, 0.4), truncation_M: float = 2.0,
              **grid_counts) -> ModelSpec:
    """Driftless costless model with a volatility band; sigma(n) = n."""
    return _model(grid_counts, vol_sigma=_vol_is_n, nature_set_N=band,
                  truncation_M=truncation_M)


def disjoint_beliefs(agent_band: tuple[float, float] = (0.1, 0.2),
                     principal_band: tuple[float, float] = (0.3, 0.5),
                     utility_principal=None, truncation_M: float = 2.0,
                     **grid_counts) -> ModelSpec:
    """Two separated volatility intervals: the agent believes one, the
    principal the other. Used by the degeneracy demonstration."""
    return _model(grid_counts, vol_sigma=_vol_is_n,
                  utility_principal=(_identity if utility_principal is None
                                     else utility_principal),
                  nature_set_N=principal_band, truncation_M=truncation_M,
                  agent_nature_set=agent_band)


def zero_vol(truncation_M: float = 2.0, **grid_counts) -> ModelSpec:
    """Fully deterministic degenerate model: no diffusion, no drift."""
    return _model(grid_counts, vol_sigma=_zero, nature_set_N=(1.0, 1.0),
                  truncation_M=truncation_M, allow_degenerate_vol=True)


def custom_tabulated(n_values, sigma_values, a_bar: float = 1.0,
                     discount: float = 0.0, truncation_M: float = 2.0,
                     **grid_counts) -> ModelSpec:
    """Model with a tabulated volatility profile, interpolated linearly in n.

    Drift is the effort itself and the cost is quadratic, so only the
    volatility structure is user-shaped.
    """
    n_values = np.asarray(n_values, dtype=float)
    sigma_values = np.asarray(sigma_values, dtype=float)
    if n_values.ndim != 1 or n_values.shape != sigma_values.shape:
        raise ValueError("n_values and sigma_values must be 1-D and equal length")
    if not (np.isfinite(n_values).all() and np.isfinite(sigma_values).all()):
        raise ValueError("n_values and sigma_values must be finite")
    if len(n_values) < 2 or np.any(np.diff(n_values) <= 0):
        raise ValueError("n_values must be strictly increasing")

    def vol_sigma(t, x, n):
        return np.interp(n, n_values, sigma_values)

    def discount_k(t, x, a, n):
        return discount

    return _model(
        grid_counts, drift_b=_drift_is_effort, vol_sigma=vol_sigma,
        cost_c=_quadratic_cost, discount_k=discount_k,
        effort_set_A=(0.0, a_bar),
        nature_set_N=(float(n_values[0]), float(n_values[-1])),
        kappa=max(abs(discount), 1e-6),
        truncation_M=truncation_M, candidate_effort=_clamped_effort(a_bar))


PRESETS = {
    "risk_neutral": risk_neutral,
    "quadratic_bounded": quadratic_bounded,
    "heat_band": heat_band,
    "disjoint_beliefs": disjoint_beliefs,
    "zero_vol": zero_vol,
    "custom_tabulated": custom_tabulated,
}


def make_model(name: str, **params) -> ModelSpec:
    if name not in PRESETS:
        raise KeyError(f"unknown model preset '{name}'; known: {sorted(PRESETS)}")
    return PRESETS[name](**params)
