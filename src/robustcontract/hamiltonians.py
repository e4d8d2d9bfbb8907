"""Saddle-point Hamiltonian evaluators for robust principal-agent contracting.

Everything here is a pure function of its inputs. The continuous effort set A
and volatility-control set N are handled through explicit uniform grids stored
on the model, optionally augmented with closed-form interior candidates that
presets provide. All optimizer selection follows one deterministic rule, shared
with the brute-force test oracles:

  two-pass selection: the optimum value is computed exactly over the
  enumeration; the reported argument is the earliest enumerated point whose
  value lies within ``TIE_TOL`` of the optimum. Enumeration order is
  closed-form candidates first, then the uniform grid in ascending order
  (for control pairs: z-major, gamma-minor). Nested reductions pick the
  outer argument first, then the inner argument at that outer point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

TIE_TOL = 1e-12

# domain-membership slack for rejecting effort / volatility-control inputs
_DOMAIN_EPS = 1e-12


def uniform_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """Inclusive uniform grid; a single point collapses to the left endpoint."""
    if count < 1:
        raise ValueError("grid needs at least one point")
    if count == 1:
        return np.array([lo], dtype=float)
    return np.linspace(lo, hi, count)


@dataclass(frozen=True)
class GrowthParams:
    """Growth metadata (ell, m, m_lower, kappa) for the model primitives.

    ell bounds the drift's effort growth, m the cost growth, m_lower the
    strong-convexity order of the cost, kappa the discount-rate bound. The
    derived exponent 1/(m_lower + 1 - ell) controls the optimal-effort
    envelope and must be positive.
    """

    ell: float = 1.0
    m: float = 2.0
    m_lower: float = 1.0
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if self.ell < 1.0:
            raise ValueError("ell must be >= 1")
        if self.m < self.ell:
            raise ValueError("m must be >= ell")
        if not (0.0 < self.m_lower <= self.ell + self.m - 1.0):
            raise ValueError("m_lower must lie in (0, ell + m - 1]")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if self.m_lower + 1.0 - self.ell <= 0.0:
            raise ValueError("effort-envelope exponent requires m_lower + 1 > ell")

    @property
    def effort_exponent(self) -> float:
        return 1.0 / (self.m_lower + 1.0 - self.ell)

    @property
    def value_exponent(self) -> float:
        return (self.ell + self.m) / (self.m_lower + 1.0 - self.ell)


@dataclass(frozen=True)
class ModelSpec:
    """Primitive tuple (b, sigma, c, k, U_A, U_P, L) with control sets and grids.

    :param drift_b: (t, x, a, n) -> drift of the output process
    :param vol_sigma: (t, x, n) -> output volatility, positive on the active region
    :param cost_c: (t, x, a) -> nonnegative effort cost, convex increasing in a
    :param discount_k: (t, x, a, n) -> discount rate, |k| <= kappa
    :param utility_agent: increasing utility with exact inverse utility_agent_inv
    :param utility_principal: increasing concave utility
    :param liquidation_L: terminal liquidation value of the output
    :param effort_set_A: closed interval [0, a_bar]
    :param nature_set_N: closed interval [n_lo, n_hi] of volatility controls
    :param truncation_M: level of the smooth spatial cutoff; the canonical
        state domain is [-M-2, M+2]
    """

    drift_b: Callable[[float, float, float, float], float]
    vol_sigma: Callable[[float, float, float], float]
    cost_c: Callable[[float, float, float], float]
    discount_k: Callable[[float, float, float, float], float]
    utility_agent: Callable[[float], float]
    utility_agent_inv: Callable[[float], float]
    utility_principal: Callable[[float], float]
    liquidation_L: Callable[[float], float]
    effort_set_A: tuple[float, float]
    nature_set_N: tuple[float, float]
    growth_params: GrowthParams = field(default_factory=GrowthParams)
    truncation_M: float = 2.0

    # resolution of the control grids used by every sup/inf below
    a_grid_points: int = 21
    n_grid_points: int = 5
    z_grid_points: int = 21
    gamma_grid_points: int = 21

    # preset hooks: closed-form interior candidates injected ahead of the grid
    risk_neutral: bool = False
    candidate_effort: Callable[[float, float, float, float], float] | None = None
    candidate_zgamma: Callable[[float, float, float, float, float], Sequence[tuple[float, float]]] | None = None

    # second belief interval for the disjoint-beliefs demonstration
    agent_nature_set: tuple[float, float] | None = None

    allow_degenerate_vol: bool = False
    growth_C: float = 10.0
    probe_horizon: float = 1.0
    tag: str = "custom"

    def __post_init__(self) -> None:
        a_lo, a_hi = self.effort_set_A
        if a_lo != 0.0 or a_hi <= 0.0:
            raise ValueError("effort set must be [0, a_bar] with a_bar > 0")
        n_lo, n_hi = self.nature_set_N
        if n_hi < n_lo:
            raise ValueError("nature set bounds out of order")
        if self.truncation_M <= 0.0:
            raise ValueError("truncation_M must be positive")
        for count in (self.a_grid_points, self.n_grid_points,
                      self.z_grid_points, self.gamma_grid_points):
            if count < 1:
                raise ValueError("control grids need at least one point")
        self._validate_on_probes()

    # -- construction-time probe checks ------------------------------------

    def _probe_points(self) -> tuple[np.ndarray, np.ndarray]:
        ts = uniform_grid(0.0, self.probe_horizon, 3)
        # stay inside the active region of the spatial cutoff, where the
        # volatility is required to be positive
        half = self.truncation_M + 0.95
        xs = uniform_grid(-half, half, 9)
        return ts, xs

    def _validate_on_probes(self) -> None:
        ts, xs = self._probe_points()
        a_probe = self.a_grid()
        n_probe = self.n_grid()
        kappa = self.growth_params.kappa
        for t in ts:
            for x in xs:
                if not self.allow_degenerate_vol:
                    for n in n_probe:
                        if not self.vol_sigma(t, x, n) > 0.0:
                            raise ValueError(
                                f"vol_sigma must be positive on the grid, got "
                                f"{self.vol_sigma(t, x, n)} at (t={t}, x={x}, n={n})")
                costs = np.array([self.cost_c(t, x, a) for a in a_probe])
                if np.any(costs < -1e-12):
                    raise ValueError("cost_c must be nonnegative on the effort grid")
                if len(costs) >= 2 and np.any(np.diff(costs) < -1e-12):
                    raise ValueError("cost_c must be increasing in effort")
                if len(costs) >= 3 and np.any(np.diff(costs, n=2) < -1e-12):
                    raise ValueError("cost_c must be convex in effort")
                for a in a_probe[:: max(1, len(a_probe) // 4)]:
                    for n in n_probe[:: max(1, len(n_probe) // 4)]:
                        if abs(self.discount_k(t, x, a, n)) > kappa + 1e-12:
                            raise ValueError("discount_k exceeds the kappa bound")
        for w in np.linspace(-3.0, 3.0, 13):
            target = self.utility_agent(w)
            back = self.utility_agent(self.utility_agent_inv(target))
            if abs(back - target) > 1e-12:
                raise ValueError("utility_agent inverse is not exact on probes")

    # -- control grids ------------------------------------------------------

    def a_grid(self) -> np.ndarray:
        return uniform_grid(self.effort_set_A[0], self.effort_set_A[1], self.a_grid_points)

    def n_grid(self) -> np.ndarray:
        return uniform_grid(self.nature_set_N[0], self.nature_set_N[1], self.n_grid_points)

    def with_control_grids(self, a: int | None = None, n: int | None = None,
                           z: int | None = None, gamma: int | None = None) -> "ModelSpec":
        """Copy of the model with control-grid counts replaced."""
        return replace(
            self,
            a_grid_points=a if a is not None else self.a_grid_points,
            n_grid_points=n if n is not None else self.n_grid_points,
            z_grid_points=z if z is not None else self.z_grid_points,
            gamma_grid_points=gamma if gamma is not None else self.gamma_grid_points,
        )

    def contains_effort(self, a: float) -> bool:
        return self.effort_set_A[0] - _DOMAIN_EPS <= a <= self.effort_set_A[1] + _DOMAIN_EPS

    def contains_nature(self, n: float) -> bool:
        return self.nature_set_N[0] - _DOMAIN_EPS <= n <= self.nature_set_N[1] + _DOMAIN_EPS

    def clamp_effort(self, a: float) -> float:
        return min(max(a, self.effort_set_A[0]), self.effort_set_A[1])


@dataclass(frozen=True)
class SaddleResult:
    """Value and achieving controls of a finite sup-inf (or inf-sup) reduction.

    isaacs_gap is the difference between the two orderings of the reduction;
    it is nonnegative for any finite payoff table.
    """

    value: float
    arg_a: float
    arg_n: float
    isaacs_gap: float

    def __post_init__(self) -> None:
        if self.isaacs_gap < 0.0:
            raise ValueError("isaacs_gap must be nonnegative")


class GameResult(NamedTuple):
    value: float
    z_star: float
    gamma_star: float
    n_star: float


# ---------------------------------------------------------------------------
# shared selection helpers (the tie-break rule of the module docstring)
# ---------------------------------------------------------------------------

def _first_within(values: Sequence[float], target: float) -> int:
    for i, v in enumerate(values):
        if abs(v - target) <= TIE_TOL:
            return i
    raise RuntimeError("optimum not found in its own enumeration")


def _effort_enumeration(model: ModelSpec, t: float, x: float, z: float,
                        sigma: float) -> list[float]:
    """Effort candidates first (clamped into A), then the uniform a-grid."""
    out: list[float] = []
    if model.candidate_effort is not None:
        out.append(model.clamp_effort(model.candidate_effort(t, x, z, sigma)))
    out.extend(float(a) for a in model.a_grid())
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def eval_F(model: ModelSpec, t: float, x: float, y: float, z: float,
           a: float, n: float) -> float:
    """Running payoff -k*y - c + b*z at a single control pair."""
    if not model.contains_effort(a):
        raise ValueError(f"effort {a} outside {model.effort_set_A}")
    if not model.contains_nature(n):
        raise ValueError(f"volatility control {n} outside {model.nature_set_N}")
    return (-model.discount_k(t, x, a, n) * y
            - model.cost_c(t, x, a)
            + model.drift_b(t, x, a, n) * z)


def level_set_tolerance(model: ModelSpec, t: float, x: float) -> float:
    """Default membership tolerance: grid step squared times the local
    Lipschitz estimate of sigma^2 along the n-grid."""
    grid = model.n_grid()
    if len(grid) < 2:
        return 1e-9
    sig2 = np.array([model.vol_sigma(t, x, n) ** 2 for n in grid])
    dn = float(grid[1] - grid[0])
    lip = float(np.max(np.abs(np.diff(sig2)))) / dn if dn > 0 else 0.0
    return max(dn * dn * lip, 1e-12)


def level_set_V(model: ModelSpec, t: float, x: float, Sigma: float,
                tol: float | None = None) -> list[float]:
    """Grid points n with sigma(t,x,n)^2 within tol of Sigma.

    An empty list is a valid answer: it signals that Sigma is not attained
    by any volatility control at (t, x).
    """
    if Sigma < 0.0:
        raise ValueError("Sigma must be nonnegative")
    if tol is None:
        tol = level_set_tolerance(model, t, x)
    elif tol <= 0.0:
        raise ValueError("tol must be positive")
    out = []
    for n in model.n_grid():
        sig = model.vol_sigma(t, x, float(n))
        if abs(sig * sig - Sigma) <= tol:
            out.append(float(n))
    return out


def eval_F_star(model: ModelSpec, t: float, x: float, y: float, z: float,
                Sigma: float, tol: float | None = None) -> SaddleResult:
    """sup over effort of inf over the Sigma level set of the running payoff."""
    level = level_set_V(model, t, x, Sigma, tol)
    if not level:
        raise ValueError(f"Sigma={Sigma} unattainable at (t={t}, x={x})")
    efforts = _effort_enumeration(model, t, x, z, math.sqrt(Sigma))

    table = [[eval_F(model, t, x, y, z, a, n) for n in level] for a in efforts]
    inner_min = [min(row) for row in table]
    value = max(inner_min)
    ia = _first_within(inner_min, value)
    inn = _first_within(table[ia], inner_min[ia])

    # reversed ordering for the gap diagnostic
    outer_max = [max(table[ia2][j] for ia2 in range(len(efforts)))
                 for j in range(len(level))]
    inf_sup = min(outer_max)
    return SaddleResult(value=value, arg_a=efforts[ia], arg_n=level[inn],
                        isaacs_gap=inf_sup - value)


def check_isaacs(model: ModelSpec, t: float, x: float, y: float, z: float,
                 Sigma: float, tol: float | None = None) -> float:
    """Gap between inf-sup and sup-inf of the payoff over the configured grids."""
    return eval_F_star(model, t, x, y, z, Sigma, tol).isaacs_gap


def eval_H(model: ModelSpec, t: float, x: float, y: float, z: float,
           gamma: float) -> SaddleResult:
    """min over the n-grid of [ (1/2) sigma(n)^2 gamma + max over effort of F ].

    The infimum over attainable volatility-squares collapses to the n-grid
    scan in one dimension. The reported pair is (inner effort, outer n).
    """
    grid = [float(n) for n in model.n_grid()]
    pair_vals: list[float] = []
    inner: list[tuple[list[float], list[float]]] = []
    for n in grid:
        sig = model.vol_sigma(t, x, n)
        efforts = _effort_enumeration(model, t, x, z, sig)
        fs = [eval_F(model, t, x, y, z, a, n) for a in efforts]
        fmax = max(fs)
        pair_vals.append(0.5 * sig * sig * gamma + fmax)
        inner.append((efforts, fs))
    value = min(pair_vals)
    jn = _first_within(pair_vals, value)
    efforts, fs = inner[jn]
    ia = _first_within(fs, max(fs))

    # reversed ordering: max over effort of min over n of the same pair table
    # (effort grids can differ per n through candidates; restrict to the
    # common uniform grid for the diagnostic)
    base = [float(a) for a in model.a_grid()]
    sup_inf = -math.inf
    for a in base:
        col = []
        for n in grid:
            sig = model.vol_sigma(t, x, n)
            col.append(0.5 * sig * sig * gamma + eval_F(model, t, x, y, z, a, n))
        sup_inf = max(sup_inf, min(col))
    gap = value - sup_inf
    return SaddleResult(value=value, arg_a=efforts[ia], arg_n=grid[jn],
                        isaacs_gap=max(gap, 0.0))


def optimal_effort(model: ModelSpec, t: float, x: float, y: float, z: float,
                   Sigma: float, tol: float | None = None) -> tuple[float, bool]:
    """Maximizing effort of the sup-inf at volatility-square Sigma.

    The boolean flag certifies the calibrated growth envelope
    |a*| <= C (1 + |z|^(1/(m_lower+1-ell))).
    """
    res = eval_F_star(model, t, x, y, z, Sigma, tol)
    gp = model.growth_params
    bound = model.growth_C * (1.0 + abs(z) ** gp.effort_exponent)
    return res.arg_a, abs(res.arg_a) <= bound


def _g_from_parts(p: float, p_tilde: float, q: float, q_tilde: float, r: float,
                  z: float, gamma: float, sig2: float, bval: float,
                  hval: float) -> float:
    """Five-term principal integrand with traces read as scalar products."""
    return (p * bval
            + 0.5 * sig2 * q
            + p_tilde * (0.5 * sig2 * gamma - hval)
            + p_tilde * bval * z
            + z * sig2 * r
            + 0.5 * q_tilde * (z * z) * sig2)


def eval_g(model: ModelSpec, t: float, x: float, y: float, p: float,
           p_tilde: float, q: float, q_tilde: float, r: float, z: float,
           gamma: float, n: float) -> float:
    """Principal integrand at one volatility control.

    The effort inside the drift is the agent's optimal response at the
    volatility of the same n that is being quantified over.
    """
    sig = model.vol_sigma(t, x, n)
    sig2 = sig * sig
    a_star, _ = optimal_effort(model, t, x, y, z, sig2)
    bval = model.drift_b(t, x, a_star, n)
    hval = eval_H(model, t, x, y, z, gamma).value
    return _g_from_parts(p, p_tilde, q, q_tilde, r, z, gamma, sig2, bval, hval)


def _zgamma_enumeration(model: ModelSpec, t: float, x: float, y: float,
                        p: float, q: float, radius: float) -> list[tuple[float, float]]:
    """Control pairs: preset candidates first (clamped into the box), then the
    z-major, gamma-minor uniform grid."""
    pairs: list[tuple[float, float]] = []
    if model.candidate_zgamma is not None:
        for (zc, gc) in model.candidate_zgamma(t, x, y, p, q):
            pairs.append((min(max(zc, -radius), radius),
                          min(max(gc, -radius), radius)))
    z_grid = uniform_grid(-radius, radius, model.z_grid_points)
    g_grid = uniform_grid(-radius, radius, model.gamma_grid_points)
    pairs.extend((float(zv), float(gv)) for zv in z_grid for gv in g_grid)
    return pairs


def eval_G(model: ModelSpec, t: float, x: float, y: float, p: float,
           p_tilde: float, q: float, q_tilde: float, r: float,
           radius: float) -> GameResult:
    """sup over the (z, gamma) box of inf over the n-grid of the integrand.

    The effort maxima inside H and the agent response do not depend on
    gamma, so both are memoized by z.  H(z, gamma) is formed from those
    maxima in ``eval_H``'s expression order and equals ``eval_H(...).value``
    bit for bit; ``eval_H`` stays the reference the test oracles go through.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    pairs = _zgamma_enumeration(model, t, x, y, p, q, radius)
    n_grid = [float(n) for n in model.n_grid()]
    sigs = [model.vol_sigma(t, x, n) for n in n_grid]
    sig2s = [sig * sig for sig in sigs]

    # max over effort of F at each nature point, per z
    fmax_cache: dict[float, list[float]] = {}

    def h_at(z: float, gam: float) -> float:
        fmax = fmax_cache.get(z)
        if fmax is None:
            fmax = [max(eval_F(model, t, x, y, z, a, n)
                        for a in _effort_enumeration(model, t, x, z, sig))
                    for n, sig in zip(n_grid, sigs)]
            fmax_cache[z] = fmax
        return min(0.5 * sig * sig * gam + fm for sig, fm in zip(sigs, fmax))

    a_cache: dict[tuple[float, float], float] = {}

    def bval_at(z: float, j: int) -> float:
        key = (z, sig2s[j])
        a = a_cache.get(key)
        if a is None:
            a, _ = optimal_effort(model, t, x, y, z, sig2s[j])
            a_cache[key] = a
        return model.drift_b(t, x, a, n_grid[j])

    outer_vals: list[float] = []
    inner_rows: list[list[float]] = []
    for (z, gam) in pairs:
        hval = h_at(z, gam)
        row = [_g_from_parts(p, p_tilde, q, q_tilde, r, z, gam,
                             sig2s[j], bval_at(z, j), hval)
               for j in range(len(n_grid))]
        inner_rows.append(row)
        outer_vals.append(min(row))

    value = max(outer_vals)
    k = _first_within(outer_vals, value)
    jn = _first_within(inner_rows[k], outer_vals[k])
    z_star, gamma_star = pairs[k]
    return GameResult(value=value, z_star=z_star, gamma_star=gamma_star,
                      n_star=n_grid[jn])


def compute_radius(model: ModelSpec, t: float, x: float, y: float, p: float,
                   q: float, p_tilde: float, q_tilde: float, r: float,
                   r_min: float = 1e-3, max_doublings: int = 40) -> float:
    """Search-box radius for the (z, gamma) optimization.

    Risk-neutral models admit the closed form max(|p|, |q|); otherwise an
    expanding geometric search doubles the box until the recovered argmax
    stays strictly interior for two consecutive steps, which requires the
    coercivity q_tilde < 0.
    """
    if model.risk_neutral:
        return max(abs(p), abs(q), r_min)
    if q_tilde >= 0.0:
        raise ValueError("coercivity not guaranteed: q_tilde must be negative")
    radius = max(abs(p), abs(q), r_min)
    first_interior: float | None = None
    for _ in range(max_doublings):
        res = eval_G(model, t, x, y, p, p_tilde, q, q_tilde, r, radius)
        interior = max(abs(res.z_star), abs(res.gamma_star)) < radius * (1.0 - 1e-9)
        if interior:
            if first_interior is not None:
                return first_interior
            first_interior = radius
        else:
            first_interior = None
        radius *= 2.0
    raise RuntimeError("expanding radius search did not certify an interior argmax")


def gamma_thresholds(sigma_profile: Callable[[float], float],
                     q_profile: Callable[[float], float],
                     n_grid: Sequence[float]) -> tuple[float, float]:
    """Second-order weights beyond which the argmin of gamma*sigma^2 - q pins
    to the sigma extremes.

    Returns (m_neg, M_pos): for gamma > M_pos the grid argmin sits at the
    sigma-minimizer, for gamma < m_neg at the sigma-maximizer. A flat sigma
    profile degenerates; (-inf, +inf) sentinels signal that no threshold
    localizes the argmin.
    """
    grid = [float(n) for n in n_grid]
    sig = [sigma_profile(n) for n in grid]
    qs = [q_profile(n) for n in grid]
    if min(sig) <= 0.0:
        raise ValueError("sigma_profile must be positive on the grid")

    s_min, s_max = min(sig), max(sig)
    flat_tol = 1e-12 * (1.0 + abs(s_max))
    if s_max - s_min <= flat_tol:
        return (-math.inf, math.inf)

    def anchor(target: float) -> int:
        # among grid points at the target sigma level, the one with maximal q
        # dominates for extreme gamma; remaining ties go to the smaller index
        members = [i for i in range(len(grid)) if abs(sig[i] - target) <= flat_tol]
        best = members[0]
        for i in members[1:]:
            if qs[i] > qs[best]:
                best = i
        return best

    def slope_bound(idx: int) -> float:
        worst = 0.0
        for i in range(len(grid)):
            ds = sig[i] - sig[idx]
            if abs(ds) <= flat_tol:
                continue
            worst = max(worst, abs((qs[i] - qs[idx]) / ds))
        return worst

    i_lo = anchor(s_min)
    i_hi = anchor(s_max)
    denom = 2.0 * sig[i_lo]
    m_pos = slope_bound(i_lo) / denom
    m_neg = -slope_bound(i_hi) / denom
    return (m_neg, m_pos)
