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

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import numerics
from .numerics import TIE_TOL

# domain-membership slack for rejecting effort / volatility-control inputs
_DOMAIN_EPS = 1e-12

# broadcast probe: relative tolerance (a scalar ``x ** 2`` goes through C
# ``pow`` and can differ in the last bit from NumPy's array ``x * x``), and
# the points of one-argument primitives and payments
_PROBE_RTOL = 1e-12
PROBE_W = np.linspace(-3.0, 3.0, 13)
# primitives are probed at three times spanning [0, _PROBE_HORIZON]
_PROBE_HORIZON = 1.0

#: smallest (z, gamma) box radius of the saddle search
R_MIN = 1e-3
# box doublings the expanding radius search tries before it gives up
_MAX_DOUBLINGS = 40


def uniform_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """Inclusive uniform grid; a single point collapses to the left endpoint."""
    if count < 1:
        raise ValueError("grid needs at least one point")
    if count == 1:
        return np.array([lo], dtype=float)
    return np.linspace(lo, hi, count)


def _scalar_table(fn, *axes) -> np.ndarray:
    """``fn`` at each point of the outer product of ``axes``, one call each."""
    vals = np.array([fn(*point) for point in itertools.product(*axes)], dtype=float)
    return vals.reshape(tuple(len(ax) for ax in axes) + vals.shape[1:])


def elementwise(fn):
    """Adapter calling a scalar-only primitive once per element of its
    broadcast arguments; all-scalar calls go straight to ``fn``."""
    @functools.wraps(fn)
    def adapter(*args):
        if all(np.ndim(a) == 0 for a in args):
            return fn(*args)
        points = np.broadcast(*(np.asarray(a, dtype=float) for a in args))
        return np.array([fn(*p) for p in points], dtype=float).reshape(points.shape)
    return adapter


def _mesh_shape(fn, axes, want):
    """Shape of ``fn``'s call on the open mesh of ``axes`` when that call
    broadcasts to ``want`` (its scalar calls there, made here when None)
    and agrees within ``_PROBE_RTOL``, NaN matching NaN; else None.  A
    ``TypeError`` or ``ValueError`` on the probe also gives None."""
    try:
        got = np.asarray(fn(*np.ix_(*axes)), dtype=float)
        want = _scalar_table(fn, *axes) if want is None else want
        full = np.broadcast_to(got, want.shape)
    except (TypeError, ValueError):
        return None
    with np.errstate(invalid="ignore"):
        close = np.abs(full - want) <= _PROBE_RTOL * np.abs(want)
    same = close | (full == want) | (np.isnan(full) & np.isnan(want))
    return got.shape if np.all(same) else None


def vectorized(fn, *axes, want=None):
    """``fn`` if it broadcasts on the open mesh of ``axes`` and matches its
    scalar calls there (:func:`_mesh_shape`), else ``elementwise(fn)``."""
    return fn if _mesh_shape(fn, axes, want) is not None else elementwise(fn)


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


def _check_grid_counts(*counts: int) -> None:
    if any(count < 1 for count in counts):
        raise ValueError("control grids need at least one point")


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

    Coefficient contract: the solvers call primitives on broadcast arrays.
    Each callable primitive above and ``candidate_effort`` either broadcasts
    (checked once at construction against scalar calls on probe points) or
    is wrapped there, once, in ``elementwise``.  A result may omit an axis
    its primitive ignores, and the solvers reduce on the shapes they get.
    ``candidate_zgamma`` must broadcast, else ``ValueError``.  Errors inside
    primitives propagate.

    ``payoff_free_of_nature`` is derived at construction, not set: it holds
    when ``drift_b`` and ``discount_k`` broadcast and their calls on the
    probe mesh, which has two or more nature values (the nature set's ends
    on a one-point grid), come back without a nature axis (or with one of
    length 1).  Neither then reads the nature control, so the running
    payoff ``-k*y - c + b*z`` is the same at every nature control; the
    agent and principal solvers read the same fact from the shapes of
    their own calls.

    ``candidate_effort``, clamped to the effort set, is the exact
    maximizer of the running payoff over that set.  The solvers enumerate
    it ahead of the effort grid; on a payoff free of nature the Monte
    Carlo engine plays it without the grid or the volatility level set.
    ``risk_neutral`` claims more: exact (z, gamma) candidates and the
    closed-form radius, which the principal's saddle search reads; the
    Monte Carlo engine and its checks never read it.
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

    payoff_free_of_nature: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        a_lo, a_hi = self.effort_set_A
        if a_lo != 0.0 or a_hi <= 0.0:
            raise ValueError("effort set must be [0, a_bar] with a_bar > 0")
        n_lo, n_hi = self.nature_set_N
        if n_hi < n_lo:
            raise ValueError("nature set bounds out of order")
        if self.truncation_M <= 0.0:
            raise ValueError("truncation_M must be positive")
        _check_grid_counts(self.a_grid_points, self.n_grid_points,
                           self.z_grid_points, self.gamma_grid_points)
        self._probe_primitives()

    def _probe_primitives(self) -> None:
        """Check the model's conditions with scalar calls at probe points;
        each primitive is wrapped unless it broadcasts against them.  Those
        the checks do not need are probed on a thinner mesh."""
        ts = uniform_grid(0.0, _PROBE_HORIZON, 3)
        # stay inside the active region of the spatial cutoff, where the
        # volatility is required to be positive
        half = self.truncation_M + 0.95
        xs = uniform_grid(-half, half, 9)
        a_probe, n_probe = self.a_grid(), self.n_grid()
        a_sub = a_probe[:: max(1, len(a_probe) // 4)]
        n_sub = n_probe[:: max(1, len(n_probe) // 4)]
        # one nature value shows no dependence either way, so a one-point
        # grid's shape probes take the nature set's two ends instead
        n_shape = (n_sub if len(n_sub) > 1
                   else uniform_grid(*self.nature_set_N, 2))
        sig = self._adopt("vol_sigma", ts, xs, n_probe)[0]
        if not self.allow_degenerate_vol and not np.all(sig > 0.0):
            i, j, k = np.argwhere(~(sig > 0.0))[0]
            raise ValueError(
                f"vol_sigma must be positive on the grid, got {sig[i, j, k]} "
                f"at (t={ts[i]}, x={xs[j]}, n={n_probe[k]})")
        costs = self._adopt("cost_c", ts, xs, a_probe)[0]
        if np.any(costs < -1e-12):
            raise ValueError("cost_c must be nonnegative on the effort grid")
        if len(a_probe) >= 2 and np.any(np.diff(costs) < -1e-12):
            raise ValueError("cost_c must be increasing in effort")
        if len(a_probe) >= 3 and np.any(np.diff(costs, n=2) < -1e-12):
            raise ValueError("cost_c must be convex in effort")
        disc, disc_shape = self._adopt("discount_k", ts, xs, a_sub, n_sub)
        if np.any(np.abs(disc) > self.growth_params.kappa + 1e-12):
            raise ValueError("discount_k exceeds the kappa bound")
        if n_shape is not n_sub:
            disc_shape = self._adopt("discount_k", ts, xs, a_sub, n_shape)[1]
        target = self._adopt("utility_agent", PROBE_W)[0]
        inv = self._adopt("utility_agent_inv", target)[0]
        if np.any(np.abs(_scalar_table(self.utility_agent, inv) - target) > 1e-12):
            raise ValueError("utility_agent inverse is not exact on probes")

        # the thin mesh keeps two nature values of a two-point grid: on one
        # value the nature axis has length 1 whatever the drift reads
        xs, a_sub = xs[::4], a_sub[::2]
        n_shape = n_shape[::2] if len(n_shape) > 2 else n_shape
        drift_shape = self._adopt("drift_b", ts, xs, a_sub, n_shape)[1]
        # a broadcasting call that comes back without a nature axis reads
        # no nature control anywhere, not only at the probe points
        object.__setattr__(self, "payoff_free_of_nature", all(
            shape is not None and shape[-1:] in ((), (1,))
            for shape in (drift_shape, disc_shape)))
        # two w points (-1.5, 1.5) probe z, y, p and q; nature values stand in
        # for the candidate effort's volatility argument
        for name, axes in (("utility_principal", (PROBE_W,)),
                           ("liquidation_L", (PROBE_W,)),
                           ("candidate_effort", (ts, xs, PROBE_W[3::6], n_shape))):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, vectorized(getattr(self, name), *axes))
        if self.candidate_zgamma is not None:
            def flat(*args):
                return [v for pair in self.candidate_zgamma(*args) for v in pair]

            def stacked(*args):
                return np.stack(np.broadcast_arrays(*flat(*args)), axis=-1)

            axes = (ts, xs) + (PROBE_W[3::6],) * 3
            if vectorized(stacked, *axes, want=_scalar_table(flat, *axes)) is not stacked:
                raise ValueError("candidate_zgamma must broadcast over array "
                                 "arguments and match its scalar calls")

    def _adopt(self, name: str, *axes) -> tuple[np.ndarray, tuple | None]:
        """Scalar values of primitive ``name`` on ``axes`` and the shape of
        its mesh call (:func:`_mesh_shape`); it is wrapped in
        ``elementwise`` when that shape is None."""
        fn = getattr(self, name)
        want = _scalar_table(fn, *axes)
        shape = _mesh_shape(fn, axes, want)
        object.__setattr__(self, name, fn if shape is not None else elementwise(fn))
        return want, shape

    # -- control grids ------------------------------------------------------

    def a_grid(self) -> np.ndarray:
        return uniform_grid(self.effort_set_A[0], self.effort_set_A[1], self.a_grid_points)

    def n_grid(self) -> np.ndarray:
        return uniform_grid(self.nature_set_N[0], self.nature_set_N[1], self.n_grid_points)

    def with_control_grids(self, a: int | None = None, n: int | None = None,
                           z: int | None = None, gamma: int | None = None) -> "ModelSpec":
        """Copy of the model with control-grid counts replaced.

        The copy shares this model's primitives, already probed and adopted
        at construction, so it calls none of them.
        """
        counts = {name: count for name, count in (
            ("a_grid_points", a), ("n_grid_points", n),
            ("z_grid_points", z), ("gamma_grid_points", gamma))
            if count is not None}
        _check_grid_counts(*counts.values())
        twin = copy.copy(self)
        for name, count in counts.items():
            object.__setattr__(twin, name, count)
        return twin

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

def _first_within(values, target):
    """Earliest index along the last axis of ``values`` within ``TIE_TOL``
    of ``target``, which has the leading shape."""
    hit = np.abs(np.asarray(values) - np.asarray(target)[..., None]) <= TIE_TOL
    if not hit.any(axis=-1).all():
        raise RuntimeError("optimum not found in its own enumeration")
    return np.argmax(hit, axis=-1)


def _loop_optimum(values, arg):
    """``max`` (``arg`` np.argmax) or ``min`` (np.argmin) along the last
    axis as a scalar loop returns it, the first element attaining it: a
    signed zero keeps the loop's sign, which NumPy's reductions do not."""
    at = arg(values, axis=-1)[..., None]
    return np.take_along_axis(values, at, axis=-1)[..., 0]


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


def level_set_tolerance(n_grid, sig2):
    """Default level-set membership tolerance: grid step squared times the
    Lipschitz estimate of sigma^2 along the n-grid.

    ``sig2`` holds the squared volatilities ``sig * sig`` on the n-grid, n
    axis first and any trailing shape; the result has the trailing shape.
    """
    if len(n_grid) < 2:
        return np.full(sig2.shape[1:], 1e-9)
    dn = float(n_grid[1] - n_grid[0])
    lip = np.max(np.abs(np.diff(sig2, axis=0)), axis=0) / dn if dn > 0 \
        else np.zeros(sig2.shape[1:])
    return np.maximum(dn * dn * lip, 1e-12)


def level_set_V(model: ModelSpec, t: float, x: float, Sigma: float,
                tol: float | None = None) -> list[float]:
    """Grid points n with sigma(t,x,n)^2 within tol of Sigma.

    An empty list is a valid answer: it signals that Sigma is not attained
    by any volatility control at (t, x).
    """
    if Sigma < 0.0:
        raise ValueError("Sigma must be nonnegative")
    if tol is not None and tol <= 0.0:
        raise ValueError("tol must be positive")
    grid = model.n_grid()
    sig = np.array([model.vol_sigma(t, x, float(n)) for n in grid], dtype=float)
    sig2 = sig * sig
    if tol is None:
        tol = level_set_tolerance(grid, sig2)
    return [float(n) for n, s2 in zip(grid, sig2) if abs(s2 - Sigma) <= tol]


def eval_F_star(model: ModelSpec, t: float, x: float, y: float, z: float,
                Sigma: float) -> SaddleResult:
    """sup over effort of inf over the Sigma level set of the running payoff."""
    level = level_set_V(model, t, x, Sigma)
    if not level:
        raise ValueError(f"Sigma={Sigma} unattainable at (t={t}, x={x})")
    efforts = _effort_enumeration(model, t, x, z, math.sqrt(Sigma))

    table = [[eval_F(model, t, x, y, z, a, n) for n in level] for a in efforts]
    inner_min = [min(row) for row in table]
    value = max(inner_min)
    ia = _first_within(inner_min, value)
    inn = _first_within(table[ia], inner_min[ia])

    # reversed ordering for the gap diagnostic
    inf_sup = min(max(col) for col in zip(*table))
    return SaddleResult(value=value, arg_a=efforts[ia], arg_n=level[inn],
                        isaacs_gap=inf_sup - value)


def eval_H(model: ModelSpec, t: float, x: float, y: float, z: float,
           gamma: float) -> SaddleResult:
    """min over the n-grid of [ (1/2) sigma(n)^2 gamma + max over effort of F ].

    The infimum over attainable volatility-squares collapses to the n-grid
    scan in one dimension. The reported pair is (inner effort, outer n).
    """
    grid = [float(n) for n in model.n_grid()]
    sigs = [model.vol_sigma(t, x, n) for n in grid]
    pair_vals: list[float] = []
    inner: list[tuple[list[float], list[float]]] = []
    for n, sig in zip(grid, sigs):
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
    sup_inf = -math.inf
    for a in model.a_grid():
        sup_inf = max(sup_inf, min(
            0.5 * sig * sig * gamma + eval_F(model, t, x, y, z, float(a), n)
            for n, sig in zip(grid, sigs)))
    gap = value - sup_inf
    return SaddleResult(value=value, arg_a=efforts[ia], arg_n=grid[jn],
                        isaacs_gap=max(gap, 0.0))


def optimal_effort(model: ModelSpec, t: float, x: float, y: float, z: float,
                   Sigma: float) -> tuple[float, bool]:
    """Maximizing effort of the sup-inf at volatility-square Sigma.

    The boolean flag certifies the calibrated growth envelope
    |a*| <= C (1 + |z|^(1/(m_lower+1-ell))).
    """
    res = eval_F_star(model, t, x, y, z, Sigma)
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


def eval_G(model: ModelSpec, t: float, x: float, y: float, p: float,
           p_tilde: float, q: float, q_tilde: float, r: float,
           radius: float) -> GameResult:
    """sup over the (z, gamma) box of inf over the n-grid of the integrand.

    One array evaluation, bit-identical to the oracle that calls the scalar
    reference ``eval_g`` pair by pair.  The pairs are clamped candidates,
    then the z-major box grid.  The parts free of gamma are computed once
    per distinct z (keyed by bit pattern: 0.0 and -0.0 stay apart): F's
    effort maximum per nature, which forms H as ``eval_H`` does, and the
    agent's response at each nature n_j as ``eval_F_star`` selects it at
    sigma_j^2.  Every optimum is taken as a scalar loop takes it.
    """
    for name, value in dict(p=p, p_tilde=p_tilde, q=q, q_tilde=q_tilde, r=r,
                            radius=radius).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    cands = ([] if model.candidate_zgamma is None
             else model.candidate_zgamma(t, x, y, p, q))
    box = np.meshgrid(uniform_grid(-radius, radius, model.z_grid_points),
                      uniform_grid(-radius, radius, model.gamma_grid_points),
                      indexing="ij")
    pairs = np.concatenate([np.clip(np.reshape(cands, (-1, 2)), -radius, radius),
                            np.stack(box, axis=-1).reshape(-1, 2)])
    bits, zi = np.unique(pairs[:, 0].view(np.uint64), return_inverse=True)
    z = bits.view(float)[:, None]                           # (Z, 1)
    n_grid, a_grid = model.n_grid(), model.a_grid()
    sig = np.broadcast_to(numerics.field(model.vol_sigma, t, x, n_grid),
                          n_grid.shape)
    sig2 = sig * sig

    def options(sigma):
        """F and b of each effort option at (z, n_j) against every n_l, on
        (Z, n_j, effort, n_l): the clamped candidate at (z, ``sigma``), if
        the model has one, then the a-grid."""
        a = np.broadcast_to(a_grid, (len(z), len(n_grid), len(a_grid)))
        cand = numerics.clamped_candidate(model, t, x, z, sigma)
        if cand is not None:
            if np.isnan(cand).any():    # the one effort eval_F rejects
                raise ValueError(f"effort nan outside {model.effort_set_A}")
            a = np.concatenate([np.broadcast_to(cand, a.shape[:2])[..., None],
                                a], axis=-1)
        base, b = numerics.effort_payoff(model, t, x, y, a[..., None], n_grid)[:2]
        full = a.shape + n_grid.shape
        return (np.broadcast_to(base + b * z[..., None, None], full),
                np.broadcast_to(b, full))

    # the effort maximum of F at each nature, candidate at sigma_j
    f = options(sig)[0].diagonal(axis1=1, axis2=3)          # (Z, e, n)
    fmax = _loop_optimum(f.swapaxes(1, 2), np.argmax)       # (Z, n)

    # response at n_j: the options (candidate at sqrt(sigma_j^2)) by their
    # inf over the level set of n_j, and b at n_j of the earliest best
    f, b = options(np.sqrt(sig2))
    level = (np.abs(sig2 - sig2[:, None])
             <= level_set_tolerance(n_grid, sig2))          # (n_j, n_l)
    inner = np.where(level[:, None], f, np.inf).min(axis=-1)
    ia = _first_within(inner, inner.max(axis=-1))           # (Z, n_j)
    bval = np.take_along_axis(b.diagonal(axis1=1, axis2=3), ia[:, None],
                              axis=1)[:, 0]                 # (Z, n_j)

    zs, gams = pairs[:, :1], pairs[:, 1:]
    hval = _loop_optimum(0.5 * sig * sig * gams + fmax[zi], np.argmin)
    rows = _g_from_parts(p, p_tilde, q, q_tilde, r, zs, gams, sig2,
                         bval[zi], hval[:, None])           # (pairs, n)
    outer = _loop_optimum(rows, np.argmin)
    value = _loop_optimum(outer, np.argmax)
    k = _first_within(outer, value)
    jn = _first_within(rows[k], outer[k])
    return GameResult(value=float(value), z_star=float(pairs[k, 0]),
                      gamma_star=float(pairs[k, 1]), n_star=float(n_grid[jn]))


def compute_radius(model: ModelSpec, t: float, x: float, y: float, p: float,
                   q: float, p_tilde: float, q_tilde: float,
                   r: float) -> float:
    """Search-box radius for the (z, gamma) optimization.

    Risk-neutral models admit the closed form max(|p|, |q|); otherwise an
    expanding geometric search doubles the box until the recovered argmax
    stays strictly interior for two consecutive steps, which requires the
    coercivity q_tilde < 0.
    """
    if model.risk_neutral:
        return max(abs(p), abs(q), R_MIN)
    if q_tilde >= 0.0:
        raise ValueError("coercivity not guaranteed: q_tilde must be negative")
    radius = max(abs(p), abs(q), R_MIN)
    first_interior: float | None = None
    for _ in range(_MAX_DOUBLINGS):
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
