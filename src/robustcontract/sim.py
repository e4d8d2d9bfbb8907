"""Forward Monte Carlo for the coupled output / promised-utility system.

The engine integrates

    dX = b(t, X, a, n) dt + sigma(t, X, n) dW
    dY = z dX - F*(t, X, Y, z, sigma^2) dt + k_rate dt

under a feedback contract policy and a piecewise-constant volatility
scenario, where the effort a is the agent's best response to the contract
sensitivity z at the realized volatility level.  On top of the raw engine
sit the verification utilities: likelihood-ratio reweighting between the
driftless and the drifted dynamics, incentive-compatibility probes,
martingale flatness reports, the separated-beliefs degeneracy
demonstration, and ``contract_checks``, the whole suite that ``verify``
runs on an extracted contract.

Randomness is reproducible by construction.  The splitting rule is the
contract: child k of ``numpy.random.SeedSequence(seed).spawn(steps)``,
which is ``SeedSequence(seed, spawn_key=(k,))``, seeds the PCG64 stream of
time step k, and ``Generator.standard_normal(paths)`` fills that step's
row of increments; path i takes element i of every row.  A batch draws
each row when the engine reaches its step, so it holds the increments of
one step, not of the whole horizon.  Identical configurations therefore
give bit-identical results.  Each check built on common random numbers
(the incentive probes and the martingale report) draws the read-only
(steps, paths) increment matrix once and passes it to every batch it runs
as ``simulate_system``'s ``increments``; a batch given that matrix is
bit-identical to one that draws its rows itself.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import numerics
from .hamiltonians import ModelSpec, level_set_tolerance
from .principal import ContractPolicy

__all__ = [
    "Estimate", "SimConfig", "NatureStrategy", "SimResult",
    "simulate_system", "girsanov_cross_check", "constant_policy",
    "incentive_compatibility_check", "martingale_sandwich_check",
    "contract_checks", "disjoint_beliefs_demo",
]

#: two-sided 95% normal quantile used for every confidence halfwidth
CI_QUANTILE = 1.959963984540054
# x and y interval of the two-node grids of a constant policy
_CONSTANT_POLICY_BOX = (-8.0, 8.0)
# discretization budget an incentive probe may exceed the baseline by
_BIAS_BUDGET = 0.02


class Estimate(NamedTuple):
    """Monte Carlo mean with a 95% confidence halfwidth."""

    mean: float
    ci_halfwidth: float


def _estimate(vals: np.ndarray) -> Estimate:
    """Sample mean with its normal-approximation 95% CI half-width."""
    n = len(vals)
    half = CI_QUANTILE * float(np.std(vals, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return Estimate(float(np.mean(vals)), half)


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for one batch of paths.

    ``dt`` must divide the policy horizon; ``girsanov_mode`` switches the
    engine to the driftless reference dynamics and accumulates the
    likelihood-ratio weight of the drifted measure along each path.
    """

    paths: int
    dt: float
    seed: int
    x0: float = 0.0
    y0: float = 0.0
    girsanov_mode: bool = False

    def __post_init__(self) -> None:
        for name in ("paths", "seed"):
            value = getattr(self, name)
            # bool is an Integral too, but a count or a seed it is not
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.paths < 1:
            raise ValueError("paths must be at least 1")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        for name in ("x0", "y0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    def steps_for(self, horizon: float) -> int:
        """Number of Euler steps; errors unless the horizon is finite and
        nonnegative and dt divides it.

        A zero horizon is legal and runs no steps (terminal-only batch).
        """
        if not (math.isfinite(horizon) and horizon >= 0.0):
            raise ValueError(
                f"the horizon must be finite and nonnegative, got {horizon}")
        steps = int(round(horizon / self.dt))
        if (abs(steps * self.dt - horizon) > 1e-9 * max(horizon, 1.0)
                or (steps < 1 and horizon > 0.0)):
            raise ValueError(
                f"dt={self.dt} does not divide the horizon {horizon}")
        return steps


@dataclass(frozen=True)
class NatureStrategy:
    """Piecewise-constant volatility scenario n_t = n_i on (tau_{i-1}, tau_i].

    ``breakpoints`` are the right interval endpoints, strictly increasing,
    the last one covering the horizon.  The value on [0, tau_0] is
    ``values[0]``.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(bp) != len(vals) or not bp:
            raise ValueError("breakpoints and values must align and be nonempty")
        if bp[0] <= 0.0 or any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing and positive")

    @classmethod
    def constant(cls, n: float, horizon: float) -> "NatureStrategy":
        return cls(breakpoints=(horizon,), values=(n,))

    @classmethod
    def uniform(cls, values: Sequence[float], horizon: float) -> "NatureStrategy":
        """Equal-length intervals covering [0, horizon]."""
        k = len(values)
        bp = tuple(horizon * (i + 1) / k for i in range(k))
        return cls(breakpoints=bp, values=tuple(values))

    def value_at(self, t: float) -> float:
        idx = bisect.bisect_left(self.breakpoints, t)
        return self.values[min(idx, len(self.values) - 1)]

    def validate_for(self, model: ModelSpec, horizon: float) -> None:
        if self.breakpoints[-1] < horizon - 1e-9:
            raise ValueError("scenario breakpoints do not cover the horizon")
        for v in self.values:
            if not model.contains_nature(v):
                raise ValueError(
                    f"scenario value {v} outside {model.nature_set_N}")


@dataclass(frozen=True, eq=False)
class SimResult:
    """Estimates plus terminal samples and per-step diagnostics.

    ``realized_qv[k]`` is the cross-path mean of (dX)^2/dt at step k, the
    sampled quadratic-variation density.  ``weights`` holds the
    likelihood-ratio weight per path in girsanov mode and is None
    otherwise.  Estimates are computed over the non-quarantined paths
    (and are weight-adjusted in girsanov mode).
    """

    principal_estimate: Estimate
    agent_estimate: Estimate
    terminal_x: np.ndarray
    terminal_y: np.ndarray
    realized_qv: np.ndarray
    paths_used: int
    quarantined: int
    discount_bounds: tuple[float, float]
    weights: np.ndarray | None


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------

def _step_stream(seed: int, k: int) -> np.random.Generator:
    """Step k's Gaussian stream: ``SeedSequence(seed).spawn(steps)[k]``,
    which is ``SeedSequence(seed, spawn_key=(k,))``, seeding a PCG64."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(k,))))


def _draw_increments(seed: int, paths: int, steps: int) -> np.ndarray:
    """Standard-normal increments as one read-only C-order (steps, paths)
    matrix.

    Splitting rule (fixed for reproducibility): child k of
    SeedSequence(seed).spawn(steps) seeds a PCG64 bit generator whose
    Generator.standard_normal(paths) fills row k, the increments of step
    k; path i is element i of every row.
    """
    out = np.empty((steps, paths))
    for k, row in enumerate(out):
        _step_stream(seed, k).standard_normal(out=row)
    out.flags.writeable = False
    return out


def _path_increments(seed: int, paths: int, steps: int) -> Iterator[np.ndarray]:
    """Step rows of increments under ``_draw_increments``'s splitting rule,
    each drawn when the engine reaches its step, so a batch holds one row
    rather than the whole matrix."""
    return (_step_stream(seed, k).standard_normal(paths)
            for k in range(steps))


# ---------------------------------------------------------------------------
# the agent's response at the realized volatility level
# ---------------------------------------------------------------------------

def _response(model: ModelSpec, t: float, X: np.ndarray, Y: np.ndarray,
              Z: np.ndarray, n_now) -> tuple:
    """Vectorized (effort, F*, sigma, parts) across paths at the driving
    control; ``parts`` is the effort's ``(b, k, c)`` from the effort
    kernel when this call evaluated them at that effort, else None.

    A model with a ``candidate_effort`` and a payoff free of nature plays
    the clamped candidate, which is the exact maximizer of a running
    payoff that no volatility control changes, and reports that effort's
    own payoff as F*.  Any other model goes through
    :func:`_enumerated_response`.  Against that enumeration on the same
    model, the played effort, sigma and ``(b, k, c)`` agree bit for bit,
    but F* can differ:

    - the enumeration reports the maximum over every row while its tie
      rule keeps the first (candidate) effort, so where the candidate
      lies within a few ulps of a grid effort a grid row can round above
      it, and the candidate's F* is then the lower.  Over 400,000 states
      within 8 ulps per preset, 13% to 19% differ, by at most 5.6e-17
      (2**-54) on risk_neutral, 2.8e-16 (2**-52 + 2**-54) on
      quadratic_bounded and 1.1e-16 (2**-53) on custom_tabulated; on
      uniform random states about one in 400,000 differs;
    - at z = +inf the candidate's F* is inf where the enumeration gives
      NaN (0 * inf on the a = 0 row); at z = -inf both give NaN;
    - at z = -0.0 the candidate's F* is +0.0 where the enumeration gives
      -0.0.
    """
    if model.candidate_effort is None or not model.payoff_free_of_nature:
        return _enumerated_response(model, t, X, Y, Z, n_now)
    sig = numerics.field(model.vol_sigma, t, X, n_now)
    cand = np.broadcast_to(
        numerics.clamped_candidate(model, t, X, Z, sig), X.shape)
    base, b, k, c = numerics.effort_payoff(model, t, X, Y, cand, n_now)
    return cand, base + b * Z, sig, (b, k, c)


def _enumerated_response(model: ModelSpec, t: float, X: np.ndarray,
                         Y: np.ndarray, Z: np.ndarray, n_now) -> tuple:
    """:func:`_response` by enumeration, with None for ``parts``.

    Mirrors the pointwise saddle evaluation with the ``numerics`` effort
    kernel's enumeration and payoff on one (effort, path) tensor; the
    inner infimum runs over the grid controls whose squared volatility
    matches the realized level within the model tolerance, with the
    driving control itself appended last (it always realizes its own
    level).  Ties resolve to the earliest enumerated entry.  sigma keeps
    the volatility's own shape (``numerics.field``).

    The cost is evaluated once, and only the payoff outlives each kernel
    call, which keeps the fold's peak memory down.  The infimum over the
    level set is a sequential fold in n-grid order rather than a masked
    ``np.min``, which would resolve NaN and signed zeros differently from
    the pointwise evaluator.  A model whose payoff is free of nature
    (``ModelSpec.payoff_free_of_nature``) skips the fold: every entry
    would equal the driving control's payoff, so none is smaller.
    """
    sig = numerics.field(model.vol_sigma, t, X, n_now)
    cand = numerics.clamped_candidate(model, t, X, Z, sig)
    if cand is not None:
        cand = np.broadcast_to(cand, X.shape)

    a_grid = model.a_grid()
    A = np.broadcast_to(a_grid[:, None], (len(a_grid),) + X.shape)
    if cand is not None:
        A = np.concatenate([cand[None], A])

    if model.payoff_free_of_nature:
        # no fold reuses the cost, so it is not kept: one (effort, path)
        # tensor less at the peak
        base, b = numerics.effort_payoff(model, t, X, Y, A, n_now)[:2]
        inner = base + b * Z
    else:
        n_pts = model.n_grid()
        # the level-set tolerance differences along the full n-grid axis
        sig_grid = np.broadcast_to(
            numerics.field(model.vol_sigma, t, X, n_pts[:, None]),
            (len(n_pts),) + X.shape)
        sig2_grid = sig_grid * sig_grid
        tol = level_set_tolerance(n_pts, sig2_grid)
        member = np.abs(sig2_grid - sig * sig) <= tol

        def payoff(n, cost):
            base, b, _, cost = numerics.effort_payoff(model, t, X, Y, A, n,
                                                      cost)
            return base + b * Z, cost

        inner, cost = payoff(n_now, None)
        for j, n in enumerate(n_pts):
            fj, _ = payoff(float(n), cost)
            inner = np.where(member[j] & (fj < inner), fj, inner)

    win, fstar = numerics.best_effort(inner)
    return A[win, np.arange(X.size)], fstar, sig, None


def _incentive_field_check(model: ModelSpec, policy: ContractPolicy) -> dict:
    """Tabulated play must be the best response to the tabulated terms,
    on the (x, y) nodes of the policy's first, middle and last slices.  An
    injected policy whose effort no longer answers its own sensitivity
    fails here, without any sampling noise."""
    nt = len(policy.t_grid) - 1
    slices = sorted({0, (nt - 1) // 2, nt - 1} if nt >= 1 else {0})
    X2, Y2 = np.meshgrid(policy.x_grid, policy.y_grid, indexing="ij")
    Xf, Yf = X2.ravel(), Y2.ravel()
    worst = 0.0
    for k in slices:
        a_resp = _response(model, float(policy.t_grid[k]), Xf, Yf,
                           policy.z[k].ravel(), policy.nature[k].ravel())[0]
        worst = max(worst, float(np.max(np.abs(
            policy.effort[k].ravel() - a_resp))))
    return {"passed": bool(worst <= 1e-9), "measured": worst, "bound": 1e-9}


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def simulate_system(model: ModelSpec, policy: ContractPolicy,
                    nature: NatureStrategy | None, cfg: SimConfig, *,
                    effort_transform: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None,
                    observer: Callable[[int, float, np.ndarray, np.ndarray], None] | None = None,
                    increments: np.ndarray | None = None,
                    ) -> SimResult:
    """Euler-Maruyama run of the coupled (X, Y) system under a contract.

    ``nature`` drives the volatility; None uses the policy's tabulated
    worst-case feedback field instead of a fixed scenario.  The contract
    terms (z, F*, k_rate) always follow the payment rule; the agent plays
    the best-response effort, optionally deformed by ``effort_transform``
    (a map (t, X, a*) -> played effort, clamped back into the effort set),
    which changes the realized drift and cost but never the payments.

    Each step reads the policy at the paths' nearest nodes
    (``ContractPolicy.gather``).  While every discount rate so far is a
    0-d zero the discount is exactly 1.0 and, since 1.0 * x is x bit for
    bit, is not multiplied into the cost or by exp(-k dt); the first other
    rate starts both products.  After an effort transform the step
    evaluates only the played effort's (b, k, c)
    (``numerics.effort_parts``).

    Per-path overflow or NaN is quarantined; a quarantined fraction above
    1% raises.  ``observer`` is called as observer(step, t, X, Y) before
    every update and once more at the horizon.  ``increments``, the
    ``_draw_increments`` matrix of ``cfg``, replaces the per-step draws.
    """
    horizon = float(policy.t_grid[-1])
    steps = cfg.steps_for(horizon)
    if nature is not None:
        nature.validate_for(model, horizon)
    if increments is None:
        increments = _path_increments(cfg.seed, cfg.paths, steps)
    elif np.shape(increments) != (steps, cfg.paths):
        # a short matrix would end the run early with qv unfilled
        raise ValueError(f"increments have shape {np.shape(increments)}, "
                         f"not (steps, paths) = {(steps, cfg.paths)}")
    sqdt = math.sqrt(cfg.dt)
    fields = ("z", "k_rate") if nature is not None else ("z", "k_rate", "nature")

    X = np.full(cfg.paths, float(cfg.x0))
    Y = np.full(cfg.paths, float(cfg.y0))
    disc = np.ones(cfg.paths)
    # disc is exactly 1.0 until a step's discount rate is not a 0-d zero,
    # and 1.0 * x is x bit for bit, so until then no step multiplies by it
    unit_disc = True
    cost_acc = np.zeros(cfg.paths)
    logw = np.zeros(cfg.paths) if cfg.girsanov_mode else None
    qv = np.empty(steps)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, row in enumerate(increments):
            t = k * cfg.dt
            if observer is not None:
                observer(k, t, X, Y)
            ctl = policy.gather(t, X, Y, fields=fields)
            z, k_rate = ctl["z"], ctl["k_rate"]
            n_now = nature.value_at(t) if nature is not None else ctl["nature"]

            a, fstar, sig, parts = _response(model, t, X, Y, z, n_now)
            if effort_transform is not None:
                a = np.clip(effort_transform(t, X, a), *model.effort_set_A)
                parts = None  # they belong to the replaced effort
            if parts is None:
                parts = numerics.effort_parts(model, t, X, a, n_now)
            b, k_a, c_a = parts
            del parts
            unit_disc = unit_disc and np.ndim(k_a) == 0 and k_a == 0.0
            if unit_disc:
                cost_acc = cost_acc + c_a * cfg.dt
            else:
                cost_acc = cost_acc + disc * c_a * cfg.dt
                disc = disc * np.exp(-k_a * cfg.dt)
            # the step's discount and cost are spent: kept alive into the
            # next step's _response they would raise peak RSS
            del k_a, c_a

            dw = sqdt * row
            if cfg.girsanov_mode:
                dX = sig * dw
                theta = np.where(b != 0.0, b / np.where(sig > 0.0, sig, np.nan), 0.0)
                logw += theta * dw - 0.5 * theta * theta * cfg.dt
            else:
                dX = b * cfg.dt + sig * dw

            Y = Y + z * dX - fstar * cfg.dt + k_rate * cfg.dt

            sq = dX * dX
            # squares are >= 0, +inf or NaN, so a finite mean has none to
            # drop; only a non-finite one pays for the masked mean
            m = np.add.reduce(sq) / sq.size
            if not math.isfinite(m):
                kept = sq[np.isfinite(sq)]
                m = np.mean(kept) if kept.size else math.nan
            qv[k] = float(m / cfg.dt)
            X = X + dX
            # released before the next step's _response, as k_a and c_a are
            del row, dw, dX, sq
        if observer is not None:
            observer(steps, horizon, X, Y)

        pay = numerics.apply1(model.utility_agent_inv, Y)
        agent_terminal = numerics.apply1(model.utility_agent, pay)
        agent_samples = disc * agent_terminal - cost_acc
        principal_samples = numerics.apply1(
            model.utility_principal, numerics.apply1(model.liquidation_L, X) - pay)

    weights = np.exp(logw) if logw is not None else None
    good = (np.isfinite(X) & np.isfinite(Y)
            & np.isfinite(agent_samples) & np.isfinite(principal_samples))
    if weights is not None:
        good &= np.isfinite(weights)
    used = int(np.count_nonzero(good))
    quarantined = cfg.paths - used
    if quarantined > 0.01 * cfg.paths:
        raise RuntimeError(
            f"quarantined {quarantined}/{cfg.paths} paths "
            f"({100.0 * quarantined / cfg.paths:.1f}% > 1%)")

    def estimate(samples: np.ndarray) -> Estimate:
        vals = samples[good]
        return _estimate(vals if weights is None else vals * weights[good])

    # the quarantine gate leaves at least one path
    dmin, dmax = float(np.min(disc[good])), float(np.max(disc[good]))
    return SimResult(
        principal_estimate=estimate(principal_samples),
        agent_estimate=estimate(agent_samples),
        terminal_x=X, terminal_y=Y, realized_qv=qv,
        paths_used=used, quarantined=quarantined,
        discount_bounds=(dmin, dmax), weights=weights)


# ---------------------------------------------------------------------------
# likelihood ratio between the driftless and the drifted dynamics
# ---------------------------------------------------------------------------

def girsanov_cross_check(model: ModelSpec, policy: ContractPolicy,
                         cfg: SimConfig, *,
                         direct: SimResult | None = None) -> dict:
    """Two-estimator consistency check on E[L(X_T)].

    Runs the drifted simulation and an independently seeded driftless one
    reweighted by the likelihood ratio, both under the policy's worst-case
    volatility feedback; reports the gap between the two estimates and the
    3x combined confidence tolerance.  ``direct`` is the drifted run when the
    caller has it, such as the martingale check's ``feedback_run``.
    """
    if direct is None:
        direct = simulate_system(model, policy, None,
                                 dataclasses.replace(cfg, girsanov_mode=False))
    ref_cfg = dataclasses.replace(cfg, girsanov_mode=True, seed=cfg.seed + 1)
    ref = simulate_system(model, policy, None, ref_cfg)

    def terminal_estimate(res: SimResult) -> Estimate:
        lx = numerics.apply1(model.liquidation_L, res.terminal_x)
        good = np.isfinite(lx)
        if res.weights is None:
            return _estimate(lx[good])
        good &= np.isfinite(res.weights)
        return _estimate(lx[good] * res.weights[good])

    d_est = terminal_estimate(direct)
    w_est = terminal_estimate(ref)
    gap = abs(d_est.mean - w_est.mean)
    tol = 3.0 * (d_est.ci_halfwidth + w_est.ci_halfwidth)
    return {"gap": gap, "tol": tol, "agree": bool(gap <= tol)}


# ---------------------------------------------------------------------------
# policies without a preceding solve
# ---------------------------------------------------------------------------

def constant_policy(model: ModelSpec, horizon: float, *, z: float,
                    k_rate: float = 0.0, nature: float | None = None,
                    ) -> ContractPolicy:
    """Contract with constant sensitivity and compensator rate.

    Handy for direct engine runs; effort and F* are recomputed pathwise
    by the simulator, so their table entries are placeholders.
    """
    if nature is None:
        nature = 0.5 * (model.nature_set_N[0] + model.nature_set_N[1])
    # a zero horizon has one time node, as a zero-step solve does
    t_grid = np.array([0.0, horizon]) if horizon != 0.0 else np.zeros(1)
    shape = (len(t_grid), 2, 2)
    return ContractPolicy(
        t_grid=t_grid, x_grid=np.linspace(*_CONSTANT_POLICY_BOX, 2),
        y_grid=np.linspace(*_CONSTANT_POLICY_BOX, 2),
        z=np.full(shape, float(z)), gamma=np.zeros(shape),
        effort=np.zeros(shape), nature=np.full(shape, float(nature)),
        k_rate=np.full(shape, float(k_rate)), fstar=np.zeros(shape))


# ---------------------------------------------------------------------------
# incentive compatibility
# ---------------------------------------------------------------------------

def _check_perturbations(perturbations: int) -> None:
    """Without a probe the incentive check would pass having tested nothing."""
    if perturbations < 1:
        raise ValueError(f"perturbations must be at least 1, got {perturbations}")


def _worst_constant_agent_value(model: ModelSpec, policy: ContractPolicy,
                                cfg: SimConfig, transform,
                                increments: np.ndarray) -> tuple[Estimate, float]:
    """Agent objective minimized over constant volatility scenarios, each
    run on ``increments``."""
    horizon = float(policy.t_grid[-1])
    best: Estimate | None = None
    best_n = math.nan
    for n in model.n_grid():
        res = simulate_system(
            model, policy, NatureStrategy.constant(float(n), horizon), cfg,
            effort_transform=transform, increments=increments)
        if best is None or res.agent_estimate.mean < best.mean:
            best, best_n = res.agent_estimate, float(n)
    return best, best_n


def incentive_compatibility_check(model: ModelSpec, policy: ContractPolicy,
                                  cfg: SimConfig, perturbations: int, *,
                                  deformations: Sequence[Callable] | None = None,
                                  damping_range: tuple[float, float] = (0.2, 0.45),
                                  increments: np.ndarray | None = None,
                                  ) -> dict:
    """Deformed-effort probes of the extracted contract.

    Each perturbation damps the best-response effort by a random factor
    (or applies a caller-supplied deformation (t, X, a*) -> a) and
    re-estimates the agent objective under its own worst constant
    volatility.  A perturbation passes when its value does not exceed the
    unperturbed one beyond 3x the combined confidence halfwidth plus the
    discretization budget; the report also counts the strict drops larger
    than one combined halfwidth.  Violations are listed, not raised.
    ``increments`` is the ``_draw_increments`` matrix of ``cfg`` when the
    caller has drawn it.
    """
    _check_perturbations(perturbations)
    if increments is None:
        increments = _draw_increments(
            cfg.seed, cfg.paths, cfg.steps_for(float(policy.t_grid[-1])))
    base = _worst_constant_agent_value(model, policy, cfg, None,
                                       increments)[0]

    if deformations is None:
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((cfg.seed, 0x1C))))
        deltas = rng.uniform(*damping_range, size=perturbations)
        deformations = [
            (lambda t, X, a, d=float(d): (1.0 - d) * a) for d in deltas]
        labels = [f"damping {d:.3f}" for d in deltas]
    else:
        labels = [getattr(f, "__name__", f"deformation {i}")
                  for i, f in enumerate(deformations)]

    entries = []
    strict = 0
    violations = []
    for label, deform in zip(labels, deformations):
        est, n_star = _worst_constant_agent_value(model, policy, cfg, deform,
                                                  increments)
        combined = base.ci_halfwidth + est.ci_halfwidth
        drop = base.mean - est.mean
        ok = est.mean <= base.mean + 3.0 * combined + _BIAS_BUDGET
        if drop > combined:
            strict += 1
        entry = {"label": label, "value": est.mean, "ci": est.ci_halfwidth,
                 "worst_nature": n_star, "drop": drop, "within_tolerance": ok}
        entries.append(entry)
        if not ok:
            violations.append(entry)
    return {"baseline": base, "entries": entries, "strictly_lower": strict,
            "violations": violations, "passed": not violations}


# ---------------------------------------------------------------------------
# martingale flatness along optimal paths
# ---------------------------------------------------------------------------

def martingale_sandwich_check(model: ModelSpec, solution, policy: ContractPolicy,
                              cfg: SimConfig, *, probes: int = 9,
                              tolerance: float = 0.05,
                              increments: np.ndarray | None = None) -> dict:
    """Flatness report for E[u(t, X_t, Y_t)] along simulated paths.

    Under the extracted policy with its own worst-case volatility feedback
    the surface composed with the state should be a martingale; one run
    reports the worst secant slope per unit time between the probe-time
    means as ``worst_drift``, and ``feedback_run`` is that run's result.
    The name keeps "sandwich" because ``perfbench/spans.py`` traces this
    function by name.  The run uses ``increments``, drawn here unless the
    caller passes the ``_draw_increments`` matrix of ``cfg``.  Fewer than
    two probes (no slope) or a tolerance that is not positive raise.
    """
    if probes < 2:
        raise ValueError(f"probes must be at least 2, got {probes}")
    if not tolerance > 0.0:
        raise ValueError(f"martingale_tolerance must be positive, got {tolerance}")
    steps = cfg.steps_for(float(policy.t_grid[-1]))
    if increments is None:
        increments = _draw_increments(cfg.seed, cfg.paths, steps)
    probe_set = set(np.round(np.linspace(0, steps, probes)).astype(int).tolist())
    times, means = [], []

    def observe(k: int, t: float, X: np.ndarray, Y: np.ndarray) -> None:
        if k in probe_set:
            u = numerics.surface_value(solution.t_grid, solution.x_grid,
                                       solution.y_grid, solution.values,
                                       t, X, Y)
            fin = np.isfinite(u)
            times.append(t)
            means.append(float(np.mean(u[fin])) if fin.any() else math.nan)

    feedback = simulate_system(model, policy, None, cfg, observer=observe,
                               increments=increments)
    slopes = np.diff(means) / np.diff(times)
    worst = float(np.max(np.abs(slopes))) if len(slopes) else 0.0
    return {"worst_drift": worst, "passed": bool(worst <= tolerance),
            "feedback_run": feedback}


# ---------------------------------------------------------------------------
# the whole suite of an extracted contract
# ---------------------------------------------------------------------------

def contract_checks(model: ModelSpec, surface, policy: ContractPolicy,
                    cfg: SimConfig, *, perturbations: int, probes: int,
                    tolerance: float) -> dict:
    """``verify``'s checks of an extracted contract as its report entries:
    ``incentive_fields``, ``martingale_drift`` (of the value ``surface``),
    ``incentive_probes`` and ``girsanov_agreement``.  Settings that would
    make a check vacuous or always fail raise ``ValueError`` before any
    batch runs.  The martingale and incentive checks share one matrix of
    common random numbers."""
    _check_perturbations(perturbations)  # the martingale check checks the rest
    checks = {"incentive_fields": _incentive_field_check(model, policy)}
    increments = _draw_increments(cfg.seed, cfg.paths,
                                  cfg.steps_for(float(policy.t_grid[-1])))

    mart = martingale_sandwich_check(model, surface, policy, cfg,
                                     probes=probes, tolerance=tolerance,
                                     increments=increments)
    checks["martingale_drift"] = {
        "passed": mart["passed"], "measured": mart["worst_drift"],
        "bound": tolerance}

    inc = incentive_compatibility_check(model, policy, cfg, perturbations,
                                        increments=increments)
    checks["incentive_probes"] = {
        "passed": inc["passed"], "measured": float(len(inc["violations"])),
        "bound": 0.0, "strictly_lower": inc["strictly_lower"],
        "perturbations": perturbations}

    # the direct run is the martingale check's feedback run (same model,
    # policy and config)
    cross = girsanov_cross_check(model, policy, cfg,
                                 direct=mart["feedback_run"])
    checks["girsanov_agreement"] = {
        "passed": cross["agree"], "measured": cross["gap"],
        "bound": cross["tol"]}
    return checks


# ---------------------------------------------------------------------------
# separated beliefs
# ---------------------------------------------------------------------------

def disjoint_beliefs_demo(model: ModelSpec, M_salary: float, cfg: SimConfig, *,
                          horizon: float = 1.0) -> tuple[Estimate, float]:
    """Degenerate extraction when the parties share no volatility belief.

    With separated belief intervals the principal may pay L(X_T) minus a
    flat salary on her own support; the integrand U_P(L(X_T) - xi) is then
    the constant U_P(M_salary) whatever the volatility does, which the
    simulation reproduces with zero variance.  X_T comes from one engine
    run of the constant z = 0 contract at the principal band's middle; a
    path counts when L(X_T) is finite, and more than 1% of paths left out
    raise.  Returns the Monte Carlo estimate and the exact target
    U_P(M_salary).
    """
    if model.agent_nature_set is None:
        raise ValueError("model carries no second belief interval")
    a_lo, a_hi = model.agent_nature_set
    p_lo, p_hi = model.nature_set_N
    if max(a_lo, p_lo) <= min(a_hi, p_hi):
        raise ValueError("belief intervals overlap; the demo needs them disjoint")
    if not math.isfinite(M_salary) or M_salary < 0.0:
        raise ValueError("M_salary must be a nonnegative real")

    X = simulate_system(model, constant_policy(model, horizon, z=0.0), None,
                        cfg).terminal_x
    with np.errstate(over="ignore", invalid="ignore"):
        kept = int(np.count_nonzero(np.isfinite(
            numerics.apply1(model.liquidation_L, X))))
    if cfg.paths - kept > 0.01 * cfg.paths:
        raise RuntimeError("quarantined fraction above 1%")
    # L(X_T) - xi cancels to the flat salary by the contract's own algebra,
    # so every kept path's integrand is exactly U_P(M_salary): the mean is
    # that value, with no averaging roundoff, and the spread is zero
    target = float(model.utility_principal(float(M_salary)))
    return Estimate(target, 0.0), target
