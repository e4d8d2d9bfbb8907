"""Forward Monte Carlo for the coupled output / promised-utility system.

The engine integrates

    dX = b(t, X, a, n) dt + sigma(t, X, n) dW
    dY = z dX - F*(t, X, Y, z, sigma^2) dt + k_rate dt

under a feedback contract policy and a piecewise-constant volatility
scenario, where the effort a is the agent's best response to the contract
sensitivity z at the realized volatility level.  On top of the raw engine
sit the verification utilities: likelihood-ratio reweighting between the
driftless and the drifted dynamics, coordinate-descent scenario search,
incentive-compatibility probes, martingale flatness reports, and the
separated-beliefs degeneracy demonstration.

Randomness is reproducible by construction: one root seed feeds a
``numpy.random.SeedSequence`` whose ``spawn`` children seed one PCG64
stream per path (path index order), and normal increments come from
``Generator.standard_normal``.  Identical configurations therefore give
bit-identical results.  The checks built on common random numbers (the
scenario search, the incentive probes, the martingale report, and the
whole of ``verify``) draw the increment matrix once for consecutive
batches that share (seed, paths, steps) and hand every batch that same
read-only matrix, so their results stay bit-identical to fresh draws.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import numerics
from .hamiltonians import ModelSpec, TIE_TOL
from .principal import ContractPolicy

__all__ = [
    "Estimate", "SimConfig", "NatureStrategy", "SimResult",
    "simulate_system", "girsanov_weight", "girsanov_cross_check",
    "constant_policy", "adversarial_nature_search",
    "incentive_compatibility_check", "martingale_sandwich_check",
    "disjoint_beliefs_demo",
]

#: two-sided 95% normal quantile used for every confidence halfwidth
CI_QUANTILE = 1.959963984540054


class Estimate(NamedTuple):
    """Monte Carlo mean with a 95% confidence halfwidth."""

    mean: float
    ci_halfwidth: float


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
        if self.paths < 1:
            raise ValueError("paths must be at least 1")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")

    def steps_for(self, horizon: float) -> int:
        """Number of Euler steps; errors unless dt divides the horizon.

        A zero horizon is legal and runs no steps (terminal-only batch).
        """
        steps = int(round(horizon / self.dt))
        if abs(steps * self.dt - horizon) > 1e-9 * max(horizon, 1.0):
            raise ValueError(
                f"dt={self.dt} does not divide the horizon {horizon}")
        if steps < 1 and horizon > 0.0:
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
        idx = int(np.searchsorted(self.breakpoints, t, side="left"))
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
    weights: np.ndarray | None = None


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------

def _draw_increments(seed: int, paths: int, steps: int) -> np.ndarray:
    """Standard-normal increment matrix, one independently seeded row per path.

    Splitting rule (fixed for reproducibility): SeedSequence(seed).spawn(paths)
    gives child sequences in path order; child i seeds a PCG64 bit generator
    whose Generator.standard_normal(steps) fills row i.
    """
    children = np.random.SeedSequence(seed).spawn(paths)
    out = np.empty((paths, steps))
    for i, child in enumerate(children):
        out[i] = np.random.Generator(np.random.PCG64(child)).standard_normal(steps)
    return out


# The open reuse scope's memo, a [key, matrix] pair, or None outside any
# scope.  A context variable keeps concurrent threads and tasks apart.
_increment_memo: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "robustcontract_sim_increments", default=None)


@contextlib.contextmanager
def _shared_increments():
    """Reuse the last increment matrix while its (seed, paths, steps) repeats.

    Common-random-number checks run many batches on one key; inside this
    scope they share a single draw.  A nested scope joins the outer one, and
    nothing is kept once the outermost scope exits.  Also usable as a
    function decorator.
    """
    if _increment_memo.get() is not None:
        yield
        return
    token = _increment_memo.set([None, None])
    try:
        yield
    finally:
        _increment_memo.reset(token)


def _path_increments(seed: int, paths: int, steps: int) -> np.ndarray:
    """Read-only increment matrix, drawn afresh unless the open scope holds it."""
    memo = _increment_memo.get()
    key = (seed, paths, steps)
    if memo is not None and memo[0] == key:
        return memo[1]
    if memo is not None:
        # release the previous matrix before the new one is allocated
        memo[:] = [None, None]
    out = _draw_increments(seed, paths, steps)
    out.flags.writeable = False
    if memo is not None:
        memo[:] = [key, out]
    return out


# ---------------------------------------------------------------------------
# the agent's response at the realized volatility level
# ---------------------------------------------------------------------------

def _response(model: ModelSpec, t: float, X: np.ndarray, Y: np.ndarray,
              Z: np.ndarray, n_now) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (effort, F*, sigma) across paths at the driving control.

    Mirrors the pointwise saddle evaluation: efforts enumerate the clamped
    closed-form candidate first and then the uniform grid; the inner
    infimum runs over the grid controls whose squared volatility matches
    the realized level within the model tolerance, with the driving
    control itself appended last (it always realizes its own level).
    Ties resolve to the earliest enumerated entry.

    Each coefficient is evaluated on one (effort, path) tensor: the cost
    once, drift and discount once at the driving control and once per
    n-grid point.  The infimum over the level set is a sequential fold in
    n-grid order rather than a masked ``np.min``, which would resolve NaN
    and signed zeros differently from the pointwise evaluator.
    """
    a_lo, a_hi = model.effort_set_A
    sig = numerics.field(model.vol_sigma, t, X, n_now)

    cand = None
    if model.candidate_effort is not None:
        cand = np.clip(numerics.field(model.candidate_effort, t, X, Z, sig),
                       a_lo, a_hi)

    if model.risk_neutral and cand is not None:
        # the candidate is the exact maximizer and F does not depend on the
        # volatility control beyond sigma itself, so the grid and the level
        # enumeration are redundant here (validated bit-for-bit in tests)
        a = cand
        fstar = (-numerics.field(model.discount_k, t, X, a, n_now) * Y
                 - numerics.field(model.cost_c, t, X, a)
                 + numerics.field(model.drift_b, t, X, a, n_now) * Z)
        return a, fstar, sig

    a_grid = model.a_grid()
    A = np.broadcast_to(a_grid[:, None], (len(a_grid),) + X.shape)
    if cand is not None:
        A = np.concatenate([cand[None], A])

    n_pts = model.n_grid()
    sig2_grid = numerics.field(model.vol_sigma, t, X, n_pts[:, None]) ** 2
    sig2 = sig * sig
    if len(n_pts) > 1:
        dn = float(n_pts[1] - n_pts[0])
        lip = np.max(np.abs(np.diff(sig2_grid, axis=0)), axis=0) / dn
        tol = np.maximum(dn * dn * lip, 1e-12)
    else:
        tol = np.full(X.shape, 1e-9)
    member = np.abs(sig2_grid - sig2[None, :]) <= tol[None, :]

    cost = numerics.field(model.cost_c, t, X, A)
    inner = (-numerics.field(model.discount_k, t, X, A, n_now) * Y
             - cost + numerics.field(model.drift_b, t, X, A, n_now) * Z)
    for j, n in enumerate(n_pts):
        fj = (-numerics.field(model.discount_k, t, X, A, float(n)) * Y
              - cost + numerics.field(model.drift_b, t, X, A, float(n)) * Z)
        inner = np.where(member[j] & (fj < inner), fj, inner)

    win, fstar = numerics.first_argmax(inner, TIE_TOL)
    return numerics.take_rows(A, win), fstar, sig


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def simulate_system(model: ModelSpec, policy: ContractPolicy,
                    nature: NatureStrategy | None, cfg: SimConfig, *,
                    effort_transform: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None,
                    observer: Callable[[int, float, np.ndarray, np.ndarray], None] | None = None,
                    ) -> SimResult:
    """Euler-Maruyama run of the coupled (X, Y) system under a contract.

    ``nature`` drives the volatility; None uses the policy's tabulated
    worst-case feedback field instead of a fixed scenario.  The contract
    terms (z, F*, k_rate) always follow the payment rule; the agent plays
    the best-response effort, optionally deformed by ``effort_transform``
    (a map (t, X, a*) -> played effort, clamped back into the effort set),
    which changes the realized drift and cost but never the payments.

    Per-path overflow or NaN is quarantined; a quarantined fraction above
    1% raises.  ``observer`` is called as observer(step, t, X, Y) before
    every update and once more at the horizon.
    """
    horizon = float(policy.t_grid[-1])
    steps = cfg.steps_for(horizon)
    if nature is not None:
        nature.validate_for(model, horizon)
    a_lo, a_hi = model.effort_set_A

    incr = _path_increments(cfg.seed, cfg.paths, steps)
    sqdt = math.sqrt(cfg.dt)
    fields = ("z", "k_rate") if nature is not None else ("z", "k_rate", "nature")

    X = np.full(cfg.paths, float(cfg.x0))
    Y = np.full(cfg.paths, float(cfg.y0))
    disc = np.ones(cfg.paths)
    cost_acc = np.zeros(cfg.paths)
    logw = np.zeros(cfg.paths) if cfg.girsanov_mode else None
    qv = np.empty(steps)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(steps):
            t = k * cfg.dt
            if observer is not None:
                observer(k, t, X, Y)
            ctl = policy.gather(t, X, Y, fields=fields)
            z, k_rate = ctl["z"], ctl["k_rate"]
            n_now = nature.value_at(t) if nature is not None else ctl["nature"]

            a, fstar, sig = _response(model, t, X, Y, z, n_now)
            if effort_transform is not None:
                a = np.clip(effort_transform(t, X, a), a_lo, a_hi)
            b = numerics.field(model.drift_b, t, X, a, n_now)

            dw = sqdt * incr[:, k]
            if cfg.girsanov_mode:
                dX = sig * dw
                theta = np.where(b != 0.0, b / np.where(sig > 0.0, sig, np.nan), 0.0)
                logw += theta * dw - 0.5 * theta * theta * cfg.dt
            else:
                dX = b * cfg.dt + sig * dw

            Y = Y + z * dX - fstar * cfg.dt + k_rate * cfg.dt
            krate_disc = numerics.field(model.discount_k, t, X, a, n_now)
            cost_acc = cost_acc + disc * numerics.field(model.cost_c, t, X, a) * cfg.dt
            disc = disc * np.exp(-krate_disc * cfg.dt)

            sq = dX * dX
            fin = np.isfinite(sq)
            qv[k] = float(np.mean(sq[fin]) / cfg.dt) if fin.any() else math.nan
            X = X + dX
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
        if weights is not None:
            vals = vals * weights[good]
        mean = float(np.mean(vals))
        if used > 1:
            half = CI_QUANTILE * float(np.std(vals, ddof=1)) / math.sqrt(used)
        else:
            half = 0.0
        return Estimate(mean, half)

    if used:
        dmin, dmax = float(np.min(disc[good])), float(np.max(disc[good]))
    else:  # pragma: no cover - unreachable past the quarantine gate
        dmin = dmax = math.nan
    return SimResult(
        principal_estimate=estimate(principal_samples),
        agent_estimate=estimate(agent_samples),
        terminal_x=X, terminal_y=Y, realized_qv=qv,
        paths_used=used, quarantined=quarantined,
        discount_bounds=(dmin, dmax), weights=weights)


# ---------------------------------------------------------------------------
# likelihood ratio between the driftless and the drifted dynamics
# ---------------------------------------------------------------------------

def girsanov_weight(model: ModelSpec, path: np.ndarray,
                    effort_path: np.ndarray, nature_path: np.ndarray, *,
                    dt: float, t0: float = 0.0) -> float:
    """Discrete stochastic exponential of the drift/volatility ratio.

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
        t = t0 + k * dt
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


def girsanov_cross_check(model: ModelSpec, policy: ContractPolicy,
                         cfg: SimConfig,
                         nature: NatureStrategy | None = None) -> dict:
    """Two-estimator consistency check on E[L(X_T)].

    Runs the drifted simulation and an independently seeded driftless one
    reweighted by the likelihood ratio; reports both estimates, their gap
    and the 3x combined confidence tolerance.
    """
    direct_cfg = dataclasses.replace(cfg, girsanov_mode=False)
    ref_cfg = dataclasses.replace(cfg, girsanov_mode=True, seed=cfg.seed + 1)
    direct = simulate_system(model, policy, nature, direct_cfg)
    ref = simulate_system(model, policy, nature, ref_cfg)

    def terminal_estimate(res: SimResult) -> Estimate:
        lx = numerics.apply1(model.liquidation_L, res.terminal_x)
        good = np.isfinite(lx)
        if res.weights is not None:
            good &= np.isfinite(res.weights)
            vals = lx[good] * res.weights[good]
        else:
            vals = lx[good]
        n = len(vals)
        half = CI_QUANTILE * float(np.std(vals, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
        return Estimate(float(np.mean(vals)), half)

    d_est = terminal_estimate(direct)
    w_est = terminal_estimate(ref)
    gap = abs(d_est.mean - w_est.mean)
    tol = 3.0 * (d_est.ci_halfwidth + w_est.ci_halfwidth)
    return {"direct": d_est, "weighted": w_est, "gap": gap, "tol": tol,
            "agree": bool(gap <= tol)}


# ---------------------------------------------------------------------------
# policies without a preceding solve
# ---------------------------------------------------------------------------

def constant_policy(model: ModelSpec, horizon: float, *, z: float = 0.0,
                    k_rate: float = 0.0, nature: float | None = None,
                    x_range: tuple[float, float] = (-8.0, 8.0),
                    y_range: tuple[float, float] = (-8.0, 8.0),
                    ) -> ContractPolicy:
    """Contract with constant sensitivity and compensator rate.

    Handy for direct engine runs; effort and F* are recomputed pathwise
    by the simulator, so their table entries are placeholders.
    """
    if nature is None:
        nature = 0.5 * (model.nature_set_N[0] + model.nature_set_N[1])
    shape = (2, 2, 2)
    t_grid = np.array([0.0, horizon])
    return ContractPolicy(
        t_grid=t_grid,
        x_grid=np.linspace(*x_range, 2), y_grid=np.linspace(*y_range, 2),
        z=np.full(shape, float(z)), gamma=np.zeros(shape),
        effort=np.zeros(shape), nature=np.full(shape, float(nature)),
        k_rate=np.full(shape, float(k_rate)), fstar=np.zeros(shape))


# ---------------------------------------------------------------------------
# adversarial scenario search
# ---------------------------------------------------------------------------

@_shared_increments()
def adversarial_nature_search(model: ModelSpec, policy: ContractPolicy,
                              cfg: SimConfig, intervals: int, *,
                              sweeps: int = 2,
                              candidates: Sequence[float] | None = None,
                              ) -> tuple[NatureStrategy, float]:
    """Coordinate descent for the worst piecewise-constant volatility scenario.

    Minimizes the principal estimate over scenarios constant on a uniform
    partition with the given number of intervals, scanning the candidate
    values one interval at a time with common random numbers.  The result
    is a local minimum of the restricted family, deterministic given the
    seed; strictly improving moves only, so the search terminates.
    """
    if intervals < 1:
        raise ValueError("intervals must be at least 1")
    horizon = float(policy.t_grid[-1])
    cand = tuple(float(n) for n in (candidates if candidates is not None
                                    else model.n_grid()))
    cache: dict[tuple[float, ...], float] = {}

    def value_of(values: tuple[float, ...]) -> float:
        if values not in cache:
            strat = NatureStrategy.uniform(values, horizon)
            cache[values] = simulate_system(
                model, policy, strat, cfg).principal_estimate.mean
        return cache[values]

    # best constant start
    best_vals = min(((value_of((n,) * intervals), (n,) * intervals)
                     for n in cand), key=lambda p: p[0])[1]

    for _ in range(sweeps):
        changed = False
        for i in range(intervals):
            current = value_of(best_vals)
            for n in cand:
                trial = best_vals[:i] + (n,) + best_vals[i + 1:]
                if value_of(trial) < current:
                    best_vals, current, changed = trial, value_of(trial), True
        if not changed:
            break
    return NatureStrategy.uniform(best_vals, horizon), value_of(best_vals)


# ---------------------------------------------------------------------------
# incentive compatibility
# ---------------------------------------------------------------------------

def _worst_constant_agent_value(model: ModelSpec, policy: ContractPolicy,
                                cfg: SimConfig,
                                transform) -> tuple[Estimate, float]:
    """Agent objective minimized over constant volatility scenarios."""
    horizon = float(policy.t_grid[-1])
    best: Estimate | None = None
    best_n = math.nan
    for n in model.n_grid():
        res = simulate_system(model, policy, NatureStrategy.constant(float(n), horizon),
                              cfg, effort_transform=transform)
        if best is None or res.agent_estimate.mean < best.mean:
            best, best_n = res.agent_estimate, float(n)
    return best, best_n


@_shared_increments()
def incentive_compatibility_check(model: ModelSpec, policy: ContractPolicy,
                                  cfg: SimConfig, perturbations: int, *,
                                  deformations: Sequence[Callable] | None = None,
                                  damping_range: tuple[float, float] = (0.2, 0.45),
                                  bias_budget: float = 0.02) -> dict:
    """Deformed-effort probes of the extracted contract.

    Each perturbation damps the best-response effort by a random factor
    (or applies a caller-supplied deformation (t, X, a*) -> a) and
    re-estimates the agent objective under its own worst constant
    volatility.  A perturbation passes when its value does not exceed the
    unperturbed one beyond 3x the combined confidence halfwidth plus the
    discretization budget; the report also counts the strict drops larger
    than one combined halfwidth.  Violations are listed, not raised.
    """
    base, base_n = _worst_constant_agent_value(model, policy, cfg, None)

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
        est, n_star = _worst_constant_agent_value(model, policy, cfg, deform)
        combined = base.ci_halfwidth + est.ci_halfwidth
        drop = base.mean - est.mean
        ok = est.mean <= base.mean + 3.0 * combined + bias_budget
        if drop > combined:
            strict += 1
        entry = {"label": label, "value": est.mean, "ci": est.ci_halfwidth,
                 "worst_nature": n_star, "drop": drop, "within_tolerance": ok}
        entries.append(entry)
        if not ok:
            violations.append(entry)
    return {"baseline": base, "baseline_nature": base_n, "entries": entries,
            "strictly_lower": strict, "violations": violations,
            "passed": not violations}


# ---------------------------------------------------------------------------
# martingale flatness along optimal paths
# ---------------------------------------------------------------------------

@_shared_increments()
def martingale_sandwich_check(model: ModelSpec, solution, policy: ContractPolicy,
                              cfg: SimConfig, *, probes: int = 9,
                              suboptimal_nature: NatureStrategy | None = None,
                              tolerance: float = 0.05) -> dict:
    """Flatness report for E[u(t, X_t, Y_t)] along simulated paths.

    Under the extracted policy with its own worst-case volatility feedback
    the surface composed with the state should be driftless; the report
    gives the probe-time means and the worst secant slope per unit time.
    A second run under a deliberately suboptimal constant scenario probes
    the submartingale side (its mean should not trend down); for
    volatility-flat models that run is labeled accordingly.
    """
    horizon = float(policy.t_grid[-1])
    steps = cfg.steps_for(horizon)
    probe_steps = np.unique(np.round(np.linspace(0, steps, probes)).astype(int))

    def run(nature: NatureStrategy | None) -> tuple[np.ndarray, np.ndarray]:
        times, means = [], []

        def observe(k: int, t: float, X: np.ndarray, Y: np.ndarray) -> None:
            if k in probe_set:
                u = numerics.surface_value(solution.t_grid, solution.x_grid,
                                           solution.y_grid, solution.values,
                                           t, X, Y)
                fin = np.isfinite(u)
                times.append(t)
                means.append(float(np.mean(u[fin])) if fin.any() else math.nan)

        probe_set = set(int(s) for s in probe_steps)
        simulate_system(model, policy, nature, cfg, observer=observe)
        return np.array(times), np.array(means)

    times, means = run(None)
    if len(times) > 1:
        slopes = np.diff(means) / np.diff(times)
        worst = float(np.max(np.abs(slopes)))
    else:
        slopes = np.array([])
        worst = 0.0

    if suboptimal_nature is None and horizon > 0.0:
        # freeze the scenario at the band edge farthest from the policy's
        # time-zero midpoint choice
        n_lo, n_hi = model.nature_set_N
        mid_used = float(np.median(policy.nature[0]))
        far = n_lo if abs(mid_used - n_lo) >= abs(mid_used - n_hi) else n_hi
        suboptimal_nature = NatureStrategy.constant(far, horizon)
    sub_times, sub_means = run(suboptimal_nature)
    sub_slopes = (np.diff(sub_means) / np.diff(sub_times)
                  if len(sub_times) > 1 else np.array([]))
    worst_down = float(-np.min(sub_slopes)) if len(sub_slopes) else 0.0

    return {
        "probe_times": times, "means": means, "slopes": slopes,
        "worst_drift": worst, "passed": bool(worst <= tolerance),
        "suboptimal": {
            "scenario": suboptimal_nature, "probe_times": sub_times,
            "means": sub_means, "worst_downward_drift": worst_down,
            "label": ("flat game" if model.risk_neutral
                      else "submartingale probe"),
        },
    }


# ---------------------------------------------------------------------------
# separated beliefs
# ---------------------------------------------------------------------------

def disjoint_beliefs_demo(model: ModelSpec, M_salary: float, cfg: SimConfig, *,
                          horizon: float = 1.0) -> tuple[Estimate, float]:
    """Degenerate extraction when the parties share no volatility belief.

    With separated belief intervals the principal may pay L(X_T) minus a
    flat salary on her own support; the integrand U_P(L(X_T) - xi) is then
    the constant U_P(M_salary) whatever the volatility does, which the
    simulation reproduces with zero variance.  Returns the Monte Carlo
    estimate and the exact target U_P(M_salary).
    """
    if model.agent_nature_set is None:
        raise ValueError("model carries no second belief interval")
    a_lo, a_hi = model.agent_nature_set
    p_lo, p_hi = model.nature_set_N
    if max(a_lo, p_lo) <= min(a_hi, p_hi):
        raise ValueError("belief intervals overlap; the demo needs them disjoint")
    if not math.isfinite(M_salary) or M_salary < 0.0:
        raise ValueError("M_salary must be a nonnegative real")

    steps = cfg.steps_for(horizon)
    incr = _path_increments(cfg.seed, cfg.paths, steps)
    sqdt = math.sqrt(cfg.dt)
    n_mid = 0.5 * (p_lo + p_hi)

    X = np.full(cfg.paths, float(cfg.x0))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t = k * cfg.dt
            b = numerics.field(model.drift_b, t, X, 0.0, n_mid)
            sig = numerics.field(model.vol_sigma, t, X, n_mid)
            X = X + b * cfg.dt + sig * sqdt * incr[:, k]
        lx = numerics.apply1(model.liquidation_L, X)
        # L(X_T) - xi cancels to the flat salary by the contract's own
        # algebra, so the integrand is evaluated in that exact form rather
        # than through a float subtraction that would reintroduce noise
        samples = np.where(np.isfinite(lx),
                           float(model.utility_principal(float(M_salary))),
                           np.nan)

    good = np.isfinite(samples)
    used = int(np.count_nonzero(good))
    if cfg.paths - used > 0.01 * cfg.paths:
        raise RuntimeError("quarantined fraction above 1%")
    vals = samples[good]
    if np.all(vals == vals[0]):
        # the mean of identical samples is that sample, with no averaging
        # roundoff and zero spread
        mean, half = float(vals[0]), 0.0
    else:  # pragma: no cover - integrand is constant by construction
        mean = float(np.mean(vals))
        half = (CI_QUANTILE * float(np.std(vals, ddof=1)) / math.sqrt(used)
                if used > 1 else 0.0)
    target = float(model.utility_principal(float(M_salary)))
    return Estimate(mean, half), target
