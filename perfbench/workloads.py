"""The four benchmark workloads: job generators, job bodies and their checks.

Every workload is a closed loop with one client: the runner submits job
``i + 1`` only after job ``i`` has returned.  A job's inputs (model
parameters, grids, Monte Carlo seeds) are drawn from the workload seed and
the job index alone, so one seed always gives the same job list, and no two
jobs share their solve inputs.

A workload supplies

* ``setup(ctx)``        model construction and any artifacts it replays;
* ``params(seed, i)``   the generated inputs of job ``i``;
* ``run(ctx, state, job)``   the timed calls into the package;
* ``check(ctx, state, job, raw)``   untimed correctness checks, returning a
  list of ``(name, measured, bound)`` triples and a dict of computed
  outputs that must repeat exactly for a fixed seed.

The tolerances mirror the acceptance gate in ``tests/test_acceptance.py``
(``selftest.py`` checks that they still agree).
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import yaml

from robustcontract import agent, cli, hamiltonians, presets, principal, sim

BENCH_TOL = 0.05         # max-norm gap of the risk-neutral slice to x - y + T/2
MC_SLACK = 0.02          # discretization allowance on top of 3x the MC CI
AGENT_REL_TOL = 0.02     # relative gap between the two agent routes
IDENTITY_TOL = 1e-9      # pointwise evaluator against its brute-force form
EXACT_TOL = 1e-9         # terminal rows and control ranges


class JobFailed(Exception):
    """The package returned a failure instead of raising (nonzero exit)."""


def _rng(seed: int, name: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), index])


def _write_yaml(path: str, mapping: dict) -> str:
    with open(path, "w", encoding="ascii") as fh:
        yaml.safe_dump(mapping, fh)
    return path


def _cli(command: str, config: str, out: str) -> None:
    code = cli.main([command, "--config", config, "--out", out])
    if code != cli.EXIT_OK:
        raise JobFailed(f"{command} exited with code {code}")


def _mc_gap(estimate_mean, estimate_ci, target):
    return abs(estimate_mean - target), 3.0 * estimate_ci + MC_SLACK


def _read_yaml(path: str) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return yaml.safe_load(fh)


def _read_row(path: str) -> dict:
    """One-row columnar file (header line plus values) as name -> float."""
    with open(path, "r", encoding="ascii") as fh:
        names = fh.readline().split()
        values = [float(v) for v in fh.readline().split()]
    return dict(zip(names, values))


# ---------------------------------------------------------------------------
# rn_pipeline
# ---------------------------------------------------------------------------

RN_GRID = {"x_lo": -8.0, "x_hi": 8.0, "x_nodes": 41,
           "y_lo": -8.0, "y_hi": 8.0, "y_nodes": 41,
           "t_steps": 64, "horizon": 1.0}


class RnPipeline:
    """The README/config path: ``solve-principal`` then ``simulate``.

    Why: it is what a user of the command line runs.  Stresses ``export``
    (19 MB of text written and read back per job), ``cli`` glue and one
    large fresh-seed ``sim`` batch (a 100k x 256 increment matrix, 205 MB
    computed).  ``principal`` takes the exact-candidate path, so a saddle
    search optimisation must show no change here; ``agent`` and
    ``hamiltonians.eval_G`` are never called.
    """

    name = "rn_pipeline"
    paths = 100_000
    dt = 1.0 / 256

    def setup(self, ctx):
        presets.make_model("risk_neutral")
        return {}

    def params(self, seed, index):
        rng = _rng(seed, self.name, index)
        lo = float(rng.uniform(0.3, 0.6))
        return {"n_band": [round(lo, 6), round(lo + float(rng.uniform(0.2, 0.5)), 6)],
                "reservation": round(float(rng.uniform(-0.5, 0.5)), 6),
                "sim_seed": int(rng.integers(0, 2**31))}

    def run(self, ctx, state, job):
        d = ctx.job_dir(job)
        solve = os.path.join(d, "solve")
        _cli("solve-principal", _write_yaml(os.path.join(d, "solve.yaml"), {
            "model": {"preset": "risk_neutral",
                      "params": {"n_band": job.params["n_band"]}},
            "grid": RN_GRID,
            "options": {"x0": 0.0,
                        "reservation": job.params["reservation"]}}), solve)
        _cli("simulate", _write_yaml(os.path.join(d, "sim.yaml"), {
            "sim": {"paths": self.paths, "dt": self.dt,
                    "seed": job.params["sim_seed"]},
            "artifacts": solve}), os.path.join(d, "sim"))
        return d

    def check(self, ctx, state, job, d):
        run = _read_yaml(os.path.join(d, "solve", "manifest.yaml"))["run"]
        nx, ny = RN_GRID["x_nodes"], RN_GRID["y_nodes"]
        first = np.loadtxt(os.path.join(d, "solve", "value_surface.txt"),
                           skiprows=1, max_rows=nx * ny)
        x, y, v = first[:, 1], first[:, 2], first[:, 3]
        closed = float(np.max(np.abs(v - (x - y + 0.5 * RN_GRID["horizon"]))))
        est = _read_row(os.path.join(d, "sim", "estimates.txt"))
        y0, value = float(run["y0_star"]), float(run["value_at_y0"])
        checks = [("closed_form", closed, BENCH_TOL),
                  ("mc_principal",) + _mc_gap(est["principal_mean"],
                                              est["principal_ci"], value),
                  ("mc_agent",) + _mc_gap(est["agent_mean"],
                                          est["agent_ci"], y0),
                  ("quarantined", est["quarantined"], 0.0)]
        outputs = {"y0": y0, "value_at_y0": value, "closed_gap": closed,
                   "principal_mean": est["principal_mean"],
                   "agent_mean": est["agent_mean"]}
        return checks, outputs


# ---------------------------------------------------------------------------
# verify_replay
# ---------------------------------------------------------------------------

class VerifyReplay:
    """``verify`` replayed on one solve directory with a fresh seed per job.

    Why: it uses ``sim`` the opposite way to ``rn_pipeline``: each job runs
    34 batches, 33 of which share one (seed, paths, steps) triple -- the
    input property an increment cache would exploit.  ``export`` only
    reads and checksums; ``principal`` runs only in setup.  The job has the
    shape of ``configs/verify_principal.yaml``, 20000 paths included: at
    2000 paths the likelihood-ratio cross-check reports a false failure for
    about one seed in several hundred (heavy-tailed weights), for example
    verify seed 1013446243 on this solve (gap/tol 1.27).
    """

    name = "verify_replay"
    paths = 20_000

    def setup(self, ctx):
        d = ctx.setup_dir()
        solve = os.path.join(d, "solve")
        _cli("solve-principal", _write_yaml(os.path.join(d, "solve.yaml"), {
            "model": {"preset": "risk_neutral"}, "grid": RN_GRID,
            "options": {"x0": 0.0, "reservation": 0.0}}), solve)
        return {"artifacts": solve}

    def params(self, seed, index):
        rng = _rng(seed, self.name, index)
        return {"verify_seed": int(rng.integers(0, 2**31))}

    def run(self, ctx, state, job):
        d = ctx.job_dir(job)
        _cli("verify", _write_yaml(os.path.join(d, "verify.yaml"), {
            "verify": {"artifacts": state["artifacts"], "paths": self.paths,
                       "seed": job.params["verify_seed"], "perturbations": 5,
                       "martingale_tolerance": 0.05}}),
             os.path.join(d, "check"))
        return d

    def check(self, ctx, state, job, d):
        report = _read_yaml(os.path.join(d, "check", "report.yaml"))
        checks = [(name, float(c["measured"]), float(c["bound"]))
                  for name, c in sorted(report["checks"].items())]
        checks.append(("report_passed", 0.0 if report["passed"] else 1.0, 0.0))
        outputs = {name: measured for name, measured, _ in checks}
        return checks, outputs


# ---------------------------------------------------------------------------
# robust_principal
# ---------------------------------------------------------------------------

ROBUST_GRID = dict(x_lo=-3.0, x_hi=3.0, x_nodes=13, y_lo=-0.5, y_hi=0.5,
                   y_nodes=13, t_steps=8, horizon=0.5)
AUDIT_NODES = 1
AUDIT_COARSE = dict(a=5, n=3, z=5, gamma=5)


def _node_derivatives(values, dx, dy, i, j):
    """Central (p, p_tilde, q, q_tilde, r) of one slice at an interior node."""
    v = values
    return ((v[i + 1, j] - v[i - 1, j]) / (2 * dx),
            (v[i, j + 1] - v[i, j - 1]) / (2 * dy),
            (v[i + 1, j] - 2 * v[i, j] + v[i - 1, j]) / dx ** 2,
            (v[i, j + 1] - 2 * v[i, j] + v[i, j - 1]) / dy ** 2,
            (v[i + 1, j + 1] - v[i + 1, j - 1] - v[i - 1, j + 1]
             + v[i - 1, j - 1]) / (4 * dx * dy))


def _brute_G(model, t, x, y, p, pt, q, qt, r, radius):
    """sup over the (z, gamma) box of min over n of eval_g, by plain loops."""
    grid_z = hamiltonians.uniform_grid(-radius, radius, model.z_grid_points)
    grid_g = hamiltonians.uniform_grid(-radius, radius,
                                       model.gamma_grid_points)
    return max(min(hamiltonians.eval_g(model, t, x, y, p, pt, q, qt, r,
                                       float(zv), float(gv), float(n))
                   for n in model.n_grid())
               for zv in grid_z for gv in grid_g)


class RobustPrincipal:
    """Library calls on ``quadratic_bounded`` with the default control grids.

    Why: the full per-node saddle enumeration, radius doubling and
    substepping of ``solve_hjbi`` dominate, plus a pointwise ``eval_G``
    audit and a small ``simulate_system`` batch through the general
    effort enumeration.  ``export`` and ``cli`` are never touched.
    """

    name = "robust_principal"
    paths = 4000
    dt = 1.0 / 64

    def setup(self, ctx):
        presets.make_model("quadratic_bounded")
        return {}

    def params(self, seed, index):
        rng = _rng(seed, self.name, index)
        # narrow ranges: the substep count, and so the cost, climbs
        # steeply as w0 falls or the band widens (3 to 13 per slice)
        return {"n_band": [round(float(rng.uniform(0.4, 0.5)), 6),
                           round(float(rng.uniform(0.85, 0.9)), 6)],
                "w0": round(float(rng.uniform(2.6, 2.7)), 6),
                "reservation": round(float(rng.uniform(-0.4, -0.1)), 6),
                "sim_seed": int(rng.integers(0, 2**31)),
                "audit": [[int(rng.integers(0, ROBUST_GRID["t_steps"])),
                           int(rng.integers(1, ROBUST_GRID["x_nodes"] - 1)),
                           int(rng.integers(1, ROBUST_GRID["y_nodes"] - 1))]
                          for _ in range(AUDIT_NODES)]}

    def run(self, ctx, state, job):
        p = job.params
        model = presets.make_model("quadratic_bounded",
                                   n_band=tuple(p["n_band"]), w0=p["w0"])
        grid = principal.GridSpec(**ROBUST_GRID)
        sol = principal.solve_hjbi(model, grid)
        policy = principal.extract_contract(sol)
        y0 = principal.optimize_y0(sol, 0.0, p["reservation"])
        probe = principal.probe_monotonicity(model, grid)
        res = sim.simulate_system(
            model, policy, None,
            sim.SimConfig(paths=self.paths, dt=self.dt, seed=p["sim_seed"],
                          x0=0.0, y0=y0.y0))
        audit = []
        for k, i, j in p["audit"]:
            args = (float(sol.t_grid[k]), float(sol.x_grid[i]),
                    float(sol.y_grid[j]))
            derivs = _node_derivatives(sol.values[k], grid.dx, grid.dy, i, j)
            radius = max(1e-3, abs(derivs[0]), abs(derivs[2]))
            game = hamiltonians.eval_G(model, *args, *derivs, radius)
            audit.append((args, derivs, radius, game))
        return {"model": model, "sol": sol, "y0": y0, "probe": probe,
                "res": res, "audit": audit}

    def check(self, ctx, state, job, raw):
        sol, y0, res = raw["sol"], raw["y0"], raw["res"]
        target = sol.value(0.0, 0.0, y0.y0)
        pe, ae = res.principal_estimate, res.agent_estimate
        checks = [("values_finite",
                   float(np.count_nonzero(~np.isfinite(sol.values))), 0.0),
                  ("mc_principal",) + _mc_gap(pe.mean, pe.ci_halfwidth, target),
                  ("mc_agent",) + _mc_gap(ae.mean, ae.ci_halfwidth, y0.y0)]
        coarse = raw["model"].with_control_grids(**AUDIT_COARSE)
        for (args, derivs, radius, game) in raw["audit"]:
            inside = max(abs(game.z_star), abs(game.gamma_star)) <= radius
            checks.append(("audit_finite_in_box",
                           0.0 if np.isfinite(game.value) and inside else 1.0,
                           0.0))
            fast = hamiltonians.eval_G(coarse, *args, *derivs, radius).value
            slow = _brute_G(coarse, *args, *derivs, radius)
            checks.append(("audit_brute_force", abs(fast - slow),
                           IDENTITY_TOL))
        outputs = {"y0": y0.y0, "value_at_y0": target,
                   "principal_mean": pe.mean, "agent_mean": ae.mean,
                   "audit_G": [float(a[3].value) for a in raw["audit"]],
                   "min_neighbor_weight": raw["probe"]["min_neighbor_weight"],
                   "diagnostics": {k: float(v) for k, v in
                                   sorted(sol.diagnostics.items())}}
        return checks, outputs


# ---------------------------------------------------------------------------
# agent_sweep
# ---------------------------------------------------------------------------

AGENT_GRID = dict(x_lo=-4.0, x_hi=4.0, x_nodes=401, t_steps=1600, horizon=1.0)
AGENT_WIDTHS = (0.05, 0.1, 0.2)
AGENT_PROBES = 9
QB_GRID = dict(x_lo=-4.0, x_hi=4.0, x_nodes=81, t_steps=200, horizon=1.0)


class AgentSweep:
    """``solve_agent`` over several band widths, cross-checked by quadrature.

    Why: without it the ``agent`` module goes unmeasured -- the other three
    workloads never call it.  Per-step interpreter overhead of the backward
    march dominates (a 401 x 1600 grid per width); ``export``, ``cli`` and
    ``principal`` are never touched.  The last solve of each job takes the
    candidate-effort path with nonzero drift and cost (``quadratic_bounded``).
    """

    name = "agent_sweep"
    strike = 0.0

    def setup(self, ctx):
        presets.make_model("heat_band")
        return {"call": agent.ContractFunction.from_preset(
                    f"call:{self.strike}"),
                "linear": agent.ContractFunction.from_preset("linear:1,0")}

    def params(self, seed, index):
        rng = _rng(seed, self.name, index)
        return {"band_center": round(float(rng.uniform(0.3, 0.4)), 6),
                "probe_x": sorted(round(float(v), 6) for v in rng.uniform(
                    self.strike, self.strike + 1.5, size=AGENT_PROBES)),
                "qb_w0": round(float(rng.uniform(2.0, 3.0)), 6)}

    def run(self, ctx, state, job):
        p = job.params
        xs = np.array(p["probe_x"])
        sweep = []
        for width in AGENT_WIDTHS:
            band = (p["band_center"] - 0.5 * width,
                    p["band_center"] + 0.5 * width)
            model = presets.make_model("heat_band", band=band)
            sol = agent.solve_agent(model, state["call"], **AGENT_GRID)
            joins = agent.participation_check(sol, 0.0, 0.0)
            dual = agent.inf_of_bsdes(model, state["call"], 0.0, xs,
                                      AGENT_GRID["horizon"])
            sweep.append((sol, joins, dual))
            qb = presets.make_model("quadratic_bounded", w0=p["qb_w0"])
        qb_sol = agent.solve_agent(qb, state["linear"], **QB_GRID)
        return {"xs": xs, "sweep": sweep, "qb": qb, "qb_sol": qb_sol}

    def check(self, ctx, state, job, raw):
        checks, outputs = [], {"value_at_0": [], "gap": []}
        for sol, (joins, margin), dual in raw["sweep"]:
            row = np.array([sol.value(0.0, x) for x in raw["xs"]])
            gap = float(np.max(np.abs(row - dual) / np.abs(dual)))
            checks += [("routes_agree", gap, AGENT_REL_TOL),
                       ("participation", 0.0 if joins else 1.0, 0.0)]
            outputs["value_at_0"].append(sol.value(0.0, 0.0))
            outputs["gap"].append(gap)
        qb, sol = raw["qb"], raw["qb_sol"]
        want = np.array([float(qb.utility_agent(x)) for x in sol.x_grid])
        a_lo, a_hi = qb.effort_set_A
        excess = float(np.max(np.maximum(a_lo - sol.effort,
                                          sol.effort - a_hi)))
        checks += [("qb_values_finite",
                    float(np.count_nonzero(~np.isfinite(sol.values))), 0.0),
                   ("qb_terminal", float(np.max(np.abs(sol.values[-1] - want))),
                    EXACT_TOL),
                   ("qb_effort_in_range", max(excess, 0.0), EXACT_TOL)]
        outputs["qb_value_at_0"] = sol.value(0.0, 0.0)
        return checks, outputs


WORKLOADS = {w.name: w for w in (RnPipeline(), VerifyReplay(),
                                 RobustPrincipal(), AgentSweep())}
