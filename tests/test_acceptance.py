"""Acceptance gate: one test per end-to-end guarantee of the package.

Every tolerance is pinned as a module constant next to the guarantee it
protects.  Each test finishes by printing a single PASS line with the
measured figures, so a verbose run doubles as a sign-off checklist.  The
expensive risk-neutral benchmark solve is shared through module fixtures;
everything else builds its own inputs.
"""

import math
import time

import numpy as np
import pytest
import yaml

import robustcontract as rc
from robustcontract.agent import ContractFunction, inf_of_bsdes, solve_agent
from robustcontract.cli import main as cli_main
from robustcontract.export import TIMINGS_NAME
from robustcontract.presets import PRESETS, make_model
from robustcontract.principal import GridSpec, extract_contract, optimize_y0, solve_hjbi
from robustcontract.sim import (
    SimConfig,
    constant_policy,
    disjoint_beliefs_demo,
    girsanov_cross_check,
    incentive_compatibility_check,
    martingale_sandwich_check,
    simulate_system,
)

from helpers import (
    oracle_F_star,
    oracle_G,
    oracle_H,
    random_polynomial_model,
)

HORIZON = 1.0

# benchmark solve (shared by the loop-closure and flatness tests)
BENCH_TOL = 0.05            # max-norm gap to the affine closed form
ROUNDOFF_CEILING = 1e-10    # below this the scheme is exact and order is moot
MIN_ORDER = 0.8             # empirical convergence order under step halving
RUNTIME_BUDGET_S = 120.0    # single-threaded wall clock for the benchmark solve

IDENTITY_TOL = 1e-9         # game reduction identity and argmax recovery
AGENT_REL_TOL = 0.02        # band-model value against the analytic surface
MC_SLACK = 0.02             # discretization allowance on top of 3x CI
STRICT_MINIMUM = 15         # of 20 effort deformations must strictly lose
DRIFT_TOL = 0.05            # per-unit-time drift of the composed value
PROBE_COUNT = 1000          # random points for the reduction identity
MODEL_COUNT = 100           # random models for brute-force equivalence


def report(tag: str, detail: str) -> None:
    print(f"PASS {tag}: {detail}")


def affine_gap(sol) -> float:
    """Max-norm distance of the initial slice from x - y + T/2."""
    X, Y = np.meshgrid(sol.x_grid, sol.y_grid, indexing="ij")
    return float(np.max(np.abs(sol.values[0] - (X - Y + 0.5 * HORIZON))))


@pytest.fixture(scope="module")
def bench_model():
    return make_model("risk_neutral")


@pytest.fixture(scope="module")
def bench_solve(bench_model):
    grid = GridSpec(x_lo=-8.0, x_hi=8.0, x_nodes=41, y_lo=-8.0, y_hi=8.0,
                    y_nodes=41, t_steps=64, horizon=HORIZON)
    start = time.perf_counter()
    sol = solve_hjbi(bench_model, grid)
    return sol, time.perf_counter() - start


@pytest.fixture(scope="module")
def bench_policy(bench_solve):
    return extract_contract(bench_solve[0])


def test_01_risk_neutral_closed_form(bench_model, bench_solve):
    sol, elapsed = bench_solve
    gap = affine_gap(sol)
    assert gap <= BENCH_TOL, f"closed-form gap {gap:.3e}"
    assert elapsed <= RUNTIME_BUDGET_S, f"solve took {elapsed:.1f}s"

    halved = GridSpec(x_lo=-8.0, x_hi=8.0, x_nodes=81, y_lo=-8.0, y_hi=8.0,
                      y_nodes=81, t_steps=128, horizon=HORIZON)
    gap2 = affine_gap(solve_hjbi(bench_model, halved))
    if max(gap, gap2) > ROUNDOFF_CEILING:
        order = math.log2(gap / gap2)
        assert order >= MIN_ORDER, f"refinement order {order:.2f}"
        trend = f"order {order:.2f}"
    else:
        # the upwind stencils are exact on affine data, so both grids sit
        # at roundoff and the order clause carries no information
        trend = "both grids at roundoff"
    report("01 closed form", f"gap {gap:.2e}, {trend}, {elapsed:.1f}s")


def test_02_game_reduction_identity(bench_model):
    rng = np.random.default_rng(1002)
    worst_value = 0.0
    worst_arg = 0.0
    for _ in range(PROBE_COUNT):
        t = float(rng.uniform(0.0, HORIZON))
        x, y, p, q = (float(v) for v in rng.uniform(-3.0, 3.0, size=4))
        radius = rc.compute_radius(bench_model, t, x, y, p, q, -1.0, 0.0, 0.0)
        game = rc.eval_G(bench_model, t, x, y, p, -1.0, q, 0.0, 0.0, radius)
        saddle = rc.eval_H(bench_model, t, x, y, p, q)
        worst_value = max(worst_value, abs(game.value - saddle.value))
        worst_arg = max(worst_arg, abs(game.z_star - p),
                        abs(game.gamma_star - q))
    assert worst_value <= IDENTITY_TOL, f"value gap {worst_value:.3e}"
    assert worst_arg <= IDENTITY_TOL, f"argmax gap {worst_arg:.3e}"
    report("02 reduction identity",
           f"{PROBE_COUNT} probes, value gap {worst_value:.1e}, "
           f"argmax gap {worst_arg:.1e}")


def test_03_second_order_weight_thresholds():
    grid = np.linspace(1.0, 2.0, 201)
    step = float(grid[1] - grid[0])
    m_neg, m_pos = rc.gamma_thresholds(lambda n: n, lambda n: n, grid)
    assert abs(m_pos - 0.5) <= step + 1e-12, f"M_pos {m_pos}"

    def brute_argmin(gamma: float) -> float:
        return float(grid[int(np.argmin(gamma * grid ** 2 - grid))])

    for gamma in (0.51, 1.0, 10.0):
        assert gamma > m_pos
        assert brute_argmin(gamma) == 1.0, f"gamma={gamma}"
    for gamma in (-10.0, -1.0):
        assert gamma < m_neg
        assert brute_argmin(gamma) == 2.0, f"gamma={gamma}"
    report("03 weight thresholds",
           f"M_pos {m_pos:.3f}, m_neg {m_neg:.3f}, argmin pins to extremes")


def test_04_agent_band_value():
    model = make_model("heat_band", band=(0.2, 0.4))
    contract = ContractFunction(lambda x: x * x, label="square")
    sol = solve_agent(model, contract, x_lo=-4.0, x_hi=4.0, x_nodes=201,
                      t_steps=200, horizon=HORIZON)
    xs = sol.x_grid
    target = xs ** 2 + 0.04 * HORIZON     # worst case is the lower vol edge
    row = sol.values[0]
    rel = float(np.max(np.abs(row - target) / target))
    assert rel <= AGENT_REL_TOL, f"surface error {rel:.3e}"

    dual = inf_of_bsdes(model, contract, 0.0, xs, HORIZON)
    rel_dual = float(np.max(np.abs(row - dual) / target))
    assert rel_dual <= AGENT_REL_TOL, f"dual-route error {rel_dual:.3e}"
    report("04 agent band value",
           f"rel error {rel:.1e}, dual route {rel_dual:.1e}")


def test_05_brute_force_equivalence():
    rng = np.random.default_rng(1005)
    for i in range(MODEL_COUNT):
        m = random_polynomial_model(rng)
        t = float(rng.uniform(0.0, 1.0))
        x, y, z, gam = (float(v) for v in rng.uniform(-2.0, 2.0, size=4))
        n = float(rng.choice(m.n_grid()))
        Sigma = m.vol_sigma(t, x, n) ** 2

        fs = rc.eval_F_star(m, t, x, y, z, Sigma)
        assert (fs.value, fs.arg_a, fs.arg_n) == oracle_F_star(
            m, t, x, y, z, Sigma), f"model {i}: F* mismatch"

        h = rc.eval_H(m, t, x, y, z, gam)
        assert (h.value, h.arg_a, h.arg_n) == oracle_H(
            m, t, x, y, z, gam), f"model {i}: H mismatch"

        p, q = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        pt = float(rng.uniform(-2.0, -0.1))
        qt = float(rng.uniform(-2.0, -0.1))
        r = float(rng.uniform(-1.0, 1.0))
        radius = float(rng.uniform(0.5, 3.0))
        g = rc.eval_G(m, t, x, y, p, pt, q, qt, r, radius)
        assert tuple(g) == oracle_G(
            m, t, x, y, p, pt, q, qt, r, radius), f"model {i}: G mismatch"
    report("05 brute force", f"{MODEL_COUNT} random models, bit-for-bit")


def test_06_stackelberg_loop_closure(bench_model, bench_solve, bench_policy):
    sol, _ = bench_solve
    x0 = 0.0
    picked = optimize_y0(sol, x0, reservation=0.0)
    cfg = SimConfig(paths=100_000, dt=1.0 / 256, seed=11, x0=x0, y0=picked.y0)
    res = simulate_system(bench_model, bench_policy, None, cfg)

    agent_gap = abs(res.agent_estimate.mean - picked.y0)
    agent_tol = 3.0 * res.agent_estimate.ci_halfwidth + MC_SLACK
    assert agent_gap <= agent_tol, f"agent gap {agent_gap:.4f} > {agent_tol:.4f}"

    target = sol.value(0.0, x0, picked.y0)
    prin_gap = abs(res.principal_estimate.mean - target)
    prin_tol = 3.0 * res.principal_estimate.ci_halfwidth + MC_SLACK
    assert prin_gap <= prin_tol, f"principal gap {prin_gap:.4f} > {prin_tol:.4f}"
    report("06 loop closure",
           f"agent gap {agent_gap:.1e} (tol {agent_tol:.1e}), "
           f"principal gap {prin_gap:.1e} (tol {prin_tol:.1e})")


def test_07_incentive_compatibility(bench_model, bench_policy):
    cfg = SimConfig(paths=20_000, dt=1.0 / 64, seed=17, x0=0.0, y0=0.0)
    rep = incentive_compatibility_check(bench_model, bench_policy, cfg, 20)
    assert rep["passed"], f"violations: {rep['violations']}"
    assert rep["strictly_lower"] >= STRICT_MINIMUM, \
        f"only {rep['strictly_lower']} of 20 deformations strictly lose"
    report("07 incentive compatibility",
           f"20 deformations within tolerance, "
           f"{rep['strictly_lower']} strictly lower")


def test_08_disjoint_beliefs_degeneracy():
    model = make_model("disjoint_beliefs",
                       utility_principal=lambda v: 1.0 - np.exp(-v))
    cfg = SimConfig(paths=300, dt=1.0 / 8, seed=29)
    means = []
    for salary in (1.0, 10.0, 100.0):
        est, target = disjoint_beliefs_demo(model, salary, cfg)
        assert est.mean == target, f"M={salary}: {est.mean} != {target}"
        assert est.ci_halfwidth == 0.0
        assert target == 1.0 - np.exp(-salary)
        means.append(est.mean)
    assert means[0] < means[1] < means[2]
    assert 1.0 - means[-1] <= 1e-12
    report("08 disjoint beliefs",
           f"sweep exact at {means}, saturates the utility ceiling")


def test_09_value_flatness_along_paths(bench_model, bench_solve, bench_policy):
    sol, _ = bench_solve
    cfg = SimConfig(paths=100_000, dt=1.0 / 64, seed=13, x0=0.0, y0=0.0)
    rep = martingale_sandwich_check(bench_model, sol, bench_policy, cfg,
                                    tolerance=DRIFT_TOL)
    assert rep["passed"], f"drift {rep['worst_drift']:.3e}"
    assert rep["worst_drift"] <= DRIFT_TOL
    report("09 value flatness",
           f"worst drift {rep['worst_drift']:.1e} per unit time "
           "along the worst-case feedback play")


def test_10_determinism_and_reweighting(tmp_path):
    solve_cfg = {
        "model": {"preset": "risk_neutral"},
        "grid": {"x_lo": -4.0, "x_hi": 4.0, "x_nodes": 9,
                 "y_lo": -4.0, "y_hi": 4.0, "y_nodes": 9,
                 "t_steps": 8, "horizon": 1.0},
        "options": {"x0": 0.0, "reservation": 0.0},
    }
    sim_cfg = {
        "sim": {"paths": 400, "dt": 0.0625, "seed": 3},
        "artifacts": str(tmp_path / "solve_a"),
    }

    def run_twice(command, mapping, stem):
        outs = []
        for suffix in ("a", "b"):
            cfg_path = tmp_path / f"{stem}_{suffix}.yaml"
            cfg_path.write_text(yaml.safe_dump(mapping))
            out = tmp_path / f"{stem}_{suffix}"
            code = cli_main([command, "--config", str(cfg_path),
                             "--out", str(out)])
            assert code == 0
            outs.append(out)
        return outs

    identical = 0
    for command, mapping, stem in (("solve-principal", solve_cfg, "solve"),
                                   ("simulate", sim_cfg, "sim")):
        dir_a, dir_b = run_twice(command, mapping, stem)
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == sorted(p.name for p in dir_b.iterdir())
        # the wall-clock sidecar is written every run but promised no bytes
        assert TIMINGS_NAME in names
        for name in names:
            if name == TIMINGS_NAME:
                continue
            blob_a = (dir_a / name).read_bytes()
            assert blob_a == (dir_b / name).read_bytes(), f"{stem}/{name}"
            identical += 1

    worst_ratio = 0.0
    for name in sorted(PRESETS):
        params = {"n_values": (1.0, 2.0), "sigma_values": (0.3, 0.5)} \
            if name == "custom_tabulated" else {}
        model = make_model(name, **params)
        policy = constant_policy(model, HORIZON, z=0.5)
        check = girsanov_cross_check(
            model, policy, SimConfig(paths=4000, dt=1.0 / 32, seed=23))
        assert check["agree"], f"{name}: gap {check['gap']:.3e}"
        if check["tol"] > 0.0:
            worst_ratio = max(worst_ratio, check["gap"] / check["tol"])
    report("10 determinism",
           f"{identical} artifacts byte-identical, reweighting agrees on "
           f"{len(PRESETS)} presets (worst gap/tol {worst_ratio:.2f})")
