"""Monte Carlo engine tests: closed-form targets, determinism, reweighting,
scenario search, incentive probes, martingale flatness, and the
separated-beliefs degeneracy."""

import math

import numpy as np
import pytest

from robustcontract import presets, sim
from robustcontract.agent import ContractFunction, solve_agent
from robustcontract.hamiltonians import eval_F_star
from robustcontract.principal import GridSpec, extract_contract, solve_hjbi
from robustcontract.sim import (
    Estimate,
    NatureStrategy,
    SimConfig,
    adversarial_nature_search,
    constant_policy,
    disjoint_beliefs_demo,
    girsanov_cross_check,
    girsanov_weight,
    incentive_compatibility_check,
    martingale_sandwich_check,
    simulate_system,
    _response,
)

from helpers import random_polynomial_model


@pytest.fixture(scope="module")
def rn_model():
    return presets.risk_neutral()


@pytest.fixture(scope="module")
def rn_solution(rn_model):
    grid = GridSpec(x_lo=-8.0, x_hi=8.0, x_nodes=41, y_lo=-8.0, y_hi=8.0,
                    y_nodes=41, t_steps=64, horizon=1.0)
    return solve_hjbi(rn_model, grid)


@pytest.fixture(scope="module")
def rn_policy(rn_solution):
    return extract_contract(rn_solution)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(paths=0, dt=0.1, seed=1)
        with pytest.raises(ValueError):
            SimConfig(paths=10, dt=0.0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(paths=10, dt=0.1, seed=-3)

    def test_steps_must_divide_horizon(self):
        cfg = SimConfig(paths=1, dt=0.3, seed=0)
        with pytest.raises(ValueError, match="divide"):
            cfg.steps_for(1.0)
        assert SimConfig(paths=1, dt=0.25, seed=0).steps_for(1.0) == 4
        assert SimConfig(paths=1, dt=0.25, seed=0).steps_for(0.0) == 0


class TestNatureStrategy:
    def test_piecewise_lookup_uses_left_open_intervals(self):
        strat = NatureStrategy(breakpoints=(0.5, 1.0), values=(0.6, 0.9))
        assert strat.value_at(0.0) == 0.6
        assert strat.value_at(0.5) == 0.6
        assert strat.value_at(0.500001) == 0.9
        assert strat.value_at(1.0) == 0.9

    def test_constant_and_uniform_builders(self):
        c = NatureStrategy.constant(0.7, horizon=2.0)
        assert c.breakpoints == (2.0,) and c.values == (0.7,)
        u = NatureStrategy.uniform([0.5, 0.6, 0.7], horizon=1.5)
        assert u.breakpoints == (0.5, 1.0, 1.5)

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            NatureStrategy(breakpoints=(0.5, 0.5), values=(0.6, 0.7))
        with pytest.raises(ValueError):
            NatureStrategy(breakpoints=(), values=())

    def test_validate_for_model(self, rn_model):
        NatureStrategy.constant(0.75, 1.0).validate_for(rn_model, 1.0)
        with pytest.raises(ValueError, match="outside"):
            NatureStrategy.constant(2.0, 1.0).validate_for(rn_model, 1.0)
        with pytest.raises(ValueError, match="cover"):
            NatureStrategy.constant(0.75, 0.5).validate_for(rn_model, 1.0)


class TestEngineClosedForms:
    def test_driftless_zero_sensitivity_promise_is_frozen(self):
        # b = c = k = 0 and z = 0 make the running payoff vanish, so the
        # promise never moves and the principal holds a Gaussian average
        model = presets.heat_band()
        policy = constant_policy(model, horizon=1.0, z=0.0)
        cfg = SimConfig(paths=4000, dt=1 / 64, seed=3, x0=0.4, y0=0.1)
        res = simulate_system(model, policy, NatureStrategy.constant(0.3, 1.0), cfg)
        np.testing.assert_allclose(res.terminal_y, 0.1, atol=1e-12)
        want = cfg.x0 - cfg.y0
        assert abs(res.principal_estimate.mean - want) <= 4 * res.principal_estimate.ci_halfwidth + 1e-3
        np.testing.assert_allclose(res.realized_qv, 0.09, rtol=0.2)

    def test_zero_volatility_run_is_deterministic(self):
        model = presets.zero_vol()
        policy = constant_policy(model, horizon=1.0, z=0.3)
        cfg = SimConfig(paths=200, dt=1 / 32, seed=5, x0=1.2, y0=0.4)
        res = simulate_system(model, policy, None, cfg)
        np.testing.assert_array_equal(res.terminal_x, 1.2)
        np.testing.assert_array_equal(res.terminal_y, 0.4)
        assert res.principal_estimate.mean == pytest.approx(0.8, abs=1e-14)
        assert res.principal_estimate.ci_halfwidth <= 1e-15
        assert res.agent_estimate == Estimate(0.4, 0.0)
        assert np.all(res.realized_qv == 0.0)

    def test_risk_neutral_principal_payoff_is_pathwise_flat(self, rn_model, rn_policy):
        # at z = 1 the contract passes every shock through to the agent, so
        # L(X_T) - payment is deterministic: x0 - y0 + T/2
        cfg = SimConfig(paths=3000, dt=1 / 64, seed=7, x0=0.5, y0=0.25)
        res = simulate_system(rn_model, rn_policy, None, cfg)
        assert res.quarantined == 0
        np.testing.assert_allclose(res.principal_estimate.mean, 0.75, atol=1e-10)
        assert res.principal_estimate.ci_halfwidth <= 1e-12
        agent_gap = abs(res.agent_estimate.mean - cfg.y0)
        assert agent_gap <= 3 * res.agent_estimate.ci_halfwidth + 0.02

    def test_constant_discount_compounds_into_the_promise(self):
        model = presets.custom_tabulated([1.0, 2.0], [1.0, 2.0], discount=0.3)
        policy = constant_policy(model, horizon=1.0, z=0.0)
        cfg = SimConfig(paths=500, dt=1 / 128, seed=9, y0=0.8)
        res = simulate_system(model, policy, NatureStrategy.constant(1.5, 1.0), cfg)
        # dY = 0.3 Y dt compounds while the discount factor unwinds it
        steps = cfg.steps_for(1.0)
        y_want = 0.8 * (1.0 + 0.3 * cfg.dt) ** steps
        np.testing.assert_allclose(res.terminal_y, y_want, rtol=1e-12)
        assert abs(res.agent_estimate.mean - 0.8) < 1e-3
        assert res.agent_estimate.ci_halfwidth == 0.0
        lo, hi = res.discount_bounds
        kappa = model.growth_params.kappa
        assert math.exp(-kappa) - 1e-12 <= lo <= hi <= math.exp(kappa) + 1e-12

    def test_agent_side_closing_against_the_value_equation(self, rn_model):
        contract = ContractFunction.from_preset("linear:1,0")
        pde = solve_agent(rn_model, contract, x_lo=-6.0, x_hi=6.0, x_nodes=121,
                          t_steps=128, horizon=1.0)
        y0 = pde.value(0.0, 0.3)
        policy = constant_policy(rn_model, horizon=1.0, z=1.0)
        cfg = SimConfig(paths=4000, dt=1 / 64, seed=13, x0=0.3, y0=y0)
        res = simulate_system(rn_model, policy, None, cfg)
        gap = abs(res.agent_estimate.mean - y0)
        assert gap <= 3 * res.agent_estimate.ci_halfwidth + 0.02

    def test_zero_horizon_batch_reports_the_terminal_functional(self, rn_model):
        policy = constant_policy(rn_model, horizon=0.0, z=1.0)
        cfg = SimConfig(paths=50, dt=1 / 8, seed=1, x0=2.0, y0=0.5)
        res = simulate_system(rn_model, policy, None, cfg)
        assert res.principal_estimate == Estimate(1.5, 0.0)
        assert res.realized_qv.size == 0


class TestQuarantineAndDeterminism:
    def test_identical_configs_are_bit_identical(self, rn_model, rn_policy):
        cfg = SimConfig(paths=300, dt=1 / 32, seed=21, x0=0.1, y0=0.05)
        a = simulate_system(rn_model, rn_policy, None, cfg)
        b = simulate_system(rn_model, rn_policy, None, cfg)
        assert a.principal_estimate == b.principal_estimate
        assert a.agent_estimate == b.agent_estimate
        assert np.array_equal(a.terminal_x, b.terminal_x)
        assert np.array_equal(a.terminal_y, b.terminal_y)
        assert np.array_equal(a.realized_qv, b.realized_qv)

    def test_seed_changes_the_draws(self, rn_model, rn_policy):
        cfg = SimConfig(paths=300, dt=1 / 32, seed=21)
        other = SimConfig(paths=300, dt=1 / 32, seed=22)
        a = simulate_system(rn_model, rn_policy, None, cfg)
        b = simulate_system(rn_model, rn_policy, None, other)
        assert not np.array_equal(a.terminal_x, b.terminal_x)

    def test_blowup_paths_are_quarantined_loudly(self, rn_model):
        policy = constant_policy(rn_model, horizon=1.0, z=1.0)
        policy.z.fill(np.inf)
        cfg = SimConfig(paths=100, dt=1 / 16, seed=2)
        with pytest.raises(RuntimeError, match="quarantined"):
            simulate_system(rn_model, policy, None, cfg)


class TestSharedIncrements:
    @staticmethod
    def count_draws(monkeypatch):
        drawn = []
        draw = sim._draw_increments

        def counting(seed, paths, steps):
            memo = sim._increment_memo.get()
            # a scope releases its previous matrix before drawing a new one
            assert memo is None or memo[1] is None
            drawn.append((seed, paths, steps))
            return draw(seed, paths, steps)

        monkeypatch.setattr(sim, "_draw_increments", counting)
        return drawn

    def test_scope_reuses_one_read_only_draw(self, monkeypatch):
        fresh = sim._draw_increments(5, 40, 8)
        drawn = self.count_draws(monkeypatch)
        with sim._shared_increments():
            a = sim._path_increments(5, 40, 8)
            with sim._shared_increments():
                b = sim._path_increments(5, 40, 8)
            c = sim._path_increments(5, 40, 8)
        assert a is b is c
        assert a.tobytes() == fresh.tobytes()
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
        assert drawn == [(5, 40, 8)]
        assert sim._increment_memo.get() is None

    def test_key_change_redraws_and_nothing_outlives_the_scope(self, monkeypatch):
        drawn = self.count_draws(monkeypatch)
        keys = [(5, 40, 8), (6, 40, 8), (5, 40, 8), (5, 41, 8), (5, 41, 8)]
        with sim._shared_increments():
            for key in keys:
                sim._path_increments(*key)
        assert drawn == keys[:4]
        sim._path_increments(5, 41, 8)
        sim._path_increments(5, 41, 8)
        assert drawn == keys[:4] + [(5, 41, 8)] * 2

    def test_common_random_number_checks_repeat_fresh_draws(
            self, rn_model, rn_policy, monkeypatch):
        cfg = SimConfig(paths=200, dt=1 / 16, seed=4)
        shared = incentive_compatibility_check(rn_model, rn_policy, cfg, 2)
        drawn = self.count_draws(monkeypatch)
        monkeypatch.setattr(sim, "_path_increments", sim._draw_increments)
        fresh = incentive_compatibility_check(rn_model, rn_policy, cfg, 2)
        assert len(drawn) == 3 * len(rn_model.n_grid())
        assert shared["baseline"] == fresh["baseline"]
        assert [e["value"] for e in shared["entries"]] == \
            [e["value"] for e in fresh["entries"]]


class TestResponseEquivalence:
    def test_vectorized_response_matches_pointwise_saddle(self):
        model = presets.quadratic_bounded(a_grid_points=9, n_grid_points=5)
        rng = np.random.default_rng(40)
        X = rng.uniform(-1.5, 1.5, size=24)
        Y = rng.uniform(-0.8, 0.8, size=24)
        Z = rng.uniform(-2.0, 2.0, size=24)
        for n in model.n_grid():
            a_vec, f_vec, sig_vec = _response(model, 0.25, X, Y, Z, float(n))
            for i in range(len(X)):
                sig = model.vol_sigma(0.25, X[i], float(n))
                res = eval_F_star(model, 0.25, float(X[i]), float(Y[i]),
                                  float(Z[i]), sig * sig)
                assert f_vec[i] == res.value
                assert a_vec[i] == res.arg_a
                assert sig_vec[i] == sig

    @pytest.mark.parametrize("kind", ["quadratic_bounded", "random_polynomial"])
    def test_per_path_driving_control_matches_pointwise_saddle(self, kind):
        # the engine's feedback nature: one n-grid point per path, as the
        # policy's nearest-node lookup hands it over
        rng = np.random.default_rng(42)
        if kind == "quadratic_bounded":
            model = presets.quadratic_bounded(a_grid_points=9, n_grid_points=5)
        else:
            model = random_polynomial_model(np.random.default_rng(8))
            assert model.candidate_effort is None
        X = rng.uniform(-1.5, 1.5, size=40)
        Y = rng.uniform(-0.8, 0.8, size=40)
        Z = rng.uniform(-2.0, 2.0, size=40)
        n_now = rng.choice(model.n_grid(), size=40)
        a_vec, f_vec, sig_vec = _response(model, 0.25, X, Y, Z, n_now)
        for i in range(len(X)):
            sig = model.vol_sigma(0.25, X[i], float(n_now[i]))
            res = eval_F_star(model, 0.25, float(X[i]), float(Y[i]),
                              float(Z[i]), sig * sig)
            assert f_vec[i] == res.value
            assert a_vec[i] == res.arg_a
            assert sig_vec[i] == sig

    def test_fast_path_matches_general_enumeration(self, rn_model):
        import dataclasses
        slow = dataclasses.replace(rn_model, risk_neutral=False)
        rng = np.random.default_rng(41)
        X = rng.uniform(-4, 4, size=50)
        Y = rng.uniform(-4, 4, size=50)
        Z = rng.uniform(-0.5, 1.5, size=50)
        a_fast, f_fast, _ = _response(rn_model, 0.5, X, Y, Z, 0.75)
        a_slow, f_slow, _ = _response(slow, 0.5, X, Y, Z, 0.75)
        np.testing.assert_array_equal(a_fast, a_slow)
        np.testing.assert_array_equal(f_fast, f_slow)


class TestGirsanov:
    def test_zero_drift_weight_is_one(self):
        model = presets.heat_band()
        path = np.array([0.0, 0.3, 0.1, 0.4])
        w = girsanov_weight(model, path, np.zeros(3), np.full(3, 0.3), dt=0.25)
        assert w == 1.0

    def test_single_step_closed_form(self, rn_model):
        # constant theta = b/sigma: weight = exp(theta dW - theta^2 dt / 2)
        dt, x0, x1, n = 0.5, 0.2, 0.7, 0.8
        a = 0.6
        w = girsanov_weight(rn_model, np.array([x0, x1]), np.array([a]),
                            np.array([n]), dt=dt)
        theta = a / n
        dw = (x1 - x0) / n
        assert w == pytest.approx(math.exp(theta * dw - 0.5 * theta * theta * dt), rel=1e-15)

    def test_zero_vol_with_drift_rejected(self):
        model = presets.zero_vol()
        object.__setattr__(model, "drift_b", lambda t, x, a, n: 1.0)
        with pytest.raises(ValueError, match="likelihood"):
            girsanov_weight(model, np.array([0.0, 0.0]), np.array([0.5]),
                            np.array([1.0]), dt=0.5)

    def test_engine_weights_match_the_pathwise_operation(self, rn_model):
        policy = constant_policy(rn_model, horizon=0.5, z=1.0)
        cfg = SimConfig(paths=40, dt=1 / 8, seed=17, x0=0.1, y0=0.0,
                        girsanov_mode=True)
        frames = []
        res = simulate_system(rn_model, policy, NatureStrategy.constant(0.75, 0.5),
                              cfg, observer=lambda k, t, X, Y: frames.append(X.copy()))
        paths = np.stack(frames, axis=1)  # (paths, steps+1)
        steps = cfg.steps_for(0.5)
        for p in range(0, 40, 7):
            w = girsanov_weight(rn_model, paths[p], np.ones(steps),
                                np.full(steps, 0.75), dt=cfg.dt)
            assert w == pytest.approx(res.weights[p], rel=1e-12)

    def test_cross_check_agrees_on_drifted_and_driftless_presets(self, rn_model, rn_policy):
        cfg = SimConfig(paths=4000, dt=1 / 64, seed=29, x0=0.5, y0=0.25)
        report = girsanov_cross_check(rn_model, rn_policy, cfg)
        assert report["agree"], report

        flat = presets.heat_band()
        flat_policy = constant_policy(flat, horizon=1.0, z=0.0)
        rep2 = girsanov_cross_check(flat, flat_policy, cfg)
        assert rep2["agree"]
        # with no drift the weights degenerate to unity
        res = simulate_system(flat, flat_policy, None,
                              SimConfig(paths=100, dt=1 / 16, seed=3, girsanov_mode=True))
        np.testing.assert_array_equal(res.weights, 1.0)


class TestAdversarialSearch:
    def test_singleton_band_returns_the_unique_scenario(self):
        model = presets.zero_vol()
        policy = constant_policy(model, horizon=1.0, z=0.2)
        cfg = SimConfig(paths=100, dt=1 / 8, seed=31, x0=1.0, y0=0.2)
        strat, value = adversarial_nature_search(model, policy, cfg, intervals=2)
        assert strat.values == (1.0, 1.0)
        plain = simulate_system(model, policy, strat, cfg).principal_estimate.mean
        assert value == plain

    def test_risk_neutral_value_is_volatility_flat(self, rn_model, rn_policy):
        cfg = SimConfig(paths=2000, dt=1 / 32, seed=37, x0=0.5, y0=0.25)
        rng = np.random.default_rng(8)
        values = []
        for _ in range(5):
            vals = tuple(rng.uniform(0.5, 1.0, size=3))
            res = simulate_system(rn_model, rn_policy,
                                  NatureStrategy.uniform(vals, 1.0), cfg)
            values.append(res.principal_estimate.mean)
        assert max(values) - min(values) <= 1e-10

    def test_convex_liquidation_drives_volatility_to_the_low_edge(self):
        # with b = 0 and z = 0 the principal holds E[|X_T|]; wider noise can
        # only grow it, so the worst scenario sits at the low edge per block
        model = presets.heat_band(band=(0.2, 0.4))
        object.__setattr__(model, "liquidation_L", lambda x: abs(x))
        policy = constant_policy(model, horizon=1.0, z=0.0)
        cfg = SimConfig(paths=1500, dt=1 / 16, seed=41, x0=0.0, y0=0.0)
        strat, value = adversarial_nature_search(
            model, policy, cfg, intervals=2, candidates=(0.2, 0.4))
        assert strat.values == (0.2, 0.2)
        # brute force over the four extreme scenarios with the same seed
        brute = min(
            simulate_system(model, policy, NatureStrategy.uniform(v, 1.0),
                            cfg).principal_estimate.mean
            for v in [(0.2, 0.2), (0.2, 0.4), (0.4, 0.2), (0.4, 0.4)])
        assert value == brute


class TestIncentiveCompatibility:
    def test_identity_and_clamped_deformations_change_nothing(self, rn_model, rn_policy):
        cfg = SimConfig(paths=800, dt=1 / 32, seed=43, x0=0.5, y0=0.25)
        report = incentive_compatibility_check(
            rn_model, rn_policy, cfg, perturbations=2,
            deformations=[lambda t, X, a: a,
                          lambda t, X, a: a + 0.2])  # clamps back to a_bar at a* = 1
        assert report["passed"]
        for entry in report["entries"]:
            assert entry["drop"] == 0.0

    def test_damped_effort_is_strictly_suboptimal(self, rn_model, rn_policy):
        cfg = SimConfig(paths=6000, dt=1 / 64, seed=47, x0=0.5, y0=0.25)
        report = incentive_compatibility_check(
            rn_model, rn_policy, cfg, perturbations=4,
            damping_range=(0.35, 0.45))
        assert report["passed"]
        assert report["strictly_lower"] == 4
        for entry in report["entries"]:
            assert entry["value"] < report["baseline"].mean

    def test_interior_optimum_rejects_an_upward_shift(self, rn_model):
        policy = constant_policy(rn_model, horizon=1.0, z=0.6)
        cfg = SimConfig(paths=6000, dt=1 / 64, seed=53, x0=0.0, y0=0.0)
        report = incentive_compatibility_check(
            rn_model, policy, cfg, perturbations=1,
            deformations=[lambda t, X, a: a + 0.3])
        entry = report["entries"][0]
        assert entry["drop"] > entry["ci"] + report["baseline"].ci_halfwidth
        assert report["passed"]


class TestMartingaleSandwich:
    def test_optimal_paths_are_drift_free(self, rn_model, rn_solution, rn_policy):
        cfg = SimConfig(paths=2000, dt=1 / 64, seed=59, x0=0.5, y0=0.25)
        report = martingale_sandwich_check(rn_model, rn_solution, rn_policy, cfg)
        assert report["worst_drift"] <= 1e-8
        assert report["passed"]
        sub = report["suboptimal"]
        assert sub["label"] == "flat game"
        assert sub["worst_downward_drift"] <= 1e-8

    def test_zero_horizon_is_trivially_constant(self, rn_model, rn_solution):
        policy = constant_policy(rn_model, horizon=0.0, z=1.0)
        cfg = SimConfig(paths=50, dt=1 / 8, seed=61)
        report = martingale_sandwich_check(rn_model, rn_solution, policy, cfg)
        assert report["worst_drift"] == 0.0
        assert report["passed"]


class TestDisjointBeliefs:
    def test_flat_salary_is_reproduced_exactly(self):
        model = presets.disjoint_beliefs()
        cfg = SimConfig(paths=500, dt=1 / 16, seed=67)
        est, target = disjoint_beliefs_demo(model, 7.0, cfg)
        assert est == Estimate(7.0, 0.0)
        assert target == 7.0
        est0, target0 = disjoint_beliefs_demo(model, 0.0, cfg)
        assert est0 == Estimate(0.0, 0.0) and target0 == 0.0

    def test_sweep_trends_to_the_utility_ceiling(self):
        u_p = lambda x: 1.0 - math.exp(-x)
        model = presets.disjoint_beliefs(utility_principal=u_p)
        cfg = SimConfig(paths=300, dt=1 / 8, seed=71)
        estimates = [disjoint_beliefs_demo(model, m, cfg)[0].mean
                     for m in (1.0, 10.0, 100.0)]
        np.testing.assert_array_equal(estimates, [u_p(1.0), u_p(10.0), u_p(100.0)])
        assert estimates[0] < estimates[1] < estimates[2] <= 1.0
        assert estimates[2] > 1.0 - 1e-12

    def test_overlapping_or_missing_bands_are_rejected(self):
        overlapping = presets.disjoint_beliefs(agent_band=(0.1, 0.35),
                                               principal_band=(0.3, 0.5))
        cfg = SimConfig(paths=10, dt=1 / 4, seed=73)
        with pytest.raises(ValueError, match="overlap"):
            disjoint_beliefs_demo(overlapping, 5.0, cfg)
        with pytest.raises(ValueError, match="belief"):
            disjoint_beliefs_demo(presets.risk_neutral(), 5.0, cfg)

    def test_negative_salary_rejected(self):
        model = presets.disjoint_beliefs()
        with pytest.raises(ValueError, match="M_salary"):
            disjoint_beliefs_demo(model, -1.0, SimConfig(paths=10, dt=0.25, seed=1))


class TestRealizedQuadraticVariation:
    def test_trace_tracks_the_scenario_level(self):
        model = presets.heat_band()
        policy = constant_policy(model, horizon=1.0, z=0.0)
        cfg = SimConfig(paths=3000, dt=1 / 32, seed=79)
        res = simulate_system(model, policy, NatureStrategy.constant(0.4, 1.0), cfg)
        np.testing.assert_allclose(res.realized_qv, 0.16, rtol=0.15)
        lo, hi = 0.2 ** 2, 0.4 ** 2
        assert np.all(res.realized_qv >= lo * 0.8)
        assert np.all(res.realized_qv <= hi * 1.2)

    def test_piecewise_scenario_switches_the_level(self):
        model = presets.heat_band()
        policy = constant_policy(model, horizon=1.0, z=0.0)
        cfg = SimConfig(paths=4000, dt=1 / 32, seed=83)
        strat = NatureStrategy.uniform([0.2, 0.4], 1.0)
        res = simulate_system(model, policy, strat, cfg)
        # the step at t = 0.5 exactly still belongs to the first interval
        first, second = res.realized_qv[:17], res.realized_qv[17:]
        np.testing.assert_allclose(first, 0.04, rtol=0.2)
        np.testing.assert_allclose(second, 0.16, rtol=0.2)
