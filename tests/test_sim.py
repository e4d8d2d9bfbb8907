"""Monte Carlo engine tests: closed-form targets, determinism, reweighting,
incentive probes, martingale flatness, and the separated-beliefs
degeneracy."""

import copy
import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import yaml

from robustcontract import cli, export, numerics, presets, sim
from robustcontract.agent import ContractFunction, solve_agent
from robustcontract.hamiltonians import eval_F_star
from robustcontract.principal import GridSpec, extract_contract, solve_hjbi
from robustcontract.sim import (
    Estimate,
    NatureStrategy,
    SimConfig,
    SimResult,
    constant_policy,
    disjoint_beliefs_demo,
    girsanov_cross_check,
    incentive_compatibility_check,
    martingale_sandwich_check,
    simulate_system,
    _enumerated_response,
    _response,
)

from helpers import (
    build_model,
    girsanov_weight,
    random_polynomial_model,
    reference_draw,
    reference_simulate,
)


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

    @pytest.mark.parametrize("field, value", [
        ("paths", 10.5), ("seed", 1.5), ("paths", True), ("seed", False),
        ("paths", 10.0)])
    def test_paths_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(**dict({"paths": 10, "dt": 0.1, "seed": 1},
                             **{field: value}))
        # NumPy integers are integers
        assert SimConfig(paths=np.int64(10), dt=0.1, seed=np.uint32(1)).paths == 10

    @pytest.mark.parametrize("field, value", [
        ("x0", math.nan), ("x0", -math.inf), ("y0", math.inf),
        ("y0", np.float64(math.nan))])
    def test_start_point_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SimConfig(**{"paths": 10, "dt": 0.1, "seed": 1, field: value})

    def test_steps_must_divide_horizon(self):
        cfg = SimConfig(paths=1, dt=0.3, seed=0)
        with pytest.raises(ValueError, match="divide"):
            cfg.steps_for(1.0)
        assert SimConfig(paths=1, dt=0.25, seed=0).steps_for(1.0) == 4
        assert SimConfig(paths=1, dt=0.25, seed=0).steps_for(0.0) == 0

    @pytest.mark.parametrize("horizon", [-1.0, math.inf, math.nan])
    def test_bad_horizons_are_refused_by_name(self, horizon):
        cfg = SimConfig(paths=1, dt=0.25, seed=0)
        with pytest.raises(ValueError) as exc:
            cfg.steps_for(horizon)
        assert str(exc.value) == (
            f"the horizon must be finite and nonnegative, got {horizon}")


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

    def test_zero_horizon_policy_has_one_time_node(self, rn_model):
        policy = constant_policy(rn_model, horizon=0.0, z=1.0)
        assert policy.t_grid.tolist() == [0.0]
        assert policy.gather(0.0, [0.0], [0.0])["z"].tolist() == [1.0]
        with pytest.raises(ValueError, match="t_grid is not finite"):
            constant_policy(rn_model, horizon=-1.0, z=1.0)

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


class TestDrawIncrements:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 2**32 - 1, 2**32 + 5,
                                      2**64 + 3, 2**130 + 1, 1013446243])
    def test_rows_are_the_spawned_streams(self, seed):
        # step k's key is child k of the root's spawn
        children = np.random.SeedSequence(seed).spawn(3)
        for k, child in enumerate(children):
            keyed = np.random.SeedSequence(seed, spawn_key=(k,))
            assert np.array_equal(child.generate_state(4),
                                  keyed.generate_state(4))
        # the matrix and a fresh batch's rows alike
        for paths in (1, 2, 257, 3000):
            for steps in (0, 1, 64):
                want = reference_draw(seed, paths, steps)
                got = sim._draw_increments(seed, paths, steps)
                assert got.shape == (steps, paths)
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (paths, steps)
                rows = list(sim._path_increments(seed, paths, steps))
                assert len(rows) == steps
                for k, row in enumerate(rows):
                    assert row.tobytes() == want[k].tobytes(), (paths, k)

    def test_prefixes_and_single_rows_agree_with_the_matrix(self):
        big = sim._draw_increments(13, 1000, 16)
        assert np.array_equal(big[:8, :10], sim._draw_increments(13, 10, 8))
        for k in (0, 7, 15):
            alone = sim._step_stream(13, k).standard_normal(1000)
            assert alone.tobytes() == big[k].tobytes()

    def test_given_and_fresh_increments_give_the_same_bytes(self, rn_model,
                                                            rn_policy):
        for girsanov in (False, True):
            cfg = SimConfig(paths=300, dt=1 / 32, seed=31,
                            girsanov_mode=girsanov)
            fresh = simulate_system(rn_model, rn_policy, None, cfg)
            given = simulate_system(
                rn_model, rn_policy, None, cfg,
                increments=sim._draw_increments(cfg.seed, cfg.paths, 32))
            for field in dataclasses.fields(SimResult):
                a = getattr(fresh, field.name)
                b = getattr(given, field.name)
                if isinstance(a, np.ndarray):
                    assert a.tobytes() == b.tobytes(), field.name
                else:
                    assert a == b, field.name

    @pytest.mark.parametrize("shape", [(31, 300), (33, 300), (32, 299),
                                       (32,), (32, 300, 1)])
    def test_wrong_shape_increments_raise_before_any_step(
            self, rn_model, rn_policy, shape):
        cfg = SimConfig(paths=300, dt=1 / 32, seed=31)
        seen = []
        with pytest.raises(ValueError, match=r"not \(steps, paths\)"):
            simulate_system(rn_model, rn_policy, None, cfg,
                            observer=lambda k, t, X, Y: seen.append(k),
                            increments=np.zeros(shape))
        assert seen == []

    def test_a_fresh_batch_holds_one_step_of_increments(self, rn_model,
                                                        rn_policy):
        # a 20000 x 256 matrix is 41 MB; the engine must hold far less
        paths, steps = 20_000, 256
        cfg = SimConfig(paths=paths, dt=1 / steps, seed=5)
        tracemalloc.start()
        try:
            simulate_system(rn_model, rn_policy, None, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * paths * steps / 4


class TestSharedIncrements:
    @staticmethod
    def count_draws(monkeypatch):
        drawn = []
        draw = sim._draw_increments

        def counting(seed, paths, steps):
            drawn.append((seed, paths, steps))
            return draw(seed, paths, steps)

        monkeypatch.setattr(sim, "_draw_increments", counting)
        return drawn

    def test_drawn_matrix_is_read_only(self):
        matrix = sim._draw_increments(5, 40, 8)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0
        assert matrix.tobytes() == reference_draw(5, 40, 8).tobytes()

    def test_a_fresh_batch_draws_row_by_row(self, rn_model, rn_policy,
                                            monkeypatch):
        # each batch gets its own generator of step rows, which builds no
        # matrix and keeps nothing between calls
        matrix = sim._draw_increments(5, 41, 8)
        drawn = self.count_draws(monkeypatch)
        for _ in range(2):
            rows = sim._path_increments(5, 41, 8)
            assert not isinstance(rows, np.ndarray)
            assert np.array_equal(np.array(list(rows)), matrix)
        simulate_system(rn_model, rn_policy, None,
                        SimConfig(paths=41, dt=1 / 8, seed=5))
        girsanov_cross_check(rn_model, rn_policy,
                             SimConfig(paths=41, dt=1 / 8, seed=5))
        assert drawn == []

    def test_each_check_draws_its_matrix_once(self, rn_model, rn_solution,
                                              rn_policy, monkeypatch):
        cfg = SimConfig(paths=50, dt=1 / 8, seed=4)
        drawn = self.count_draws(monkeypatch)
        incentive_compatibility_check(rn_model, rn_policy, cfg, 2)
        assert drawn == [(4, 50, 8)]
        drawn.clear()
        martingale_sandwich_check(rn_model, rn_solution, rn_policy, cfg,
                                  probes=5)
        assert drawn == [(4, 50, 8)]

    def test_common_random_number_checks_repeat_fresh_draws(
            self, rn_model, rn_policy, monkeypatch):
        cfg = SimConfig(paths=200, dt=1 / 16, seed=4)
        shared = incentive_compatibility_check(rn_model, rn_policy, cfg, 2)
        runs = []
        real = sim.simulate_system

        def fresh_rows(model, policy, nature, cfg, **kwargs):
            runs.append(kwargs.pop("increments"))
            return real(model, policy, nature, cfg, **kwargs)

        monkeypatch.setattr(sim, "simulate_system", fresh_rows)
        fresh = incentive_compatibility_check(rn_model, rn_policy, cfg, 2)
        assert len(runs) == 3 * len(rn_model.n_grid())
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
        # the candidate shortcut and the effort enumeration
        for respond, n in itertools.product(
                (_response, _enumerated_response), model.n_grid()):
            a_vec, f_vec, sig_vec, _ = respond(model, 0.25, X, Y, Z, float(n))
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
        # the candidate shortcut (quadratic_bounded) and the enumeration
        for respond in (_response, _enumerated_response):
            a_vec, f_vec, sig_vec, _ = respond(model, 0.25, X, Y, Z, n_now)
            for i in range(len(X)):
                sig = model.vol_sigma(0.25, X[i], float(n_now[i]))
                res = eval_F_star(model, 0.25, float(X[i]), float(Y[i]),
                                  float(Z[i]), sig * sig)
                assert f_vec[i] == res.value
                assert a_vec[i] == res.arg_a
                assert sig_vec[i] == sig

    def test_fast_path_matches_general_enumeration(self, rn_model):
        rng = np.random.default_rng(41)
        X = rng.uniform(-4, 4, size=50)
        Y = rng.uniform(-4, 4, size=50)
        Z = rng.uniform(-0.5, 1.5, size=50)
        a_fast, f_fast, _, parts = _response(rn_model, 0.5, X, Y, Z, 0.75)
        a_slow, f_slow, _, none = _enumerated_response(rn_model, 0.5, X, Y,
                                                       Z, 0.75)
        np.testing.assert_array_equal(a_fast, a_slow)
        np.testing.assert_array_equal(f_fast, f_slow)
        # the fast path hands back the kernel's (b, k, c) at the played
        # effort, which the engine would otherwise evaluate again
        assert none is None
        want = numerics.effort_payoff(rn_model, 0.5, X, Y, a_fast, 0.75)[1:]
        for got, exact in zip(parts, want, strict=True):
            assert np.broadcast_to(got, X.shape).tobytes() == \
                np.broadcast_to(exact, X.shape).tobytes()


    @staticmethod
    def with_the_fold(model):
        """A copy that runs the n-grid fold whatever its probes showed."""
        twin = copy.copy(model)
        object.__setattr__(twin, "payoff_free_of_nature", False)
        return twin

    @pytest.mark.parametrize("name", ["quadratic_bounded", "heat_band",
                                      "custom_tabulated"])
    def test_skipped_fold_matches_the_fold_bit_for_bit(self, name):
        model = {"quadratic_bounded": presets.quadratic_bounded,
                 "heat_band": presets.heat_band,
                 "custom_tabulated": lambda: presets.custom_tabulated(
                     [0.5, 0.75, 1.0], [0.5, 0.9, 1.0], discount=0.3),
                 }[name]()
        assert model.payoff_free_of_nature
        folded = self.with_the_fold(model)
        rng = np.random.default_rng(43)
        X = rng.uniform(-3.0, 3.0, size=200)
        Y = rng.uniform(-0.8, 0.8, size=200)
        Z = rng.uniform(-2.0, 2.0, size=200)
        X[:3], Y[3:6], Z[6:9] = np.nan, np.nan, np.inf
        Y[9:12], Z[12:15] = -0.0, -0.0
        lo, hi = model.nature_set_N
        for n_now in (lo, 0.3 * lo + 0.7 * hi,
                      rng.choice(model.n_grid(), size=200)):
            with np.errstate(invalid="ignore"):
                # both sides enumerate, so the fold skip is what differs
                # between them, not the candidate shortcut
                got = _enumerated_response(model, 0.25, X, Y, Z, n_now)
                want = _enumerated_response(folded, 0.25, X, Y, Z, n_now)
            assert got[3] is want[3] is None
            for g, w in zip(got[:3], want[:3]):
                assert np.broadcast_to(g, X.shape).tobytes() == \
                    np.broadcast_to(w, X.shape).tobytes()

    def test_nature_read_off_the_probe_points_keeps_the_fold(self):
        # the drift reads nature only at |x| > 3, outside the probed
        # |x| <= M + 0.95; a constant volatility puts every grid control in
        # the level set, so the fold picks the worst nature there
        model = build_model(
            b=lambda t, x, a, n: a + n * np.maximum(np.abs(x) - 3.0, 0.0),
            sigma=lambda t, x, n: 1.0, truncation_M=2.0)
        assert not model.payoff_free_of_nature
        X = np.linspace(-4.0, 4.0, 41)
        Y = np.zeros_like(X)
        Z = np.linspace(-1.0, 1.0, 41)
        a_vec, f_vec, _, _ = _response(model, 0.25, X, Y, Z, 1.5)
        for i in range(len(X)):
            res = eval_F_star(model, 0.25, float(X[i]), float(Y[i]),
                              float(Z[i]), 1.0)
            assert (a_vec[i], f_vec[i]) == (res.arg_a, res.value)
        skipped = copy.copy(model)
        object.__setattr__(skipped, "payoff_free_of_nature", True)
        f_skip = _response(skipped, 0.25, X, Y, Z, 1.5)[1]
        assert np.any(f_skip != f_vec)

    def test_a_candidate_on_a_payoff_that_reads_nature_keeps_the_fold(self):
        # a constant volatility puts every grid control in the level set;
        # clamp(z) maximizes the worst payoff a z - a^2/2 (n = 1 for z > 0,
        # effort 0 otherwise) of the drift a n, but only the fold reports
        # that worst payoff at a driving control n = 1.5
        model = build_model(b=lambda t, x, a, n: a * n,
                            sigma=lambda t, x, n: 1.0,
                            candidate_effort=lambda t, x, z, sigma: z)
        assert not model.payoff_free_of_nature
        Z = np.linspace(-1.5, 1.5, 31)
        X, Y = np.zeros_like(Z), np.zeros_like(Z)
        a_vec, f_vec, _, parts = _response(model, 0.25, X, Y, Z, 1.5)
        assert parts is None
        for i in range(len(Z)):
            res = eval_F_star(model, 0.25, 0.0, 0.0, float(Z[i]), 1.0)
            assert (a_vec[i], f_vec[i]) == (res.arg_a, res.value)
            assert a_vec[i] == min(max(Z[i], 0.0), 1.0)

    def test_peak_memory_stays_below_one_stacked_nature_tensor(self):
        model = presets.quadratic_bounded()
        paths = 4000
        rng = np.random.default_rng(44)
        X = rng.uniform(-3.0, 3.0, size=paths)
        Y = rng.uniform(-0.8, 0.8, size=paths)
        Z = rng.uniform(-2.0, 2.0, size=paths)
        n_now = rng.choice(model.n_grid(), size=paths)
        stacked = len(model.n_grid()) * (len(model.a_grid()) + 1) * paths * 8
        tracemalloc.start()
        try:
            _enumerated_response(model, 0.25, X, Y, Z, n_now)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stacked


class TestCandidateShortcut:
    """``_response``'s candidate shortcut against the effort enumeration
    on the same model.  ``reference_simulate`` calls ``_response`` itself,
    so ``TestEngineReference`` cannot see a fault of the shortcut; these
    tests can."""

    # each preset with a candidate effort, and the largest F* gap measured
    # on it near a grid effort (400,000 states; ``_response``'s docstring)
    MODELS = {"risk_neutral": (presets.risk_neutral, 2.0**-54),
              "quadratic_bounded": (presets.quadratic_bounded,
                                    2.0**-52 + 2.0**-54),
              # the only preset with a nonzero discount
              "custom_tabulated": (lambda: presets.custom_tabulated(
                  [0.5, 0.75, 1.0], [0.5, 0.9, 1.0], discount=0.3), 2.0**-53)}

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_differences_from_the_enumeration_are_the_stated_ones(self, name):
        build, max_gap = self.MODELS[name]
        model = build()
        assert model.candidate_effort is not None
        assert model.payoff_free_of_nature
        rng = np.random.default_rng(45)
        size = 20000
        X = rng.uniform(-2.5, 2.5, size)
        Y = rng.uniform(-0.8, 0.8, size)
        n_now = rng.choice(model.n_grid(), size)
        # the candidate is clamp(z phi(x)): phi >= 0.5 on quadratic_bounded
        # here, 1 on the others
        phi = (presets.smooth_cutoff(X, model.truncation_M)
               if name == "quadratic_bounded" else 1.0)
        near = rng.choice(model.a_grid(), size)
        near = near + rng.integers(-8, 9, size) * np.spacing(near)

        def both(Z, X=X, Y=Y, n_now=n_now):
            with np.errstate(invalid="ignore"):
                got = _response(model, 0.25, X, Y, Z, n_now)
                want = _enumerated_response(model, 0.25, X, Y, Z, n_now)
            # effort and sigma agree bit for bit, and the handed-back
            # (b, k, c) are the kernel's at the played effort
            for g, w in zip(got[::2], want[::2]):
                assert np.broadcast_to(g, X.shape).tobytes() == \
                    np.broadcast_to(w, X.shape).tobytes()
            parts = numerics.effort_parts(model, 0.25, X, want[0], n_now)
            for g, w in zip(got[3], parts, strict=True):
                assert np.broadcast_to(g, X.shape).tobytes() == \
                    np.broadcast_to(w, X.shape).tobytes()
            return got[1], want[1]

        # z phi within 8 ulps of a grid effort: the enumeration reports a
        # grid row that rounds above the candidate it keeps
        f_fast, f_slow = both(near / phi)
        gap = f_slow - f_fast
        assert np.all(gap >= 0.0)
        assert 0 < np.count_nonzero(gap) < size // 4
        assert np.max(gap) <= max_gap
        # uniform states: about one in 400,000 differs
        f_fast, f_slow = both(rng.uniform(-2.0, 2.0, size))
        assert np.count_nonzero(f_fast != f_slow) <= 1
        # z = +inf: inf against NaN (0 * inf on the a = 0 row); z = -inf:
        # NaN on both; z = -0.0: +0.0 against -0.0
        f_fast, f_slow = both(np.array([np.inf, -np.inf, -0.0]),
                              X=np.full(3, 0.3), Y=np.zeros(3),
                              n_now=0.75)
        assert f_fast[0] == np.inf and np.isnan(f_slow[0])
        assert np.isnan(f_fast[1]) and np.isnan(f_slow[1])
        assert f_fast[2] == f_slow[2] == 0.0
        assert not np.signbit(f_fast[2]) and np.signbit(f_slow[2])

    @pytest.fixture(scope="class")
    def robust_policy(self):
        # the robust solve's grid in tests/test_principal.py (ROBUST_GRID)
        grid = GridSpec(x_lo=-3.0, x_hi=3.0, x_nodes=13, y_lo=-0.5,
                        y_hi=0.5, y_nodes=13, t_steps=8, horizon=0.5)
        return extract_contract(solve_hjbi(presets.quadratic_bounded(), grid))

    @pytest.mark.parametrize("feedback", [True, False])
    def test_engine_runs_match_the_enumeration(self, robust_policy, feedback,
                                               monkeypatch):
        model = presets.quadratic_bounded()
        nature = None if feedback else NatureStrategy.constant(0.7, 0.5)
        cfg = SimConfig(paths=3000, dt=1 / 64, seed=47, x0=0.25, y0=0.1)
        got = simulate_system(model, robust_policy, nature, cfg)
        monkeypatch.setattr(sim, "_response", _enumerated_response)
        want = simulate_system(model, robust_policy, nature, cfg)
        # the state and its quadratic variation follow the effort alone
        assert got.terminal_x.tobytes() == want.terminal_x.tobytes()
        assert got.realized_qv.tobytes() == want.realized_qv.tobytes()
        assert (got.paths_used, got.quarantined) == \
            (want.paths_used, want.quarantined)
        # the payments carry F*, which may sit an ulp lower
        for key in ("principal_estimate", "agent_estimate"):
            np.testing.assert_allclose(getattr(got, key), getattr(want, key),
                                       rtol=0.0, atol=1e-12)


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

    def test_direct_run_may_be_the_martingale_feedback_run(
            self, rn_model, rn_solution, rn_policy):
        cfg = SimConfig(paths=500, dt=1 / 64, seed=31, x0=0.5, y0=0.25)
        mart = martingale_sandwich_check(rn_model, rn_solution, rn_policy,
                                         cfg)
        shared = girsanov_cross_check(rn_model, rn_policy, cfg,
                                      direct=mart["feedback_run"])
        assert shared == girsanov_cross_check(rn_model, rn_policy, cfg)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the 3x CI tolerance underestimates the spread of "
        "heavy-tailed likelihood weights, so about one seed in a few "
        "hundred reports a false disagreement at 2,000 paths"))
    def test_cross_check_agrees_at_two_thousand_paths(self, rn_model,
                                                      rn_policy):
        # verify's batch on the default risk-neutral solve; this seed's gap
        # is 0.521 against a bound of 0.357
        cfg = SimConfig(paths=2000, dt=1 / 64, seed=692)
        report = girsanov_cross_check(rn_model, rn_policy, cfg)
        assert report["agree"], report


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
        # one run: the feedback run, with nature read from the policy
        assert set(report) == {"worst_drift", "passed", "feedback_run"}

    def test_zero_horizon_is_trivially_constant(self, rn_model, rn_solution):
        policy = constant_policy(rn_model, horizon=0.0, z=1.0)
        cfg = SimConfig(paths=50, dt=1 / 8, seed=61)
        report = martingale_sandwich_check(rn_model, rn_solution, policy, cfg)
        assert report["worst_drift"] == 0.0
        assert report["passed"]


class TestContractChecks:
    def test_suite_draws_once_and_writes_verify_report_entries(
            self, tmp_path, monkeypatch):
        grid = {"x_lo": -8.0, "x_hi": 8.0, "x_nodes": 17, "y_lo": -8.0,
                "y_hi": 8.0, "y_nodes": 17, "t_steps": 16, "horizon": 1.0}
        settings = {"paths": 300, "seed": 9, "perturbations": 2, "probes": 7,
                    "martingale_tolerance": 0.04}

        def run(command, doc):
            path = tmp_path / f"{command}.yaml"
            path.write_text(yaml.safe_dump(doc))
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == cli.EXIT_OK
            return tmp_path / command

        solve = run("solve-principal",
                    {"model": {"preset": "risk_neutral"}, "grid": grid})
        out = run("verify", {"verify": dict(settings, artifacts=str(solve))})
        report = yaml.safe_load((out / "report.yaml").read_text())
        del report["checks"]["checksums"]

        model = presets.risk_neutral()
        solution = solve_hjbi(model, GridSpec(**grid))
        drawn = TestSharedIncrements.count_draws(monkeypatch)
        rows = []
        fresh_rows = sim._path_increments

        def counting_rows(seed, paths, steps):
            rows.append(seed)
            return fresh_rows(seed, paths, steps)

        monkeypatch.setattr(sim, "_path_increments", counting_rows)
        # verify's defaults: dt is 1/64 of the horizon, x0 and y0 are 0
        cfg = SimConfig(paths=300, dt=1 / 64, seed=9)
        checks = sim.contract_checks(
            model, solution, extract_contract(solution), cfg,
            perturbations=2, probes=7, tolerance=0.04)
        # one matrix for the martingale and the incentive check; the
        # cross-check's reweighted run draws its rows itself
        assert [key[0] for key in drawn] == [9]
        assert rows == [10]
        assert export.canonical_yaml(checks) == \
            export.canonical_yaml(report["checks"])

    def test_suite_runs_the_engine_once_per_distinct_batch(
            self, rn_model, rn_solution, rn_policy, monkeypatch):
        runs = []
        real = sim.simulate_system

        def counting(model, policy, nature, cfg, **kwargs):
            runs.append((nature, kwargs.get("effort_transform")))
            return real(model, policy, nature, cfg, **kwargs)

        monkeypatch.setattr(sim, "simulate_system", counting)
        cfg = SimConfig(paths=200, dt=1 / 16, seed=3)
        sim.contract_checks(rn_model, rn_solution, rn_policy, cfg,
                            perturbations=2, probes=5, tolerance=0.05)
        # martingale: the feedback run; incentive: 1 + 2 effort maps at 5
        # constant natures; Girsanov: the reweighted run alone
        assert len(runs) == 1 + 3 * 5 + 1
        unperturbed = [nature for nature, transform in runs
                       if nature is not None and transform is None]
        assert len(unperturbed) == len(set(unperturbed)) == 5

    def test_probes_fail_an_effort_that_is_not_the_best_response(
            self, rn_model, rn_solution, monkeypatch):
        # the candidate says a = 0 whatever z is while the payoff stays
        # free of nature, so the engine plays a = 0 and the tabulated effort
        # (all zeros) answers it: the field check cannot see the fault.
        # The default damping probes cannot see it either, since damping an
        # effort of 0 leaves it at 0; a probe that raises the effort does.
        bad = dataclasses.replace(
            rn_model, candidate_effort=lambda t, x, z, s: 0.0 * z)

        def raise_effort(t, X, a):
            return a + 0.5

        monkeypatch.setattr(sim, "incentive_compatibility_check",
                            functools.partial(incentive_compatibility_check,
                                              deformations=[raise_effort]))
        cfg = SimConfig(paths=2000, dt=1 / 16, seed=5)
        checks = sim.contract_checks(
            bad, rn_solution, constant_policy(bad, 1.0, z=1.0), cfg,
            perturbations=1, probes=5, tolerance=0.05)
        assert checks["incentive_fields"] == {
            "passed": True, "measured": 0.0, "bound": 1e-9}
        assert checks["incentive_probes"]["passed"] is False
        assert checks["incentive_probes"]["measured"] == 1.0

        report = incentive_compatibility_check(
            bad, constant_policy(bad, 1.0, z=1.0), cfg, 1,
            deformations=[raise_effort])
        assert report["violations"] == report["entries"]
        assert report["entries"][0]["drop"] < -0.3
        # on the preset itself a* = a_bar = 1, and a + 0.5 clamps back to it
        real = incentive_compatibility_check(
            rn_model, constant_policy(rn_model, 1.0, z=1.0), cfg, 1,
            deformations=[raise_effort])
        assert real["passed"]
        assert real["entries"][0]["drop"] == 0.0

    @pytest.mark.parametrize("setting,value,message", [
        ("probes", 1, "probes must be at least 2"),
        ("probes", -2, "probes must be at least 2"),
        ("perturbations", 0, "perturbations must be at least 1"),
        ("tolerance", 0.0, "martingale_tolerance must be positive"),
        ("tolerance", math.nan, "martingale_tolerance must be positive"),
    ])
    def test_vacuous_settings_raise_before_any_batch(
            self, rn_model, rn_solution, rn_policy, monkeypatch, setting,
            value, message):
        runs = []
        monkeypatch.setattr(sim, "simulate_system",
                            lambda *args, **kwargs: runs.append(args))
        cfg = SimConfig(paths=50, dt=1 / 8, seed=3)
        settings = dict(perturbations=2, probes=5, tolerance=0.05)
        settings[setting] = value
        with pytest.raises(ValueError, match=message):
            sim.contract_checks(rn_model, rn_solution, rn_policy, cfg,
                                **settings)
        if setting == "perturbations":
            with pytest.raises(ValueError, match=message):
                incentive_compatibility_check(rn_model, rn_policy, cfg, value)
        else:
            with pytest.raises(ValueError, match=message):
                martingale_sandwich_check(
                    rn_model, rn_solution, rn_policy, cfg,
                    probes=settings["probes"],
                    tolerance=settings["tolerance"])
        assert runs == []


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

    def test_estimate_is_the_target_on_the_engines_finite_paths(
            self, monkeypatch):
        # the demo reads X_T from one engine run of the constant z = 0
        # contract at the principal band's middle
        model = presets.disjoint_beliefs()
        cfg = SimConfig(paths=400, dt=1 / 16, seed=61, x0=0.3)
        runs = []
        real = sim.simulate_system

        def spy(model, policy, nature, cfg, **kwargs):
            runs.append((policy, nature, kwargs))
            res = real(model, policy, nature, cfg, **kwargs)
            assert np.isfinite(res.terminal_x).all()
            return res
        monkeypatch.setattr(sim, "simulate_system", spy)
        est, target = disjoint_beliefs_demo(model, 3.0, cfg, horizon=0.5)
        assert est == Estimate(target, 0.0) and target == 3.0
        [(policy, nature, kwargs)] = runs
        assert nature is None and kwargs == {}
        assert policy.t_grid.tolist() == [0.0, 0.5]
        assert np.all(policy.z == 0.0) and np.all(policy.nature == 0.4)

    def test_quarantine_gate_counts_non_finite_liquidation(self):
        # L(X_T) = +inf leaves U_P(L - pay) = 1 - exp(-inf) = 1 finite, so
        # the engine keeps those paths and only the demo's own 1% gate sees
        # them: 2 of 200 paths pass it, 3 do not
        u_p = lambda x: 1.0 - np.exp(-x)
        model = presets.disjoint_beliefs(utility_principal=u_p)
        cfg = SimConfig(paths=200, dt=1 / 8, seed=59)
        x_t = simulate_system(model, constant_policy(model, 1.0, z=0.0),
                              None, cfg).terminal_x
        top = np.sort(x_t)[::-1]
        for bad in (2, 3, 150):
            cut = 0.5 * (top[bad - 1] + top[bad])
            cut_model = dataclasses.replace(
                model, liquidation_L=lambda x, c=cut: np.where(x > c, np.inf, x))
            if bad <= 0.01 * cfg.paths:
                est, target = disjoint_beliefs_demo(cut_model, 2.0, cfg)
                assert est == Estimate(u_p(2.0), 0.0) == Estimate(target, 0.0)
            else:
                with pytest.raises(RuntimeError, match="above 1%"):
                    disjoint_beliefs_demo(cut_model, 2.0, cfg)

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

    def test_non_finite_squares_are_dropped_as_the_masked_mean_drops_them(
            self, rn_model):
        # under girsanov_mode dX = sigma dW exactly, and sigma = n here, so
        # the test restates every step's squared increments
        policy = constant_policy(rn_model, horizon=0.5, z=1.0)
        cfg = SimConfig(paths=1000, dt=1 / 8, seed=3, girsanov_mode=True)
        steps = cfg.steps_for(0.5)
        rows = np.random.default_rng(3).standard_normal((steps, cfg.paths))
        rows[1, 7], rows[1, 8], rows[2, 9] = np.inf, np.nan, -np.inf
        res = simulate_system(rn_model, policy,
                              NatureStrategy.constant(0.75, 0.5), cfg,
                              increments=rows)
        assert res.quarantined == 3
        dX = 0.75 * (math.sqrt(cfg.dt) * rows)
        want = np.empty(steps)
        for k, sq in enumerate(dX * dX):
            fin = np.isfinite(sq)
            kept = sq if fin.all() else sq[fin]
            want[k] = float(np.mean(kept) / cfg.dt) if kept.size else math.nan
        assert np.isfinite(want).all()
        assert res.realized_qv.tobytes() == want.tobytes()


class TestEngineReference:
    """``simulate_system`` against the engine written out plainly in the
    helpers, bit for bit: the lookup's switch values, the unit discount
    and the payoff parts of a replaced effort change no byte."""

    @pytest.fixture(scope="class")
    def cases(self, rn_model, rn_policy):
        qb = presets.quadratic_bounded(a_grid_points=9, n_grid_points=5)
        qb_policy = extract_contract(solve_hjbi(qb, GridSpec(
            x_lo=-3.0, x_hi=3.0, x_nodes=13, y_lo=-0.5, y_hi=0.5,
            y_nodes=13, t_steps=8, horizon=0.5)))
        tab = presets.custom_tabulated([0.5, 0.75, 1.0], [0.5, 0.9, 1.0],
                                       discount=0.3)
        # a 0-d zero discount rate until mid-horizon, then a positive one
        late = build_model(k=lambda t, x, a, n: 0.0 if t < 0.5 else 0.4 * n)
        return {
            "risk_neutral": (rn_model, rn_policy),
            "quadratic_bounded": (qb, qb_policy),
            "custom_tabulated": (tab, constant_policy(tab, 1.0, z=0.7,
                                                      k_rate=0.1)),
            "late_discount": (late, constant_policy(late, 1.0, z=0.6,
                                                    k_rate=-0.05)),
        }

    @pytest.mark.parametrize("girsanov", [False, True])
    @pytest.mark.parametrize("transform", [False, True])
    @pytest.mark.parametrize("feedback", [True, False])
    @pytest.mark.parametrize("name", ["risk_neutral", "quadratic_bounded",
                                      "custom_tabulated", "late_discount"])
    def test_simulate_is_the_plain_engine_bit_for_bit(
            self, cases, name, feedback, transform, girsanov):
        model, policy = cases[name]
        nature = None if feedback else NatureStrategy.constant(
            model.nature_set_N[1], float(policy.t_grid[-1]))
        deform = (lambda t, X, a: 0.6 * a + 0.05 * np.tanh(X)) \
            if transform else None
        cfg = SimConfig(paths=700, dt=1 / 16, seed=31, x0=0.25, y0=0.1,
                        girsanov_mode=girsanov)
        got = simulate_system(model, policy, nature, cfg,
                              effort_transform=deform)
        want = reference_simulate(model, policy, nature, cfg, deform)
        for key, value in want.items():
            mine = getattr(got, key)
            if isinstance(value, np.ndarray):
                assert mine.tobytes() == value.tobytes(), key
            else:
                assert mine == value, key
        if name in ("custom_tabulated", "late_discount"):
            assert got.discount_bounds[1] < 1.0
        else:
            assert got.discount_bounds == (1.0, 1.0)
