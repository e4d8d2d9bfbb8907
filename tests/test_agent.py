"""Tests for the agent-side backward solver and its quadrature cross-check."""

import math
import tracemalloc

import numpy as np
import pytest

import robustcontract as rc
from robustcontract import agent
from robustcontract.hamiltonians import eval_F, eval_H
from robustcontract.agent import (
    ContractFunction,
    inf_of_bsdes,
    linear_bsde_value,
    participation_check,
    solve_agent,
)
from helpers import (build_model, central_differences, oracle_saddle_step,
                     polynomial_with_candidate, random_polynomial_model,
                     reference_solve_agent)


# observed refinement order of the agent scheme on the call-payoff heat
# problem; the explicit scheme is second order in dx at fixed cfl
MIN_AGENT_ORDER = 1.8


def square_contract():
    return ContractFunction(lambda x: x * x)


def nan_call():
    """The call payoff at strike 0, NaN on (0.4, 0.6)."""
    return ContractFunction(
        lambda x: np.where(np.abs(x - 0.5) < 0.1, np.nan, np.maximum(x, 0.0)))


class TestContractFunction:
    def test_linear_preset(self):
        f = ContractFunction.from_preset("linear:2,1")
        assert f.payment(3.0) == 7.0

    def test_linear_preset_single_arg(self):
        f = ContractFunction.from_preset("linear:0.5")
        assert f.payment(4.0) == 2.0

    def test_call_preset(self):
        f = ContractFunction.from_preset("call:1.5")
        assert f.payment(1.0) == 0.0 and f.payment(2.5) == 1.0

    def test_tabulated_preset(self, tmp_path):
        path = tmp_path / "pay.txt"
        np.savetxt(path, np.column_stack([[-1.0, 0.0, 1.0], [0.0, 1.0, 4.0]]))
        f = ContractFunction.from_preset(f"tabulated:{path}")
        assert f.payment(0.5) == pytest.approx(2.5)

    def test_tabulated_rejects_unsorted(self, tmp_path):
        path = tmp_path / "bad.txt"
        np.savetxt(path, np.column_stack([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="increasing"):
            ContractFunction.from_preset(f"tabulated:{path}")

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown"):
            ContractFunction.from_preset("exotic:1")


class TestSolveAgent:
    def test_stability_bound_rejected(self):
        m = rc.make_model("heat_band")
        with pytest.raises(ValueError, match="stability"):
            solve_agent(m, square_contract(), x_lo=-1, x_hi=1, x_nodes=201,
                        t_steps=10, horizon=1.0)

    def test_input_validation(self):
        m = rc.make_model("heat_band")
        with pytest.raises(ValueError):
            solve_agent(m, square_contract(), x_lo=-1, x_hi=1, x_nodes=2,
                        t_steps=10, horizon=1.0)
        with pytest.raises(ValueError):
            solve_agent(m, square_contract(), x_lo=1, x_hi=-1, x_nodes=11,
                        t_steps=10, horizon=1.0)
        with pytest.raises(ValueError):
            solve_agent(m, square_contract(), x_lo=-1, x_hi=1, x_nodes=11,
                        t_steps=10, horizon=-1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["x_lo", "x_hi", "horizon"])
    def test_a_non_finite_bound_or_horizon_is_refused(self, name, value):
        grid = dict(x_lo=-1.0, x_hi=1.0, x_nodes=11, t_steps=10, horizon=1.0)
        grid[name] = value
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite, got {value}$"):
            agent.agent_grids(**grid)

    def test_a_nan_stability_number_is_refused(self, monkeypatch):
        monkeypatch.setattr(agent.numerics, "max_sigma_sq",
                            lambda *args: math.nan)
        with pytest.raises(ValueError, match="stability bound violated: "
                                             r"dt\*max\(sigma\^2\)/dx\^2 = nan"):
            solve_agent(rc.make_model("heat_band"), square_contract(),
                        x_lo=-1, x_hi=1, x_nodes=11, t_steps=10, horizon=1.0)

    @pytest.mark.parametrize("contract, count, first", [
        (nan_call, 2, "x=0.40000000000000036: nan"),
        (lambda: ContractFunction(lambda x: np.where(x > 1.5, np.inf, x)),
         5, "x=1.6: inf")], ids=["nan", "inf"])
    def test_non_finite_terminal_row_is_refused_before_the_march(
            self, monkeypatch, contract, count, first):
        def no_step(*args):
            raise AssertionError("the march stepped from a bad terminal row")

        monkeypatch.setattr(agent, "_saddle_step", no_step)
        want = (f"terminal value is not finite at {count} of 41 nodes, "
                f"first at {first}")
        with pytest.raises(ValueError, match=want):
            solve_agent(rc.make_model("heat_band"), contract(), x_lo=-2.0,
                        x_hi=2.0, x_nodes=41, t_steps=50, horizon=1.0)

    def test_terminal_row_is_utility_of_payment(self):
        m = rc.make_model("quadratic_bounded")
        sol = solve_agent(m, ContractFunction.from_preset("linear:1,0"),
                          x_lo=-2, x_hi=2, x_nodes=21, t_steps=40, horizon=0.5)
        want = [m.utility_agent(x) for x in sol.x_grid]
        np.testing.assert_allclose(sol.values[-1], want, atol=1e-14)

    def test_worst_case_heat_equation(self):
        # convex terminal data: the adversary damps the diffusion to the
        # bottom of the band and the value is an explicit heat profile
        m = rc.make_model("heat_band")
        sol = solve_agent(m, square_contract(), x_lo=-4, x_hi=4, x_nodes=101,
                          t_steps=100, horizon=1.0)
        tt, xx = np.meshgrid(sol.t_grid, sol.x_grid, indexing="ij")
        exact = xx ** 2 + 0.2 ** 2 * (1.0 - tt)
        rel = np.abs(sol.values - exact) / np.maximum(1.0, np.abs(exact))
        assert float(rel.max()) <= 0.02
        assert np.all(sol.nature[:-1] == 0.2)

    def test_linear_drift_model_exact_on_linear_data(self):
        # value x + (reward at full effort) * time-to-go; the scheme is a
        # convex combination that reproduces affine profiles to roundoff
        m = rc.make_model("risk_neutral")
        sol = solve_agent(m, ContractFunction.from_preset("linear:1,0"),
                          x_lo=-2, x_hi=2, x_nodes=41, t_steps=100, horizon=1.0)
        tt, xx = np.meshgrid(sol.t_grid, sol.x_grid, indexing="ij")
        exact = xx + 0.5 * (1.0 - tt)
        np.testing.assert_allclose(sol.values, exact, atol=1e-10)
        np.testing.assert_allclose(sol.effort[:-1], 1.0, atol=1e-12)

    def test_value_interpolation_between_nodes(self):
        m = rc.make_model("risk_neutral")
        sol = solve_agent(m, ContractFunction.from_preset("linear:1,0"),
                          x_lo=-2, x_hi=2, x_nodes=41, t_steps=100, horizon=1.0)
        assert sol.value(0.25, 0.13) == pytest.approx(0.13 + 0.5 * 0.75, abs=1e-9)

    def test_traced_peak_is_the_outputs_and_row_buffers(self):
        # the march keeps no (t, x) temporary: beyond the three output
        # arrays it holds per-row buffers and the time list, well under
        # 1 MiB, while one more (t, x) array here is 5.1 MB
        m = rc.make_model("heat_band")
        grid = dict(x_lo=-4.0, x_hi=4.0, x_nodes=401, t_steps=1600,
                    horizon=1.0)
        solve_agent(m, square_contract(), **dict(grid, x_nodes=41))
        tracemalloc.start()
        try:
            sol = solve_agent(m, square_contract(), **grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sol.values.nbytes + sol.effort.nbytes + sol.nature.nbytes
        assert peak < outputs + 2**20, (peak, outputs)

    def test_metadata_envelope(self):
        m = rc.make_model("heat_band")
        sol = solve_agent(m, square_contract(), x_lo=-2, x_hi=2, x_nodes=41,
                          t_steps=50, horizon=1.0)
        assert sol.max_abs_value >= 4.0
        assert sol.cfl_number <= 1.0


class TestConvergence:
    def test_call_payoff_refinement_order(self):
        # call payoff is convex, so the adversary pins sigma to the bottom of
        # the band and V(0, x) is the Bachelier price with s = 0.2 sqrt(T);
        # halving dx and quartering dt (fixed cfl) must cut the error about 4x
        m = rc.make_model("heat_band", band=(0.2, 0.4))
        contract = ContractFunction.from_preset("call:0")
        s = 0.2
        errors = []
        for x_nodes, t_steps in ((101, 50), (201, 200), (401, 800)):
            sol = solve_agent(m, contract, x_lo=-4.0, x_hi=4.0,
                              x_nodes=x_nodes, t_steps=t_steps, horizon=1.0)
            inside = np.abs(sol.x_grid) <= 2.0
            xs = sol.x_grid[inside]
            exact = np.array([x * 0.5 * (1.0 + math.erf(x / s / math.sqrt(2.0)))
                              + s * math.exp(-0.5 * (x / s) ** 2)
                              / math.sqrt(2.0 * math.pi) for x in xs])
            errors.append(float(np.max(np.abs(sol.values[0][inside] - exact))))
        orders = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
        assert min(orders) >= MIN_AGENT_ORDER, f"errors {errors}, orders {orders}"


class TestSaddleStep:
    @pytest.mark.parametrize("kind", ["quadratic_bounded", "random_polynomial"])
    def test_matches_pointwise_evaluator(self, kind):
        if kind == "quadratic_bounded":
            m = rc.make_model("quadratic_bounded")
            xs = np.linspace(-3.5, 3.5, 29)
        else:
            m = random_polynomial_model(np.random.default_rng(3))
            xs = np.linspace(-2.0, 2.0, 29)
        t = 0.3
        v = np.sin(xs) + 0.3 * xs ** 2
        z, gam = central_differences(v, xs[1] - xs[0])
        step = agent._saddle_step(m, t, xs, v, z, gam,
                                  agent._control_grids(m, xs.size))
        # a coefficient the model holds constant comes back 0-d
        a_star, n_star, sig2, b, k, c = (np.broadcast_to(r, xs.shape)
                                         for r in step)
        for i, x in enumerate(xs):
            ref = eval_H(m, t, float(x), float(v[i]), float(z[i]),
                         float(gam[i]))
            assert (a_star[i], n_star[i]) == (ref.arg_a, ref.arg_n)
            got = 0.5 * sig2[i] * gam[i] - k[i] * v[i] - c[i] + b[i] * z[i]
            assert abs(got - ref.value) <= 1e-12


    @pytest.mark.parametrize("kind", ["heat_band", "quadratic_bounded",
                                      "risk_neutral", "poly3", "poly8",
                                      "poly11"])
    def test_matches_the_full_tensor_oracle_bit_for_bit(self, kind):
        if kind.startswith("poly"):
            m = random_polynomial_model(np.random.default_rng(int(kind[4:])))
            assert not m.payoff_free_of_nature
        else:
            m = rc.make_model(kind)
        t = 0.3
        xs = np.linspace(-3.5, 3.5, 41)
        v = np.sin(xs) + 0.3 * xs ** 2
        v[[3, 10]] = np.nan
        v[[5, 6]] = -0.0
        z, gam = central_differences(v, xs[1] - xs[0])
        z[[20, 21]] = -0.0
        gam[22] = -0.0
        # the payoff holds NaN and -0.0 entries: heat_band's running
        # reward is -0.0 wherever v > 0 and z < 0
        if kind == "heat_band":
            assert np.isnan(eval_F(m, t, xs[3], v[3], z[3], 0.0, 0.3))
            pay = eval_F(m, t, xs[0], v[0], z[0], 0.0, 0.3)
            assert pay == 0.0 and math.copysign(1.0, pay) < 0.0
        got = agent._saddle_step(m, t, xs, v, z, gam,
                                 agent._control_grids(m, xs.size))
        want = oracle_saddle_step(m, t, xs, v, z, gam)
        for g, w in zip(got, want):
            assert np.broadcast_to(g, xs.shape).tobytes() == w.tobytes()


# (model, contract, grid) of each reference-march case; the grids keep
# every case within the stability bound
MARCHES = {
    "heat_band": (lambda: rc.make_model("heat_band"),
                  lambda: ContractFunction.from_preset("call:0"),
                  (-4.0, 4.0, 81, 100, 1.0)),
    "quadratic_bounded": (lambda: rc.make_model("quadratic_bounded"),
                          lambda: ContractFunction.from_preset("linear:1,0"),
                          (-4.0, 4.0, 81, 200, 1.0)),
    "custom_tabulated": (lambda: rc.make_model(
        "custom_tabulated", n_values=[0.2, 0.3, 0.5],
        sigma_values=[0.2, 0.5, 0.4], discount=0.3),
        lambda: ContractFunction.from_preset("call:0.5"),
        (-3.0, 3.0, 61, 200, 1.0)),
    "disjoint_beliefs": (lambda: rc.make_model("disjoint_beliefs"),
                         lambda: ContractFunction.from_preset("call:0"),
                         (-3.0, 3.0, 61, 200, 1.0)),
    "zero_vol": (lambda: rc.make_model("zero_vol"),
                 lambda: ContractFunction.from_preset("call:0"),
                 (-3.0, 3.0, 61, 50, 1.0)),
    # the payoff reads nature, so each nature control has its own effort
    "random_polynomial": (
        lambda: random_polynomial_model(np.random.default_rng(8)),
        lambda: ContractFunction(np.sin),
        (-2.0, 2.0, 41, 200, 0.5)),
    "polynomial_with_candidate": (
        polynomial_with_candidate,
        lambda: ContractFunction(np.sin),
        (-2.0, 2.0, 41, 200, 0.25)),
    # sigma ignores nature, so the saddle's nature stack has no nature
    # axis; its smallest entry lies at the middle node, not the first
    "vol_free_of_nature": (
        lambda: build_model(sigma=lambda t, x, n: 0.5 - 0.05 * x * x),
        lambda: ContractFunction(lambda x: -x * x),
        (-2.0, 2.0, 41, 100, 1.0)),
    # a surface of signed zeros, whose largest |v| is +0.0
    "signed_zero_payment": (
        lambda: rc.make_model("heat_band"),
        lambda: ContractFunction(lambda x: -0.0 * np.abs(x)),
        (-2.0, 2.0, 41, 50, 1.0)),
}


def march(name, solver):
    make, contract, (x_lo, x_hi, x_nodes, t_steps, horizon) = MARCHES[name]
    return solver(make(), contract(), x_lo=x_lo, x_hi=x_hi, x_nodes=x_nodes,
                  t_steps=t_steps, horizon=horizon)


class TestReferenceMarch:
    """``solve_agent`` against the plain march of ``reference_solve_agent``,
    byte for byte."""

    @pytest.mark.parametrize("name", sorted(MARCHES))
    def test_matches_the_plain_march_bit_for_bit(self, name):
        got = march(name, solve_agent)
        want = march(name, reference_solve_agent)
        for field in ("t_grid", "x_grid", "values", "effort", "nature",
                      "cfl_number", "max_abs_value", "max_abs_gradient"):
            assert (np.asarray(getattr(got, field)).tobytes()
                    == np.asarray(getattr(want, field)).tobytes()), field
        if name == "vol_free_of_nature":
            assert np.all(got.nature == got.nature[0, 0])


class TestQuadratureRoute:
    def test_frozen_control_heat_value(self):
        m = rc.make_model("heat_band")
        xs = np.linspace(-2, 2, 9)
        got = linear_bsde_value(m, square_contract(), 0.3, 0.0, xs, 1.0)
        np.testing.assert_allclose(got, xs ** 2 + 0.09, atol=1e-9)

    def test_infimum_picks_band_bottom_for_convex_data(self):
        m = rc.make_model("heat_band")
        xs = np.linspace(-2, 2, 9)
        got = inf_of_bsdes(m, square_contract(), 0.0, xs, 1.0)
        np.testing.assert_allclose(got, xs ** 2 + 0.04, atol=1e-9)

    def test_infimum_picks_band_top_for_concave_data(self):
        m = rc.make_model("heat_band")
        contract = ContractFunction(lambda x: -x * x)
        got = inf_of_bsdes(m, contract, 0.0, 0.0, 1.0)
        assert got == pytest.approx(-0.16, abs=1e-9)

    def test_scalar_input_returns_float(self):
        m = rc.make_model("heat_band")
        got = inf_of_bsdes(m, square_contract(), 0.5, 1.0, 1.0)
        assert isinstance(got, float)
        assert got == pytest.approx(1.0 + 0.04 * 0.5, abs=1e-9)

    def test_pde_and_quadrature_agree(self):
        m = rc.make_model("heat_band")
        sol = solve_agent(m, square_contract(), x_lo=-4, x_hi=4, x_nodes=101,
                          t_steps=100, horizon=1.0)
        xs = sol.x_grid[25:76]  # central half, away from the walls
        pde = sol.values[0][25:76]
        quad = inf_of_bsdes(m, square_contract(), 0.0, xs, 1.0)
        rel = np.abs(pde - quad) / np.maximum(1.0, np.abs(quad))
        assert float(rel.max()) <= 0.02

    def test_refuses_drifted_models(self):
        m = rc.make_model("risk_neutral")
        with pytest.raises(ValueError, match="zero drift"):
            inf_of_bsdes(m, square_contract(), 0.0, 0.0, 1.0)


class TestParticipation:
    def test_accepts_generous_contract(self):
        m = rc.make_model("heat_band")
        sol = solve_agent(m, square_contract(), x_lo=-2, x_hi=2, x_nodes=41,
                          t_steps=50, horizon=1.0)
        ok, margin = participation_check(sol, 1.0, reservation=0.5)
        assert ok and margin > 0

    def test_rejects_greedy_reservation(self):
        m = rc.make_model("heat_band")
        sol = solve_agent(m, square_contract(), x_lo=-2, x_hi=2, x_nodes=41,
                          t_steps=50, horizon=1.0)
        ok, margin = participation_check(sol, 0.0, reservation=10.0)
        assert not ok and margin < 0
