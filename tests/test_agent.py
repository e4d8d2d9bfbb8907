"""Tests for the agent-side backward solver and its quadrature cross-check."""

import math

import numpy as np
import pytest

import robustcontract as rc
from robustcontract import agent, numerics
from robustcontract.hamiltonians import eval_H
from robustcontract.agent import (
    AgentSolution,
    ContractFunction,
    inf_of_bsdes,
    linear_bsde_value,
    participation_check,
    solve_agent,
)
from helpers import random_polynomial_model


# observed refinement order of the agent scheme on the call-payoff heat
# problem; the explicit scheme is second order in dx at fixed cfl
MIN_AGENT_ORDER = 1.8


def square_contract():
    return ContractFunction(lambda x: x * x, label="square")


class TestContractFunction:
    def test_linear_preset(self):
        f = ContractFunction.from_preset("linear:2,1")
        assert f(3.0) == 7.0

    def test_linear_preset_single_arg(self):
        f = ContractFunction.from_preset("linear:0.5")
        assert f(4.0) == 2.0

    def test_call_preset(self):
        f = ContractFunction.from_preset("call:1.5")
        assert f(1.0) == 0.0 and f(2.5) == 1.0

    def test_tabulated_preset(self, tmp_path):
        path = tmp_path / "pay.txt"
        np.savetxt(path, np.column_stack([[-1.0, 0.0, 1.0], [0.0, 1.0, 4.0]]))
        f = ContractFunction.from_preset(f"tabulated:{path}")
        assert f(0.5) == pytest.approx(2.5)

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

    def test_policy_lookup(self):
        m = rc.make_model("heat_band")
        sol = solve_agent(m, square_contract(), x_lo=-2, x_hi=2, x_nodes=41,
                          t_steps=50, horizon=1.0)
        a, n = sol.policy(0.0, 1.0)
        assert n == 0.2

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
        z, gam = numerics.central_differences(v, xs[1] - xs[0])
        a_star, n_star, sig2, b, k, c = agent._saddle_step(m, t, xs, v, z, gam)
        for i, x in enumerate(xs):
            ref = eval_H(m, t, float(x), float(v[i]), float(z[i]),
                         float(gam[i]))
            assert (a_star[i], n_star[i]) == (ref.arg_a, ref.arg_n)
            got = 0.5 * sig2[i] * gam[i] - k[i] * v[i] - c[i] + b[i] * z[i]
            assert abs(got - ref.value) <= 1e-12


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
        contract = ContractFunction(lambda x: -x * x, label="cap")
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
