"""Tests for the principal-side HJBI solver, policy extraction and checks."""

import dataclasses

import numpy as np
import pytest

import robustcontract as rc
from robustcontract.principal import (
    CandidateFunction,
    ContractPolicy,
    GridSpec,
    extract_contract,
    optimize_y0,
    perron_sandwich_check,
    probe_monotonicity,
    solve_hjbi,
)


def small_grid(**kw):
    base = dict(x_lo=-4.0, x_hi=4.0, x_nodes=21, y_lo=-4.0, y_hi=4.0,
                y_nodes=21, t_steps=16, horizon=0.5)
    base.update(kw)
    return GridSpec(**base)


def affine_error(sol):
    tt = sol.t_grid[:, None, None]
    xx = sol.x_grid[None, :, None]
    yy = sol.y_grid[None, None, :]
    horizon = sol.t_grid[-1]
    exact = xx - yy + 0.5 * (horizon - tt)
    return float(np.abs(sol.values - exact).max())


class TestGridSpec:
    def test_spacings(self):
        g = small_grid()
        assert g.dx == pytest.approx(0.4)
        assert g.dy == pytest.approx(0.4)
        assert g.dt == pytest.approx(0.5 / 16)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            small_grid(x_nodes=2)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            small_grid(y_lo=1.0, y_hi=-1.0)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            small_grid(t_steps=-1)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            small_grid(horizon=0.0)

    def test_zero_steps_allowed(self):
        g = small_grid(t_steps=0)
        assert g.dt == 0.0
        assert len(g.t_grid()) == 1


class TestSolveHjbi:
    def test_affine_family_solved_exactly(self):
        m = rc.make_model("risk_neutral")
        sol = solve_hjbi(m, small_grid())
        assert affine_error(sol) <= 1e-12

    def test_recovered_controls(self):
        m = rc.make_model("risk_neutral")
        sol = solve_hjbi(m, small_grid())
        np.testing.assert_allclose(sol.z[:-1], 1.0, atol=1e-12)
        np.testing.assert_allclose(sol.gamma[:-1], 0.0, atol=1e-12)
        np.testing.assert_allclose(sol.effort[:-1], 1.0, atol=1e-12)
        np.testing.assert_allclose(sol.nature[:-1], 0.5, atol=0)
        np.testing.assert_allclose(sol.k_rate, 0.0, atol=1e-12)

    def test_substepping_preserves_exactness(self):
        m = rc.make_model("risk_neutral")
        g = small_grid(x_nodes=81, y_nodes=81, t_steps=2)
        sol = solve_hjbi(m, g)
        assert affine_error(sol) <= 1e-12
        assert sol.diagnostics["substeps_max"] > 1

    def test_zero_time_steps_returns_terminal(self):
        m = rc.make_model("risk_neutral")
        sol = solve_hjbi(m, small_grid(t_steps=0))
        xx = sol.x_grid[:, None]
        yy = sol.y_grid[None, :]
        np.testing.assert_allclose(sol.values[0], xx - yy, atol=1e-14)
        np.testing.assert_allclose(sol.z[0], 1.0, atol=1e-12)

    def test_trilinear_value_lookup(self):
        m = rc.make_model("risk_neutral")
        sol = solve_hjbi(m, small_grid())
        got = sol.value(0.21, 0.33, -0.47)
        assert got == pytest.approx(0.33 + 0.47 + 0.5 * (0.5 - 0.21), abs=1e-9)

    def test_rejects_bad_cfl_safety(self):
        m = rc.make_model("risk_neutral")
        with pytest.raises(ValueError):
            solve_hjbi(m, small_grid(), cfl_safety=0.0)

    def test_saturating_utility_model_runs(self):
        m = rc.make_model("quadratic_bounded", n_grid_points=3,
                          z_grid_points=7, gamma_grid_points=7,
                          a_grid_points=7)
        g = GridSpec(x_lo=-3, x_hi=3, x_nodes=13, y_lo=-0.5, y_hi=0.5,
                     y_nodes=13, t_steps=8, horizon=0.5)
        sol = solve_hjbi(m, g)
        assert np.isfinite(sol.values).all()
        assert sol.diagnostics["substeps_max"] >= 1
        assert sol.diagnostics["radius_max"] < 16.0
        # terminal reward: output minus the wage that delivers utility y
        want = 3.0 - (4.0 / np.pi) * np.arcsin(0.5)
        assert sol.values[-1, -1, -1] == pytest.approx(want, abs=1e-12)

    def test_k_rate_nonnegative(self):
        m = rc.make_model("quadratic_bounded", n_grid_points=3,
                          z_grid_points=5, gamma_grid_points=5,
                          a_grid_points=5)
        g = GridSpec(x_lo=-2, x_hi=2, x_nodes=9, y_lo=-0.4, y_hi=0.4,
                     y_nodes=9, t_steps=4, horizon=0.25)
        sol = solve_hjbi(m, g)
        assert float(sol.k_rate.min()) >= 0.0


class TestMonotonicityProbe:
    def test_unit_aspect_grid_is_monotone(self):
        m = rc.make_model("risk_neutral")
        rep = probe_monotonicity(m, small_grid())
        assert rep["min_neighbor_weight"] >= -1e-12
        assert rep["min_center_weight"] > 0.0
        assert rep["clipped_cross_mass"] <= 1e-12

    def test_quadratic_model_reports_clip(self):
        m = rc.make_model("quadratic_bounded", n_grid_points=3,
                          z_grid_points=5, gamma_grid_points=5,
                          a_grid_points=5)
        g = GridSpec(x_lo=-2, x_hi=2, x_nodes=9, y_lo=-0.4, y_hi=0.4,
                     y_nodes=9, t_steps=4, horizon=0.25)
        rep = probe_monotonicity(m, g)
        assert rep["min_neighbor_weight"] >= -1e-12


@pytest.fixture(scope="module")
def solution():
    m = rc.make_model("risk_neutral")
    return solve_hjbi(m, small_grid())


class TestOptimizeY0:

    def test_reservation_binds_for_decreasing_value(self, solution):
        res = optimize_y0(solution, 0.0, reservation=0.3)
        assert res.y0 == pytest.approx(0.4)  # first grid point above 0.3
        assert res.value == pytest.approx(0.0 - 0.4 + 0.25, abs=1e-9)
        assert not res.at_upper_edge

    def test_unconstrained_pushes_to_lowest_promise(self, solution):
        res = optimize_y0(solution, 1.0)
        assert res.y0 == solution.y_grid[0]

    def test_no_admissible_promise(self, solution):
        with pytest.raises(ValueError, match="admissible"):
            optimize_y0(solution, 0.0, reservation=100.0)

    def test_nan_value_row_raises(self, solution):
        values = solution.values.copy()
        values[0] = np.nan
        broken = dataclasses.replace(solution, values=values)
        with pytest.raises(RuntimeError, match="maximizer"):
            optimize_y0(broken, 0.0)

    def test_exact_grid_reservation(self, solution):
        res = optimize_y0(solution, 0.0, reservation=-0.4)
        assert res.y0 == pytest.approx(-0.4)


class TestContractPolicy:
    def test_gather_returns_saddle_fields(self):
        m = rc.make_model("risk_neutral")
        sol = solve_hjbi(m, small_grid())
        pol = extract_contract(sol)
        out = pol.gather(0.1, np.array([0.0, 1.0]), np.array([0.3, -0.2]))
        np.testing.assert_allclose(out["z"], 1.0, atol=1e-12)
        np.testing.assert_allclose(out["effort"], 1.0, atol=1e-12)
        np.testing.assert_allclose(out["nature"], 0.5)
        np.testing.assert_allclose(out["k_rate"], 0.0, atol=1e-12)
        np.testing.assert_allclose(out["fstar"], 0.5, atol=1e-12)

    def test_slice_index_clipping(self):
        m = rc.make_model("risk_neutral")
        sol = solve_hjbi(m, small_grid())
        pol = extract_contract(sol)
        assert pol.slice_index(-1.0) == 0
        assert pol.slice_index(10.0) == len(pol.t_grid) - 2

    def test_nearest_node_lookup_off_grid(self):
        m = rc.make_model("risk_neutral")
        sol = solve_hjbi(m, small_grid())
        pol = extract_contract(sol)
        out = pol.gather(0.0, np.array([0.19]), np.array([0.0]))
        assert out["z"].shape == (1,)

    def test_field_subset_matches_full_gather(self):
        rng = np.random.default_rng(3)
        names = ("z", "gamma", "effort", "nature", "k_rate", "fstar")
        pol = ContractPolicy(
            t_grid=np.linspace(0.0, 0.5, 3), x_grid=np.linspace(-2.0, 2.0, 9),
            y_grid=np.linspace(-1.0, 2.0, 7),
            **{name: rng.standard_normal((3, 9, 7)) for name in names})

        def probes(g):
            # nodes, exact cell midpoints, outside the box, +-inf and NaN
            return np.concatenate([g, 0.5 * (g[1:] + g[:-1]),
                                   [g[0] - 1.0, g[-1] + 1.0,
                                    -np.inf, np.inf, np.nan]])

        X, Y = (a.ravel() for a in np.meshgrid(
            probes(pol.x_grid), probes(pol.y_grid), indexing="ij"))
        subset = ("z", "k_rate", "nature")
        for t in (0.0, 0.3, 0.5):
            full = pol.gather(t, X, Y)
            sub = pol.gather(t, X, Y, fields=subset)
            assert list(sub) == list(subset)
            for name in subset:
                assert np.array_equal(sub[name], full[name], equal_nan=True)
            # the nearest-node rule written out with 2-D indexing
            step = pol.slice_index(t)
            xi = np.clip(np.searchsorted(pol.x_grid, X - 0.25), 0, 8)
            yi = np.clip(np.searchsorted(pol.y_grid, Y - 0.25), 0, 6)
            for name in names:
                assert np.array_equal(full[name],
                                      getattr(pol, name)[step][xi, yi])


class TestPerronSandwich:
    def test_closed_form_is_a_solution(self):
        m = rc.make_model("risk_neutral")
        horizon = 1.0
        cand = CandidateFunction(
            value=lambda t, x, y: x - y + 0.5 * (horizon - t),
            dt=lambda t, x, y: -0.5,
            dx=lambda t, x, y: 1.0,
            dy=lambda t, x, y: -1.0,
            dxx=lambda t, x, y: 0.0,
            dyy=lambda t, x, y: 0.0,
            dxy=lambda t, x, y: 0.0,
        )
        rep = perron_sandwich_check(m, cand, horizon=horizon,
                                    x_range=(-2, 2), y_range=(-2, 2),
                                    t_samples=3, x_samples=5, y_samples=5)
        assert rep["max_abs_residual"] <= 1e-9
        assert rep["terminal_defect"] <= 1e-12

    def test_strict_subsolution_flagged_one_sided(self):
        m = rc.make_model("risk_neutral")
        cand = CandidateFunction(
            value=lambda t, x, y: x - y,
            dt=lambda t, x, y: 0.0,
            dx=lambda t, x, y: 1.0,
            dy=lambda t, x, y: -1.0,
            dxx=lambda t, x, y: 0.0,
            dyy=lambda t, x, y: 0.0,
            dxy=lambda t, x, y: 0.0,
        )
        rep = perron_sandwich_check(m, cand, horizon=1.0,
                                    x_range=(-2, 2), y_range=(-2, 2),
                                    t_samples=3, x_samples=5, y_samples=5)
        assert rep["sub_defect"] <= 1e-12
        assert rep["super_defect"] == pytest.approx(0.5, abs=1e-9)
        assert rep["terminal_defect"] <= 1e-12
