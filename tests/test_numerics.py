"""Tests for the shared grid utilities."""

import numpy as np
import pytest

from robustcontract import (agent, eval_F, hamiltonians, numerics, presets,
                            principal)
from helpers import (SEARCH_GRIDS, build_model, polynomial_with_candidate,
                     random_polynomial_model, search_probes)


T_GRID = np.linspace(0.0, 0.5, 5)
X_GRID = np.linspace(-1.0, 2.0, 7)
Y_GRID = np.linspace(-3.0, 1.0, 9)


def affine(t, x, y):
    return 0.25 + 1.5 * t - 0.75 * x + 2.0 * y


def affine_surface(t_grid=T_GRID):
    tt, xx, yy = np.meshgrid(t_grid, X_GRID, Y_GRID, indexing="ij")
    return affine(tt, xx, yy)


def lookup(t, x, y, t_grid=T_GRID):
    return numerics.surface_value(t_grid, X_GRID, Y_GRID,
                                  affine_surface(t_grid), t, x, y)


def scalar_drift(t, x, a, n):
    return a if n > 1.5 else 0.5 * a


def where_drift(t, x, a, n):
    return np.where(n > 1.5, a, 0.5 * a)


class TestField:
    X = np.linspace(-1.0, 1.0, 7)
    A = np.linspace(0.0, 1.0, 4)[None, :, None]
    N = np.array([1.0, 1.25, 2.0])[:, None, None]

    def test_output_keeps_the_primitive_shape(self):
        X, A, N = self.X, self.A, self.N
        full = numerics.field(lambda t, x, a, n: a * n + x, 0.0, X, A, N)
        assert full.shape == (3, 4, 7)
        assert full.tobytes() == (A * N + X).tobytes()
        # a result omits the axes its primitive ignores and still
        # broadcasts to the full shape
        free_of_x = numerics.field(lambda t, x, a, n: a * n, 0.0, X, A, N)
        assert free_of_x.shape == (3, 4, 1)
        assert free_of_x.tobytes() == (A * N).tobytes()
        free_of_n = numerics.field(lambda t, x, a, n: a + x, 0.0, X, A, N)
        assert free_of_n.shape == (1, 4, 7)
        const = numerics.field(lambda t, x, a, n: 0.25, 0.0, X, A, N)
        assert const.shape == () and const == 0.25
        for got in (free_of_x, free_of_n, const):
            assert np.broadcast_shapes(got.shape, (3, 4, 7)) == (3, 4, 7)
        assert numerics.field(lambda t, x: 2.0, 0.0, 0.5).shape == ()

    def test_scalar_only_coefficient_goes_through_the_loop(self):
        X, A, N = self.X, self.A, self.N
        with pytest.raises(ValueError):
            scalar_drift(0.0, X, A, N)
        kw = dict(a_points=3, n_points=3, z_points=5, gamma_points=5)
        loop_model = build_model(b=scalar_drift, **kw)
        twin = build_model(b=where_drift, **kw)
        looped = numerics.field(loop_model.drift_b, 0.0, X, A, N)
        assert looped.shape == (3, 4, 7)
        assert looped.tobytes() == np.broadcast_to(
            numerics.field(where_drift, 0.0, X, A, N), (3, 4, 7)).tobytes()

        agent_grid = dict(x_lo=-2.0, x_hi=2.0, x_nodes=21, t_steps=30,
                          horizon=0.25)
        contract = agent.ContractFunction.from_preset("linear:1,0")
        got = agent.solve_agent(loop_model, contract, **agent_grid)
        want = agent.solve_agent(twin, contract, **agent_grid)
        for name in ("values", "effort", "nature"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        grid = principal.GridSpec(x_lo=-1.0, x_hi=1.0, x_nodes=7, y_lo=-1.0,
                                  y_hi=1.0, y_nodes=7, t_steps=2, horizon=0.05)
        got = principal.solve_hjbi(loop_model, grid)
        want = principal.solve_hjbi(twin, grid)
        for name in ("values", "z", "gamma", "effort", "nature", "k_rate",
                     "fstar"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.diagnostics == want.diagnostics


KERNEL_MODELS = {
    "quadratic_bounded": lambda: presets.quadratic_bounded(
        a_grid_points=9, n_grid_points=5),
    "risk_neutral": lambda: presets.risk_neutral(a_grid_points=9,
                                                 n_grid_points=5),
    # the only preset with a nonzero discount
    "custom_tabulated": lambda: presets.custom_tabulated(
        [0.5, 0.75, 1.0], [0.5, 0.9, 1.0], discount=0.3),
    # discount k0 + k1*a*n depends on both controls
    "polynomial": lambda: random_polynomial_model(np.random.default_rng(8)),
    "polynomial_candidate": polynomial_with_candidate,
    "scalar_drift": lambda: build_model(b=scalar_drift, a_points=5,
                                        n_points=4),
}


class TestEffortKernel:
    T = 0.25

    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    def test_enumeration_and_payoff_match_the_pointwise_evaluator(self, name):
        model = KERNEL_MODELS[name]()
        if name == "scalar_drift":
            assert model.drift_b is not scalar_drift
        rng = np.random.default_rng(12)
        X = rng.uniform(-2.5, 2.5, size=16)
        Y = rng.uniform(-1.0, 1.0, size=16)
        Z = rng.uniform(-2.0, 2.0, size=16)
        n_grid, a_grid = model.n_grid(), model.a_grid()
        sig = numerics.field(model.vol_sigma, self.T, X, n_grid[:, None])
        cand = numerics.clamped_candidate(model, self.T, X, Z, sig)
        assert (cand is None) == (model.candidate_effort is None)
        A = numerics.effort_rows(cand, a_grid[:, None], len(a_grid))
        base, b, k, c = numerics.effort_payoff(model, self.T, X, Y, A,
                                               n_grid[:, None, None])
        again = numerics.effort_payoff(model, self.T, X, Y, A,
                                       n_grid[:, None, None], c)
        assert again[0].tobytes() == base.tobytes()
        # the kernel's shapes broadcast to the full tensor
        full = (len(n_grid), len(a_grid) + (cand is not None), len(X))
        F = np.broadcast_to(base + b * Z, full)
        A = np.broadcast_to(A, full)
        sig = np.broadcast_to(sig, full[::2])
        for j, n in enumerate(n_grid):
            for i in range(len(X)):
                efforts = hamiltonians._effort_enumeration(
                    model, self.T, float(X[i]), float(Z[i]), float(sig[j, i]))
                assert A[j, :, i].tolist() == efforts
                for e, a in enumerate(efforts):
                    assert F[j, e, i] == eval_F(model, self.T, float(X[i]),
                                                float(Y[i]), float(Z[i]), a,
                                                float(n))


class TestTieBreak:
    """``first_argmax`` and ``first_argmin`` along any axis: the earliest
    index within ``TIE_TOL`` of the optimum, found by a loop, and the
    optimum itself, a NumPy scalar for a 1-D stack as ``np.max`` gives."""

    @pytest.mark.parametrize("axis", [0, 1, -1, -3])
    def test_earliest_within_the_tolerance(self, axis):
        rng = np.random.default_rng(31)
        stack = rng.integers(0, 3, size=(4, 3, 5, 6)).astype(float)
        # near-ties on either side of the tolerance
        stack += rng.choice([0.0, 0.5e-12, -0.5e-12, 2e-12], size=stack.shape)
        moved = np.moveaxis(stack, axis, 0)
        tol = numerics.TIE_TOL
        for fn, opt, within in (
                (numerics.first_argmax, np.max, lambda v, b: v >= b - tol),
                (numerics.first_argmin, np.min, lambda v, b: v - b <= tol)):
            idx, best = fn(stack, axis=axis)
            assert best.tobytes() == opt(stack, axis=axis).tobytes()
            for pos in np.ndindex(best.shape):
                column = moved[(slice(None),) + pos]
                want = next(i for i, v in enumerate(column)
                            if within(v, best[pos]))
                assert idx[pos] == want

    def test_a_flat_stack_gives_scalars(self):
        for fn in (numerics.first_argmax, numerics.first_argmin):
            idx, best = fn(np.array([1.0, 3.0, 3.0 - 1e-13, 0.5]))
            assert type(idx) is np.intp and type(best) is np.float64


class TestGridSearchsorted:
    @pytest.mark.parametrize("name", sorted(SEARCH_GRIDS))
    def test_matches_numpy_searchsorted(self, name):
        grid = SEARCH_GRIDS[name]
        q = search_probes(grid)
        got = numerics.grid_searchsorted(grid, q)
        want = np.searchsorted(grid, q)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        for v in q[:40]:
            assert numerics.grid_searchsorted(grid, v) == np.searchsorted(grid, v)


class TestSurfaceValue:
    def test_affine_surface_is_exact_inside_the_box(self):
        rng = np.random.default_rng(3)
        for t in (0.0, 0.07, 0.125, 0.31, 0.5):
            x = rng.uniform(X_GRID[0], X_GRID[-1], 40)
            y = rng.uniform(Y_GRID[0], Y_GRID[-1], 40)
            np.testing.assert_allclose(lookup(t, x, y), affine(t, x, y),
                                       rtol=0, atol=1e-12)

    def test_outside_points_read_the_clamped_point(self):
        x = np.array([-7.0, 2.5, 0.3, -np.inf, np.inf, 0.3])
        y = np.array([0.4, -9.0, 5.0, 0.4, -0.2, -np.inf])
        clamped = lookup(0.2, np.clip(x, X_GRID[0], X_GRID[-1]),
                         np.clip(y, Y_GRID[0], Y_GRID[-1]))
        assert lookup(0.2, x, y).tobytes() == clamped.tobytes()

    def test_nan_gives_nan(self):
        got = lookup(0.2, np.array([np.nan, 0.5]), np.array([0.0, np.nan]))
        assert np.isnan(got).all()
        assert np.isnan(lookup(np.nan, 0.5, 0.0))

    def test_time_clamps_to_the_horizon(self):
        assert lookup(-0.3, 0.5, 0.1) == lookup(0.0, 0.5, 0.1)
        assert lookup(0.9, 0.5, 0.1) == lookup(0.5, 0.5, 0.1)
        assert lookup(0.9, 0.5, 0.1) == pytest.approx(affine(0.5, 0.5, 0.1),
                                                      abs=1e-12)

    def test_single_slice_grid(self):
        t_grid = np.array([0.0])
        for t in (-1.0, 0.0, 3.0):
            assert lookup(t, 0.5, 0.1, t_grid) == pytest.approx(
                affine(0.0, 0.5, 0.1), abs=1e-12)

    def test_array_call_matches_scalar_calls(self):
        x = np.array([0.33, -5.0, np.nan, 1.7, 2.0, -np.inf])
        y = np.array([-0.47, 0.2, 0.0, np.inf, -3.0, 0.9])
        for t in (0.0, 0.21, 0.5, 0.8):
            want = np.array([lookup(t, a, b) for a, b in zip(x, y)])
            assert lookup(t, x, y).tobytes() == want.tobytes()
