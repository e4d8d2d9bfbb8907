"""Tests for the principal-side HJBI solver, policy extraction and checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import robustcontract as rc
from robustcontract import principal
from robustcontract.hamiltonians import R_MIN, eval_G
from helpers import (
    SCALAR_ONLY,
    SEARCH_GRIDS,
    CandidateFunction,
    build_model,
    nearest,
    oracle_select_with_radius,
    per_substep_values,
    perron_sandwich_check,
    polynomial_with_candidate,
    radius_policy_at,
    random_polynomial_model,
    reference_select_slice,
    search_probes,
)
from robustcontract.principal import (
    ContractPolicy,
    GridSpec,
    extract_contract,
    optimize_y0,
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

    def test_slice_selection_matches_pointwise_evaluator(self):
        m = rc.make_model("quadratic_bounded", n_grid_points=3,
                          z_grid_points=5, gamma_grid_points=5,
                          a_grid_points=5)
        g = GridSpec(x_lo=-2, x_hi=2, x_nodes=9, y_lo=-0.4, y_hi=0.4,
                     y_nodes=9, t_steps=4, horizon=0.25)
        sol = solve_hjbi(m, g)
        X2, Y2 = np.meshgrid(sol.x_grid, sol.y_grid, indexing="ij")
        X, Y = X2.ravel(), Y2.ravel()
        checked = 0
        for k, t in enumerate(sol.t_grid):
            derivs = [a.ravel() for a in
                      principal._derivatives(sol.values[k], g.dx, g.dy)]
            radius = max(1e-3, float(np.max(np.abs(derivs[0]))),
                         float(np.max(np.abs(derivs[2]))))
            sel = principal._select_slice(m, float(t), X, Y, *derivs, radius)
            for i in range(X.size):
                ref = eval_G(m, float(t), float(X[i]), float(Y[i]),
                             *(float(d[i]) for d in derivs), radius)
                assert abs(sel.value[i] - ref.value) <= 1e-12
                assert (sel.z[i], sel.gamma[i], sel.nature[i]) == (
                    ref.z_star, ref.gamma_star, ref.n_star)
                checked += 1
        assert checked == 405

    def test_value_accepts_arrays(self):
        m = rc.make_model("risk_neutral")
        sol = solve_hjbi(m, small_grid())
        xs = np.array([0.33, -5.0, np.nan, 1.7])
        ys = np.array([-0.47, 0.2, 0.0, np.inf])
        got = sol.value(0.21, xs, ys)
        want = [sol.value(0.21, x, y) for x, y in zip(xs, ys)]
        assert all(type(w) is float for w in want)
        assert got.tobytes() == np.array(want).tobytes()


def robust_grid(nodes, steps, horizon):
    return GridSpec(x_lo=-3.0, x_hi=3.0, x_nodes=nodes, y_lo=-0.5, y_hi=0.5,
                    y_nodes=nodes, t_steps=steps, horizon=horizon)


ROBUST_GRID = robust_grid(13, 8, 0.5)
# a kinked principal utility whose boundary optima move with the box: the
# solve on KINK_GRID accepts three doublings in all, every one on the
# second of its two selections (one per time step)
KINK_GRID = GridSpec(x_lo=-1.0, x_hi=1.0, x_nodes=9, y_lo=-1.0, y_hi=1.0,
                     y_nodes=9, t_steps=2, horizon=0.05)


def robust_model():
    return rc.make_model("quadratic_bounded", n_band=(0.45, 0.87), w0=2.65)


def kinked_model():
    return build_model(u_p=lambda w: np.minimum(w, 1.9), a_points=3,
                       n_points=3, z_points=5, gamma_points=5)


def linear_with_candidates(**grids):
    """build_model's linear benchmark with (z, gamma) candidates (p, q) and
    the clamped effort: a candidate model that is not a preset."""
    return build_model(candidate_zgamma=lambda t, x, y, p, q: [(p, q)],
                       candidate_effort=lambda t, x, z, sig: np.clip(z, 0.0,
                                                                     1.0),
                       **grids)


def record_radii(monkeypatch):
    """The box radius of every ``principal._select_slice`` call, in order."""
    radii, real = [], principal._select_slice

    def recorded(model, t, X, Y, p, pt, q, qt, r, radius):
        radii.append(radius)
        return real(model, t, X, Y, p, pt, q, qt, r, radius)

    monkeypatch.setattr(principal, "_select_slice", recorded)
    return radii


def assert_same_selection(got, want):
    """Every field of two selections equal, arrays bit for bit."""
    for f in dataclasses.fields(principal._Selection):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def random_slice(grid, rng):
    """A slice's flat nodes and random (p, pt, q, qt, r) on them."""
    X2, Y2 = np.meshgrid(grid.x_grid(), grid.y_grid(), indexing="ij")
    n = X2.size
    return X2.ravel(), Y2.ravel(), [
        rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 0.5, n),
        rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n),
        rng.uniform(-1.0, 1.0, n)]


class TestNodeLocality:
    """A node's selection depends on its own inputs and the shared radius
    alone, so selecting a subset of nodes gives the subset of the full
    selection.  The radius policy probes the doubled box on the
    expandable nodes only, which relies on this."""

    @pytest.mark.parametrize("make, grid", [
        (robust_model, ROBUST_GRID), (kinked_model, KINK_GRID),
        (lambda: random_polynomial_model(np.random.default_rng(3)),
         KINK_GRID),
        (lambda: random_polynomial_model(np.random.default_rng(4)),
         KINK_GRID),
        (lambda: rc.make_model("risk_neutral"), ROBUST_GRID)],
        ids=["robust", "kinked", "poly3", "poly4", "risk_neutral"])
    def test_subset_selection_is_the_subset_of_the_full_one(self, make,
                                                             grid):
        model = make()
        rng = np.random.default_rng(11)
        X, Y, derivs = random_slice(grid, rng)
        n = X.size
        # a scattered third of the slice, out of order and neither end,
        # then every node in small scattered groups: a reduction over nodes
        # shows as soon as some group lacks what the whole slice has
        cuts = np.cumsum(rng.integers(1, 6, n))
        groups = [rng.permutation(np.arange(1, n - 1))[:n // 3],
                  *np.split(rng.permutation(n), cuts[cuts < n])]
        assert not np.all(np.diff(groups[0]) == 1)
        for radius in (0.75, 1.5):
            full = principal._select_slice(model, 0.1, X, Y, *derivs, radius)
            if model.candidate_zgamma is None:
                assert 0 < full.saturated < n
            for idx in groups:
                sub = principal._select_slice(model, 0.1, X[idx], Y[idx],
                                              *(d[idx] for d in derivs),
                                              radius)
                sat = full.sat_mask[idx]
                want = dataclasses.replace(
                    full, saturated=int(np.count_nonzero(sat)),
                    qt_nonneg_saturated=int(np.count_nonzero(
                        sat & (derivs[3][idx] >= 0.0))),
                    **{f.name: getattr(full, f.name)[idx]
                       for f in dataclasses.fields(full)
                       if isinstance(getattr(full, f.name), np.ndarray)})
                assert_same_selection(sub, want)


# models whose selections take each path through the saddle blocks: no
# candidate hook, a candidate effort ahead of the effort grid, a payoff
# that reads nature, and primitives wrapped to run once per element
BLOCK_MODELS = {
    "quadratic_bounded": robust_model,
    "risk_neutral_grid": lambda: dataclasses.replace(
        rc.make_model("risk_neutral"), candidate_zgamma=None),
    "polynomial_candidate": lambda: polynomial_with_candidate(
        ).with_control_grids(z=21, gamma=21),
    "scalar_only": lambda: build_model(**SCALAR_ONLY, a_points=5,
                                       n_points=3),
}


class TestBlockedSelection:
    """The selection evaluates the z grid in blocks of at most
    ``_BLOCK_ELEMENTS`` elements and is the per-entry enumeration of
    ``helpers.reference_select_slice`` bit for bit, whatever the block
    size."""

    @pytest.mark.parametrize("per_block", [1, 4, 21])
    @pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
    def test_matches_the_per_entry_enumeration(self, monkeypatch, name,
                                               per_block):
        model = BLOCK_MODELS[name]()
        assert model.z_grid_points == 21
        X, Y, derivs = random_slice(ROBUST_GRID, np.random.default_rng(23))
        n = X.size
        blocks, kernel = [], principal._saddle_block

        def recorded(model, t, X, Y, tables, z, gam, *rest):
            blocks.append(len(z))
            return kernel(model, t, X, Y, tables, z, gam, *rest)

        monkeypatch.setattr(principal, "_saddle_block", recorded)
        # the whole slice, then subsets of the radius probe's sizes
        for idx in (np.arange(n), np.array([n // 2]), np.array([n - 1, 3, 40])):
            monkeypatch.setattr(principal, "_BLOCK_ELEMENTS", per_block * len(
                model.n_grid()) * model.gamma_grid_points * len(idx))
            args = (X[idx], Y[idx], *(d[idx] for d in derivs))
            for radius in (0.75, 1.5):
                blocks.clear()
                got = principal._select_slice(model, 0.1, *args, radius)
                assert blocks == [per_block] * (21 // per_block) \
                    + [21 % per_block] * (21 % per_block > 0)
                assert_same_selection(
                    got, reference_select_slice(model, 0.1, *args, radius))

    def test_risk_neutral_enumerates_its_candidates_alone(self):
        model = rc.make_model("risk_neutral")
        X, Y, derivs = random_slice(ROBUST_GRID, np.random.default_rng(29))
        args = (0.2, X, Y, *derivs, 1.0)
        assert_same_selection(principal._select_slice(model, *args),
                              reference_select_slice(model, *args))

    def test_a_custom_candidate_model_enumerates_its_candidates_alone(
            self, monkeypatch):
        # the hook, not the preset, puts the selection on the candidates
        model = linear_with_candidates(a_points=5, n_points=3)
        X, Y, derivs = random_slice(ROBUST_GRID, np.random.default_rng(31))
        args = (0.2, X, Y, *derivs, 1.0)
        blocks, kernel = [], principal._saddle_block

        def recorded(model, t, X, Y, tables, z, gam, *rest):
            blocks.append((len(z), tables[1].size))
            return kernel(model, t, X, Y, tables, z, gam, *rest)

        monkeypatch.setattr(principal, "_saddle_block", recorded)
        got = principal._select_slice(model, *args)
        # one candidate block, against no effort grid rows
        assert blocks == [(1, 0)]
        assert_same_selection(got, reference_select_slice(model, *args))

    def test_a_fine_slice_peaks_below_one_whole_tensor(self):
        """One 49x49 selection's traced peak stays below the bytes of one
        (z, nature, gamma, node) tensor: the blocks hold one z each."""
        model = rc.make_model("quadratic_bounded")
        grid = robust_grid(49, 32, 0.5)
        xg, yg = grid.x_grid(), grid.y_grid()
        X2, Y2 = np.meshgrid(xg, yg, indexing="ij")
        derivs = principal._flat_derivatives(
            principal._terminal_reward(model, xg, yg), grid)
        radius = max(float(np.max(np.abs(derivs[0]))),
                     float(np.max(np.abs(derivs[2]))))
        whole = (model.z_grid_points * len(model.n_grid())
                 * model.gamma_grid_points * X2.size * 8)
        tracemalloc.start()
        try:
            principal._select_slice(model, 0.48, X2.ravel(), Y2.ravel(),
                                    *derivs, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert whole == 21 * 5 * 21 * 2401 * 8
        assert peak < whole


class TestRadiusPolicy:
    @pytest.mark.parametrize("model, grid, doublings", [
        (robust_model, ROBUST_GRID, 0), (kinked_model, KINK_GRID, 3)])
    def test_matches_whole_slice_oracle(self, monkeypatch, model, grid,
                                        doublings):
        m = model()
        seen, policy = [], principal._select_with_radius

        def recorded(model, t, X, Y, p, pt, q, qt, r, diags):
            seen.append((t, X, Y, p, pt, q, qt, r))
            return policy(model, t, X, Y, p, pt, q, qt, r, diags)

        monkeypatch.setattr(principal, "_select_with_radius", recorded)
        sol = solve_hjbi(m, grid)
        monkeypatch.undo()
        diags, ref_diags = (principal._new_diagnostics() for _ in range(2))
        accepted = 0
        for args in seen:
            got = principal._select_with_radius(m, *args, diags)
            want = oracle_select_with_radius(m, *args, ref_diags)
            assert_same_selection(got, want)
            assert diags == ref_diags
            start = max(1e-3, float(np.max(np.abs(args[3]))),
                        float(np.max(np.abs(args[5]))))
            accepted += round(np.log2(got.radius / start))
        assert accepted == doublings
        # the recorded selections are the solve's own
        for key in ("radius_max", "saturated_nodes",
                    "coercivity_unverified_nodes"):
            assert diags[key] == sol.diagnostics[key]

    def test_probes_only_the_expandable_nodes(self, monkeypatch):
        """Counts the nodes each selection evaluates, with no timing."""
        m = robust_model()
        nodes = ROBUST_GRID.x_nodes * ROBUST_GRID.y_nodes
        runs = []
        policy, select = principal._select_with_radius, principal._select_slice

        def per_selection(model, t, X, Y, p, pt, q, qt, r, diags):
            runs.append([])
            return policy(model, t, X, Y, p, pt, q, qt, r, diags)

        def counted(model, t, X, Y, p, pt, q, qt, r, radius):
            sel = select(model, t, X, Y, p, pt, q, qt, r, radius)
            runs[-1].append((X.size, radius,
                             int(np.count_nonzero(sel.sat_mask & (qt < 0.0)))))
            return sel

        monkeypatch.setattr(principal, "_select_with_radius", per_selection)
        monkeypatch.setattr(principal, "_select_slice", counted)
        solve_hjbi(m, ROBUST_GRID)
        probes = 0
        for calls in runs:
            size, radius, expandable = calls[0]
            assert size == nodes
            for prev, cur in zip(calls, calls[1:]):
                if cur[0] == nodes:
                    # an accepted doubling re-selects at the probed radius
                    assert prev[0] < nodes and cur[1] == prev[1]
                    radius, expandable = cur[1], cur[2]
                else:
                    assert prev[0] == nodes
                    assert (cur[0], cur[1]) == (expandable, 2.0 * radius)
                    probes += 1
        assert probes > 0
        evaluated = sum(size for calls in runs for size, _, _ in calls)
        assert evaluated < 1.5 * len(runs) * nodes


    @pytest.mark.parametrize("p, q, radius", [(3.0, -1.0, 3.0),
                                              (-0.5, 2.0, 2.0)],
                             ids=["p", "q"])
    def test_risk_neutral_closed_form(self, monkeypatch, p, q, radius):
        # the envelope max(|p|, |q|) holds the exact candidate (p, q); it
        # sits on the box boundary at a coercive node and still no larger
        # box is tried
        radii = record_radii(monkeypatch)
        sel = radius_policy_at(rc.make_model("risk_neutral"), 0.0, 0.0, 0.0,
                               p, -1.0, q, -1.0, 0.0)
        assert (sel.radius, radii) == (radius, [radius])
        assert (sel.z[0], sel.gamma[0], bool(sel.sat_mask[0])) == (p, q, True)

    def test_risk_neutral_degenerate_floor(self):
        sel = radius_policy_at(rc.make_model("risk_neutral"), 0.0, 0.0, 0.0,
                               0.0, -1.0, 0.0, 0.0, 0.0)
        assert sel.radius == R_MIN == 1e-3

    def test_coercive_search_stops_on_a_value_plateau(self, monkeypatch):
        m = rc.make_model("quadratic_bounded", n_grid_points=3,
                          z_grid_points=9, gamma_grid_points=9,
                          a_grid_points=9)
        args = (0.2, 0.5, 0.1, 0.05, -0.5, 0.02, -0.1, 0.3)
        radii = record_radii(monkeypatch)
        sel = radius_policy_at(m, *args)
        monkeypatch.undo()
        # two accepted doublings of the envelope 0.05, each after its probe,
        # then a rejected probe of the doubled box
        assert radii == [0.05, 0.1, 0.1, 0.2, 0.2, 0.4]
        assert sel.radius == 0.2 and sel.sat_mask[0]

        def value(radius):
            return principal._select_slice(
                m, args[0], *np.array([[a] for a in args[1:]]), radius).value[0]

        scale = 1e-9 * (1.0 + abs(value(0.2)))
        assert abs(value(0.1) - value(0.2)) > scale
        assert abs(value(0.4) - value(0.2)) <= scale

    def test_noncoercive_nodes_never_double(self, monkeypatch):
        m = rc.make_model("quadratic_bounded", n_grid_points=3,
                          z_grid_points=9, gamma_grid_points=9,
                          a_grid_points=9)
        radii = record_radii(monkeypatch)
        diags = principal._new_diagnostics()
        sel = principal._select_with_radius(
            m, 0.0, *np.array([[0.0], [0.0], [1.0], [-1.0], [0.0], [0.0],
                               [0.0]]), diags)
        assert (radii, bool(sel.sat_mask[0])) == ([1.0], True)
        assert (diags["saturated_nodes"],
                diags["coercivity_unverified_nodes"]) == (0, 1)

    def test_exact_candidates_never_double(self, monkeypatch):
        m = linear_with_candidates(a_points=5, n_points=3, z_points=5,
                                   gamma_points=5)
        radii = record_radii(monkeypatch)
        diags = principal._new_diagnostics()
        qt = np.array([-1.0, -1.0])
        sel = principal._select_with_radius(
            m, 0.1, np.array([0.0, 0.3]), np.array([0.0, 0.1]),
            np.array([0.8, 0.2]), np.array([-1.0, -1.0]),
            np.array([-0.4, 1.0]), qt, np.zeros(2), diags)
        # the second node's candidate gamma = q = 1 is on the envelope
        assert radii == [1.0]
        assert sel.sat_mask.tolist() == [False, True]
        assert (diags["radius_max"], diags["saturated_nodes"],
                diags["coercivity_unverified_nodes"]) == (1.0, 0, 0)


# largest t = 0 gap on shared nodes between robust_model's 13x13x8 and
# 25x25x16 solves (horizon 1).  Selecting on every CFL substep gave this
# gap; one selection per time step gives 7.0e-3.
SELF_CONVERGENCE_GAP = 7.2e-3


@pytest.fixture(scope="module")
def coarse_robust():
    return solve_hjbi(robust_model(), robust_grid(13, 8, 1.0))


class TestSchemeConvergence:
    def test_refinement_gap_is_bounded(self, coarse_robust):
        fine = solve_hjbi(robust_model(), robust_grid(25, 16, 1.0))
        gap = np.abs(coarse_robust.values[0] - fine.values[0][::2, ::2]).max()
        assert gap <= SELF_CONVERGENCE_GAP

    def test_frozen_substeps_move_less_than_refinement(self, coarse_robust):
        """The frozen stencil lags the per-substep selection by O(dt), well
        inside the discretization gap the refinement shows."""
        replay = per_substep_values(robust_model(), robust_grid(13, 8, 1.0))
        move = np.abs(coarse_robust.values[0] - replay[0]).max()
        assert 0.0 < move <= 0.2 * SELF_CONVERGENCE_GAP
        assert coarse_robust.diagnostics["selections"] == 8

    def test_ordered_terminal_data_give_ordered_solutions(self):
        """Comparison: a pointwise larger terminal reward yields a pointwise
        larger value at every slice.  The utilities stay smooth; kinked ones
        still meet the radius runaway."""
        lift = rc.make_model("quadratic_bounded", n_band=(0.45, 0.87),
                             w0=2.65, utility_principal=lambda w:
                             w + 0.05 * (1.0 + np.tanh(w)))
        lo = solve_hjbi(robust_model(), ROBUST_GRID).values
        hi = solve_hjbi(lift, ROBUST_GRID).values
        assert (lo[-1] < hi[-1]).all()
        for k in range(ROBUST_GRID.t_steps + 1):
            assert float((lo[k] - hi[k]).max()) <= 0.0, k


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

    @pytest.mark.parametrize("horizon", [0.5, 1.0])
    def test_center_weight_is_the_solvers_first_substeps(self, horizon):
        # the whole step's center weight reads -1.66 and -4.32 here; the
        # solver's first substep keeps the share 1 - CFL_SAFETY of it
        rep = probe_monotonicity(robust_model(), robust_grid(13, 8, horizon))
        assert rep["min_center_weight"] >= 1.0 - principal.CFL_SAFETY
        assert rep["min_neighbor_weight"] == 0.0


class TestNonFiniteTerminal:
    """A terminal reward with NaN or inf nodes is refused by name before
    any selection, by the solve and by the probe that builds the same
    terminal slice."""

    @pytest.mark.parametrize("u_p, count, first", [
        (lambda w: np.log(w + 2.0), 33, "x=-3.0, y=-0.5"),
        (lambda w: np.where(w > 2.5, np.inf, w), 19, "x=2.0, y=-0.5"),
        (lambda w: np.where(w > 2.9, np.nan, w), 10, "x=2.5, y=-0.5")],
        ids=["log", "inf", "nan"])
    def test_is_refused_before_the_march(self, monkeypatch, u_p, count,
                                         first):
        def no_selection(*args):
            raise AssertionError("the march selected from a bad terminal")

        monkeypatch.setattr(principal, "_select_with_radius", no_selection)
        grid = GridSpec(-3, 3, 13, -0.5, 0.5, 13, 8, 0.5)
        want = (f"terminal reward is not finite at {count} of 169 nodes, "
                f"first at \\({first}\\)")
        with np.errstate(divide="ignore", invalid="ignore"):
            model = rc.make_model("quadratic_bounded", utility_principal=u_p)
            for run in (solve_hjbi, probe_monotonicity):
                with pytest.raises(ValueError, match=want):
                    run(model, grid)


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


class TestGridSpecChecks:
    BOX = dict(x_lo=-1.0, x_hi=1.0, x_nodes=5, y_lo=-1.0, y_hi=1.0,
               y_nodes=5, t_steps=2, horizon=1.0)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_a_box_without_distinct_nodes_is_refused(self, axis):
        far = dict(self.BOX, **{f"{axis}_lo": 1e15, f"{axis}_hi": 1e15 + 1.0})
        # 9 nodes there are 0.125 apart, one ulp at 1e15; np.linspace puts
        # 41 nodes on those 9 doubles
        GridSpec(**dict(far, **{f"{axis}_nodes": 9}))
        with pytest.raises(ValueError, match=f"the {axis} interval .* "
                                             "cannot hold 41 distinct"):
            GridSpec(**dict(far, **{f"{axis}_nodes": 41}))

    def test_a_horizon_without_distinct_steps_is_refused(self):
        # half the smallest subnormal rounds to zero: t_grid [0, 0, h]
        GridSpec(**dict(self.BOX, horizon=5e-324, t_steps=1))
        with pytest.raises(ValueError, match=r"the t interval \[0.0, 5e-324\] "
                                             "cannot hold 3 distinct"):
            GridSpec(**dict(self.BOX, horizon=5e-324, t_steps=2))

    def test_an_infinite_bound_is_refused(self):
        with pytest.raises(ValueError, match="space bounds must be finite"):
            GridSpec(**dict(self.BOX, x_lo=-np.inf))


def small_policy(**changes):
    """A valid policy on a 2 x 3 x 4 (t, x, y) grid, with ``changes``."""
    args = dict(t_grid=np.array([0.0, 0.5]), x_grid=np.linspace(0.0, 1.0, 3),
                y_grid=np.linspace(-1.0, 1.0, 4),
                **{name: np.zeros((2, 3, 4))
                   for name in principal.POLICY_FIELDS})
    args.update(changes)
    return ContractPolicy(**args)


class TestContractPolicyChecks:
    def test_fields_must_have_the_grid_shape(self):
        small_policy()
        fields = {name: np.arange(24.0).reshape(2, 4, 3)
                  for name in principal.POLICY_FIELDS}
        with pytest.raises(ValueError, match=r"shape \(2, 4, 3\), not "
                                             r"\(2, 3, 4\)"):
            small_policy(**fields)
        with pytest.raises(ValueError, match="field gamma"):
            small_policy(gamma=np.zeros((3, 3, 4)))

    def test_a_decreasing_axis_is_refused(self):
        with pytest.raises(ValueError, match="x_grid is not finite and "
                                             "strictly increasing"):
            small_policy(x_grid=np.linspace(1.0, 0.0, 3))

    def test_a_one_node_axis_is_refused(self):
        with pytest.raises(ValueError, match="x_grid needs at least 2"):
            small_policy(x_grid=np.array([0.5]),
                         **{name: np.zeros((2, 1, 4))
                            for name in principal.POLICY_FIELDS})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_axis_is_refused(self, bad):
        with pytest.raises(ValueError, match="y_grid is not finite"):
            small_policy(y_grid=np.array([-1.0, 0.0, 1.0, bad]))

    def test_a_non_uniform_time_axis_is_refused(self):
        fields = {name: np.zeros((3, 3, 4)) for name in principal.POLICY_FIELDS}
        small_policy(t_grid=np.linspace(0.0, 0.5, 3), **fields)
        with pytest.raises(ValueError, match="t_grid is not uniform"):
            small_policy(t_grid=np.array([0.0, 0.1, 0.5]), **fields)

    @pytest.mark.parametrize("end", [0.0, -0.5, np.nan, np.inf],
                             ids=["zero-horizon", "decreasing", "nan", "inf"])
    def test_a_time_axis_that_does_not_increase_is_refused(self, end):
        with pytest.raises(ValueError, match="t_grid is not finite and "
                                             "strictly increasing"):
            small_policy(t_grid=np.array([0.0, end]))

    def test_a_one_node_time_axis_is_accepted(self):
        # a zero-step solve's policy: every time reads its one slice
        policy = small_policy(t_grid=np.zeros(1), **{
            name: np.full((1, 3, 4), 2.5) for name in principal.POLICY_FIELDS})
        assert policy.slice_index(0.0) == policy.slice_index(7.0) == 0
        assert policy.gather(0.0, [0.2], [-0.3])["z"].tolist() == [2.5]

    def test_replace_runs_the_same_checks(self):
        with pytest.raises(ValueError, match="x_grid is not finite"):
            dataclasses.replace(small_policy(),
                                x_grid=np.array([0.0, 1.0, 0.5]))


def index_policy(x_grid, y_grid):
    """A policy over the two grids whose every field holds the flat node
    index, so a gather returns the nodes it looked up."""
    nodes = np.arange(len(x_grid) * len(y_grid), dtype=float)
    table = np.broadcast_to(nodes.reshape(1, len(x_grid), len(y_grid)),
                            (2, len(x_grid), len(y_grid)))
    return ContractPolicy(t_grid=np.array([0.0, 1.0]), x_grid=x_grid,
                          y_grid=y_grid,
                          **{name: table for name in principal.POLICY_FIELDS})


class TestNearestNodeLookup:
    # far from zero for its span: a cell holds only about 3,300 doubles
    FAR = np.linspace(1e12, 1e12 + 16.0, 41)
    OTHER = np.linspace(-1.0, 1.5, 6)
    UNIFORM = sorted(name for name in SEARCH_GRIDS
                     if name != "non-uniform") + ["1e12-offset"]
    # how far from a cell midpoint, in ulps of max(|g[0]|, |g[-1]|), the
    # arithmetic node may differ from the search rule's: their midpoints
    # differ by the rounding of the nodes and of h = g[1] - g[0]
    MIDPOINT_ULPS = 8

    def grid(self, name):
        return SEARCH_GRIDS.get(name, self.FAR)

    @pytest.mark.parametrize("name", UNIFORM)
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_gather_is_the_nearest_node_rule_bit_for_bit(self, name, axis):
        grid = self.grid(name)
        q = search_probes(grid)
        other = np.resize(search_probes(self.OTHER), len(q))
        grids, (x, y) = (((grid, self.OTHER), (q, other)) if axis == "x"
                         else ((self.OTHER, grid), (other, q)))
        pol = index_policy(*grids)
        want = nearest(grids[0], x) * len(grids[1]) + nearest(grids[1], y)
        got = pol.gather(0.5, x, y, fields=("z",))["z"]
        assert got.tobytes() == want.astype(float).tobytes()

    @pytest.mark.parametrize("name", UNIFORM)
    def test_the_rule_moves_from_the_search_rule_only_at_midpoints(self,
                                                                   name):
        grid = self.grid(name)

        def search(v):
            return np.minimum(np.searchsorted(grid, v - 0.5 * (grid[1]
                                                              - grid[0])),
                              len(grid) - 1)

        exact = np.concatenate([grid, [np.inf, -np.inf, np.nan, 1e300,
                                       -1e300, -0.0]])
        assert np.array_equal(principal._nearest_node(grid, exact),
                              search(exact))
        q = search_probes(grid)
        got, want = principal._nearest_node(grid, q), search(q)
        moved = np.flatnonzero(got != want)
        assert np.all(np.abs(got[moved] - want[moved]) == 1)
        lower = np.minimum(got, want)[moved]
        midpoint = 0.5 * (grid[lower] + grid[lower + 1])
        ulp = np.spacing(max(abs(grid[0]), abs(grid[-1])))
        assert np.all(np.abs(q[moved] - midpoint) <= self.MIDPOINT_ULPS * ulp)

    def test_a_non_uniform_axis_is_refused(self):
        grid = SEARCH_GRIDS["non-uniform"]
        with pytest.raises(ValueError, match="x_grid is not uniform"):
            index_policy(grid, self.OTHER)
        with pytest.raises(ValueError, match="y_grid is not uniform"):
            index_policy(self.OTHER, grid)

    def test_scalar_x_with_an_array_y(self):
        x_grid, y_grid = SEARCH_GRIDS["41"], SEARCH_GRIDS["401-offset"]
        pol = index_policy(x_grid, y_grid)
        y = search_probes(y_grid)
        for x in (0.1, x_grid[3], np.inf, np.nan, -1e300, -0.0):
            want = nearest(x_grid, x) * len(y_grid) + nearest(y_grid, y)
            got = pol.gather(0.0, x, y)
            assert set(got) == set(principal.POLICY_FIELDS)
            for values in got.values():
                assert values.tobytes() == want.astype(float).tobytes()

    def test_a_replaced_policy_looks_up_its_own_grids(self):
        pol = index_policy(SEARCH_GRIDS["41"], SEARCH_GRIDS["3-negative"])
        x_grid, y_grid = SEARCH_GRIDS["13-offset"], SEARCH_GRIDS["2"]
        nodes = np.arange(len(x_grid) * len(y_grid), dtype=float).reshape(
            1, len(x_grid), len(y_grid))
        moved = dataclasses.replace(
            pol, x_grid=x_grid, y_grid=y_grid,
            **{name: np.repeat(nodes, 2, axis=0)
               for name in principal.POLICY_FIELDS})
        x, y = search_probes(x_grid), np.resize(search_probes(y_grid),
                                               len(search_probes(x_grid)))
        want = nearest(x_grid, x) * len(y_grid) + nearest(y_grid, y)
        got = moved.gather(0.0, x, y, fields=("k_rate",))["k_rate"]
        assert got.tobytes() == want.astype(float).tobytes()


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
