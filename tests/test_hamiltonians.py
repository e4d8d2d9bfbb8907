"""Unit tests for the Hamiltonian evaluators and their reductions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robustcontract as rc
from robustcontract import hamiltonians, principal
from robustcontract.hamiltonians import R_MIN, uniform_grid

from helpers import (
    SCALAR_ONLY,
    build_model,
    oracle_F_star,
    oracle_G,
    oracle_H,
    radius_policy_at,
    random_polynomial_model,
)


# ---------------------------------------------------------------------------
# eval_F
# ---------------------------------------------------------------------------

class TestEvalF:
    def test_quadratic_cost_unit_inputs(self):
        m = build_model(N=(1.0, 2.0))
        assert rc.eval_F(m, 0.0, 0.0, 0.0, 1.0, 1.0, 1.5) == pytest.approx(0.5, abs=1e-12)

    def test_zero_case(self):
        m = build_model()
        assert rc.eval_F(m, 0.3, -1.0, 0.0, 0.0, 0.0, 1.0) == 0.0

    def test_discounted_case(self):
        m = build_model(k=lambda t, x, a, n: 0.1)
        got = rc.eval_F(m, 0.0, 0.0, 2.0, 0.5, 1.0, 1.0)
        assert got == pytest.approx(-0.2, abs=1e-12)

    def test_rejects_effort_outside_A(self):
        m = build_model()
        with pytest.raises(ValueError):
            rc.eval_F(m, 0.0, 0.0, 0.0, 0.0, 1.5, 1.0)

    def test_rejects_nature_outside_N(self):
        m = build_model()
        with pytest.raises(ValueError):
            rc.eval_F(m, 0.0, 0.0, 0.0, 0.0, 0.5, 5.0)


# ---------------------------------------------------------------------------
# level_set_V
# ---------------------------------------------------------------------------

class TestLevelSet:
    def test_exact_preimage(self):
        m = build_model(N=(1.0, 2.0), n_points=5)
        assert rc.level_set_V(m, 0.0, 0.0, 2.25, tol=1e-9) == [1.5]

    def test_out_of_range_is_empty(self):
        m = build_model(N=(1.0, 2.0), n_points=5)
        assert rc.level_set_V(m, 0.0, 0.0, 9.0) == []

    def test_two_point_preimage(self):
        m = build_model(sigma=lambda t, x, n: abs(n - 1.5) + 1.0,
                        N=(1.0, 2.0), n_points=5)
        assert rc.level_set_V(m, 0.0, 0.0, 1.5625, tol=1e-9) == [1.25, 1.75]

    def test_default_tolerance_scales_with_grid(self):
        m = build_model(N=(1.0, 2.0), n_points=201)
        # half a step off the grid still lands within the default tolerance
        # window of the two bracketing points only when fine enough
        members = rc.level_set_V(m, 0.0, 0.0, 1.5 ** 2)
        assert 1.5 in members

    def test_rejects_negative_sigma_square(self):
        m = build_model()
        with pytest.raises(ValueError):
            rc.level_set_V(m, 0.0, 0.0, -1.0)

    def test_rejects_nonpositive_tol(self):
        m = build_model()
        with pytest.raises(ValueError):
            rc.level_set_V(m, 0.0, 0.0, 1.0, tol=0.0)


# ---------------------------------------------------------------------------
# eval_F_star
# ---------------------------------------------------------------------------

class TestEvalFStar:
    def test_interior_maximum(self):
        m = build_model(N=(1.0, 1.0), n_points=1)
        res = rc.eval_F_star(m, 0.0, 0.0, 0.0, 0.3, 1.0)
        assert res.value == pytest.approx(0.045, abs=1e-12)
        assert res.arg_a == pytest.approx(0.3, abs=1e-9)

    def test_boundary_projection(self):
        m = build_model(N=(1.0, 1.0), n_points=1)
        res = rc.eval_F_star(m, 0.0, 0.0, 0.0, 5.0, 1.0)
        assert res.value == pytest.approx(4.5, abs=1e-12)
        assert res.arg_a == 1.0

    def test_two_point_level_set_inf_at_small_n(self):
        m = build_model(b=lambda t, x, a, n: a * n,
                        sigma=lambda t, x, n: 1.0,
                        N=(1.0, 2.0), n_points=2)
        res = rc.eval_F_star(m, 0.0, 0.0, 0.0, 0.7, 1.0)
        want_v, want_a, want_n = oracle_F_star(m, 0.0, 0.0, 0.0, 0.7, 1.0)
        assert res.value == want_v
        assert res.arg_n == 1.0 == want_n
        assert res.arg_a == want_a

    def test_unattainable_sigma_square_raises(self):
        m = build_model(N=(1.0, 2.0))
        with pytest.raises(ValueError, match="unattainable"):
            rc.eval_F_star(m, 0.0, 0.0, 0.0, 0.3, 100.0)

    def test_gap_nonnegative_by_construction(self):
        m = build_model(b=lambda t, x, a, n: a * n, sigma=lambda t, x, n: 1.0,
                        N=(1.0, 2.0), n_points=3, a_points=7)
        res = rc.eval_F_star(m, 0.0, 0.0, 0.5, -0.4, 1.0)
        assert res.isaacs_gap >= 0.0


# ---------------------------------------------------------------------------
# the Isaacs gap of eval_F_star
# ---------------------------------------------------------------------------

class TestIsaacs:
    def test_separable_payoff_has_zero_gap(self):
        m = build_model(b=lambda t, x, a, n: a + np.sin(n),
                        sigma=lambda t, x, n: 1.0,
                        k=lambda t, x, a, n: 0.2 * np.cos(n), kappa=0.5,
                        N=(1.0, 2.0), n_points=5, a_points=9)
        assert rc.eval_F_star(m, 0.0, 0.0, 1.0, 0.7, 1.0).isaacs_gap <= 1e-12

    def test_singleton_nature_set_has_zero_gap(self):
        m = build_model(N=(1.3, 1.3), n_points=1)
        assert rc.eval_F_star(m, 0.0, 0.0, 0.0, 0.5, 1.3 ** 2).isaacs_gap == 0.0

    def test_matching_pennies_drift_has_positive_gap(self):
        m = build_model(b=lambda t, x, a, n: (a - 0.5) * (n - 1.5),
                        sigma=lambda t, x, n: 1.0, c=lambda t, x, a: 0.0,
                        N=(1.0, 2.0), n_points=2, a_points=2)
        z = 1.0
        table = [[rc.eval_F(m, 0.0, 0.0, 0.0, z, a, n) for n in m.n_grid()]
                 for a in m.a_grid()]
        sup_inf = max(min(row) for row in table)
        inf_sup = min(max(table[i][j] for i in range(2)) for j in range(2))
        got = rc.eval_F_star(m, 0.0, 0.0, 0.0, z, 1.0).isaacs_gap
        assert got == inf_sup - sup_inf == 0.5


# ---------------------------------------------------------------------------
# eval_H
# ---------------------------------------------------------------------------

class TestEvalH:
    def test_constant_sigma_is_affine_in_gamma(self):
        m = build_model(sigma=lambda t, x, n: 1.7, N=(1.0, 2.0))
        base = rc.eval_H(m, 0.0, 0.0, 0.0, 0.4, 0.0).value
        for gam in (-2.0, -0.5, 1.0, 3.0):
            got = rc.eval_H(m, 0.0, 0.0, 0.0, 0.4, gam).value
            assert got == pytest.approx(base + 0.5 * 1.7 ** 2 * gam, abs=1e-12)

    def test_zero_inner_part_minimizes_half_sigma_square(self):
        m = build_model(b=lambda t, x, a, n: 0.0, c=lambda t, x, a: 0.0,
                        N=(1.0, 2.0), n_points=5)
        res = rc.eval_H(m, 0.0, 0.0, 0.0, 0.3, 1.0)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.arg_n == 1.0

    def test_negative_gamma_picks_large_sigma(self):
        m = build_model(N=(1.0, 2.0), n_points=5, a_points=21)
        res = rc.eval_H(m, 0.0, 0.0, 0.0, 0.4, -1.0)
        assert res.value == pytest.approx(-2.0 + 0.08, abs=1e-12)
        assert res.arg_n == 2.0

    def test_matches_oracle(self):
        m = build_model(b=lambda t, x, a, n: a * n - 0.3 * x,
                        k=lambda t, x, a, n: 0.3 * n, kappa=0.7,
                        N=(1.0, 2.0), n_points=4, a_points=5)
        got = rc.eval_H(m, 0.2, 0.5, -1.0, 0.8, -0.7)
        want_v, want_a, want_n = oracle_H(m, 0.2, 0.5, -1.0, 0.8, -0.7)
        assert (got.value, got.arg_a, got.arg_n) == (want_v, want_a, want_n)

    def test_concave_in_gamma(self):
        m = build_model(N=(0.5, 2.0), n_points=7)
        gams = np.linspace(-3.0, 3.0, 25)
        vals = np.array([rc.eval_H(m, 0.0, 0.0, 0.0, 0.6, g).value for g in gams])
        assert np.all(np.diff(vals, n=2) <= 1e-10)


# ---------------------------------------------------------------------------
# eval_g / eval_G
# ---------------------------------------------------------------------------

class TestEvalg:
    def test_all_derivative_inputs_zero(self):
        m = build_model(N=(1.0, 2.0))
        got = rc.eval_g(m, 0.1, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7, -1.0, 1.5)
        assert got == 0.0

    def test_hand_composed_five_terms(self):
        # z = 0 makes the response effort 0, so only the H term can survive,
        # and H(z=0, gamma=0) = 0 for costless-at-zero quadratic cost
        m = build_model(N=(1.0, 2.0))
        got = rc.eval_g(m, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        assert got == 0.0

    def test_generic_point_composition(self):
        m = build_model(N=(1.0, 2.0), n_points=3)
        t, x, y = 0.2, -0.4, 1.1
        p, pt, q, qt, r = 0.7, -0.9, 0.3, -0.2, 0.15
        z, gam, n = 0.6, -0.8, 1.5
        sig = m.vol_sigma(t, x, n)
        a_star, _ = rc.optimal_effort(m, t, x, y, z, sig * sig)
        bval = m.drift_b(t, x, a_star, n)
        hval = rc.eval_H(m, t, x, y, z, gam).value
        want = (p * bval + 0.5 * sig * sig * q
                + pt * (0.5 * sig * sig * gam - hval)
                + pt * bval * z + z * sig * sig * r
                + 0.5 * qt * z * z * sig * sig)
        got = rc.eval_g(m, t, x, y, p, pt, q, qt, r, z, gam, n)
        assert got == want


class TestEvalG:
    def test_risk_neutral_identity_and_recovered_controls(self):
        m = rc.make_model("risk_neutral")
        rng = np.random.default_rng(7)
        for _ in range(25):
            t, x, y = rng.uniform(0.0, 1.0), rng.uniform(-3, 3), rng.uniform(-2, 2)
            p, q = rng.uniform(-3, 3), rng.uniform(-3, 3)
            radius = max(abs(p), abs(q), 1e-3)
            res = rc.eval_G(m, t, x, y, p, -1.0, q, 0.0, 0.0, radius)
            want = rc.eval_H(m, t, x, y, p, q).value
            assert abs(res.value - want) <= 1e-9
            assert res.z_star == p and res.gamma_star == q

    def test_zero_derivatives_zero_value(self):
        m = rc.make_model("risk_neutral")
        res = rc.eval_G(m, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, radius=1.0)
        assert res.value == 0.0
        assert res.z_star == 0.0

    def test_quadratic_model_matches_exhaustive_enumeration(self):
        m = rc.make_model("quadratic_bounded", n_grid_points=3,
                          z_grid_points=5, gamma_grid_points=5, a_grid_points=5)
        args = (0.3, 0.7, 0.2, 0.9, -1.1, 0.4, -0.6, 0.2)
        got = rc.eval_G(m, *args, radius=1.5)
        want = oracle_G(m, *args, radius=1.5)
        assert tuple(got) == want

    def test_rejects_nonpositive_radius(self):
        m = build_model()
        with pytest.raises(ValueError):
            rc.eval_G(m, 0, 0, 0, 1, -1, 0, 0, 0, radius=0.0)


def bits(result):
    return np.array(tuple(result), dtype=float).tobytes()


class TestEvalGMemo:
    """eval_G evaluates its whole enumeration as arrays, each gamma-free
    part once per distinct z; the oracle, which goes through the scalar
    eval_g and eval_H pair by pair, stays the reference."""

    COARSE = dict(n_grid_points=3, z_grid_points=5, gamma_grid_points=5,
                  a_grid_points=5)

    def test_random_nodes_match_oracle(self):
        m = rc.make_model("quadratic_bounded", **self.COARSE)
        rng = np.random.default_rng(61)
        for _ in range(10):
            t = float(rng.uniform(0.0, 1.0))
            x, y = float(rng.uniform(-3.5, 3.5)), float(rng.uniform(-1.0, 1.0))
            p, q, r = (float(v) for v in rng.uniform(-2.0, 2.0, size=3))
            pt, qt = (float(v) for v in rng.uniform(-2.0, -0.1, size=2))
            radius = float(rng.uniform(0.2, 3.0))
            args = (t, x, y, p, pt, q, qt, r)
            assert tuple(rc.eval_G(m, *args, radius)) == oracle_G(m, *args, radius)

    def test_every_doubling_radius_matches_oracle(self, monkeypatch):
        # the boxes the principal's radius policy tries at one coercive node
        m = rc.make_model("quadratic_bounded", **self.COARSE)
        visited = []
        real = principal._select_slice

        def recording(model, t, X, Y, p, pt, q, qt, r, radius):
            visited.append(radius)
            return real(model, t, X, Y, p, pt, q, qt, r, radius)

        monkeypatch.setattr(principal, "_select_slice", recording)
        args = (0.2, 0.5, 0.1, 0.05, -0.5, 0.02, -0.1, 0.3)
        radius_policy_at(m, *args)
        assert len(set(visited)) >= 3
        for radius in visited:
            assert tuple(rc.eval_G(m, *args, radius)) == oracle_G(m, *args,
                                                                  radius)

    def test_effort_scan_once_per_z(self, monkeypatch):
        """No scalar reference is called, and a scalar-only model's
        primitives, called once per element, are called as often at 21
        gamma points as at 5."""
        def scalar_reference(*args):
            raise AssertionError("eval_G reached a scalar reference")

        for name in ("eval_F", "eval_H", "eval_F_star", "optimal_effort"):
            monkeypatch.setattr(hamiltonians, name, scalar_reference)
        calls = {}

        def counted(name, fn):
            def primitive(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            return primitive

        model = build_model(**{kwarg: counted(kwarg, fn)
                               for kwarg, fn in SCALAR_ONLY.items()},
                            a_points=5, n_points=3, z_points=5)
        args = (0.1, 0.4, 0.2, 0.7, -0.8, -0.3, -0.5, 0.1, 1.0)
        counts = []
        for gamma in (5, 21):
            calls.clear()
            rc.eval_G(model.with_control_grids(gamma=gamma), *args)
            counts.append(dict(calls))
        assert counts[0] == counts[1], counts
        assert set(counts[0]) == set(SCALAR_ONLY), counts


class TestEvalGEdges:
    """Bit-for-bit agreement with the oracle, signed zeros included, where
    the array evaluation could part from the scalar loops; a non-finite
    argument is rejected by name before any evaluation."""

    COARSE = dict(a_grid_points=5, n_grid_points=3, z_grid_points=5,
                  gamma_grid_points=5)

    def test_scalar_only_model(self):
        m = build_model(**SCALAR_ONLY, a_points=5, n_points=4, z_points=5,
                        gamma_points=3)
        assert all(hasattr(getattr(m, name), "__wrapped__") for name in
                   ("drift_b", "vol_sigma", "cost_c", "discount_k",
                    "candidate_effort"))
        rng = np.random.default_rng(17)
        for _ in range(4):
            t, x, y = (float(v) for v in rng.uniform(-1.0, 1.0, size=3))
            p, q, r = (float(v) for v in rng.uniform(-2.0, 2.0, size=3))
            args = (t, x, y, p, -0.7, q, -0.4, r, float(rng.uniform(0.2, 2.0)))
            assert bits(rc.eval_G(m, *args)) == bits(oracle_G(m, *args))

    @pytest.mark.parametrize("preset", ["quadratic_bounded", "risk_neutral"])
    def test_one_point_control_grids(self, preset):
        m = rc.make_model(preset, z_grid_points=1, gamma_grid_points=1,
                          n_grid_points=1)
        args = (0.3, 0.7, 0.2, 0.9, -1.1, 0.4, -0.6, 0.2, 1.5)
        got = rc.eval_G(m, *args)
        assert bits(got) == bits(oracle_G(m, *args))
        if preset == "quadratic_bounded":
            assert (got.z_star, got.gamma_star) == (-1.5, -1.5)

    @pytest.mark.parametrize("p", [0.0, -0.0])
    def test_candidate_zero_meets_grid_zero(self, p):
        m = rc.make_model("risk_neutral", **self.COARSE)
        assert uniform_grid(-1.0, 1.0, 5)[2] == 0.0
        for y in (0.4, -0.4):
            args = (0.2, 0.5, y, p, -0.8, 0.3, -0.5, 0.1, 1.0)
            got = rc.eval_G(m, *args)
            assert bits(got) == bits(oracle_G(m, *args))
            assert math.copysign(1.0, got.z_star) == math.copysign(1.0, p)

    def test_custom_tabulated_level_sets(self):
        # a flat stretch of the profile puts several natures in one level set
        m = rc.make_model("custom_tabulated", n_values=[0.3, 0.6, 1.0],
                          sigma_values=[0.4, 0.4, 0.9], discount=0.2,
                          **dict(self.COARSE, n_grid_points=5))
        rng = np.random.default_rng(23)
        for _ in range(4):
            t, x, y = (float(v) for v in rng.uniform(-1.0, 1.0, size=3))
            p, q, r = (float(v) for v in rng.uniform(-2.0, 2.0, size=3))
            args = (t, x, y, p, -0.9, q, -0.3, r, 1.2)
            assert bits(rc.eval_G(m, *args)) == bits(oracle_G(m, *args))

    @pytest.mark.parametrize("preset,name,value", list(itertools.product(
        ("quadratic_bounded", "risk_neutral"),
        ("p", "p_tilde", "q", "q_tilde", "r", "radius"),
        (math.inf, -math.inf, math.nan))))
    def test_non_finite_argument_is_named(self, preset, name, value):
        m = rc.make_model(preset, **self.COARSE)
        args = dict(p=0.7, p_tilde=-0.8, q=-0.3, q_tilde=-0.5, r=0.1,
                    radius=1.0)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            rc.eval_G(m, 0.2, 0.5, 0.1, **args)


# ---------------------------------------------------------------------------
# optimal_effort
# ---------------------------------------------------------------------------

class TestOptimalEffort:
    def test_closed_form_inside_A(self):
        m = rc.make_model("quadratic_bounded")
        a, ok = rc.optimal_effort(m, 0.0, 0.0, 0.0, 0.3, m.vol_sigma(0.0, 0.0, 0.5) ** 2)
        assert a == 0.3 and ok

    def test_projection_from_above(self):
        m = rc.make_model("quadratic_bounded")
        a, ok = rc.optimal_effort(m, 0.0, 0.0, 0.0, 5.0, m.vol_sigma(0.0, 0.0, 0.5) ** 2)
        assert a == 1.0 and ok

    def test_projection_from_below(self):
        m = rc.make_model("quadratic_bounded")
        a, ok = rc.optimal_effort(m, 0.0, 0.0, 0.0, -2.0, m.vol_sigma(0.0, 0.0, 0.5) ** 2)
        assert a == 0.0 and ok

    def test_closed_form_dominates_grid(self):
        # a coarse effort grid misses the interior optimum; the candidate
        # must still win the enumeration
        m = rc.make_model("quadratic_bounded", a_grid_points=3)
        a, _ = rc.optimal_effort(m, 0.0, 0.0, 0.0, 0.37, m.vol_sigma(0.0, 0.0, 1.0) ** 2)
        assert a == pytest.approx(0.37, abs=1e-12)


# ---------------------------------------------------------------------------
# properties on randomized models
# ---------------------------------------------------------------------------

@st.composite
def model_and_point(draw):
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    model = random_polynomial_model(rng)
    t = rng.uniform(0.0, 1.0)
    x = rng.uniform(-2.0, 2.0)
    y = rng.uniform(-2.0, 2.0)
    z = rng.uniform(-3.0, 3.0)
    n_pick = rng.choice(model.n_grid())
    sigma_sq = float(model.vol_sigma(t, x, n_pick) ** 2)
    return model, t, x, y, z, sigma_sq, rng


@settings(max_examples=40, deadline=None)
@given(model_and_point())
def test_isaacs_gap_nonnegative(data):
    model, t, x, y, z, sigma_sq, _ = data
    assert rc.eval_F_star(model, t, x, y, z, sigma_sq).isaacs_gap >= -1e-12


@settings(max_examples=25, deadline=None)
@given(model_and_point())
def test_H_concavity_in_gamma(data):
    model, t, x, y, z, _, _ = data
    gams = np.linspace(-2.0, 2.0, 9)
    vals = [rc.eval_H(model, t, x, y, z, g).value for g in gams]
    assert np.all(np.diff(vals, n=2) <= 1e-10)


@settings(max_examples=25, deadline=None)
@given(model_and_point())
def test_value_growth_certificate(data):
    model, t, x, y, z, sigma_sq, _ = data
    gp = model.growth_params
    res = rc.eval_F_star(model, t, x, y, z, sigma_sq)
    # envelope constant calibrated for this random family and frozen
    C = 30.0
    bound = C * (1.0 + abs(x) + abs(y) + abs(z) ** gp.value_exponent)
    assert abs(res.value) <= bound


@settings(max_examples=25, deadline=None)
@given(model_and_point())
def test_effort_growth_certificate(data):
    model, t, x, y, z, sigma_sq, _ = data
    a_star, ok = rc.optimal_effort(model, t, x, y, z, sigma_sq)
    assert ok
    assert model.effort_set_A[0] <= a_star <= model.effort_set_A[1]


@settings(max_examples=20, deadline=None)
@given(model_and_point())
def test_brute_force_equivalence_random_models(data):
    model, t, x, y, z, sigma_sq, rng = data
    got = rc.eval_F_star(model, t, x, y, z, sigma_sq)
    want = oracle_F_star(model, t, x, y, z, sigma_sq)
    assert (got.value, got.arg_a, got.arg_n) == want

    gam = rng.uniform(-2.0, 2.0)
    got_h = rc.eval_H(model, t, x, y, z, gam)
    want_h = oracle_H(model, t, x, y, z, gam)
    assert (got_h.value, got_h.arg_a, got_h.arg_n) == want_h

    p, pt, q, qt, r = rng.uniform(-2.0, 2.0, size=5)
    radius = rng.uniform(0.5, 3.0)
    got_g = rc.eval_G(model, t, x, y, p, pt, q, qt, r, radius)
    want_g = oracle_G(model, t, x, y, p, pt, q, qt, r, radius)
    assert tuple(got_g) == want_g


def test_radius_sufficiency_risk_neutral():
    # the exact candidate (p, q) lies in the envelope radius
    # max(|p|, |q|, R_MIN), so a doubled box finds nothing better
    m = rc.make_model("risk_neutral")
    rng = np.random.default_rng(3)
    for _ in range(10):
        p, q = rng.uniform(-2, 2, size=2)
        radius = max(abs(p), abs(q), R_MIN)
        v1 = rc.eval_G(m, 0, 0, 0, p, -1.0, q, 0.0, 0.0, radius).value
        v2 = rc.eval_G(m, 0, 0, 0, p, -1.0, q, 0.0, 0.0, 2 * radius).value
        assert abs(v2 - v1) <= 1e-9


def test_radius_sufficiency_coercive_model():
    m = rc.make_model("quadratic_bounded", n_grid_points=3, z_grid_points=9,
                      gamma_grid_points=9, a_grid_points=9)
    t, x, y = 0.0, 0.5, 0.2
    p, q, pt, qt, r = 0.5, -0.3, -1.0, -1.0, 0.0
    radius = radius_policy_at(m, t, x, y, p, pt, q, qt, r).radius
    v1 = rc.eval_G(m, t, x, y, p, pt, q, qt, r, radius).value
    v2 = rc.eval_G(m, t, x, y, p, pt, q, qt, r, 2 * radius).value
    # a doubled box with the same point count halves the sampling resolution;
    # allow the value to move by one grid step of the observed local slope
    z_grid = uniform_grid(-2 * radius, 2 * radius, m.z_grid_points)
    step = float(z_grid[1] - z_grid[0])
    samples = [rc.eval_g(m, t, x, y, p, pt, q, qt, r, zv, 0.0, 0.5)
               for zv in z_grid]
    slope = max(abs(np.diff(samples))) / step
    assert abs(v2 - v1) <= 2.0 * slope * step + 1e-9


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

class TestModelValidation:
    def test_rejects_vanishing_volatility(self):
        with pytest.raises(ValueError, match="positive"):
            build_model(sigma=lambda t, x, n: 0.0)

    def test_rejects_concave_cost(self):
        with pytest.raises(ValueError, match="convex"):
            build_model(c=lambda t, x, a: np.sqrt(a))

    def test_rejects_decreasing_cost(self):
        with pytest.raises(ValueError, match="increasing"):
            build_model(c=lambda t, x, a: (1.0 - a) ** 2)

    def test_rejects_unbounded_discount(self):
        with pytest.raises(ValueError, match="kappa"):
            build_model(k=lambda t, x, a, n: 5.0, kappa=1.0)

    def test_rejects_inexact_inverse(self):
        with pytest.raises(ValueError, match="inverse"):
            build_model(u_a=lambda w: w, u_a_inv=lambda y: y + 1e-6)

    def test_rejects_bad_effort_interval(self):
        with pytest.raises(ValueError, match="effort"):
            build_model(A=(0.5, 1.0))

    def test_degenerate_vol_flag_allows_zero_sigma(self):
        m = build_model(sigma=lambda t, x, n: 0.0, allow_degenerate_vol=True)
        assert m.vol_sigma(0.0, 0.0, 1.0) == 0.0
