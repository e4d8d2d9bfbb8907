"""The coefficient contract of ``ModelSpec`` and ``ContractFunction``.

Primitives broadcast over array arguments, or construction wraps them once
in ``hamiltonians.elementwise``; ``candidate_zgamma`` must broadcast.
"""

import dataclasses
import math

import numpy as np
import pytest

import helpers
from helpers import build_model, random_polynomial_model
from robustcontract import agent, presets, principal, sim
from robustcontract.hamiltonians import ModelSpec

PRIMITIVES = ("drift_b", "vol_sigma", "cost_c", "discount_k",
              "candidate_effort", "utility_agent", "utility_agent_inv",
              "utility_principal", "liquidation_L")

PRESET_PARAMS = {"custom_tabulated": {"n_values": (1.0, 2.0),
                                      "sigma_values": (0.3, 0.5)}}

GRIDS = dict(a_points=3, n_points=3, z_points=5, gamma_points=5)
AGENT_GRID = dict(x_lo=-2.0, x_hi=2.0, x_nodes=21, t_steps=80, horizon=0.25)
PRINCIPAL_GRID = principal.GridSpec(x_lo=-1.0, x_hi=1.0, x_nodes=7, y_lo=-1.0,
                                    y_hi=1.0, y_nodes=7, t_steps=2,
                                    horizon=0.05)
LINEAR = agent.ContractFunction.from_preset("linear:1,0")
# the maximizer over a of build_model's default running payoff z*a - a^2/2
CANDIDATE_EFFORT = lambda t, x, z, sigma: z


def spy_on(monkeypatch, module):
    """Record the keyword arguments ``module`` passes to ``ModelSpec``."""
    seen = []

    def spy(**kw):
        seen.append(kw)
        return ModelSpec(**kw)

    monkeypatch.setattr(module, "ModelSpec", spy)
    return seen


def outputs(model, contract=LINEAR):
    """Every array the agent solver, the principal solver and the Monte
    Carlo engine return for ``model``, as bytes."""
    got = {}
    sol = agent.solve_agent(model, contract, **AGENT_GRID)
    for name in ("values", "effort", "nature"):
        got[f"agent.{name}"] = getattr(sol, name).tobytes()
    sol = principal.solve_hjbi(model, PRINCIPAL_GRID)
    for name in ("values", "z", "gamma", "effort", "nature", "k_rate",
                 "fstar"):
        got[f"principal.{name}"] = getattr(sol, name).tobytes()
    got["principal.diagnostics"] = repr(sol.diagnostics)
    res = sim.simulate_system(model, principal.extract_contract(sol), None,
                              sim.SimConfig(paths=300, dt=0.0125, seed=5,
                                            x0=0.1, y0=0.2))
    for name in ("terminal_x", "terminal_y", "realized_qv"):
        got[f"sim.{name}"] = getattr(res, name).tobytes()
    got["sim.estimates"] = repr((res.principal_estimate, res.agent_estimate,
                                 res.quarantined, res.discount_bounds))
    return got


@pytest.mark.parametrize("name", sorted(presets.PRESETS))
def test_presets_keep_their_own_callables(monkeypatch, name):
    seen = spy_on(monkeypatch, presets)
    model = presets.make_model(name, **PRESET_PARAMS.get(name, {}))
    for prim in PRIMITIVES:
        assert getattr(model, prim) is seen[0].get(prim), prim


# each preset's fields beside its primitives, at the parameters above:
# (effort_set_A, nature_set_N, truncation_M, allow_degenerate_vol,
#  agent_nature_set)
PRESET_FIELDS = {
    "risk_neutral": ((0.0, 1.0), (0.5, 1.0), 6.0, False, None),
    "quadratic_bounded": ((0.0, 1.0), (0.5, 1.0), 2.0, False, None),
    "heat_band": ((0.0, 1.0), (0.2, 0.4), 2.0, False, None),
    "disjoint_beliefs": ((0.0, 1.0), (0.3, 0.5), 2.0, False, (0.1, 0.2)),
    "zero_vol": ((0.0, 1.0), (1.0, 1.0), 2.0, True, None),
    "custom_tabulated": ((0.0, 1.0), (1.0, 2.0), 2.0, False, None),
}


@pytest.mark.parametrize("name", sorted(presets.PRESETS))
def test_presets_keep_their_shared_defaults(name):
    model = presets.make_model(name, **PRESET_PARAMS.get(name, {}))
    # a zero discount still bounds the rate by a positive kappa
    kappa = 1e-6 if name == "custom_tabulated" else 1.0
    assert model.kappa == kappa
    assert (model.effort_set_A, model.nature_set_N, model.truncation_M,
            model.allow_degenerate_vol,
            model.agent_nature_set) == PRESET_FIELDS[name]
    assert model.payoff_free_of_nature


@pytest.mark.parametrize("n_values, sigma_values, message", [
    ((1.0, 2.0), (0.3,), "1-D and equal length"),
    ((1.0, 1.0), (0.3, 0.5), "strictly increasing"),
])
def test_custom_tabulated_rejects_a_bad_table(n_values, sigma_values,
                                              message):
    with pytest.raises(ValueError, match=message):
        presets.custom_tabulated(n_values, sigma_values)


# each preset's float parameters at valid values; a list's entries are
# probed one at a time
FLOAT_PARAMS = {
    "risk_neutral": dict(n_band=[0.5, 1.0], a_bar=1.0, truncation_M=6.0),
    "quadratic_bounded": dict(M=2.0, a_bar=1.0, n_band=[0.5, 1.0], w0=2.0),
    "heat_band": dict(band=[0.2, 0.4], truncation_M=2.0),
    "disjoint_beliefs": dict(agent_band=[0.1, 0.2],
                             principal_band=[0.3, 0.5], truncation_M=2.0),
    "zero_vol": dict(truncation_M=2.0),
    "custom_tabulated": dict(n_values=[1.0, 2.0], sigma_values=[0.3, 0.5],
                             a_bar=1.0, discount=0.0, truncation_M=2.0),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name, key, slot", [
    (name, key, slot) for name, params in FLOAT_PARAMS.items()
    for key, v in params.items()
    for slot in (range(len(v)) if isinstance(v, list) else [None])])
def test_a_non_finite_preset_parameter_is_refused(name, key, slot, value):
    params = {k: list(v) if isinstance(v, list) else v
              for k, v in FLOAT_PARAMS[name].items()}
    presets.make_model(name, **params)
    if slot is None:
        params[key] = value
    else:
        params[key][slot] = value
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        presets.make_model(name, **params)


def test_make_model_rejects_an_unknown_name():
    with pytest.raises(KeyError, match="unknown model preset 'nope'"):
        presets.make_model("nope")


def test_preset_params_may_not_restate_a_shared_field():
    with pytest.raises(TypeError, match="multiple values.*kappa"):
        presets.make_model("heat_band", kappa=5.0)


def test_random_polynomial_models_keep_their_own_callables(monkeypatch):
    seen = spy_on(monkeypatch, helpers)
    for seed in range(6):
        model = random_polynomial_model(np.random.default_rng(seed))
        for prim in PRIMITIVES:
            assert getattr(model, prim) is seen[-1].get(prim), prim


def test_contract_presets_keep_their_payment(tmp_path):
    table = tmp_path / "pay.txt"
    np.savetxt(table, [[-1.0, 0.0], [0.0, 0.5], [2.0, 1.0]])
    for text in ("linear:0.7,0.1", "call:0.5", f"tabulated:{table}"):
        payment = agent.ContractFunction.from_preset(text).payment
        assert not hasattr(payment, "__wrapped__"), text


# scalar-only primitives (a Python ``if``, ``min`` or ``float()`` on the
# arguments) and NumPy twins that give the same value at every point
SCALAR_AND_TWIN = {
    "drift_b": ("b", lambda t, x, a, n: a if n > 1.5 else 0.5 * a,
                lambda t, x, a, n: np.where(n > 1.5, a, 0.5 * a)),
    "vol_sigma": ("sigma", lambda t, x, n: n if x < 0.5 else 1.25 * n,
                  lambda t, x, n: np.where(x < 0.5, n, 1.25 * n)),
    "cost_c": ("c", lambda t, x, a: 0.5 * a * a if x < 0.0 else a * a,
               lambda t, x, a: np.where(x < 0.0, 0.5 * a * a, a * a)),
    "discount_k": ("k", lambda t, x, a, n: 0.25 if x > 0.0 else 0.0,
                   lambda t, x, a, n: np.where(x > 0.0, 0.25, 0.0)),
    "candidate_effort": (
        "candidate_effort",
        lambda t, x, z, sigma: float(np.clip(z, 0.0, 1.0)),
        lambda t, x, z, sigma: np.clip(z, 0.0, 1.0)),
    "utility_agent": ("u_a", lambda w: w if w < 0.0 else 0.5 * w,
                      lambda w: np.where(w < 0.0, w, 0.5 * w)),
    "utility_agent_inv": ("u_a_inv", lambda y: y if y < 0.0 else 2.0 * y,
                          lambda y: np.where(y < 0.0, y, 2.0 * y)),
    "utility_principal": ("u_p", lambda w: min(w, 1.9),
                          lambda w: np.minimum(w, 1.9)),
    "liquidation_L": ("L", lambda x: x if x < 1.0 else 0.5 + 0.5 * x,
                      lambda x: np.where(x < 1.0, x, 0.5 + 0.5 * x)),
}

# the agent utility and its inverse come as a pair; each case swaps one
PARTNER = {"utility_agent": ("u_a_inv", SCALAR_AND_TWIN["utility_agent_inv"][2]),
           "utility_agent_inv": ("u_a", SCALAR_AND_TWIN["utility_agent"][2])}


@pytest.mark.parametrize("prim", sorted(SCALAR_AND_TWIN))
def test_scalar_only_primitive_is_wrapped_and_matches_its_twin(prim):
    kwarg, scalar, twin = SCALAR_AND_TWIN[prim]
    extra = dict([PARTNER[prim]]) if prim in PARTNER else {}
    wrapped = build_model(**{kwarg: scalar}, **extra, **GRIDS)
    vectorized = build_model(**{kwarg: twin}, **extra, **GRIDS)
    assert getattr(wrapped, prim).__wrapped__ is scalar
    assert getattr(vectorized, prim) is twin
    assert outputs(wrapped) == outputs(vectorized)


def test_scalar_only_payment_is_wrapped_and_matches_its_twin():
    scalar = agent.ContractFunction(lambda x: x if x > 0.0 else 0.25 * x)
    twin = agent.ContractFunction(lambda x: np.where(x > 0.0, x, 0.25 * x))
    assert hasattr(scalar.payment, "__wrapped__")
    assert not hasattr(twin.payment, "__wrapped__")
    model = build_model(**GRIDS)
    for name in ("values", "effort", "nature"):
        got = getattr(agent.solve_agent(model, scalar, **AGENT_GRID), name)
        want = getattr(agent.solve_agent(model, twin, **AGENT_GRID), name)
        assert got.tobytes() == want.tobytes()


def test_scalar_calls_reach_the_primitive_itself():
    seen = []

    def drift(t, x, a, n):
        seen.append((t, x, a, n))
        return a if n > 1.5 else 0.5 * a

    model = build_model(b=drift, **GRIDS)
    seen.clear()
    assert model.drift_b(0.1, 0.2, 0.5, 2.0) == 0.5
    assert seen == [(0.1, 0.2, 0.5, 2.0)]


def test_broadcasting_drift_with_wrong_values_is_wrapped():
    def max_drift(t, x, a, n):
        return a * np.max(n)

    model = build_model(b=max_drift, **GRIDS)
    assert model.drift_b.__wrapped__ is max_drift
    twin = build_model(b=lambda t, x, a, n: a * n, **GRIDS)
    assert outputs(model) == outputs(twin)


def test_error_inside_a_broadcasting_coefficient_propagates():
    def drift(t, x, a, n):
        if np.size(x) > 16:
            raise RuntimeError("coefficient failed on a solver-sized array")
        return a * n

    model = build_model(b=drift, **GRIDS)
    assert model.drift_b is drift
    with pytest.raises(RuntimeError, match="solver-sized array"):
        agent.solve_agent(model, LINEAR, **AGENT_GRID)


@pytest.mark.parametrize("hook", [
    lambda t, x, y, p, q: [(p if p > 0.0 else 0.0, q)],
    lambda t, x, y, p, q: [(float(p), float(q))],
    lambda t, x, y, p, q: [(np.max(p), q)],
], ids=["python-if", "float", "wrong-values"])
def test_non_broadcasting_candidate_zgamma_is_rejected(hook):
    with pytest.raises(ValueError, match="^candidate_zgamma must broadcast"):
        build_model(candidate_zgamma=hook, candidate_effort=CANDIDATE_EFFORT,
                    **GRIDS)


def test_broadcasting_candidate_zgamma_is_kept():
    def hook(t, x, y, p, q):
        return [(p, q), (0.5 * p, 0.25)]

    model = build_model(candidate_zgamma=hook,
                        candidate_effort=CANDIDATE_EFFORT, **GRIDS)
    assert model.candidate_zgamma is hook


def test_candidate_zgamma_without_candidate_effort_is_rejected():
    # candidates-only selection skips the effort grid, so exact (z, gamma)
    # candidates need the exact effort that goes with them
    with pytest.raises(ValueError, match="^candidate_zgamma needs a "
                                         "candidate_effort$"):
        build_model(candidate_zgamma=lambda t, x, y, p, q: [(p, q)], **GRIDS)


def test_replace_dropping_candidate_effort_is_rejected():
    # a copy re-runs the check, so the preset's exact candidates cannot
    # lose their effort
    model = presets.make_model("risk_neutral")
    with pytest.raises(ValueError, match="^candidate_zgamma needs a "
                                         "candidate_effort$"):
        dataclasses.replace(model, candidate_effort=None)


def test_coarse_copy_calls_no_primitive_and_solves_like_a_rebuilt_model():
    calls = []

    def spied(fn):
        def call(*args):
            calls.append(fn)
            return fn(*args)
        return call

    # the scalar-only drift is wrapped, every other primitive broadcasts
    model = build_model(b=spied(SCALAR_AND_TWIN["drift_b"][1]),
                        sigma=spied(lambda t, x, n: n),
                        c=spied(lambda t, x, a: 0.5 * a * a),
                        k=spied(lambda t, x, a, n: 0.1 * n),
                        candidate_effort=spied(lambda t, x, z, sigma: z),
                        u_a=spied(lambda w: w), u_a_inv=spied(lambda y: y),
                        u_p=spied(lambda w: w), L=spied(lambda x: x), **GRIDS)
    calls.clear()
    coarse = model.with_control_grids(a=2, n=2, gamma=3)
    assert calls == []
    assert (coarse.a_grid_points, coarse.n_grid_points, coarse.z_grid_points,
            coarse.gamma_grid_points) == (2, 2, 5, 3)
    for prim in PRIMITIVES:
        assert getattr(coarse, prim) is getattr(model, prim), prim
    rebuilt = dataclasses.replace(model, a_grid_points=2, n_grid_points=2,
                                  gamma_grid_points=3)
    assert calls, "a rebuilt model probes its primitives"
    assert outputs(coarse) == outputs(rebuilt)
    with pytest.raises(ValueError, match="at least one point"):
        model.with_control_grids(z=0)


@pytest.mark.parametrize("drift, discount, n_points, free", [
    # the thin drift probe of a two-point nature grid still sees both points
    (lambda t, x, a, n: a * n, None, 2, False),
    (None, lambda t, x, a, n: 0.1 * n, 2, False),
    (lambda t, x, a, n: np.where(n > 1.5, a, 0.5 * a), None, 5, False),
    # reads nature only at |x| > 3, off the probe points (|x| <= M + 0.95):
    # the values agree there, but the result carries a nature axis
    (lambda t, x, a, n: a + n * np.maximum(np.abs(x) - 3.0, 0.0), None, 5,
     False),
    # broadcasts to every axis without reading nature: not shown free
    (lambda t, x, a, n: a + 0.0 * n, None, 5, False),
    (None, None, 2, True),
    # a one-point grid's probes take the nature set's two ends
    (None, None, 1, True),
    (lambda t, x, a, n: a * n, None, 1, False),
    (None, lambda t, x, a, n: 0.1 * n, 1, False),
])
def test_payoff_free_of_nature_is_read_from_the_probes(drift, discount,
                                                       n_points, free):
    model = build_model(b=drift, k=discount, a_points=3, n_points=n_points,
                        z_points=5, gamma_points=5)
    assert model.payoff_free_of_nature is free


@pytest.mark.parametrize("name", sorted(presets.PRESETS))
def test_presets_have_payoffs_free_of_nature(name):
    # every preset's drift and discount ignore the volatility control
    model = presets.make_model(name, **PRESET_PARAMS.get(name, {}))
    assert model.payoff_free_of_nature
    assert model.with_control_grids(n=2).payoff_free_of_nature


@pytest.mark.parametrize("name", ["risk_neutral", "quadratic_bounded",
                                  "custom_tabulated"])
def test_presets_with_a_candidate_keep_a_free_payoff_on_one_nature_point(name):
    # one nature grid value shows nothing about the payoff, so the shape
    # probes take the nature set's ends, and the engine still plays the
    # candidate effort
    model = presets.make_model(name, n_grid_points=1,
                               **PRESET_PARAMS.get(name, {}))
    assert model.candidate_effort is not None
    assert model.payoff_free_of_nature


def test_the_kappa_bound_is_checked_on_the_nature_grid_only():
    # k = 0.5 n is within kappa = 1 at the one grid point n = 1 but not at
    # the nature set's other end, which only the shape probe reads
    model = build_model(k=lambda t, x, a, n: 0.5 * n, N=(1.0, 3.0),
                        n_points=1)
    assert not model.payoff_free_of_nature
    with pytest.raises(ValueError, match="kappa bound"):
        build_model(k=lambda t, x, a, n: 0.5 * n, N=(1.0, 3.0), n_points=2)
