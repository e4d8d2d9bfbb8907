"""Configuration-driven pipelines over the solvers and the simulator.

Commands
--------
solve-agent      robust agent value surface for a terminal contract
solve-principal  HJBI value surface plus the extracted contract policy
simulate         Monte Carlo run of the coupled state system
verify           consistency checks against a prior run's artifacts
sweep            one-axis parameter study with a summary table

Every command reads one YAML config (``--config``), writes plain-text
columnar artifacts plus a checksummed manifest into the output directory
(``--out``, the ROBUSTCONTRACT_OUT environment variable, or the config's
``out`` key), and exits 0 on success, 2 on a config error, 3 on a missing
artifact and 4 on a verification failure.  Identical configs produce
byte-identical numeric artifacts; wall-clock timings live in a sidecar
that is excluded from the checksums.

Config schema (unknown keys are rejected, never defaulted)
----------------------------------------------------------
model:      ``preset`` (one of the named model constructors) and an
            optional ``params`` map handed to it.  Lists become tuples;
            ``utility_principal`` accepts the tokens ``identity`` and
            ``bounded_exp`` (1 - exp(-x)).
grid:       solve-principal and band_width sweeps take ``x_lo x_hi
            x_nodes y_lo y_hi y_nodes t_steps horizon``; solve-agent
            takes the same without the y axis.
contract:   ``payment``: "linear:slope,intercept" | "call:strike" |
            "tabulated:path".
sim:        ``paths dt seed`` and optional ``x0 y0``.
policy:     constant contract for simulate: ``horizon`` plus optional
            ``z k_rate nature``.
artifacts:  path to a prior solve-principal output directory
            (simulate source).
nature:     optional volatility scenario for simulate: ``values`` on
            equal subintervals of the horizon.
options:    solve-principal: optional ``x0 reservation cfl_safety``;
            m_salary sweeps: optional ``horizon``; band_width sweeps:
            optional ``x0``.
verify:     ``artifacts`` plus optional ``paths dt seed perturbations
            probes martingale_tolerance``.
sweep:      ``axis`` (m_salary | band_width) and ``values``.
out:        default output directory (string).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import yaml

from . import export, sim
from .agent import ContractFunction, solve_agent
from .hamiltonians import ModelSpec
from .presets import PRESETS, make_model
from .principal import ContractPolicy, GridSpec, optimize_y0, solve_hjbi
from .sim import NatureStrategy, SimConfig

__all__ = [
    "RunConfig", "ConfigError", "MissingArtifact", "VerificationFailure",
    "EXIT_OK", "EXIT_CONFIG", "EXIT_MISSING", "EXIT_VERIFY",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_VERIFY = 4


class ConfigError(Exception):
    """Bad or inconsistent run configuration (exit code 2)."""


class MissingArtifact(Exception):
    """A referenced artifact directory or file is absent (exit code 3)."""


class VerificationFailure(Exception):
    """A check ran and failed (exit code 4)."""


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_KINDS = {
    "num": (_is_num, "a number"),
    "int": (_is_int, "an integer"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "map": (lambda v: isinstance(v, dict), "a mapping"),
    "list": (lambda v: isinstance(v, list), "a list"),
}


def _check_keys(section: dict, path: str, spec: dict[str, str],
                required: tuple[str, ...] = ()) -> None:
    """Reject unknown keys, demand required ones, check scalar kinds."""
    if not isinstance(section, dict):
        raise ConfigError(f"'{path}' must be a mapping")
    for key in section:
        if key not in spec:
            raise ConfigError(f"unknown key '{path}.{key}'")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing required key '{path}.{key}'")
    for key, value in section.items():
        check, label = _KINDS[spec[key]]
        if not check(value):
            raise ConfigError(f"'{path}.{key}' must be {label}")


_MODEL_SPEC = {"preset": "str", "params": "map"}
_AGENT_GRID_SPEC = {"x_lo": "num", "x_hi": "num", "x_nodes": "int",
                    "t_steps": "int", "horizon": "num"}
_FULL_GRID_SPEC = dict(_AGENT_GRID_SPEC,
                       y_lo="num", y_hi="num", y_nodes="int")
_SIM_SPEC = {"paths": "int", "dt": "num", "seed": "int",
             "x0": "num", "y0": "num"}
_POLICY_SPEC = {"horizon": "num", "z": "num", "k_rate": "num",
                "nature": "num"}
_VERIFY_SPEC = {"artifacts": "str", "paths": "int", "dt": "num",
                "seed": "int", "perturbations": "int", "probes": "int",
                "martingale_tolerance": "num"}

_TOP_SPECS = {
    "solve-agent": {"model": "map", "contract": "map", "grid": "map",
                    "out": "str"},
    "solve-principal": {"model": "map", "grid": "map", "options": "map",
                        "out": "str"},
    "simulate": {"model": "map", "sim": "map", "policy": "map",
                 "artifacts": "str", "nature": "map", "out": "str"},
    "verify": {"verify": "map", "out": "str"},
    "sweep": {"sweep": "map", "model": "map", "sim": "map",
              "contract": "map", "grid": "map", "options": "map",
              "out": "str"},
}


def _validate_model(section: dict) -> None:
    _check_keys(section, "model", _MODEL_SPEC, required=("preset",))
    if section["preset"] not in PRESETS:
        raise ConfigError(
            f"unknown model preset '{section['preset']}'; "
            f"known: {sorted(PRESETS)}")


def _validate_values_list(values, path: str) -> None:
    if not isinstance(values, list) or not all(_is_num(v) for v in values):
        raise ConfigError(f"'{path}' must be a list of numbers")


def _validate_config(command: str, doc: dict) -> None:
    _check_keys(doc, "config", _TOP_SPECS[command])

    if command == "solve-agent":
        for key in ("model", "contract", "grid"):
            if key not in doc:
                raise ConfigError(f"missing required key '{key}'")
        _validate_model(doc["model"])
        _check_keys(doc["contract"], "contract", {"payment": "str"},
                    required=("payment",))
        _check_keys(doc["grid"], "grid", _AGENT_GRID_SPEC,
                    required=tuple(_AGENT_GRID_SPEC))

    elif command == "solve-principal":
        for key in ("model", "grid"):
            if key not in doc:
                raise ConfigError(f"missing required key '{key}'")
        _validate_model(doc["model"])
        _check_keys(doc["grid"], "grid", _FULL_GRID_SPEC,
                    required=tuple(_FULL_GRID_SPEC))
        _check_keys(doc.get("options", {}), "options",
                    {"x0": "num", "reservation": "num",
                     "cfl_safety": "num"})

    elif command == "simulate":
        if "sim" not in doc:
            raise ConfigError("missing required key 'sim'")
        _check_keys(doc["sim"], "sim", _SIM_SPEC,
                    required=("paths", "dt", "seed"))
        has_art, has_pol = "artifacts" in doc, "policy" in doc
        if has_art and has_pol:
            raise ConfigError("give either 'artifacts' or 'policy', not both")
        if not has_art and not has_pol:
            raise ConfigError("missing required key 'artifacts' or 'policy'")
        if has_art and "model" in doc:
            raise ConfigError(
                "the model is read from the artifact manifest; remove the "
                "'model' section")
        if has_pol:
            if "model" not in doc:
                raise ConfigError("missing required key 'model'")
            _validate_model(doc["model"])
            _check_keys(doc["policy"], "policy", _POLICY_SPEC,
                        required=("horizon",))
        if "nature" in doc:
            _check_keys(doc["nature"], "nature", {"values": "list"},
                        required=("values",))
            _validate_values_list(doc["nature"]["values"], "nature.values")

    elif command == "verify":
        if "verify" not in doc:
            raise ConfigError("missing required key 'verify'")
        _check_keys(doc["verify"], "verify", _VERIFY_SPEC,
                    required=("artifacts",))

    elif command == "sweep":
        if "sweep" not in doc:
            raise ConfigError("missing required key 'sweep'")
        _check_keys(doc["sweep"], "sweep", {"axis": "str", "values": "list"},
                    required=("axis", "values"))
        _validate_values_list(doc["sweep"]["values"], "sweep.values")
        axis = doc["sweep"]["axis"]
        if axis == "m_salary":
            for key in ("model", "sim"):
                if key not in doc:
                    raise ConfigError(f"missing required key '{key}'")
            for key in ("contract", "grid"):
                if key in doc:
                    raise ConfigError(
                        f"unknown key '{key}' for an m_salary sweep")
            _validate_model(doc["model"])
            _check_keys(doc["sim"], "sim", _SIM_SPEC,
                        required=("paths", "dt", "seed"))
            _check_keys(doc.get("options", {}), "options",
                        {"horizon": "num"})
        elif axis == "band_width":
            for key in ("model", "contract", "grid"):
                if key not in doc:
                    raise ConfigError(f"missing required key '{key}'")
            if "sim" in doc:
                raise ConfigError("unknown key 'sim' for a band_width sweep")
            _validate_model(doc["model"])
            _check_keys(doc["contract"], "contract", {"payment": "str"},
                        required=("payment",))
            _check_keys(doc["grid"], "grid", _AGENT_GRID_SPEC,
                        required=tuple(_AGENT_GRID_SPEC))
            _check_keys(doc.get("options", {}), "options", {"x0": "num"})
        else:
            raise ConfigError(
                f"unknown sweep axis '{axis}'; known: band_width, m_salary")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration for one command.

    Parsing rejects unknown keys with their dotted path and reports YAML
    syntax errors with the line number; the mapping is stored verbatim so
    serialize/parse round-trips unchanged.
    """

    command: str
    mapping: dict

    @classmethod
    def parse(cls, text: str, command: str) -> "RunConfig":
        if command not in _TOP_SPECS:
            raise ConfigError(f"unknown command '{command}'")
        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}" if mark is not None else ""
            problem = getattr(exc, "problem", None) or str(exc)
            raise ConfigError(f"cannot parse config{where}: {problem}")
        if not isinstance(doc, dict):
            raise ConfigError("config must be a YAML mapping")
        _validate_config(command, doc)
        return cls(command, doc)

    def serialize(self) -> str:
        return export.canonical_yaml(self.mapping)

    def sha256(self) -> str:
        return export.sha256_text(self.serialize())

    def effective(self, seed_override: int | None) -> dict:
        """Deep copy with CLI overrides applied and 'out' stripped.

        This is the mapping the manifest embeds: it fully determines the
        run regardless of where the artifacts land.
        """
        conf = yaml.safe_load(self.serialize())
        conf.pop("out", None)
        if seed_override is not None:
            if seed_override < 0:
                raise ConfigError("--seed must be nonnegative")
            for section in ("sim", "verify"):
                if section in conf:
                    conf[section]["seed"] = int(seed_override)
        return conf


# ---------------------------------------------------------------------------
# building domain objects from config sections
# ---------------------------------------------------------------------------

_UTILITIES = {
    "identity": lambda v: v,
    "bounded_exp": lambda v: 1.0 - np.exp(-v),
}


def _translate_params(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if key == "utility_principal":
            if value not in _UTILITIES:
                raise ConfigError(
                    f"model.params.utility_principal: unknown token "
                    f"{value!r}; known: {sorted(_UTILITIES)}")
            out[key] = _UTILITIES[value]
        elif isinstance(value, list):
            if not all(_is_num(v) for v in value):
                raise ConfigError(
                    f"model.params.{key}: lists must hold numbers")
            out[key] = tuple(float(v) for v in value)
        else:
            out[key] = value
    return out


def _build_model(section: dict) -> ModelSpec:
    params = _translate_params(section.get("params", {}))
    try:
        return make_model(section["preset"], **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model.params: {exc}")


def _build_contract(section: dict) -> ContractFunction:
    try:
        return ContractFunction.from_preset(section["payment"])
    except (ValueError, OSError) as exc:
        raise ConfigError(f"contract.payment: {exc}")


def _build_gridspec(section: dict) -> GridSpec:
    try:
        return GridSpec(**{k: section[k] for k in _FULL_GRID_SPEC})
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}")


def _build_simconfig(section: dict, **defaults) -> SimConfig:
    merged = dict(defaults)
    merged.update({k: section[k] for k in ("x0", "y0") if k in section})
    try:
        return SimConfig(paths=section["paths"], dt=section["dt"],
                         seed=section["seed"], **merged)
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}")


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------

def _tx_columns(t_grid: np.ndarray, x_grid: np.ndarray):
    return (np.repeat(t_grid, len(x_grid)),
            np.tile(x_grid, len(t_grid)))


def _txy_columns(t_grid, x_grid, y_grid):
    nt, nx, ny = len(t_grid), len(x_grid), len(y_grid)
    return (np.repeat(t_grid, nx * ny),
            np.tile(np.repeat(x_grid, ny), nt),
            np.tile(y_grid, nt * nx))


def _write_agent_surfaces(out_dir: str, sol) -> list[str]:
    t_col, x_col = _tx_columns(sol.t_grid, sol.x_grid)
    trio = [("agent_value.txt", "value", sol.values),
            ("agent_effort.txt", "effort", sol.effort),
            ("agent_worst_vol.txt", "worst_vol", sol.nature)]
    for name, column, field in trio:
        export.write_table(os.path.join(out_dir, name),
                           ("t", "x", column),
                           (t_col, x_col, field.ravel()))
    return [name for name, _, _ in trio]


_POLICY_FIELDS = ("z", "gamma", "effort", "nature", "k_rate", "fstar")


def _write_principal_surfaces(out_dir: str, sol) -> list[str]:
    t_col, x_col, y_col = _txy_columns(sol.t_grid, sol.x_grid, sol.y_grid)
    export.write_table(os.path.join(out_dir, "value_surface.txt"),
                       ("t", "x", "y", "value"),
                       (t_col, x_col, y_col, sol.values.ravel()))
    export.write_table(
        os.path.join(out_dir, "policy.txt"),
        ("t", "x", "y") + _POLICY_FIELDS,
        (t_col, x_col, y_col)
        + tuple(getattr(sol, f).ravel() for f in _POLICY_FIELDS))
    return ["value_surface.txt", "policy.txt"]


def _write_estimates(out_dir: str, res) -> list[str]:
    export.write_table(
        os.path.join(out_dir, "estimates.txt"),
        ("principal_mean", "principal_ci", "agent_mean", "agent_ci",
         "paths_used", "quarantined", "discount_lo", "discount_hi"),
        ([res.principal_estimate.mean], [res.principal_estimate.ci_halfwidth],
         [res.agent_estimate.mean], [res.agent_estimate.ci_halfwidth],
         [res.paths_used], [res.quarantined],
         [res.discount_bounds[0]], [res.discount_bounds[1]]))
    return ["estimates.txt"]


# ---------------------------------------------------------------------------
# artifact loading
# ---------------------------------------------------------------------------

def _read_manifest(art_dir: str) -> dict:
    try:
        return export.read_manifest(art_dir)
    except FileNotFoundError:
        raise MissingArtifact(f"no {export.MANIFEST_NAME} in '{art_dir}'")
    except ValueError as exc:
        raise MissingArtifact(str(exc))


def _artifact_table(art_dir: str, name: str) -> dict[str, np.ndarray]:
    try:
        return export.read_table(os.path.join(art_dir, name))
    except FileNotFoundError:
        raise MissingArtifact(f"no {name} in '{art_dir}'")


def _load_principal(art_dir: str) -> SimpleNamespace:
    """Rebuild model, grid, policy and value surface from a solve dir."""
    manifest = _read_manifest(art_dir)
    if manifest.get("command") != "solve-principal":
        raise MissingArtifact(
            f"'{art_dir}' holds a {manifest.get('command')!r} run, "
            "not solve-principal")
    conf = manifest["config"]
    model = _build_model(conf["model"])
    grid = _build_gridspec(conf["grid"])
    shape = (grid.t_steps + 1, grid.x_nodes, grid.y_nodes)
    rows = shape[0] * shape[1] * shape[2]

    pol_tab = _artifact_table(art_dir, "policy.txt")
    surf_tab = _artifact_table(art_dir, "value_surface.txt")
    if len(pol_tab["z"]) != rows or len(surf_tab["value"]) != rows:
        raise MissingArtifact(
            f"artifact rows in '{art_dir}' do not match the manifest grid")

    policy = ContractPolicy(
        t_grid=grid.t_grid(), x_grid=grid.x_grid(), y_grid=grid.y_grid(),
        **{f: pol_tab[f].reshape(shape) for f in _POLICY_FIELDS})
    surface = SimpleNamespace(
        t_grid=grid.t_grid(), x_grid=grid.x_grid(), y_grid=grid.y_grid(),
        values=surf_tab["value"].reshape(shape))

    y0_star = None
    if "y0.txt" in manifest["artifacts"]:
        y0_star = float(_artifact_table(art_dir, "y0.txt")["y0"][0])
    x0 = float(conf.get("options", {}).get("x0", 0.0))
    return SimpleNamespace(manifest=manifest, config=conf, model=model,
                           grid=grid, policy=policy, surface=surface,
                           y0_star=y0_star, x0=x0)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def cmd_solve_agent(run: RunConfig, out_dir: str,
                    seed_override: int | None) -> int:
    conf = run.effective(seed_override)
    model = _build_model(conf["model"])
    contract = _build_contract(conf["contract"])
    g = conf["grid"]
    started = time.perf_counter()
    try:
        sol = solve_agent(model, contract,
                          x_lo=g["x_lo"], x_hi=g["x_hi"],
                          x_nodes=g["x_nodes"], t_steps=g["t_steps"],
                          horizon=g["horizon"])
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}")
    elapsed = time.perf_counter() - started

    os.makedirs(out_dir, exist_ok=True)
    files = _write_agent_surfaces(out_dir, sol)
    export.write_manifest(
        out_dir, "solve-agent", conf, files=files, seed_override=seed_override,
        extras={"cfl_number": sol.cfl_number,
                "max_abs_value": sol.max_abs_value,
                "max_abs_gradient": sol.max_abs_gradient})
    export.write_timings(out_dir, {"solve": elapsed})
    return EXIT_OK


def cmd_solve_principal(run: RunConfig, out_dir: str,
                        seed_override: int | None) -> int:
    conf = run.effective(seed_override)
    model = _build_model(conf["model"])
    grid = _build_gridspec(conf["grid"])
    opts = conf.get("options", {})
    started = time.perf_counter()
    try:
        sol = solve_hjbi(model, grid,
                         cfl_safety=float(opts.get("cfl_safety", 0.9)))
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"grid: {exc}")
    elapsed = time.perf_counter() - started

    os.makedirs(out_dir, exist_ok=True)
    files = _write_principal_surfaces(out_dir, sol)
    extras = dict(sol.diagnostics)
    if "reservation" in opts:
        try:
            y0res = optimize_y0(sol, float(opts.get("x0", 0.0)),
                                float(opts["reservation"]))
        except ValueError as exc:
            raise ConfigError(f"infeasible participation: {exc}")
        export.write_table(os.path.join(out_dir, "y0.txt"),
                           ("y0", "value", "at_upper_edge"),
                           ([y0res.y0], [y0res.value],
                            [1.0 if y0res.at_upper_edge else 0.0]))
        files.append("y0.txt")
        extras.update(y0_star=y0res.y0, value_at_y0=y0res.value)
    export.write_manifest(out_dir, "solve-principal", conf, files=files,
                          seed_override=seed_override, extras=extras)
    export.write_timings(out_dir, {"solve": elapsed})
    return EXIT_OK


def cmd_simulate(run: RunConfig, out_dir: str,
                 seed_override: int | None) -> int:
    conf = run.effective(seed_override)
    upstream = None
    if "artifacts" in conf:
        art = _load_principal(conf["artifacts"])
        model, policy = art.model, art.policy
        y0_default = art.y0_star if art.y0_star is not None else 0.0
        x0_default = art.x0
        upstream = {"path": conf["artifacts"],
                    "config_sha256": art.manifest["config_sha256"]}
    else:
        model = _build_model(conf["model"])
        p = conf["policy"]
        if p["horizon"] <= 0:
            raise ConfigError("policy.horizon must be positive")
        policy = sim.constant_policy(
            model, float(p["horizon"]), z=float(p.get("z", 0.0)),
            k_rate=float(p.get("k_rate", 0.0)),
            nature=p.get("nature"))
        y0_default, x0_default = 0.0, 0.0

    cfg = _build_simconfig(conf["sim"], x0=x0_default, y0=y0_default)
    horizon = float(policy.t_grid[-1])
    strategy = None
    if "nature" in conf:
        try:
            strategy = NatureStrategy.uniform(conf["nature"]["values"],
                                              horizon)
            strategy.validate_for(model, horizon)
        except ValueError as exc:
            raise ConfigError(f"nature: {exc}")

    started = time.perf_counter()
    try:
        res = sim.simulate_system(model, policy, strategy, cfg)
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}")
    except RuntimeError as exc:
        raise VerificationFailure(str(exc))
    elapsed = time.perf_counter() - started

    os.makedirs(out_dir, exist_ok=True)
    files = _write_estimates(out_dir, res)
    steps = len(res.realized_qv)
    export.write_table(os.path.join(out_dir, "qv.txt"),
                       ("step", "t", "qv"),
                       (np.arange(steps, dtype=float),
                        np.arange(steps, dtype=float) * cfg.dt,
                        res.realized_qv))
    files.append("qv.txt")
    extras = {"x0": cfg.x0, "y0": cfg.y0, "horizon": horizon}
    if upstream is not None:
        extras["upstream"] = upstream
    export.write_manifest(out_dir, "simulate", conf, files=files,
                          seed_override=seed_override, extras=extras)
    export.write_timings(out_dir, {"simulate": elapsed})
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification checks
# ---------------------------------------------------------------------------

def _incentive_field_check(model: ModelSpec, grid: GridSpec,
                           policy: ContractPolicy) -> dict:
    """Tabulated play must be the best response to the tabulated terms.

    An injected policy whose effort no longer answers its own sensitivity
    fails here immediately, without any sampling noise.
    """
    nt = grid.t_steps
    slices = sorted({0, (nt - 1) // 2, nt - 1} if nt >= 1 else {0})
    X2, Y2 = np.meshgrid(grid.x_grid(), grid.y_grid(), indexing="ij")
    Xf, Yf = X2.ravel(), Y2.ravel()
    worst = 0.0
    for k in slices:
        t = float(policy.t_grid[k])
        a_resp, _, _ = sim._response(model, t, Xf, Yf,
                                     policy.z[k].ravel(),
                                     policy.nature[k].ravel())
        worst = max(worst, float(np.max(np.abs(
            policy.effort[k].ravel() - a_resp))))
    return {"passed": bool(worst <= 1e-9), "measured": worst,
            "bound": 1e-9}


def _principal_checks(art: SimpleNamespace, v: dict) -> dict:
    horizon = float(art.policy.t_grid[-1])
    dt_default = horizon / 64.0 if horizon > 0.0 else 1.0
    y0 = art.y0_star if art.y0_star is not None else 0.0
    try:
        cfg = SimConfig(paths=int(v.get("paths", 4000)),
                        dt=float(v.get("dt", dt_default)),
                        seed=int(v.get("seed", 0)),
                        x0=art.x0, y0=float(y0))
        cfg.steps_for(horizon)
    except ValueError as exc:
        raise ConfigError(f"verify: {exc}")

    checks = {"incentive_fields":
              _incentive_field_check(art.model, art.grid, art.policy)}

    cross = sim.girsanov_cross_check(art.model, art.policy, cfg)
    checks["girsanov_agreement"] = {
        "passed": cross["agree"], "measured": cross["gap"],
        "bound": cross["tol"]}

    tol = float(v.get("martingale_tolerance", 0.05))
    mart = sim.martingale_sandwich_check(
        art.model, art.surface, art.policy, cfg,
        probes=int(v.get("probes", 9)), tolerance=tol)
    checks["martingale_drift"] = {
        "passed": mart["passed"], "measured": mart["worst_drift"],
        "bound": tol,
        "suboptimal_label": mart["suboptimal"]["label"],
        "suboptimal_downward_drift":
            mart["suboptimal"]["worst_downward_drift"]}

    probes = int(v.get("perturbations", 5))
    inc = sim.incentive_compatibility_check(art.model, art.policy, cfg,
                                            probes)
    checks["incentive_probes"] = {
        "passed": inc["passed"], "measured": float(len(inc["violations"])),
        "bound": 0.0, "strictly_lower": inc["strictly_lower"],
        "perturbations": probes}
    return checks


def _agent_checks(art_dir: str, manifest: dict) -> dict:
    conf = manifest["config"]
    model = _build_model(conf["model"])
    contract = _build_contract(conf["contract"])
    g = conf["grid"]
    shape = (g["t_steps"] + 1, g["x_nodes"])
    rows = shape[0] * shape[1]

    tabs = {name: _artifact_table(art_dir, f"agent_{name}.txt")
            for name in ("value", "effort", "worst_vol")}
    for name, tab in tabs.items():
        if len(tab[name]) != rows:
            raise MissingArtifact(
                f"agent_{name}.txt rows do not match the manifest grid")

    values = tabs["value"]["value"].reshape(shape)
    effort = tabs["effort"]["effort"].reshape(shape)
    vol = tabs["worst_vol"]["worst_vol"].reshape(shape)

    nonfinite = int(np.count_nonzero(~np.isfinite(values)))
    a_lo, a_hi = model.effort_set_A
    n_lo, n_hi = model.nature_set_N
    excess = max(
        float(np.max(np.maximum(a_lo - effort, effort - a_hi), initial=0.0)),
        float(np.max(np.maximum(n_lo - vol, vol - n_hi), initial=0.0)))

    x_grid = np.linspace(g["x_lo"], g["x_hi"], g["x_nodes"])
    want = np.array([float(model.utility_agent(contract.payment(x)))
                     for x in x_grid])
    terminal_gap = float(np.max(np.abs(values[-1] - want)))

    return {
        "values_finite": {"passed": nonfinite == 0,
                          "measured": float(nonfinite), "bound": 0.0},
        "controls_in_range": {"passed": excess <= 1e-9,
                              "measured": excess, "bound": 1e-9},
        "terminal_consistency": {"passed": terminal_gap <= 1e-9,
                                 "measured": terminal_gap, "bound": 1e-9},
    }


def cmd_verify(run: RunConfig, out_dir: str,
               seed_override: int | None) -> int:
    conf = run.effective(seed_override)
    v = conf["verify"]
    art_dir = v["artifacts"]
    manifest = _read_manifest(art_dir)

    started = time.perf_counter()
    missing, mismatched = export.checksum_failures(art_dir, manifest)
    if missing:
        raise MissingArtifact(
            f"files listed in the manifest are absent: {', '.join(missing)}")
    checks = {"checksums": {"passed": not mismatched,
                            "measured": float(len(mismatched)),
                            "bound": 0.0, "mismatched": mismatched}}
    if not mismatched:
        command = manifest.get("command")
        if command == "solve-principal":
            with sim._shared_increments():
                checks.update(_principal_checks(_load_principal(art_dir), v))
        elif command == "solve-agent":
            checks.update(_agent_checks(art_dir, manifest))
        else:
            raise MissingArtifact(
                f"verify supports solve-agent and solve-principal "
                f"directories, not {command!r}")
    elapsed = time.perf_counter() - started

    passed = all(c["passed"] for c in checks.values())
    os.makedirs(out_dir, exist_ok=True)
    report = {"artifacts": art_dir, "checks": checks, "passed": passed}
    with open(os.path.join(out_dir, "report.yaml"), "w",
              encoding="ascii", newline="\n") as fh:
        fh.write(export.canonical_yaml(report))
    export.write_manifest(out_dir, "verify", conf, files=["report.yaml"],
                          seed_override=seed_override)
    export.write_timings(out_dir, {"verify": elapsed})
    if not passed:
        failed = sorted(name for name, c in checks.items()
                        if not c["passed"])
        raise VerificationFailure(
            f"checks failed: {', '.join(failed)} (see report.yaml)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_BAND_PARAM = {"heat_band": "band", "risk_neutral": "n_band",
               "disjoint_beliefs": "principal_band"}


def _sweep_m_salary(conf: dict, out_dir: str) -> tuple[list[str], dict]:
    model = _build_model(conf["model"])
    cfg = _build_simconfig(conf["sim"])
    horizon = float(conf.get("options", {}).get("horizon", 1.0))
    files, rows = [], []
    for i, m in enumerate(conf["sweep"]["values"]):
        try:
            est, target = sim.disjoint_beliefs_demo(model, float(m), cfg,
                                                    horizon=horizon)
        except ValueError as exc:
            raise ConfigError(f"sweep.values[{i}]: {exc}")
        sub = os.path.join(out_dir, f"pt_{i:03d}")
        os.makedirs(sub, exist_ok=True)
        export.write_table(os.path.join(sub, "estimate.txt"),
                           ("m_salary", "mean", "ci", "target"),
                           ([m], [est.mean], [est.ci_halfwidth], [target]))
        files.append(f"pt_{i:03d}/estimate.txt")
        rows.append((float(m), est.mean, est.ci_halfwidth, target))
    cols = tuple(np.array(c) for c in zip(*rows)) if rows \
        else ((), (), (), ())
    export.write_table(os.path.join(out_dir, "summary.txt"),
                       ("m_salary", "mean", "ci", "target"), cols)
    files.append("summary.txt")
    return files, {"points": len(rows)}


def _sweep_band_width(conf: dict, out_dir: str) -> tuple[list[str], dict]:
    base = _build_model(conf["model"])
    preset = conf["model"]["preset"]
    if preset not in _BAND_PARAM:
        raise ConfigError(
            f"band_width sweep is not defined for preset '{preset}'")
    center = 0.5 * (base.nature_set_N[0] + base.nature_set_N[1])
    contract = _build_contract(conf["contract"])
    g = conf["grid"]
    x0 = float(conf.get("options", {}).get("x0", 0.0))

    files, rows = [], []
    for i, width in enumerate(conf["sweep"]["values"]):
        if not width >= 0.0:
            raise ConfigError(f"sweep.values[{i}]: width must be >= 0")
        params = dict(_translate_params(conf["model"].get("params", {})))
        params[_BAND_PARAM[preset]] = (center - 0.5 * width,
                                       center + 0.5 * width)
        try:
            model = make_model(preset, **params)
            sol = solve_agent(model, contract,
                              x_lo=g["x_lo"], x_hi=g["x_hi"],
                              x_nodes=g["x_nodes"], t_steps=g["t_steps"],
                              horizon=g["horizon"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sweep.values[{i}]: {exc}")
        sub = os.path.join(out_dir, f"pt_{i:03d}")
        os.makedirs(sub, exist_ok=True)
        for name in _write_agent_surfaces(sub, sol):
            files.append(f"pt_{i:03d}/{name}")
        rows.append((float(width), sol.value(0.0, x0)))
    cols = tuple(np.array(c) for c in zip(*rows)) if rows else ((), ())
    export.write_table(os.path.join(out_dir, "summary.txt"),
                       ("band_width", "value"), cols)
    files.append("summary.txt")
    return files, {"points": len(rows), "band_center": center, "x0": x0}


def cmd_sweep(run: RunConfig, out_dir: str,
              seed_override: int | None) -> int:
    conf = run.effective(seed_override)
    os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()
    if conf["sweep"]["axis"] == "m_salary":
        files, extras = _sweep_m_salary(conf, out_dir)
    else:
        files, extras = _sweep_band_width(conf, out_dir)
    elapsed = time.perf_counter() - started
    export.write_manifest(out_dir, "sweep", conf, files=files,
                          seed_override=seed_override, extras=extras)
    export.write_timings(out_dir, {"sweep": elapsed})
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_HANDLERS = {
    "solve-agent": cmd_solve_agent,
    "solve-principal": cmd_solve_principal,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}

_HELP = {
    "solve-agent": "solve the robust agent value for a terminal contract",
    "solve-principal": "solve the HJBI equation and extract the contract",
    "simulate": "Monte Carlo run of the coupled state system",
    "verify": "re-check a prior run's artifacts and invariants",
    "sweep": "run a one-axis parameter study with a summary table",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustcontract",
        description="Contract-design pipelines: solve, simulate, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler_help in _HELP.items():
        p = sub.add_parser(name, help=handler_help)
        p.add_argument("--config", required=True,
                       help="YAML run configuration file")
        p.add_argument("--out",
                       help="output directory (default: ROBUSTCONTRACT_OUT "
                            "or the config's 'out' key)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's random seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        run = RunConfig.parse(text, args.command)
        out_dir = (args.out or os.environ.get("ROBUSTCONTRACT_OUT")
                   or run.mapping.get("out"))
        if not out_dir:
            raise ConfigError(
                "no output directory: pass --out, set ROBUSTCONTRACT_OUT "
                "or add an 'out' key to the config")
        return _HANDLERS[args.command](run, out_dir, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifact as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
