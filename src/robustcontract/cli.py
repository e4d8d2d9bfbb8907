"""Configuration-driven pipelines over the solvers and the simulator.

Commands
--------
solve-agent      robust agent value surface for a terminal contract
solve-principal  HJBI value surface plus the extracted contract policy
simulate         Monte Carlo run of the coupled state system
verify           consistency checks against a prior run's artifacts
sweep            one-axis parameter study with a summary table

Every command reads one YAML config (``--config``), writes its artifacts
plus a checksummed manifest into the output directory (``--out``, the
ROBUSTCONTRACT_OUT environment variable, or the config's ``out`` key), and
exits 0 on success, 2 on a config error, 3 on a missing artifact and 4 on
a verification failure.  Every artifact is a plain-text columnar table
except solve-principal's contract policy, ``policy.npy``: one C-order
little-endian float64 array of shape (6, t_steps + 1, x_nodes, y_nodes)
holding the fields z, gamma, effort, nature, k_rate and fstar in that
order (``principal.POLICY_FIELDS``) over the manifest's grid.  Identical
configs produce byte-identical numeric artifacts; wall-clock timings live
in a sidecar (``timings.txt``, one line per stage) that is excluded from
the checksums.  A command handler only computes: it returns its files,
its manifest extras and (verify) its failed checks, and ``main`` writes
them all, then the manifest, under the ``write`` stage, then the timings,
and only then exits 4 on a failed verify.  The stages are ``solve,
write`` for the solves, ``load, simulate, write`` (``load`` only from
artifacts), ``load, verify, write`` (``load`` reads and checksums) and
``sweep, write``.  ``simulate`` reads a principal solve's
``manifest.yaml``, ``policy.npy`` and (when listed) ``y0.txt``;
``verify`` checksums every listed file and reads every surface, so
``value_surface.txt`` too.  Both check the manifest, its config, the
policy's header and length, and each table's header and grid columns,
and exit 3 otherwise.

Config schema
-------------
Unknown sections and keys are rejected with their dotted path.  Below, a
bracketed section or key is optional and ``[key=value]`` names the
default the run reads; defaults are never written into the config that
the manifest embeds and hashes.  Every command also takes ``[out]``::

    solve-agent             model contract grid/x
    solve-principal         model grid/xy [options/principal]
    simulate (artifacts)    sim artifacts [nature]
    simulate (policy)       sim policy model [nature]
    verify                  verify
    sweep (m_salary)        sweep model sim [options/m_salary]
    sweep (band_width)      sweep model contract grid/x [options/band_width]

    model                   preset [params={}]
    contract                payment
    grid/x                  x_lo x_hi x_nodes t_steps horizon
    grid/xy                 x_lo x_hi x_nodes t_steps horizon y_lo y_hi
                            y_nodes
    sim                     paths dt seed [x0] [y0]
    policy                  horizon [z=0.0] [k_rate=0.0] [nature]
    nature                  values
    options/principal       [x0=0.0] [reservation]
    options/m_salary        [horizon=1.0]
    options/band_width      [x0=0.0]
    verify                  artifacts [paths=4000] [dt] [seed=0]
                            [perturbations=5] [probes=9]
                            [martingale_tolerance=0.05]
    sweep                   axis values
    artifacts, out          strings

``params`` go to the preset's constructor; lists become tuples, and
``utility_principal`` takes "identity" or "bounded_exp" (1 - exp(-x)).
``payment`` is "linear:slope,intercept", "call:strike" or "tabulated:path".
simulate takes its contract and model from a solve-principal directory
(``artifacts``) or runs a constant ``policy`` (``nature`` defaults to the
band's middle); ``sim.x0``/``y0`` default to that solve's ``options.x0``
and chosen promise, else 0.  Every ``x0`` and ``y0`` must be finite, and
an m_salary sweep's ``horizon`` positive, finite and a multiple of ``dt``.
The four ``policy`` keys must be finite, ``policy.horizon`` positive and
``policy.nature`` inside the model's nature set.  Both grid sections obey
one rule (``numerics.axis``, ``numerics.time_axis``): each space axis has
at least 3 nodes, finite ends, ``x_hi`` above ``x_lo`` (``y_hi`` above
``y_lo``) and its nodes on distinct doubles; the time axis has at least 1
step over a positive, finite ``horizon``.
``nature.values`` is a volatility scenario on equal subintervals of the
horizon.  ``verify.dt`` defaults to 1/64 of the solve's horizon.
``reservation``, any number but NaN (``-.inf`` admits every promise),
makes solve-principal pick the promise; ``options.x0`` must then lie in
[``x_lo``, ``x_hi``], as a band_width sweep's ``options.x0`` always must.
On a solve-principal directory verify exits 2 unless ``paths`` >= 1,
``perturbations`` >= 1, ``probes`` >= 2 and ``martingale_tolerance`` is
finite and > 0.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import yaml

from . import export, sim
from .agent import ContractFunction, agent_grids, solve_agent
from .hamiltonians import ModelSpec
from .presets import PRESETS, make_model
from .principal import (POLICY_FIELDS, ContractPolicy, GridSpec, optimize_y0,
                        solve_hjbi)
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
# config schema: one entry per command, checked by one walker
# ---------------------------------------------------------------------------

def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# kind: (type check, its label, then None or (value check, message) once
# every key of the section has its type)
_KINDS = {
    "num": (_is_num, "a number", None),
    "finite": (_is_num, "a number",
               (math.isfinite, "'{path}' must be finite, got {value}")),
    "notnan": (_is_num, "a number",
               (lambda v: not math.isnan(v), "'{path}' must not be nan")),
    "int": (lambda v: _is_num(v) and isinstance(v, int), "an integer", None),
    "str": (lambda v: isinstance(v, str), "a string", None),
    "map": (lambda v: isinstance(v, dict), "a mapping", None),
    "nums": (lambda v: isinstance(v, list), "a list",
             (lambda v: all(_is_num(x) for x in v),
              "'{path}' must be a list of numbers")),
    "preset": (lambda v: isinstance(v, str), "a string",
               (lambda v: v in PRESETS, "unknown model preset '{value}'; "
                f"known: {sorted(PRESETS)}")),
}
# A section maps each key to (kind, default): _REQUIRED marks a required
# key, None an optional one whose absence the run handles itself.
_REQUIRED = object()


def _required(**kinds: str) -> dict:
    return {key: (kind, _REQUIRED) for key, kind in kinds.items()}


def _present(doc: dict, names: tuple) -> str:
    """The one of ``names`` that ``doc`` holds as a top-level key."""
    found = [name for name in names if name in doc]
    if len(found) != 1:
        either = " or ".join(f"'{name}'" for name in names)
        raise ConfigError(f"give either {either}, not both" if found
                          else f"missing required key {either}")
    return found[0]


def _sweep_axis(doc: dict, names: tuple) -> str:
    axis = doc["sweep"]["axis"]
    if axis not in names:
        raise ConfigError(f"unknown sweep axis '{axis}'; known: "
                          f"{', '.join(sorted(names))}")
    return axis


_MODEL = {"preset": ("preset", _REQUIRED), "params": ("map", {})}
_CONTRACT = _required(payment="str")
_AGENT_GRID = _required(x_lo="num", x_hi="num", x_nodes="int",
                        t_steps="int", horizon="num")
_SIM = dict(_required(paths="int", dt="num", seed="int"),
            x0=("num", None), y0=("num", None))
_NATURE = _required(values="nums")

# The variants of simulate (by contract source) and of sweep (by axis).
_SOURCES = {
    "artifacts": {"required": ("artifacts",), "forbidden": {
        "model": "the model is read from the artifact manifest; remove the "
                 "'model' section"},
        "sections": {"artifacts": "str", "nature": _NATURE}},
    "policy": {"required": ("policy", "model"), "sections": {
        "model": _MODEL, "nature": _NATURE,
        "policy": {"horizon": ("finite", _REQUIRED), "z": ("finite", 0.0),
                   "k_rate": ("finite", 0.0), "nature": ("finite", None)}}},
}
_AXES = {
    "m_salary": {"required": ("model", "sim"), "forbidden": {
        key: f"unknown key '{key}' for an m_salary sweep"
        for key in ("contract", "grid")},
        "sections": {"model": _MODEL, "sim": _SIM,
                     "options": {"horizon": ("finite", 1.0)}}},
    "band_width": {"required": ("model", "contract", "grid"), "forbidden": {
        "sim": "unknown key 'sim' for a band_width sweep"},
        "sections": {"model": _MODEL, "contract": _CONTRACT,
                     "grid": _AGENT_GRID, "options": {"x0": ("finite", 0.0)}}},
}
# One entry per command: its required sections, in the order a missing one
# is named; forbidden sections with their messages; each section's key map
# (a kind for a top-level scalar); and optionally a ``pick`` of (picker,
# variants) naming the variant entry that the config must also meet.
_SCHEMA = {
    "solve-agent": {"required": ("model", "contract", "grid"), "sections": {
        "model": _MODEL, "contract": _CONTRACT, "grid": _AGENT_GRID}},
    "solve-principal": {"required": ("model", "grid"), "sections": {
        "model": _MODEL,
        "grid": dict(_AGENT_GRID,
                     **_required(y_lo="num", y_hi="num", y_nodes="int")),
        "options": {"x0": ("finite", 0.0),
                    "reservation": ("notnan", None)}}},
    "simulate": {"required": ("sim",), "sections": {"sim": _SIM},
                 "pick": (_present, _SOURCES)},
    "verify": {"required": ("verify",), "sections": {"verify": {
        "artifacts": ("str", _REQUIRED), "paths": ("int", 4000),
        "dt": ("num", None), "seed": ("int", 0), "perturbations": ("int", 5),
        "probes": ("int", 9), "martingale_tolerance": ("num", 0.05)}}},
    "sweep": {"required": ("sweep",),
              "sections": {"sweep": _required(axis="str", values="nums")},
              "pick": (_sweep_axis, _AXES)},
}


def _entries(command: str, doc: dict):
    """The command's entry, then the variant entry that ``doc`` picks."""
    entry = _SCHEMA[command]
    yield entry
    if "pick" in entry:
        picker, variants = entry["pick"]
        yield variants[picker(doc, tuple(variants))]


def _check_section(section: dict, path: str, spec: dict) -> None:
    """Reject unknown keys, demand required ones, check types, then values."""
    for key in section:
        if key not in spec:
            raise ConfigError(f"unknown key '{path}.{key}'")
    for key, (_, default) in spec.items():
        if default is _REQUIRED and key not in section:
            raise ConfigError(f"missing required key '{path}.{key}'")
    for key, value in section.items():
        check, label, _ = _KINDS[spec[key][0]]
        if not check(value):
            raise ConfigError(f"'{path}.{key}' must be {label}")
    for key, value in section.items():
        then = _KINDS[spec[key][0]][2]
        if then is not None and not then[0](value):
            raise ConfigError(then[1].format(path=f"{path}.{key}",
                                             value=value))


def _validate_config(command: str, doc: dict) -> None:
    entry = _SCHEMA[command]
    top = {"out": ("str", None)}  # every command takes ``out``
    for part in (entry, *entry.get("pick", (None, {}))[1].values()):
        top.update({name: ("map" if isinstance(spec, dict) else spec, None)
                    for name, spec in part["sections"].items()})
    _check_section(doc, "config", top)
    for part in _entries(command, doc):
        for name in part["required"]:
            if name not in doc:
                raise ConfigError(f"missing required key '{name}'")
        for name, message in part.get("forbidden", {}).items():
            if name in doc:
                raise ConfigError(message)
        for name, spec in part["sections"].items():
            if name in doc and isinstance(spec, dict):
                _check_section(doc[name], name, spec)


def _with_defaults(command: str, conf: dict, section: str) -> dict:
    """A copy of a validated config's section (empty if absent) with the
    schema's defaults filled in; ``conf`` itself is left as it is."""
    spec = next(part["sections"][section] for part in _entries(command, conf)
                if section in part["sections"])
    given = conf.get(section, {})
    return {key: given.get(key, default) for key, (_, default) in spec.items()}


def _unparseable(what: str, exc: yaml.YAMLError) -> str:
    """A YAML syntax error in one line: its line number and its problem."""
    mark = getattr(exc, "problem_mark", None)
    where = f" at line {mark.line + 1}" if mark is not None else ""
    problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
    return f"cannot parse {what}{where}: {problem}"


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
        if command not in _SCHEMA:
            raise ConfigError(f"unknown command '{command}'")
        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(_unparseable("config", exc))
        if not isinstance(doc, dict):
            raise ConfigError("config must be a YAML mapping")
        _validate_config(command, doc)
        return cls(command, doc)

    def serialize(self) -> str:
        return export.canonical_yaml(self.mapping)

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


def _build_model(command: str, conf: dict) -> ModelSpec:
    params = _translate_params(
        _with_defaults(command, conf, "model")["params"])
    try:
        return make_model(conf["model"]["preset"], **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model.params: {exc}")


def _build_contract(section: dict) -> ContractFunction:
    try:
        return ContractFunction.from_preset(section["payment"])
    except (ValueError, OSError) as exc:
        raise ConfigError(f"contract.payment: {exc}")


def _build_grid(build, section: dict):
    """``build(**section)``: a ``GridSpec`` or the agent's grids."""
    try:
        return build(**section)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}")


def _check_x0(x0: float, x_lo: float, x_hi: float) -> None:
    """Refuse, before any solve, an ``options.x0`` off the solved x
    interval, where a clamped lookup would read the edge's value."""
    if not x_lo <= x0 <= x_hi:
        raise ConfigError(f"options.x0: {x0!r} is outside the x interval "
                          f"[{float(x_lo)!r}, {float(x_hi)!r}]")


def _build_simconfig(section: dict, **defaults) -> SimConfig:
    try:
        return SimConfig(**dict(defaults, **section))
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}")


# ---------------------------------------------------------------------------
# artifacts: one layout per solve drives its surface writer and reader
# ---------------------------------------------------------------------------

# Each solve's surface files, each field mapped to its solution attribute.
# A ``.npy`` file stacks its fields, in order, on the leading axis of one
# array over the grid; a table's columns follow the grid axes (t, x, then
# y for the principal).
_SURFACES = {
    "solve-agent": {"agent_value.txt": {"value": "values"},
                    "agent_effort.txt": {"effort": "effort"},
                    "agent_worst_vol.txt": {"worst_vol": "nature"}},
    "solve-principal": {"policy.npy": dict(zip(POLICY_FIELDS, POLICY_FIELDS)),
                        "value_surface.txt": {"value": "values"}},
}
_Y0_COLUMNS = ("y0", "value", "at_upper_edge")


def _axes(grids) -> dict[str, np.ndarray]:
    """The t, x (and y) axes over ``grids``, shaped to broadcast."""
    return dict(zip("txy", np.meshgrid(*grids, indexing="ij", sparse=True)))


def _is_array(name: str) -> bool:
    return name.endswith(".npy")


def _surface_files(command: str, sol, grids) -> dict[str, dict]:
    """The solve's surface files, each name mapped to views of ``sol``'s
    fields, after the grid axes' columns in a table."""
    axes, shape = _axes(grids), tuple(map(len, grids))
    cols = {axis: np.broadcast_to(values, shape).ravel()
            for axis, values in axes.items()}
    files = {}
    for name, fields in _SURFACES[command].items():
        own = {field: getattr(sol, attr) for field, attr in fields.items()}
        files[name] = own if _is_array(name) else dict(
            cols, **{column: v.ravel() for column, v in own.items()})
    return files


def _read_manifest(art_dir: str) -> dict:
    try:
        return export.read_manifest(art_dir)
    except FileNotFoundError:
        raise MissingArtifact(f"no {export.MANIFEST_NAME} in '{art_dir}'")
    except yaml.YAMLError as exc:
        raise MissingArtifact(f"{export.MANIFEST_NAME} in '{art_dir}' is "
                              f"damaged: {_unparseable('YAML', exc)}")
    except ValueError as exc:
        raise MissingArtifact(str(exc))


@contextlib.contextmanager
def _broken_as_missing(art_dir: str, name: str):
    """The path of ``name`` in ``art_dir``, for a block that reads it; a
    missing, unreadable or damaged file is a broken artifact."""
    try:
        yield os.path.join(art_dir, name)
    except FileNotFoundError:
        raise MissingArtifact(f"no {name} in '{art_dir}'")
    except OSError as exc:
        raise MissingArtifact(f"cannot read {name} in '{art_dir}': "
                              f"{exc.strerror or exc}")
    except ValueError as exc:
        raise MissingArtifact(f"{name} in '{art_dir}' is damaged: {exc}")


def _artifact_table(art_dir: str, name: str, columns: tuple,
                    rows: int) -> dict[str, np.ndarray]:
    """``name`` in ``art_dir``, which must hold exactly ``columns`` over
    ``rows`` rows.  Every read of a prior run's table goes through here, so
    a missing, unreadable or misshapen one is a broken artifact."""
    with _broken_as_missing(art_dir, name) as path:
        tab = export.read_table(path)
    got = (len(next(iter(tab.values()))), list(tab))
    if got != (rows, list(columns)):
        raise MissingArtifact(f"{name} in '{art_dir}' has {got[0]} rows of "
                              f"{got[1]}, not {rows} of {list(columns)}")
    return tab


def _artifact_array(art_dir: str, name: str,
                    shape: tuple) -> np.ndarray:
    """``name`` in ``art_dir``, which must hold a float64 array of
    ``shape``; every read of a prior run's array goes through here."""
    with _broken_as_missing(art_dir, name) as path:
        return export.read_array(path, shape)


def _read_surfaces(art_dir: str, command: str, grids,
                   names) -> dict[str, np.ndarray]:
    """Each solution attribute of the solve's surface files ``names``,
    shaped like ``grids``: an array file's fields are views of its one
    array, and every table's axis columns must be ``grids`` bit for bit."""
    axes, shape = _axes(grids), tuple(map(len, grids))
    fields = {}
    for name in names:
        layout = _SURFACES[command][name]
        if _is_array(name):
            block = _artifact_array(art_dir, name, (len(layout), *shape))
            fields.update(zip(layout.values(), block))
            continue
        tab = _artifact_table(art_dir, name, (*axes, *layout),
                              math.prod(shape))
        for axis, want in axes.items():
            if (tab[axis].reshape(shape).view(np.uint64)
                    != want.view(np.uint64)).any():
                raise MissingArtifact(f"{name} in '{art_dir}': column "
                                      f"{axis} is off the manifest grid")
        fields.update({attr: tab[column].reshape(shape)
                       for column, attr in layout.items()})
    return fields


@contextlib.contextmanager
def _manifest_config(art_dir: str, manifest: dict):
    """The config a prior run's manifest embeds, checked against its
    command's schema, for a block that rebuilds the run from it; a config
    that fails the schema or a builder in the block is a broken artifact."""
    try:
        conf = manifest.get("config")
        if not isinstance(conf, dict):
            raise ConfigError("config must be a YAML mapping")
        _validate_config(manifest["command"], conf)
        yield conf
    except ConfigError as exc:
        raise MissingArtifact(
            f"manifest config in '{art_dir}' is invalid: {exc}")


def _load_principal(art_dir: str, manifest: dict,
                    names) -> SimpleNamespace:
    """Rebuild model and policy from a solve dir, reading its surface files
    ``names``: the policy's alone, or with the value surface, which is
    None when not read."""
    if manifest.get("command") != "solve-principal":
        raise MissingArtifact(
            f"'{art_dir}' holds a {manifest.get('command')!r} run, "
            "not solve-principal")
    with _manifest_config(art_dir, manifest) as conf:
        model = _build_model("solve-principal", conf)
        grid = _build_grid(GridSpec, conf["grid"])
    axes = dict(t_grid=grid.t_grid(), x_grid=grid.x_grid(),
                y_grid=grid.y_grid())
    fields = _read_surfaces(art_dir, "solve-principal", tuple(axes.values()),
                            names)
    values = fields.pop("values", None)
    surface = (SimpleNamespace(**axes, values=values)
               if values is not None else None)
    try:
        policy = ContractPolicy(**axes, **fields)
    except ValueError as exc:
        raise MissingArtifact(
            f"manifest config in '{art_dir}' is invalid: {exc}")
    y0_star = None
    if "y0.txt" in manifest["artifacts"]:
        y0_star = float(
            _artifact_table(art_dir, "y0.txt", _Y0_COLUMNS, 1)["y0"][0])
    x0 = float(_with_defaults("solve-principal", conf, "options")["x0"])
    return SimpleNamespace(manifest=manifest, model=model, policy=policy,
                           surface=surface, y0_star=y0_star, x0=x0)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _stage(stages: dict[str, float], name: str):
    """Record the block's wall-clock seconds as ``stages[name]``."""
    started = time.perf_counter()
    yield
    stages[name] = time.perf_counter() - started


@dataclass(frozen=True)
class Produced:
    """What a command produced, for ``main`` to write: each file's relative
    path mapped to its columns (name -> values; a ``.npy`` file's fields,
    stacked in order) or its text, the manifest's ``run`` extras and, for
    a failed verify, the failure's message."""

    files: dict[str, dict | str]
    run: dict | None = None
    failure: str | None = None


def cmd_solve_agent(conf: dict, stages: dict[str, float]) -> Produced:
    model = _build_model("solve-agent", conf)
    contract = _build_contract(conf["contract"])
    _build_grid(agent_grids, conf["grid"])   # grid errors read "grid:"
    with _stage(stages, "solve"):
        try:
            sol = solve_agent(model, contract, **conf["grid"])
        except ValueError as exc:
            raise ConfigError(f"solve: {exc}")
    return Produced(
        _surface_files("solve-agent", sol, (sol.t_grid, sol.x_grid)),
        {"cfl_number": sol.cfl_number, "max_abs_value": sol.max_abs_value,
         "max_abs_gradient": sol.max_abs_gradient})


def cmd_solve_principal(conf: dict, stages: dict[str, float]) -> Produced:
    model = _build_model("solve-principal", conf)
    grid = _build_grid(GridSpec, conf["grid"])
    opts = _with_defaults("solve-principal", conf, "options")
    if opts["reservation"] is not None:
        _check_x0(float(opts["x0"]), grid.x_lo, grid.x_hi)
    y0res = None
    with _stage(stages, "solve"):
        try:
            sol = solve_hjbi(model, grid)
        except (ValueError, RuntimeError) as exc:
            raise ConfigError(f"solve: {exc}")
        if opts["reservation"] is not None:
            try:
                y0res = optimize_y0(sol, float(opts["x0"]),
                                    float(opts["reservation"]))
            except ValueError as exc:
                raise ConfigError(f"infeasible participation: {exc}")

    files = _surface_files("solve-principal", sol,
                           (sol.t_grid, sol.x_grid, sol.y_grid))
    extras = dict(sol.diagnostics)
    if y0res is not None:
        files["y0.txt"] = dict(zip(_Y0_COLUMNS, (
            [y0res.y0], [y0res.value], [1.0 if y0res.at_upper_edge else 0.0])))
        extras.update(y0_star=y0res.y0, value_at_y0=y0res.value)
    return Produced(files, extras)


def cmd_simulate(conf: dict, stages: dict[str, float]) -> Produced:
    upstream = None
    if "artifacts" in conf:
        with _stage(stages, "load"):
            # the engine reads only the policy, so the value surface is
            # neither parsed nor checked
            art = _load_principal(conf["artifacts"],
                                  _read_manifest(conf["artifacts"]),
                                  ("policy.npy",))
        model, policy = art.model, art.policy
        y0_default = art.y0_star if art.y0_star is not None else 0.0
        x0_default = art.x0
        upstream = {"path": conf["artifacts"],
                    "config_sha256": art.manifest["config_sha256"]}
    else:
        model = _build_model("simulate", conf)
        p = _with_defaults("simulate", conf, "policy")
        try:
            policy = sim.constant_policy(
                model, float(p["horizon"]), z=float(p["z"]),
                k_rate=float(p["k_rate"]), nature=p["nature"])
        except ValueError as exc:
            raise ConfigError(f"policy: {exc}")
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

    with _stage(stages, "simulate"):
        try:
            res = sim.simulate_system(model, policy, strategy, cfg)
        except ValueError as exc:
            raise ConfigError(f"sim: {exc}")
        except RuntimeError as exc:
            raise VerificationFailure(str(exc))

    steps = np.arange(len(res.realized_qv), dtype=float)
    extras = {"x0": cfg.x0, "y0": cfg.y0, "horizon": horizon}
    if upstream is not None:
        extras["upstream"] = upstream
    return Produced({
        "estimates.txt": {
            "principal_mean": [res.principal_estimate.mean],
            "principal_ci": [res.principal_estimate.ci_halfwidth],
            "agent_mean": [res.agent_estimate.mean],
            "agent_ci": [res.agent_estimate.ci_halfwidth],
            "paths_used": [res.paths_used], "quarantined": [res.quarantined],
            "discount_lo": [res.discount_bounds[0]],
            "discount_hi": [res.discount_bounds[1]]},
        "qv.txt": {"step": steps, "t": steps * cfg.dt, "qv": res.realized_qv},
    }, extras)


# ---------------------------------------------------------------------------
# verification checks
# ---------------------------------------------------------------------------

def _principal_checks(art: SimpleNamespace, v: dict) -> dict:
    """``sim.contract_checks`` on a loaded solve, with verify settings ``v``."""
    horizon = float(art.policy.t_grid[-1])
    if v["dt"] is None:
        v = dict(v, dt=horizon / 64.0)
    y0 = art.y0_star if art.y0_star is not None else 0.0
    try:
        cfg = SimConfig(paths=int(v["paths"]), dt=float(v["dt"]),
                        seed=int(v["seed"]), x0=art.x0, y0=float(y0))
        cfg.steps_for(horizon)
        return sim.contract_checks(
            art.model, art.surface, art.policy, cfg,
            perturbations=int(v["perturbations"]), probes=int(v["probes"]),
            tolerance=float(v["martingale_tolerance"]))
    except ValueError as exc:
        raise ConfigError(f"verify: {exc}")


def _load_agent(art_dir: str, manifest: dict) -> SimpleNamespace:
    """Rebuild model, contract, grid and surfaces from a solve-agent dir."""
    with _manifest_config(art_dir, manifest) as conf:
        model = _build_model("solve-agent", conf)
        contract = _build_contract(conf["contract"])
        grids = _build_grid(agent_grids, conf["grid"])
    return SimpleNamespace(model=model, contract=contract, x_grid=grids[1],
                           **_read_surfaces(art_dir, "solve-agent", grids,
                                            _SURFACES["solve-agent"]))


def _agent_checks(art: SimpleNamespace) -> dict:
    model, values, effort, vol = art.model, art.values, art.effort, art.nature

    nonfinite = int(np.count_nonzero(~np.isfinite(values)))
    a_lo, a_hi = model.effort_set_A
    n_lo, n_hi = model.nature_set_N
    excess = max(
        float(np.max(np.maximum(a_lo - effort, effort - a_hi), initial=0.0)),
        float(np.max(np.maximum(n_lo - vol, vol - n_hi), initial=0.0)))

    want = np.array([float(model.utility_agent(art.contract.payment(x)))
                     for x in art.x_grid])
    terminal_gap = float(np.max(np.abs(values[-1] - want)))

    return {
        "values_finite": {"passed": nonfinite == 0,
                          "measured": float(nonfinite), "bound": 0.0},
        "controls_in_range": {"passed": excess <= 1e-9,
                              "measured": excess, "bound": 1e-9},
        "terminal_consistency": {"passed": terminal_gap <= 1e-9,
                                 "measured": terminal_gap, "bound": 1e-9},
    }


def cmd_verify(conf: dict, stages: dict[str, float]) -> Produced:
    v = _with_defaults("verify", conf, "verify")
    art_dir = v["artifacts"]
    manifest = _read_manifest(art_dir)

    command = manifest.get("command")
    with _stage(stages, "load"):
        missing, mismatched = export.checksum_failures(art_dir, manifest)
        if missing:
            raise MissingArtifact(
                f"files listed in the manifest are absent: "
                f"{', '.join(missing)}")
        if mismatched:
            art = None
        elif command == "solve-principal":
            art = _load_principal(art_dir, manifest,
                                  _SURFACES["solve-principal"])
        elif command == "solve-agent":
            art = _load_agent(art_dir, manifest)
        else:
            raise MissingArtifact(
                f"verify supports solve-agent and solve-principal "
                f"directories, not {command!r}")
    checks = {"checksums": {"passed": not mismatched,
                            "measured": float(len(mismatched)),
                            "bound": 0.0, "mismatched": mismatched}}
    with _stage(stages, "verify"):
        if art is not None and command == "solve-principal":
            checks.update(_principal_checks(art, v))
        elif art is not None:
            checks.update(_agent_checks(art))

    failed = sorted(name for name, c in checks.items() if not c["passed"])
    report = {"artifacts": art_dir, "checks": checks, "passed": not failed}
    failure = (f"checks failed: {', '.join(failed)} (see report.yaml)"
               if failed else None)
    return Produced({"report.yaml": export.canonical_yaml(report)},
                    failure=failure)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_BAND_PARAM = {"heat_band": "band", "risk_neutral": "n_band",
               "disjoint_beliefs": "principal_band"}


def _sweep_m_salary(conf: dict) -> Produced:
    model = _build_model("sweep", conf)
    cfg = _build_simconfig(conf["sim"])
    horizon = float(_with_defaults("sweep", conf, "options")["horizon"])
    try:
        cfg.steps_for(horizon)
    except ValueError as exc:
        raise ConfigError(f"options.horizon: {exc}")
    salaries = [float(m) for m in conf["sweep"]["values"]]
    for i, m in enumerate(salaries):
        if not (math.isfinite(m) and m >= 0.0):
            raise ConfigError(
                f"sweep.values[{i}]: M_salary must be a nonnegative real")
    try:
        points = sim.disjoint_beliefs_demo(model, salaries, cfg,
                                           horizon=horizon)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}")
    names = ("m_salary", "mean", "ci", "target")
    files, rows = {}, []
    for i, (m, (est, target)) in enumerate(zip(salaries, points)):
        rows.append((m, est.mean, est.ci_halfwidth, target))
        files[f"pt_{i:03d}/estimate.txt"] = {
            name: [value] for name, value in zip(names, rows[-1])}
    files["summary.txt"] = dict(zip(names,
                                    np.reshape(rows, (-1, len(names))).T))
    return Produced(files, {"points": len(rows)})


def _sweep_band_width(conf: dict) -> Produced:
    base = _build_model("sweep", conf)
    preset = conf["model"]["preset"]
    if preset not in _BAND_PARAM:
        raise ConfigError(
            f"band_width sweep is not defined for preset '{preset}'")
    center = 0.5 * (base.nature_set_N[0] + base.nature_set_N[1])
    contract = _build_contract(conf["contract"])
    _build_grid(agent_grids, conf["grid"])   # grid errors read "grid:"
    x0 = float(_with_defaults("sweep", conf, "options")["x0"])
    _check_x0(x0, conf["grid"]["x_lo"], conf["grid"]["x_hi"])

    files, rows = {}, []
    for i, width in enumerate(conf["sweep"]["values"]):
        if not width >= 0.0:
            raise ConfigError(f"sweep.values[{i}]: width must be >= 0")
        params = _translate_params(
            _with_defaults("sweep", conf, "model")["params"])
        params[_BAND_PARAM[preset]] = (center - 0.5 * width,
                                       center + 0.5 * width)
        try:
            model = make_model(preset, **params)
            sol = solve_agent(model, contract, **conf["grid"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sweep.values[{i}]: {exc}")
        files.update((f"pt_{i:03d}/{name}", cols) for name, cols in
                     _surface_files("solve-agent", sol,
                                    (sol.t_grid, sol.x_grid)).items())
        rows.append((float(width), sol.value(0.0, x0)))
    files["summary.txt"] = dict(zip(("band_width", "value"),
                                    np.reshape(rows, (-1, 2)).T))
    return Produced(files,
                    {"points": len(rows), "band_center": center, "x0": x0})


def cmd_sweep(conf: dict, stages: dict[str, float]) -> Produced:
    with _stage(stages, "sweep"):
        return _SWEEPS[conf["sweep"]["axis"]](conf)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_SWEEPS = {"m_salary": _sweep_m_salary, "band_width": _sweep_band_width}
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


def _write_run(out_dir: str, command: str, conf: dict,
               seed_override: int | None, out: Produced,
               stages: dict[str, float]) -> None:
    """Write ``out``'s files and then the manifest that checksums exactly
    those under the ``write`` stage; then the timings sidecar."""
    with _stage(stages, "write"):
        for rel, content in out.files.items():
            path = os.path.join(out_dir, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if isinstance(content, str):
                with open(path, "w", encoding="ascii", newline="\n") as fh:
                    fh.write(content)
            elif _is_array(rel):
                export.write_array(path, content.values())
            else:
                export.write_table(path, content, content.values())
        export.write_manifest(out_dir, command, conf, files=list(out.files),
                              seed_override=seed_override, extras=out.run)
    export.write_timings(out_dir, stages)


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
        conf = run.effective(args.seed)
        stages: dict[str, float] = {}
        out = _HANDLERS[args.command](conf, stages)
        _write_run(out_dir, args.command, conf, args.seed, out, stages)
        if out.failure is not None:
            raise VerificationFailure(out.failure)
        return EXIT_OK
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
