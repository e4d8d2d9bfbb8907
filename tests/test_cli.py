"""End-to-end command tests: config validation, artifact pipelines, exit
codes, determinism and the verification gates."""

import io
import math
import os
import re
import shutil
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from robustcontract import cli, export, sim
from robustcontract.cli import (
    EXIT_CONFIG,
    EXIT_MISSING,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    RunConfig,
    main,
)
from robustcontract.presets import make_model
from robustcontract.principal import POLICY_FIELDS


def write_config(tmp_path, name: str, mapping: dict) -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return str(path)


def run_cli(command: str, config_path: str, out_dir, *extra) -> int:
    return main([command, "--config", config_path, "--out", str(out_dir),
                 *extra])


AGENT_MARTINGALE = {
    "model": {"preset": "heat_band", "params": {"band": [0.2, 0.4]}},
    "contract": {"payment": "linear:1,0"},
    "grid": {"x_lo": -4.0, "x_hi": 4.0, "x_nodes": 81,
             "t_steps": 32, "horizon": 1.0},
}

PRINCIPAL_SMALL = {
    "model": {"preset": "risk_neutral"},
    "grid": {"x_lo": -8.0, "x_hi": 8.0, "x_nodes": 17,
             "y_lo": -8.0, "y_hi": 8.0, "y_nodes": 17,
             "t_steps": 16, "horizon": 1.0},
    "options": {"x0": 0.0, "reservation": 0.0},
}


# The smallest accepted config of each command (and each variant of it).
AGENT_GRID = {"x_lo": -4.0, "x_hi": 4.0, "x_nodes": 41, "t_steps": 32,
              "horizon": 1.0}
SIM = {"paths": 10, "dt": 0.5, "seed": 0}
MINIMAL = {
    "agent": ("solve-agent", {
        "model": {"preset": "heat_band"}, "contract": {"payment": "call:0"},
        "grid": AGENT_GRID}),
    "principal": ("solve-principal", {
        "model": {"preset": "risk_neutral"},
        "grid": dict(AGENT_GRID, y_lo=-4.0, y_hi=4.0, y_nodes=41)}),
    "from_artifacts": ("simulate", {"sim": SIM, "artifacts": "runs/p"}),
    "from_policy": ("simulate", {"sim": SIM, "model": {"preset": "zero_vol"},
                                 "policy": {"horizon": 1.0}}),
    "verify": ("verify", {"verify": {"artifacts": "runs/p"}}),
    "m_salary": ("sweep", {
        "sweep": {"axis": "m_salary", "values": [1]},
        "model": {"preset": "disjoint_beliefs"}, "sim": SIM}),
    "band_width": ("sweep", {
        "sweep": {"axis": "band_width", "values": [0.1]},
        "model": {"preset": "heat_band"}, "contract": {"payment": "call:0"},
        "grid": AGENT_GRID}),
}
# Every optional key and section, on top of the minimal configs.
FULL = {
    "agent": {"model.params": {"band": [0.2, 0.4]}, "out": "runs/a"},
    "principal": {"options": {"x0": 0.0, "reservation": 0.0}},
    "from_artifacts": {"sim.x0": 0.5, "sim.y0": 0.25,
                       "nature": {"values": [0.2, 0.4]}},
    "from_policy": {"policy.z": 0.5, "policy.k_rate": 0.1,
                    "policy.nature": 0.0, "nature": {"values": []}},
    "verify": {"verify": {"artifacts": "runs/p", "paths": 100, "dt": 0.25,
                          "seed": 3, "perturbations": 2, "probes": 3,
                          "martingale_tolerance": 0.1}},
    "m_salary": {"options": {"horizon": 2.0}, "sim.x0": 1.0},
    "band_width": {"options": {"x0": 0.5}},
}
DROP = object()
KNOWN_PRESETS = ("['custom_tabulated', 'disjoint_beliefs', 'heat_band', "
                 "'quadratic_bounded', 'risk_neutral', 'zero_vol']")

# (minimal config, one fault, exact message).  Between them the cases
# reach every ConfigError that schema validation raises, for each command
# that reaches it.
REJECTED = [
    ("agent", {"extra": 1}, "unknown key 'config.extra'"),
    ("agent", {"options": {}}, "unknown key 'config.options'"),
    ("agent", {"model": DROP}, "missing required key 'model'"),
    ("agent", {"contract": DROP}, "missing required key 'contract'"),
    ("agent", {"grid": DROP}, "missing required key 'grid'"),
    ("agent", {"grid": 5}, "'config.grid' must be a mapping"),
    ("agent", {"out": 5}, "'config.out' must be a string"),
    ("agent", {"grid.nodes_x": 5}, "unknown key 'grid.nodes_x'"),
    ("agent", {"grid.y_lo": -4.0}, "unknown key 'grid.y_lo'"),
    ("agent", {"grid.x_lo": DROP}, "missing required key 'grid.x_lo'"),
    ("agent", {"grid.x_nodes": 4.5}, "'grid.x_nodes' must be an integer"),
    ("agent", {"grid.x_nodes": True}, "'grid.x_nodes' must be an integer"),
    ("agent", {"grid.horizon": "1"}, "'grid.horizon' must be a number"),
    ("agent", {"contract.payment": DROP},
     "missing required key 'contract.payment'"),
    ("agent", {"contract.payment": 3}, "'contract.payment' must be a string"),
    ("agent", {"contract.strike": 0}, "unknown key 'contract.strike'"),
    ("agent", {"model.preset": DROP}, "missing required key 'model.preset'"),
    ("agent", {"model.preset": 7}, "'model.preset' must be a string"),
    ("agent", {"model.preset": "nope"},
     f"unknown model preset 'nope'; known: {KNOWN_PRESETS}"),
    ("agent", {"model.params": [1]}, "'model.params' must be a mapping"),
    ("agent", {"model.band": [0.2, 0.4]}, "unknown key 'model.band'"),
    ("principal", {"model": DROP}, "missing required key 'model'"),
    ("principal", {"grid": DROP}, "missing required key 'grid'"),
    ("principal", {"contract": {"payment": "call:0"}},
     "unknown key 'config.contract'"),
    ("principal", {"grid.y_nodes": DROP},
     "missing required key 'grid.y_nodes'"),
    ("principal", {"grid.y_hi": "4"}, "'grid.y_hi' must be a number"),
    ("principal", {"model.preset": "nope"},
     f"unknown model preset 'nope'; known: {KNOWN_PRESETS}"),
    ("principal", {"options": []}, "'config.options' must be a mapping"),
    ("principal", {"options.horizon": 1.0}, "unknown key 'options.horizon'"),
    ("principal", {"options.cfl_safety": 0.5},
     "unknown key 'options.cfl_safety'"),
    ("principal", {"options.reservation": None},
     "'options.reservation' must be a number"),
    ("from_artifacts", {"sim": DROP}, "missing required key 'sim'"),
    ("from_artifacts", {"sim.seed": DROP}, "missing required key 'sim.seed'"),
    ("from_artifacts", {"sim.paths": 1.5}, "'sim.paths' must be an integer"),
    ("from_artifacts", {"sim.z": 0.0}, "unknown key 'sim.z'"),
    ("from_artifacts", {"policy": {"horizon": 1.0}},
     "give either 'artifacts' or 'policy', not both"),
    ("from_artifacts", {"model": {"preset": "zero_vol"}},
     "the model is read from the artifact manifest; remove the 'model' "
     "section"),
    ("from_artifacts", {"artifacts": 5}, "'config.artifacts' must be a string"),
    ("from_artifacts", {"grid": AGENT_GRID}, "unknown key 'config.grid'"),
    ("from_artifacts", {"nature": {}}, "missing required key 'nature.values'"),
    ("from_artifacts", {"nature": {"values": 0.3}},
     "'nature.values' must be a list"),
    ("from_artifacts", {"nature": {"values": [0.3, "a"]}},
     "'nature.values' must be a list of numbers"),
    ("from_artifacts", {"nature": {"values": [0.3], "steps": 2}},
     "unknown key 'nature.steps'"),
    ("from_policy", {"policy": DROP},
     "missing required key 'artifacts' or 'policy'"),
    ("from_policy", {"model": DROP}, "missing required key 'model'"),
    ("from_policy", {"model.preset": "nope"},
     f"unknown model preset 'nope'; known: {KNOWN_PRESETS}"),
    ("from_policy", {"policy.horizon": DROP},
     "missing required key 'policy.horizon'"),
    ("from_policy", {"policy.nature": "hi"},
     "'policy.nature' must be a number"),
    ("from_policy", {"policy.seed": 1}, "unknown key 'policy.seed'"),
    ("verify", {"verify": DROP}, "missing required key 'verify'"),
    ("verify", {"verify.artifacts": DROP},
     "missing required key 'verify.artifacts'"),
    ("verify", {"verify.artifacts": ["a"]},
     "'verify.artifacts' must be a string"),
    ("verify", {"verify.probes": 9.0}, "'verify.probes' must be an integer"),
    ("verify", {"verify.martingale_tolerance": "x"},
     "'verify.martingale_tolerance' must be a number"),
    ("verify", {"verify.x0": 0.0}, "unknown key 'verify.x0'"),
    ("verify", {"model": {"preset": "zero_vol"}},
     "unknown key 'config.model'"),
    ("m_salary", {"sweep": DROP}, "missing required key 'sweep'"),
    ("m_salary", {"sweep.axis": DROP}, "missing required key 'sweep.axis'"),
    ("m_salary", {"sweep.values": DROP},
     "missing required key 'sweep.values'"),
    ("m_salary", {"sweep.axis": 3}, "'sweep.axis' must be a string"),
    ("m_salary", {"sweep.axis": "gravity"},
     "unknown sweep axis 'gravity'; known: band_width, m_salary"),
    ("m_salary", {"sweep.values": "1"}, "'sweep.values' must be a list"),
    ("m_salary", {"sweep.values": [1, "a"]},
     "'sweep.values' must be a list of numbers"),
    ("m_salary", {"sweep.step": 1}, "unknown key 'sweep.step'"),
    ("m_salary", {"model": DROP}, "missing required key 'model'"),
    ("m_salary", {"sim": DROP}, "missing required key 'sim'"),
    ("m_salary", {"contract": {"payment": "call:0"}},
     "unknown key 'contract' for an m_salary sweep"),
    ("m_salary", {"grid": AGENT_GRID},
     "unknown key 'grid' for an m_salary sweep"),
    ("m_salary", {"verify": {}}, "unknown key 'config.verify'"),
    ("m_salary", {"model.preset": "nope"},
     f"unknown model preset 'nope'; known: {KNOWN_PRESETS}"),
    ("m_salary", {"sim.dt": DROP}, "missing required key 'sim.dt'"),
    ("m_salary", {"options.x0": 0.0}, "unknown key 'options.x0'"),
    ("m_salary", {"options.horizon": "1"},
     "'options.horizon' must be a number"),
    ("m_salary", {"options.horizon": math.inf},
     "'options.horizon' must be finite, got inf"),
    ("m_salary", {"options.horizon": math.nan},
     "'options.horizon' must be finite, got nan"),
    ("band_width", {"model": DROP}, "missing required key 'model'"),
    ("band_width", {"contract": DROP}, "missing required key 'contract'"),
    ("band_width", {"grid": DROP}, "missing required key 'grid'"),
    ("band_width", {"sim": SIM}, "unknown key 'sim' for a band_width sweep"),
    ("band_width", {"model.preset": "nope"},
     f"unknown model preset 'nope'; known: {KNOWN_PRESETS}"),
    ("band_width", {"contract.payment": DROP},
     "missing required key 'contract.payment'"),
    ("band_width", {"grid.y_hi": 4.0}, "unknown key 'grid.y_hi'"),
    ("band_width", {"grid.t_steps": DROP},
     "missing required key 'grid.t_steps'"),
    ("band_width", {"options.horizon": 1.0}, "unknown key 'options.horizon'"),
    ("band_width", {"options.x0": "0"}, "'options.x0' must be a number"),
]
# the first rejected case of each command, run through ``main``
BY_MAIN = list({MINIMAL[case[0]][0]: case for case in reversed(REJECTED)}
               .values())


def edited(name: str, edits: dict) -> tuple[str, dict]:
    """A deep copy of a minimal config with dotted-path edits applied;
    ``DROP`` deletes the key."""
    command, base = MINIMAL[name]
    doc = yaml.safe_load(yaml.safe_dump(base))
    for path, value in edits.items():
        *parents, key = path.split(".")
        node = doc
        for part in parents:
            node = node.setdefault(part, {})
        if value is DROP:
            del node[key]
        else:
            node[key] = value
    return command, doc


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def read_example(name: str) -> tuple[str, str]:
    """(text, command) of an example config, the command read from the
    ``Run:`` line of its header comment."""
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
        text = fh.read()
    return text, text.split("Run: robustcontract ", 1)[1].split()[0]


class TestSchemaCorpus:
    @pytest.mark.parametrize("name", sorted(MINIMAL))
    @pytest.mark.parametrize("full", [False, True])
    def test_accepted_configs_parse_verbatim(self, name, full):
        command, doc = edited(name, FULL[name] if full else {})
        run = RunConfig.parse(yaml.safe_dump(doc), command)
        assert run.mapping == doc

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
    def test_example_configs_parse(self, name):
        text, command = read_example(name)
        assert RunConfig.parse(text, command).mapping == yaml.safe_load(text)

    @pytest.mark.parametrize("name,edits,message", REJECTED)
    def test_each_fault_has_its_message(self, name, edits, message):
        command, doc = edited(name, edits)
        with pytest.raises(ConfigError) as exc:
            RunConfig.parse(yaml.safe_dump(doc), command)
        assert str(exc.value) == message

    def test_unknown_command(self):
        with pytest.raises(ConfigError) as exc:
            RunConfig.parse("out: x\n", "solve")
        assert str(exc.value) == "unknown command 'solve'"

    @pytest.mark.parametrize("name,edits,message", BY_MAIN)
    def test_main_exits_2_with_the_message(self, name, edits, message,
                                            tmp_path, capsys):
        command, doc = edited(name, edits)
        cfg = write_config(tmp_path, "bad.yaml", doc)
        assert run_cli(command, cfg, tmp_path / "out") == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()


def documented_schema(doc: str):
    """The schema that a docstring states in its literal block: {(command,
    variant): {section: (label, optional)}} from the command lines, and
    {label: key tokens} from the section lines that follow them."""
    match = re.search(r"::\n\n(.*?)\n\n(.*?)\n\n", doc, re.S)
    if match is None:
        return {}, {}
    commands = {}
    for line in match.group(1).splitlines():
        head, tokens = re.split(r"\s{2,}", line.strip(), maxsplit=1)
        command, _, variant = head.partition(" ")
        commands[(command, variant.strip("()") or None)] = {
            token.strip("[]").split("/")[0]: (token.strip("[]"),
                                              token.startswith("["))
            for token in tokens.split()}
    sections, labels = {}, []
    for line in match.group(2).splitlines():
        if not line.startswith(" " * 5):  # not a continuation line
            head, line = re.split(r"\s{2,}", line.strip(), maxsplit=1)
            labels = head.split(", ")
        for label in labels:
            sections.setdefault(label, []).extend(line.split())
    return commands, sections


def tabled_schema() -> dict:
    """{(command, variant): (section specs, required sections)}."""
    out = {}
    for command, entry in cli._SCHEMA.items():
        _, variants = entry.get("pick", (None, {None: {
            "required": (), "sections": {}}}))
        for variant, part in variants.items():
            out[(command, variant)] = (
                dict(entry["sections"], **part["sections"]),
                set(entry["required"]) | set(part["required"]))
    return out


def key_defaults(tokens) -> dict:
    """{key: (type, default)} from key tokens: ``key`` is required,
    ``[key]`` has no fixed default and ``[key=value]`` has that one."""
    out = {}
    for token in tokens:
        key, _, value = token.strip("[]").partition("=")
        default = ("required" if not token.startswith("[")
                   else yaml.safe_load(value) if value else None)
        out[key] = (type(default), default)
    return out


class TestSchemaDocstring:
    def test_docstring_states_every_section_key_and_default(self):
        commands, sections = documented_schema(cli.__doc__)
        table = tabled_schema()
        assert set(commands) == set(table)
        used = {"out"}
        for variant, (specs, required) in table.items():
            assert set(commands[variant]) == set(specs), variant
            for name, spec in specs.items():
                label, optional = commands[variant][name]
                assert optional == (name not in required), (variant, name)
                used.add(label)
                if isinstance(spec, str):
                    assert (spec, sections[label]) == ("str", ["strings"])
                    continue
                want = {key: "required" if default is cli._REQUIRED
                        else default for key, (_, default) in spec.items()}
                assert key_defaults(sections[label]) == {
                    key: (type(d), d) for key, d in want.items()}, label
        assert sections["out"] == ["strings"] and "``[out]``" in cli.__doc__
        assert used == set(sections)

    def test_the_parser_reads_a_stated_schema(self):
        commands, sections = documented_schema(
            "Schema::\n\n    sweep (band_width)   sweep grid/x [options]\n"
            "\n    grid/x         x_lo [t_steps]\n"
            "                   [horizon=1.0]\n    a, b      strings\n\n")
        assert commands == {("sweep", "band_width"): {
            "sweep": ("sweep", False), "grid": ("grid/x", False),
            "options": ("options", True)}}
        assert sections == {"grid/x": ["x_lo", "[t_steps]", "[horizon=1.0]"],
                            "a": ["strings"], "b": ["strings"]}
        assert key_defaults(sections["grid/x"]) == {
            "x_lo": (str, "required"), "t_steps": (type(None), None),
            "horizon": (float, 1.0)}


@pytest.fixture(scope="module")
def principal_run(tmp_path_factory):
    """One shared small principal solve for the simulate/verify tests."""
    tmp = tmp_path_factory.mktemp("principal")
    cfg = write_config(tmp, "p.yaml", PRINCIPAL_SMALL)
    out = tmp / "run"
    assert run_cli("solve-principal", cfg, out) == EXIT_OK
    return out


class TestRunConfig:
    def test_round_trips_unchanged(self):
        run = RunConfig.parse(yaml.safe_dump(PRINCIPAL_SMALL),
                              "solve-principal")
        again = RunConfig.parse(run.serialize(), "solve-principal")
        assert again == run

    def test_unknown_key_names_its_path(self):
        doc = dict(AGENT_MARTINGALE)
        doc["grid"] = dict(doc["grid"], nodes_x=5)
        with pytest.raises(ConfigError, match="grid.nodes_x"):
            RunConfig.parse(yaml.safe_dump(doc), "solve-agent")

    def test_missing_contract_key_is_named(self):
        doc = {k: v for k, v in AGENT_MARTINGALE.items()}
        doc["contract"] = {}
        with pytest.raises(ConfigError, match="contract.payment"):
            RunConfig.parse(yaml.safe_dump(doc), "solve-agent")

    def test_yaml_error_reports_the_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            RunConfig.parse("model:\n  - : :\n", "solve-principal")

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            RunConfig.parse("- 1\n- 2\n", "simulate")

    def test_effective_strips_out_and_applies_seed(self):
        doc = {"sim": {"paths": 10, "dt": 0.5, "seed": 1},
               "model": {"preset": "zero_vol"},
               "policy": {"horizon": 1.0}, "out": "somewhere"}
        run = RunConfig.parse(yaml.safe_dump(doc), "simulate")
        conf = run.effective(99)
        assert "out" not in conf and conf["sim"]["seed"] == 99
        assert run.mapping["sim"]["seed"] == 1


class TestSolveAgent:
    def test_martingale_contract_surface_is_the_identity(self, tmp_path):
        cfg = write_config(tmp_path, "a.yaml", AGENT_MARTINGALE)
        out = tmp_path / "run"
        assert run_cli("solve-agent", cfg, out) == EXIT_OK
        tab = export.read_table(str(out / "agent_value.txt"))
        first = tab["t"] == 0.0
        assert np.max(np.abs(tab["value"][first] - tab["x"][first])) <= 1e-9

    def test_bounded_utility_bounds_the_surface(self, tmp_path):
        doc = {
            "model": {"preset": "quadratic_bounded"},
            "contract": {"payment": "linear:1,0"},
            "grid": {"x_lo": -4.0, "x_hi": 4.0, "x_nodes": 41,
                     "t_steps": 32, "horizon": 1.0},
        }
        cfg = write_config(tmp_path, "q.yaml", doc)
        out = tmp_path / "run"
        assert run_cli("solve-agent", cfg, out) == EXIT_OK
        tab = export.read_table(str(out / "agent_value.txt"))
        assert np.max(np.abs(tab["value"])) <= 1.0 + 1e-12

    def test_missing_contract_key_exits_2(self, tmp_path, capsys):
        doc = {k: v for k, v in AGENT_MARTINGALE.items()
               if k != "contract"}
        doc["contract"] = {}
        cfg = write_config(tmp_path, "m.yaml", doc)
        assert run_cli("solve-agent", cfg, tmp_path / "x") == EXIT_CONFIG
        assert "contract.payment" in capsys.readouterr().err

    def test_unstable_grid_exits_2(self, tmp_path, capsys):
        doc = dict(AGENT_MARTINGALE,
                   grid={"x_lo": -4.0, "x_hi": 4.0, "x_nodes": 401,
                         "t_steps": 4, "horizon": 1.0})
        cfg = write_config(tmp_path, "u.yaml", doc)
        assert run_cli("solve-agent", cfg, tmp_path / "x") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: solve: stability bound violated: ")

    def test_a_degenerate_grid_is_a_grid_error(self, tmp_path, capsys):
        doc = dict(AGENT_MARTINGALE,
                   grid=dict(AGENT_MARTINGALE["grid"], x_nodes=2))
        cfg = write_config(tmp_path, "d.yaml", doc)
        assert run_cli("solve-agent", cfg, tmp_path / "x") == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: grid: need at least 3 space nodes\n")
        assert not (tmp_path / "x").exists()

    def test_non_finite_tabulated_payment_exits_2(self, tmp_path, capsys):
        x = np.linspace(-2.0, 2.0, 41)
        pay = np.maximum(x, 0.0)
        pay[20] = np.nan
        table = tmp_path / "pay.txt"
        table.write_text("".join(f"{a!r} {b!r}\n" for a, b in
                                 zip(x.tolist(), pay.tolist())))
        doc = {"model": {"preset": "heat_band"},
               "contract": {"payment": f"tabulated:{table}"},
               "grid": {"x_lo": -2.0, "x_hi": 2.0, "x_nodes": 41,
                        "t_steps": 50, "horizon": 1.0}}
        cfg = write_config(tmp_path, "n.yaml", doc)
        out = tmp_path / "x"
        assert run_cli("solve-agent", cfg, out) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: solve: terminal value is not finite at 1 of 41 "
            "nodes, first at x=0.0: nan\n")
        assert not out.exists()


class TestSolvePrincipal:
    def test_closed_form_value_at_the_chosen_promise(self, principal_run):
        tab = export.read_table(str(principal_run / "y0.txt"))
        y0, value = float(tab["y0"][0]), float(tab["value"][0])
        assert y0 == 0.0
        assert abs(value - (0.0 - y0 + 0.5)) <= 0.02

    def test_infeasible_participation_exits_2(self, tmp_path, capsys):
        doc = dict(PRINCIPAL_SMALL, options={"x0": 0.0, "reservation": 9.5})
        cfg = write_config(tmp_path, "r.yaml", doc)
        assert run_cli("solve-principal", cfg, tmp_path / "x") == EXIT_CONFIG
        assert "participation" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_a_box_without_distinct_nodes_exits_2(self, tmp_path, capsys,
                                                   axis):
        # np.linspace would put 41 nodes on 9 distinct doubles
        grid = dict(PRINCIPAL_SMALL["grid"], **{
            f"{axis}_lo": 1e15, f"{axis}_hi": 1e15 + 1.0,
            f"{axis}_nodes": 41})
        cfg = write_config(tmp_path, "g.yaml",
                           dict(PRINCIPAL_SMALL, grid=grid))
        assert run_cli("solve-principal", cfg, tmp_path / "x") == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: grid: the {axis} interval [1000000000000000.0, "
            "1000000000000001.0] cannot hold 41 distinct nodes\n")
        assert not (tmp_path / "x").exists()

    def test_a_non_finite_x0_exits_2(self, tmp_path, capsys):
        doc = dict(PRINCIPAL_SMALL,
                   options={"x0": math.nan, "reservation": 0.0})
        cfg = write_config(tmp_path, "n.yaml", doc)
        assert run_cli("solve-principal", cfg, tmp_path / "x") == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: 'options.x0' must be finite, got nan\n")
        assert not (tmp_path / "x").exists()

    def test_a_slice_past_the_substep_limit_exits_2(self, tmp_path, capsys):
        # risk_neutral selects from its exact candidates, so no radius runs
        # away: the one 5000-long slice alone needs the substeps
        doc = {"model": {"preset": "risk_neutral"},
               "grid": {"x_lo": -8.0, "x_hi": 8.0, "x_nodes": 41,
                        "y_lo": -8.0, "y_hi": 8.0, "y_nodes": 41,
                        "t_steps": 1, "horizon": 5000.0}}
        cfg = write_config(tmp_path, "s.yaml", doc)
        assert run_cli("solve-principal", cfg, tmp_path / "x") == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: solve: slice needs more than 10000 stable "
            "substeps; refine the grid\n")
        assert not (tmp_path / "x").exists()

    def test_zero_time_steps_writes_terminal_only(self, tmp_path):
        doc = dict(PRINCIPAL_SMALL, options={},
                   grid=dict(PRINCIPAL_SMALL["grid"], t_steps=0))
        cfg = write_config(tmp_path, "z.yaml", doc)
        out = tmp_path / "run"
        assert run_cli("solve-principal", cfg, out) == EXIT_OK
        tab = export.read_table(str(out / "value_surface.txt"))
        assert len(tab["value"]) == 17 * 17
        assert np.all(tab["t"] == 0.0)


class TestSimulate:
    def test_from_artifacts_closes_the_loop(self, principal_run, tmp_path):
        doc = {"sim": {"paths": 2000, "dt": 1.0 / 64.0, "seed": 11},
               "artifacts": str(principal_run)}
        cfg = write_config(tmp_path, "s.yaml", doc)
        out = tmp_path / "run"
        assert run_cli("simulate", cfg, out) == EXIT_OK
        est = export.read_table(str(out / "estimates.txt"))
        y0 = float(export.read_table(str(principal_run / "y0.txt"))["y0"][0])
        value = float(export.read_table(
            str(principal_run / "y0.txt"))["value"][0])
        agent_gap = abs(float(est["agent_mean"][0]) - y0)
        assert agent_gap <= 3.0 * float(est["agent_ci"][0]) + 0.02
        assert abs(float(est["principal_mean"][0]) - value) <= 0.02
        assert float(est["quarantined"][0]) == 0.0

    def test_reads_no_value_surface(self, principal_run, tmp_path):
        art = tmp_path / "art"
        shutil.copytree(principal_run, art)
        (art / "value_surface.txt").unlink()
        for name, solve in (("full", principal_run), ("policy_only", art)):
            doc = {"sim": {"paths": 300, "dt": 1.0 / 16.0, "seed": 4},
                   "artifacts": str(solve)}
            cfg = write_config(tmp_path, f"{name}.yaml", doc)
            assert run_cli("simulate", cfg, tmp_path / name) == EXIT_OK
        for table in ("estimates.txt", "qv.txt"):
            assert (tmp_path / "full" / table).read_bytes() == \
                (tmp_path / "policy_only" / table).read_bytes(), table

    def test_constant_policy_without_artifacts(self, tmp_path):
        doc = {
            "model": {"preset": "heat_band", "params": {"band": [0.3, 0.3]}},
            "sim": {"paths": 400, "dt": 0.025, "seed": 2},
            "policy": {"horizon": 1.0, "z": 0.0, "nature": 0.3},
        }
        cfg = write_config(tmp_path, "c.yaml", doc)
        out = tmp_path / "run"
        assert run_cli("simulate", cfg, out) == EXIT_OK
        qv = export.read_table(str(out / "qv.txt"))["qv"]
        assert abs(float(np.mean(qv)) - 0.09) <= 0.02

    def test_nature_scenario_override(self, tmp_path):
        doc = {
            "model": {"preset": "heat_band", "params": {"band": [0.2, 0.4]}},
            "sim": {"paths": 400, "dt": 0.025, "seed": 3},
            "policy": {"horizon": 1.0},
            "nature": {"values": [0.4, 0.2]},
        }
        cfg = write_config(tmp_path, "n.yaml", doc)
        out = tmp_path / "run"
        assert run_cli("simulate", cfg, out) == EXIT_OK
        qv = export.read_table(str(out / "qv.txt"))
        first_half = qv["t"] < 0.5
        assert abs(float(np.mean(qv["qv"][first_half])) - 0.16) <= 0.04
        assert abs(float(np.mean(qv["qv"][~first_half])) - 0.04) <= 0.02

    def test_policy_and_artifacts_conflict(self, tmp_path, capsys):
        doc = {"sim": {"paths": 10, "dt": 0.5, "seed": 0},
               "artifacts": "somewhere",
               "model": {"preset": "zero_vol"},
               "policy": {"horizon": 1.0}}
        cfg = write_config(tmp_path, "b.yaml", doc)
        assert run_cli("simulate", cfg, tmp_path / "x") == EXIT_CONFIG
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("x0", math.nan),
                                           ("y0", math.inf)])
    def test_a_non_finite_start_point_exits_2(self, principal_run, tmp_path,
                                              capsys, key, value):
        doc = {"sim": {"paths": 10, "dt": 0.5, "seed": 0, key: value},
               "artifacts": str(principal_run)}
        cfg = write_config(tmp_path, "n.yaml", doc)
        assert run_cli("simulate", cfg, tmp_path / "x") == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: sim: {key} must be finite, got {value!r}\n")
        assert not (tmp_path / "x").exists()

    def test_indivisible_dt_exits_2(self, principal_run, tmp_path):
        doc = {"sim": {"paths": 10, "dt": 0.3, "seed": 0},
               "artifacts": str(principal_run)}
        cfg = write_config(tmp_path, "d.yaml", doc)
        assert run_cli("simulate", cfg, tmp_path / "x") == EXIT_CONFIG


class TestVerify:
    def test_full_pipeline_passes(self, principal_run, tmp_path):
        doc = {"verify": {"artifacts": str(principal_run), "paths": 1500,
                          "perturbations": 3}}
        cfg = write_config(tmp_path, "v.yaml", doc)
        out = tmp_path / "run"
        assert run_cli("verify", cfg, out) == EXIT_OK
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["passed"] is True
        for name in ("checksums", "incentive_fields", "girsanov_agreement",
                     "martingale_drift", "incentive_probes"):
            assert report["checks"][name]["passed"] is True, name

    # the keys beyond passed, measured and bound that a report entry may
    # hold, each named here, so that an ungated number cannot come back
    REPORT_EXTRAS = {"checksums": {"mismatched"},
                     "incentive_probes": {"strictly_lower", "perturbations"}}

    @pytest.mark.parametrize("kind", ["principal", "agent"])
    def test_every_report_entry_is_a_gate(self, principal_run, agent_run,
                                          tmp_path, kind):
        art = principal_run if kind == "principal" else agent_run
        doc = {"verify": {"artifacts": str(art), "paths": 300,
                          "perturbations": 2}}
        out = tmp_path / "run"
        assert run_cli("verify", write_config(tmp_path, "v.yaml", doc),
                       out) == EXIT_OK
        checks = yaml.safe_load((out / "report.yaml").read_text())["checks"]
        assert checks
        for name, entry in checks.items():
            assert set(entry) == {"passed", "measured", "bound"} \
                | self.REPORT_EXTRAS.get(name, set()), name

    def test_shared_increments_keep_the_report_bytes(self, principal_run,
                                                     tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "v.yaml", {"verify": {
            "artifacts": str(principal_run), "paths": 300, "seed": 9,
            "perturbations": 2}})
        drawn, rows = [], []
        draw, fresh_rows = sim._draw_increments, sim._path_increments

        def counting(seed, paths, steps):
            drawn.append(seed)
            return draw(seed, paths, steps)

        def counting_rows(seed, paths, steps):
            rows.append(seed)
            return fresh_rows(seed, paths, steps)

        monkeypatch.setattr(sim, "_draw_increments", counting)
        monkeypatch.setattr(sim, "_path_increments", counting_rows)
        assert run_cli("verify", cfg, tmp_path / "shared") == EXIT_OK
        # one matrix for the martingale and the incentive check; the
        # cross-check's reweighted run draws its own rows
        assert (drawn, rows) == ([9], [10])

        real = sim.simulate_system

        def fresh(model, policy, nature, cfg, **kwargs):
            kwargs.pop("increments", None)
            return real(model, policy, nature, cfg, **kwargs)

        monkeypatch.setattr(sim, "simulate_system", fresh)
        rows.clear()
        assert run_cli("verify", cfg, tmp_path / "fresh") == EXIT_OK
        # the martingale check's feedback run, which is also the
        # cross-check's direct run, the baseline and 2 perturbations per
        # nature point, and the cross-check's reweighted run
        batches = 1 + 3 * len(make_model("risk_neutral").n_grid())
        assert rows == [9] * batches + [10]
        for name in ("report.yaml", export.MANIFEST_NAME):
            assert (tmp_path / "shared" / name).read_bytes() == \
                (tmp_path / "fresh" / name).read_bytes()

    @pytest.mark.parametrize("key,value,message", [
        ("probes", 1, "probes must be at least 2, got 1"),
        ("probes", 0, "probes must be at least 2, got 0"),
        ("probes", -2, "probes must be at least 2, got -2"),
        ("perturbations", 0, "perturbations must be at least 1, got 0"),
        ("perturbations", -1, "perturbations must be at least 1, got -1"),
        ("martingale_tolerance", 0.0,
         "martingale_tolerance must be positive and finite, got 0.0"),
        ("martingale_tolerance", -1,
         "martingale_tolerance must be positive and finite, got -1.0"),
        ("martingale_tolerance", math.inf,
         "martingale_tolerance must be positive and finite, got inf"),
    ])
    def test_vacuous_settings_exit_2_and_write_nothing(
            self, principal_run, tmp_path, capsys, key, value, message):
        cfg = write_config(tmp_path, "v.yaml", {"verify": {
            "artifacts": str(principal_run), "paths": 200, key: value}})
        out = tmp_path / "run"
        assert run_cli("verify", cfg, out) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: verify: {message}\n"
        assert not out.exists()

    def test_tampered_surface_fails_checksums(self, principal_run, tmp_path,
                                              capsys):
        art = tmp_path / "tampered"
        shutil.copytree(principal_run, art)
        path = art / "value_surface.txt"
        path.write_text(path.read_text().replace("0.5", "0.6", 1))
        cfg = write_config(tmp_path, "t.yaml",
                           {"verify": {"artifacts": str(art)}})
        out = tmp_path / "run"
        assert run_cli("verify", cfg, out) == EXIT_VERIFY
        assert "checksums" in capsys.readouterr().err
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["checks"]["checksums"]["mismatched"] == \
            ["value_surface.txt"]

    def test_injected_policy_flagged_by_incentive_check(self, principal_run,
                                                        tmp_path):
        art = tmp_path / "injected"
        shutil.copytree(principal_run, art)
        path = art / POLICY
        fields = dict(zip(POLICY_FIELDS, np.load(path, allow_pickle=False)))
        fields["z"] = 0.5 * fields["z"]
        export.write_array(str(path), fields.values())
        doc = export.read_manifest(str(art))
        doc["artifacts"][POLICY] = export.sha256_file(str(path))
        (art / "manifest.yaml").write_text(export.canonical_yaml(doc))

        cfg = write_config(tmp_path, "i.yaml",
                           {"verify": {"artifacts": str(art), "paths": 400,
                                       "perturbations": 2}})
        out = tmp_path / "run"
        assert run_cli("verify", cfg, out) == EXIT_VERIFY
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["checks"]["incentive_fields"]["passed"] is False
        assert report["checks"]["incentive_fields"]["measured"] \
            == pytest.approx(0.5)

    def test_missing_directory_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, "m.yaml",
                           {"verify": {"artifacts": str(tmp_path / "nope")}})
        assert run_cli("verify", cfg, tmp_path / "x") == EXIT_MISSING

    @staticmethod
    def drop_grid_key(art, key):
        """Delete ``grid.<key>`` from the config a manifest embeds."""
        doc = export.read_manifest(str(art))
        del doc["config"]["grid"][key]
        (art / export.MANIFEST_NAME).write_text(export.canonical_yaml(doc))

    def test_agent_manifest_config_off_schema_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "a.yaml", AGENT_MARTINGALE)
        art = tmp_path / "agent"
        assert run_cli("solve-agent", cfg, art) == EXIT_OK
        self.drop_grid_key(art, "x_nodes")
        vcfg = write_config(tmp_path, "va.yaml",
                            {"verify": {"artifacts": str(art)}})
        assert run_cli("verify", vcfg, tmp_path / "run") == EXIT_MISSING
        assert "missing required key 'grid.x_nodes'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_principal_manifest_config_off_schema_exits_3(
            self, principal_run, tmp_path, capsys, command):
        art = tmp_path / "principal"
        shutil.copytree(principal_run, art)
        self.drop_grid_key(art, "y_nodes")
        doc = ({"verify": {"artifacts": str(art)}} if command == "verify"
               else {"sim": {"paths": 100, "dt": 1.0 / 64.0, "seed": 1},
                     "artifacts": str(art)})
        cfg = write_config(tmp_path, "c.yaml", doc)
        assert run_cli(command, cfg, tmp_path / "run") == EXIT_MISSING
        assert "missing required key 'grid.y_nodes'" in capsys.readouterr().err

    def test_agent_artifacts_static_checks(self, tmp_path):
        cfg = write_config(tmp_path, "a.yaml", AGENT_MARTINGALE)
        art = tmp_path / "agent"
        assert run_cli("solve-agent", cfg, art) == EXIT_OK
        vcfg = write_config(tmp_path, "va.yaml",
                            {"verify": {"artifacts": str(art)}})
        out = tmp_path / "run"
        assert run_cli("verify", vcfg, out) == EXIT_OK
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["checks"]["terminal_consistency"]["passed"] is True
        assert report["checks"]["controls_in_range"]["passed"] is True


@pytest.fixture(scope="module")
def agent_run(tmp_path_factory):
    """One shared solve-agent directory for the damaged-artifact tests."""
    tmp = tmp_path_factory.mktemp("agent")
    out = tmp / "run"
    assert run_cli("solve-agent", write_config(tmp, "a.yaml", AGENT_MARTINGALE),
                   out) == EXIT_OK
    return out


Y0 = ["y0", "value", "at_upper_edge"]
POLICY = "policy.npy"
# the commands that read a solve directory, with the solve kind each reads,
# mapped to the table that the table cases edit, its columns and its rows
# (PRINCIPAL_SMALL has 17 x 17 x 17 nodes, AGENT_MARTINGALE 33 x 81); of a
# principal solve's tables simulate reads only y0.txt
TABLE = {
    ("simulate", "principal"): ("y0.txt", Y0, 1),
    ("verify", "principal"): ("value_surface.txt", ["t", "x", "y", "value"],
                              4913),
    ("verify", "agent"): ("agent_effort.txt", ["t", "x", "effort"], 2673),
}
READERS = list(TABLE)
# the damage cases of policy.npy, which both readers of a principal solve
# read; ``damage_policy`` rewrites the file, deletes it or puts a directory
# in its place
POLICY_DAMAGED = {
    case: f"{{name}} in '{{art}}' is damaged: {message}" for case, message in {
        "bad_magic": "not a .npy file",
        "shape_off_by_one_node": "holds shape (6, 17, 17, 16), not "
                                 "(6, 17, 17, 17)",
        "dtype_f4": "holds <f4 data, not <f8",
        "fortran_order": "is in Fortran order, not C order",
        "pickled_objects": "holds |O data, not <f8",
        "truncated_data": "ends 8 bytes short of its data",
        "trailing_bytes": "has 8 bytes after its data",
        "billion_element_header": "holds shape (1000000000,), not "
                                  "(6, 17, 17, 17)",
    }.items()}
POLICY_DAMAGED["missing_policy"] = "{absent}"
# verify counts a directory in place of a listed file as absent
POLICY_DAMAGED["directory_in_place"] = "{unreadable}"
UNREADABLE = {"simulate": "cannot read {name} in '{art}': Is a directory",
              "verify": "files listed in the manifest are absent: {name}"}
# case: the message it gives, formatted with the damaged directory ``art``,
# the damaged file ``name``, a table's ``cols`` and ``rows``, and
# ``absent``, how the command reports a listed file that is gone
DAMAGED = {
    "renamed_column": "{name} in '{art}' has {rows} rows of {renamed}, not "
                      "{rows} of {cols}",
    "extra_column": "{name} in '{art}' has {rows} rows of {extra}, not "
                    "{rows} of {cols}",
    "malformed_row": "{name} in '{art}' is damaged: could not convert string "
                     "'oops' to float64 at row 0, column 1.",
    "truncated_rows": "{name} in '{art}' has {short} rows of {cols}, not "
                      "{rows} of {cols}",
    "axis_off_by_one_ulp": "{name} in '{art}': column x is off the manifest "
                           "grid",
    "header_only_y0": f"y0.txt in '{{art}}' has 0 rows of {Y0}, not 1 of {Y0}",
    "missing_file": "{absent}",
    "unparseable_manifest": "manifest.yaml in '{art}' is damaged: cannot "
                            "parse YAML at line 2: expected ',' or ']', but "
                            "got '<stream end>'",
    **POLICY_DAMAGED,
}
# the cases that rewrite the manifest's ``artifacts`` from its mapping, the
# solve directory ``art`` and the table ``name``; each key they add names
# the table itself, so only the key's form is at fault
ARTIFACT_EDITS = {
    "artifacts_list": lambda arts, art, name: sorted(arts),
    "absolute_artifact": lambda arts, art, name: dict(
        arts, **{str(art / name): arts[name]}),
    "dotdot_artifact": lambda arts, art, name: dict(
        arts, **{f"../{art.name}/{name}": arts[name]}),
}
DAMAGED.update(dict.fromkeys(
    ARTIFACT_EDITS, "{art}/manifest.yaml: artifacts must map relative paths "
                    "inside the directory to checksums"))
# the cases that edit a file the manifest lists, whose checksum verify must
# then re-pin to read the damage
REPIN = set(DAMAGED) - {"missing_file", "missing_policy",
                        "directory_in_place", "unparseable_manifest",
                        *ARTIFACT_EDITS}
ABSENT = {"simulate": "no {name} in '{art}'",
          "verify": "files listed in the manifest are absent: {name}"}
# an agent solve has no y0.txt and no policy; y0.txt has no grid axis
DAMAGE_RUNS = [(command, kind, case) for command, kind in READERS
               for case in DAMAGED
               if not (kind == "agent" and (case == "header_only_y0"
                                            or case in POLICY_DAMAGED))
               and (command, case) != ("simulate", "axis_off_by_one_ulp")]


def damage_policy(path, case: str) -> None:
    """Apply one ``POLICY_DAMAGED`` case to the policy file ``path``."""
    if case in ("missing_policy", "directory_in_place"):
        path.unlink()
        if case == "directory_in_place":
            path.mkdir()
        return
    raw = path.read_bytes()
    block = np.load(path, allow_pickle=False)
    buf = io.BytesIO()
    if case == "bad_magic":
        raw = b"\x00" + raw[1:]
    elif case == "truncated_data":
        raw = raw[:-8]
    elif case == "trailing_bytes":
        raw += bytes(8)
    elif case == "billion_element_header":
        # the data stays that of the real grid: only the header claims 8 GB
        np.lib.format.write_array_header_1_0(buf, {
            "descr": "<f8", "fortran_order": False, "shape": (10**9,)})
        raw = buf.getvalue() + block.tobytes()
    else:
        np.save(buf, {"shape_off_by_one_node": block[..., :-1],
                      "dtype_f4": block.astype("<f4"),
                      "fortran_order": np.asfortranarray(block),
                      "pickled_objects": block.astype(object)}[case],
                allow_pickle=True)
        raw = buf.getvalue()
    path.write_bytes(raw)


def damage(art, name: str, case: str) -> None:
    """Apply one damage case to file ``name`` (a table, ``policy.npy``, or
    ``y0.txt`` or the manifest) of the solve directory ``art``."""
    path = art / name
    if case in POLICY_DAMAGED:
        damage_policy(path, case)
        return
    lines = path.read_text().splitlines()
    if case == "renamed_column":
        lines[0] = lines[0].rsplit(" ", 1)[0] + " renamed"
    elif case == "extra_column":
        lines = [line + (" 0" if i else " extra")
                 for i, line in enumerate(lines)]
    elif case == "malformed_row":
        lines[1] = "oops " + lines[1].split(" ", 1)[1]
    elif case == "truncated_rows":
        lines = lines[:-1]
    elif case == "axis_off_by_one_ulp":
        row = lines[1].split()
        row[1] = export.render_float(np.nextafter(float(row[1]), np.inf))
        lines[1] = " ".join(row)
    elif case == "header_only_y0":
        path, lines = art / "y0.txt", [" ".join(Y0)]
    elif case == "unparseable_manifest":
        path, lines = art / export.MANIFEST_NAME, ["command: [unclosed"]
    elif case in ARTIFACT_EDITS:
        path = art / export.MANIFEST_NAME
        doc = yaml.safe_load(path.read_text())
        doc["artifacts"] = ARTIFACT_EDITS[case](doc["artifacts"], art, name)
        lines = export.canonical_yaml(doc).splitlines()
    path.write_text("\n".join(lines) + "\n")
    if case == "missing_file":
        path.unlink()


def read_back(tmp_path, command: str, art) -> int:
    """Run ``command`` (verify or simulate) on the solve directory ``art``."""
    doc = ({"verify": {"artifacts": str(art)}} if command == "verify"
           else {"sim": {"paths": 10, "dt": 1.0 / 64.0, "seed": 1},
                 "artifacts": str(art)})
    return run_cli(command, write_config(tmp_path, "c.yaml", doc),
                   tmp_path / "out")


# manifest config edits that pass the schema but not a builder, per reader
# and solve kind, with the message that each gives
REBUILDS = [(command, kind, *edit) for command, kind in READERS for edit in (
    ("grid", "x_nodes", -3, "grid: need at least 3 space nodes"
     if kind == "agent" else "grid: need at least 3 nodes per space axis"),
    ("model", "params", {"band" if kind == "agent" else "n_band": [0.5, 0.1]},
     "model.params: nature set bounds out of order"))]


class TestDamagedArtifacts:
    @pytest.mark.parametrize(
        "command,kind,section,key,value,message", REBUILDS,
        ids=[f"{c}-{k}-{s}.{key}" for c, k, s, key, *_ in REBUILDS])
    def test_manifest_config_a_builder_rejects_exits_3(
            self, principal_run, agent_run, tmp_path, capsys, command, kind,
            section, key, value, message):
        art = tmp_path / "art"
        shutil.copytree(principal_run if kind == "principal" else agent_run,
                        art)
        doc = export.read_manifest(str(art))
        doc["config"][section][key] = value
        (art / export.MANIFEST_NAME).write_text(export.canonical_yaml(doc))
        assert read_back(tmp_path, command, art) == EXIT_MISSING
        assert capsys.readouterr().err == (
            f"missing artifact: manifest config in '{art}' is invalid: "
            f"{message}\n")

    def test_manifest_grid_without_distinct_nodes_exits_3(
            self, principal_run, tmp_path, capsys):
        art = tmp_path / "art"
        shutil.copytree(principal_run, art)
        doc = export.read_manifest(str(art))
        # np.linspace puts this box's nodes on fewer distinct doubles than
        # there are nodes, which GridSpec refuses; simulate reads no grid
        # column that could catch it first, as verify's value surface does
        doc["config"]["grid"].update(x_lo=1e15, x_hi=1e15 + 1.0)
        (art / export.MANIFEST_NAME).write_text(export.canonical_yaml(doc))
        assert read_back(tmp_path, "simulate", art) == EXIT_MISSING
        assert capsys.readouterr().err == (
            f"missing artifact: manifest config in '{art}' is invalid: "
            "grid: the x interval [1000000000000000.0, 1000000000000001.0] "
            "cannot hold 17 distinct nodes\n")

    @pytest.mark.parametrize("command,kind,case", DAMAGE_RUNS)
    def test_each_damage_exits_3_with_its_message(
            self, principal_run, agent_run, tmp_path, capsys, command, kind,
            case):
        art = tmp_path / "art"
        shutil.copytree(principal_run if kind == "principal" else agent_run,
                        art)
        name, cols, rows = TABLE[command, kind]
        if case in POLICY_DAMAGED:
            name = POLICY
        damage(art, name, case)
        if command == "verify" and case in REPIN:
            # re-pin the checksums, so that the loader reads the damage
            doc = export.read_manifest(str(art))
            export.write_manifest(str(art), doc["command"], doc["config"],
                                  files=list(doc["artifacts"]),
                                  seed_override=doc["cli"]["seed_override"],
                                  extras=doc.get("run"))
        tracemalloc.start()
        try:
            assert read_back(tmp_path, command, art) == EXIT_MISSING
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # far below the 8 GB that billion_element_header claims
        assert peak < 64 << 20
        fields = dict(art=art, name=name, cols=cols, rows=rows,
                      renamed=cols[:-1] + ["renamed"], extra=cols + ["extra"],
                      short=rows - 1)
        message = DAMAGED[case].format(
            absent=ABSENT[command].format(**fields),
            unreadable=UNREADABLE[command].format(**fields), **fields)
        assert capsys.readouterr().err == f"missing artifact: {message}\n"

    @pytest.mark.parametrize("command,grids", [
        ("solve-agent", (np.linspace(0.0, 0.7, 4), np.linspace(-1.3, 2.9, 5))),
        ("solve-principal", (np.linspace(0.0, 0.7, 4),
                             np.linspace(-1.3, 2.9, 5),
                             np.linspace(-3.1, 0.2, 3)))])
    def test_read_returns_every_written_field_bit_for_bit(self, tmp_path,
                                                          command, grids):
        shape = tuple(map(len, grids))
        attrs = [attr for layout in cli._SURFACES[command].values()
                 for attr in layout.values()]
        rng = np.random.default_rng(18)
        sol = SimpleNamespace(**{attr: rng.standard_normal(shape)
                                 for attr in attrs})
        # a table renders every NaN as ``nan``, so only NaN-ness returns;
        # an array file returns every bit
        sol.nature.flat[:5] = [-0.0, np.inf, -np.inf, np.nan, 5e-324]
        sol.nature.flat[5] = np.frombuffer(
            np.uint64(0x7FF8_0000_DEAD_BEEF).tobytes(), dtype=float)[0]
        files = cli._surface_files(command, sol, grids)
        assert list(files) == list(cli._SURFACES[command])
        for name, layout in cli._SURFACES[command].items():
            for column, attr in layout.items():  # views, not copies
                assert np.shares_memory(files[name][column],
                                        getattr(sol, attr)), column
        cli._write_run(str(tmp_path), command, {}, None, cli.Produced(files),
                       {})
        got = cli._read_surfaces(str(tmp_path), command, grids,
                                 cli._SURFACES[command])
        assert sorted(got) == sorted(attrs)
        exact = set(POLICY_FIELDS) if command == "solve-principal" else ()
        for attr in attrs:
            want, nan = getattr(sol, attr), np.isnan(getattr(sol, attr))
            assert got[attr].shape == shape
            assert (np.isnan(got[attr]) == nan).all(), attr
            assert got[attr][~nan].tobytes() == want[~nan].tobytes(), attr
            if attr in exact:
                assert got[attr].tobytes() == want.tobytes(), attr


class TestSweep:
    def test_salary_sweep_is_exact_and_trends_to_one(self, tmp_path):
        doc = {
            "sweep": {"axis": "m_salary", "values": [1, 10, 100]},
            "model": {"preset": "disjoint_beliefs",
                      "params": {"utility_principal": "bounded_exp"}},
            "sim": {"paths": 500, "dt": 0.0125, "seed": 5},
        }
        cfg = write_config(tmp_path, "s.yaml", doc)
        out = tmp_path / "run"
        assert run_cli("sweep", cfg, out) == EXIT_OK
        tab = export.read_table(str(out / "summary.txt"))
        want = 1.0 - np.exp(-np.array([1.0, 10.0, 100.0]))
        np.testing.assert_array_equal(tab["mean"], want)
        np.testing.assert_array_equal(tab["ci"], np.zeros(3))
        assert np.all(np.diff(tab["mean"]) > 0) and tab["mean"][-1] <= 1.0
        assert 1.0 - tab["mean"][-1] <= 1e-12
        point = export.read_table(str(out / "pt_001" / "estimate.txt"))
        assert float(point["m_salary"][0]) == 10.0

    def test_empty_range_is_a_no_op_success(self, tmp_path):
        doc = {
            "sweep": {"axis": "m_salary", "values": []},
            "model": {"preset": "disjoint_beliefs"},
            "sim": {"paths": 10, "dt": 0.5, "seed": 0},
        }
        cfg = write_config(tmp_path, "e.yaml", doc)
        out = tmp_path / "run"
        assert run_cli("sweep", cfg, out) == EXIT_OK
        tab = export.read_table(str(out / "summary.txt"))
        assert tab["m_salary"].shape == (0,)

    def test_band_width_sweep_is_monotone_for_convex_payoff(self, tmp_path):
        doc = {
            "sweep": {"axis": "band_width", "values": [0.05, 0.1, 0.2, 0.3]},
            "model": {"preset": "heat_band", "params": {"band": [0.2, 0.4]}},
            "contract": {"payment": "call:0"},
            "grid": {"x_lo": -4.0, "x_hi": 4.0, "x_nodes": 81,
                     "t_steps": 32, "horizon": 1.0},
        }
        cfg = write_config(tmp_path, "w.yaml", doc)
        out = tmp_path / "run"
        assert run_cli("sweep", cfg, out) == EXIT_OK
        tab = export.read_table(str(out / "summary.txt"))
        assert np.all(np.diff(tab["value"]) <= 1e-12)

    def test_bad_second_width_exits_2_and_writes_nothing(self, tmp_path,
                                                         capsys):
        doc = {"sweep": {"axis": "band_width", "values": [0.1, -0.1]},
               "model": {"preset": "heat_band"},
               "contract": {"payment": "call:0"}, "grid": AGENT_GRID}
        out = tmp_path / "run"
        assert run_cli("sweep", write_config(tmp_path, "b.yaml", doc),
                       out) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "config error: sweep.values[1]: width must be >= 0\n"
        assert not out.exists()

    def test_a_non_finite_x0_exits_2_and_writes_nothing(self, tmp_path,
                                                        capsys):
        text, command = read_example("sweep_band_width.yaml")
        doc = yaml.safe_load(text)
        doc["options"]["x0"] = math.nan
        out = tmp_path / "run"
        assert run_cli(command, write_config(tmp_path, "n.yaml", doc),
                       out) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: 'options.x0' must be finite, got nan\n")
        assert not out.exists()

    def test_a_negative_salary_horizon_exits_2_and_writes_nothing(
            self, tmp_path, capsys):
        # a non-finite one is refused by the schema (REJECTED)
        text, command = read_example("sweep_salary.yaml")
        doc = yaml.safe_load(text)
        doc["options"]["horizon"] = -1.0
        out = tmp_path / "run"
        assert run_cli(command, write_config(tmp_path, "h.yaml", doc),
                       out) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: options.horizon: the horizon must be finite and "
            "nonnegative, got -1.0\n")
        assert not out.exists()

    def test_a_zero_salary_horizon_pays_the_salary(self, tmp_path):
        doc = {"sweep": {"axis": "m_salary", "values": [1, 10]},
               "model": {"preset": "disjoint_beliefs"},
               "sim": {"paths": 10, "dt": 0.5, "seed": 0},
               "options": {"horizon": 0}}
        out = tmp_path / "run"
        assert run_cli("sweep", write_config(tmp_path, "z.yaml", doc),
                       out) == EXIT_OK
        tab = export.read_table(str(out / "summary.txt"))
        np.testing.assert_array_equal(tab["mean"], [1.0, 10.0])
        np.testing.assert_array_equal(tab["ci"], [0.0, 0.0])

    def test_unknown_axis_exits_2(self, tmp_path, capsys):
        doc = {"sweep": {"axis": "gravity", "values": [1]},
               "model": {"preset": "zero_vol"},
               "sim": {"paths": 10, "dt": 0.5, "seed": 0}}
        cfg = write_config(tmp_path, "x.yaml", doc)
        assert run_cli("sweep", cfg, tmp_path / "x") == EXIT_CONFIG
        assert "axis" in capsys.readouterr().err


class TestTimings:
    @staticmethod
    def stages(out) -> list[str]:
        lines = (out / export.TIMINGS_NAME).read_text().splitlines()
        assert lines[0] == "stage seconds"
        for line in lines[1:]:
            assert float(line.split()[1]) >= 0.0
        return [line.split()[0] for line in lines[1:]]

    def test_each_command_lists_its_stages_outside_the_checksums(
            self, principal_run, tmp_path):
        agent = tmp_path / "agent"
        runs = [(principal_run, ["solve", "write"])]
        assert run_cli("solve-agent", write_config(
            tmp_path, "a.yaml", AGENT_MARTINGALE), agent) == EXIT_OK
        runs.append((agent, ["solve", "write"]))
        for name, doc, stages in (
                ("simulate", {"sim": {"paths": 200, "dt": 0.0625, "seed": 1},
                              "artifacts": str(principal_run)},
                 ["load", "simulate", "write"]),
                ("simulate", {"sim": {"paths": 10, "dt": 0.5, "seed": 0},
                              "model": {"preset": "zero_vol"},
                              "policy": {"horizon": 1.0}},
                 ["simulate", "write"]),
                ("verify", {"verify": {"artifacts": str(principal_run),
                                       "paths": 300, "seed": 9,
                                       "perturbations": 2}},
                 ["load", "verify", "write"]),
                ("verify", {"verify": {"artifacts": str(agent)}},
                 ["load", "verify", "write"]),
                ("sweep", {"sweep": {"axis": "m_salary", "values": [1, 10]},
                           "model": {"preset": "disjoint_beliefs"},
                           "sim": {"paths": 10, "dt": 0.5, "seed": 0}},
                 ["sweep", "write"])):
            out = tmp_path / f"{name}{len(runs)}"
            cfg = write_config(tmp_path, f"{len(runs)}.yaml", doc)
            assert run_cli(name, cfg, out) == EXIT_OK
            runs.append((out, stages))
        for out, stages in runs:
            assert self.stages(out) == stages, out.name
            listed = export.read_manifest(str(out))["artifacts"]
            assert export.TIMINGS_NAME not in listed
            assert sorted(listed) == sorted(
                p.relative_to(out).as_posix() for p in out.rglob("*")
                if p.is_file() and p.name not in (export.TIMINGS_NAME,
                                                  export.MANIFEST_NAME))


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, principal_run,
                                               tmp_path):
        cfg = write_config(tmp_path, "p.yaml", PRINCIPAL_SMALL)
        other = tmp_path / "again"
        assert run_cli("solve-principal", cfg, other) == EXIT_OK
        for name in ("value_surface.txt", POLICY, "y0.txt",
                     "manifest.yaml"):
            assert (other / name).read_bytes() == \
                (principal_run / name).read_bytes(), name

    def test_simulate_is_seed_deterministic(self, principal_run, tmp_path):
        doc = {"sim": {"paths": 300, "dt": 0.0625, "seed": 4},
               "artifacts": str(principal_run)}
        cfg = write_config(tmp_path, "s.yaml", doc)
        out1, out2, out3 = (tmp_path / n for n in ("r1", "r2", "r3"))
        assert run_cli("simulate", cfg, out1) == EXIT_OK
        assert run_cli("simulate", cfg, out2) == EXIT_OK
        assert run_cli("simulate", cfg, out3, "--seed", "5") == EXIT_OK
        read = lambda o: (o / "estimates.txt").read_bytes()
        assert read(out1) == read(out2)
        assert read(out1) != read(out3)
        doc3 = export.read_manifest(str(out3))
        assert doc3["cli"]["seed_override"] == 5
        assert doc3["config"]["sim"]["seed"] == 5

    def test_threads_flag_is_rejected(self, principal_run, tmp_path):
        doc = {"sim": {"paths": 200, "dt": 0.0625, "seed": 8},
               "artifacts": str(principal_run)}
        cfg = write_config(tmp_path, "t.yaml", doc)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", cfg, out1, "--threads", "1")
        assert exc.value.code == 2
        assert not out1.exists()
        assert run_cli("simulate", cfg, out2, "--seed", "3") == EXIT_OK
        assert export.read_manifest(str(out2))["cli"] == {"seed_override": 3}


# One small valid config per command (simulate with a ``policy``), each
# with every float key it can hold; ``{art}`` is a principal solve.  A
# dotted path's integer part indexes a list.
SMALL_AGENT_GRID = {"x_lo": -1.0, "x_hi": 1.0, "x_nodes": 11, "t_steps": 10,
                    "horizon": 0.25}
SMALL_SIM = {"paths": 10, "dt": 0.25, "seed": 0, "x0": 0.0, "y0": 0.0}
FLOAT_KEYS = {
    "solve-agent": ("solve-agent", {
        "model": {"preset": "heat_band",
                  "params": {"band": [0.2, 0.4], "truncation_M": 2.0}},
        "contract": {"payment": "call:0"}, "grid": SMALL_AGENT_GRID}, (
        "model.params.band.0", "model.params.band.1",
        "model.params.truncation_M", "grid.x_lo", "grid.x_hi",
        "grid.horizon")),
    "solve-principal": ("solve-principal", {
        "model": {"preset": "risk_neutral"},
        "grid": {"x_lo": -2.0, "x_hi": 2.0, "x_nodes": 5, "y_lo": -2.0,
                 "y_hi": 2.0, "y_nodes": 5, "t_steps": 4, "horizon": 0.25},
        "options": {"x0": 0.0, "reservation": 0.0}}, (
        "grid.x_lo", "grid.x_hi", "grid.y_lo", "grid.y_hi", "grid.horizon",
        "options.x0", "options.reservation")),
    "simulate": ("simulate", {
        "model": {"preset": "risk_neutral"}, "sim": SMALL_SIM,
        "policy": {"horizon": 0.5, "z": 0.5, "k_rate": 0.1, "nature": 0.75},
        "nature": {"values": [0.75]}}, (
        "sim.dt", "sim.x0", "sim.y0", "policy.horizon", "policy.z",
        "policy.k_rate", "policy.nature", "nature.values.0")),
    "verify": ("verify", {"verify": {
        "artifacts": "{art}", "paths": 10, "dt": 0.25, "perturbations": 1,
        "probes": 2, "martingale_tolerance": 0.05}}, (
        "verify.dt", "verify.martingale_tolerance")),
    "m_salary": ("sweep", {
        "sweep": {"axis": "m_salary", "values": [1.0]},
        "model": {"preset": "disjoint_beliefs"}, "sim": SMALL_SIM,
        "options": {"horizon": 0.5}}, (
        "sweep.values.0", "sim.dt", "sim.x0", "sim.y0", "options.horizon")),
    "band_width": ("sweep", {
        "sweep": {"axis": "band_width", "values": [0.1]},
        "model": {"preset": "heat_band"}, "contract": {"payment": "call:0"},
        "grid": SMALL_AGENT_GRID, "options": {"x0": 0.0}}, (
        "sweep.values.0", "grid.x_lo", "grid.x_hi", "grid.horizon",
        "options.x0")),
}


def float_key_config(name: str, principal_run, path: str | None = None,
                     value: float = 0.0) -> tuple[str, dict]:
    """(command, config) of ``FLOAT_KEYS[name]`` with ``value`` at
    ``path`` (none when None)."""
    command, base, _ = FLOAT_KEYS[name]
    doc = yaml.safe_load(yaml.safe_dump(base).replace("'{art}'",
                                                      str(principal_run)))
    if path is not None:
        *parents, key = path.split(".")
        node = doc
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[int(key) if isinstance(node, list) else key] = value
    return command, doc


class TestNonFiniteFloats:
    @pytest.mark.parametrize("name", sorted(FLOAT_KEYS))
    def test_the_small_configs_run(self, name, principal_run, tmp_path):
        command, doc = float_key_config(name, principal_run)
        # verify may fail its gates at 10 paths, but it ran them
        assert run_cli(command, write_config(tmp_path, "c.yaml", doc),
                       tmp_path / "run") in (EXIT_OK, EXIT_VERIFY)
        assert (tmp_path / "run" / export.MANIFEST_NAME).exists()

    @pytest.mark.parametrize("name, path", [
        (name, path) for name, (_, _, paths) in sorted(FLOAT_KEYS.items())
        for path in paths])
    def test_inf_then_nan_exits_2_with_one_line_and_writes_nothing(
            self, name, path, principal_run, tmp_path, capsys):
        for value in (math.inf, math.nan):
            command, doc = float_key_config(name, principal_run, path, value)
            out = tmp_path / f"run_{value}"
            code = run_cli(command, write_config(tmp_path, "c.yaml", doc),
                           out)
            err = capsys.readouterr().err
            assert (code, err.count("\n")) == (EXIT_CONFIG, 1), (value, err)
            assert err.startswith("config error: "), err
            assert not out.exists()

    @pytest.mark.parametrize("name, path, value, message", [
        ("solve-agent", "grid.horizon", math.inf,
         "grid: horizon must be finite, got inf"),
        ("solve-agent", "grid.x_hi", math.inf,
         "grid: x_hi must be finite, got inf"),
        ("band_width", "grid.horizon", math.nan,
         "grid: horizon must be finite, got nan"),
        ("simulate", "policy.horizon", math.inf,
         "'policy.horizon' must be finite, got inf"),
        ("simulate", "policy.k_rate", math.nan,
         "'policy.k_rate' must be finite, got nan"),
        ("simulate", "policy.nature", 5.0,
         "policy: nature 5.0 outside the nature set (0.5, 1.0)"),
        ("verify", "verify.martingale_tolerance", math.inf,
         "verify: martingale_tolerance must be positive and finite, "
         "got inf"),
        ("m_salary", "sweep.values.0", -1.0,
         "sweep.values[0]: M_salary must be a nonnegative real"),
        ("m_salary", "sim.dt", math.inf,
         "sim: dt must be positive and finite, got inf"),
        ("solve-principal", "grid.horizon", math.nan,
         "grid: horizon must be positive and finite, got nan"),
    ])
    def test_each_new_refusal_names_its_key(self, name, path, value, message,
                                            principal_run, tmp_path, capsys):
        command, doc = float_key_config(name, principal_run, path, value)
        out = tmp_path / "run"
        assert run_cli(command, write_config(tmp_path, "c.yaml", doc),
                       out) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_one_engine_run_per_salary_sweep(self, tmp_path, monkeypatch):
        runs = []
        real = sim.simulate_system

        def spy(*args, **kwargs):
            runs.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(sim, "simulate_system", spy)
        command, doc = float_key_config("m_salary", None)
        doc["sweep"]["values"] = [1.0, 10.0, 100.0]
        out = tmp_path / "run"
        assert run_cli(command, write_config(tmp_path, "c.yaml", doc),
                       out) == EXIT_OK
        assert len(runs) == 1
        np.testing.assert_array_equal(
            export.read_table(str(out / "summary.txt"))["mean"],
            [1.0, 10.0, 100.0])
