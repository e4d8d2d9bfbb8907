"""End-to-end command tests: config validation, artifact pipelines, exit
codes, determinism and the verification gates."""

import math
import os
import shutil

import numpy as np
import pytest
import yaml

from robustcontract import export, sim
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
        assert again.sha256() == run.sha256()

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
        assert "stability" in capsys.readouterr().err


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

    def test_shared_increments_keep_the_report_bytes(self, principal_run,
                                                     tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "v.yaml", {"verify": {
            "artifacts": str(principal_run), "paths": 300, "seed": 9,
            "perturbations": 2}})
        drawn = []
        draw = sim._draw_increments

        def counting(seed, paths, steps):
            drawn.append(seed)
            return draw(seed, paths, steps)

        monkeypatch.setattr(sim, "_draw_increments", counting)
        assert run_cli("verify", cfg, tmp_path / "shared") == EXIT_OK
        # direct and reweighted cross-check runs, then the common batches
        assert drawn == [9, 10, 9]
        monkeypatch.setattr(sim, "_path_increments", counting)
        assert run_cli("verify", cfg, tmp_path / "fresh") == EXIT_OK
        batches = 4 + 3 * len(make_model("risk_neutral").n_grid())
        assert len(drawn) == 3 + batches
        for name in ("report.yaml", export.MANIFEST_NAME):
            assert (tmp_path / "shared" / name).read_bytes() == \
                (tmp_path / "fresh" / name).read_bytes()

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
        tab = export.read_table(str(art / "policy.txt"))
        tab["z"] = 0.5 * tab["z"]
        names = ("t", "x", "y", "z", "gamma", "effort", "nature",
                 "k_rate", "fstar")
        export.write_table(str(art / "policy.txt"), names,
                           [tab[n] for n in names])
        doc = export.read_manifest(str(art))
        doc["artifacts"]["policy.txt"] = export.sha256_file(
            str(art / "policy.txt"))
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

    def test_unknown_axis_exits_2(self, tmp_path, capsys):
        doc = {"sweep": {"axis": "gravity", "values": [1]},
               "model": {"preset": "zero_vol"},
               "sim": {"paths": 10, "dt": 0.5, "seed": 0}}
        cfg = write_config(tmp_path, "x.yaml", doc)
        assert run_cli("sweep", cfg, tmp_path / "x") == EXIT_CONFIG
        assert "axis" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, principal_run,
                                               tmp_path):
        cfg = write_config(tmp_path, "p.yaml", PRINCIPAL_SMALL)
        other = tmp_path / "again"
        assert run_cli("solve-principal", cfg, other) == EXIT_OK
        for name in ("value_surface.txt", "policy.txt", "y0.txt",
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

    def test_threads_flag_is_recorded_not_acted_on(self, principal_run,
                                                   tmp_path):
        doc = {"sim": {"paths": 200, "dt": 0.0625, "seed": 8},
               "artifacts": str(principal_run)}
        cfg = write_config(tmp_path, "t.yaml", doc)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert run_cli("simulate", cfg, out1, "--threads", "1") == EXIT_OK
        assert run_cli("simulate", cfg, out2, "--threads", "8") == EXIT_OK
        assert (out1 / "estimates.txt").read_bytes() == \
            (out2 / "estimates.txt").read_bytes()
        assert export.read_manifest(str(out2))["cli"]["threads"] == 8
