"""The benchmark's own tests.

Run from the repository root (about three minutes on two cores)::

    python3 -m pytest -q perfbench/selftest.py

Each workload is run three times with one seed and one job: traced, traced
again, and untraced.  The tests check that the printed metric names match
``BENCHMARK.json``, that one seed gives identical job lists, counts and
``accuracy_ratio``, and that tracing changes no computed output.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
# per-layer metrics that are counts, not times, and so must repeat exactly
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in ("s", "1/s")]


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    """(printed JSON line, saved result document) of a one-job run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", f"result-{workload}-{SEED}-{trace}.json")
    with open(path, encoding="ascii") as fh:
        return line, json.load(fh)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def three_runs(request):
    return request.param, [_bench(request.param, t) for t in (1, 1, 0)]


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == \
        sorted(workloads.WORKLOADS)


def test_printed_metric_names_match_the_spec(three_runs):
    _, [(traced, _), _, (plain, _)] = three_runs
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    units = {m["name"]: m["unit"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for line in (traced, plain):
        assert line["correct"] and line["failed"] == 0
        for name, entry in line["metrics"].items():
            assert entry["unit"] == units[name]


def test_one_seed_repeats_jobs_counts_and_accuracy(three_runs):
    _, [(line_a, doc_a), (line_b, doc_b), _] = three_runs
    assert [j["params"] for j in doc_a["jobs"]] == \
        [j["params"] for j in doc_b["jobs"]]
    for name in COUNTS:
        assert line_a["metrics"][name] == line_b["metrics"][name], name
    assert doc_a["summary"]["accuracy_ratio"] == \
        doc_b["summary"]["accuracy_ratio"]
    assert doc_a["summary"]["accuracy_ratio"] < 1.0


def test_tracing_changes_no_computed_output(three_runs):
    _, [(_, traced), _, (_, plain)] = three_runs
    assert [(j["params"], j["outputs"], j["checks"]) for j in traced["jobs"]] \
        == [(j["params"], j["outputs"], j["checks"]) for j in plain["jobs"]]


def test_job_lists_depend_on_seed_and_index_only():
    for w in workloads.WORKLOADS.values():
        first = [w.params(SEED, i) for i in range(4)]
        assert first == [w.params(SEED, i) for i in range(4)]
        assert len({json.dumps(p, sort_keys=True) for p in first}) == 4
        assert first != [w.params(SEED + 1, i) for i in range(4)]


def test_tolerances_match_the_acceptance_gate():
    path = os.path.join(ROOT, "tests", "test_acceptance.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    pinned = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.Constant)}
    for name in ("BENCH_TOL", "MC_SLACK", "AGENT_REL_TOL", "IDENTITY_TOL"):
        assert getattr(workloads, name) == pinned[name], name


def test_self_time_subtracts_child_spans():
    rec = spans.Recorder()
    rec.job = 0
    inner = rec._wrap("sim.inner", lambda: time.sleep(0.05))

    def outer_body():
        time.sleep(0.02)
        inner()

    rec._wrap("cli.outer", outer_body)()
    outer, child = rec.spans
    assert outer.parent is None and child.parent == 0
    assert outer.self_s == pytest.approx(outer.duration - child.duration)
    assert 0.02 <= outer.self_s < 0.05
    row, = spans.layer_self_times(rec.spans, {0: outer.duration + 0.01})
    assert row["cli"] == outer.self_s and row["sim"] == child.self_s
    assert row["unattributed"] == pytest.approx(0.01)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rn_pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
