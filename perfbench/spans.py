"""Span recorder for the traced run: wraps the package's public functions.

For the duration of a traced run the functions in ``TRACED`` are replaced,
in every ``robustcontract`` module that holds a reference to them, by a
wrapper that records a span (name, start, end, parent, job id) plus counts
read from the arguments and the return value.  Nested calls are caught
because the package looks the names up in its module globals at call time
(``cli.main`` -> ``sim.incentive_compatibility_check`` ->
``sim.simulate_system``).  Nothing under ``src/`` changes; ``uninstall``
puts the originals back.

Spans are kept in memory and written out once at the end.  A span's self
time is its duration minus the time its direct child spans cover (calls
are sequential, so children never overlap).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict

# layer -> public module-level functions wrapped in a traced run
TRACED = {
    "presets": ("make_model",),
    "hamiltonians": ("eval_G",),
    "principal": ("solve_hjbi", "extract_contract", "optimize_y0",
                  "probe_monotonicity"),
    "agent": ("solve_agent", "inf_of_bsdes", "participation_check"),
    "sim": ("simulate_system", "girsanov_cross_check",
            "martingale_sandwich_check", "incentive_compatibility_check"),
    "export": ("write_table", "read_table", "sha256_file",
               "checksum_failures", "write_manifest", "read_manifest"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)


def _note_solve_hjbi(args, kwargs, result):
    grid = args[1]
    d = result.diagnostics
    return {"node_steps": grid.x_nodes * grid.y_nodes * grid.t_steps,
            "substeps_max": d["substeps_max"], "radius_max": d["radius_max"],
            "saturated_nodes": d["saturated_nodes"]}


def _note_solve_agent(args, kwargs, result):
    return {"node_steps": kwargs["x_nodes"] * kwargs["t_steps"],
            "cfl": result.cfl_number}


def _note_inf_of_bsdes(args, kwargs, result):
    return {"points": int(getattr(result, "size", 1))}


def _note_simulate(args, kwargs, result):
    policy, cfg = args[1], args[3]
    steps = cfg.steps_for(float(policy.t_grid[-1]))
    return {"triple": (cfg.seed, cfg.paths, steps),
            "path_steps": cfg.paths * steps,
            "quarantined": result.quarantined}


def _note_write_table(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _note_write_manifest(args, kwargs, result):
    return {"bytes": os.path.getsize(os.path.join(args[0], "manifest.yaml"))}


def _note_cli_main(args, kwargs, result):
    return {"exit": result}


NOTES = {
    "principal.solve_hjbi": _note_solve_hjbi,
    "agent.solve_agent": _note_solve_agent,
    "agent.inf_of_bsdes": _note_inf_of_bsdes,
    "sim.simulate_system": _note_simulate,
    "export.write_table": _note_write_table,
    "export.write_manifest": _note_write_manifest,
    "cli.main": _note_cli_main,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child_s", "info",
                 "error")

    def __init__(self, name, start, parent, job, info):
        self.name, self.start, self.parent, self.job = name, start, parent, job
        self.info = info
        self.end = start
        self.child_s = 0.0
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "job": self.job,
                "self_s": self.self_s, "error": self.error, "info": self.info}


class Recorder:
    """Collects spans for the job currently set in ``job``.

    Calls made while ``job`` is None (set-up, checks) run through the
    wrappers unrecorded.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        command = name == "cli.main"

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            info = {"command": args[0][0]} if command else {}
            span = Span(name, time.perf_counter(), parent, self.job, info)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.duration
            if note is not None:
                span.info.update(note(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Swap every reference to a traced function for its wrapper."""
        modules = [m for n, m in sys.modules.items()
                   if n == "robustcontract" or n.startswith("robustcontract.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"robustcontract.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_self_times(spans, job_walls: dict[int, float]) -> list[dict]:
    """Per job: wall time, self time per layer, and the unattributed rest."""
    rows = []
    for job, wall in job_walls.items():
        row = {"job": job, "wall_s": wall}
        for layer in LAYERS:
            row[layer] = 0.0
        for span in spans:
            if span.job == job:
                row[span.name.split(".")[0]] += span.self_s
        row["unattributed"] = wall - sum(row[layer] for layer in LAYERS)
        rows.append(row)
    return rows


def format_table(rows) -> str:
    cols = ("job", "wall_s") + LAYERS + ("unattributed",)
    lines = [" ".join(f"{c:>12}" for c in cols)]
    for row in rows:
        lines.append(" ".join(
            f"{row[c]:>12d}" if c == "job" else f"{row[c]:>12.4f}"
            for c in cols))
    return "\n".join(lines)


def per_layer_metrics(spans, jobs: int, rows, overhead_s: float) -> dict:
    """The traced run's per-layer metrics.

    Times are self times and, like counts, are means per job, so a run
    that completes more jobs does not read as more work.  Rates divide
    summed work by summed self time; maxima are over the whole run.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name):
        return len(by_name[name]) / jobs

    def self_s(*names):
        return sum(s.self_s for n in names for s in by_name[n]) / jobs

    def total(name, key):
        return sum(s.info.get(key, 0) for s in by_name[name])

    def peak(name, key):
        return max((s.info.get(key, 0) for s in by_name[name]), default=0)

    def errors(*names):
        return sum(s.error for n in names for s in by_name[n]) / jobs

    def rate(work, name):
        busy = sum(s.self_s for s in by_name[name])
        return work / busy if busy > 0 else 0.0

    sims = by_name["sim.simulate_system"]
    seen, repeats = defaultdict(set), 0
    for s in sims:
        if "triple" in s.info:
            repeats += s.info["triple"] in seen[s.job]
            seen[s.job].add(s.info["triple"])

    def cli_self(command):
        return sum(s.self_s for s in by_name["cli.main"]
                   if s.info["command"] == command) / jobs

    hjbi_steps = total("principal.solve_hjbi", "node_steps")
    agent_steps = total("agent.solve_agent", "node_steps")
    path_steps = total("sim.simulate_system", "path_steps")
    m = {
        "presets.make_model_calls": calls("presets.make_model"),
        "presets.make_model_s": self_s("presets.make_model"),
        "hamiltonians.eval_G_calls": calls("hamiltonians.eval_G"),
        "hamiltonians.eval_G_s": self_s("hamiltonians.eval_G"),
        "principal.solve_hjbi_calls": calls("principal.solve_hjbi"),
        "principal.solve_hjbi_s": self_s("principal.solve_hjbi"),
        "principal.node_steps": hjbi_steps / jobs,
        "principal.node_steps_per_s": rate(hjbi_steps,
                                           "principal.solve_hjbi"),
        "principal.substeps_max": peak("principal.solve_hjbi",
                                       "substeps_max"),
        "principal.radius_max": peak("principal.solve_hjbi", "radius_max"),
        "principal.saturated_nodes":
            total("principal.solve_hjbi", "saturated_nodes") / jobs,
        "principal.post_s": self_s("principal.extract_contract",
                                   "principal.optimize_y0",
                                   "principal.probe_monotonicity"),
        "principal.errors": errors(*(f"principal.{n}"
                                     for n in TRACED["principal"])),
        "agent.solve_agent_calls": calls("agent.solve_agent"),
        "agent.solve_agent_s": self_s("agent.solve_agent"),
        "agent.node_steps": agent_steps / jobs,
        "agent.node_steps_per_s": rate(agent_steps, "agent.solve_agent"),
        "agent.cfl_max": peak("agent.solve_agent", "cfl"),
        "agent.oracle_s": self_s("agent.inf_of_bsdes"),
        "agent.oracle_points": total("agent.inf_of_bsdes", "points") / jobs,
        "agent.errors": errors(*(f"agent.{n}" for n in TRACED["agent"])),
        "sim.simulate_calls": calls("sim.simulate_system"),
        "sim.simulate_s": self_s("sim.simulate_system"),
        "sim.path_steps": path_steps / jobs,
        "sim.path_steps_per_s": rate(path_steps, "sim.simulate_system"),
        "sim.increment_bytes": 8 * peak("sim.simulate_system", "path_steps"),
        "sim.repeat_seed_share": repeats / len(sims) if sims else 0.0,
        "sim.girsanov_s": self_s("sim.girsanov_cross_check"),
        "sim.martingale_s": self_s("sim.martingale_sandwich_check"),
        "sim.incentive_s": self_s("sim.incentive_compatibility_check"),
        "sim.quarantined_paths":
            total("sim.simulate_system", "quarantined") / jobs,
        "export.write_table_s": self_s("export.write_table"),
        "export.bytes_written": (total("export.write_table", "bytes")
                                 + total("export.write_manifest", "bytes"))
                                / jobs,
        "export.read_table_s": self_s("export.read_table"),
        "export.checksum_s": self_s("export.sha256_file",
                                    "export.checksum_failures"),
        "export.manifest_s": self_s("export.write_manifest",
                                    "export.read_manifest"),
        "cli.solve_principal_self_s": cli_self("solve-principal"),
        "cli.simulate_self_s": cli_self("simulate"),
        "cli.verify_self_s": cli_self("verify"),
        "cli.exit_nonzero": sum(s.info.get("exit", 0) != 0
                                for s in by_name["cli.main"]) / jobs,
        "job.unattributed_s": statistics.median(
            r["unattributed"] for r in rows),
        "trace.overhead_s": overhead_s,
    }
    return m
