"""Benchmark runner: one workload, one seed, one closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rn_pipeline --seed 1 --seconds 15 --trace 0

The runner builds nothing: it imports the package from ``src/`` of the
checkout it sits in, and exits with code 2 without printing a result when
that is missing.  It then

1. sets the workload up ``SETUP_REPS`` times (a fresh interpreter importing
   the package, plus the workload's own model construction and artifacts)
   and reports the median as ``setup_s``;
2. submits jobs back to back, job ``i + 1`` after job ``i`` returns, until
   ``--seconds`` have passed (at least one job), timing each job's calls
   into the package and checking its outputs untimed;
3. prints a human-readable summary, then as the last line one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times in the JSON line are at a reference machine speed.  While a set-up
or a job runs, a timer interrupts it four times a second to time a short
fixed interpreter-plus-NumPy loop (``_probe``, 1 to 3 ms, independent of
the package); the interval's time, minus the probes, is multiplied by
``REFERENCE_PROBE_S`` over the median probe time.  On the shared two-core
machine the benchmark was defined on, one and the same job's wall time
drifts by +-20% within seconds to minutes, and the probes follow the
drift: over repeats of one job, the coefficient of variation fell from
0.14-0.18 to 0.065 (``robust_principal``) and from 0.135 to 0.036
(``agent_sweep``).  The raw wall-clock values are printed beside them
(``*_raw``) and saved in the result file.  The traced run takes no
periodic probes, so none land inside a span.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the public functions of each layer are wrapped (see ``spans.py``), the
metrics are the per-layer ones, and the per-job layer table plus every
span are written out.  Only the metrics listed in ``BENCHMARK.json`` go into
the JSON line; ``failed_ratio`` and ``accuracy_ratio`` are printed in the
summary (``failed`` and ``correct`` carry them into the JSON line).
Results and spans land in ``perfbench/out/``; job artifacts live in a
scratch directory there that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 3
# timings are reported at the speed of a machine on which ``_probe``
# takes REFERENCE_PROBE_S; see the module docstring
PROBE_LOOP = 20_000
PROBE_INTERVAL_S = 0.25
REFERENCE_PROBE_S = 0.0015


def _die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import ``robustcontract`` from this checkout's ``src`` or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import robustcontract
    except ImportError as exc:
        _die(f"cannot import robustcontract from {SRC}: {exc}")
    origin = os.path.dirname(os.path.abspath(robustcontract.__file__))
    if os.path.dirname(origin) != SRC:
        _die(f"robustcontract was imported from {origin}, not from {SRC}")


@dataclass(frozen=True)
class Job:
    index: int
    params: dict


class Context:
    """Scratch directories for one run, removed by ``close``."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.work = os.path.join(
            OUT, f"work-{workload}-{seed}-{int(trace)}-{os.getpid()}")
        os.makedirs(self.work)
        self._setups = 0

    def setup_dir(self) -> str:
        self._setups += 1
        path = os.path.join(self.work, f"setup{self._setups}")
        os.makedirs(path)
        return path

    def job_dir(self, job: Job) -> str:
        path = os.path.join(self.work, f"job{job.index}")
        os.makedirs(path, exist_ok=True)
        return path

    def clear_job(self, job: Job) -> None:
        shutil.rmtree(os.path.join(self.work, f"job{job.index}"),
                      ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _fresh_import() -> None:
    """Import the package in a fresh interpreter, as a user's first call."""
    subprocess.run([sys.executable, "-c", "import robustcontract.cli"],
                   env=dict(os.environ, PYTHONPATH=SRC), check=True, cwd=ROOT)


def _ratio(measured: float, bound: float) -> float:
    if not math.isfinite(measured):
        return math.inf
    if bound > 0.0:
        return measured / bound
    return 0.0 if measured <= 0.0 else math.inf


def _finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    return math.isfinite(obj)


def _execute(workload, ctx, state, job, meter, recorder=None) -> dict:
    """Run one job; its record holds the timings, checks and outputs.

    ``job_s`` covers the calls into the package, ``segment_s`` adds the
    untimed checks and clean-up; ``*_ref_s`` are the same at reference
    speed.
    """
    record = {"index": job.index, "params": job.params, "ok": False}

    def body():
        if recorder is not None:
            recorder.job = job.index
        try:
            return workload.run(ctx, state, job)
        except Exception:  # a failed job is counted, and the loop goes on
            record["error"] = traceback.format_exc(limit=3)
            print(f"job {job.index} failed:\n{record['error']}",
                  file=sys.stderr)
        finally:
            if recorder is not None:
                recorder.job = None

    def finish(raw):
        try:
            if "error" not in record:
                _check(workload, ctx, state, job, raw, record)
        finally:
            ctx.clear_job(job)

    raw, record["job_s"], record["job_ref_s"] = meter.measure(body)
    _, rest, rest_ref = meter.measure(lambda: finish(raw))
    record["segment_s"] = record["job_s"] + rest
    record["segment_ref_s"] = record["job_ref_s"] + rest_ref
    return record


def _check(workload, ctx, state, job, raw, record) -> None:
    try:
        checks, outputs = workload.check(ctx, state, job, raw)
    except Exception:
        record["error"] = traceback.format_exc(limit=3)
        print(f"job {job.index} check failed:\n{record['error']}",
              file=sys.stderr)
        return
    record["checks"] = [(n, m, b, _ratio(m, b)) for n, m, b in checks]
    record["outputs"] = outputs
    record["ok"] = (all(r <= 1.0 for *_, r in record["checks"])
                    and _finite(outputs))
    if not record["ok"]:
        print(f"job {job.index} failed its checks: {record['checks']}",
              file=sys.stderr)


def _machine() -> dict:
    caches = {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              check=True).stdout
        for line in text.splitlines():
            key, _, value = line.partition(":")
            if key.strip().endswith("cache"):
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return {"nproc": os.cpu_count(), "caches": caches,
            "python": platform.python_version()}


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = _benchmark_spec()
    _import_package()
    import spans as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    ctx = Context(args.workload, args.seed, bool(args.trace))
    try:
        result = _run(workload, ctx, args, spec, tracing)
    finally:
        ctx.close()
    print(json.dumps(result))
    return 0


def _probe() -> float:
    """Seconds for a short fixed interpreter-plus-NumPy loop, independent
    of the package: it reads how fast the machine runs right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    a = np.arange(PROBE_LOOP // 8, dtype=float)
    for _ in range(20):
        a = np.sqrt(a) * 1.0001 + 1.0
    return time.perf_counter() - start


class Speedometer:
    """Times a call and reads the machine speed while it runs.

    With ``sampling`` on, a SIGALRM timer interrupts the call every
    ``PROBE_INTERVAL_S`` to run ``_probe``; the probes' time is taken out of
    the call's raw time.  One probe also runs just before and just after.
    """

    def __init__(self, sampling: bool):
        self.sampling = sampling
        self._samples: list[float] = []
        self._spent = 0.0

    def _tick(self, signum, frame) -> None:
        took = _probe()
        self._samples.append(took)
        self._spent += took

    def measure(self, fn):
        """(result, raw seconds, seconds at reference speed)."""
        self._samples, self._spent = [_probe()], 0.0
        if self.sampling:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                             PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            elapsed = time.perf_counter() - start
        raw = elapsed - self._spent
        self._samples.append(_probe())
        return (result, raw,
                raw * REFERENCE_PROBE_S / statistics.median(self._samples))


def _run(workload, ctx, args, spec, tracing) -> dict:
    # probes inside traced calls would land in their spans
    meter = Speedometer(sampling=not args.trace)
    setups, setup_raw = [], []
    for _ in range(SETUP_REPS):
        def setup():
            _fresh_import()
            return workload.setup(ctx)
        state, raw, ref = meter.measure(setup)
        setups.append(ref)
        setup_raw.append(raw)

    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        recorder.install()
    records = []
    index = 0
    start = time.perf_counter()
    try:
        while True:
            job = Job(index, workload.params(args.seed, index))
            records.append(_execute(workload, ctx, state, job, meter,
                                    recorder))
            index += 1
            if time.perf_counter() - start >= args.seconds:
                break
        overhead = None
        if recorder is not None:
            # the last job again, untraced: its traced time minus this one
            # is the tracing overhead
            recorder.uninstall()
            last = records[-1]
            again = _execute(workload, ctx, state,
                             Job(last["index"], last["params"]), meter)
            overhead = last["job_s"] - again["job_s"]
    finally:
        if recorder is not None:
            recorder.uninstall()

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    ratios = [r for rec in records for *_, r in rec.get("checks", [])]
    accuracy = max(ratios) if ratios else math.inf
    e2e = {
        "setup_s": statistics.median(setups),
        "jobs_per_min":
            60.0 * attempted / sum(r["segment_ref_s"] for r in records),
        "job_s_p50": statistics.median(r["job_ref_s"] for r in records),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    summary = dict(
        e2e, failed_ratio=failed / attempted, accuracy_ratio=accuracy,
        setup_s_raw=statistics.median(setup_raw),
        jobs_per_min_raw=60.0 * attempted / sum(r["segment_s"]
                                                for r in records),
        job_s_p50_raw=statistics.median(r["job_s"] for r in records))
    summary_units = dict(units, failed_ratio="1", accuracy_ratio="1",
                         setup_s_raw="s", jobs_per_min_raw="jobs/min",
                         job_s_p50_raw="s")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"jobs {attempted}  failed {failed}  trace {args.trace}")
    if recorder is None:
        for name, value in summary.items():
            print(f"  {name:<18} {value:>14.6g} {summary_units[name]}")
        chosen = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    else:
        walls = {r["index"]: r["job_s"] for r in records}
        rows = tracing.layer_self_times(recorder.spans, walls)
        print(tracing.format_table(rows))
        layer = tracing.per_layer_metrics(recorder.spans, attempted, rows,
                                          overhead)
        for name, value in layer.items():
            print(f"  {name:<28} {value:>14.6g} {units.get(name, '')}")
        recorder.write(os.path.join(
            OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
        chosen = {m["name"]: layer[m["name"]] for m in spec["per_layer"]}

    correct = failed == 0 and accuracy < 1.0
    _save(args, {"workload": args.workload, "seed": args.seed,
                 "trace": args.trace, "machine": _machine(),
                 "summary": summary, "metrics": chosen, "setup_runs_s":
                 setup_raw, "setup_runs_ref_s": setups, "jobs": records})
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in chosen.items()}}


def _save(args, doc: dict) -> None:
    path = os.path.join(
        OUT, f"result-{args.workload}-{args.seed}-{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, default=float)


if __name__ == "__main__":
    sys.exit(main())
