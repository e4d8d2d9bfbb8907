"""Columnar plain-text artifacts and checksummed run manifests.

Every numeric file is written the same way: one header line naming the
columns, then one row per record with each number rendered to 17
significant digits, which round-trips IEEE doubles exactly.  Writers are
deterministic, so identical runs produce identical bytes; the manifest
pins every artifact to its sha256 and embeds the effective configuration,
making a run reconstructible from its output directory alone.  Wall-clock
timings go to a sidecar that is excluded from the checksum table.
"""

from __future__ import annotations

import hashlib
import os
import platform
import warnings

import numpy as np
import yaml

__all__ = [
    "MANIFEST_NAME", "TIMINGS_NAME",
    "render_float", "write_table", "read_table",
    "canonical_yaml", "sha256_file", "sha256_text",
    "write_manifest", "read_manifest", "checksum_failures",
    "write_timings",
]

MANIFEST_NAME = "manifest.yaml"
TIMINGS_NAME = "timings.txt"


def render_float(value: float) -> str:
    """Decimal rendering with 17 significant digits (lossless for doubles)."""
    return format(float(value), ".17g")


def write_table(path: str, names, columns) -> None:
    """Write equal-length 1-D columns under a one-line header.

    Column names must be single tokens; a header-only file (zero rows) is
    legal and read back as empty columns.
    """
    names = list(names)
    for name in names:
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"column name {name!r} is not a single token")
    cols = [np.atleast_1d(np.asarray(c, dtype=float)) for c in columns]
    if len(cols) != len(names):
        raise ValueError("one column per name required")
    rows = cols[0].shape[0] if cols else 0
    if any(c.ndim != 1 or c.shape[0] != rows for c in cols):
        raise ValueError("columns must be 1-D and equally long")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(" ".join(names) + "\n")
        for i in range(rows):
            fh.write(" ".join(render_float(c[i]) for c in cols) + "\n")


def read_table(path: str) -> dict[str, np.ndarray]:
    """Read a columnar file back into name -> float array.

    The body is parsed straight from the open file, never held as text.
    """
    with open(path, "r", encoding="ascii") as fh:
        names = fh.readline().split()
        if not names:
            raise ValueError(f"{path}: missing header line")
        with warnings.catch_warnings():
            # a header-only table is legal: its body reads as zero rows
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(fh, ndmin=2)
    if data.shape[0] == 0:
        data = np.zeros((0, len(names)))
    if data.shape[1] != len(names):
        raise ValueError(
            f"{path}: {data.shape[1]} columns of data under "
            f"{len(names)} header names")
    return {name: data[:, i].copy() for i, name in enumerate(names)}


def _plain(obj):
    """Recursively strip numpy types so YAML dumps stay canonical."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def canonical_yaml(mapping) -> str:
    return yaml.safe_dump(_plain(mapping), sort_keys=True,
                          default_flow_style=False)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _artifact_files(out_dir: str) -> list[str]:
    """Relative posix paths of every checksummed file, sorted."""
    found = []
    for root, _dirs, files in os.walk(out_dir):
        for name in files:
            rel = os.path.relpath(os.path.join(root, name), out_dir)
            rel = rel.replace(os.sep, "/")
            if rel not in (MANIFEST_NAME, TIMINGS_NAME):
                found.append(rel)
    return sorted(found)


def write_manifest(out_dir: str, command: str, config: dict, *,
                   files: list[str] | None = None,
                   seed_override: int | None = None,
                   threads: int | None = None,
                   extras: dict | None = None) -> dict:
    """Checksum the run's artifacts and write the manifest.

    ``files`` lists the relative paths this run produced; None checksums
    everything found in the directory.  The embedded config is the
    effective one (overrides already applied), so the directory documents
    its own run; the manifest and the timings sidecar are never part of
    the checksum table.
    """
    config = _plain(config)
    if files is None:
        files = _artifact_files(out_dir)
    doc = {
        "command": command,
        "config": config,
        "config_sha256": sha256_text(canonical_yaml(config)),
        "versions": {
            "package": _package_version(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "cli": {"seed_override": seed_override, "threads": threads},
        "artifacts": {rel.replace(os.sep, "/"):
                      sha256_file(os.path.join(out_dir, rel))
                      for rel in sorted(files)},
    }
    if extras:
        doc["run"] = _plain(extras)
    with open(os.path.join(out_dir, MANIFEST_NAME), "w",
              encoding="ascii", newline="\n") as fh:
        fh.write(canonical_yaml(doc))
    return doc


def _package_version() -> str:
    from . import __version__
    return __version__


def read_manifest(art_dir: str) -> dict:
    path = os.path.join(art_dir, MANIFEST_NAME)
    with open(path, "r", encoding="ascii") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict) or "artifacts" not in doc:
        raise ValueError(f"{path}: not a run manifest")
    return doc


def checksum_failures(art_dir: str, manifest: dict
                      ) -> tuple[list[str], list[str]]:
    """(missing files, checksum mismatches) for the manifest's artifacts."""
    missing, mismatched = [], []
    for rel, want in sorted(manifest["artifacts"].items()):
        path = os.path.join(art_dir, rel)
        if not os.path.isfile(path):
            missing.append(rel)
        elif sha256_file(path) != want:
            mismatched.append(rel)
    return missing, mismatched


def write_timings(out_dir: str, stages: dict[str, float]) -> None:
    with open(os.path.join(out_dir, TIMINGS_NAME), "w",
              encoding="ascii", newline="\n") as fh:
        fh.write("stage seconds\n")
        for name, seconds in stages.items():
            fh.write(f"{name} {seconds:.3f}\n")
