"""Artifact files and checksummed run manifests.

A table is plain text: one header line naming the columns, then one row
per record with each number rendered to 17 significant digits, which
round-trips IEEE doubles exactly.  A column's distinct values are rendered
once each and its rows gather the rendered strings, so a grid column
repeated over 100k rows costs a few dozen renderings; the bytes are those
of rendering every cell.

A gridded block that a later command reads as a lookup table is one
binary ``.npy`` array instead (NEP 1: a magic string, a header naming
dtype, order and shape, then the raw doubles).  ``write_array`` stacks
equal-shape fields on a leading axis as C-order little-endian float64;
``read_array`` checks the header and the file's length against the shape
its caller expects before it reads any data, and never unpickles.

Writers are deterministic, so identical runs produce identical bytes; the
manifest pins every artifact to its sha256 and embeds the effective
configuration, making a run reconstructible from its output directory
alone.  Wall-clock timings go to a sidecar that is excluded from the
checksum table.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import warnings

import numpy as np
import yaml

__all__ = [
    "MANIFEST_NAME", "TIMINGS_NAME",
    "render_float", "write_table", "read_table", "write_array", "read_array",
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
    legal and read back as empty columns.  Each column is keyed on its
    values' bit patterns, so 0.0 and -0.0, and NaNs with different
    payloads, stay apart; every distinct pattern goes through
    ``render_float`` once, and the rows are joined a block at a time.
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
    rendered = []
    for c in cols:
        bits, inverse = np.unique(c.view(np.uint64), return_inverse=True)
        text = np.array([render_float(v) for v in bits.view(float)],
                        dtype=object)
        # the narrowest index type: int64 indices for every column would
        # be held while the rows are written, and leave the heap larger
        rendered.append((text, inverse.astype(np.min_scalar_type(len(bits)))))
    # rows joined per block: the block's strings, not the file's, are held
    block = 1 << 14
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(" ".join(names) + "\n")
        for first in range(0, rows, block):
            fields = [text[inverse[first:first + block]].tolist()
                      for text, inverse in rendered]
            fh.write("\n".join(map(" ".join, zip(*fields))) + "\n")


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


def write_array(path: str, fields) -> None:
    """Write equal-shape arrays as one C-order little-endian float64
    ``.npy`` array of shape ``(len(fields), *shape)``.

    The fields are written one after another under a single header, so the
    stacked array is never built; the bytes are those ``np.save`` writes
    for it.
    """
    fields = [np.ascontiguousarray(f, dtype="<f8") for f in fields]
    shapes = {f.shape for f in fields}
    if len(shapes) != 1:
        raise ValueError("one or more fields of one shape required")
    header = {"descr": "<f8", "fortran_order": False,
              "shape": (len(fields), *shapes.pop())}
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for f in fields:
            fh.write(f.data)


def read_array(path: str, shape: tuple[int, ...]) -> np.ndarray:
    """Read a ``.npy`` file that must hold a C-order ``<f8`` array of
    ``shape``.

    The magic string, the header (dtype, order, shape) and the file's
    length are checked before any data is read, so a damaged header, a
    short file or trailing bytes raise ``ValueError`` with a one-line
    message and nothing the header claims is allocated.  Pickled data is
    never loaded.
    """
    fmt = np.lib.format
    with open(path, "rb") as fh:
        magic = fh.read(fmt.MAGIC_LEN)
        if magic[:-2] != fmt.MAGIC_PREFIX:
            raise ValueError("not a .npy file")
        # ``write_array`` writes version 1.0, whose header holds any shape
        # of a few axes
        if magic[-2:] != b"\x01\x00":
            raise ValueError(f"unsupported .npy version {tuple(magic[-2:])}")
        try:
            got, fortran_order, dtype = fmt.read_array_header_1_0(fh)
        except ValueError as exc:
            raise ValueError("unreadable .npy header: "
                             + " ".join(str(exc).split()))
        if dtype.str != "<f8":
            raise ValueError(f"holds {dtype.str} data, not <f8")
        if fortran_order:
            raise ValueError("is in Fortran order, not C order")
        if got != shape:
            raise ValueError(f"holds shape {got}, not {shape}")
        extra = (os.fstat(fh.fileno()).st_size - fh.tell()
                 - 8 * math.prod(shape))
        if extra < 0:
            raise ValueError(f"ends {-extra} bytes short of its data")
        if extra > 0:
            raise ValueError(f"has {extra} bytes after its data")
        fh.seek(0)
        return np.load(fh, allow_pickle=False)


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


def write_manifest(out_dir: str, command: str, config: dict, *,
                   files: list[str], seed_override: int | None = None,
                   extras: dict | None = None) -> dict:
    """Checksum the run's artifacts and write the manifest.

    ``files`` lists the relative paths this run produced.  The embedded
    config is the effective one (overrides already applied), so the
    directory documents its own run; the manifest and the timings sidecar
    are never part of the checksum table.
    """
    config = _plain(config)
    doc = {
        "command": command,
        "config": config,
        "config_sha256": sha256_text(canonical_yaml(config)),
        "versions": {
            "package": _package_version(),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "cli": {"seed_override": seed_override},
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
    arts = doc["artifacts"]
    if not isinstance(arts, dict) or not all(
            isinstance(rel, str) and isinstance(digest, str) and rel
            and not os.path.isabs(rel) and ".." not in rel.split("/")
            for rel, digest in arts.items()):
        raise ValueError(f"{path}: artifacts must map relative paths inside "
                         "the directory to checksums")
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
