"""Binary field snapshots and CSV series.

Snapshot layout (all integers little-endian):

    bytes 0..3    magic "CHOC"
    u32           format version (currently 1)
    u32           number of axes
    u32 per axis  points per axis
    payload       float64 little-endian, row-major

A field is a float64 array. Reading and writing round-trip bit for bit on
any host; domain lengths are configuration, not payload, so the reader takes
an optional grid whose point counts the file must match.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .errors import ShapeError, SnapshotFormatError
from .grid import Grid, field_array

__all__ = ["write_snapshot", "read_snapshot", "write_series_csv"]

MAGIC = b"CHOC"
VERSION = 1


def write_snapshot(values, path) -> None:
    """Write one field, an array of one or two axes, to the binary snapshot
    format."""
    values = np.asarray(values)
    dims = values.shape
    if len(dims) not in (1, 2):
        raise ShapeError(f"a snapshot holds a field of 1 or 2 axes, got shape {dims}")
    header = MAGIC + struct.pack("<I", VERSION) + struct.pack("<I", len(dims))
    header += b"".join(struct.pack("<I", d) for d in dims)
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    Path(path).write_bytes(header + payload)


def read_snapshot(path, grid: Grid | None = None) -> np.ndarray:
    """Read a snapshot back into a field, a float64 array.

    If ``grid`` is given its point counts must match the file; otherwise the
    stored dimensions must make a grid. A value that is not finite is a
    :class:`DomainError`.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise SnapshotFormatError(f"{path}: not a field snapshot (bad magic)")
    version, ndims = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise SnapshotFormatError(f"{path}: unsupported format version {version}")
    if ndims not in (1, 2):
        raise SnapshotFormatError(f"{path}: unsupported dimension count {ndims}")
    need = 12 + 4 * ndims
    if len(raw) < need:
        raise SnapshotFormatError(f"{path}: truncated header")
    dims = struct.unpack_from("<" + "I" * ndims, raw, 12)
    count = int(np.prod(dims))
    if len(raw) != need + 8 * count:
        raise SnapshotFormatError(
            f"{path}: payload length {len(raw) - need} != {8 * count}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=need).reshape(dims)
    if grid is None:
        grid = Grid(dims)
    elif grid.npoints != dims:
        raise SnapshotFormatError(
            f"{path}: snapshot dims {dims} do not match grid {grid.npoints}"
        )
    return field_array(grid, values.astype(np.float64))


def write_series_csv(path, header: list[str], rows) -> None:
    """Write a numeric time series with a header row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
