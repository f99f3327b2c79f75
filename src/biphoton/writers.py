"""Data writers: GRD1 binary grids, CSV tables, and PGM previews.

All writes are atomic (temp file then rename) and refuse non-finite data.
GRD1 is one JSON header line (magic "GRD1", shape, axis names, bin widths,
units, config fingerprint) followed by raw little-endian float64 values in
row-major order; the round trip is bit-exact.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable

import numpy as np

GRD_MAGIC = "GRD1"


class WriteError(RuntimeError):
    """Refused or failed output write."""


def _atomic_write(path, payload: bytes, buffers: Iterable = ()) -> None:
    """Write ``payload``, then each item of ``buffers`` (anything exposing
    the buffer protocol, written without a copy), to a temporary file and
    rename it to ``path``.  ``buffers`` is consumed one item at a time, so
    a generator may hand out one reused buffer again and again.  The file
    gets the mode ``open`` would give it, 0o666 less the umask, not the
    owner-only mode of the temporary file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            for buffer in buffers:
                fh.write(buffer)
        umask = os.umask(0)  # read by setting it and putting it back
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require_finite(values: np.ndarray, path) -> None:
    if not np.all(np.isfinite(values)):
        raise WriteError(f"{path}: refusing to write non-finite values")


def write_grd(values: np.ndarray, path, axis_names, deltas, units: str,
              fingerprint: str = "", extra: dict | None = None) -> None:
    """Write a GRD1 grid file."""
    values = np.asarray(values, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    _require_finite(values, path)
    _require_finite(deltas, path)
    header = {
        "magic": GRD_MAGIC,
        "shape": list(values.shape),
        "axes": list(axis_names),
        "deltas": deltas.tolist(),
        "units": units,
        "fingerprint": fingerprint,
    }
    if extra:
        header.update(extra)
    payload = (json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
               + values.astype("<f8").tobytes(order="C"))
    _atomic_write(path, payload)


def read_grd(path) -> tuple[np.ndarray, dict]:
    """Read a GRD1 file back into (array, header).  A header that is not a
    JSON object of magic "GRD1" with a ``shape`` list of ints >= 1, or a
    payload of another size than that shape's, raises :class:`WriteError`.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WriteError(f"{path}: not a GRD1 file "
                         f"(header is not JSON: {exc})") from exc
    if not isinstance(header, dict) or header.get("magic") != GRD_MAGIC:
        raise WriteError(f"{path}: not a GRD1 file")
    shape = header.get("shape")
    # bool is an int subclass; each extent is a plain int >= 1.
    if not isinstance(shape, list) or not all(type(s) is int and s >= 1
                                              for s in shape):
        raise WriteError(f"{path}: malformed GRD1 header: shape {shape!r}")
    shape = tuple(shape)
    expected = int(np.prod(shape)) * 8
    if len(payload) != expected:
        raise WriteError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return values, header


def write_csv(values: np.ndarray, path, axis_names, fingerprint: str = "") -> None:
    """Write a 2D array as CSV: comment line with fingerprint, header row, data rows."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[None, :]
    if values.ndim != 2:
        raise WriteError("CSV writer handles 1D/2D arrays only")
    _require_finite(values, path)
    lines = [f"# fingerprint={fingerprint}"]
    lines.append(",".join(str(name) for name in axis_names))
    for row in values:
        lines.append(",".join(f"{v:.17g}" for v in row))
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_pgm(values: np.ndarray, path, fingerprint: str = "") -> None:
    """Write a binary (P5) 8-bit PGM preview, max-normalized to 255."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise WriteError("PGM writer handles 2D arrays only")
    _require_finite(values, path)
    peak = values.max()
    if peak <= 0:
        img = np.zeros(values.shape, dtype=np.uint8)
    else:
        img = np.clip(values / peak * 255.0, 0.0, 255.0).round().astype(np.uint8)
    ny, nx = img.shape
    header = f"P5\n# fingerprint={fingerprint}\n{nx} {ny}\n255\n".encode("ascii")
    _atomic_write(path, header + img.tobytes(order="C"))
