"""Synthetic single-photon-camera acquisition and coincidence reconstruction.

The forward model draws photon-pair events from a 4D position distribution,
thins each photon by the detector quantum efficiency, adds per-pixel Poisson
dark counts, and accumulates integer counts into two detector planes (signal
and idler) per frame.  Coincidences are recovered with the standard
accidental-subtracting estimator

    C_pq = <n_p n_q>_same-frame - <n_p n_q>_adjacent-frame

where the adjacent-frame (cyclically closed) product estimates the
uncorrelated background.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .fields import Distribution
from .writers import _atomic_write


class DetectorError(ValueError):
    """Invalid detector configuration or geometry mismatch."""


class AccumulatorError(RuntimeError):
    """Count accumulation would overflow its storage type."""


#: Largest per-pixel per-frame count representable in the frame format.
MAX_COUNT = np.iinfo(np.uint16).max


@dataclass(frozen=True)
class DetectorModel:
    """Idealized EMCCD-like photon counter.

    ``pitch`` is the pixel size mapped into the measurement plane;
    ``dark_rate`` is mean dark counts per pixel per frame.
    """

    pitch: float = 16e-6
    quantum_efficiency: float = 0.6
    dark_rate: float = 1e-3
    roi: tuple[int, int] = (32, 32)  # (ny, nx) pixels per plane

    def __post_init__(self):
        if self.pitch <= 0:
            raise DetectorError(f"pixel pitch must be > 0, got {self.pitch}")
        if not (0.0 <= self.quantum_efficiency <= 1.0):
            raise DetectorError(f"QE must lie in [0, 1], got {self.quantum_efficiency}")
        if self.dark_rate < 0:
            raise DetectorError(f"dark rate must be >= 0, got {self.dark_rate}")
        if min(self.roi) < 1:
            raise DetectorError(f"ROI must be at least 1x1 pixels, got {self.roi}")


@dataclass(frozen=True)
class FrameStack:
    """Per-frame photon counts, shape (n_frames, 2, ny, nx), planes (signal, idler)."""

    counts: np.ndarray
    seed: int
    detector: DetectorModel
    fingerprint: str = ""

    def __post_init__(self):
        if self.counts.ndim != 4 or self.counts.shape[1] != 2:
            raise DetectorError(f"counts shape must be (F, 2, ny, nx), got {self.counts.shape}")
        if self.counts.dtype != np.uint16:
            raise DetectorError("counts must be uint16")

    @property
    def n_frames(self) -> int:
        return self.counts.shape[0]


class AliasTable:
    """Walker/Vose alias sampler over a discrete distribution, O(1) per draw."""

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float).ravel()
        if w.size == 0 or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative with positive total")
        n = w.size
        prob = w * (n / w.sum())
        alias = np.arange(n, dtype=np.int64)
        accept = np.ones(n, dtype=float)
        idx = np.arange(n)
        small = idx[prob < 1.0]
        large = idx[prob >= 1.0]
        # Batched donor pairing: each pass finalizes len(batch) deficient
        # cells against distinct surplus donors, then re-partitions donors.
        while small.size and large.size:
            k = min(small.size, large.size)
            s, small = small[:k], small[k:]
            l = large[:k]
            accept[s] = prob[s]
            alias[s] = l
            prob[l] -= 1.0 - prob[s]
            still_large = prob[l] >= 1.0
            small = np.concatenate([small, l[~still_large]])
            large = np.concatenate([large[k:], l[still_large]])
        accept[small] = 1.0
        accept[large] = 1.0
        self._accept = accept
        self._alias = alias
        self._n = n

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, self._n, size=size)
        take_alias = rng.random(size) >= self._accept[idx]
        return np.where(take_alias, self._alias[idx], idx)


def _pixel_of(x: np.ndarray, pitch: float, n_pix: int) -> np.ndarray:
    """Map positions to pixel indices with pixel 0 starting at -n_pix/2 * pitch."""
    return np.floor(x / pitch).astype(np.int64) + n_pix // 2


def synth_frames(dist4: Distribution, detector: DetectorModel, mu_pairs: float,
                 n_frames: int, seed: int, fingerprint: str = "") -> FrameStack:
    """Generate a stack of synthetic frames from a 4D position distribution.

    Per frame, the number of pair events is Poisson(mu_pairs); each event's
    (signal, idler) positions are drawn jointly from the discrete
    distribution, each photon survives with probability QE, and Poisson dark
    counts are added independently to every pixel of both planes.
    Deterministic for a fixed seed.
    """
    if dist4.values.ndim != 4 or dist4.basis != "position":
        raise DetectorError("synth_frames requires a 4D position distribution")
    if mu_pairs < 0:
        raise DetectorError(f"mu_pairs must be >= 0, got {mu_pairs}")
    if n_frames < 1:
        raise DetectorError(f"n_frames must be >= 1, got {n_frames}")
    ny, nx = detector.roi
    shape = dist4.values.shape
    axes = [(np.arange(shape[i]) - shape[i] // 2) * dist4.deltas[i]
            for i in range(4)]
    # Every grid node must land inside the ROI of its plane.
    half_x = (nx // 2) * detector.pitch
    half_y = (ny // 2) * detector.pitch
    if (axes[0].min() < -half_x or axes[0].max() >= half_x
            or axes[1].min() < -half_y or axes[1].max() >= half_y):
        raise DetectorError(
            f"ROI {detector.roi} at pitch {detector.pitch * 1e6:.1f} um does not "
            "cover the distribution support; enlarge the ROI")

    rng = np.random.default_rng(seed)
    pairs_per_frame = rng.poisson(mu_pairs, size=n_frames)
    total_pairs = int(pairs_per_frame.sum())
    frame_of_pair = np.repeat(np.arange(n_frames, dtype=np.int64), pairs_per_frame)

    table = AliasTable(dist4.values)
    flat = table.sample(total_pairs, rng)
    isx, isy, iix, iiy = np.unravel_index(flat, shape)

    qe = detector.quantum_efficiency
    keep_s = rng.random(total_pairs) < qe
    keep_i = rng.random(total_pairs) < qe

    def plane_events(keep, ix_arr, iy_arr, plane):
        px = _pixel_of(axes[0][ix_arr[keep]], detector.pitch, nx)
        py = _pixel_of(axes[1][iy_arr[keep]], detector.pitch, ny)
        f = frame_of_pair[keep]
        return ((f * 2 + plane) * ny + py) * nx + px

    lin_s = plane_events(keep_s, isx, isy, 0)
    lin_i = plane_events(keep_i, iix, iiy, 1)

    n_cells = n_frames * 2 * ny * nx
    n_dark = rng.poisson(detector.dark_rate * 2 * ny * nx * n_frames)
    lin_dark = rng.integers(0, n_cells, size=int(n_dark))

    lin = np.concatenate([lin_s, lin_i, lin_dark])
    counts = np.zeros(n_cells, dtype=np.uint16)
    if lin.size:
        occupied, multiplicity = np.unique(lin, return_counts=True)
        if multiplicity.max() > MAX_COUNT:
            raise AccumulatorError(
                f"per-pixel count {multiplicity.max()} exceeds uint16 range")
        counts[occupied] = multiplicity.astype(np.uint16)
    return FrameStack(counts=counts.reshape(n_frames, 2, ny, nx), seed=seed,
                      detector=detector, fingerprint=fingerprint)


@dataclass(frozen=True)
class CoincidenceMap:
    """Accidental-subtracted pair statistic with a per-entry standard error."""

    values: np.ndarray
    stderr: np.ndarray
    n_frames: int
    reduction: str
    params: dict = field(default_factory=dict)


def _pair_statistic(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean same-frame minus mean adjacent-frame outer products, with SE.

    ``a`` and ``b`` are (F, P) and (F, Q) float arrays of per-frame counts.
    """
    f = a.shape[0]
    b_next = np.roll(b, -1, axis=0)  # cyclic closure keeps exactly F terms
    same = a.T @ b / f
    shifted = a.T @ b_next / f
    same_sq = (a * a).T @ (b * b) / f
    shifted_sq = (a * a).T @ (b_next * b_next) / f
    var_same = np.maximum(same_sq - same**2, 0.0)
    var_shift = np.maximum(shifted_sq - shifted**2, 0.0)
    values = same - shifted
    stderr = np.sqrt((var_same + var_shift) / f)
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(stderr))):
        raise AccumulatorError("non-finite accumulator in coincidence estimator")
    return values, stderr


def coincidence_map(stack: FrameStack, reduction: str = "joint_x",
                    idler_pixel: tuple[int, int] | None = None) -> CoincidenceMap:
    """Reconstruct a coincidence map from a frame stack.

    reduction = "joint_x": y-sum both planes per frame, estimate the
    (x_s, x_i) pixel-pair statistic.  reduction = "conditional": full 2D
    signal map against a single idler pixel (``idler_pixel`` = (iy, ix),
    default ROI center).
    """
    if stack.n_frames < 2:
        raise DetectorError("coincidence estimation needs at least 2 frames")
    counts = stack.counts
    f, _, ny, nx = counts.shape
    if reduction == "joint_x":
        ns = counts[:, 0].sum(axis=1, dtype=np.int64).astype(np.float64)
        ni = counts[:, 1].sum(axis=1, dtype=np.int64).astype(np.float64)
        values, stderr = _pair_statistic(ns, ni)
        return CoincidenceMap(values=values, stderr=stderr, n_frames=f,
                              reduction=reduction)
    if reduction == "conditional":
        if idler_pixel is None:
            idler_pixel = (ny // 2, nx // 2)
        iy, ix = idler_pixel
        if not (0 <= iy < ny and 0 <= ix < nx):
            raise DetectorError(f"idler pixel {idler_pixel} outside ROI {(ny, nx)}")
        ns = counts[:, 0].reshape(f, ny * nx).astype(np.float64)
        ni = counts[:, 1, iy, ix].astype(np.float64)[:, None]
        values, stderr = _pair_statistic(ns, ni)
        return CoincidenceMap(values=values.reshape(ny, nx),
                              stderr=stderr.reshape(ny, nx),
                              n_frames=f, reduction=reduction,
                              params={"idler_pixel": list(idler_pixel)})
    raise DetectorError(f"unknown reduction {reduction!r}")


# --- frame-stack file format ------------------------------------------------
# One JSON header line, then raw little-endian uint16 counts, frame-major.

FRAME_MAGIC = "BPFS1"


def save_frames(stack: FrameStack, path) -> None:
    """Write a frame stack; bit-exact round trip with :func:`load_frames`."""
    f, _, ny, nx = stack.counts.shape
    header = {
        "magic": FRAME_MAGIC,
        "n_frames": f,
        "planes": 2,
        "ny": ny,
        "nx": nx,
        "seed": stack.seed,
        "fingerprint": stack.fingerprint,
        "detector": {
            "pitch": stack.detector.pitch,
            "quantum_efficiency": stack.detector.quantum_efficiency,
            "dark_rate": stack.detector.dark_rate,
            "roi": list(stack.detector.roi),
        },
    }
    # The counts are written from their own buffer, after the header: no
    # copy of the stack is made on a little-endian host.
    counts = np.ascontiguousarray(stack.counts, dtype="<u2")
    _atomic_write(path, json.dumps(header, sort_keys=True).encode("utf-8")
                  + b"\n", memoryview(counts))


def load_frames(path) -> FrameStack:
    """Read a frame stack written by :func:`save_frames`.

    The payload is read straight into one array of the size the header
    implies; a short or an over-long payload raises :class:`DetectorError`.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        header = json.loads(header_line.decode("utf-8"))
        if header.get("magic") != FRAME_MAGIC:
            raise DetectorError(f"{path}: not a frame-stack file")
        shape = (header["n_frames"], header["planes"], header["ny"], header["nx"])
        counts = np.empty(shape, dtype="<u2")
        payload = os.fstat(fh.fileno()).st_size - len(header_line)
        if payload != counts.nbytes:
            raise DetectorError(
                f"{path}: payload is {payload} bytes, expected {counts.nbytes}")
        fh.readinto(counts)
    counts = counts.astype(np.uint16, copy=False)  # a no-op on little-endian hosts
    det = header["detector"]
    detector = DetectorModel(pitch=det["pitch"],
                             quantum_efficiency=det["quantum_efficiency"],
                             dark_rate=det["dark_rate"],
                             roi=tuple(det["roi"]))
    return FrameStack(counts=counts, seed=header["seed"], detector=detector,
                      fingerprint=header.get("fingerprint", ""))
