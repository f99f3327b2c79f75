"""Synthetic single-photon-camera acquisition and coincidence reconstruction.

The forward model draws photon-pair events from the position amplitude's
rank-R factor tables (:class:`fields.PositionFactors`; no 4-axis array is
read), thins each photon by the detector quantum efficiency, adds per-pixel
Poisson dark counts, and accumulates integer counts into two detector
planes (signal and idler) per frame.  Coincidences are recovered with the
standard accidental-subtracting estimator

    C_pq = <n_p n_q>_same-frame - <n_p n_q>_adjacent-frame

where the adjacent-frame (cyclically closed) product estimates the
uncorrelated background.  Synthesized stacks are held as per-pair pixels,
loaded ones as their file, and all are read in blocks of whole frames.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .fields import MEMORY_BUDGET, PositionFactors, _check_stage, _nbytes
from .writers import _atomic_write


class DetectorError(ValueError):
    """Invalid detector configuration or geometry mismatch."""


class AccumulatorError(RuntimeError):
    """Count accumulation would overflow its storage type."""


#: Largest per-pixel per-frame count representable in the frame format.
MAX_COUNT = np.iinfo(np.uint16).max

#: Bytes of one frame block: stacks are written, read and reduced in blocks
#: of whole frames of about this size, each through one reused buffer.
FRAME_BLOCK_BYTES = 1024**2


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
        if not (math.isfinite(self.pitch) and self.pitch > 0):
            raise DetectorError(
                f"pixel pitch must be finite and > 0, got {self.pitch}")
        if not (0.0 <= self.quantum_efficiency <= 1.0):
            raise DetectorError(f"QE must lie in [0, 1], got {self.quantum_efficiency}")
        if not (math.isfinite(self.dark_rate) and self.dark_rate >= 0):
            raise DetectorError(
                f"dark rate must be finite and >= 0, got {self.dark_rate}")
        if min(self.roi) < 1:
            raise DetectorError(f"ROI must be at least 1x1 pixels, got {self.roi}")


class FrameStack:
    """Per-frame photon counts of shape (n_frames, 2, ny, nx), planes
    (signal, idler), uint16.

    ``FrameStack(counts, seed, detector)`` holds a dense array and yields
    views of it.  :func:`synth_frames` gives one built from per-pair pixels
    and :func:`load_frames` one that reads its file; both fill one reused
    buffer.  All three yield the same consecutive blocks of whole frames, of
    about ``FRAME_BLOCK_BYTES`` (:func:`_block_frames`).  ``counts`` is the
    dense array, built on demand for the last two.
    """

    def __init__(self, counts: np.ndarray | None, seed: int,
                 detector: DetectorModel, fingerprint: str = "", *,
                 shape: tuple[int, ...] | None = None,
                 blocks: Callable[[], Iterator[np.ndarray]] | None = None):
        if counts is not None:
            if counts.dtype != np.uint16:
                raise DetectorError("counts must be uint16")
            shape, blocks = counts.shape, partial(_dense_blocks, counts)
        if len(shape) != 4 or shape[1] != 2:
            raise DetectorError(f"counts shape must be (F, 2, ny, nx), got {shape}")
        self.shape = tuple(int(s) for s in shape)
        self.seed = seed
        self.detector = detector
        self.fingerprint = fingerprint
        self._dense = counts
        self._blocks = blocks

    @property
    def n_frames(self) -> int:
        return self.shape[0]

    def blocks(self) -> Iterator[np.ndarray]:
        """The stack as consecutive (F_b, 2, ny, nx) blocks of whole frames;
        each block is valid until the next one is drawn."""
        return self._blocks()

    @property
    def counts(self) -> np.ndarray:
        """The dense (n_frames, 2, ny, nx) array."""
        if self._dense is not None:
            return self._dense
        out = np.empty(self.shape, dtype=np.uint16)
        f0 = 0
        for block in self.blocks():
            out[f0:f0 + len(block)] = block
            f0 += len(block)
        return out


def _block_frames(shape: tuple[int, ...]) -> int:
    """Frames per block of a stack of ``shape``: at least one, and no more
    than the stack holds."""
    per = FRAME_BLOCK_BYTES // (2 * math.prod(shape[1:]))
    return max(1, min(shape[0], per))


def _dense_blocks(counts: np.ndarray) -> Iterator[np.ndarray]:
    """Views of ``counts`` in the blocks of :func:`_block_frames`."""
    per = _block_frames(counts.shape)
    return (counts[f0:f0 + per] for f0 in range(0, len(counts), per))


def _event_blocks(shape: tuple[int, ...], budget: int, offsets, pixels,
                  dark, dtype=np.uint16) -> Iterator[np.ndarray]:
    """The blocks of the stack whose frame f holds pairs
    offsets[f]:offsets[f + 1], each photon's pixel in its plane in the
    (signal, idler) columns of ``pixels`` (ny * nx for a photon not
    detected), and dark counts at the sorted flat cells ``dark``.  Each
    block's events are added one by one into one reused buffer of
    ``dtype``: uint16 holds every count once :func:`synth_frames` has
    bounded them, and its exact count runs in int64.

    Raises :class:`fields.MemoryBudgetError` before the first block when
    the buffer and the largest block's event arrays, beside the stack's,
    would need more than ``budget`` bytes.
    """
    n_frames, frame = shape[0], math.prod(shape[1:])
    per = _block_frames(shape)
    # Each block's first frame, and past the last.
    starts = np.minimum(np.arange(0, n_frames + per, per), n_frames)
    pairs = int(np.diff(offsets[starts]).max())
    darks = int(np.diff(np.searchsorted(
        dark, starts.astype(dark.dtype) * frame)).max())
    # The buffer, a block's dark cells, and its pairs' first cells, one
    # plane's kept mask, cells and pixels.
    cell = _index_type(per * frame)
    _check_stage(budget, "frame blocks",
                 offsets.nbytes + pixels.nbytes + dark.nbytes,
                 ((per * frame,), dtype), ((darks,), dark.dtype),
                 ((2, pairs), cell), ((pairs,), np.bool_),
                 ((pairs,), pixels.dtype))
    buf = np.empty((per,) + tuple(shape[1:]), dtype=dtype)
    one = buf.dtype.type(1)  # add.at is fast for a value of its own type
    for f0 in range(0, n_frames, per):
        f1 = min(f0 + per, n_frames)
        flat = buf[:f1 - f0].reshape(-1)
        flat.fill(0)
        d0, d1 = np.searchsorted(dark, np.array((f0, f1), dark.dtype) * frame)
        np.add.at(flat, dark[d0:d1] - f0 * frame, one)
        lo, hi = offsets[f0], offsets[f1]
        # The first cell of each pair's frame.
        first = np.repeat(np.arange(0, (f1 - f0) * frame, frame, dtype=cell),
                          np.diff(offsets[f0:f1 + 1]))
        for k in range(2):
            pixel = pixels[lo:hi, k]
            kept = pixel < frame // 2
            cells = first[kept]
            cells += pixel[kept]
            cells += k * frame // 2
            np.add.at(flat, cells, one)
            del kept, cells  # one plane's arrays at a time
        yield buf[:f1 - f0]


class AliasTable:
    """Walker/Vose alias sampler over a discrete distribution, O(1) per draw."""

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float).ravel()
        if (w.size == 0 or not np.all(np.isfinite(w)) or np.any(w < 0)
                or w.sum() <= 0):
            raise ValueError("weights must be finite and non-negative with "
                             "positive total")
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
        idx[take_alias] = self._alias[idx[take_alias]]
        return idx


def _pixel_of(x: np.ndarray, pitch: float, n_pix: int) -> np.ndarray:
    """Map positions to pixel indices with pixel 0 starting at -n_pix/2 * pitch."""
    return np.floor(x / pitch).astype(np.int32) + n_pix // 2


def sample_pairs(source: PositionFactors, n_pairs: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Grid nodes of ``n_pairs`` photon pairs drawn jointly from |psi|^2
    (:func:`_pair_batches`), grouped by y-pair.  Returns the flat int32
    (x_s, x_i) and (y_s, y_i) indices, signal index major.
    """
    x_cells = np.empty(n_pairs, dtype=np.int32)
    y_cells = np.empty(n_pairs, dtype=np.int32)
    for lo, x, y in _pair_batches(source, n_pairs, rng):
        x_cells[lo:lo + len(x)] = x
        y_cells[lo:lo + len(y)] = y
    return x_cells, y_cells


def _pair_batches(source: PositionFactors, n_pairs: int,
                  rng: np.random.Generator) -> Iterator[tuple]:
    """(first draw, x-pair indices, y-pair indices) of ``n_pairs`` pairs,
    in batches of at most R n^2 draws, the elements of one factor table,
    ascending in y-pair; each batch's arrays are valid until the next batch
    is drawn.

    The (y_s, y_i) pairs are drawn from the marginal of ``source`` with an
    alias table in batches, each folded into per-cell counts: the draws in
    ascending order are those counts expanded, so no draw is kept.  Each
    (x_s, x_i) pair is then drawn by inverse CDF from the row of
    ``source.x_weights`` of its y-pair: the tables of the distinct y-pairs
    are built in chunks of R rows, as many rows as the x table has terms,
    into buffers reused across chunks, each CDF normalized and offset by
    the y-pair's index among the distinct ones, so one ``searchsorted`` of
    (index + uniform) reads a chunk for a batch of its draws.  The batch's
    uniforms are drawn in one call and sorted within each y-pair, so that
    the search keys ascend.
    """
    table = AliasTable(source.y_marginal())
    size, rank, batch = source.grid.n ** 2, source.x.shape[0], source.x.size
    counts = np.zeros(size, dtype=np.int64)
    for lo in range(0, n_pairs, batch):
        counts += np.bincount(table.sample(min(batch, n_pairs - lo), rng),
                              minlength=size)
    del table
    distinct = np.flatnonzero(counts).astype(np.int32)
    # First draw of each distinct y-pair, and past the last.
    edges = np.append(0, np.cumsum(counts[distinct]))
    shape = (min(rank, distinct.size), size)
    work = (np.empty(shape), np.empty(shape, dtype=complex))
    keys = np.empty(min(n_pairs, batch))
    ys = np.empty(keys.size, dtype=np.int32)
    for c0 in range(0, distinct.size, rank):
        c1 = min(c0 + rank, distinct.size)
        cdf = source.x_weights(distinct[c0:c1],
                               out=tuple(w[:c1 - c0] for w in work))
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        cdf += np.arange(c0, c1)[:, None]
        for lo in range(edges[c0], edges[c1], batch):
            hi = min(lo + batch, edges[c1])
            # The distinct y-pairs r0 .. r1 - 1 that draws lo .. hi - 1 hold,
            # each repeated for its draws in that window.
            r0 = np.searchsorted(edges, lo, side="right") - 1
            r1 = np.searchsorted(edges, hi)
            row = np.repeat(np.arange(r0, r1, dtype=np.int32),
                            np.diff(np.clip(edges[r0:r1 + 1], lo, hi)))
            y = np.take(distinct, row, out=ys[:hi - lo])
            # The rows ascend, so sorting the keys sorts each row's uniforms
            # and leaves every key in its own row's interval.
            key = rng.random(out=keys[:hi - lo])
            key += row
            key.sort()
            row -= c0
            row *= size
            # The keys are spent once searched: their buffer takes the draws.
            x = np.subtract(np.searchsorted(cdf.ravel(), key, side="right"),
                            row, out=key.view(np.int64))
            # row + u rounds to row + 1 for u within an ulp of 1: keep such
            # a draw in its own row.
            yield lo, np.minimum(x, size - 1, out=x), y


def _pair_pixels(source: PositionFactors, detector: DetectorModel,
                 n_pairs: int, rng: np.random.Generator) -> np.ndarray:
    """The (signal, idler) pixels of ``n_pairs`` pairs drawn from
    ``source``, as an (n_pairs, 2) array in a uniformly random order.

    A photon's pixel is py * nx + px within its plane, or ny * nx when it
    is not detected (probability 1 - QE), in the narrowest unsigned type
    that holds ny * nx (:func:`_pixel_type`).  The pairs are drawn grouped
    by y-pair (:func:`_pair_batches`); they are iid, so one uniform shuffle
    of them, in place, gives the order of independent draws.
    """
    axis = source.grid.x_axis
    ny, nx = detector.roi
    dtype = _pixel_type(detector.roi)
    px, py = (_pixel_of(axis, detector.pitch, nx),
              _pixel_of(axis, detector.pitch, ny) * nx)
    n = axis.size
    # Per flat pair index s * n + i: the (py, px) of its signal node s and
    # of its idler node i.
    tables = [(np.repeat(py, n).astype(dtype), np.repeat(px, n).astype(dtype)),
              (np.tile(py, n).astype(dtype), np.tile(px, n).astype(dtype))]
    pixels = np.empty((n_pairs, 2), dtype=dtype)
    batch = source.x.size  # the draws of a batch of _pair_batches
    part = np.empty((2, min(n_pairs, batch)), dtype=dtype)
    for lo, x, y in _pair_batches(source, n_pairs, rng):
        pairs = pixels[lo:lo + len(x)]
        from_y, from_x = part[:, :len(x)]
        # The indices are in range; mode="raise" would buffer the output.
        for k, (ty, tx) in enumerate(tables):
            np.take(ty, y, out=from_y, mode="clip")
            np.take(tx, x, out=from_x, mode="clip")
            np.add(from_y, from_x, out=pairs[:, k])
    qe = detector.quantum_efficiency
    for lo in range(0, n_pairs, batch):
        pairs = pixels[lo:lo + batch]
        pairs[rng.random(pairs.shape) >= qe] = ny * nx
    # Whole pairs, in place.
    rng.shuffle(pixels.view(f"u{2 * pixels.itemsize}").ravel())
    return pixels


def _draw_bytes(source: PositionFactors, n_pairs: int) -> int:
    """Bytes :func:`_pair_pixels` holds beside its output at its largest
    step: the y-marginal's R x n^2 product, or the per-cell tables (the
    counts and the pixel tables, with the alias table while the y-pairs
    are drawn or the distinct cells and their edges after: ten 8-byte
    values a cell), the two R-row chunk tables of :func:`_pair_batches`
    with the gathered y rows, and the keys, pixels and temporaries of a
    batch of up to R n^2 draws (40 bytes a draw)."""
    rank, size = source.x.shape[0], source.grid.n ** 2
    rows = min(rank, n_pairs, size)
    return max(_nbytes(((rank + 1, size + rank), np.complex128)),
               _nbytes(((10, size), np.float64), ((rows, size), np.float64),
                       ((rows, size + rank), np.complex128),
                       ((min(n_pairs, source.x.size), 5), np.float64)))


def _index_type(end: int) -> np.dtype:
    """The type of offsets and flat cells that reach ``end``: uint32 below
    2^32, int64 from there."""
    return np.dtype(np.uint32 if end < 2**32 else np.int64)


def _frame_offsets(counts: Iterator[np.ndarray], n_frames: int,
                   budget: int, held: int) -> np.ndarray:
    """The n_frames + 1 frame offsets summed from ``counts``, the frames'
    pair counts in consecutive int64 chunks (each summed in place), in the
    type of :func:`_index_type`: uint32 with a running carry, widened to
    int64 only once the total reaches 2^32.

    Raises :class:`fields.MemoryBudgetError` before the widening copy when
    it, beside the uint32 offsets, a chunk and ``held`` bytes, would need
    more than ``budget`` bytes.
    """
    offsets = np.zeros(n_frames + 1, dtype=_index_type(0))
    f0, carry = 0, 0
    for chunk in counts:
        np.cumsum(chunk, out=chunk)
        chunk += carry
        carry = int(chunk[-1])
        wide = _index_type(carry)
        if wide != offsets.dtype:
            _check_stage(budget, "frame offsets", held, offsets.nbytes,
                         chunk.nbytes, ((n_frames + 1,), wide))
            offsets = offsets.astype(wide)
        offsets[f0 + 1:f0 + 1 + len(chunk)] = chunk
        f0 += len(chunk)
    return offsets


def _pixel_type(roi: tuple[int, int]) -> np.dtype:
    """The type of a photon's pixel in a plane of ``roi``: the narrowest
    unsigned one that holds ny * nx, the mark of a photon not detected."""
    return np.min_scalar_type(math.prod(roi))


def _check_roi(axis: np.ndarray, detector: DetectorModel) -> None:
    """Raise :class:`DetectorError` unless every node of ``axis``, on both
    axes of each plane, lands inside the detector's ROI."""
    half = (min(detector.roi) // 2) * detector.pitch
    if axis.min() < -half or axis.max() >= half:
        raise DetectorError(
            f"ROI {detector.roi} at pitch {detector.pitch * 1e6:.1f} um does not "
            "cover the distribution support; enlarge the ROI")


def synth_frames(source: PositionFactors, detector: DetectorModel,
                 mu_pairs: float, n_frames: int, seed: int,
                 fingerprint: str = "",
                 memory_budget: int = MEMORY_BUDGET) -> FrameStack:
    """Generate a stack of synthetic frames from the position amplitude's
    factor tables (:func:`fields.position_factors`).

    Per frame, the number of pair events is Poisson(mu_pairs).  The
    events' (y_s, y_i) nodes are drawn from their marginal with an alias
    table, then each one's (x_s, x_i) nodes by inverse CDF given them (the
    pair is drawn jointly; :func:`_pair_batches`); each photon survives with
    probability QE, and Poisson dark counts are added independently to every
    pixel of both planes.  The stack keeps each photon's pixel, ny * nx
    when it is not detected, in a uniformly random order of the pairs
    (:func:`_pair_pixels`), the pairs' frame offsets and the sorted dark
    cells (:func:`_event_blocks`).  Deterministic for a fixed seed.

    Raises :class:`fields.MemoryBudgetError` before the frames' pair
    counts are drawn, and again before the pairs are, when the store and
    the draw would need more than ``memory_budget`` bytes.
    """
    if not (math.isfinite(mu_pairs) and mu_pairs >= 0):
        raise DetectorError(
            f"mu_pairs must be finite and >= 0, got {mu_pairs}")
    if n_frames < 1:
        raise DetectorError(f"n_frames must be >= 1, got {n_frames}")
    _check_roi(source.grid.x_axis, detector)
    ny, nx = detector.roi
    shape = (n_frames, 2, ny, nx)

    # The store, beside the source's tables: the uint32 offsets with a
    # block's pair counts, summed into them, then the pixels, the offsets
    # and the dark cells at their mean count beside the draw's largest step.
    held = source.x.nbytes + source.y.nbytes
    per = _block_frames(shape)
    _check_stage(memory_budget, "frame store", held,
                 ((n_frames + 1,), np.uint32), ((per,), np.int64))
    rng = np.random.default_rng(seed)
    # Drawn a block at a time: the calls give the values of one call of
    # n_frames in turn (numpy 2.4.6), so the stack does not depend on it.
    offsets = _frame_offsets(
        (rng.poisson(mu_pairs, size=min(per, n_frames - f0))
         for f0 in range(0, n_frames, per)), n_frames, memory_budget, held)
    n_pairs, cells = int(offsets[-1]), 2 * ny * nx
    # The dark cells, and the keys that search them, reach n_frames * cells.
    dark_type = _index_type(n_frames * cells)
    _check_stage(memory_budget, "frame store", held, offsets.nbytes,
                 ((n_pairs, 2), _pixel_type(detector.roi)),
                 ((math.ceil(detector.dark_rate * cells * n_frames),),
                  dark_type),
                 _draw_bytes(source, n_pairs))
    pixels = _pair_pixels(source, detector, n_pairs, rng)
    n_dark = rng.poisson(detector.dark_rate * cells * n_frames)
    # Drawn in their own type: below 2^32, a uint32 draw takes the int64
    # draw's values from the same stream.
    dark = rng.integers(0, n_frames * cells, size=int(n_dark),
                        dtype=dark_type)
    dark.sort()
    state = (offsets, pixels, dark)
    # A cell's count in a frame is at most the frame's pairs plus its dark
    # counts: count exactly only where that bound exceeds MAX_COUNT.  The
    # bound is taken a block of frames at a time, with no per-frame array.
    # A key of another type than the dark cells' would copy them all.
    worst = max(np.diff(offsets[f0:f0 + per + 1] + np.searchsorted(
        dark, np.arange(f0, min(f0 + per, n_frames) + 1, dtype=dark_type)
        * cells)).max() for f0 in range(0, n_frames, per))
    if worst > MAX_COUNT:
        worst = max(block.max() for block in _event_blocks(
            shape, memory_budget, *state, dtype=np.int64))
    if worst > MAX_COUNT:
        raise AccumulatorError(f"per-pixel count {worst} exceeds uint16 range")
    return FrameStack(None, seed, detector, fingerprint, shape=shape,
                      blocks=partial(_event_blocks, shape, memory_budget,
                                     *state))


@dataclass(frozen=True)
class CoincidenceMap:
    """Accidental-subtracted pair statistic with a per-entry standard error."""

    values: np.ndarray
    stderr: np.ndarray
    n_frames: int
    reduction: str
    params: dict = field(default_factory=dict)


def _pair_statistic(blocks: Iterator[tuple[np.ndarray, np.ndarray]],
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Mean same-frame minus mean adjacent-frame outer products, with SE.

    ``blocks`` yields (a, b) for consecutive blocks of frames: (F_b, P) and
    (F_b, Q) integer arrays of per-frame counts.  The frame sums of
    u_f v_f^T and u_f v_{f+1}^T, for (u, v) = (a, b) and (a^2, b^2), are
    accumulated block by block: each block's last row of u meets the next
    block's first row of v, and the cyclic closure v_F = v_0 keeps exactly
    F terms.  Every product is an integer, and the sums are exact in
    float64 while they stay below 2^53, so the result does not depend on
    the blocking or the order of summation.
    """
    f = 0
    for a, b in blocks:
        if f == 0:
            # [0]: the counts, [1]: their squares.
            same = np.zeros((2, a.shape[1], b.shape[1]))
            shifted = np.zeros_like(same)
            head, tail = np.empty((2, b.shape[1])), np.empty((2, a.shape[1]))
        u, v = a.astype(np.float64), b.astype(np.float64)
        for m in range(2):
            if m:
                u *= u
                v *= v
            if f == 0:
                head[m] = v[0]
            else:
                shifted[m] += np.outer(tail[m], v[0])
            same[m] += u.T @ v
            shifted[m] += u[:-1].T @ v[1:]
            tail[m] = u[-1]
        f += len(u)
    shifted += tail[:, :, None] * head[:, None, :]
    same /= f
    shifted /= f
    var_same = np.maximum(same[1] - same[0]**2, 0.0)
    var_shift = np.maximum(shifted[1] - shifted[0]**2, 0.0)
    values = same[0] - shifted[0]
    stderr = np.sqrt((var_same + var_shift) / f)
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(stderr))):
        raise AccumulatorError("non-finite accumulator in coincidence estimator")
    return values, stderr


def _y_sums(block: np.ndarray) -> np.ndarray:
    """(2, F_b, nx) sums over y of each plane of a (F_b, 2, ny, nx) block,
    added row by row in uint32, exact while ny * MAX_COUNT < 2^32 (a uint16
    sum overflows), and in int64 past that."""
    ny = block.shape[2]
    planes = block.transpose(1, 0, 2, 3)
    sums = planes[:, :, 0].astype(np.uint32 if ny * MAX_COUNT < 2**32
                                  else np.int64)
    for y in range(1, ny):
        sums += planes[:, :, y]
    return sums


def coincidence_map(stack: FrameStack, reduction: str = "joint_x",
                    idler_pixel: tuple[int, int] | None = None) -> CoincidenceMap:
    """Reconstruct a coincidence map from a frame stack.

    reduction = "joint_x": y-sum both planes per frame, estimate the
    (x_s, x_i) pixel-pair statistic.  reduction = "conditional": full 2D
    signal map against a single idler pixel (``idler_pixel`` = (iy, ix),
    default ROI center).  The stack is read and reduced block by block, in
    the same blocks however it is held, with one block's float64 working
    set; the per-frame sums are exact (:func:`_y_sums`).
    """
    if stack.n_frames < 2:
        raise DetectorError("coincidence estimation needs at least 2 frames")
    f, _, ny, nx = stack.shape
    if reduction == "joint_x":
        values, stderr = _pair_statistic(_y_sums(b) for b in stack.blocks())
        return CoincidenceMap(values=values, stderr=stderr, n_frames=f,
                              reduction=reduction)
    if reduction == "conditional":
        if idler_pixel is None:
            idler_pixel = (ny // 2, nx // 2)
        iy, ix = idler_pixel
        if not (0 <= iy < ny and 0 <= ix < nx):
            raise DetectorError(f"idler pixel {idler_pixel} outside ROI {(ny, nx)}")
        values, stderr = _pair_statistic(
            (b[:, 0].reshape(len(b), ny * nx), b[:, 1, iy, ix, None])
            for b in stack.blocks())
        return CoincidenceMap(values=values.reshape(ny, nx),
                              stderr=stderr.reshape(ny, nx),
                              n_frames=f, reduction=reduction,
                              params={"idler_pixel": list(idler_pixel)})
    raise DetectorError(f"unknown reduction {reduction!r}")


# --- frame-stack file format ------------------------------------------------
# One JSON header line, then raw little-endian uint16 counts, frame-major.

FRAME_MAGIC = "BPFS1"


def save_frames(stack: FrameStack, path) -> None:
    """Write a frame stack; bit-exact round trip with :func:`load_frames`.
    A stack whose detector ROI is not its (ny, nx) raises
    :class:`DetectorError` before anything is written.

    The counts are written block by block from the stack's own buffers: a
    dense stack's array is written without a copy on a little-endian host.
    """
    f, _, ny, nx = stack.shape
    if tuple(stack.detector.roi) != (ny, nx):
        raise DetectorError(f"detector ROI {stack.detector.roi} does not match "
                            f"the stack's (ny, nx) = {(ny, nx)}")
    header = {"magic": FRAME_MAGIC, "n_frames": f, "planes": 2, "ny": ny,
              "nx": nx, "seed": stack.seed, "fingerprint": stack.fingerprint,
              "detector": asdict(stack.detector)}
    _atomic_write(path, json.dumps(header, sort_keys=True).encode("utf-8")
                  + b"\n", (memoryview(np.ascontiguousarray(block, dtype="<u2"))
                            for block in stack.blocks()))


def _file_blocks(path, offset: int,
                 shape: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Blocks of the counts stored at ``offset`` of ``path``, read into
    one reused buffer."""
    per = _block_frames(shape)
    buf = np.empty((per,) + tuple(shape[1:]), dtype="<u2")
    with open(path, "rb") as fh:
        fh.seek(offset)
        for f0 in range(0, shape[0], per):
            block = buf[:min(per, shape[0] - f0)]
            if fh.readinto(block) != block.nbytes:
                raise DetectorError(f"{path}: payload ends before frame "
                                    f"{shape[0]}")
            yield block.astype(np.uint16, copy=False)  # no-op on little-endian


def load_frames(path) -> FrameStack:
    """Open a frame stack written by :func:`save_frames`.

    The header is checked here, and the payload size against it: a
    malformed header (among them a stack size or ROI entry that is not an
    int >= 1, a pitch, QE or dark rate that is not a number, a seed that
    is not an int >= 0 or a fingerprint that is not a string), a
    detector ROI other than the stack's (ny, nx), a short or an over-long
    payload raises :class:`DetectorError`.  The counts are read from the
    file block by block whenever the stack is read (``counts`` reads them
    all).
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        size = os.fstat(fh.fileno()).st_size
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DetectorError(f"{path}: not a frame-stack file "
                            f"(header is not JSON: {exc})") from exc
    if not isinstance(header, dict) or header.get("magic") != FRAME_MAGIC:
        raise DetectorError(f"{path}: not a frame-stack file")
    try:
        shape = tuple(header[key] for key in ("n_frames", "planes", "ny", "nx"))
        det = header["detector"]
        roi = tuple(det["roi"])
        # bool is an int subclass: sizes are plain ints >= 1, the
        # detector's numbers JSON numbers and a seed a plain int >= 0.
        for name, sizes in (("stack shape", shape), ("detector.roi", roi)):
            if not all(type(s) is int and s >= 1 for s in sizes):
                raise ValueError(f"{name} {sizes}")
        numbers = {key: det[key]
                   for key in ("pitch", "quantum_efficiency", "dark_rate")}
        for key, value in numbers.items():
            if type(value) not in (int, float):
                raise ValueError(f"detector.{key} {value!r}")
        detector = DetectorModel(roi=roi, **numbers)
        seed, fingerprint = header["seed"], header.get("fingerprint", "")
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed {seed!r}")
        if not isinstance(fingerprint, str):
            raise ValueError(f"fingerprint {fingerprint!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise DetectorError(
            f"{path}: malformed frame-stack header: {exc!r}") from exc
    if tuple(detector.roi) != shape[2:]:
        raise DetectorError(f"{path}: header detector.roi {list(detector.roi)} "
                            f"does not match (ny, nx) = {list(shape[2:])}")
    expected = math.prod(shape) * 2
    if size - len(header_line) != expected:
        raise DetectorError(f"{path}: payload is {size - len(header_line)} "
                            f"bytes, expected {expected}")
    return FrameStack(None, seed, detector, fingerprint, shape=shape,
                      blocks=partial(_file_blocks, path, len(header_line),
                                     shape))
