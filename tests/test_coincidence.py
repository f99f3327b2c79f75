"""Synthetic camera pipeline tests: frame statistics, the accidental-
subtracting coincidence estimator, and the frame-stack file format."""

import functools
import json
import math
import os
import stat

import numpy as np
import pytest
from scipy import stats
from stages import PUMP, SETUPS, peak_of, traced_stages

from biphoton.coincidence import (
    FRAME_BLOCK_BYTES,
    MAX_COUNT,
    AccumulatorError,
    AliasTable,
    CoincidenceMap,
    DetectorError,
    DetectorModel,
    FrameStack,
    coincidence_map,
    load_frames,
    sample_pairs,
    save_frames,
    synth_frames,
)
from biphoton.fields import (
    MemoryBudgetError,
    MomentumGrid4,
    Pipeline,
    PositionFactors,
    build_amplitude,
    position_factors,
    position_pdf,
    propagate,
    to_position,
)

SETUP = SETUPS["single"]


@pytest.fixture(scope="module")
def dist4():
    grid = MomentumGrid4.auto(PUMP, SETUP, n=16)
    amp = propagate(build_amplitude(grid, PUMP, SETUP, boundary_tol=None),
                    5e-3)
    return position_pdf(to_position(amp))


@pytest.fixture(scope="module")
def factors16():
    """The rank-R position factors of ``dist4``'s grid and z."""
    grid = MomentumGrid4.auto(PUMP, SETUP, n=16)
    return position_factors(Pipeline(PUMP, SETUP, grid, boundary_tol=None),
                            5e-3)


def detector(**kw):
    base = dict(pitch=16e-6, quantum_efficiency=0.6, dark_rate=1e-3,
                roi=(24, 24))
    base.update(kw)
    return DetectorModel(**base)


def reference_counts(source, det, mu_pairs, n_frames, seed):
    """The dense counts of ``synth_frames(source, det, mu_pairs, n_frames,
    seed)`` built from the same draws as one sorted list of every event of
    the stack, counted by one global ``np.unique``: the reference for the
    block builder.  The draws, in order: the pairs of each frame, the pairs
    (grouped by y-pair), each photon's detection (signal and idler of each
    pair in turn), the permutation that puts the pairs in frame order, the
    number of dark counts and their cells."""
    axis = source.grid.x_axis
    ny, nx = det.roi
    rng = np.random.default_rng(seed)
    pairs_per_frame = rng.poisson(mu_pairs, size=n_frames)
    total = int(pairs_per_frame.sum())
    frame_of_pair = np.repeat(np.arange(n_frames), pairs_per_frame)
    x_cells, y_cells = sample_pairs(source, total, rng)
    keep = rng.random((total, 2)) < det.quantum_efficiency
    order = rng.permutation(total)
    x_cells, y_cells, keep = x_cells[order], y_cells[order], keep[order]
    isy, iiy = np.divmod(y_cells.astype(np.int64), axis.size)
    isx, iix = np.divmod(x_cells.astype(np.int64), axis.size)
    keep_s, keep_i = keep.T

    def events(keep, ix, iy, plane):
        px = np.floor(axis[ix[keep]] / det.pitch).astype(np.int64) + nx // 2
        py = np.floor(axis[iy[keep]] / det.pitch).astype(np.int64) + ny // 2
        return ((frame_of_pair[keep] * 2 + plane) * ny + py) * nx + px

    n_cells = n_frames * 2 * ny * nx
    n_dark = rng.poisson(det.dark_rate * 2 * ny * nx * n_frames)
    dark = rng.integers(0, n_cells, size=int(n_dark))
    cells, counts = np.unique(np.concatenate([events(keep_s, isx, isy, 0),
                                              events(keep_i, iix, iiy, 1),
                                              dark]), return_counts=True)
    assert counts.max(initial=0) <= MAX_COUNT
    out = np.zeros(n_cells, dtype=np.uint16)
    out[cells] = counts
    return out.reshape(n_frames, 2, ny, nx)


@pytest.fixture(scope="module")
def growth_per_pair(factors16):
    """Growth of the traced peak of ``synth_frames`` on ``factors16`` (the
    default detector, 5 pairs a frame, seed 6) plus one pass over its
    blocks, per extra sampled pair, between two frame counts (cached)."""

    @functools.cache
    def growth(frame_counts):
        pairs, peaks = [], []
        for n_frames in frame_counts:
            peaks.append(peak_of(traced_stages(lambda: sum(
                1 for _ in synth_frames(factors16, detector(), 5.0, n_frames,
                                        seed=6).blocks()))[1]))
            pairs.append(np.random.default_rng(6).poisson(5.0, n_frames).sum())
        return (peaks[1] - peaks[0]) / (pairs[1] - pairs[0])

    return growth


def manual_stack(counts, seed=0, det=None):
    return FrameStack(counts=counts.astype(np.uint16), seed=seed,
                      detector=det or detector(roi=counts.shape[2:]))


class TestDetectorModel:
    def test_invalid_fields(self):
        with pytest.raises(DetectorError):
            detector(quantum_efficiency=1.5)
        with pytest.raises(DetectorError):
            detector(dark_rate=-1e-3)
        with pytest.raises(DetectorError):
            detector(pitch=0.0)

    @pytest.mark.parametrize("key", ["pitch", "dark_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf],
                             ids=["nan", "inf"])
    def test_non_finite_fields(self, key, value):
        with pytest.raises(DetectorError, match="finite"):
            detector(**{key: value})


class TestAliasTable:
    def test_matches_weights(self):
        rng = np.random.default_rng(11)
        w = rng.random(64)
        table = AliasTable(w)
        draws = table.sample(400_000, np.random.default_rng(1))
        freq = np.bincount(draws, minlength=64) / draws.size
        np.testing.assert_allclose(freq, w / w.sum(), atol=5e-3)

    def test_degenerate_single_cell(self):
        w = np.zeros(16)
        w[5] = 1.0
        table = AliasTable(w)
        assert np.all(table.sample(100, np.random.default_rng(0)) == 5)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            AliasTable(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            AliasTable(np.array([1.0, -0.5]))
        # A NaN cell took a third of the draws; an infinite one all of them.
        with pytest.raises(ValueError, match="finite"):
            AliasTable(np.array([math.nan, 1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            AliasTable(np.array([math.inf, 1.0]))


class TestSynthFrames:
    def test_dark_only_mean(self, factors16):
        delta = 0.02
        det = detector(dark_rate=delta)
        stack = synth_frames(factors16, det, mu_pairs=0.0, n_frames=4000,
                             seed=3)
        n_cells = stack.counts.size
        mean = stack.counts.mean()
        sigma = math.sqrt(delta / n_cells)
        assert abs(mean - delta) <= 3 * sigma

    def test_determinism(self, factors16):
        det = detector()
        a = synth_frames(factors16, det, 5.0, 200, seed=42)
        b = synth_frames(factors16, det, 5.0, 200, seed=42)
        np.testing.assert_array_equal(a.counts, b.counts)
        c = synth_frames(factors16, det, 5.0, 200, seed=43)
        assert not np.array_equal(a.counts, c.counts)

    def test_singles_chi2_convergence(self, factors16, dist4):
        # QE = 1, no dark: empirical signal image is multinomial over pixels
        # with probabilities given by the pixel-aggregated signal marginal.
        det = detector(quantum_efficiency=1.0, dark_rate=0.0)
        n_frames, mu = 20_000, 4.0
        stack = synth_frames(factors16, det, mu, n_frames, seed=7)
        observed = stack.counts[:, 0].sum(axis=0).astype(float).ravel()

        shape = dist4.values.shape
        ny, nx = det.roi
        marg = dist4.values.sum(axis=(2, 3))
        marg /= marg.sum()
        ax = (np.arange(shape[0]) - shape[0] // 2) * dist4.deltas[0]
        ay = (np.arange(shape[1]) - shape[1] // 2) * dist4.deltas[1]
        px = np.floor(ax / det.pitch).astype(int) + nx // 2
        py = np.floor(ay / det.pitch).astype(int) + ny // 2
        expected = np.zeros((ny, nx))
        for i in range(shape[0]):
            for j in range(shape[1]):
                expected[px[i], py[j]] += marg[i, j]
        expected = expected.ravel() * observed.sum()

        keep = expected >= 5
        chi2, p = stats.chisquare(observed[keep], expected[keep])
        assert p >= 0.05

    def test_totals_linear_in_mu(self, factors16):
        det = detector(dark_rate=0.0)
        totals = []
        for mu in (2.0, 4.0):
            stack = synth_frames(factors16, det, mu, 5000, seed=9)
            totals.append(stack.counts.sum())
        assert totals[1] / totals[0] == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("mu_pairs", [-1.0, math.nan, math.inf],
                             ids=["negative", "nan", "inf"])
    def test_rejects_bad_mu_pairs(self, factors16, mu_pairs):
        with pytest.raises(DetectorError, match="mu_pairs"):
            synth_frames(factors16, detector(), mu_pairs, 10, seed=0)

    def test_roi_too_small(self, factors16):
        with pytest.raises(DetectorError, match="ROI"):
            synth_frames(factors16, detector(roi=(4, 4)), 5.0, 10, seed=0)

    def test_store_over_budget_refused_before_the_pairs(self, factors16):
        # 500 000 pairs hold 2 MB of uint16 pixels at a 24 x 24 ROI, beside
        # 0.1 MB of uint32 frame offsets, the dark cells and the draw's
        # R x n^2 chunk tables and batch buffers (3.4 MB in all): a 3 MB
        # budget refuses the store, and nothing of the pixels' size is
        # allocated first; 50 000 pairs fit (1.4 MB, and 1.9 MB for the
        # pass over their frame blocks).
        refusal, stages, _ = traced_stages(lambda: synth_frames(
            factors16, detector(), 20.0, 25_000, seed=0,
            memory_budget=3_000_000))
        assert isinstance(refusal, MemoryBudgetError)
        assert "frame store" in str(refusal)
        assert peak_of(stages) < 10**6
        for _ in synth_frames(factors16, detector(), 20.0, 2500, seed=0,
                              memory_budget=3_000_000).blocks():
            pass

    @pytest.mark.parametrize("roi", [(15, 17), (16, 16), (255, 257),
                                     (256, 256)],
                             ids=["255", "256", "65535", "65536"])
    def test_pixel_type_edges(self, factors16, roi):
        # Planes of 255 and 65 535 cells keep their pixels (and the mark of
        # a photon not detected) in uint8 and uint16, those of 256 and
        # 65 536 in the next wider type: each stack matches the reference.
        # The pitch is widened until the ROI covers the grid.
        from biphoton.coincidence import _pixel_type

        ny, nx = roi
        half = np.abs(factors16.grid.x_axis).max() * 1.01
        det = detector(roi=roi, pitch=half / (min(roi) // 2),
                       dark_rate=0.05)
        assert _pixel_type(roi).itemsize == {255: 1, 256: 2, 65535: 2,
                                             65536: 4}[ny * nx]
        stack = synth_frames(factors16, det, 5.0, 6, seed=8)
        ref = reference_counts(factors16, det, 5.0, 6, 8)
        assert stack.counts.tobytes() == ref.tobytes()
        assert 0 < ref[:, 0].sum() and 0 < ref[:, 1].sum()

    @pytest.mark.parametrize("end", [2**32 - 1, 2**32],
                             ids=["4294967295", "4294967296"])
    def test_index_type_edges(self, end):
        # Offsets and dark cells that reach 2^32 - 1 are held in uint32,
        # those that reach 2^32 in int64, and the type holds its end.
        from biphoton.coincidence import _index_type

        dtype = _index_type(end)
        assert dtype == (np.uint32 if end < 2**32 else np.int64)
        assert np.array(end, dtype=dtype) == end

    def test_frame_offsets_widen_past_uint32(self):
        # Pair counts summed past 2^32 widen the offsets to int64; summed
        # to 2^32 - 1 they stay uint32.  Three frames' counts, fed in two
        # chunks.  The widening's own memory check is a stage of
        # tests/test_fields.py::TestStageBudgets.
        from biphoton.coincidence import _frame_offsets

        def offsets(counts):
            chunks = (np.array(c, dtype=np.int64)
                      for c in (counts[:1], counts[1:]))
            return _frame_offsets(chunks, len(counts), 10**6, 0)

        wide = offsets([2**31] * 3)
        assert wide.dtype == np.int64
        assert wide.tolist() == [0, 2**31, 2**32, 3 * 2**31]
        narrow = offsets([2**31, 2**31 - 1, 0])
        assert narrow.dtype == np.uint32
        assert narrow.tolist() == [0, 2**31, 2**32 - 1, 2**32 - 1]

    def test_stack_does_not_depend_on_the_index_type(self, factors16,
                                                     monkeypatch):
        # The int64 offsets and dark cells of a stack past 2^32 pairs or
        # cells, on a small stack: the same draws and counts as in uint32.
        import biphoton.coincidence as coincidence

        det = detector(dark_rate=0.05)
        stack = synth_frames(factors16, det, 5.0, 1000, seed=9)
        monkeypatch.setattr(coincidence, "_index_type",
                            lambda end: np.dtype(np.int64))
        wide = synth_frames(factors16, det, 5.0, 1000, seed=9)
        assert wide.counts.tobytes() == stack.counts.tobytes()

    def test_count_overflow_guarded(self):
        # All probability in one grid node, enormous flux: the per-pixel
        # count must refuse to wrap silently.  A rank-1 point mass on an
        # n = 8 grid of pitch dx = 1e-5.
        t = np.zeros((1, 8, 8), dtype=complex)
        t[0, 4, 4] = 1.0
        point = PositionFactors(x=t, y=t,
                                grid=MomentumGrid4(8, 2 * np.pi / (8 * 1e-5)))
        det = detector(quantum_efficiency=1.0, dark_rate=0.0)
        with pytest.raises(AccumulatorError):
            synth_frames(point, det, mu_pairs=80_000.0, n_frames=1, seed=0)


class TestCoincidenceMap:
    def test_null_map_within_5_sigma(self):
        rng = np.random.default_rng(21)
        counts = rng.poisson(0.05, size=(30_000, 2, 1, 8)).astype(np.uint16)
        cmap = coincidence_map(manual_stack(counts))
        floor = 1e-12
        assert np.all(np.abs(cmap.values) < 5 * (cmap.stderr + floor))

    def test_bernoulli_pair_expectation(self):
        rng = np.random.default_rng(5)
        p = 0.3
        f = 60_000
        fire = rng.random(f) < p
        counts = np.zeros((f, 2, 1, 4), dtype=np.uint16)
        counts[fire, 0, 0, 1] = 1
        counts[fire, 1, 0, 2] = 1
        cmap = coincidence_map(manual_stack(counts))
        expected = p - p * p
        assert abs(cmap.values[1, 2] - expected) <= 5 * cmap.stderr[1, 2]

    def test_stderr_scales_inverse_sqrt_frames(self):
        rng = np.random.default_rng(12)
        counts = rng.poisson(0.2, size=(40_000, 2, 1, 6)).astype(np.uint16)
        half = coincidence_map(manual_stack(counts[:20_000]))
        full = coincidence_map(manual_stack(counts))
        ratio = np.median(half.stderr / full.stderr)
        assert ratio == pytest.approx(math.sqrt(2.0), rel=0.1)

    def test_conditional_reduction_shape(self, factors16):
        det = detector()
        stack = synth_frames(factors16, det, 5.0, 500, seed=1)
        cmap = coincidence_map(stack, reduction="conditional")
        assert cmap.values.shape == det.roi
        assert cmap.params["idler_pixel"] == [det.roi[0] // 2,
                                              det.roi[1] // 2]
        with pytest.raises(DetectorError):
            coincidence_map(stack, reduction="conditional",
                            idler_pixel=(99, 0))

    def test_rejects_short_stack(self):
        counts = np.zeros((1, 2, 2, 2), dtype=np.uint16)
        with pytest.raises(DetectorError):
            coincidence_map(manual_stack(counts))

    def test_unknown_reduction(self):
        counts = np.zeros((4, 2, 2, 2), dtype=np.uint16)
        with pytest.raises(DetectorError):
            coincidence_map(manual_stack(counts), reduction="joint_y")


class TestFrameFile:
    def test_round_trip_bit_exact(self, factors16, tmp_path):
        det = detector()
        stack = synth_frames(factors16, det, 5.0, 100, seed=17,
                             fingerprint="deadbeef")
        path = tmp_path / "stack.bpfs"
        save_frames(stack, path)
        loaded = load_frames(path)
        np.testing.assert_array_equal(loaded.counts, stack.counts)
        assert loaded.seed == stack.seed
        assert loaded.fingerprint == "deadbeef"
        assert loaded.detector == det

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_mode_follows_umask(self, tmp_path, umask):
        path = tmp_path / "stack.bpfs"
        old = os.umask(umask)
        try:
            save_frames(manual_stack(np.zeros((3, 2, 1, 16),
                                              dtype=np.uint16)), path)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_corrupt_magic_rejected(self, factors16, tmp_path):
        det = detector()
        stack = synth_frames(factors16, det, 1.0, 4, seed=0)
        path = tmp_path / "stack.bpfs"
        save_frames(stack, path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"BPFS1", b"XXXX1", 1))
        with pytest.raises(Exception):
            load_frames(path)

    def test_truncated_payload_rejected(self, factors16, tmp_path):
        det = detector()
        stack = synth_frames(factors16, det, 1.0, 4, seed=0)
        path = tmp_path / "stack.bpfs"
        save_frames(stack, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(Exception):
            load_frames(path)

    def test_overlong_payload_rejected(self, factors16, tmp_path):
        det = detector()
        stack = synth_frames(factors16, det, 1.0, 4, seed=0)
        path = tmp_path / "stack.bpfs"
        save_frames(stack, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 16)
        with pytest.raises(DetectorError, match="payload is"):
            load_frames(path)

    def test_file_is_header_then_counts(self, factors16, tmp_path):
        stack = synth_frames(factors16, detector(), 5.0, 20, seed=3)
        path = tmp_path / "stack.bpfs"
        save_frames(stack, path)
        raw = path.read_bytes()
        header_end = raw.index(b"\n") + 1
        assert raw[:header_end].startswith(b'{"detector"')
        assert raw[header_end:] == stack.counts.astype("<u2").tobytes()

    def test_save_refuses_roi_other_than_the_stack(self, tmp_path):
        counts = np.zeros((3, 2, 1, 16), dtype=np.uint16)
        stack = manual_stack(counts, det=detector(roi=(24, 24)))
        path = tmp_path / "stack.bpfs"
        with pytest.raises(DetectorError, match="ROI"):
            save_frames(stack, path)
        assert not path.exists()

    def test_load_rejects_roi_other_than_the_stack(self, tmp_path):
        counts = np.zeros((3, 2, 1, 16), dtype=np.uint16)
        path = tmp_path / "stack.bpfs"
        save_frames(manual_stack(counts), path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"roi": [1, 16]', b'"roi": [24, 24]', 1))
        assert path.read_bytes() != raw
        with pytest.raises(DetectorError, match="roi"):
            load_frames(path)

    @pytest.mark.parametrize("key", ["pitch", "dark_rate"])
    def test_load_rejects_non_finite_detector(self, tmp_path, key):
        # json reads NaN and Infinity; the detector does not take them.
        path = tmp_path / "stack.bpfs"
        save_frames(manual_stack(np.zeros((3, 2, 1, 16))), path)
        raw = path.read_bytes()
        end = raw.index(b"\n")
        header = json.loads(raw[:end])
        header["detector"][key] = math.nan
        path.write_bytes(json.dumps(header).encode("utf-8") + raw[end:])
        with pytest.raises(DetectorError, match="finite"):
            load_frames(path)

    def test_save_makes_no_copy_of_the_stack(self, tmp_path):
        counts = np.ones((250, 2, 64, 64), dtype=np.uint16)  # 4 MB
        stack = manual_stack(counts)
        stages = traced_stages(
            lambda: save_frames(stack, tmp_path / "stack.bpfs"))[1]
        assert peak_of(stages) < counts.nbytes // 4


class TestFactorSampler:
    """Frames drawn from the rank-R factors, against the 4D oracle."""

    def test_tables_match_4d_distribution(self, factors16, dist4):
        n = 16
        cells = np.arange(n * n)
        joint = factors16.x_weights(cells)  # rows (y_s, y_i), cols (x_s, x_i)
        ref = dist4.values.transpose(1, 3, 0, 2).reshape(n * n, n * n)
        joint, ref = joint / joint.sum(), ref / ref.sum()
        assert np.abs(joint - ref).max() <= 1e-12 * ref.max()
        marginal = factors16.y_marginal().ravel()
        np.testing.assert_allclose(marginal / marginal.sum(), ref.sum(axis=1),
                                   rtol=0, atol=1e-12 * ref.sum(axis=1).max())

    def test_chi2_against_4d_distribution(self, factors16, dist4):
        # 2M pairs for each of 8 fixed seeds, binned 4 x 4 x 4 x 4 over
        # (x_s, y_s, x_i, y_i), against the 4D |psi|^2 of the same grid and
        # z.  Threshold, fixed in advance: the chi^2 summed over the seeds
        # has p >= 0.01 on its summed degrees of freedom.
        n, size = 16, 2_000_000
        ref = dist4.values.reshape((4, 4) * 4).sum(axis=(1, 3, 5, 7)).ravel()
        ref /= ref.sum()
        chi2 = dof = 0.0
        for seed in range(8):
            x, y = sample_pairs(factors16, size, np.random.default_rng(seed))
            sx, ix = np.divmod(x, n)
            sy, iy = np.divmod(y, n)
            bins = ((sx // 4 * 4 + sy // 4) * 4 + ix // 4) * 4 + iy // 4
            observed = np.bincount(bins, minlength=ref.size).astype(float)
            expected = ref * size
            keep = expected >= 5
            observed = np.append(observed[keep], observed[~keep].sum())
            expected = np.append(expected[keep], expected[~keep].sum())
            used = expected > 0
            chi2 += stats.chisquare(observed[used], expected[used])[0]
            dof += used.sum() - 1
        assert stats.chi2.sf(chi2, dof) >= 0.01

    def test_seed_gives_byte_identical_stack(self, factors16, tmp_path):
        det = detector()
        for name, seed in (("a", 42), ("b", 42), ("c", 43)):
            save_frames(synth_frames(factors16, det, 5.0, 2000, seed=seed),
                        tmp_path / name)
        a, b, c = ((tmp_path / name).read_bytes() for name in "abc")
        assert a == b
        assert a != c

    def test_event_stack_blocks_match_counts(self, factors16):
        # More frames than one block: the zero-filled blocks of the events
        # concatenate to the dense counts, and hold every event.
        det = detector(dark_rate=0.05)
        n_frames = 2 * FRAME_BLOCK_BYTES // (2 * 2 * 24 * 24) + 5
        stack = synth_frames(factors16, det, 5.0, n_frames, seed=4)
        blocks = [b.copy() for b in stack.blocks()]
        assert len(blocks) == 3
        counts = stack.counts
        np.testing.assert_array_equal(np.concatenate(blocks), counts)
        assert counts.shape == (n_frames, 2, 24, 24)
        assert counts.sum() > 0


class TestBlockBuilder:
    """The blocks of a synthesized stack, built from per-pair pixels,
    against one global count of every event (:func:`reference_counts`)."""

    # Eight full 24 x 24 blocks of 455 frames and a partial one of 7.
    MULTI = 3647

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dark_rate, qe", [(0.0, 1.0), (0.05, 1.0),
                                               (0.05, 0.6)])
    @pytest.mark.parametrize("n_frames", [1, MULTI])
    @pytest.mark.parametrize("mu_pairs", [0.3, 5.0])
    def test_blocks_match_global_count(self, factors16, seed, dark_rate, qe,
                                       n_frames, mu_pairs):
        det = detector(dark_rate=dark_rate, quantum_efficiency=qe)
        stack = synth_frames(factors16, det, mu_pairs, n_frames, seed=seed)
        blocks = [b.copy() for b in stack.blocks()]
        assert len(blocks) == (9 if n_frames == self.MULTI else 1)
        assert len(blocks[-1]) == (7 if n_frames == self.MULTI else 1)
        ref = reference_counts(factors16, det, mu_pairs, n_frames, seed)
        assert np.concatenate(blocks).tobytes() == ref.tobytes()
        if n_frames > 1 and mu_pairs < 1:
            # Some frames hold no pair.
            pairs = np.random.default_rng(seed).poisson(mu_pairs, n_frames)
            assert (pairs == 0).any()

    def test_exact_count_past_the_frame_bound(self, factors16):
        # More pairs in a frame than MAX_COUNT: the cheap bound fails, the
        # exact count of each block passes, and the stack is built.
        det = detector(quantum_efficiency=1.0)
        stack = synth_frames(factors16, det, 70_000.0, 2, seed=3)
        ref = reference_counts(factors16, det, 70_000.0, 2, 3)
        assert np.random.default_rng(3).poisson(70_000.0, 2).max() > MAX_COUNT
        assert stack.counts.tobytes() == ref.tobytes()

    def test_memory_grows_under_40_bytes_a_pair(self, growth_per_pair):
        # Bound, fixed in advance: 40 bytes per extra sampled pair.
        assert growth_per_pair((20_000, 100_000)) < 40

    def test_memory_grows_under_16_bytes_a_pair(self, growth_per_pair):
        # Bound, fixed in advance: 16 bytes per extra sampled pair (a pair's
        # two int32 pixels, the y-pairs' int32 array while the x-pairs are
        # drawn, and the frames' offsets and dark cells).
        assert growth_per_pair((100_000, 400_000)) < 16

    def test_memory_grows_under_8_bytes_a_pair(self, growth_per_pair):
        # Bound, fixed in advance: 8 bytes per extra sampled pair (a pair's
        # two uint16 pixels at this 24 x 24 ROI, and the frames' offsets and
        # dark cells; no per-pair y-draw is held).
        assert growth_per_pair((100_000, 400_000)) < 8

    def test_memory_grows_under_6_bytes_a_pair(self, growth_per_pair):
        # Bound, fixed in advance: 6 bytes per extra sampled pair (a pair's
        # two uint16 pixels at this 24 x 24 ROI, 4 B; the frames' uint32
        # offsets, 0.8 B at 5 pairs a frame; the uint32 dark cells, 0.9 B).
        assert growth_per_pair((100_000, 400_000)) < 6

    def test_stack_does_not_depend_on_the_block_size(self, factors16,
                                                     tmp_path, monkeypatch):
        # The same seed at three block sizes, the smallest one frame a
        # block: the same file bytes and the same joint_x map bits.
        import biphoton.coincidence as coincidence

        det = detector(dark_rate=0.05, quantum_efficiency=0.6)
        frame_bytes = 2 * 2 * 24 * 24
        n_frames = 3 * FRAME_BLOCK_BYTES // frame_bytes + 11
        files, maps = [], []
        for size in (FRAME_BLOCK_BYTES, 5 * FRAME_BLOCK_BYTES // 3,
                     frame_bytes):
            monkeypatch.setattr(coincidence, "FRAME_BLOCK_BYTES", size)
            path = tmp_path / f"{size}.bpfs"
            save_frames(synth_frames(factors16, det, 5.0, n_frames, seed=12),
                        path)
            files.append(path.read_bytes())
            maps.append(coincidence_map(load_frames(path)))
        assert files[1] == files[0] and files[2] == files[0]
        for cmap in maps[1:]:
            assert cmap.values.tobytes() == maps[0].values.tobytes()
            assert cmap.stderr.tobytes() == maps[0].stderr.tobytes()


class TestStreamedReduction:
    def test_streamed_map_bit_identical_to_in_memory(self, tmp_path):
        ny, nx = 4, 8
        per_block = FRAME_BLOCK_BYTES // (2 * 2 * ny * nx)
        f = 2 * per_block + 123  # three blocks, the last one partial
        rng = np.random.default_rng(8)
        counts = rng.poisson(0.3, size=(f, 2, ny, nx)).astype(np.uint16)
        # A column of MAX_COUNT in every row of half the frames: its y-sum,
        # 4 * MAX_COUNT, overflows a uint16 accumulator.
        fire = rng.random(f) < 0.5
        counts[fire, 0, :, 3] = MAX_COUNT
        counts[fire, 1, 0, 5] += 1
        stack = manual_stack(counts)
        path = tmp_path / "stack.bpfs"
        save_frames(stack, path)
        loaded = load_frames(path)
        for reduction in ("joint_x", "conditional"):
            streamed = coincidence_map(loaded, reduction=reduction)
            in_memory = coincidence_map(stack, reduction=reduction)
            assert np.array_equal(streamed.values, in_memory.values)
            assert np.array_equal(streamed.stderr, in_memory.stderr)

        ns = counts[:, 0].astype(np.int64).sum(axis=1).astype(float)
        ni = counts[:, 1].astype(np.int64).sum(axis=1).astype(float)
        expected = (ns.T @ ni - ns.T @ np.roll(ni, -1, axis=0)) / f
        values = coincidence_map(loaded).values
        np.testing.assert_allclose(values, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())
        assert values[3, 5] > 0.2 * 4 * MAX_COUNT

    def test_pair_statistic_streams_exactly(self, tmp_path):
        # Eight full blocks and a partial one: both reductions equal a dense
        # numpy reference bit for bit, and the conditional one holds less
        # than the stack (it held four times the stack when the signal
        # plane of every frame was kept at once).
        ny, nx = 16, 16
        f = 8 * (FRAME_BLOCK_BYTES // (2 * 2 * ny * nx)) + 77
        rng = np.random.default_rng(11)
        counts = rng.poisson(0.05, size=(f, 2, ny, nx)).astype(np.uint16)
        # Pairs between a few signal pixels and the centre idler pixel.
        pair = rng.poisson(0.2, size=f).astype(np.uint16)
        counts[:, 0, 5, 9] += pair
        counts[:, 0, 10, 2] += pair
        counts[:, 1, ny // 2, nx // 2] += pair
        path = tmp_path / "stack.bpfs"
        save_frames(manual_stack(counts), path)
        stack_bytes = counts.nbytes
        maps, peaks = {}, {}
        for reduction in ("joint_x", "conditional"):
            loaded = load_frames(path)
            maps[reduction], stages, _ = traced_stages(
                lambda: coincidence_map(loaded, reduction=reduction))
            peaks[reduction] = peak_of(stages)

        def reference(a, b):
            a, b = a.astype(float), b.astype(float)
            nxt = np.roll(b, -1, axis=0)
            same, shifted = a.T @ b / f, a.T @ nxt / f
            a *= a
            same_sq, shifted_sq = a.T @ (b * b) / f, a.T @ (nxt * nxt) / f
            var = (np.maximum(same_sq - same**2, 0.0)
                   + np.maximum(shifted_sq - shifted**2, 0.0))
            return same - shifted, np.sqrt(var / f)

        sums = counts.sum(axis=2, dtype=np.int64)
        refs = {"joint_x": reference(sums[:, 0], sums[:, 1]),
                "conditional": reference(
                    counts[:, 0].reshape(f, ny * nx),
                    counts[:, 1, ny // 2, nx // 2, None])}
        for reduction, (values, stderr) in refs.items():
            got = maps[reduction]
            assert np.array_equal(got.values.reshape(values.shape), values)
            assert np.array_equal(got.stderr.reshape(stderr.shape), stderr)
            assert peaks[reduction] < stack_bytes
        assert maps["conditional"].values[5, 9] > 0.1

    def test_y_sums_past_uint32(self):
        # 65 538 rows of MAX_COUNT sum to 2^32 + 34, past a uint32
        # accumulator: the signal sums (S, 0, S) against idler counts
        # (1, 0, 1) give S / 3 (same frame 2S / 3, adjacent frame S / 3).
        ny = 65_538
        counts = np.zeros((3, 2, ny, 1), dtype=np.uint16)
        counts[[0, 2], 0] = MAX_COUNT
        counts[[0, 2], 1, 0] = 1
        cmap = coincidence_map(manual_stack(counts))
        assert ny * MAX_COUNT > 2**32
        assert cmap.values[0, 0] == pytest.approx(ny * MAX_COUNT / 3,
                                                  rel=1e-12)

    def test_peaks_below_a_quarter_of_the_stack(self, factors16, tmp_path):
        # A 64 x 64 camera and 5000 frames: an 82 MB stack on disk.
        det = detector(roi=(64, 64))
        n_frames = 5000
        stack_bytes = n_frames * 2 * 64 * 64 * 2
        path = tmp_path / "stack.bpfs"
        synth_peak = peak_of(traced_stages(lambda: save_frames(
            synth_frames(factors16, det, 5.0, n_frames, seed=2), path))[1])
        cmap, stages, _ = traced_stages(
            lambda: coincidence_map(load_frames(path)))
        coincide_peak = peak_of(stages)
        assert path.stat().st_size > stack_bytes
        assert cmap.n_frames == n_frames
        assert synth_peak < stack_bytes // 4
        assert coincide_peak < stack_bytes // 4
