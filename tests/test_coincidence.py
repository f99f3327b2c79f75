"""Synthetic camera pipeline tests: frame statistics, the accidental-
subtracting coincidence estimator, and the frame-stack file format."""

import math

import numpy as np
import pytest
from scipy import stats

from biphoton.coincidence import (
    AccumulatorError,
    AliasTable,
    CoincidenceMap,
    DetectorError,
    DetectorModel,
    FrameStack,
    coincidence_map,
    load_frames,
    save_frames,
    synth_frames,
)
from biphoton.fields import (
    MomentumGrid4,
    build_amplitude,
    position_pdf,
    propagate,
    to_position,
)
from biphoton.phasematch import CrystalSetup, PumpSpec

PUMP = PumpSpec(355e-9, 507e-6)
SETUP = CrystalSetup.single(5e-3, math.radians(32.9))


@pytest.fixture(scope="module")
def dist4():
    grid = MomentumGrid4.auto(PUMP, SETUP, n=16)
    amp = propagate(build_amplitude(grid, PUMP, SETUP, boundary_tol=None),
                    5e-3)
    return position_pdf(to_position(amp))


def detector(**kw):
    base = dict(pitch=16e-6, quantum_efficiency=0.6, dark_rate=1e-3,
                roi=(24, 24))
    base.update(kw)
    return DetectorModel(**base)


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


class TestSynthFrames:
    def test_dark_only_mean(self, dist4):
        delta = 0.02
        det = detector(dark_rate=delta)
        stack = synth_frames(dist4, det, mu_pairs=0.0, n_frames=4000, seed=3)
        n_cells = stack.counts.size
        mean = stack.counts.mean()
        sigma = math.sqrt(delta / n_cells)
        assert abs(mean - delta) <= 3 * sigma

    def test_determinism(self, dist4):
        det = detector()
        a = synth_frames(dist4, det, 5.0, 200, seed=42)
        b = synth_frames(dist4, det, 5.0, 200, seed=42)
        np.testing.assert_array_equal(a.counts, b.counts)
        c = synth_frames(dist4, det, 5.0, 200, seed=43)
        assert not np.array_equal(a.counts, c.counts)

    def test_singles_chi2_convergence(self, dist4):
        # QE = 1, no dark: empirical signal image is multinomial over pixels
        # with probabilities given by the pixel-aggregated signal marginal.
        det = detector(quantum_efficiency=1.0, dark_rate=0.0)
        n_frames, mu = 20_000, 4.0
        stack = synth_frames(dist4, det, mu, n_frames, seed=7)
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

    def test_totals_linear_in_mu(self, dist4):
        det = detector(dark_rate=0.0)
        totals = []
        for mu in (2.0, 4.0):
            stack = synth_frames(dist4, det, mu, 5000, seed=9)
            totals.append(stack.counts.sum())
        assert totals[1] / totals[0] == pytest.approx(2.0, rel=0.05)

    def test_roi_too_small(self, dist4):
        with pytest.raises(DetectorError, match="ROI"):
            synth_frames(dist4, detector(roi=(4, 4)), 5.0, 10, seed=0)

    def test_count_overflow_guarded(self):
        # All probability in one grid node, enormous flux: the per-pixel
        # count must refuse to wrap silently.
        vals = np.zeros((8, 8, 8, 8))
        vals[4, 4, 4, 4] = 1.0
        from biphoton.fields import Distribution
        dist = Distribution(values=vals / vals.sum() / 1e-5**4,
                            axis_names=("x_s", "y_s", "x_i", "y_i"),
                            deltas=(1e-5,) * 4, basis="position", units="m",
                            normalized=True)
        det = detector(quantum_efficiency=1.0, dark_rate=0.0)
        with pytest.raises(AccumulatorError):
            synth_frames(dist, det, mu_pairs=80_000.0, n_frames=1, seed=0)


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

    def test_conditional_reduction_shape(self, dist4):
        det = detector()
        stack = synth_frames(dist4, det, 5.0, 500, seed=1)
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
    def test_round_trip_bit_exact(self, dist4, tmp_path):
        det = detector()
        stack = synth_frames(dist4, det, 5.0, 100, seed=17,
                             fingerprint="deadbeef")
        path = tmp_path / "stack.bpfs"
        save_frames(stack, path)
        loaded = load_frames(path)
        np.testing.assert_array_equal(loaded.counts, stack.counts)
        assert loaded.seed == stack.seed
        assert loaded.fingerprint == "deadbeef"
        assert loaded.detector == det

    def test_corrupt_magic_rejected(self, dist4, tmp_path):
        det = detector()
        stack = synth_frames(dist4, det, 1.0, 4, seed=0)
        path = tmp_path / "stack.bpfs"
        save_frames(stack, path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"BPFS1", b"XXXX1", 1))
        with pytest.raises(Exception):
            load_frames(path)

    def test_truncated_payload_rejected(self, dist4, tmp_path):
        det = detector()
        stack = synth_frames(dist4, det, 1.0, 4, seed=0)
        path = tmp_path / "stack.bpfs"
        save_frames(stack, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(Exception):
            load_frames(path)

    def test_overlong_payload_rejected(self, dist4, tmp_path):
        det = detector()
        stack = synth_frames(dist4, det, 1.0, 4, seed=0)
        path = tmp_path / "stack.bpfs"
        save_frames(stack, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 16)
        with pytest.raises(DetectorError, match="payload is"):
            load_frames(path)

    def test_file_is_header_then_counts(self, dist4, tmp_path):
        stack = synth_frames(dist4, detector(), 5.0, 20, seed=3)
        path = tmp_path / "stack.bpfs"
        save_frames(stack, path)
        raw = path.read_bytes()
        header_end = raw.index(b"\n") + 1
        assert raw[:header_end].startswith(b'{"detector"')
        assert raw[header_end:] == stack.counts.astype("<u2").tobytes()

    def test_save_makes_no_copy_of_the_stack(self, tmp_path):
        import tracemalloc

        counts = np.ones((250, 2, 64, 64), dtype=np.uint16)  # 4 MB
        stack = manual_stack(counts)
        tracemalloc.start()
        try:
            save_frames(stack, tmp_path / "stack.bpfs")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < counts.nbytes // 4
