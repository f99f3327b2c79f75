"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Heavy fixtures (the default N = 64 pipeline) are shared across criteria.
Criterion 8's zero-crossing clause is implemented faithfully and is expected
to fail: the witness 2 log2 M - H(X_s|X_i) - H(K_s|K_i) is bounded below by
zero for every pair of distributions, because each conditional entropy is at
most log2 M.  A sign change therefore cannot occur at any z.
"""

import math
import resource
import time

import numpy as np
import pytest
from scipy.signal import find_peaks

from biphoton.dispersion import collinear_angle
from biphoton.entanglement import (
    DiscreteJoint,
    conditional_entropy,
    ef_min,
    ef_min_at,
    joint_entropy,
    scan,
)
from biphoton.fields import (
    EXTENT_C2,
    MomentumGrid4,
    Pipeline,
    SupportTruncationError,
    averaged_joint_x,
    build_amplitude,
    conditional_position_direct,
    momentum_pdf,
    position_factors,
    position_pdf,
    propagate,
    to_position,
)
from biphoton.coincidence import (
    DetectorModel,
    FrameStack,
    coincidence_map,
    synth_frames,
)
from biphoton.phasematch import CrystalSetup, PumpSpec, phi_of_mismatch

PUMP = PumpSpec(355e-9, 507e-6)
THETA_DEFAULT = math.radians(32.9)
SETUP_DEFAULT = CrystalSetup.single(5e-3, THETA_DEFAULT)
Z_DEFAULT = 5e-3
N_DEFAULT = 64


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status}  {detail}")
    return ok


@pytest.fixture(scope="module")
def default_amp():
    grid = MomentumGrid4.auto(PUMP, SETUP_DEFAULT, n=N_DEFAULT)
    return build_amplitude(grid, PUMP, SETUP_DEFAULT)


@pytest.fixture(scope="module")
def default_pos_amp(default_amp):
    return to_position(propagate(default_amp, Z_DEFAULT))


def radial_profile(values, x_axis, dx):
    r = np.hypot(*np.meshgrid(x_axis, x_axis, indexing="ij"))
    nb = int(x_axis.max() / dx)
    prof = np.empty(nb)
    for k in range(nb):
        ring = (r >= k * dx) & (r < (k + 1) * dx)
        prof[k] = values[ring].mean()
    return prof


def weighted_pearson(joint, a_axis, b_axis):
    w = joint / joint.sum()
    ma = (w.sum(axis=1) * a_axis).sum()
    mb = (w.sum(axis=0) * b_axis).sum()
    da = a_axis - ma
    db = b_axis - mb
    cov = (w * np.outer(da, db)).sum()
    va = (w.sum(axis=1) * da**2).sum()
    vb = (w.sum(axis=0) * db**2).sum()
    return cov / math.sqrt(va * vb)


class TestAcceptance:
    def test_01_collinear_angle(self):
        t0 = time.perf_counter()
        theta = collinear_angle(355e-9)
        elapsed = time.perf_counter() - t0
        deg = math.degrees(theta)
        ok = abs(deg - 32.9) <= 0.15 and elapsed < 1.0
        assert report(1, "collinear angle 355 -> 710 nm", ok,
                      f"theta* = {deg:.4f} deg in 32.9 +/- 0.15, "
                      f"{elapsed * 1e3:.0f} ms")

    def test_02_oracle_equivalence_n8(self):
        t0 = time.perf_counter()
        grid = MomentumGrid4.auto(PUMP, SETUP_DEFAULT, n=8)
        amp = propagate(build_amplitude(grid, PUMP, SETUP_DEFAULT,
                                        boundary_tol=None), Z_DEFAULT)
        fft_path = to_position(amp).values
        q, x = grid.q_axis, grid.x_axis
        kernel = np.exp(1j * np.outer(q, x)) * grid.dq / math.sqrt(2 * math.pi)
        direct = amp.values
        for axis in range(4):
            direct = np.moveaxis(
                np.tensordot(direct, kernel, axes=([axis], [0])), -1, axis)
        rel = np.abs(fft_path - direct).max() / np.abs(direct).max()
        elapsed = time.perf_counter() - t0
        ok = rel <= 1e-9 and elapsed < 60.0
        assert report(2, "N=8 brute-force oracle", ok,
                      f"max relative deviation = {rel:.3e} <= 1e-9, "
                      f"{elapsed:.2f} s")

    def test_03_conservation(self, default_amp, default_pos_amp):
        grid = default_amp.grid
        p_mom = np.sum(np.abs(default_amp.values) ** 2) * grid.dq**4
        p_pos = np.sum(np.abs(default_pos_amp.values) ** 2) * grid.dx**4
        parseval = abs(p_pos - p_mom) / p_mom
        base = momentum_pdf(default_amp).values
        z_dev = 0.0
        for z in (0.0, 5e-3, 10e-3):
            moved = momentum_pdf(propagate(default_amp, z)).values
            z_dev = max(z_dev, np.abs(moved - base).max() / base.max())
        ok = parseval <= 1e-10 and z_dev <= 1e-12
        assert report(3, "Parseval + momentum z-invariance", ok,
                      f"Parseval = {parseval:.3e} <= 1e-10, "
                      f"z-deviation = {z_dev:.3e} <= 1e-12")

    def test_04_single_crystal_structure(self):
        angles = (32.90, 32.92, 32.94, 32.96, 32.98)
        peak_bins = []
        per_angle = []
        for deg in angles:
            t0 = time.perf_counter()
            setup = CrystalSetup.single(5e-3, math.radians(deg))
            grid = MomentumGrid4.auto(PUMP, setup, n=N_DEFAULT)
            # The route of the CLI's `conditional`; its agreement with the
            # 4D path at n = 64 is checked in test_fields.
            cond = conditional_position_direct(PUMP, setup, Z_DEFAULT, grid)
            prof = radial_profile(cond.values, grid.x_axis, grid.dx)
            peak_bins.append(int(np.argmax(prof)))
            per_angle.append(time.perf_counter() - t0)
        rss_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
        monotone = all(a < b for a, b in zip(peak_bins[1:], peak_bins[2:]))
        ok = (peak_bins[0] == 0 and all(b > 0 for b in peak_bins[1:])
              and monotone and max(per_angle) < 300.0 and rss_gib <= 2.0)
        assert report(4, "single-crystal annulus growth", ok,
                      f"peak bins {peak_bins} (r=0 then strictly increasing), "
                      f"max {max(per_angle):.1f} s/angle, peak RSS "
                      f"{rss_gib:.2f} GiB <= 2")

    def test_05_momentum_anticorrelation(self, default_amp):
        joint = averaged_joint_x(momentum_pdf(default_amp))
        q = default_amp.grid.q_axis
        r = weighted_pearson(joint.values, q, q)
        ok = r <= -0.9
        assert report(5, "momentum Pearson anti-correlation", ok,
                      f"Pearson(q_xs, q_xi) = {r:.4f} <= -0.9")

    def test_06_double_crystal_structure(self):
        theta = math.radians(32.93)
        counts = []
        for d in (2e-3, 4e-3, 6e-3):
            setup = CrystalSetup.double(1e-3, d, theta)
            grid = MomentumGrid4.auto(PUMP, setup, n=128)
            cond = conditional_position_direct(PUMP, setup, 7.5e-3, grid)
            prof = radial_profile(cond.values, grid.x_axis, grid.dx)
            peaks, _ = find_peaks(np.concatenate(([0.0], prof / prof.max())),
                                  prominence=0.1)
            counts.append(len(peaks))
        dkz = np.linspace(-3e4, 3e4, 1001)
        merge_err = np.abs(
            np.abs(phi_of_mismatch(dkz, CrystalSetup.double(1e-3, 0.0, theta)))
            - np.abs(phi_of_mismatch(dkz, CrystalSetup.single(2e-3, theta)))
        ).max()
        ok = counts[0] < counts[1] < counts[2] and merge_err <= 1e-12
        assert report(6, "double-crystal fringe growth + d=0 merge", ok,
                      f"radial maxima {counts} strictly increasing, "
                      f"d=0 merge error = {merge_err:.3e} <= 1e-12")

    @staticmethod
    def _ef_min_wide(setup, z):
        # Widen the momentum extent until the truncation guard is happy;
        # the outer Table angles push the ring past the default window.
        for scale in (1.0, 1.3, 1.7, 2.2):
            grid = MomentumGrid4.auto(PUMP, setup, n=N_DEFAULT,
                                      c2=EXTENT_C2 * scale)
            try:
                return ef_min_at(Pipeline(PUMP, setup, grid), z).ef_min
            except SupportTruncationError:
                continue
        raise SupportTruncationError(
            f"no workable extent for theta = {setup.theta_p}")

    def test_07_entanglement_positivity(self):
        table1 = {32.90: 1.89, 32.92: 2.67, 32.94: 2.06, 32.96: 1.79,
                  32.98: 1.49}
        table2 = {2e-3: 2.18, 4e-3: 1.97, 6e-3: 1.77}
        results = []
        for deg, ref in table1.items():
            setup = CrystalSetup.single(5e-3, math.radians(deg))
            results.append((f"theta={deg}",
                            self._ef_min_wide(setup, Z_DEFAULT), ref))
        for d, ref in table2.items():
            setup = CrystalSetup.double(1e-3, d, math.radians(32.93))
            results.append((f"d={d * 1e3:g}mm",
                            self._ef_min_wide(setup, 7.5e-3), ref))
        positive = all(got > 0 for _, got, _ in results)
        stretch = all(abs(got - ref) <= 0.3 * ref for _, got, ref in results)
        detail = ", ".join(f"{k}: {got:.2f} (ref {ref})"
                           for k, got, ref in results)
        print(f"  criterion 7 stretch (+/-30% of table values): "
              f"{'met' if stretch else 'not met'} -- {detail}")
        assert report(7, "ef_min positivity (Tables I-II)", positive,
                      f"all {len(results)} working points > 0")

    def test_08_entanglement_region_scan(self):
        zs = [k * 2.5e-3 for k in range(15)]  # 0 .. 35 mm
        grid = MomentumGrid4.auto(PUMP, SETUP_DEFAULT, n=N_DEFAULT)
        points = scan(Pipeline(PUMP, SETUP_DEFAULT, grid), Z_DEFAULT, "z", zs)
        values = np.array([p.report.ef_min if p.report else np.nan
                           for p in points])
        inner_positive = bool(np.all(values[np.array(zs) <= 15e-3] > 0))
        peak = int(np.argmax(values))
        non_increasing = bool(np.all(np.diff(values[peak:]) <= 1e-9))
        signs = np.sign(values)
        crossing = None
        for a, b in zip(range(len(zs) - 1), range(1, len(zs))):
            if signs[a] > 0 >= signs[b]:
                crossing = zs[b]
                break
        crossing_in_window = crossing is not None and \
            15e-3 <= crossing <= 35e-3
        ok = inner_positive and non_increasing and crossing_in_window
        assert report(
            8, "ef_min z-scan zero crossing", ok,
            f"positive for z <= 15 mm: {inner_positive}; non-increasing "
            f"beyond max: {non_increasing}; zero crossing in [15, 35] mm: "
            f"{crossing_in_window} (ef_min stays in "
            f"[{values.min():.2f}, {values.max():.2f}] ebits; the witness "
            f"2 log2 M - H(X_s|X_i) - H(K_s|K_i) is bounded below by 0 for "
            f"any pair of distributions, so no sign change can exist, and "
            f"the large-z plateau oscillates at the ~0.1 ebit grid level)")

    def test_09_coincidence_pipeline(self, default_pos_amp):
        t0 = time.perf_counter()
        dist4 = position_pdf(default_pos_amp)
        grid = default_pos_amp.grid
        pitch = 16e-6
        half = grid.x_axis.max() + grid.dx
        n_pix = 2 * (int(math.ceil(half / pitch)) + 1)
        det = DetectorModel(pitch=pitch, quantum_efficiency=0.6,
                            dark_rate=1e-3, roi=(n_pix, n_pix))
        # Sampled from the rank-R factors, as `frames synth` samples them;
        # the reference below is the 4D oracle.
        factors = position_factors(Pipeline(PUMP, SETUP_DEFAULT, grid),
                                   Z_DEFAULT)
        stack = synth_frames(factors, det, mu_pairs=5.0, n_frames=100_000,
                             seed=0)
        cmap = coincidence_map(stack, reduction="joint_x")

        joint = averaged_joint_x(dist4)
        px = np.floor(grid.x_axis / pitch).astype(int) + n_pix // 2
        ref = np.zeros((n_pix, n_pix))
        np.add.at(ref, (px[:, None], px[None, :]),
                  joint.values * joint.deltas[0] * joint.deltas[1])
        order = np.argsort(ref.ravel())[::-1]
        cum = np.cumsum(ref.ravel()[order])
        region = order[: int(np.searchsorted(cum, 0.95)) + 1]
        pearson = np.corrcoef(cmap.values.ravel()[region],
                              ref.ravel()[region])[0, 1]

        rng = np.random.default_rng(99)
        null_counts = rng.poisson(
            0.05, size=(30_000, 2, 1, 16)).astype(np.uint16)
        null_map = coincidence_map(
            FrameStack(counts=null_counts, seed=99, detector=det))
        null_ok = bool(np.all(np.abs(null_map.values)
                              < 5 * (null_map.stderr + 1e-12)))
        elapsed = time.perf_counter() - t0
        ok = pearson >= 0.9 and null_ok and elapsed < 600.0
        assert report(9, "coincidence pipeline, 1e5 frames", ok,
                      f"Pearson = {pearson:.4f} >= 0.9 over 95%-mass region "
                      f"({region.size} px), null map within 5 SE: {null_ok}, "
                      f"{elapsed:.0f} s")

    def test_10_entropy_identities(self):
        m = 16
        dx = 1e-5
        dk = 2 * math.pi / (m * dx)

        def pos(v):
            return DiscreteJoint(values=v, basis="position", delta=dx)

        def mom(v):
            return DiscreteJoint(values=v, basis="momentum", delta=dk)

        uniform = np.full((m, m), 1.0 / m**2)
        diagonal = np.diag(np.full(m, 1.0 / m))
        a = np.linspace(1, 2, m)
        a /= a.sum()
        b = np.linspace(2, 1, m)
        b /= b.sum()
        product = np.outer(a, b)
        delta = np.zeros((m, m))
        delta[3, 5] = 1.0

        checks = [
            abs(joint_entropy(pos(uniform)) - 2 * math.log2(m)),
            abs(joint_entropy(pos(diagonal)) - math.log2(m)),
            abs(joint_entropy(pos(delta))),
            abs(conditional_entropy(pos(uniform)) - math.log2(m)),
            abs(conditional_entropy(pos(diagonal))),
            abs(conditional_entropy(pos(product))
                - (-(a * np.log2(a)).sum())),
            abs(ef_min(pos(uniform), mom(uniform.copy())).ef_min),
            abs(ef_min(pos(diagonal), mom(diagonal.copy())).ef_min
                - 2 * math.log2(m)),
        ]
        worst = max(checks)
        ok = worst <= 1e-12
        assert report(10, "entropy identity suite", ok,
                      f"worst |deviation| = {worst:.3e} <= 1e-12 "
                      f"over {len(checks)} identities")
