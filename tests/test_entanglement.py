"""Discrete entropy identities, the ef_min witness, and pipeline joints."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from stages import PUMP, pipeline_of

from biphoton.dispersion import collinear_angle
from biphoton.entanglement import (
    DiscreteJoint,
    EntanglementError,
    build_discrete_joints,
    conditional_entropy,
    ef_min,
    ef_min_at,
    joint_entropy,
    scan,
)
from biphoton.fields import MomentumGrid4, Pipeline, amplitude_factors
from biphoton.phasematch import CrystalSetup

TOL = 1e-12


def pipeline(setup, n):
    return Pipeline(PUMP, setup, MomentumGrid4.auto(PUMP, setup, n=n))


def pos_joint(values, m):
    dx = 1e-5
    return DiscreteJoint(values=values, basis="position", delta=dx)


def mom_joint(values, m, dx=1e-5):
    return DiscreteJoint(values=values, basis="momentum",
                         delta=2 * math.pi / (m * dx))


def conjugate_pair(p_vals, k_vals):
    m = p_vals.shape[0]
    return pos_joint(p_vals, m), mom_joint(k_vals, m)


def random_joint(rng, m):
    v = rng.random((m, m))
    return v / v.sum()


class TestJointEntropy:
    def test_uniform(self):
        m = 16
        j = pos_joint(np.full((m, m), 1.0 / m**2), m)
        assert abs(joint_entropy(j) - 2 * math.log2(m)) <= TOL

    def test_uniform_diagonal(self):
        m = 16
        v = np.zeros((m, m))
        np.fill_diagonal(v, 1.0 / m)
        assert abs(joint_entropy(pos_joint(v, m)) - math.log2(m)) <= TOL

    def test_single_cell(self):
        m = 8
        v = np.zeros((m, m))
        v[3, 5] = 1.0
        assert abs(joint_entropy(pos_joint(v, m))) <= TOL

    def test_unnormalized_rejected(self):
        m = 8
        with pytest.raises(EntanglementError):
            joint_entropy(pos_joint(np.full((m, m), 1.0), m))

    def test_negative_rejected(self):
        m = 8
        v = np.full((m, m), 1.0 / m**2)
        v[0, 0] = -v[0, 0]
        with pytest.raises(EntanglementError):
            pos_joint(v, m)

    def test_nan_cell_rejected(self):
        m = 8
        v = np.full((m, m), 1.0 / m**2)
        v[0, 0] = np.nan
        with pytest.raises(EntanglementError, match="NaN"):
            pos_joint(v, m)

    def test_inf_cell_not_normalized(self):
        # An inf cell is >= 0, so the joint is made; its total is not 1.
        m = 8
        v = np.full((m, m), 1.0 / m**2)
        v[0, 0] = np.inf
        with pytest.raises(EntanglementError, match="not normalized"):
            joint_entropy(pos_joint(v, m))

    @pytest.mark.parametrize("delta", [np.nan, np.inf, 0.0],
                             ids=["nan", "inf", "zero"])
    def test_non_finite_bin_width_rejected(self, delta):
        m = 8
        with pytest.raises(EntanglementError, match="bin width"):
            DiscreteJoint(values=np.full((m, m), 1.0 / m**2),
                          basis="position", delta=delta)


class TestConditionalEntropy:
    def test_product_gives_signal_entropy(self):
        rng = np.random.default_rng(0)
        p = rng.random(16)
        p /= p.sum()
        q = rng.random(16)
        q /= q.sum()
        j = pos_joint(np.outer(p, q), 16)
        h_p = -(p * np.log2(p)).sum()
        assert abs(conditional_entropy(j) - h_p) <= TOL

    def test_uniform_diagonal_zero(self):
        m = 32
        v = np.zeros((m, m))
        np.fill_diagonal(v, 1.0 / m)
        assert abs(conditional_entropy(pos_joint(v, m))) <= TOL

    def test_uniform(self):
        m = 32
        j = pos_joint(np.full((m, m), 1.0 / m**2), m)
        assert abs(conditional_entropy(j) - math.log2(m)) <= TOL

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_conditioning_never_exceeds_marginal(self, seed):
        rng = np.random.default_rng(seed)
        j = pos_joint(random_joint(rng, 12), 12)
        h_signal = -(lambda p: (p[p > 0] * np.log2(p[p > 0])).sum())(
            j.values.sum(axis=1))
        assert conditional_entropy(j) <= h_signal + 1e-10


class TestEfMin:
    def test_uniform_uncorrelated_zero(self):
        m = 16
        u = np.full((m, m), 1.0 / m**2)
        report = ef_min(*conjugate_pair(u, u.copy()))
        assert abs(report.ef_min) <= TOL

    def test_uniform_diagonal_max(self):
        m = 16
        v = np.zeros((m, m))
        np.fill_diagonal(v, 1.0 / m)
        report = ef_min(*conjugate_pair(v, v.copy()))
        assert abs(report.ef_min - 2 * math.log2(m)) <= TOL

    def test_report_identity_exact(self):
        rng = np.random.default_rng(5)
        report = ef_min(*conjugate_pair(random_joint(rng, 16),
                                        random_joint(rng, 16)))
        assert report.ef_min == 2 * math.log2(report.m) - \
            report.h_pos_conditional - report.h_mom_conditional

    def test_dimension_mismatch_rejected(self):
        u16 = np.full((16, 16), 1.0 / 16**2)
        u8 = np.full((8, 8), 1.0 / 8**2)
        with pytest.raises(EntanglementError, match="mismatch"):
            ef_min(pos_joint(u16, 16), mom_joint(u8, 8))

    def test_non_conjugate_rejected(self):
        m = 16
        u = np.full((m, m), 1.0 / m**2)
        pos = pos_joint(u, m)
        bad_mom = DiscreteJoint(values=u.copy(), basis="momentum",
                                delta=1.5 * 2 * math.pi / (m * pos.delta))
        with pytest.raises(EntanglementError, match="conjugate"):
            ef_min(pos, bad_mom)

    def test_basis_order_enforced(self):
        m = 8
        u = np.full((m, m), 1.0 / m**2)
        pos, mom = conjugate_pair(u, u.copy())
        with pytest.raises(EntanglementError):
            ef_min(mom, pos)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20)
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = 12
        p_vals = random_joint(rng, m)
        k_vals = random_joint(rng, m)
        perm = rng.permutation(m)
        base = ef_min(*conjugate_pair(p_vals, k_vals)).ef_min
        relabeled = ef_min(*conjugate_pair(
            p_vals[np.ix_(perm, perm)], k_vals)).ef_min
        assert relabeled == pytest.approx(base, abs=1e-10)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20)
    def test_product_pairs_bounded_by_log2m(self, seed):
        # Product (unentangled) pure states measured in DFT-conjugate bases:
        # Maassen-Uffink gives H_x + H_k >= log2 M per party, so the witness
        # cannot exceed log2 M for any product pair.  (It can be positive --
        # e.g. a position eigenstate yields exactly log2 M -- so positivity
        # alone certifies nothing without the quantum-state context; the
        # sharp product-state bound is log2 M.)
        rng = np.random.default_rng(seed)
        m = 16

        def pure_state(rng):
            psi = rng.normal(size=m) + 1j * rng.normal(size=m)
            psi /= np.linalg.norm(psi)
            p_x = np.abs(psi) ** 2
            p_k = np.abs(np.fft.fft(psi) / math.sqrt(m)) ** 2
            return p_x, p_k

        sx, sk = pure_state(rng)
        ix, ik = pure_state(rng)
        report = ef_min(*conjugate_pair(np.outer(sx, ix), np.outer(sk, ik)))
        assert report.ef_min <= math.log2(m) + 1e-10

    @given(seed=st.integers(0, 2**31), eps=st.floats(0.01, 0.99))
    @settings(max_examples=20)
    def test_uniform_noise_never_increases(self, seed, eps):
        rng = np.random.default_rng(seed)
        m = 12
        p_vals = np.zeros((m, m))
        np.fill_diagonal(p_vals, 1.0 / m)  # strongly correlated start
        k_vals = p_vals.copy()
        u = np.full((m, m), 1.0 / m**2)
        base = ef_min(*conjugate_pair(p_vals, k_vals)).ef_min
        noisy = ef_min(*conjugate_pair(
            (1 - eps) * p_vals + eps * u,
            (1 - eps) * k_vals + eps * u)).ef_min
        assert noisy <= base + 1e-10


@pytest.fixture(scope="module")
def joints():
    setup = CrystalSetup.single(5e-3, collinear_angle(355e-9))
    return build_discrete_joints(pipeline(setup, 32), 5e-3)


class TestBuildDiscreteJoints:
    def test_normalized(self, joints):
        pos, mom = joints
        assert pos.values.sum() == pytest.approx(1.0, abs=1e-10)
        assert mom.values.sum() == pytest.approx(1.0, abs=1e-10)

    def test_conjugate(self, joints):
        pos, mom = joints
        m = pos.m
        assert pos.delta * mom.delta == pytest.approx(2 * math.pi / m,
                                                      rel=1e-9)

    def test_position_diagonal_concentration(self, joints):
        # Golden band masses frozen from this pipeline at n = 32, theta*.
        pos, _ = joints
        m = pos.m
        i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        band1 = pos.values[np.abs(i - j) <= 1].sum()
        assert band1 == pytest.approx(0.1995, abs=0.01)
        indep = np.outer(pos.values.sum(axis=1), pos.values.sum(axis=0))
        assert band1 > 2 * indep[np.abs(i - j) <= 1].sum()

    def test_momentum_antidiagonal_concentration(self, joints):
        _, mom = joints
        m = mom.m
        i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        anti = np.abs((i - m // 2) + (j - m // 2)) <= 1
        assert mom.values[anti].sum() > 0.99

    def test_downbinning_preserves_mass(self):
        setup = CrystalSetup.single(5e-3, collinear_angle(355e-9))
        pos, mom = build_discrete_joints(pipeline(setup, 32), 5e-3, m=16)
        assert pos.m == 16 and mom.m == 16
        assert pos.values.sum() == pytest.approx(1.0, abs=1e-10)
        assert pos.delta * mom.delta == pytest.approx(2 * math.pi / 16,
                                                      rel=1e-9)


class TestScan:
    def test_z_scan_deterministic_order(self):
        zs = [0.0, 5e-3]
        points = scan(pipeline_of("single", 16), 5e-3, "z", zs)
        assert [p.value for p in points] == zs
        again = scan(pipeline_of("single", 16), 5e-3, "z", zs)
        assert [p.report.ef_min for p in points] == \
            [p.report.ef_min for p in again]

    def test_per_point_errors_collected(self):
        points = scan(pipeline_of("single", 16), 5e-3, "theta_p",
                      [math.radians(32.9), -1.0])
        assert points[0].report is not None
        assert points[1].report is None and points[1].error

    def test_z_scan_engine_error_on_every_point(self):
        # A z scan shares one engine pass; its error is every point's.
        setup = CrystalSetup.single(5e-3, math.radians(32.9))
        grid = MomentumGrid4.auto(PUMP, setup, n=8, c1=0.2, c2=0.05)
        points = scan(Pipeline(PUMP, setup, grid), 5e-3, "z", [0.0, 5e-3])
        assert [p.value for p in points] == [0.0, 5e-3]
        for p in points:
            assert p.report is None
            assert p.error.startswith("SupportTruncationError: boundary")

    def test_program_fault_propagates(self, monkeypatch):
        # Only what a point can fail with is scan data; a TypeError in the
        # engine is a fault of the program and leaves the scan.
        import biphoton.entanglement as entanglement_module

        def broken(pipeline, zs):
            raise TypeError("broken engine")

        monkeypatch.setattr(entanglement_module, "averaged_joints_x", broken)
        with pytest.raises(TypeError, match="broken engine"):
            scan(pipeline_of("single", 16), 5e-3, "z", [0.0, 5e-3])

    def test_unknown_parameter_rejected(self):
        with pytest.raises(Exception):
            scan(pipeline_of("single", 16), 5e-3, "waist", [1e-4])

    def test_d_scan_requires_double(self):
        points = scan(pipeline_of("single", 16), 7.5e-3, "d", [2e-3])
        assert points[0].report is None and points[0].error


class TestEfMinAt:
    def test_positive_at_defaults_small_grid(self):
        report = ef_min_at(pipeline_of("single", 16), 5e-3,
                           fingerprint="abc123")
        assert report.ef_min > 0
        assert report.fingerprint == "abc123"
        assert 0 <= report.h_pos_conditional <= math.log2(report.m) + 1e-12
        assert 0 <= report.h_mom_conditional <= math.log2(report.m) + 1e-12


def ef_min_4d(pipe, z, m):
    """ef_min through the 4D path: build, propagate, transform, reduce."""
    from biphoton.entanglement import _as_joint, _downbin
    from biphoton.fields import (averaged_joint_x, momentum_pdf,
                                 position_pdf, propagate, to_position)

    amp = pipe.momentum_amplitude()
    mom = _as_joint(averaged_joint_x(momentum_pdf(amp)), "momentum")
    pos = _as_joint(averaged_joint_x(position_pdf(to_position(
        propagate(amp, z)))), "position")
    if m != pipe.grid.n:
        pos, mom = _downbin(pos, mom.values, m, pipe.grid.dq)
    return ef_min(pos, mom).ef_min


class TestStreamingMatches4d:
    @pytest.mark.parametrize("m", [32, 16])
    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_scan_and_ef_min_at(self, kind, m):
        pipe = pipeline_of(kind, 32)
        zs = [0.0, 5e-3, 35e-3]
        points = scan(pipe, 5e-3, "z", zs, m=m)
        for z, point in zip(zs, points):
            ref = ef_min_4d(pipe, z, m)
            assert abs(point.report.ef_min - ref) <= 1e-12
            assert abs(ef_min_at(pipe, z, m=m).ef_min - ref) <= 1e-12
            assert point.report.grid["rank"] == \
                amplitude_factors(pipe).rank
            assert 0.0 < point.report.grid["interpolation_error"] <= 1e-12

    def test_theta_scan(self):
        pipe = pipeline_of("single", 16)
        theta = math.radians(32.94)
        point, = scan(pipe, 5e-3, "theta_p", [theta])
        varied = Pipeline(PUMP, CrystalSetup.single(5e-3, theta), pipe.grid)
        assert abs(point.report.ef_min - ef_min_4d(varied, 5e-3, 16)) <= 1e-12

    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_wide_extent(self, kind):
        # A 2.2x wider ring extent, as criterion 7 uses for the outer
        # angles: the interpolation needs more than twice the default rank.
        pipe = pipeline_of(f"{kind}-wide", 32)
        zs = [0.0, 5e-3, 35e-3]
        for z, point in zip(zs, scan(pipe, 5e-3, "z", zs)):
            assert abs(point.report.ef_min - ef_min_4d(pipe, z, 32)) <= 1e-12
        assert point.report.grid["rank"] > 2 * amplitude_factors(
            pipeline_of(kind, 32)).rank
