"""Pump envelope and single/double-crystal phase-matching function tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.dispersion import (
    TransverseMomentum,
    collinear_angle,
    make_context,
)
from biphoton.fields import MomentumGrid4
from biphoton.phasematch import (
    ConfigurationError,
    CrystalSetup,
    PumpSpec,
    momentum_amplitude,
    phi_of_mismatch,
    _phi_split,
    pump_envelope,
    sinc,
    sinc_of_sum,
)

THETA = math.radians(32.9)
PUMP = PumpSpec(wavelength=355e-9, waist=507e-6)


class TestSetupValidation:
    def test_single_requires_positive_length(self):
        with pytest.raises(ConfigurationError):
            CrystalSetup.single(0.0, THETA)
        with pytest.raises(ConfigurationError):
            CrystalSetup.single(-1e-3, THETA)

    def test_double_requires_nonnegative_gap(self):
        with pytest.raises(ConfigurationError):
            CrystalSetup.double(1e-3, -1e-3, THETA)
        CrystalSetup.double(1e-3, 0.0, THETA)  # d = 0 allowed

    def test_theta_open_interval(self):
        with pytest.raises(ConfigurationError):
            CrystalSetup.single(5e-3, 0.0)
        with pytest.raises(ConfigurationError):
            CrystalSetup.single(5e-3, math.pi / 2)

    def test_pump_waist_positive(self):
        with pytest.raises(ConfigurationError):
            PumpSpec(355e-9, 0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            PumpSpec(355e-9, value)
        with pytest.raises(ConfigurationError, match="finite"):
            PumpSpec(value, 507e-6)
        with pytest.raises(ConfigurationError, match="finite"):
            CrystalSetup.single(value, THETA)
        with pytest.raises(ConfigurationError, match="finite"):
            CrystalSetup.double(1e-3, value, THETA)

    def test_signal_wavelength_degenerate(self):
        assert PUMP.lambda_signal == pytest.approx(710e-9, rel=1e-15)


class TestSinc:
    def test_zero(self):
        assert sinc(0.0) == 1.0

    def test_pi_zero_crossing(self):
        assert abs(sinc(math.pi)) < 1e-15

    def test_series_branch_continuity(self):
        # Values straddling the |x| < 1e-4 series switch must agree.
        for x in (9.9e-5, 1.01e-4):
            assert sinc(x) == pytest.approx(math.sin(x) / x, rel=1e-14)

    @given(x=st.floats(-50, 50))
    def test_bounded_by_one(self, x):
        assert abs(sinc(x)) <= 1.0 + 1e-15


class TestSincOfSum:
    """sinc(a + b) by angle addition against a np.longdouble reference."""

    @staticmethod
    def parts(scale):
        """(a, b): sums a + b of magnitude 1e-8 to 50 of both signs, with
        |a| up to ``scale``, and up to 1e-3 (no cancellation)."""
        rng = np.random.default_rng(11)
        x = np.outer([1.0, -1.0], np.logspace(-8, math.log10(50), 400))
        x = np.tile(x.ravel(), 2)
        a = np.concatenate([rng.uniform(-scale, scale, x.size // 2),
                            rng.uniform(-1e-3, 1e-3, x.size // 2)])
        return a, x - a

    @staticmethod
    def reference(a, b):
        """(sinc of a + b, a + b), the sum and sinc in np.longdouble."""
        x = a.astype(np.longdouble) + b.astype(np.longdouble)
        with np.errstate(invalid="ignore"):
            ref = np.where(x == 0, 1.0, np.sin(x) / x)
        return ref.astype(float), x.astype(float)

    def test_within_4_ulp_of_its_envelope(self):
        # Within 4 ulp of sinc's envelope min(1, 1/|x|): angle addition's
        # absolute rounding over |x| >= 1, the direct sinc of the rounded
        # sum nearer 0, where the quotient would enlarge that rounding.
        a, b = self.parts(50.0)
        got = sinc_of_sum(a, b)
        ref, x = self.reference(a, b)
        envelope = np.minimum(1.0, 1.0 / np.abs(x))
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(envelope))

    def test_broadcast_and_given_sine(self):
        # An L-vector and a K x 1 column give K x L samples; a sine of the
        # sum passed in is the one divided, and is left unchanged.
        a, b = np.linspace(-20, 20, 7), np.linspace(-3, 3, 5)[:, None]
        got = sinc_of_sum(a, b)
        assert got.shape == (5, 7)
        ref, _ = self.reference(*np.broadcast_arrays(a, b))
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(1.0))
        sin_sum = np.sin(a) * np.cos(b) + np.cos(a) * np.sin(b)
        kept = sin_sum.copy()
        assert np.array_equal(sinc_of_sum(a, b, sin_sum), got)
        assert np.array_equal(sin_sum, kept)
        assert sinc_of_sum(0.0, 0.0) == 1.0

    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_split_kernel_near_zero_mismatch(self, kind):
        # _phi_split samples sinc h through sinc_of_sum: where a + b nearly
        # cancels, h near 0 and |A| at its peak, as elsewhere, the kernel is
        # within 8 ulp of 1 of sinc h (the modulus of sinc h e^{ih}, for a
        # single crystal) or of sinc h cos g, h and g the sums of its
        # rounded parts a L/2 + b L/2 and a (L + d)/2 + b (L + d)/2.
        setup = (CrystalSetup.single(5e-3, THETA) if kind == "single"
                 else CrystalSetup.double(1e-3, 4e-3, THETA))
        half, g = setup.length / 2, (setup.length + setup.gap) / 2
        a, b = (part / half for part in self.parts(25.0))
        got = _phi_split(a, b, setup)
        ref, _ = self.reference(a * half, b * half)
        if kind == "single":
            got, ref = np.abs(got), np.abs(ref)
        else:
            ref = ref * np.cos(np.longdouble(1) * (a * g) + (b * g)).astype(
                float)
        assert np.abs(got - ref).max() <= 8 * np.spacing(1.0)


class TestPumpEnvelope:
    def test_origin_unity(self):
        assert pump_envelope(TransverseMomentum(0.0, 0.0), PUMP) == 1.0

    def test_inverse_waist_point(self):
        q = 2.0 / PUMP.waist
        v = pump_envelope(TransverseMomentum(q, 0.0), PUMP)
        assert v == pytest.approx(math.exp(-1.0), rel=1e-14)

    @given(qx=st.floats(-1e4, 1e4), qy=st.floats(-1e4, 1e4))
    def test_rotational_symmetry(self, qx, qy):
        a = pump_envelope(TransverseMomentum(qx, qy), PUMP)
        b = pump_envelope(TransverseMomentum(qy, qx), PUMP)
        assert a == b
        assert a > 0


class TestPhiSingle:
    SETUP = CrystalSetup.single(5e-3, THETA)

    def test_zero_mismatch(self):
        phi = phi_of_mismatch(np.array(0.0), self.SETUP)
        assert phi == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_first_zero(self):
        dkz = 2 * math.pi / self.SETUP.length
        assert abs(phi_of_mismatch(np.array(dkz), self.SETUP)) < 1e-15

    @given(dkz=st.floats(-1e4, 1e4))
    def test_phase_is_half_mismatch_length(self, dkz):
        phi = complex(phi_of_mismatch(np.array(dkz), self.SETUP))
        if abs(phi) > 1e-12:
            expected = (dkz * self.SETUP.length / 2) % math.pi
            got = np.angle(phi) % math.pi
            delta = min(abs(got - expected), math.pi - abs(got - expected))
            assert delta < 1e-9

    @given(dkz=st.floats(-1e5, 1e5))
    def test_magnitude_bounded(self, dkz):
        assert abs(phi_of_mismatch(np.array(dkz), self.SETUP)) <= 1.0 + 1e-15


class TestPhiDouble:
    SETUP = CrystalSetup.double(1e-3, 2e-3, THETA)

    def test_zero_mismatch(self):
        assert phi_of_mismatch(np.array(0.0), self.SETUP) == \
            pytest.approx(1.0, abs=1e-15)

    def test_purely_real(self):
        dkz = np.linspace(-2e4, 2e4, 101)
        phi = phi_of_mismatch(dkz, self.SETUP)
        assert np.all(np.imag(phi) == 0.0)

    def test_even_in_mismatch(self):
        dkz = np.linspace(1.0, 3e4, 400)
        a = phi_of_mismatch(dkz, self.SETUP)
        b = phi_of_mismatch(-dkz, self.SETUP)
        np.testing.assert_array_equal(a, b)

    def test_d0_merge_identity(self):
        # Two touching L-crystals equal one 2L crystal in magnitude:
        # sinc(x)cos(x) = sinc(2x).
        L = 1e-3
        touching = CrystalSetup.double(L, 0.0, THETA)
        merged = CrystalSetup.single(2 * L, THETA)
        dkz = np.linspace(-3e4, 3e4, 1001)
        err = np.abs(np.abs(phi_of_mismatch(dkz, touching)) -
                     np.abs(phi_of_mismatch(dkz, merged)))
        assert err.max() <= 1e-12

    @given(dkz=st.floats(-1e5, 1e5))
    def test_magnitude_bounded(self, dkz):
        assert abs(phi_of_mismatch(np.array(dkz), self.SETUP)) <= 1.0 + 1e-15


class TestMomentumAmplitude:
    def test_origin_at_collinear_angle(self):
        theta = collinear_angle(PUMP.wavelength)
        setup = CrystalSetup.single(5e-3, theta)
        zero = TransverseMomentum(0.0, 0.0)
        a = momentum_amplitude(zero, zero, PUMP, setup)
        # The root residual, a few ulps of K_p0, enters through the phase
        # factor exp(i delta_kz L/2).
        assert abs(a - 1.0) < 1e-4

    @given(qsx=st.floats(-3e4, 3e4), qsy=st.floats(-3e4, 3e4),
           qix=st.floats(-3e4, 3e4), qiy=st.floats(-3e4, 3e4))
    @settings(max_examples=40)
    def test_swap_symmetry(self, qsx, qsy, qix, qiy):
        setup = CrystalSetup.single(5e-3, THETA)
        q_s = TransverseMomentum(qsx, qsy)
        q_i = TransverseMomentum(qix, qiy)
        a = momentum_amplitude(q_s, q_i, PUMP, setup)
        b = momentum_amplitude(q_i, q_s, PUMP, setup)
        assert a == pytest.approx(b, abs=1e-12)

    def test_gaussian_tail_suppression(self):
        setup = CrystalSetup.single(5e-3, THETA)
        q = TransverseMomentum(12.0 / PUMP.waist, 0.0)
        a = momentum_amplitude(q, q, PUMP, setup)
        assert abs(a) < 1e-6

    def test_vectorized_matches_scalar(self):
        setup = CrystalSetup.double(1e-3, 4e-3, THETA)
        qx = np.linspace(-2e4, 2e4, 7)
        grid = momentum_amplitude(
            TransverseMomentum(qx, 0.0),
            TransverseMomentum(-qx / 2, 1e3), PUMP, setup)
        for k, q in enumerate(qx):
            one = momentum_amplitude(
                TransverseMomentum(q, 0.0),
                TransverseMomentum(-q / 2, 1e3), PUMP, setup)
            assert complex(grid[k]) == pytest.approx(complex(one), rel=1e-14)


def _direct_mismatch(q_s, q_i, ctx):
    """k_sz + k_iz - k_pz, each longitudinal wavevector formed in full: the
    float64 copy of test_dispersion's long-double reference."""
    c = ctx.coeffs
    q_px, q_py = q_s.qx + q_i.qx, q_s.qy + q_i.qy
    k_pz = (-c.alpha * q_px + c.eta * ctx.K_p0
            - (c.beta**2 * q_px**2 + c.gamma**2 * q_py**2)
            / (2 * c.eta * ctx.K_p0))
    k_sz = ctx.k_signal - (q_s.qx**2 + q_s.qy**2) / (2 * ctx.k_signal)
    k_iz = ctx.k_signal - (q_i.qx**2 + q_i.qy**2) / (2 * ctx.k_signal)
    return k_sz + k_iz - k_pz


class TestSplitKernelOracle:
    """The split kernel against sin/cos of the full mismatch on the 4D grid."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("setup", [
        CrystalSetup.single(5e-3, THETA),
        CrystalSetup.double(1e-3, 4e-3, math.radians(32.93)),
    ], ids=["single", "double"])
    def test_matches_full_mismatch_reference(self, setup, n):
        ctx = make_context(setup.theta_p, PUMP.wavelength)
        q = MomentumGrid4.auto(PUMP, setup, n=n).q_axis
        q_s = TransverseMomentum(q[:, None, None, None], q[None, :, None, None])
        q_i = TransverseMomentum(q[None, None, :, None], q[None, None, None, :])
        got = momentum_amplitude(q_s, q_i, PUMP, setup)

        dkz = _direct_mismatch(q_s, q_i, ctx)
        h = dkz * setup.length / 2
        ref = np.sinc(h / np.pi)
        if setup.kind == "single":
            ref = ref * np.exp(1j * h)
        else:
            ref = ref * np.cos(dkz * (setup.length + setup.gap) / 2)
        q_p_sq = (q_s.qx + q_i.qx) ** 2 + (q_s.qy + q_i.qy) ** 2
        ref = ref * np.exp(-q_p_sq * PUMP.waist**2 / 4)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
