"""Crystal-optics tests: BBO Sellmeier indices, pump anisotropy coefficients,
the phase mismatch and its parts, and the closed-form collinear angle.

Golden values were computed independently with 50-digit mpmath evaluation of
the same closed forms and are frozen here.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.dispersion import (
    NoCollinearMatchError,
    SellmeierModel,
    TransverseMomentum,
    WavelengthRangeError,
    collinear_angle,
    delta_kz,
    make_context,
    mismatch_parts,
    mismatch_split,
    pump_coefficients,
    refractive_index,
)
from biphoton.fields import MomentumGrid4, Pipeline
from biphoton.phasematch import CrystalSetup, PumpSpec, momentum_amplitude

LAMBDA_P = 355e-9
LAMBDA_S = 710e-9

# Independent high-precision (mpmath, 50 dp) evaluations, frozen as goldens.
GOLDEN_NO_710 = 1.664491201067985
GOLDEN_ALPHA = 0.07338465180507769
GOLDEN_BETA = 1.0298424312947352
GOLDEN_GAMMA = 1.0551944847990401
GOLDEN_ETA = 1.6645208102659648
GOLDEN_THETA_355 = math.radians(32.91388734131166)
GOLDEN_THETA_405 = math.radians(28.670403834812113)


class TestRefractiveIndex:
    def test_ordinary_710nm_golden(self):
        n = refractive_index("ordinary", LAMBDA_S)
        assert abs(n - GOLDEN_NO_710) / GOLDEN_NO_710 <= 1e-12
        assert round(n, 4) == 1.6645

    def test_negative_uniaxial_at_pump(self):
        assert refractive_index("extraordinary", LAMBDA_P) < \
            refractive_index("ordinary", LAMBDA_P)

    def test_normal_dispersion(self):
        assert refractive_index("ordinary", 410e-9) > \
            refractive_index("ordinary", 800e-9)

    @given(lam=st.floats(min_value=0.30e-6, max_value=1.10e-6))
    def test_physical_index_range(self, lam):
        n_o = refractive_index("ordinary", lam)
        n_e = refractive_index("extraordinary", lam)
        assert n_o > 1.0 and n_e > 1.0
        assert n_e < n_o

    def test_out_of_window_raises(self):
        with pytest.raises(WavelengthRangeError, match="220"):
            refractive_index("ordinary", 0.1e-6)
        with pytest.raises(WavelengthRangeError):
            refractive_index("extraordinary", 2.0e-6)

    def test_bad_polarization_raises(self):
        with pytest.raises(ValueError):
            refractive_index("diagonal", LAMBDA_S)


class TestPumpCoefficients:
    def test_theta_zero_endpoint(self):
        n_po = refractive_index("ordinary", LAMBDA_P)
        n_pe = refractive_index("extraordinary", LAMBDA_P)
        c = pump_coefficients(0.0, LAMBDA_P)
        assert c.alpha == 0.0
        assert abs(c.beta - n_po / n_pe) <= 1e-15
        assert abs(c.gamma - n_po / n_pe) <= 1e-15
        assert abs(c.eta - n_po) <= 1e-15

    def test_theta_half_pi_endpoint(self):
        n_po = refractive_index("ordinary", LAMBDA_P)
        n_pe = refractive_index("extraordinary", LAMBDA_P)
        c = pump_coefficients(math.pi / 2, LAMBDA_P)
        assert abs(c.alpha) <= 1e-15
        assert abs(c.beta - n_pe / n_po) <= 1e-14
        assert abs(c.gamma - 1.0) <= 1e-14
        assert abs(c.eta - n_pe) <= 1e-14

    def test_golden_tuple_32p9deg(self):
        c = pump_coefficients(math.radians(32.9), LAMBDA_P)
        assert c.alpha > 0
        assert abs(c.alpha - GOLDEN_ALPHA) <= 1e-14
        assert abs(c.beta - GOLDEN_BETA) <= 1e-13
        assert abs(c.gamma - GOLDEN_GAMMA) <= 1e-13
        assert abs(c.eta - GOLDEN_ETA) <= 1e-13

    @given(theta=st.floats(min_value=0.0, max_value=math.pi / 2))
    def test_positivity_and_eta_bracket(self, theta):
        n_po = refractive_index("ordinary", LAMBDA_P)
        n_pe = refractive_index("extraordinary", LAMBDA_P)
        c = pump_coefficients(theta, LAMBDA_P)
        assert c.beta > 0 and c.gamma > 0 and c.eta > 0
        assert n_pe - 1e-12 <= c.eta <= n_po + 1e-12

    def test_out_of_range_theta(self):
        with pytest.raises(ValueError):
            pump_coefficients(-0.1, LAMBDA_P)
        with pytest.raises(ValueError):
            pump_coefficients(math.pi / 2 + 0.1, LAMBDA_P)


class TestWavevectors:
    """The per-photon part f and the pump parts h_x, h_y of the mismatch."""

    def setup_method(self):
        self.ctx = make_context(math.radians(32.9), LAMBDA_P)

    def parts(self, q, q_p):
        (f,), h_x, h_y = mismatch_parts((q,), q_p, self.ctx)
        return f, h_x, h_y

    def test_on_axis_values(self):
        f, h_x, h_y = self.parts(0.0, TransverseMomentum(0.0, 0.0))
        coeffs = pump_coefficients(math.radians(32.9), LAMBDA_P)
        n_so = refractive_index("ordinary", LAMBDA_S)
        K_p0 = 2 * math.pi / LAMBDA_P
        K_s0 = 2 * math.pi / LAMBDA_S
        assert f == 0.0 and h_y == 0.0
        assert abs(h_x - (2 * n_so * K_s0 - coeffs.eta * K_p0)) \
            <= 1e-6 * K_p0 * 1e-9

    def test_quadratic_correction_reduces_ksz(self):
        for q in (1e4, -2e4):
            assert self.parts(q, TransverseMomentum(0.0, 0.0))[0] < 0.0

    def test_walkoff_parity(self):
        _, hx_a, _ = self.parts(0.0, TransverseMomentum(3e4, 1e4))
        _, hx_b, _ = self.parts(0.0, TransverseMomentum(-3e4, 1e4))
        # h_x(q) - h_x(-q) = 2 * (odd part): the walk-off term alpha*q_px,
        # the -alpha*q_px of k_pz with its sign turned by the mismatch.
        alpha = self.ctx.coeffs.alpha
        assert (hx_a - hx_b) == pytest.approx(2 * alpha * 3e4, rel=1e-12)

    def test_paraxial_guard(self):
        # |q_s| = 0.5 k trips the signal guard, and |q_p| = |q_s| is over
        # 0.2 eta K_p0 (about 0.4 k at the collinear angle): the pump's.
        big = TransverseMomentum(0.5 * self.ctx.k_signal, 0.0)
        zero = TransverseMomentum(0.0, 0.0)
        assert tripped(delta_kz, big, zero, self.ctx) == ["signal", "pump"]


class TestDeltaKz:
    def test_zero_at_collinear_angle(self):
        theta = collinear_angle(LAMBDA_P)
        ctx = make_context(theta, LAMBDA_P)
        zero = TransverseMomentum(0.0, 0.0)
        K_p0 = 2 * math.pi / LAMBDA_P
        assert abs(delta_kz(zero, zero, ctx)) < 1e-6 * K_p0

    @given(qsx=st.floats(-5e4, 5e4), qsy=st.floats(-5e4, 5e4),
           qix=st.floats(-5e4, 5e4), qiy=st.floats(-5e4, 5e4))
    @settings(max_examples=50)
    def test_degenerate_swap_symmetry(self, qsx, qsy, qix, qiy):
        ctx = make_context(math.radians(32.9), LAMBDA_P)
        a = delta_kz(TransverseMomentum(qsx, qsy),
                     TransverseMomentum(qix, qiy), ctx)
        b = delta_kz(TransverseMomentum(qix, qiy),
                     TransverseMomentum(qsx, qsy), ctx)
        assert a == pytest.approx(b, abs=1e-9)

    def test_antidiagonal_closed_form(self):
        # At theta* with q_i = -q_s along x: delta_kz = -q^2/(n_so K_s0),
        # using 2 n_so K_s0 = eta_p K_p0 at the collinear root.
        theta = collinear_angle(LAMBDA_P)
        ctx = make_context(theta, LAMBDA_P)
        zero = TransverseMomentum(0.0, 0.0)
        # Subtract the (tiny) residual of the collinear root so the check
        # isolates the quadratic defect itself.
        residual = delta_kz(zero, zero, ctx)
        q = 1e4
        got = delta_kz(TransverseMomentum(q, 0.0),
                       TransverseMomentum(-q, 0.0), ctx) - residual
        expected = -q**2 / ctx.k_signal
        assert got == pytest.approx(expected, rel=1e-6)

    def test_antidiagonal_defect_nonpositive(self):
        theta = collinear_angle(LAMBDA_P)
        ctx = make_context(theta, LAMBDA_P)
        for qx in np.linspace(-8e4, 8e4, 17):
            for qy in np.linspace(-8e4, 8e4, 5):
                d = delta_kz(TransverseMomentum(qx, qy),
                             TransverseMomentum(-qx, -qy), ctx)
                assert d <= 1e-9

    def test_continuity_in_theta(self):
        zero = TransverseMomentum(0.0, 0.0)
        thetas = np.linspace(math.radians(20), math.radians(45), 200)
        vals = [delta_kz(zero, zero, make_context(t, LAMBDA_P))
                for t in thetas]
        steps = np.abs(np.diff(vals))
        assert steps.max() < 0.01 * (2 * math.pi / LAMBDA_P)


class TestCollinearAngle:
    def test_355nm_golden(self):
        theta = collinear_angle(LAMBDA_P)
        assert theta == pytest.approx(GOLDEN_THETA_355, abs=1e-8)

    def test_paper_degrees_window(self):
        theta = math.degrees(collinear_angle(LAMBDA_P))
        assert abs(theta - 32.9) <= 0.15

    def test_405nm_golden(self):
        theta = collinear_angle(405e-9)
        assert theta == pytest.approx(GOLDEN_THETA_405, abs=1e-8)
        assert 28.0 <= math.degrees(theta) <= 29.0

    @pytest.mark.parametrize("nm", [230, 266, 300, 355, 405, 460, 532,
                                    600, 650, 690])
    def test_root_residual(self, nm):
        # The closed form leaves only rounding: |2 n_so K_s0 - eta K_p0| is
        # a few ulps of K_p0.
        lambda_p = nm * 1e-9
        theta = collinear_angle(lambda_p)
        ctx = make_context(theta, lambda_p)
        zero = TransverseMomentum(0.0, 0.0)
        K_p0 = 2 * math.pi / lambda_p
        assert abs(delta_kz(zero, zero, ctx)) <= 4 * np.finfo(float).eps * K_p0

    def test_no_bracket_error(self, monkeypatch):
        # Positive-uniaxial synthetic model in place of the BBO constants:
        # eta >= n_po(355) = 1.652 for every theta while n_so(710) = 1.609,
        # so delta_kz(0,0) < 0 on all of (0, pi/2) and no bracket exists.
        import biphoton.dispersion as dispersion

        monkeypatch.setattr(dispersion, "BBO", SellmeierModel(
            ordinary=(2.56, 0.0184, 0.0179, 0.0155),
            extraordinary=(2.89, 0.0128, 0.0156, 0.0044), name="synthetic"))
        with pytest.raises(NoCollinearMatchError):
            collinear_angle(LAMBDA_P)


def tripped(evaluate, *args, **kwargs):
    """The labels of the paraxial guards ``evaluate(*args, **kwargs)``
    warns of, in order: no warning escapes the list."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evaluate(*args, **kwargs)
    return [str(w.message).split(":")[0] for w in caught]


def _longdouble_mismatch(q_s, q_i, ctx, ld=np.longdouble):
    """k_sz + k_iz - k_pz in long double (or ``ld``), each longitudinal
    wavevector formed in full, as the direct form of the mismatch."""
    c = ctx.coeffs
    sx, sy = np.asarray(q_s.qx, dtype=ld), np.asarray(q_s.qy, dtype=ld)
    ix, iy = np.asarray(q_i.qx, dtype=ld), np.asarray(q_i.qy, dtype=ld)
    q_px, q_py = sx + ix, sy + iy
    eta, K_p0 = ld(c.eta), ld(ctx.K_p0)
    n_so, K_s0 = ld(ctx.n_so), ld(ctx.K_s0)
    k_pz = (-ld(c.alpha) * q_px + eta * K_p0
            - (ld(c.beta) ** 2 * q_px**2 + ld(c.gamma) ** 2 * q_py**2)
            / (2 * eta * K_p0))
    k_sz = n_so * K_s0 - (sx**2 + sy**2) / (2 * n_so * K_s0)
    k_iz = n_so * K_s0 - (ix**2 + iy**2) / (2 * n_so * K_s0)
    return k_sz + k_iz - k_pz


class TestMismatchSplit:
    def broadcast(self, n, setup=CrystalSetup.single(5e-3, math.radians(32.9)),
                  **extent):
        pump = PumpSpec(LAMBDA_P, 507e-6)
        q = MomentumGrid4.auto(pump, setup, n=n, **extent).q_axis
        return (TransverseMomentum(q[:, None, None, None], q[None, :, None, None]),
                TransverseMomentum(q[None, None, :, None], q[None, None, None, :]))

    def test_split_parts_are_pair_tables(self):
        ctx = make_context(math.radians(32.9), LAMBDA_P)
        a, b = mismatch_split(*self.broadcast(16), ctx)
        assert a.shape == (16, 1, 16, 1)
        assert b.shape == (1, 16, 1, 16)

    def test_split_at_least_as_accurate_as_direct_form(self):
        ctx = make_context(math.radians(32.9), LAMBDA_P)
        q_s, q_i = self.broadcast(16)
        ref = _longdouble_mismatch(q_s, q_i, ctx)
        direct = _longdouble_mismatch(q_s, q_i, ctx, ld=np.float64)
        err_direct = float(np.abs(direct - ref).max())
        err_split = float(np.abs(delta_kz(q_s, q_i, ctx) - ref).max())
        assert err_split <= err_direct

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("degrees, kind, extent", [
        (32.9, "single", {}), (32.93, "single", {}), (33.0, "single", {}),
        (32.93, "double", {"c2": 3.3})],
        ids=["32.9", "32.93", "33.0", "c2-3.3"])
    def test_delta_kz_within_an_ulp_of_the_constant(self, degrees, kind,
                                                    extent, n):
        # The float64 constant 2k - eta K_p0 sets the floor: fl(k) and
        # fl(eta K_p0) are each within half an ulp, their difference is
        # exact (Sterbenz), and the q terms, a few hundred rad/m, round at
        # about 1e-13.  The bound is one ulp of each of 2k and eta K_p0.
        theta = math.radians(degrees)
        setup = (CrystalSetup.single(5e-3, theta) if kind == "single"
                 else CrystalSetup.double(1e-3, 4e-3, theta))
        ctx = make_context(theta, LAMBDA_P)
        q_s, q_i = self.broadcast(n, setup, **extent)
        ref = _longdouble_mismatch(q_s, q_i, ctx)
        bound = np.spacing(2 * ctx.k_signal) + np.spacing(ctx.k_pump_z0)
        assert float(np.abs(delta_kz(q_s, q_i, ctx) - ref).max()) <= bound

    def test_every_mismatch_reads_the_parts(self, monkeypatch):
        # A constant added to h_x moves delta_kz and the factor build's pair
        # table a by that constant, leaves b as it is, and changes the
        # amplitude: no caller keeps a copy of the formula.
        import biphoton.dispersion as dispersion
        from biphoton.fields import _pair_tables

        shift = 512.0
        setup = CrystalSetup.single(5e-3, math.radians(32.9))
        pump = PumpSpec(LAMBDA_P, 507e-6)
        pipe = Pipeline(pump, setup, MomentumGrid4.auto(pump, setup, n=16),
                        boundary_tol=None)
        ctx = make_context(setup.theta_p, LAMBDA_P)
        q_s, q_i = self.broadcast(16)

        def evaluate():
            tables = _pair_tables(pipe)
            return (delta_kz(q_s, q_i, ctx), tables[3], tables[4],
                    momentum_amplitude(q_s, q_i, pump, setup))

        dkz, a, b, amp = evaluate()
        parts = dispersion.mismatch_parts

        def shifted(q, q_p, ctx):
            f, h_x, h_y = parts(q, q_p, ctx)
            return f, h_x + shift, h_y

        monkeypatch.setattr(dispersion, "mismatch_parts", shifted)
        dkz_s, a_s, b_s, amp_s = evaluate()
        np.testing.assert_allclose(dkz_s - dkz, shift, rtol=0, atol=1e-9)
        np.testing.assert_allclose(a_s - a, shift, rtol=0, atol=1e-9)
        assert np.array_equal(b_s, b)
        assert np.abs(amp_s - amp).max() > 1e-3 * np.abs(amp).max()

    def test_pump_only_trip_warns_and_raises(self):
        # Beyond the collinear angle 2k > eta K_p0, so |q_s|, |q_i| just
        # under 0.2 k give |q_p| over 0.2 eta K_p0.
        ctx = make_context(math.radians(40.0), LAMBDA_P)
        q = 0.199 * ctx.k_signal
        cases = [(TransverseMomentum(q, 0.0), TransverseMomentum(q, 0.0)),
                 (TransverseMomentum(np.array([0.0, q])[:, None],
                                     np.zeros(3)[None, :]),
                  TransverseMomentum(q, 0.0))]
        for q_s, q_i in cases:
            assert tripped(delta_kz, q_s, q_i, ctx) == ["pump"]
            # A caller that wants the trip to raise sets a warnings filter.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(UserWarning, match="pump"):
                    delta_kz(q_s, q_i, ctx)

    def test_shared_axis_takes_true_maximum(self):
        # x and y components on one axis: the sum of their maxima (0.045 k^2)
        # would trip the 0.2 k signal guard, the true maximum (0.0225 k^2)
        # does not.
        ctx = make_context(math.radians(32.9), LAMBDA_P)
        x = 0.15 * ctx.k_signal
        q_s = TransverseMomentum(np.array([0.0, x]), np.array([x, 0.0]))
        assert tripped(delta_kz, q_s, TransverseMomentum(0.0, 0.0), ctx) == []
