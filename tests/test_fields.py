"""Grid, transform, and distribution-reduction tests.

The heavy checks run on small grids (N = 8..16); the brute-force oracle is a
literal nested-sum evaluation of the centered transform, independent of the
FFT path.
"""

import math

import numpy as np
import pytest

from biphoton.dispersion import collinear_angle
from biphoton.fields import (
    BiphotonAmplitude4,
    DegenerateConditionError,
    Distribution,
    MemoryBudgetError,
    MomentumGrid4,
    SupportTruncationError,
    averaged_joint_x,
    build_amplitude,
    conditional_position,
    momentum_pdf,
    pdf,
    position_pdf,
    propagate,
    singles,
    to_position,
)
from biphoton.phasematch import CrystalSetup, PumpSpec

PUMP = PumpSpec(355e-9, 507e-6)
THETA = math.radians(32.9)
SETUP = CrystalSetup.single(5e-3, THETA)


def small_amplitude(n=8, boundary_tol=None):
    grid = MomentumGrid4.auto(PUMP, SETUP, n=n)
    return build_amplitude(grid, PUMP, SETUP, boundary_tol=boundary_tol)


def oracle_transform(amp):
    """Literal nested-sum centered transform (the independent oracle).

    psi(x) = (dq / sqrt(2 pi))^4 * sum_q A(q) exp(i q . x) over all four
    axes, with q_n = (n - N/2) dq and x_m = (m - N/2) dx.
    """
    grid = amp.grid
    q = grid.q_axis
    x = grid.x_axis
    kernel = np.exp(1j * np.outer(q, x)) * grid.dq / math.sqrt(2 * math.pi)
    out = amp.values
    for axis in range(4):
        out = np.tensordot(out, kernel, axes=([axis], [0]))
        out = np.moveaxis(out, -1, axis)
    return out


class TestMomentumGrid4:
    def test_conjugacy_exact(self):
        grid = MomentumGrid4(n=16, dq=1000.0)
        assert grid.dx * grid.dq == pytest.approx(2 * math.pi / grid.n,
                                                  rel=1e-15)

    def test_centered_axes(self):
        grid = MomentumGrid4(n=8, dq=10.0)
        assert grid.q_axis[4] == 0.0
        assert grid.q_axis[0] == -40.0
        assert grid.x_axis[4] == 0.0

    def test_power_of_two_required(self):
        with pytest.raises(Exception):
            MomentumGrid4(n=12, dq=1.0)
        with pytest.raises(Exception):
            MomentumGrid4(n=4, dq=1.0)

    def test_auto_extent_scales(self):
        tight = MomentumGrid4.auto(PumpSpec(355e-9, 100e-6), SETUP, n=16)
        loose = MomentumGrid4.auto(PumpSpec(355e-9, 2000e-6), SETUP, n=16)
        assert tight.dq > loose.dq


class TestBuildAmplitude:
    def test_l2_normalized(self):
        amp = small_amplitude(8)
        total = np.sum(np.abs(amp.values) ** 2) * amp.grid.dq**4
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_global_max_at_origin_collinear(self):
        theta = collinear_angle(PUMP.wavelength)
        setup = CrystalSetup.single(5e-3, theta)
        grid = MomentumGrid4.auto(PUMP, setup, n=16)
        amp = build_amplitude(grid, PUMP, setup, boundary_tol=None)
        idx = np.unravel_index(np.argmax(np.abs(amp.values)),
                               amp.values.shape)
        assert idx == (8, 8, 8, 8)

    def test_swap_symmetry(self):
        amp = small_amplitude(8)
        swapped = np.transpose(amp.values, (2, 3, 0, 1))
        np.testing.assert_allclose(amp.values, swapped, atol=1e-12)

    def test_truncation_guard_fires(self):
        grid = MomentumGrid4(n=8, dq=100.0)  # tiny extent: edge not decayed
        with pytest.raises(SupportTruncationError):
            build_amplitude(grid, PUMP, SETUP, boundary_tol=0.1)


class TestPropagate:
    def test_z_zero_identity(self):
        amp = small_amplitude(8)
        out = propagate(amp, 0.0)
        np.testing.assert_array_equal(out.values, amp.values)

    def test_modulus_preserved(self):
        amp = small_amplitude(8)
        out = propagate(amp, 5e-3)
        np.testing.assert_allclose(np.abs(out.values), np.abs(amp.values),
                                   atol=1e-14)

    def test_additivity(self):
        amp = small_amplitude(8)
        a = propagate(propagate(amp, 3e-3), 4e-3)
        b = propagate(amp, 7e-3)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_requires_momentum_basis(self):
        amp = to_position(small_amplitude(8))
        with pytest.raises(Exception):
            propagate(amp, 1e-3)


class TestToPosition:
    def test_parseval(self):
        amp = small_amplitude(16)
        pos = to_position(amp)
        p_mom = np.sum(np.abs(amp.values) ** 2) * amp.grid.dq**4
        p_pos = np.sum(np.abs(pos.values) ** 2) * amp.grid.dx**4
        assert abs(p_pos - p_mom) / p_mom <= 1e-10

    def test_oracle_equivalence_n8(self):
        amp = propagate(small_amplitude(8), 5e-3)
        fft_path = to_position(amp).values
        direct = oracle_transform(amp)
        scale = np.abs(direct).max()
        assert np.abs(fft_path - direct).max() / scale <= 1e-9

    def test_gaussian_stub_signal_width(self):
        # Phi == 1: amplitude depends only on q_s + q_i; the position-space
        # signal marginal is a Gaussian of standard deviation w0/2.
        w0 = 507e-6
        n = 32
        dq = math.pi / (2 * w0)
        grid = MomentumGrid4(n=n, dq=dq)
        q = grid.q_axis
        gx = np.exp(-np.add.outer(q, q) ** 2 * w0**2 / 4)
        values = (gx[:, None, :, None] * gx[None, :, None, :]).astype(complex)
        values /= math.sqrt(np.sum(np.abs(values) ** 2) * dq**4)
        amp = BiphotonAmplitude4(grid=grid, values=values, basis="momentum",
                                 k=2 * math.pi / 710e-9 * 1.66, z=0.0)
        sig = singles(position_pdf(to_position(amp)))
        px = sig.values.sum(axis=1) * sig.deltas[1]
        px /= px.sum() * sig.deltas[0]
        x = grid.x_axis
        var = np.sum(px * x**2) * sig.deltas[0]
        # 5% headroom for the discrete delta-ridge (Dirichlet kernel) tails;
        # the nearest wrong candidate, w0/sqrt(2), is 41% away.
        assert math.sqrt(var) == pytest.approx(w0 / 2, rel=0.05)

    def test_memory_budget_guard(self):
        amp = small_amplitude(8)
        with pytest.raises(MemoryBudgetError):
            to_position(amp, memory_budget=1024)


class TestMomentumPdf:
    def test_z_invariance(self):
        amp = small_amplitude(16)
        base = momentum_pdf(amp).values
        for z in (5e-3, 10e-3):
            moved = momentum_pdf(propagate(amp, z)).values
            assert np.abs(moved - base).max() <= 1e-12 * base.max()

    def test_nonnegative_normalized(self):
        amp = small_amplitude(8)
        dist = momentum_pdf(amp)
        assert np.all(dist.values >= 0)
        assert np.sum(dist.values) * amp.grid.dq**4 == \
            pytest.approx(1.0, abs=1e-10)

    def test_antidiagonal_ridge(self):
        # Mass within |q_sx + q_ix| <= 2 dq dominates: the tight pump
        # envelope forces q_s ~ -q_i.
        amp = small_amplitude(16)
        joint = averaged_joint_x(momentum_pdf(amp))
        n = joint.values.shape[0]
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        anti = np.abs((i - n // 2) + (j - n // 2)) <= 2
        mass = joint.values[anti].sum() / joint.values.sum()
        assert mass > 0.9


class TestReductions:
    def make_dist4(self):
        amp = propagate(small_amplitude(16), 5e-3)
        return position_pdf(to_position(amp))

    def test_averaged_joint_normalized(self):
        joint = averaged_joint_x(self.make_dist4())
        total = joint.values.sum() * joint.deltas[0] * joint.deltas[1]
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_collinear_diagonal_correlation(self):
        theta = collinear_angle(PUMP.wavelength)
        setup = CrystalSetup.single(5e-3, theta)
        # n = 16 windows are narrower than the correlation structure and
        # wrap; n = 32 resolves the diagonal.
        grid = MomentumGrid4.auto(PUMP, setup, n=32)
        amp = propagate(build_amplitude(grid, PUMP, setup,
                                        boundary_tol=None), 5e-3)
        joint = averaged_joint_x(position_pdf(to_position(amp)))
        n = joint.values.shape[0]
        cols = np.argmax(joint.values, axis=0)
        # argmax over x_s of each central column sits at x_s ~ x_i
        center = slice(n // 4, 3 * n // 4)
        assert np.abs(cols[center] - np.arange(n)[center]).max() <= 1

    def test_separable_product_factorizes(self):
        n = 8
        grid = MomentumGrid4(n=n, dq=1.0)
        rng = np.random.default_rng(7)
        p = rng.random(n)
        q = rng.random(n)
        y = rng.random((n, n))
        vals = p[:, None, None, None] * y[None, :, None, :] * \
            q[None, None, :, None]
        vals /= vals.sum() * grid.dx**4
        dist4 = Distribution(values=vals, axis_names=("x_s", "y_s", "x_i", "y_i"),
                             deltas=(grid.dx,) * 4, basis="position",
                             units="m", normalized=True)
        joint = averaged_joint_x(dist4)
        outer = np.outer(joint.values.sum(axis=1),
                         joint.values.sum(axis=0)) * joint.deltas[0] * \
            joint.deltas[1]
        np.testing.assert_allclose(joint.values, outer, rtol=1e-10)

    def test_conditional_of_separable_is_marginal(self):
        n = 8
        grid = MomentumGrid4(n=n, dq=1.0)
        rng = np.random.default_rng(3)
        s_part = rng.random((n, n))
        i_part = rng.random((n, n))
        vals = s_part[:, :, None, None] * i_part[None, None, :, :]
        vals /= vals.sum() * grid.dx**4
        dist4 = Distribution(values=vals, axis_names=("x_s", "y_s", "x_i", "y_i"),
                             deltas=(grid.dx,) * 4, basis="position",
                             units="m", normalized=True)
        cond = conditional_position(dist4)
        marg = s_part / (s_part.sum() * grid.dx**2)
        np.testing.assert_allclose(cond.values, marg, rtol=1e-10)

    def test_conditional_direct_matches_4d_slice(self):
        from biphoton.fields import conditional_position_direct

        grid = MomentumGrid4.auto(PUMP, SETUP, n=16)
        amp = propagate(build_amplitude(grid, PUMP, SETUP,
                                        boundary_tol=None), 5e-3)
        via_4d = conditional_position(position_pdf(to_position(amp)))
        direct = conditional_position_direct(PUMP, SETUP, 5e-3, grid)
        assert np.abs(via_4d.values - direct.values).max() <= \
            1e-9 * direct.values.max()

    def test_conditional_direct_offset_node(self):
        from biphoton.fields import conditional_position_direct

        grid = MomentumGrid4.auto(PUMP, SETUP, n=16)
        amp = propagate(build_amplitude(grid, PUMP, SETUP,
                                        boundary_tol=None), 5e-3)
        rho = (grid.x_axis[10], grid.x_axis[6])
        via_4d = conditional_position(position_pdf(to_position(amp)),
                                      rho_i0=rho)
        direct = conditional_position_direct(PUMP, SETUP, 5e-3, grid,
                                             rho_i0=rho)
        assert np.abs(via_4d.values - direct.values).max() <= \
            1e-9 * direct.values.max()

    @pytest.mark.parametrize("node", [(8, 8), (10, 6)], ids=["origin", "offset"])
    def test_conditional_direct_double_crystal(self, node):
        from biphoton.fields import conditional_position_direct

        setup = CrystalSetup.double(1e-3, 4e-3, math.radians(32.93))
        grid = MomentumGrid4.auto(PUMP, setup, n=16)
        amp = propagate(build_amplitude(grid, PUMP, setup,
                                        boundary_tol=None), 7.5e-3)
        rho = (grid.x_axis[node[0]], grid.x_axis[node[1]])
        via_4d = conditional_position(position_pdf(to_position(amp)),
                                      rho_i0=rho)
        direct = conditional_position_direct(PUMP, setup, 7.5e-3, grid,
                                             rho_i0=rho)
        assert np.abs(via_4d.values - direct.values).max() <= \
            1e-9 * direct.values.max()

    def test_conditional_degenerate_error(self):
        n = 8
        grid = MomentumGrid4(n=n, dq=1.0)
        vals = np.zeros((n, n, n, n))
        vals[0, 0, 0, 0] = 1.0  # all mass far from the conditioning node
        vals /= vals.sum() * grid.dx**4
        dist4 = Distribution(values=vals, axis_names=("x_s", "y_s", "x_i", "y_i"),
                             deltas=(grid.dx,) * 4, basis="position",
                             units="m", normalized=True)
        with pytest.raises(DegenerateConditionError):
            conditional_position(dist4)

    def test_singles_normalized_and_swap_invariant(self):
        dist4 = self.make_dist4()
        s = singles(dist4)
        assert s.values.sum() * s.deltas[0] * s.deltas[1] == \
            pytest.approx(1.0, abs=1e-10)
        swapped = Distribution(
            values=np.transpose(dist4.values, (2, 3, 0, 1)),
            axis_names=dist4.axis_names, deltas=dist4.deltas,
            basis=dist4.basis, units=dist4.units, normalized=True)
        np.testing.assert_allclose(s.values, singles(swapped).values,
                                   atol=1e-12)
