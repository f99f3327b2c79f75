"""Grid, transform, and distribution-reduction tests.

The heavy checks run on small grids (N = 8..16); the brute-force oracle is a
literal nested-sum evaluation of the centered transform, independent of the
FFT path.
"""

import ast
import functools
import hashlib
import math
import os
import pickle
import re
import time
from collections import namedtuple

import numpy as np
import pytest
from stages import (PROCESS_CACHES, PUMP, ROUTES, SETUPS, ZS,
                    boundary_ratio, peak_of, pipeline_of, traced_stages)

from biphoton.dispersion import TransverseMomentum, collinear_angle
from biphoton.fields import (
    CHEB_START,
    BiphotonAmplitude4,
    DegenerateConditionError,
    Distribution,
    EPS,
    EXTENT_C2,
    MEMORY_BUDGET,
    STAGE_ALLOWANCE,
    STAGE_RECORDER,
    GridError,
    MemoryBudgetError,
    MomentumGrid4,
    Pipeline,
    SupportTruncationError,
    _band,
    _boundary_max,
    _check_boundary,
    _check_stage,
    _chebyshev,
    amplitude_factors,
    averaged_joint_x,
    averaged_joints_x,
    build_amplitude,
    conditional_position,
    conditional_position_direct,
    momentum_pdf,
    pdf,
    position_pdf,
    propagate,
    singles,
    singles_direct,
    to_position,
)
from biphoton.phasematch import CrystalSetup, PumpSpec, momentum_amplitude

SETUP = SETUPS["single"]


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

    @pytest.mark.parametrize("dq", [float("nan"), float("inf")])
    def test_non_finite_dq_rejected(self, dq):
        with pytest.raises(GridError, match="finite"):
            MomentumGrid4(8, dq)

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

    def test_budget_checked_before_allocating(self):
        # One byte under the count the refusal names, the build and the
        # pipeline refuse it before the N^4 arrays (805 MB) are allocated.
        grid = MomentumGrid4.auto(PUMP, SETUP, n=64)
        with pytest.raises(MemoryBudgetError) as info:
            build_amplitude(grid, PUMP, SETUP, memory_budget=1)
        need = int(re.search(r"~(\d+) bytes", str(info.value)).group(1))
        pipe = Pipeline(PUMP, SETUP, grid, memory_budget=need - 1)
        for call in (lambda: build_amplitude(grid, PUMP, SETUP,
                                             memory_budget=need - 1),
                     pipe.momentum_amplitude):
            refusal, stages, _ = traced_stages(call)
            assert isinstance(refusal, MemoryBudgetError)
            assert peak_of(stages) < 1024**2

    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_budget_counts_the_working_set(self, kind):
        # The count bounds what the build holds at once, and admits it.
        setup = SETUPS[kind]
        grid = MomentumGrid4.auto(PUMP, setup, n=16)
        stages = traced_stages(lambda: build_amplitude(grid, PUMP, setup))[1]
        need = stages[1].need
        assert peak_of(stages) <= need
        build_amplitude(grid, PUMP, setup, memory_budget=need)


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
                             units="m")
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
                             units="m")
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
                             units="m")
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
            basis=dist4.basis, units=dist4.units)
        np.testing.assert_allclose(s.values, singles(swapped).values,
                                   atol=1e-12)


class TestAveragedJointsX:
    """The rank-R engine against the 4D path it replaces."""

    @staticmethod
    def max_rel_err(ref, got):
        return np.abs(ref - got).max() / ref.max()

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_matches_4d_path(self, kind, n):
        setup = SETUPS[kind]
        grid = MomentumGrid4.auto(PUMP, setup, n=n)
        joints = averaged_joints_x(Pipeline(PUMP, setup, grid,
                                            boundary_tol=None), ZS)
        amp = build_amplitude(grid, PUMP, setup, boundary_tol=None)
        mom = averaged_joint_x(momentum_pdf(amp))
        assert joints.momentum.axis_names == mom.axis_names
        assert joints.momentum.deltas == mom.deltas
        assert self.max_rel_err(mom.values, joints.momentum.values) <= 1e-12
        assert joints.z == ZS
        for z, got in zip(ZS, joints.position):
            ref = averaged_joint_x(position_pdf(to_position(propagate(amp, z))))
            assert got.axis_names == ref.axis_names
            assert got.deltas == ref.deltas
            assert self.max_rel_err(ref.values, got.values) <= 1e-12

    def test_budget_holds_the_factors(self):
        # Single crystal, n = 32: the joints' largest stage, the complex
        # R x n^2 tables with the Gram and transform buffers, needs more
        # than the real tables of any trial of the factor build; under it
        # the joints keep their bits, and one byte under it they are
        # refused at that check (stage_case).
        what = stage_case("averaged_joints_x-3z", "single", 32).largest[1]
        assert what.endswith("complex factor tables")

    def test_budget_below_one_slab(self):
        grid = MomentumGrid4.auto(PUMP, SETUP, n=16)
        with pytest.raises(MemoryBudgetError):
            averaged_joints_x(Pipeline(PUMP, SETUP, grid,
                                       memory_budget=1024), [0.0])

    #: (kind, n, extent keys) of the boundary-guard tests.
    EXTENTS = [
        ("single", 8, {}), ("single", 16, {}), ("single", 32, {}),
        ("double", 8, {}), ("double", 16, {}), ("double", 32, {}),
        ("single", 64, {}), ("double", 64, {}),
        ("single", 8, {"c1": 0.2, "c2": 0.05}),
        ("double", 16, {"c1": 0.2, "c2": 0.05}),
        ("single", 16, {"c2": EXTENT_C2 * 2.2}),
        ("double", 16, {"c2": EXTENT_C2 * 2.2}),
        ("single", 64, {"c2": EXTENT_C2 * 2.2}),
        ("double", 64, {"c2": EXTENT_C2 * 2.2})]

    @staticmethod
    def extent_id(extent):
        return f"{extent[0]}-{extent[1]}" + (
            "-tight" if "c1" in extent[2] else "-wide" if extent[2] else "")

    @pytest.mark.parametrize("extent", EXTENTS, ids=extent_id)
    def test_boundary_ratio_matches_4d_build(self, extent):
        kind, n, extent_keys = extent
        setup = SETUPS[kind]
        grid = MomentumGrid4.auto(PUMP, setup, n=n, **extent_keys)
        amp = build_amplitude(grid, PUMP, setup, boundary_tol=None)
        edge, peak = _boundary_max(amp.values), np.abs(amp.values).max()
        ratio_4d = edge / peak
        pipe = Pipeline(PUMP, setup, grid, boundary_tol=None)
        assert averaged_joints_x(pipe, [0.0]).diagnostics.boundary_ratio == \
            pytest.approx(ratio_4d, rel=1e-12)
        assert boundary_ratio(pipe) == pytest.approx(ratio_4d, rel=1e-12)
        # The guard fires exactly where build_amplitude's does, with the
        # same message: build_amplitude raises through _check_boundary on
        # its edge and peak.
        for tol in (0.5 * ratio_4d, 2.0 * ratio_4d):
            try:
                _check_boundary(edge, peak, tol)
                expected = None
            except SupportTruncationError as exc:
                expected = str(exc)
            guarded = Pipeline(PUMP, setup, grid, boundary_tol=tol)
            for run in (lambda: averaged_joints_x(guarded, [0.0]),
                        lambda: boundary_ratio(guarded)):
                if expected is None:
                    run()
                else:
                    with pytest.raises(SupportTruncationError) as info:
                        run()
                    assert str(info.value) == expected

    @staticmethod
    def count_points(monkeypatch):
        """A list that gets the number of points of every evaluation of the
        amplitude in the boundary walk (``fields._phi_split``)."""
        import biphoton.fields as fields_module
        from biphoton.phasematch import _phi_split

        evaluated = []

        def counting(*args, **kwargs):
            out = _phi_split(*args, **kwargs)
            evaluated.append(np.size(out))
            return out

        monkeypatch.setattr(fields_module, "_phi_split", counting)
        return evaluated

    @pytest.mark.parametrize("extent", EXTENTS, ids=extent_id)
    def test_guard_matches_full_pair_walk(self, extent, monkeypatch):
        # The guard walks the band's upper half where the envelope is not 0:
        # the same peak and ratio, to the last bit, as the walk over every
        # pair, from fewer evaluated points.
        from biphoton.fields import _guarded_peak, _pair_tables

        evaluated = self.count_points(monkeypatch)
        kind, n, extent_keys = extent
        setup = SETUPS[kind]
        pipe = Pipeline(PUMP, setup,
                        MomentumGrid4.auto(PUMP, setup, n=n, **extent_keys),
                        boundary_tol=None)
        full = full_pair_peak(pipe)
        full_points = sum(evaluated)
        evaluated.clear()
        assert _guarded_peak(pipe, _pair_tables(pipe)) == full
        assert sum(evaluated) < full_points

    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_boundary_ratio_is_cubic(self, kind, monkeypatch):
        # The walk evaluates only the points whose envelope bound v_x v_y
        # can still raise the running maximum of the peak or of the hull:
        # at n = 256, fewer than half the n^3 points of one hull face.
        evaluated = self.count_points(monkeypatch)
        for n, bound in ((32, 5 * 32**3), (64, 5 * 64**3), (256, 256**3 // 2)):
            evaluated.clear()
            boundary_ratio(pipeline_of(kind, n))
            assert sum(evaluated) <= bound

    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_guard_walks_the_pair_tables(self, kind, monkeypatch):
        # The guard evaluates the amplitude from the pair tables of the
        # factor build, not through momentum_amplitude.
        import biphoton.fields as fields_module

        pipe = pipeline_of(kind, 32)
        tables = fields_module._pair_tables(pipe)
        ref = fields_module._guarded_peak(pipe, tables)

        def refuse(*args, **kwargs):
            raise AssertionError("momentum_amplitude called")

        monkeypatch.setattr(fields_module, "momentum_amplitude", refuse)
        assert fields_module._guarded_peak(pipe, tables) == ref
        assert boundary_ratio(pipe) == ref[1]

    @pytest.mark.parametrize("route", ["boundary_ratio", "averaged_joints_x"])
    def test_guard_budget_checked_before_allocating(self, route):
        # At n = 1024 the pair tables alone need about 46 MB: under a 1 MB
        # budget the guard refuses them before the walk allocates.
        pipe = Pipeline(PUMP, SETUP, MomentumGrid4.auto(PUMP, SETUP, n=1024),
                        memory_budget=1024**2)
        args = ([0.0],) if route == "averaged_joints_x" else ()
        refusal, stages, _ = traced_stages(lambda: {
            "boundary_ratio": boundary_ratio,
            "averaged_joints_x": averaged_joints_x}[route](pipe, *args))
        assert isinstance(refusal, MemoryBudgetError)
        assert "pair tables" in str(refusal)
        assert peak_of(stages) < 1024**2

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_guard_walk_within_its_budget(self, kind, n):
        # The pair tables' check counts one point of the walk an entry, and
        # a chunk of the walk holds at most one point an entry: under the
        # least budget the check admits, the guard's traced peak stays
        # within it, with the ratio of the default budget (stage_case);
        # one byte less is refused at that check, before the walk.
        case = stage_case("guard", kind, n)
        site, what, need, *_ = case.largest
        assert peak_of(case.admitted) <= need
        assert case.refused == [site] and what == "pair tables"
        assert case.refusal.startswith(f"{what} need ~{need} bytes")

    @pytest.mark.parametrize("extent", EXTENTS + [
        (kind, n, {}) for kind in ("single", "double") for n in (128, 256, 512)
    ], ids=extent_id)
    def test_band_tables_match_full_pairs(self, extent):
        # The pair tables hold the anti-diagonals from the least to the
        # largest i + j of the pairs where v != 0, each valid entry with the
        # bits of the n x n tables at its pair and v = 0 off the grid, and
        # the Chebyshev interval is b's extremes at the band's pairs.
        from biphoton.fields import _band, _pair_tables

        kind, n, extent_keys = extent
        setup = SETUPS[kind]
        pipe = Pipeline(PUMP, setup,
                        MomentumGrid4.auto(PUMP, setup, n=n, **extent_keys))
        _, s_lo, cols, a, b, v, (b_min, b_max) = _pair_tables(pipe)
        ref_a, ref_b, ref_v = full_pair_tables(setup, pipe.grid.q_axis)
        sums = np.add.outer(np.arange(n), np.arange(n))[ref_v != 0]
        assert s_lo == sums.min()
        assert v.shape == (n, sums.max() - s_lo + 1)
        assert (b_min.hex(), b_max.hex()) == tuple(
            x.hex() for x in band_span(ref_b, ref_v))
        band_cols, valid = _band(n, s_lo, v.shape[1])
        assert np.array_equal(cols, band_cols)
        rows = np.nonzero(valid)[0]
        for got, ref in ((a, ref_a), (b, ref_b), (v, ref_v)):
            assert got[valid].tobytes() == ref[rows, cols[valid]].tobytes()
        assert np.all(v[~valid] == 0.0)

    def test_diagnostics(self):
        for kind in ("single", "double"):
            pipe = pipeline_of(kind, 32)
            diag = averaged_joints_x(pipe, []).diagnostics
            factors = amplitude_factors(pipe)
            assert diag.rank == factors.rank
            err, peak = factor_error(factors, pipe.grid, pipe.setup)
            assert err / peak <= diag.interpolation_error <= 1e-12
            assert diag.interpolation_error == \
                pytest.approx(factors.error / peak, rel=1e-12)


def full_pair_peak(pipeline):
    """(peak |A|, edge / peak) of the boundary walk over every pair
    (q_s, q_i) of each axis, the mismatch and the envelope built on all n^2
    pairs, and over every face of the 4D hull: the reference for the
    guard, which takes the band's upper half and its entries with i = 0 or
    j = n - 1."""
    from biphoton import dispersion
    from biphoton.fields import _max_over_pairs
    from biphoton.phasematch import pump_envelope

    ctx = dispersion.make_context(pipeline.setup.theta_p,
                                  pipeline.pump.wavelength)
    q = pipeline.grid.q_axis
    q_s, q_i = np.repeat(q, q.size), np.tile(q, q.size)
    a, b = dispersion.mismatch_split(TransverseMomentum(q_s, q_s),
                                     TransverseMomentum(q_i, q_i), ctx)
    v = pump_envelope(TransverseMomentum(q_s + q_i, 0.0), pipeline.pump)
    order = np.argsort(-v, kind="stable")
    q_s, q_i, a, b, v = q_s[order], q_i[order], a[order], b[order], v[order]
    elems = 2**20
    peak = _max_over_pairs(pipeline.setup, (a, v), (b, v), elems)
    face = np.isin(q_s, q[[0, -1]]) | np.isin(q_i, q[[0, -1]])
    edge = _max_over_pairs(pipeline.setup, (a[face], v[face]), (b, v), elems)
    edge = _max_over_pairs(pipeline.setup, (a, v), (b[face], v[face]), elems,
                           edge)
    return peak, edge / peak


def full_pair_tables(setup, q):
    """(a, b, v) of the factor build on all n x n pairs (q_s, q_i) of one
    axis: a over (q_sx, q_ix), b over (q_sy, q_iy), and the envelope."""
    from biphoton import dispersion
    from biphoton.phasematch import pump_envelope

    rows, cols = q[:, None], q[None, :]
    ctx = dispersion.make_context(setup.theta_p, PUMP.wavelength)
    a, b = dispersion.mismatch_split(TransverseMomentum(rows, rows),
                                     TransverseMomentum(cols, cols), ctx)
    return a, b, pump_envelope(TransverseMomentum(rows + cols, 0.0), PUMP)


def band_span(b, v):
    """b's (min, max) at the pairs (i, cols[i, k]) of the band of the n x n
    envelope v: the anti-diagonals from the least to the largest i + j
    where v != 0, each column clipped to the grid.  The Chebyshev interval
    of the factor build."""
    n = v.shape[0]
    sums = np.add.outer(np.arange(n), np.arange(n))[v != 0]
    cols = np.clip(sums.min() - np.arange(n)[:, None]
                   + np.arange(sums.max() - sums.min() + 1), 0, n - 1)
    band = b[np.arange(n)[:, None], cols]
    return band.min(), band.max()


def unscreened_factors(pipeline):
    """(x, y, error, v_x) of the rank-R factors with every Chebyshev trial
    evaluated on the full table and the double crystal's halves joined by
    concatenation, and the x-pair envelope: the reference for the screened
    build."""
    from biphoton import dispersion
    from biphoton.fields import CHEB_START, CHEB_TOL, EPS
    from biphoton.phasematch import pump_envelope, sinc

    pump, setup, grid = pipeline.pump, pipeline.setup, pipeline.grid
    ctx = dispersion.make_context(setup.theta_p, pump.wavelength)
    q, n = grid.q_axis, grid.n
    rows, cols = q[:, None], q[None, :]
    a, b = dispersion.mismatch_split(TransverseMomentum(rows, rows),
                                     TransverseMomentum(cols, cols), ctx)
    v_x = pump_envelope(TransverseMomentum(rows + cols, 0.0), pump)
    v_y = pump_envelope(TransverseMomentum(0.0, rows + cols), pump)
    half = setup.length / 2.0
    b_min, b_max = band_span(b, v_x)
    mid = (b_max + b_min) / 2.0
    rad = (b_max - b_min) / 2.0
    nodes = CHEB_START
    while True:
        theta = np.pi * (np.arange(nodes) + 0.5) / nodes
        basis = np.cos(np.outer(np.arange(nodes), theta)) * (2.0 / nodes)
        basis[0] /= 2.0
        coeffs = np.tensordot(
            basis, sinc((a + mid)[None] * half
                        + (rad * half) * np.cos(theta)[:, None, None]),
            axes=(1, 0))
        weight = (np.abs(coeffs * v_x).reshape(nodes, -1).max(axis=1)
                  * v_y.max())
        if weight[-2:].max() <= CHEB_TOL:
            break
        nodes *= 2
    tail = np.cumsum(weight[::-1])[::-1]
    kept = max(1, int(np.argmax(tail <= CHEB_TOL)))
    error = float(tail[kept] + EPS * tail[0])
    t = np.clip((b - mid) / rad, -1.0, 1.0)
    cheb = np.empty((kept, n, n))
    cheb[0] = 1.0
    if kept > 1:
        cheb[1] = t
    for j in range(2, kept):
        np.multiply(2.0 * t, cheb[j - 1], out=cheb[j])
        cheb[j] -= cheb[j - 2]
    coeffs = coeffs[:kept]
    if setup.kind == "single":
        return (coeffs * (v_x * np.exp(1j * a * half)),
                cheb * (v_y * np.exp(1j * b * half)), error, v_x)
    g = (setup.length + setup.gap) / 2.0
    e_a, e_b = v_x * np.exp(1j * a * g) / 2.0, v_y * np.exp(1j * b * g)
    return (np.concatenate([coeffs * e_a, coeffs * e_a.conj()]),
            np.concatenate([cheb * e_b, cheb * e_b.conj()]), error, v_x)


def triangle_coeffs(pipeline):
    """(coeffs, v_x): the kept Chebyshev coefficients of the factor build
    with every trial sampling sinc on all n(n+1)/2 upper-triangle x-pairs,
    mirrored to K x n x n, and the x-pair envelope: the reference for the
    build that samples only where v_x != 0."""
    from biphoton import dispersion
    from biphoton.fields import CHEB_START, CHEB_TOL
    from biphoton.phasematch import pump_envelope, sinc

    pump, setup, grid = pipeline.pump, pipeline.setup, pipeline.grid
    ctx = dispersion.make_context(setup.theta_p, pump.wavelength)
    q, n = grid.q_axis, grid.n
    rows, cols = q[:, None], q[None, :]
    a, b = dispersion.mismatch_split(TransverseMomentum(rows, rows),
                                     TransverseMomentum(cols, cols), ctx)
    v_x = pump_envelope(TransverseMomentum(rows + cols, 0.0), pump)
    v_y = pump_envelope(TransverseMomentum(0.0, rows + cols), pump)
    half = setup.length / 2.0
    b_min, b_max = band_span(b, v_x)
    mid = (b_max + b_min) / 2.0
    rad = (b_max - b_min) / 2.0
    upper = np.triu_indices(n)
    nodes = CHEB_START
    while True:
        theta = np.pi * (np.arange(nodes) + 0.5) / nodes
        basis = np.cos(np.outer(np.arange(nodes), theta)) * (2.0 / nodes)
        basis[0] /= 2.0
        coeffs = np.tensordot(
            basis, sinc((a[upper] + mid)[None] * half
                        + (rad * half) * np.cos(theta)[:, None]),
            axes=(1, 0))
        weight = np.abs(coeffs * v_x[upper]).max(axis=1) * v_y.max()
        if weight[-2:].max() <= CHEB_TOL:
            break
        nodes *= 2
    tail = np.cumsum(weight[::-1])[::-1]
    kept = max(1, int(np.argmax(tail <= CHEB_TOL)))
    mirror = np.empty((n, n), dtype=np.intp)
    mirror[upper] = np.arange(upper[0].size)
    mirror[upper[::-1]] = mirror[upper]
    return np.take(coeffs[:kept], mirror, axis=1), v_x


def factor_error(factors, grid, setup):
    """(max |A - sum_r x_r y_r|, max |A|) with A the unnormalized amplitude
    on the 4D broadcast."""
    q = grid.q_axis
    values = momentum_amplitude(
        TransverseMomentum(q[:, None, None, None], q[None, :, None, None]),
        TransverseMomentum(q[None, None, :, None], q[None, None, None, :]),
        PUMP, setup)
    err = np.abs(np.einsum("rac,rbd->abcd", factors.x(), factors.y())
                 - values).max()
    return float(err), float(np.abs(values).max())


class TestRankFactors:
    """The rank-R factors and every output built on them against the 4D
    path, at the default extent and at a widened one that needs a large
    rank."""

    @staticmethod
    def rel_err(ref, got):
        return np.abs(ref - got).max() / ref.max()

    @pytest.mark.parametrize("wide", [False, True], ids=["default", "wide"])
    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_factors(self, kind, n, wide):
        pipe = pipeline_of(f"{kind}-wide" if wide else kind, n)
        factors = amplitude_factors(pipe)
        err, peak = factor_error(factors, pipe.grid, pipe.setup)
        assert err <= factors.error <= 1e-12 * peak
        # The double crystal's cos g doubles the rank.
        assert factors.rank % (1 if kind == "single" else 2) == 0
        if wide:
            assert factors.rank > amplitude_factors(
                pipeline_of(kind, n)).rank

    @pytest.mark.parametrize("n", [16, 64, 512])
    @pytest.mark.parametrize("wide", [False, True], ids=["default", "wide"])
    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_chebyshev_values_within_one(self, kind, wide, n):
        # The interval is b's extremes over the stored band entries, where
        # every polynomial is evaluated: each stored T_j(t) lies in
        # [-1, 1], and T_1 = t reaches both ends.
        cheb = amplitude_factors(
            pipeline_of(f"{kind}-wide" if wide else kind, n)).cheb
        assert np.abs(cheb).max() <= 1.0
        assert cheb[1].max() == pytest.approx(1.0, abs=1e-12)
        assert cheb[1].min() == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("n, z", [
        (n, z) for n in (8, 16, 32) for z in ZS]
        + [(64, 5e-3)])
    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_position_outputs(self, kind, n, z):
        self.check_position_outputs(kind, pipeline_of(kind, n).grid, z)

    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_position_outputs_wide(self, kind):
        grid = pipeline_of(f"{kind}-wide", 32).grid
        self.check_position_outputs(kind, grid, 5e-3)

    def check_position_outputs(self, kind, grid, z):
        """Momentum and position joints, conditional (on and off axis) and
        singles at z."""
        setup = SETUPS[kind]
        pipe = Pipeline(PUMP, setup, grid, boundary_tol=None)
        amp = build_amplitude(grid, PUMP, setup, boundary_tol=None)
        dist4 = position_pdf(to_position(propagate(amp, z)))
        joints = averaged_joints_x(pipe, [z])
        assert joints.z == (z,)
        mom = averaged_joint_x(momentum_pdf(amp))
        for ref, got in ((mom, joints.momentum),
                         (averaged_joint_x(dist4), joints.position[0])):
            assert (got.axis_names, got.deltas) == (ref.axis_names,
                                                    ref.deltas)
            assert self.rel_err(ref.values, got.values) <= 1e-12
        n = grid.n
        for node in ((n // 2, n // 2), (n // 2 + 2, n // 2 - 1)):
            rho = (grid.x_axis[node[0]], grid.x_axis[node[1]])
            direct = conditional_position_direct(PUMP, setup, z, grid,
                                                 rho_i0=rho)
            ref = conditional_position(dist4, rho_i0=rho)
            assert direct.deltas == ref.deltas
            assert self.rel_err(ref.values, direct.values) <= 1e-12
        got = singles_direct(pipe, z)
        ref = singles(dist4)
        assert (got.axis_names, got.deltas) == (ref.axis_names, ref.deltas)
        assert self.rel_err(ref.values, got.values) <= 1e-12

    def test_singles_keeps_the_guard(self):
        grid = MomentumGrid4.auto(PUMP, SETUP, n=8, c1=0.2, c2=0.05)
        with pytest.raises(SupportTruncationError):
            singles_direct(Pipeline(PUMP, SETUP, grid), 5e-3)

    def test_budget_checked_before_allocating(self):
        # Every check counts STAGE_ALLOWANCE, so a budget of it refuses the
        # first, the pair tables, before the build allocates.
        grid = MomentumGrid4.auto(PUMP, SETUP, n=64)
        refusal, stages, _ = traced_stages(lambda: amplitude_factors(
            Pipeline(PUMP, SETUP, grid, memory_budget=512 * 1024)))
        assert isinstance(refusal, MemoryBudgetError)
        assert peak_of(stages) < 512 * 1024

    def test_non_finite_extent_raises_before_allocating(self):
        # A non-finite extent gives a non-finite dq: the grid refuses it.
        def refused():
            with pytest.raises(GridError, match="finite"):
                MomentumGrid4.auto(PUMP, SETUP, n=16, c2=float("nan"))

        assert peak_of(traced_stages(refused)[1]) < 1024**2

    def test_non_finite_coefficients_raise_before_allocating(self):
        # A finite but enormous crystal length overflows the sinc argument,
        # so every Chebyshev coefficient is non-finite; the first trial
        # refuses it rather than doubling K without end.
        setup = CrystalSetup.single(1e308, SETUP.theta_p)
        grid = MomentumGrid4.auto(PUMP, setup, n=16)

        def refused():
            with pytest.raises(GridError, match="non-finite"), \
                    np.errstate(over="ignore", invalid="ignore"):
                amplitude_factors(Pipeline(PUMP, setup, grid))

        assert peak_of(traced_stages(refused)[1]) < 1024**2

    @pytest.mark.parametrize("route, args", [
        ("averaged_joints_x", ([0.0],)),
        ("singles_direct", (5e-3,)),
        ("position_factors", (5e-3,)),
    ])
    def test_guard_runs_before_the_factor_build(self, route, args,
                                                monkeypatch):
        # On a truncated grid every guarded route raises the guard's
        # verdict without building a factor table.
        import biphoton.fields as fields_module

        def refuse(pipeline, tables):
            raise AssertionError("factor build reached")

        monkeypatch.setattr(fields_module, "_build_factors", refuse)
        grid = MomentumGrid4.auto(PUMP, SETUP, n=16, c1=0.2, c2=0.05)
        with pytest.raises(SupportTruncationError):
            getattr(fields_module, route)(Pipeline(PUMP, SETUP, grid), *args)

    @pytest.mark.parametrize("kind, n", [
        (kind, n) for kind in ("single", "double", "wide", "double-wide")
        for n in (16, 32, 64, 128, 256)
        if n <= 128 or "wide" not in kind])
    def test_screened_build_matches_unscreened(self, kind, n):
        # Screening skips only trials that would fail, and the kept trial
        # runs on the live upper-triangle x-pairs of a symmetric table: the
        # accepted K, the kept terms, the error and the y table are those
        # of the full loop on the full table.  The basis product over the
        # live columns alone moves the last bits of some coefficients, so
        # the x table is that of the full loop to rounding, and exactly 0
        # off the envelope support.
        pipe = pipeline_of(kind, n)
        factors = amplitude_factors(pipe)
        x, y, error, v_x = unscreened_factors(pipe)
        assert factors.rank == x.shape[0]
        assert factors.error == error
        assert np.array_equal(factors.y(), y)
        got = factors.x()
        assert np.abs(got - x).max() <= 8 * EPS * np.abs(x).max()
        assert np.all(got[:, v_x == 0] == 0.0)

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    @pytest.mark.parametrize("kind", ["single", "double", "wide"])
    def test_coefficients_only_on_the_envelope_support(self, kind, n):
        # The kept trial samples sinc only where v_x != 0, and the band of
        # anti-diagonals from the least to the largest i + j of those pairs
        # holds them: there the band coefficients are those of a trial on
        # every upper-triangle pair to rounding (the basis product runs on
        # the live columns alone), and elsewhere they are exactly 0.
        pipe = pipeline_of(kind, n)
        factors = amplitude_factors(pipe)
        got = factors.coeffs
        ref, v_x = triangle_coeffs(pipe)
        rows, cols = np.nonzero(v_x)
        assert 0 < rows.size < n * n
        band = rows + cols - factors.s_lo
        assert got.shape == (ref.shape[0], n, band.max() + 1)
        assert band.min() == 0
        ref = ref[:, rows, cols]
        assert (np.abs(got[:, rows, band] - ref).max()
                <= 8 * EPS * np.abs(ref).max())
        off = np.ones(got.shape[1:], dtype=bool)
        off[rows, band] = False
        assert np.all(got[:, off] == 0.0)

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    @pytest.mark.parametrize("kind", ["single", "double", "wide"])
    def test_pair_tables_are_symmetric(self, kind, n):
        # The factor build samples its trial on the band's upper half alone
        # and mirrors it onto the lower half, with one envelope for v_x and
        # v_y, and the guard walks the band's upper half: both rest on a, b
        # and the envelopes equalling their transposes, and v_y equalling
        # v_x, exactly.
        from biphoton import dispersion
        from biphoton.phasematch import pump_envelope

        pipe = pipeline_of(kind, n)
        setup, q = pipe.setup, pipe.grid.q_axis
        rows, cols = q[:, None], q[None, :]
        ctx = dispersion.make_context(setup.theta_p, PUMP.wavelength)
        a, b = dispersion.mismatch_split(TransverseMomentum(rows, rows),
                                         TransverseMomentum(cols, cols), ctx)
        v_x = pump_envelope(TransverseMomentum(rows + cols, 0.0), PUMP)
        v_y = pump_envelope(TransverseMomentum(0.0, rows + cols), PUMP)
        for table in (a, b, v_x, v_y):
            assert table.shape == (n, n)
            assert np.array_equal(table, table.T)
        assert np.array_equal(v_y, v_x)

    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_one_full_trial_at_default_extent(self, kind, monkeypatch):
        # The K = 16 trial fails on the envelope ridge, so only the K = 32
        # trial that is kept samples sinc off the ridge, and only on the
        # upper-triangle x-pairs of the symmetric table where v_x != 0.
        import biphoton.fields as fields_module
        from biphoton.phasematch import pump_envelope
        n = 64
        full = []
        sinc_of = fields_module.sinc

        def counted(arg):
            if arg.shape[1:] != (n - 1,):  # not the ridge probe
                full.append(arg.size)
            return sinc_of(arg)

        monkeypatch.setattr(fields_module, "sinc", counted)
        pipe = pipeline_of(kind, n)
        amplitude_factors(pipe)
        q = pipe.grid.q_axis
        upper = np.triu_indices(n)
        v_x = pump_envelope(TransverseMomentum(q[upper[0]] + q[upper[1]],
                                               0.0), PUMP)
        support = np.count_nonzero(v_x)
        assert support == {"single": 675, "double": 339}[kind]
        assert sum(full) == 32 * support

    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_conditional_builds_no_complex_table(self, kind, monkeypatch):
        # The direct conditional contracts the real tables with the idler
        # phases; neither complex factor table is ever built.
        import biphoton.fields as fields_module

        setup = SETUPS[kind]
        grid = MomentumGrid4.auto(PUMP, setup, n=32)
        rhos = [(0.0, 0.0), (grid.x_axis[18], grid.x_axis[15]),
                (0.3 * grid.dx, -1.7 * grid.dx)]
        refs = [conditional_position_direct(PUMP, setup, 5e-3, grid,
                                            rho_i0=rho) for rho in rhos]

        def refuse(*args):
            raise AssertionError("complex factor table built")

        monkeypatch.setattr(fields_module, "_complex_table", refuse)
        factors = amplitude_factors(Pipeline(PUMP, setup, grid))
        for table in (factors.x, factors.y):
            with pytest.raises(AssertionError, match="complex factor table"):
                table()
        for rho, ref in zip(rhos, refs):
            got = conditional_position_direct(PUMP, setup, 5e-3, grid,
                                              rho_i0=rho)
            assert np.array_equal(got.values, ref.values)

    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_real_contraction_matches_tables(self, kind):
        # The contraction of a real band table with w is the complex
        # table's product with w, to rounding.
        from biphoton.fields import _contract

        factors = amplitude_factors(pipeline_of(kind, 32))
        rng = np.random.default_rng(5)
        w = np.exp(2j * np.pi * rng.random(32))
        for table, values, phase in (
                (factors.x(), factors.coeffs, factors.phase_x),
                (factors.y(), factors.cheb, factors.phase_y)):
            got = _contract(values, phase, w, factors.s_lo)
            ref = table @ w
            assert got.shape == ref.shape == (factors.rank, 32)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_band_wider_than_the_grid(self, kind):
        # On a grid far too small for the envelope, v_x is nowhere 0 and
        # the band holds all 2n - 1 anti-diagonals: the complex tables are
        # scattered entry by entry, with the values of the full build.
        from biphoton.fields import _contract

        setup = SETUPS[kind]
        grid = MomentumGrid4.auto(PUMP, setup, n=16, c1=0.2, c2=0.05)
        pipe = Pipeline(PUMP, setup, grid)
        factors = amplitude_factors(pipe)
        assert factors.coeffs.shape[2] == 2 * 16 - 1
        x, y, *_ = unscreened_factors(pipe)
        assert np.array_equal(factors.x(), x)
        assert np.array_equal(factors.y(), y)
        w = np.exp(2j * np.pi * np.random.default_rng(6).random(16))
        got = _contract(factors.coeffs, factors.phase_x, w, factors.s_lo)
        assert np.abs(got - x @ w).max() <= 1e-14 * np.abs(x @ w).max()

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_conditional_matches_dense_tables(self, kind, n):
        # Beyond the reach of the 4D oracle: the conditional from the band
        # contractions against the same sums over the complex n x n tables.
        pipe = pipeline_of(kind, n)
        factors, grid = amplitude_factors(pipe), pipe.grid
        x, y = factors.x(), factors.y()
        q, z = grid.q_axis, 7.5e-3
        propagation = np.exp(-1j * q**2 * z / (2.0 * factors.k))
        for node in ((n // 2, n // 2), (n // 2 + 3, n // 2 - 2)):
            x0, y0 = grid.x_axis[node[0]], grid.x_axis[node[1]]
            b = ((x @ (np.exp(1j * q * x0) * propagation)).T
                 @ (y @ (np.exp(1j * q * y0) * propagation)))
            b *= propagation[:, None] * propagation[None, :]
            psi = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(b)))
            ref = np.abs(psi) ** 2
            ref /= ref.sum() * grid.dx**2
            got = conditional_position_direct(PUMP, pipe.setup, z, grid,
                                              rho_i0=(x0, y0))
            assert self.rel_err(ref, got.values) <= 1e-13

    def test_conditional_budget_counts_the_band(self):
        # The direct conditional builds no complex table: the least budget
        # it admits counts the factor build, the real band tables and its
        # own R x n and n x n tables, under a tenth of the two complex
        # R x n^2 tables, and its traced peak stays within it and at or
        # above eight tenths of it (stage_case); one byte less is refused
        # at the conditional tables' check, before the transform.
        n = 256
        case = stage_case("conditional", "double", n)
        site, what, budget, *_ = case.largest
        rank = amplitude_factors(pipeline_of("double", n)).rank
        peak = peak_of(case.admitted)
        assert 0.8 * budget <= peak <= budget < 2 * rank * n * n * 16 / 10
        assert case.refused == [site] and what == "conditional tables"
        assert case.refusal.startswith(f"{what} need ~{budget} bytes")

    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_factor_build_peak_under_its_budget(self, kind):
        # The build holds no K x n(n+1)/2 table, and each of its stages
        # counts what it holds, not the sum of every table: the build's
        # traced peak stays under its largest count (the least budget it
        # admits, stage_case), and at or above nine tenths of it; one byte
        # less is refused at that count's check.  The wide extent's build
        # is a case of TestStageBudgets.
        case = stage_case("amplitude_factors", kind, 256)
        site, what, need, *_ = case.largest
        assert 0.9 * need <= peak_of(case.stages) < need
        assert case.refused == [site] and what.endswith("amplitude factors")
        assert case.refusal.startswith(f"{what} need ~{need} bytes")

    @pytest.mark.parametrize("route, args", [
        ("averaged_joints_x", ([0.0],)),
        ("position_factors", (7.5e-3,)),
    ])
    def test_budget_refuses_the_complex_tables(self, route, args,
                                               monkeypatch):
        # The routes that build both complex R x n^2 tables check them
        # against the budget before either is built.
        import biphoton.fields as fields_module

        def refuse(*args):
            raise AssertionError("complex factor table built")

        monkeypatch.setattr(fields_module, "_complex_table", refuse)
        setup = SETUPS["double"]
        pipe = Pipeline(PUMP, setup, MomentumGrid4.auto(PUMP, setup, n=256),
                        memory_budget=100e6)
        with pytest.raises(MemoryBudgetError, match="complex factor tables"):
            getattr(fields_module, route)(pipe, *args)

    @pytest.mark.parametrize("route", ["averaged_joints_x-2z",
                                       "averaged_joints_x-0z",
                                       "position_factors", "singles_direct"])
    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_complex_routes_within_their_budget(self, kind, route):
        # Each route that builds the complex tables counts its largest
        # stage: under the least budget it admits, its traced peak stays
        # within it (stage_case); one byte less is refused at the complex
        # tables' check, before either is built.  The wide extent's routes
        # are cases of TestStageBudgets.
        case = stage_case(route, kind, 128)
        site, what, budget, *_ = case.largest
        assert peak_of(case.admitted) <= budget and case.refused == [site]
        assert case.refusal.startswith(f"{what} need ~{budget} bytes")
        assert what.endswith("complex factor tables")

    def test_position_factors_peak(self):
        # Each complex table is built from the real tables, phased in
        # place and transformed before the next is built: fewer than five
        # R n^2 tables are alive at once (six when both were built first).
        peak = peak_of(stage_case("position_factors", "double", 128).stages)
        pipe = pipeline_of("double", 128)
        assert peak < 5 * amplitude_factors(pipe).rank * 128**2 * 16

    @pytest.mark.parametrize("route, tables", [
        ("averaged_joints_x-2z", 3.1), ("position_factors", 2.2),
    ], ids=["averaged_joints_x-args0-3.1", "position_factors-args1-2.2"])
    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_transforms_allocate_no_table(self, kind, route, tables):
        # The FFT runs in place: beyond the real tables, the joints peak at
        # under three complex R x n^2 tables (W, the phased buffer and
        # |.|^2) and the position factors at the two transformed tables,
        # where a fresh FFT output and its intermediate added two more.
        factors = amplitude_factors(pipeline_of(kind, 128))
        peak = peak_of(stage_case(route, kind, 128).stages)
        table = factors.rank * 128**2 * 16
        assert peak - factors.nbytes <= tables * table

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("kind", ["single", "double"])
    def test_singles_gram_copies_no_table(self, kind, n):
        # The Gram step conjugates one block of n/16 signal coordinates at
        # a time: beyond the real tables, the singles peak at X, Y and the
        # two n x R x R Gram tables, with 1/8 of a table for the block and
        # small arrays, where a conjugate of a whole table added one more.
        factors = amplitude_factors(pipeline_of(kind, n))
        peak = peak_of(stage_case("singles_direct", kind, n).stages)
        table = factors.rank * n**2 * 16
        assert peak - factors.nbytes <= (2 + 2 * factors.rank / n
                                         + 1 / 8) * table

    def test_transform_is_ifft2_of_the_phased_table(self):
        # Two in-place 1D passes give np.fft.ifft2's bits, into a separate
        # buffer and into the table itself.
        from biphoton.fields import _transform, _transform_phase

        rng = np.random.default_rng(7)
        for n in (8, 16, 32, 64, 128, 256):
            q = MomentumGrid4.auto(PUMP, SETUP, n=n).q_axis
            phase = _transform_phase(q, 7.5e-3, 1.47e7)
            table = (rng.standard_normal((3, n, n))
                     + 1j * rng.standard_normal((3, n, n)))
            ref = np.fft.ifft2(table * phase, axes=(-2, -1))
            out = np.empty_like(table)
            assert _transform(table, phase, out) is out
            assert np.array_equal(out, ref)
            assert np.array_equal(_transform(table, phase, table), ref)

    def test_double_second_half_is_conjugate(self):
        factors = amplitude_factors(pipeline_of("double", 32))
        half = factors.rank // 2
        x, y = factors.x(), factors.y()
        assert np.array_equal(x[half:], x[:half].conj())
        assert np.array_equal(y[half:], y[:half].conj())


class TestProcessTables:
    """The tables the engine builds once per process (``PROCESS_CACHES``):
    the band layouts of the factor tables, which depend on the grid and the
    pump alone, and the Chebyshev bases, which depend on K alone."""

    def test_cached_arrays_are_read_only(self):
        for arrays in (_band(16, 14, 5), _chebyshev(CHEB_START)):
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    @pytest.mark.parametrize("n", [16, 64])
    def test_warm_caches_give_the_same_bytes(self, n):
        # Each crystal's factor tables and direct conditional from cleared
        # caches, then twice more in turn with the caches filled by both
        # crystals' grids and trials: the same bytes.
        def outputs(kind):
            pipe = pipeline_of(kind, n)
            return pickle.dumps((amplitude_factors(pipe),
                                 ROUTES["conditional"](pipe).values))

        cold = {}
        for kind in ("single", "double"):
            for cache in PROCESS_CACHES:
                cache.cache_clear()
            cold[kind] = outputs(kind)
        for kind in ("single", "double") * 2:
            assert outputs(kind) == cold[kind], kind

    def test_caches_stay_bounded(self):
        # Four grids on three extents (K up to 128, and more than four band
        # layouts) and two larger K: each cache keeps its last four entries.
        # The stage recorder clears exactly these caches.
        assert set(PROCESS_CACHES) == {_band, _chebyshev}
        for kind in ("single", "double", "wide"):
            for n in (16, 32, 64, 128):
                ROUTES["conditional"](pipeline_of(kind, n))
        for nodes in (256, 512):
            _chebyshev(nodes)
        for cache in PROCESS_CACHES:
            assert cache.cache_info().currsize <= 4


#: (route, kind, n) of the stage test: every route on both crystals, the
#: rank-R routes at n = 16-256 (the guard at 512 and 1024 too), the
#: routes past the factor build on the wide extent at n = 128 (rank 67)
#: and its factor build at 256, ``frames synth`` at n = 16-64, and at
#: n = 16 with 2000 pairs a frame, whose frame blocks hold 800 000 pairs,
#: the frame offsets' widening, and the 4D oracle at n = 16.
STAGE_CASES = (
    [(route, kind, n) for route in list(ROUTES)[:7]
     for kind in ("single", "double") for n in (16, 32, 64, 128, 256)]
    + [(route, "wide", 128) for route in list(ROUTES)[2:7]]
    + [("amplitude_factors", "wide", 256)]
    + [("guard", kind, n) for kind in ("single", "double")
       for n in (512, 1024)]
    + [("frames_synth", kind, n) for kind in ("single", "double")
       for n in (16, 32, 64)]
    + [("frames_synth-2000", kind, 16) for kind in ("single", "double")]
    + [("frame_offsets", "single", 16)]
    + [("4d", kind, 16) for kind in ("single", "double")])

#: Route -> the most its traced peak may hold beyond the real factor
#: tables from n = 128, in complex R x n^2 tables, given (R, n).  The FFT
#: runs in place: the joints hold W, the phased buffer and |.|^2, and the
#: position factors the two transformed tables.  The singles' Gram step
#: conjugates one block of n/16 signal coordinates at a time: X, Y, the
#: two n x R x R Gram tables and 1/8 of a table.
TABLE_CEILINGS = {
    "averaged_joints_x-2z": lambda rank, n: 3.1,
    "position_factors": lambda rank, n: 2.2,
    "singles_direct": lambda rank, n: 2 + 2 * rank / n + 1 / 8,
}


#: A stage case's traces under the default budget, at its largest count and
#: one byte under it, that count's stage, the third run's refusing sites and
#: message, and the SHA-256 of the default run's pickled output.
StageCase = namedtuple(
    "StageCase", "stages admitted before largest refused refusal digest")


@functools.cache
def stage_case(route, kind, n):
    """The stage case (route, kind, n) traced once under the default
    budget, at its largest stage's count, and one byte under that count:
    each stage's traced peak stays within its declared bytes in all three
    runs; the second is admitted and returns the bytes of the first; and
    the third is refused by the largest stage's own check, before that
    stage allocates."""
    pipe = pipeline_of(kind, n)

    def run(budget):
        return ROUTES[route](Pipeline(pipe.pump, pipe.setup, pipe.grid,
                                      memory_budget=budget))

    got, stages, _ = traced_stages(lambda: run(MEMORY_BUDGET))
    largest = max(stages, key=lambda stage: stage.need)
    tight, admitted, _ = traced_stages(lambda: run(largest.need))
    assert not isinstance(tight, MemoryBudgetError), str(tight)
    assert pickle.dumps(tight) == pickle.dumps(got)
    refusal, before, refused = traced_stages(lambda: run(largest.need - 1))
    assert isinstance(refusal, MemoryBudgetError)
    assert refused == [largest.site]
    assert f"{largest.what} need ~{largest.need} bytes" in str(refusal)
    for site, what, need, peak, *_ in stages + admitted + before:
        assert peak <= need, f"{what} ({site}): traced {peak} > {need}"
    return StageCase(stages, admitted, before, largest, refused,
                     str(refusal), hashlib.sha256(pickle.dumps(got)).digest())


class TestStageBudgets:
    @pytest.mark.parametrize("route, kind, n", STAGE_CASES,
                             ids=[f"{r}-{k}-{n}" for r, k, n in STAGE_CASES])
    def test_stages_within_their_counts(self, route, kind, n):
        # Each memory check declares the stage that follows it: from the
        # check to the next one or to the route's end, the traced peak stays
        # within the declared bytes.  Under a budget of the largest count
        # the route runs to the default budget's bytes, and one byte under
        # it the route is refused at that stage's check.  From n = 128 the
        # routes of TABLE_CEILINGS stay under their ceilings.  At n = 256
        # the direct conditional peaks at 0.95 of its largest count or
        # more, a count under a fifth of a complex table on the double
        # crystal, and the factor build at 0.9 of its largest count or
        # more.  Every stage of the factor build traces at most 128 KiB
        # beyond its declared arrays.
        case = stage_case(route, kind, n)
        pipe = pipeline_of(kind, n)
        need, peak = case.largest[2], peak_of(case.stages)
        if n >= 128 and route in TABLE_CEILINGS:
            factors = amplitude_factors(pipe)
            ceiling = TABLE_CEILINGS[route](factors.rank, n)
            assert peak - factors.nbytes <= ceiling * factors.rank * n**2 * 16
        if n == 256 and route == "conditional":
            assert peak >= 0.95 * need
            if kind == "double":
                rank = amplitude_factors(pipe).rank
                assert need < 0.2 * rank * n**2 * 16
        if n == 256 and route == "amplitude_factors":
            need, peak = max((need, peak) for _, what, need, peak, *_
                             in case.stages
                             if what.endswith("amplitude factors"))
            assert peak >= 0.9 * need
        for site, what, need, peak, *_ in case.stages + case.admitted + \
                case.before:
            if what.endswith("amplitude factors"):
                excess = peak - (need - STAGE_ALLOWANCE)
                assert excess <= 128 * 1024, \
                    f"{what} ({site}): {excess} bytes beyond its arrays"

    def test_every_check_is_traced(self):
        # Every call of _check_stage in the package is reached by a stage
        # case at n = 16, so a new route cannot skip being traced.
        import biphoton

        where = os.path.dirname(biphoton.__file__)
        sites = set()
        for name in os.listdir(where):
            if name.endswith(".py"):
                with open(os.path.join(where, name)) as fh:
                    tree = ast.parse(fh.read())
                sites |= {(name, node.lineno) for node in ast.walk(tree)
                          if isinstance(node, ast.Call) and "_check_stage"
                          in (getattr(node.func, "id", None),
                              getattr(node.func, "attr", None))}
        reached = {site for route, kind, n in STAGE_CASES if n == 16
                   for site, *_ in stage_case(route, kind, n).stages[1:]}
        assert reached == sites

    def test_stage_times_split_the_call(self):
        # A call's stages open one after another from its start and close
        # at its end, so their times sum to its wall time; tracemalloc
        # moves no stage: the same sites, names and counts without it.
        def call():
            return ROUTES["averaged_joints_x-2z"](pipeline_of("double", 64))

        traced = traced_stages(call)[1]
        start = time.perf_counter()
        _, stages, _ = traced_stages(call, memory=False)
        wall = time.perf_counter() - start
        assert start <= stages[0].opened and {s.peak for s in stages} == {None}
        ends = [s.opened + s.seconds for s in stages]
        assert max(abs(s.opened - end) for s, end in zip(stages[1:], ends)) \
            < 1e-9
        total = sum(s.seconds for s in stages)
        assert ends[-1] - stages[0].opened == pytest.approx(total, abs=1e-9)
        assert 0.9 * wall <= total <= wall
        assert [s[:3] for s in stages] == [s[:3] for s in traced]

    def test_recorder_unset_after_an_error(self):
        # A call that raises past a check leaves no recorder set.
        def call():
            _check_stage(MEMORY_BUDGET, "a stage", 16)
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            traced_stages(call)
        assert STAGE_RECORDER.get() is None

    def test_check_without_a_recorder(self):
        # With no recorder set, a check returns its count or raises.
        assert STAGE_RECORDER.get() is None
        arrays = (((2, 3), np.complex128), 100)
        need = STAGE_ALLOWANCE + 2 * 3 * 16 + 100
        assert _check_stage(need, "a stage", *arrays) == need
        with pytest.raises(MemoryBudgetError, match=re.escape(
                f"a stage need ~{need} bytes (> budget {need - 1} bytes)")):
            _check_stage(need - 1, "a stage", *arrays)
