"""Discretized two-photon fields: 4-axis momentum grids, propagation,
position-space transform, and reductions to joint/conditional/singles
distributions; a streaming engine gives the x-averaged joints without the
4-axis amplitude (:func:`averaged_joints_x`).

Conventions
-----------
Axes are ordered (q_sx, q_sy, q_ix, q_iy) in momentum space and
(x_s, y_s, x_i, y_i) in position space.  Each axis is sampled at the N
centered points q_n = (n - N/2) dq; the conjugate position grid uses
dx = 2*pi / (N dq), so x_m = (m - N/2) dx and dx*dq = 2*pi/N exactly.

The position transform implements, per axis,

    psi(x_m) = (dq / sqrt(2*pi)) * sum_n A(q_n) exp(+i q_n x_m)

i.e. the Riemann sum of the continuum Fourier integral in the symmetric
(1/sqrt(2*pi) per axis) convention.  With dx*dq = 2*pi/N this is unitary
with respect to the bin-volume-weighted norms, so total probability is
conserved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

from .dispersion import BBO, SellmeierModel, TransverseMomentum, make_context
from .phasematch import (CrystalSetup, PumpSpec, momentum_amplitude,
                         pump_envelope)
from . import dispersion

TWO_PI = 2.0 * math.pi

#: Default per-axis sample count.
DEFAULT_N = 64

#: Default coefficients of the automatic momentum-extent rule.
EXTENT_C1 = 6.0
EXTENT_C2 = 1.5

#: Default peak-relative boundary magnitude above which the grid is declared
#: too small.  The sinc tail of the phase-matching function decays only
#: algebraically, so this cannot be pushed arbitrarily low at feasible grid
#: sizes; 0.1 catches truncation of the pump envelope or of the main
#: phase-matching lobe.
BOUNDARY_TOLERANCE = 0.1

#: Default memory budget for 4D allocations, bytes.
MEMORY_BUDGET = 6 * 1024**3

#: Pessimistic working-set multiple of one N^4 complex array for a transform.
WORKING_FACTOR = 4

#: Relative pump-envelope level below which the streaming engine skips a
#: y-pair.  |Phi| <= 1, so a skipped slab is below this fraction of the
#: envelope peak everywhere: the skip is exact to float64.
Y_PAIR_CUT = 2.0**-52


class GridError(ValueError):
    """Grid construction or grid/operation mismatch."""


class SupportTruncationError(GridError):
    """Amplitude magnitude at the grid boundary is too large."""


class MemoryBudgetError(MemoryError):
    """Predicted working set exceeds the configured budget."""


@dataclass(frozen=True)
class MomentumGrid4:
    """Four identical centered axes: n points of width dq each."""

    n: int
    dq: float

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise GridError(f"n must be a power of two >= 8, got {self.n}")
        if self.dq <= 0:
            raise GridError(f"dq must be > 0, got {self.dq}")

    @property
    def dx(self) -> float:
        return TWO_PI / (self.n * self.dq)

    @property
    def q_axis(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dq

    @property
    def x_axis(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx

    @classmethod
    def auto(cls, pump: PumpSpec, setup: CrystalSetup, n: int = DEFAULT_N,
             c1: float = EXTENT_C1, c2: float = EXTENT_C2,
             model: SellmeierModel = BBO) -> "MomentumGrid4":
        """Choose dq so the grid covers pump envelope plus phase-matching ring.

        The half-extent is q_max = c1/w0 + c2 * sqrt(4*pi / (L lam_s / (2*pi n_so))),
        the second term being the momentum scale of the first sinc zero.
        """
        n_so = dispersion.refractive_index("o", pump.lambda_signal, model)
        ring = math.sqrt(4.0 * math.pi * TWO_PI * n_so
                         / (setup.length * pump.lambda_signal))
        q_max = c1 / pump.waist + c2 * ring
        return cls(n=n, dq=2.0 * q_max / n)


@dataclass(frozen=True)
class BiphotonAmplitude4:
    """Complex amplitude on the 4-axis grid with basis tag and z bookkeeping.

    ``k`` is the scalar down-converted wavenumber n_so * K_s0 (equal for
    signal and idler in the degenerate configuration) used in the
    propagation phases.
    """

    grid: MomentumGrid4
    values: np.ndarray
    basis: str  # "momentum" | "position"
    k: float
    z: float = 0.0

    def __post_init__(self):
        if self.basis not in ("momentum", "position"):
            raise GridError(f"basis must be momentum|position, got {self.basis!r}")
        n = self.grid.n
        if self.values.shape != (n, n, n, n):
            raise GridError(f"values shape {self.values.shape} != {(n,) * 4}")

    @property
    def bin_volume(self) -> float:
        d = self.grid.dq if self.basis == "momentum" else self.grid.dx
        return d**4


@dataclass(frozen=True)
class Distribution:
    """Non-negative probability array with axis metadata.

    ``deltas`` are per-axis bin widths; when ``normalized`` the values sum to
    one under the product bin volume.
    """

    values: np.ndarray
    axis_names: tuple[str, ...]
    deltas: tuple[float, ...]
    basis: str
    units: str
    normalized: bool = True

    def __post_init__(self):
        if self.values.ndim != len(self.axis_names) or self.values.ndim != len(self.deltas):
            raise GridError("axis metadata does not match array rank")

    @property
    def bin_volume(self) -> float:
        return float(np.prod(self.deltas))

    def total(self) -> float:
        return float(self.values.sum() * self.bin_volume)


def _normalize(values: np.ndarray, bin_volume: float) -> np.ndarray:
    total = values.sum() * bin_volume
    if total <= 0:
        raise GridError("cannot normalize: total mass is zero")
    return values / total


def _boundary_max(values: np.ndarray) -> float:
    """Largest magnitude on the 4D hull of the array."""
    best = 0.0
    for axis in range(4):
        for face in (0, -1):
            sl = [slice(None)] * 4
            sl[axis] = face
            best = max(best, float(np.abs(values[tuple(sl)]).max()))
    return best


def _check_boundary(edge: float, peak: float, boundary_tol: float) -> None:
    if edge > boundary_tol * peak:
        raise SupportTruncationError(
            f"boundary magnitude {edge / peak:.3e} of peak exceeds "
            f"{boundary_tol:g}; enlarge the momentum extent (c1/c2 or n)")


def build_amplitude(grid: MomentumGrid4, pump: PumpSpec, setup: CrystalSetup,
                    model: SellmeierModel = BBO,
                    boundary_tol: float | None = BOUNDARY_TOLERANCE,
                    paraxial: str = "warn") -> BiphotonAmplitude4:
    """Sample the momentum amplitude on the grid and L2-normalize it.

    Raises :class:`SupportTruncationError` when the boundary magnitude
    exceeds ``boundary_tol`` times the peak (pass None to skip the check).
    """
    ctx = make_context(setup.theta_p, pump.wavelength, model)
    q = grid.q_axis
    # Separable broadcasting: axes (sx, sy, ix, iy).
    values = momentum_amplitude(
        TransverseMomentum(q[:, None, None, None], q[None, :, None, None]),
        TransverseMomentum(q[None, None, :, None], q[None, None, None, :]),
        pump, setup, ctx=ctx, paraxial=paraxial)
    values = np.asarray(values, dtype=np.complex128)

    peak = float(np.abs(values).max())
    if peak == 0.0:
        raise GridError("amplitude is identically zero on the grid")
    if boundary_tol is not None:
        _check_boundary(_boundary_max(values), peak, boundary_tol)

    norm = math.sqrt(float((np.abs(values) ** 2).sum()) * grid.dq**4)
    values /= norm
    return BiphotonAmplitude4(grid=grid, values=values, basis="momentum",
                              k=ctx.k_signal, z=0.0)


def propagate(amp: BiphotonAmplitude4, z: float) -> BiphotonAmplitude4:
    """Apply the paraxial free-propagation phase for an extra distance z.

    Multiplies by exp[-i (|q_s|^2 + |q_i|^2) z / (2 k)] with the scalar
    signal/idler wavenumber k = n_so * K_s0 (degenerate, so k_s = k_i).
    Phase-only: the pointwise modulus is unchanged.
    """
    if amp.basis != "momentum":
        raise GridError("propagate requires a momentum-basis amplitude")
    if z == 0.0:
        return amp
    q_sq = amp.grid.q_axis**2
    phase_1d = np.exp(-1j * q_sq * z / (2.0 * amp.k))
    values = amp.values * phase_1d[:, None, None, None]
    values *= phase_1d[None, :, None, None]
    values *= phase_1d[None, None, :, None]
    values *= phase_1d[None, None, None, :]
    return replace(amp, values=values, z=amp.z + z)


def _centered_ift_axis(values: np.ndarray, axis: int, dq: float) -> np.ndarray:
    """One axis of psi_m = (dq/sqrt(2pi)) sum_n A_n e^{i q_n x_m} (unitary)."""
    n = values.shape[axis]
    ramp = np.exp(-1j * np.pi * np.arange(n))  # carries the -N/2 offsets
    shape = [1] * values.ndim
    shape[axis] = n
    ramp = ramp.reshape(shape)
    out = np.fft.ifft(values * ramp, axis=axis)
    out *= ramp
    out *= n * dq / math.sqrt(TWO_PI) * np.exp(1j * np.pi * n / 2.0)
    return out


def estimate_transform_bytes(grid: MomentumGrid4) -> int:
    return grid.n**4 * 16 * WORKING_FACTOR


def to_position(amp: BiphotonAmplitude4,
                memory_budget: int = MEMORY_BUDGET) -> BiphotonAmplitude4:
    """Transform all four axes to position space (unitary, centered).

    Fails with :class:`MemoryBudgetError` before allocating when the
    estimated working set exceeds ``memory_budget`` bytes.
    """
    if amp.basis != "momentum":
        raise GridError("to_position requires a momentum-basis amplitude")
    need = estimate_transform_bytes(amp.grid)
    if need > memory_budget:
        raise MemoryBudgetError(
            f"4D transform needs ~{need / 1024**3:.2f} GiB "
            f"(> budget {memory_budget / 1024**3:.2f} GiB); reduce n")
    values = amp.values
    for axis in range(4):
        values = _centered_ift_axis(values, axis, amp.grid.dq)
    return BiphotonAmplitude4(grid=amp.grid, values=values,
                              basis="position", k=amp.k, z=amp.z)


def pdf(amp: BiphotonAmplitude4) -> Distribution:
    """Squared modulus of the amplitude, normalized, with axis metadata."""
    values = np.abs(amp.values) ** 2
    if amp.basis == "momentum":
        names = ("q_sx", "q_sy", "q_ix", "q_iy")
        delta, units = amp.grid.dq, "rad/m"
    else:
        names = ("x_s", "y_s", "x_i", "y_i")
        delta, units = amp.grid.dx, "m"
    values = _normalize(values, delta**4)
    return Distribution(values=values, axis_names=names, deltas=(delta,) * 4,
                        basis=amp.basis, units=units)


def momentum_pdf(amp: BiphotonAmplitude4) -> Distribution:
    """Joint momentum distribution |V Phi|^2; independent of z."""
    if amp.basis != "momentum":
        raise GridError("momentum_pdf requires a momentum-basis amplitude")
    return pdf(amp)


def position_pdf(amp: BiphotonAmplitude4) -> Distribution:
    if amp.basis != "position":
        raise GridError("position_pdf requires a position-basis amplitude")
    return pdf(amp)


def averaged_joint_x(dist4: Distribution) -> Distribution:
    """Sum out both y-type axes, leaving the (x_s, x_i) joint, renormalized."""
    if dist4.values.ndim != 4:
        raise GridError("averaged_joint_x requires a 4D distribution")
    values = dist4.values.sum(axis=(1, 3)) * dist4.deltas[1] * dist4.deltas[3]
    bin_area = dist4.deltas[0] * dist4.deltas[2]
    return Distribution(values=_normalize(values, bin_area),
                        axis_names=(dist4.axis_names[0], dist4.axis_names[2]),
                        deltas=(dist4.deltas[0], dist4.deltas[2]),
                        basis=dist4.basis, units=dist4.units)


class DegenerateConditionError(ValueError):
    """Conditioning slice carries numerically no probability."""


def conditional_position(dist4: Distribution, rho_i0=(0.0, 0.0),
                         axes=None) -> Distribution:
    """Signal distribution conditioned on idler detection at rho_i0.

    The idler point is snapped to the nearest grid node (camera-pixel
    interpretation); the slice is renormalized.
    """
    if dist4.values.ndim != 4:
        raise GridError("conditional_position requires a 4D distribution")
    n = dist4.values.shape[2]
    if axes is None:
        axes = [(np.arange(n) - n // 2) * dist4.deltas[2],
                (np.arange(dist4.values.shape[3]) - dist4.values.shape[3] // 2)
                * dist4.deltas[3]]
    ix = int(np.argmin(np.abs(axes[0] - rho_i0[0])))
    iy = int(np.argmin(np.abs(axes[1] - rho_i0[1])))
    sl = dist4.values[:, :, ix, iy]
    total4 = dist4.values.sum()
    if sl.sum() < 1e-12 * total4:
        raise DegenerateConditionError(
            f"conditioning slice at node ({ix}, {iy}) holds < 1e-12 of the total")
    bin_area = dist4.deltas[0] * dist4.deltas[1]
    return Distribution(values=_normalize(sl.copy(), bin_area),
                        axis_names=dist4.axis_names[:2],
                        deltas=dist4.deltas[:2],
                        basis=dist4.basis, units=dist4.units)


def _dot_phase(values: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Contract the last axis of ``values`` with the complex vector ``phase``.

    One real matrix product: a real array meets the (Re, Im) columns of the
    phase, a complex array is read as interleaved (Re, Im) pairs against the
    matching 2x2 blocks.  Neither copies ``values`` to a new complex array,
    and a real product avoids BLAS's threaded complex matrix-vector kernel,
    whose start-up dominates at these sizes.
    """
    re, im = phase.real, phase.imag
    if np.iscomplexobj(values):
        values = values.view(np.float64)
        cols = np.stack([re, im, -im, re], axis=1).reshape(-1, 2)
    else:
        cols = np.stack([re, im], axis=1)
    out = values.reshape(-1, values.shape[-1]) @ cols
    return out.view(np.complex128).reshape(values.shape[:-1])


def conditional_position_direct(pump: PumpSpec, setup: CrystalSetup,
                                z: float, grid: MomentumGrid4,
                                rho_i0=(0.0, 0.0),
                                model: SellmeierModel = BBO) -> Distribution:
    """Conditional signal distribution without the 4D transform.

    The amplitude at a fixed idler point factors through a 2D transform of
    B(q_s) = sum_{q_i} A(q_s, q_i) exp(i q_i . rho_i0), so much finer grids
    fit in memory than the full 4D path allows: O(n^3) storage for one q_sx
    slab of A, O(n^4) work.  The idler phase (position and propagation) is
    separable, so each slab is contracted with its y factor and then its x
    factor through BLAS; the signal propagation phase multiplies B once.
    Matches ``conditional_position`` of the 4D pipeline on shared grids when
    rho_i0 lies on a node.
    """
    ctx = make_context(setup.theta_p, pump.wavelength, model=model)
    q = grid.q_axis
    n = grid.n
    k = ctx.k_signal
    x0, y0 = rho_i0
    propagation = np.exp(-1j * q**2 * z / (2.0 * k))
    phase_x = np.exp(1j * q * x0) * propagation
    phase_y = np.exp(1j * q * y0) * propagation
    b = np.empty((n, n), dtype=np.complex128)
    for i, qsx in enumerate(q):
        # Axes (q_sy, q_ix, q_iy).
        slab = momentum_amplitude(
            TransverseMomentum(qsx, q[:, None, None]),
            TransverseMomentum(q[None, :, None], q[None, None, :]),
            pump, setup, model=model, ctx=ctx)
        b[i] = _dot_phase(_dot_phase(slab, phase_y), phase_x)
    b *= propagation[:, None] * propagation[None, :] * grid.dq**2
    psi = _centered_ift_axis(_centered_ift_axis(b, 0, grid.dq), 1, grid.dq)
    values = np.abs(psi) ** 2
    total = values.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise DegenerateConditionError(
            f"conditional amplitude at rho_i0 = {rho_i0} carries no probability")
    bin_area = grid.dx * grid.dx
    return Distribution(values=_normalize(values, bin_area),
                        axis_names=("x_s", "y_s"),
                        deltas=(grid.dx, grid.dx),
                        basis="position", units="m")


def singles(dist4: Distribution) -> Distribution:
    """One-photon (signal) image: sum over both idler axes."""
    if dist4.values.ndim != 4:
        raise GridError("singles requires a 4D distribution")
    values = dist4.values.sum(axis=(2, 3)) * dist4.deltas[2] * dist4.deltas[3]
    bin_area = dist4.deltas[0] * dist4.deltas[1]
    return Distribution(values=_normalize(values, bin_area),
                        axis_names=dist4.axis_names[:2],
                        deltas=dist4.deltas[:2],
                        basis=dist4.basis, units=dist4.units)


@dataclass(frozen=True)
class Pipeline:
    """Convenience bundle: one source configuration plus its grid and context.

    Builds the momentum amplitude once; position-space quantities at any z
    are derived by (cheap) phase multiplication plus transform.
    """

    pump: PumpSpec
    setup: CrystalSetup
    grid: MomentumGrid4
    model: SellmeierModel = BBO
    boundary_tol: float | None = BOUNDARY_TOLERANCE
    memory_budget: int = MEMORY_BUDGET

    def momentum_amplitude(self) -> BiphotonAmplitude4:
        return build_amplitude(self.grid, self.pump, self.setup, self.model,
                               boundary_tol=self.boundary_tol)

    def position_amplitude(self, z: float,
                           amp: BiphotonAmplitude4 | None = None) -> BiphotonAmplitude4:
        if amp is None:
            amp = self.momentum_amplitude()
        amp = propagate(amp, z)
        return to_position(amp, memory_budget=self.memory_budget)

    def momentum_distribution(self, amp: BiphotonAmplitude4 | None = None) -> Distribution:
        if amp is None:
            amp = self.momentum_amplitude()
        return momentum_pdf(amp)

    def position_distribution(self, z: float,
                              amp: BiphotonAmplitude4 | None = None) -> Distribution:
        return position_pdf(self.position_amplitude(z, amp))


# --- streaming engine: x-averaged joints without the N^4 amplitude ---------


@dataclass(frozen=True)
class GridDiagnostics:
    """How well the grid holds the amplitude, from one streaming pass.

    ``boundary_ratio`` is the largest |A| on the hull of the 4D grid over
    the peak |A|.  ``dropped_mass_bound`` bounds the probability of the
    skipped y-pairs relative to the kept total: the sum over skipped pairs
    of v_y^2 * sum v_x^2, which holds because |Phi| <= 1.
    """

    boundary_ratio: float
    y_pairs_kept: int
    y_pairs_total: int
    dropped_mass_bound: float


@dataclass(frozen=True)
class AveragedJoints:
    """The x-averaged momentum joint (independent of z) and one x-averaged
    position joint per z of ``z``, as ``averaged_joint_x`` returns them."""

    z: tuple[float, ...]
    momentum: Distribution
    position: tuple[Distribution, ...]
    diagnostics: GridDiagnostics


def _slab_rows(grid: MomentumGrid4, memory_budget: int) -> int:
    """How many n x n complex slabs a chunk may hold within the budget."""
    need = grid.n**2 * 16 * WORKING_FACTOR
    if need > memory_budget:
        raise MemoryBudgetError(
            f"one {grid.n} x {grid.n} slab needs ~{need} bytes "
            f"(> budget {memory_budget} bytes)")
    return memory_budget // need


def _kept_y_pairs(pipeline: Pipeline) -> tuple[np.ndarray, np.ndarray]:
    """The y-pair envelope v_y on the (q_sy, q_iy) grid and the mask of the
    pairs at or above ``Y_PAIR_CUT`` of its maximum."""
    q = pipeline.grid.q_axis
    v_y = pump_envelope(TransverseMomentum(0.0, q[:, None] + q[None, :]),
                        pipeline.pump)
    return v_y >= Y_PAIR_CUT * v_y.max(), v_y


def _kept_slabs(pipeline: Pipeline, ctx, keep: np.ndarray, rows: int):
    """``momentum_amplitude`` on the (q_sx, q_ix) slab of each kept y-pair,
    in chunks of at most ``rows`` slabs, shape (rows, n, n)."""
    q = pipeline.grid.q_axis
    sy, iy = (q[i][:, None, None] for i in np.nonzero(keep))
    for lo in range(0, sy.shape[0], rows):
        yield momentum_amplitude(
            TransverseMomentum(q[None, :, None], sy[lo:lo + rows]),
            TransverseMomentum(q[None, None, :], iy[lo:lo + rows]),
            pipeline.pump, pipeline.setup, ctx=ctx, paraxial="ignore")


def _edge_max(pipeline: Pipeline, ctx, rows: int) -> float:
    """``_boundary_max`` of the 4D amplitude, one face at a time: each of
    the eight faces is an n^3 evaluation, chunked like the slabs."""
    q = pipeline.grid.q_axis
    best = 0.0
    for axis in range(4):
        for end in (q[0], q[-1]):
            for lo in range(0, q.size, rows):
                free = iter((q[lo:lo + rows, None, None], q[None, :, None],
                             q[None, None, :]))
                sx, sy, ix, iy = (end if a == axis else next(free)
                                  for a in range(4))
                face = momentum_amplitude(
                    TransverseMomentum(sx, sy), TransverseMomentum(ix, iy),
                    pipeline.pump, pipeline.setup, ctx=ctx, paraxial="ignore")
                best = max(best, float(np.abs(face).max()))
    return best


def _guarded_ratio(pipeline: Pipeline, ctx, rows: int, peak: float) -> float:
    """edge / peak, raising where :func:`build_amplitude` raises."""
    if peak == 0.0:
        raise GridError("amplitude is identically zero on the grid")
    edge = _edge_max(pipeline, ctx, rows)
    if pipeline.boundary_tol is not None:
        _check_boundary(edge, peak, pipeline.boundary_tol)
    return edge / peak


def boundary_ratio(pipeline: Pipeline) -> float:
    """The boundary guard of :func:`build_amplitude` without the 4D array.

    The peak comes from the kept y-pair slabs (no skipped slab can exceed
    it) and the edge from the eight hull faces: O(n^3) work.  Raises
    :class:`SupportTruncationError` on the same configurations, with the
    same message; returns the ratio edge / peak.
    """
    ctx = make_context(pipeline.setup.theta_p, pipeline.pump.wavelength,
                       pipeline.model)
    rows = _slab_rows(pipeline.grid, pipeline.memory_budget)
    keep, _ = _kept_y_pairs(pipeline)
    peak = max(float(np.abs(s).max())
               for s in _kept_slabs(pipeline, ctx, keep, rows))
    return _guarded_ratio(pipeline, ctx, rows, peak)


def averaged_joints_x(pipeline: Pipeline, zs) -> AveragedJoints:
    """x-averaged momentum joint and position joints at each z in ``zs``,
    streamed over y-pairs: no N^4 array is allocated.

    With Delta k_z = a(q_sx, q_ix) + b(q_sy, q_iy) and V = v_x v_y, the
    amplitude on y-pair j = (q_sy, q_iy) is the n x n slab A_j of
    ``momentum_amplitude`` over (q_sx, q_ix).  The momentum joint is
    sum_j |A_j|^2.  By Parseval over the two y axes, whose propagation
    phase has unit modulus, the position joint at z is
    sum_j |F_x[A_j P_x(z)]|^2 with P_x(z) = p(q_sx) p(q_ix) and F_x the
    centered transform of both x axes.  Slabs are built once, in chunks
    that fit ``pipeline.memory_budget``, and reused for every z; y-pairs
    with v_y < ``Y_PAIR_CUT`` * max v_y are skipped.  The boundary guard
    and the paraxial check give the verdicts of :func:`build_amplitude`.
    """
    grid, pump = pipeline.grid, pipeline.pump
    zs = tuple(float(z) for z in zs)
    q, n = grid.q_axis, grid.n
    ctx = make_context(pipeline.setup.theta_p, pump.wavelength, pipeline.model)
    dispersion._check_paraxial_all(
        TransverseMomentum(q[:, None, None, None], q[None, :, None, None]),
        TransverseMomentum(q[None, None, :, None], q[None, None, None, :]),
        ctx, "warn")
    keep, v_y = _kept_y_pairs(pipeline)
    rows = _slab_rows(grid, pipeline.memory_budget)
    # Only |F_x[...]|^2 is needed: the output ramp and the constant phase of
    # the centered transform drop out, and its input ramp (-1)^n folds into
    # the propagation phase, leaving one plain 2D inverse FFT per z.
    ramp = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    phases = []
    for z in zs:
        p = np.exp(-1j * q**2 * z / (2.0 * ctx.k_signal)) * ramp
        phases.append(p[:, None] * p[None, :])

    mom = np.zeros((n, n))
    pos = np.zeros((len(zs), n, n))
    peak = 0.0
    for slabs in _kept_slabs(pipeline, ctx, keep, rows):
        mag = np.abs(slabs)
        peak = max(peak, float(mag.max()))
        mom += (mag**2).sum(axis=0)
        for acc, phase in zip(pos, phases):
            psi = scipy.fft.ifft2(slabs * phase, axes=(1, 2), overwrite_x=True)
            acc += (np.abs(psi) ** 2).sum(axis=0)
    ratio = _guarded_ratio(pipeline, ctx, rows, peak)

    v_x = pump_envelope(TransverseMomentum(q[:, None] + q[None, :], 0.0), pump)
    dropped = float((v_y[~keep] ** 2).sum() * (v_x**2).sum() / mom.sum())
    diagnostics = GridDiagnostics(
        boundary_ratio=ratio, y_pairs_kept=int(keep.sum()),
        y_pairs_total=int(keep.size), dropped_mass_bound=dropped)
    momentum = Distribution(values=_normalize(mom, grid.dq**2),
                            axis_names=("q_sx", "q_ix"),
                            deltas=(grid.dq, grid.dq),
                            basis="momentum", units="rad/m")
    position = tuple(
        Distribution(values=_normalize(acc, grid.dx**2),
                     axis_names=("x_s", "x_i"), deltas=(grid.dx, grid.dx),
                     basis="position", units="m")
        for acc in pos)
    return AveragedJoints(z=zs, momentum=momentum, position=position,
                          diagnostics=diagnostics)
