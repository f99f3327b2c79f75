"""Discretized two-photon fields: 4-axis momentum grids, propagation,
position-space transform, and reductions to joint/conditional/singles
distributions.  A rank-R engine writes the amplitude as a sum of separable
x-pair times y-pair terms (:func:`amplitude_factors`) and gives the
x-averaged joints, the direct conditional, the singles and the position
factor tables that camera frames are sampled from without the 4-axis
amplitude.

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

import contextvars
import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dispersion import TransverseMomentum, make_context
from .phasematch import (CrystalSetup, PumpSpec, _phi_split,
                         momentum_amplitude, pump_envelope, sinc)
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

#: Default memory budget for 4D allocations and the rank-R factors, bytes.
MEMORY_BUDGET = 6 * 1024**3

#: Bytes every memory check counts beyond a stage's arrays: numpy's ufunc
#: buffers (128 KiB for each complex operand a call casts or strides, up to
#: three at once) and the interpreter's small objects.
STAGE_ALLOWANCE = 2**19

#: Machine epsilon of float64.
EPS = 2.0**-52

#: Chebyshev nodes of the first trial interpolation of the phase-matching
#: kernel in b; doubled until its coefficients have decayed.
CHEB_START = 16

#: Level, in units of the envelope peak (|A| <= 1), below which the weighted
#: Chebyshev coefficients count as decayed, and up to which trailing terms
#: are dropped.  Above the rounding floor of the coefficients (a few EPS).
CHEB_TOL = 1e-14

#: Multiple of ``CHEB_TOL`` over which a trial's weighted tail on the
#: envelope ridge rejects it before the full table is sampled.  The ridge is
#: a subset of the table, and the coefficients' rounding (about 1e-15) is far
#: below the gap between the two levels.
SCREEN_MARGIN = 4.0


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
        if not (math.isfinite(self.dq) and self.dq > 0):
            raise GridError(f"dq must be finite and > 0, got {self.dq}")

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
             c1: float = EXTENT_C1, c2: float = EXTENT_C2) -> "MomentumGrid4":
        """Choose dq so the grid covers pump envelope plus phase-matching ring.

        The half-extent is q_max = c1/w0 + c2 * sqrt(4*pi / (L lam_s / (2*pi n_so))),
        the second term being the momentum scale of the first sinc zero.
        """
        n_so = dispersion.refractive_index("o", pump.lambda_signal)
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


@dataclass(frozen=True)
class Distribution:
    """Non-negative probability array with axis metadata.

    ``deltas`` are per-axis bin widths; the values sum to one under the
    product bin volume.
    """

    values: np.ndarray
    axis_names: tuple[str, ...]
    deltas: tuple[float, ...]
    basis: str
    units: str

    def __post_init__(self):
        if self.values.ndim != len(self.axis_names) or self.values.ndim != len(self.deltas):
            raise GridError("axis metadata does not match array rank")

    @property
    def bin_volume(self) -> float:
        return float(np.prod(self.deltas))


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


def _nbytes(*arrays) -> int:
    """Bytes of the arrays of a stage (:func:`_check_stage`)."""
    return sum(a if isinstance(a, int)
               else math.prod(a[0]) * np.dtype(a[1]).itemsize
               for a in arrays)


#: The recorder every memory check (:func:`_check_stage`) calls, or None.
STAGE_RECORDER = contextvars.ContextVar("STAGE_RECORDER", default=None)


def _check_stage(budget: int, what: str, *arrays) -> int:
    """The bytes the stage ``what`` needs: its arrays, each a (shape,
    dtype) entry of an array it allocates or the bytes of tables held from
    an earlier stage, and ``STAGE_ALLOWANCE``.  Raises
    :class:`MemoryBudgetError`, before the stage allocates, when they
    exceed ``budget``: every memory check of the package is this one.
    The recorder in :data:`STAGE_RECORDER`, if set, sees each check first,
    as recorder(frame of the caller, what, need, refused)."""
    need = STAGE_ALLOWANCE + _nbytes(*arrays)
    recorder = STAGE_RECORDER.get()
    if recorder:
        recorder(sys._getframe(1), what, need, need > budget)
    if need > budget:
        raise MemoryBudgetError(f"{what} need ~{need} bytes (> budget "
                                f"{budget} bytes)")
    return need


def build_amplitude(grid: MomentumGrid4, pump: PumpSpec, setup: CrystalSetup,
                    boundary_tol: float | None = BOUNDARY_TOLERANCE,
                    memory_budget: int = MEMORY_BUDGET) -> BiphotonAmplitude4:
    """Sample the momentum amplitude on the grid and L2-normalize it.

    Raises :class:`SupportTruncationError` when the boundary magnitude
    exceeds ``boundary_tol`` times the peak (pass None to skip the check),
    and :class:`MemoryBudgetError` before allocating when the N^4 arrays
    alive at once exceed ``memory_budget`` bytes.
    """
    # 41 bytes a point (a complex phase, the real sinc argument, quotient
    # and modulus, the series mask), counted as three complex N^4 arrays.
    _check_stage(memory_budget, "4D amplitude",
                 ((3,) + (grid.n,) * 4, np.complex128))
    ctx = make_context(setup.theta_p, pump.wavelength)
    q = grid.q_axis
    # Separable broadcasting: axes (sx, sy, ix, iy).
    values = momentum_amplitude(
        TransverseMomentum(q[:, None, None, None], q[None, :, None, None]),
        TransverseMomentum(q[None, None, :, None], q[None, None, None, :]),
        pump, setup)
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


def to_position(amp: BiphotonAmplitude4,
                memory_budget: int = MEMORY_BUDGET) -> BiphotonAmplitude4:
    """Transform all four axes to position space (unitary, centered).

    Fails with :class:`MemoryBudgetError` before allocating when the
    estimated working set exceeds ``memory_budget`` bytes.
    """
    if amp.basis != "momentum":
        raise GridError("to_position requires a momentum-basis amplitude")
    # The amplitude beside three N^4 complex arrays of one axis pass.
    _check_stage(memory_budget, "4D transform", amp.values.nbytes,
                 ((3,) + amp.values.shape, np.complex128))
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


def conditional_position(dist4: Distribution,
                         rho_i0=(0.0, 0.0)) -> Distribution:
    """Signal distribution conditioned on idler detection at rho_i0.

    The idler point is snapped to the nearest grid node (camera-pixel
    interpretation); the slice is renormalized.
    """
    if dist4.values.ndim != 4:
        raise GridError("conditional_position requires a 4D distribution")
    ix, iy = (int(np.argmin(np.abs((np.arange(n) - n // 2) * delta - rho)))
              for n, delta, rho in zip(dist4.values.shape[2:],
                                       dist4.deltas[2:], rho_i0))
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


def conditional_position_direct(pump: PumpSpec, setup: CrystalSetup,
                                z: float, grid: MomentumGrid4,
                                rho_i0=(0.0, 0.0),
                                memory_budget: int = MEMORY_BUDGET,
                                ) -> Distribution:
    """Conditional signal distribution without the 4D transform.

    The amplitude at a fixed idler point factors through a 2D transform of
    B(q_s) = sum_{q_i} A(q_s, q_i) exp(i q_i . rho_i0).  With the rank-R
    factors A = sum_r X_r(q_sx, q_ix) Y_r(q_sy, q_iy)
    (:func:`amplitude_factors`) and the separable idler phase p_x p_y
    (position and propagation), B = (X p_x)^T (Y p_y).  X p_x and Y p_y come
    straight from the real band tables of :class:`AmplitudeFactors`
    (:func:`_contract`, O(K n W) work and storage each), so no complex
    factor table is built; B is n x n, phased and transformed in place
    (:func:`_transform`).  Matches ``conditional_position`` of the 4D
    pipeline on shared grids when rho_i0 lies on a node.  Raises
    :class:`MemoryBudgetError` where :func:`amplitude_factors` does under
    ``memory_budget``, and when its own tables beside the factors exceed
    it.  Runs no boundary guard (:func:`_guarded_factors`).
    """
    pipe = Pipeline(pump, setup, grid, memory_budget=memory_budget)
    return _conditional_direct(pipe, amplitude_factors(pipe), z, rho_i0)


def _conditional_direct(pipeline: Pipeline, factors: AmplitudeFactors,
                        z: float, rho_i0=(0.0, 0.0)) -> Distribution:
    """:func:`conditional_position_direct` from the pipeline's factors.
    Raises :class:`MemoryBudgetError` before it allocates when its tables
    beside the real ones of ``factors`` exceed the budget."""
    grid = pipeline.grid
    n, width, rank = grid.n, factors.phase_x.shape[2], factors.rank
    # The factors, the two band layouts (:func:`_band`) and the two R x n
    # contractions with room for their temporaries (two more R x n and three
    # n x W tables), then B with its one phase: the contractions are freed
    # once B is formed, so the larger of the two.
    _check_stage(pipeline.memory_budget, "conditional tables",
                 factors.nbytes, ((2, n, width), np.int64),
                 ((2, n, width), np.bool_),
                 max(_nbytes(((4, rank, n), np.complex128),
                             ((3, n, width), np.complex128)),
                     _nbytes(((2, n, n), np.complex128))))
    q = grid.q_axis
    x0, y0 = rho_i0
    propagation = _propagation(q, z, factors.k)
    b = _contract(factors.coeffs, factors.phase_x,
                  np.exp(1j * q * x0) * propagation, factors.s_lo).T \
        @ _contract(factors.cheb, factors.phase_y,
                    np.exp(1j * q * y0) * propagation, factors.s_lo)
    psi = _transform(b, _transform_phase(q, z, factors.k), b)
    values = np.abs(psi) ** 2
    total = values.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise DegenerateConditionError(
            f"conditional amplitude at rho_i0 = {rho_i0} carries no probability")
    return Distribution(values=_normalize(values, grid.dx * grid.dx),
                        axis_names=("x_s", "y_s"), deltas=(grid.dx, grid.dx),
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

    Each 4D method builds the momentum amplitude; position-space quantities
    at z are derived from it by (cheap) phase multiplication plus transform.
    """

    pump: PumpSpec
    setup: CrystalSetup
    grid: MomentumGrid4
    boundary_tol: float | None = BOUNDARY_TOLERANCE
    memory_budget: int = MEMORY_BUDGET

    def momentum_amplitude(self) -> BiphotonAmplitude4:
        return build_amplitude(self.grid, self.pump, self.setup,
                               boundary_tol=self.boundary_tol,
                               memory_budget=self.memory_budget)

    def position_amplitude(self, z: float) -> BiphotonAmplitude4:
        amp = propagate(self.momentum_amplitude(), z)
        return to_position(amp, memory_budget=self.memory_budget)

    def momentum_distribution(self) -> Distribution:
        return momentum_pdf(self.momentum_amplitude())

    def position_distribution(self, z: float) -> Distribution:
        return position_pdf(self.position_amplitude(z))


# --- rank-R engine: the amplitude as a sum of separable x/y terms ----------


@dataclass(frozen=True)
class AmplitudeFactors:
    """The momentum amplitude as a sum of R separable terms,

        A(q_sx, q_sy, q_ix, q_iy) = sum_r x[r, sx, ix] * y[r, sy, iy],

    unnormalized, as :func:`phasematch.momentum_amplitude` gives it.  The
    complex n x n tables are built on demand (:meth:`x`, :meth:`y`) from
    real ones: x = coeffs * phase_x and y = cheb * phase_y, each real
    table times each phase row, rows outermost (:func:`_complex_table`):
    one row for a single crystal, two, conjugates, for a double one.

    The real tables hold only the pump-envelope band.  The envelope depends
    on q_s + q_i alone, so the pairs of grid indices (i, j) where it is not
    0 lie on the anti-diagonals s_lo <= i + j < s_lo + W; off them the
    amplitude is exactly 0.  Entry k of row i holds the pair
    (i, s_lo - i + k) (:func:`_band`), and the entries whose column falls
    off the grid are 0 in ``coeffs`` and in both phase tables.  ``coeffs``
    (K x n x W over (q_sx, q_ix)) and ``cheb`` (K x n x W over
    (q_sy, q_iy)) are real; ``coeffs`` is exactly 0 where v_x = 0, since
    ``phase_x`` (P x n x W) carries v_x, as ``phase_y`` carries v_y; the
    rank is P K.  ``error`` bounds max |A - sum_r x_r y_r| over the grid
    in the same units (|A| <= 1), and ``k`` is the propagation wavenumber
    n_so K_s0.
    """

    coeffs: np.ndarray
    cheb: np.ndarray
    phase_x: np.ndarray
    phase_y: np.ndarray
    error: float
    k: float
    s_lo: int

    @property
    def rank(self) -> int:
        return self.phase_x.shape[0] * self.coeffs.shape[0]

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in (self.coeffs, self.cheb, self.phase_x,
                                      self.phase_y))

    def x(self) -> np.ndarray:
        return _complex_table(self.coeffs, self.phase_x, self.s_lo)

    def y(self) -> np.ndarray:
        return _complex_table(self.cheb, self.phase_y, self.s_lo)


@lru_cache(maxsize=4)
def _band(n: int, s_lo: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(cols, valid), both n x width, of the band layout of
    :class:`AmplitudeFactors`: entry k of row i is the pair
    (i, s_lo - i + k), ``valid`` where that column lies on the grid, and
    ``cols`` the column clipped to the grid.  Built once per layout (the
    last four kept; a configuration uses two), read-only."""
    cols = s_lo - np.arange(n)[:, None] + np.arange(width)
    valid = (cols >= 0) & (cols < n)
    np.clip(cols, 0, n - 1, out=cols)
    cols.flags.writeable = valid.flags.writeable = False
    return cols, valid


def _complex_table(real: np.ndarray, phase: np.ndarray,
                   s_lo: int) -> np.ndarray:
    """One complex factor table of :class:`AmplitudeFactors` over all n x n
    pairs, P K x n x n: each of the K real tables times each of the P phase
    rows on the band, rows outermost, and 0 off the band.

    Band entry (i, k) is the flat offset i (n - 1) + s_lo + k of an n x n
    table.  A band narrower than the grid puts no two entries at one
    offset, and an entry whose column is off the grid lands on a pair off
    the band, where the table is 0 and it writes its 0: so the band is a
    strided view of the table, written in place (:func:`_times_phase`).  A
    band as wide as the grid (an envelope not 0 on half the anti-diagonals
    or more, as on a truncated extent) is scattered entry by entry.
    """
    terms, n, width = real.shape
    shape = (phase.shape[0], terms, n, width)
    out = np.zeros((shape[0] * terms, n, n), dtype=np.complex128)
    if width < n:
        item = out.itemsize
        band = np.lib.stride_tricks.as_strided(
            out.reshape(-1)[s_lo:], shape=(out.shape[0], n, width),
            strides=(n * n * item, (n - 1) * item, item))
        _times_phase(real, phase, band.reshape(shape))
        return out
    cols, valid = _band(n, s_lo, width)
    entries = np.empty(shape[:2] + (np.count_nonzero(valid),),
                       dtype=np.complex128)
    _times_phase(real[:, valid], phase[:, valid], entries)
    out.reshape(shape[:2] + (n, n))[..., np.nonzero(valid)[0], cols[valid]] \
        = entries
    return out


def _times_phase(real: np.ndarray, phase: np.ndarray,
                 out: np.ndarray) -> None:
    """out[p, k] = real[k] * phase[p] for the P phase rows and the K real
    tables, written by real operations on the parts of ``out``, one term
    at a time: a real operand cast to complex, or an operand broadcast
    over more than two axes, takes numpy ufunc buffers."""
    for p, row in enumerate(phase):
        for part, factor in ((out.real, row.real), (out.imag, row.imag)):
            for k, term in enumerate(real):
                np.multiply(term, factor, out=part[p, k])


def _contract(real: np.ndarray, phase: np.ndarray, w: np.ndarray,
              s_lo: int) -> np.ndarray:
    """_complex_table(real, phase, s_lo) @ w without the complex table: w
    is gathered onto the band (:func:`_band`), and real @ (phase * w) for
    the P phase rows runs as real products batched over the rows, each
    (K, W) @ (W, 2P) on the real and imaginary parts side by side; (P K, n).
    The band entries off the grid carry phase 0."""
    rows, n, width = phase.shape
    u = np.empty((n, width, rows), dtype=np.complex128)
    np.multiply(phase.transpose(1, 2, 0),
                w[_band(n, s_lo, width)[0]][..., None], out=u)
    out = np.matmul(real.transpose(1, 0, 2), u.view(np.float64))
    return out.view(np.complex128).transpose(2, 1, 0).reshape(-1, n)


def _pair_tables(pipeline: Pipeline):
    """(ctx, s_lo, cols, a, b, v, b_span): pair tables on the band of
    :func:`_band` that holds every pair where the envelope is not 0, each
    entry evaluated at its own pair (i, cols[i, k]): a over (q_sx, q_ix),
    b over (q_sy, q_iy), and the envelope v (0 off the grid), which is v_x
    and v_y alike (the other component of q_s + q_i is 0, and 0 + x = x).
    Each is built from q_s^2 + q_i^2 and q_s + q_i alone, and IEEE addition
    commutes, so the n x n tables equal their transposes exactly.
    ``b_span`` is b's (min, max) over every stored entry.  v falls with
    |q_s + q_i|, the same along an anti-diagonal to a few ulps, so the band
    is found from v alone at the 2n - 1 middle pairs, built one
    anti-diagonal past the live ones, then trimmed.  Raises
    MemoryBudgetError before allocating it when the tables, built or
    walked, and one point of the guard's chunks an entry exceed the
    budget."""
    n, pump, q = pipeline.grid.n, pipeline.pump, pipeline.grid.q_axis
    ctx = make_context(pipeline.setup.theta_p, pump.wavelength)
    s = np.arange(2 * n - 1)
    v = pump_envelope(TransverseMomentum(q[s // 2] + q[s - s // 2], 0.0), pump)
    live = np.flatnonzero(v != 0)
    s_lo = max(int(live[0]) - 1, 0)
    width = min(int(live[-1]) + 1, s[-1]) - s_lo + 1
    # 11 n x W tables while they are built or walked, and a chunk of the
    # guard's walk (:func:`_max_over_pairs`), 9 floats a point an entry.
    _check_stage(pipeline.memory_budget, "pair tables",
                 ((11, n, width), np.float64), ((9, n * width), np.float64))
    cols, valid = _band(n, s_lo, width)
    q_s, q_i = q[:, None], q[cols]
    a, b = dispersion.mismatch_split(TransverseMomentum(q_s, q_s),
                                     TransverseMomentum(q_i, q_i), ctx)
    v = pump_envelope(TransverseMomentum(q_s + q_i, 0.0), pump)
    v[~valid] = 0.0
    live = np.flatnonzero((v != 0).any(axis=0))
    cols, a, b, v = (t[:, live[0]:live[-1] + 1] for t in (cols, a, b, v))
    return ctx, s_lo + int(live[0]), cols, a, b, v, (b.min(), b.max())


def amplitude_factors(pipeline: Pipeline) -> AmplitudeFactors:
    """Rank-R factors of the pipeline's momentum amplitude.

    With Delta k_z = a(q_sx, q_ix) + b(q_sy, q_iy), V = v_x v_y and
    h = (a + b) L/2, the only factor that couples the pairs is sinc h.  It
    is interpolated in b on K Chebyshev nodes of [b_min, b_max], b's
    extremes on the envelope band of :func:`_pair_tables`, where every
    polynomial is evaluated: sinc h ~ sum_j c_j(a) T_j(t(b)), |t| <= 1,
    with K doubled from ``CHEB_START`` until the two last coefficients,
    weighted by the envelopes, are below ``CHEB_TOL``; trailing terms whose
    weighted sum stays below it are dropped.  Each trial K is first
    screened on the x-pairs of the envelope ridge q_ix = -q_sx: if their
    weighted tail already exceeds ``SCREEN_MARGIN`` times ``CHEB_TOL``, the
    full trial would fail, and K doubles without it, so the accepted K is
    that of the unscreened doubling.  A trial samples sinc, and multiplies
    it by the K x K basis, only on the L x-pairs of the band's upper half
    (i <= j) where the pump envelope v_x is not 0: the factors carry v_x,
    so the coefficients of the other pairs are exactly 0; the lower half
    takes those of the mirrored pairs.  A product over those columns alone
    moves the last bits of some coefficients against one over the whole
    table; the accepted K, the kept terms, ``error`` and the polynomial
    tables are unchanged by it.  The phase goes into the factors as rows:
    one, e^{ih} = e^{iaL/2} e^{ibL/2}, for a single crystal, and two for a
    double one, cos g = (e^{ig} + e^{-ig})/2 with g = (a + b)(L + d)/2,
    which doubles the rank.  ``error`` is the weighted sum of the dropped
    coefficients plus a rounding term, eps times the weighted sum of all
    of them.  The coefficients, the polynomials and the phases are stored
    on the band (see :class:`AmplitudeFactors`), W pairs a row, so the
    recurrence and the complex exponentials run on n W values.

    Raises :class:`MemoryBudgetError` before each stage (a trial K, the
    band tables of the kept terms) allocates when it would exceed
    ``pipeline.memory_budget``, and :class:`GridError` when the weighted
    coefficients are not finite.  Only :meth:`AmplitudeFactors.x` and
    :meth:`AmplitudeFactors.y` build the complex tables, and the routes
    that call them budget them."""
    return _build_factors(pipeline, _pair_tables(pipeline))


@lru_cache(maxsize=4)
def _chebyshev(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(K x K basis, K node cosines) of a trial on K = ``nodes`` first-kind
    Chebyshev nodes: built once per K (the last four kept), read-only."""
    theta = np.pi * (np.arange(nodes) + 0.5) / nodes
    basis = np.cos(np.outer(np.arange(nodes), theta)) * (2.0 / nodes)
    basis[0] /= 2.0
    cosines = np.cos(theta)
    basis.flags.writeable = cosines.flags.writeable = False
    return basis, cosines


def _build_factors(pipeline: Pipeline, tables) -> AmplitudeFactors:
    """:func:`amplitude_factors` on the pipeline's :func:`_pair_tables`."""
    setup, grid = pipeline.setup, pipeline.grid
    ctx, s_lo, cols, a, b, v, (b_min, b_max) = tables
    q, n, width = grid.q_axis, grid.n, v.shape[1]
    # The grid's largest |q_s|^2, |q_i|^2 and |q_s + q_i|^2 lie where
    # q_x = q_y = q and q_s = q_i: the 4D broadcast's warnings and values.
    dispersion._check_paraxial(TransverseMomentum(q, q),
                               TransverseMomentum(q, q), ctx)
    # The live x-pairs: the band's upper half where v is not 0 (a NaN
    # envelope stays in, so the trial raises on it), in the order of the
    # upper-triangle pairs (i, j), row by row.
    live = v != 0
    upper = live & (np.arange(n)[:, None] <= cols)
    half = setup.length / 2.0
    mid = (b_max + b_min) / 2.0
    rad = (b_max - b_min) / 2.0
    double = setup.kind != "single"
    v_max = v.max()

    def trial(nodes, a_pairs, v_pairs):
        # Chebyshev coefficients of the interpolant through sinc h at the
        # first-kind nodes, over the given x-pairs (where v is not 0: no
        # other column is sampled), and their weighted maxima.
        basis, cosines = _chebyshev(nodes)
        shift = (rad * half) * cosines[:, None]
        samples = sinc((a_pairs + mid)[None] * half + shift)
        coeffs = basis @ samples
        del samples
        # max |c v| as max(max c v, -min c v): v > 0, no |.| temporary.
        scaled = coeffs * v_pairs
        weight = np.maximum(scaled.max(axis=1), -scaled.min(axis=1)) * v_max
        return coeffs, weight

    # The envelope ridge q_ix = -q_sx, where v = 1: anti-diagonal n, every
    # q_sx but the first, whose negative is off the grid.
    a_ridge, v_ridge = a[1:, n - s_lo], v[1:, n - s_lo]
    a_live, v_live = a[upper], v[upper]
    # The build holds the four n x W pair tables (cols, a, b, v) beside one
    # of two stages, each checked before it allocates.
    pairs, size = ((4, n, width), np.float64), a_live.size
    nodes = CHEB_START
    while True:
        # The trial: its three K x L tables (the sinc argument, the samples
        # and |argument| while sinc runs, the coefficients beside the
        # samples or the weighted coefficients after) with sinc's K x L
        # mask, the K x K basis, its argument and the cached bases of the
        # smaller K (:func:`_chebyshev`), three L tables (the live pairs' a
        # and v, a's shift) and the n x W masks.
        _check_stage(pipeline.memory_budget,
                     f"rank-{nodes * (1 + double)} amplitude factors", pairs,
                     ((3, nodes, size), np.float64), ((nodes, size), np.bool_),
                     ((3, nodes, nodes), np.float64), ((3, size), np.float64),
                     ((n, width), np.float64))
        # The ridge is part of the table, so a ridge tail over the margin is
        # over CHEB_TOL on the table too, whatever the order of rounding:
        # the full trial would fail.  A non-finite probe compares False and
        # goes on to the full trial, which raises.
        probe = trial(nodes, a_ridge, v_ridge)[1]
        if probe[-2:].max() > SCREEN_MARGIN * CHEB_TOL:
            nodes *= 2
            continue
        coeffs, weight = trial(nodes, a_live, v_live)
        if not np.all(np.isfinite(weight)):
            raise GridError(
                f"non-finite phase-matching coefficients on the grid "
                f"(dq = {grid.dq!r}); check the momentum extent")
        if weight[-2:].max() <= CHEB_TOL:
            break
        nodes *= 2
    tail = np.cumsum(weight[::-1])[::-1]
    kept = max(1, int(np.argmax(tail <= CHEB_TOL)))
    error = float(tail[kept] + EPS * tail[0])
    # The kept coefficient table beside the trial's coefficients and the
    # live pairs' a and v (the gathered lower half is smaller), and the two
    # int64 index arrays the masked write expands ``upper`` into.  This
    # stage and the next hold the trials' cached bases, under 2 K^2 floats.
    what = f"rank-{kept * (1 + double)} amplitude factors"
    held = pairs, ((2, nodes, nodes), np.float64)
    _check_stage(pipeline.memory_budget, what, *held,
                 ((kept, n, width), np.float64),
                 ((nodes + 2, size), np.float64), ((2, size), np.int64))
    # The upper half takes the kept coefficients, and a lower-half entry
    # (i, k), the pair (i, j = cols[i, k]), those of its mirror (j, k) on the
    # same anti-diagonal; 0 where v is 0 or the pair is off the grid.
    table = np.zeros((kept, n, width))
    table[:, upper] = coeffs[:kept]
    del coeffs, a_live, v_live
    lower = live & ~upper
    table[:, lower] = table[:, cols[lower], np.nonzero(lower)[1]]

    # The coefficient and polynomial tables, t and two temporaries, and the
    # phase rows, written in place.
    _check_stage(pipeline.memory_budget, what, *held,
                 ((2, kept, n, width), np.float64), ((3, n, width), np.float64),
                 ((2 + 2 * double, n, width), np.complex128))
    # T_j(t(b)) by the three-term recurrence, on the y-pair band; the clip
    # takes out the rounding of t at the interval's ends.
    t = (np.clip((b - mid) / rad, -1.0, 1.0) if rad > 0.0
         else np.zeros_like(b))
    cheb = np.empty((kept, n, width))
    cheb[0] = 1.0
    if kept > 1:
        cheb[1] = t
    t *= 2.0  # T_j = 2t T_{j-1} - T_{j-2}
    for j in range(2, kept):
        np.multiply(t, cheb[j - 1], out=cheb[j])
        cheb[j] -= cheb[j - 2]
    # The phase rows v e^{iag} (halved for a double crystal) and v e^{ibg},
    # conjugates in phase[1:] (empty for a single crystal), written by real
    # operations: a real operand cast to complex takes a ufunc buffer.
    g = (setup.length + setup.gap) / 2.0 if double else half
    phase_x = np.zeros((1 + double, n, width), dtype=np.complex128)
    phase_y = np.zeros_like(phase_x)
    for phase, c, scale in ((phase_x, a, 1.0 - double / 2), (phase_y, b, 1.0)):
        np.multiply(c, g, out=phase[0].imag)
        np.exp(phase[0], out=phase[0])
        parts = phase[0].view(np.float64).reshape(n, width, 2)
        parts *= v[..., None]
        parts *= scale
        np.conjugate(phase[0], out=phase[1:])
    return AmplitudeFactors(coeffs=table, cheb=cheb, phase_x=phase_x,
                            phase_y=phase_y, error=error, k=ctx.k_signal,
                            s_lo=s_lo)


@dataclass(frozen=True)
class GridDiagnostics:
    """How well the grid and the factors hold the amplitude.

    ``boundary_ratio`` is the largest |A| on the hull of the 4D grid over
    the peak |A|.  ``rank`` is the number of separable terms of
    :class:`AmplitudeFactors`, and ``interpolation_error`` its error bound
    over the peak |A|.
    """

    boundary_ratio: float
    rank: int
    interpolation_error: float


@dataclass(frozen=True)
class AveragedJoints:
    """The x-averaged momentum joint (independent of z) and one x-averaged
    position joint per z of ``z``, as ``averaged_joint_x`` returns them."""

    z: tuple[float, ...]
    momentum: Distribution
    position: tuple[Distribution, ...]
    diagnostics: GridDiagnostics


def _max_over_pairs(setup: CrystalSetup, x_pairs, y_pairs, elems: int,
                    best: float = 0.0) -> float:
    """max(best, max |A|) over every x-pair of ``x_pairs`` with every y-pair
    of ``y_pairs``, exactly: each is a part of the mismatch and the
    envelope, (a, v_x) or (b, v_y), on some pairs of :func:`_pair_tables`,
    sorted by decreasing envelope.

    |A| <= v_x v_y since |Phi| <= 1.  Each chunk of y-pairs is evaluated
    against only the x-pairs whose bound, with room for rounding, can still
    exceed the running maximum, and the walk stops when none can.  Chunks
    hold at most sqrt(len y-pairs) rows, so the first sets the running
    maximum early, and at most ``elems`` points unless one row holds more.
    """
    (a, v_x), (b, v_y) = x_pairs, y_pairs
    rows = math.isqrt(v_y.size)
    lo = 0
    while lo < v_y.size:
        bound = v_x * (v_y[lo] * (1.0 + 8.0 * EPS))
        live = int(np.count_nonzero(bound > best))
        if live == 0:
            break
        hi = lo + max(1, min(rows, elems // live))
        values = _phi_split(a[None, :live], b[lo:hi, None], setup,
                            (v_x[None, :live], v_y[lo:hi, None]))
        best = max(best, float(np.abs(values).max()))
        lo = hi
    return best


def _guarded_peak(pipeline: Pipeline, tables) -> tuple[float, float]:
    """(peak |A|, edge / peak) without the 4D array; raises where
    :func:`build_amplitude` does, with its message.

    :func:`_max_over_pairs` walks the pipeline's pair tables ``tables``
    (:func:`_pair_tables`) for the peak, then for the edge (the largest |A|
    on the 4D hull), the running maximum passed on.  A is exactly unchanged
    when only q_sx and q_ix, or only q_sy and q_iy, are swapped, so the
    band's upper half where v is not 0, sorted once by decreasing v, holds
    every nonzero |A|, and its entries with i = 0 or cols = n - 1 (a
    coordinate at an end of its axis) every one on the faces of one axis
    pair: the edge walks them as x-pairs, then as y-pairs, at most n W
    points a chunk.
    """
    n, setup = pipeline.grid.n, pipeline.setup
    _, _, cols, a, b, v, _ = tables
    rows = np.arange(n)[:, None]
    upper = (rows <= cols) & (v != 0)
    order = np.argsort(-v[upper], kind="stable")
    face = ((rows == 0) | (cols == n - 1))[upper][order]
    a, b, v = a[upper][order], b[upper][order], v[upper][order]
    peak = _max_over_pairs(setup, (a, v), (b, v), cols.size)
    if peak == 0.0:
        raise GridError("amplitude is identically zero on the grid")
    edge = _max_over_pairs(setup, (a[face], v[face]), (b, v), cols.size)
    edge = _max_over_pairs(setup, (a, v), (b[face], v[face]), cols.size, edge)
    if pipeline.boundary_tol is not None:
        _check_boundary(edge, peak, pipeline.boundary_tol)
    return peak, edge / peak


def _guarded_factors(pipeline: Pipeline,
                     ) -> tuple[AmplitudeFactors, GridDiagnostics]:
    """The rank-R factors (:func:`amplitude_factors`) with their
    diagnostics, the one entry of the CLI into the engine: the boundary
    guard (:func:`_guarded_peak`) walks the pair tables (:func:`_pair_tables`,
    built once) before the factor build reads them, so a truncated grid
    raises where :func:`build_amplitude` does, before any factor table."""
    tables = _pair_tables(pipeline)
    peak, ratio = _guarded_peak(pipeline, tables)
    factors = _build_factors(pipeline, tables)
    return factors, GridDiagnostics(boundary_ratio=ratio, rank=factors.rank,
                                    interpolation_error=factors.error / peak)


def _propagation(q: np.ndarray, z: float, k: float) -> np.ndarray:
    """The paraxial propagation phase exp(-i q^2 z / (2 k)) on one axis,
    with k = n_so K_s0, the wavenumber inside the crystal; the
    e^{i Delta k L/2} of Phi puts the origin at the crystal centre
    (Schneeloch and Howell, J. Opt. 18, 053501, 2016).  The 4D oracle's
    :func:`propagate` keeps its own copy, so it stays independent."""
    return np.exp(-1j * q**2 * z / (2.0 * k))


def _transform_phase(q: np.ndarray, z: float, k: float) -> np.ndarray:
    """The n x n input phase of :func:`_transform` at distance z."""
    p = _propagation(q, z, k)
    p[1::2] *= -1.0
    return p[:, None] * p[None, :]


def _transform(table: np.ndarray, phase: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """Centered transform of the two last axes of ``table`` at the distance
    of ``phase`` (:func:`_transform_phase`), up to a phase that depends on
    the output point only.

    Callers use |F[...]|^2 and sums over the output axes of products
    F[u] F[w]^*, in which that phase cancels: so the output ramp and the
    constant phase of the centered transform are left out, and its input
    ramp (-1)^n folds into the propagation phase, one plain inverse 2D FFT
    per table.  The phased input is written into ``out``, a complex array
    of the shape of ``table``: a reused buffer, or ``table`` itself when it
    is not needed after.  The FFT runs as two 1D passes in ``out``, last
    axis first, the order of ``np.fft.ifft2``, and is returned in it: no
    table is allocated.  (``ifft2`` with ``out`` aliasing its input returns
    a fresh array and leaves ``out`` holding a wrong intermediate.)
    """
    np.multiply(table, phase, out=out)
    np.fft.ifft(out, axis=-1, out=out)
    return np.fft.ifft(out, axis=-2, out=out)


def averaged_joints_x(pipeline: Pipeline, zs) -> AveragedJoints:
    """x-averaged momentum joint and position joints at each z in ``zs``,
    from the rank-R factors: no N^4 array is allocated.

    With A = sum_r x_r(q_sx, q_ix) y_r(q_sy, q_iy), the momentum joint is
    sum_{rs} x_r x_s^* G_rs with the Gram matrix G_rs = sum y_r y_s^*.  By
    Parseval over the two y axes, whose propagation phase has unit modulus,
    G is the same at every z, and the position joint at z is the same sum
    over the x-transforms F_x[x_r P_x(z)].  With G = U diag(lam) U^H, the
    sum is that of |W_m|^2, W_m = sqrt(lam_m) sum_r U_rm x_r (lam_m <= 0 is
    rounding, dropped), so each z costs one n x n FFT per kept term.  The
    phased input, its transform and |.|^2 of every z go into two buffers
    allocated once.  The factors come from :func:`_guarded_factors`.
    """
    grid = pipeline.grid
    zs = tuple(float(z) for z in zs)
    factors, diagnostics = _guarded_factors(pipeline)
    rank, n = factors.rank, grid.n
    # Beside the real tables: y and y^* while G is formed, x and W, then
    # W, the phased buffer and |.|^2; four n x n and four R x R tables
    # (phases, sums, G, U), and the joints, each normalized into a copy.
    _check_stage(pipeline.memory_budget, f"rank-{rank} complex factor tables",
                 factors.nbytes, ((2, rank, n, n), np.complex128),
                 ((rank, n, n), np.float64), ((4, n, n), np.complex128),
                 ((4, rank, rank), np.complex128),
                 ((2 * len(zs) + 2, n, n), np.float64))
    y = factors.y().reshape(rank, -1)
    lam, u = np.linalg.eigh(y @ y.conj().T)
    del y
    keep = lam > 0.0
    weighted = ((u[:, keep] * np.sqrt(lam[keep])).T
                @ factors.x().reshape(rank, -1)).reshape(-1, n, n)
    mom = (np.abs(weighted) ** 2).sum(axis=0)
    phased = np.empty_like(weighted)
    power = np.empty(weighted.shape)
    pos = []
    for z in zs:
        phase = _transform_phase(grid.q_axis, z, factors.k)
        np.abs(_transform(weighted, phase, phased), out=power)
        power *= power
        pos.append(power.sum(axis=0))

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


def singles_direct(pipeline: Pipeline, z: float) -> Distribution:
    """One-photon (signal) image at z from the position factor tables
    (:func:`position_factors`), without the 4D array; the value ``singles``
    gives on the 4D distribution.

    With psi = sum_r X_r(x_s, x_i) Y_r(y_s, y_i), the image is
    sum_{rs} [sum_{x_i} X_r X_s^*](x_s) [sum_{y_i} Y_r Y_s^*](y_s): two
    batched R x R Gram products and one matrix product.
    """
    grid = pipeline.grid
    factors = _guarded_factors(pipeline)[0]
    rank, n = factors.rank, grid.n
    # The Gram step: two n x R x R Gram tables and one block's conjugate.
    tables = _position_factors(pipeline, factors, z,
                               ((2, n, rank, rank), np.complex128),
                               ((n // 8, rank, n), np.complex128))

    def gram(t: np.ndarray) -> np.ndarray:
        # (n, R, R): for each signal coordinate, sum over the idler one, in
        # 16 blocks of signal coordinates, so only a block is conjugated.
        t = t.transpose(1, 0, 2)
        out = np.empty((n, rank, rank), dtype=np.complex128)
        for part, dest in zip(np.array_split(t, 16), np.array_split(out, 16)):
            np.matmul(part, part.conj().swapaxes(1, 2), out=dest)
        return out.reshape(n, rank * rank)

    values = (gram(tables.x) @ gram(tables.y).T).real
    bin_area = grid.dx * grid.dx
    return Distribution(values=_normalize(values, bin_area),
                        axis_names=("x_s", "y_s"), deltas=(grid.dx, grid.dx),
                        basis="position", units="m")


@dataclass(frozen=True)
class PositionFactors:
    """The position amplitude at one z as R separable terms,

        psi(x_s, y_s, x_i, y_i) ~ sum_r x[r, x_s, x_i] * y[r, y_s, y_i],

    each table the transform (:func:`_transform`) of a table of
    :class:`AmplitudeFactors`, indexed on ``grid.x_axis``.  Exact up to a
    scale and a phase per point, which |psi|^2 does not see.
    """

    x: np.ndarray
    y: np.ndarray
    grid: MomentumGrid4

    def y_marginal(self) -> np.ndarray:
        """sum_{x_s, x_i} |psi|^2 over (y_s, y_i), unnormalized: with the
        Gram matrix G = x x^H, sum_rs y_r y_s^* G_rs, the real part of
        sum_r y_r^* (G^T y)_r, in place in one R x n^2 table."""
        rank, n = self.x.shape[0], self.grid.n
        x, y = self.x.reshape(rank, -1), self.y.reshape(rank, -1)
        parts = ((x @ x.conj().T).T @ y).view(np.float64)
        parts *= y.view(np.float64)
        # Rounding can take a cell of the Hermitian form just below 0.
        return np.maximum(parts.reshape(rank, n, n, 2).sum(axis=(0, 3)), 0.0)

    def x_weights(self, cells: np.ndarray, out=None) -> np.ndarray:
        """|psi|^2 over the flattened (x_s, x_i) plane, one row per flat
        (y_s, y_i) index of ``cells``, unnormalized: (len(cells), n^2).
        ``out``, if given, is a float and a complex C-contiguous array of
        that shape, which take the weights and the amplitudes."""
        rank = self.x.shape[0]
        weights, amps = (None, None) if out is None else out
        amps = np.matmul(self.y.reshape(rank, -1)[:, cells].T,
                         self.x.reshape(rank, -1), out=amps)
        weights = np.abs(amps, out=weights)
        weights *= weights
        return weights


def position_factors(pipeline: Pipeline, z: float) -> PositionFactors:
    """The position amplitude at z as rank-R factor tables, two R x n^2
    arrays, from :func:`_guarded_factors`: no N^4 array is allocated.  Each
    complex factor table is built from the real tables and phased and
    transformed in place, so at most the two tables and the real ones are
    alive at once."""
    return _position_factors(pipeline, _guarded_factors(pipeline)[0], z)


def _position_factors(pipeline: Pipeline, factors: AmplitudeFactors,
                      z: float, *after) -> PositionFactors:
    """:func:`position_factors` from the pipeline's factors.  The arrays
    ``after`` of the caller's next step, beside the tables, are checked
    with them, before either table is built."""
    rank, n = factors.rank, pipeline.grid.n
    # Beside the real tables: the transformed X beside Y, four n x n and
    # four R x R tables.
    _check_stage(pipeline.memory_budget, f"rank-{rank} complex factor tables",
                 factors.nbytes, ((2, rank, n, n), np.complex128),
                 ((4, n, n), np.complex128), ((4, rank, rank), np.complex128),
                 *after)
    phase = _transform_phase(pipeline.grid.q_axis, z, factors.k)
    x = factors.x()
    x = _transform(x, phase, x)
    y = factors.y()
    y = _transform(y, phase, y)
    return PositionFactors(x=x, y=y, grid=pipeline.grid)
