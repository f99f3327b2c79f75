"""Crystal optics for degenerate type-I SPDC in a negative uniaxial crystal.

Everything here is closed form: refractive indices from a Sellmeier-type
formula, the pump anisotropy coefficients (walk-off and index combinations),
and the paraxial longitudinal phase mismatch in its per-photon and pump
parts (:func:`mismatch_parts`).  All quantities are strict SI (meters,
rad/m, radians); the only unit quirk is that Sellmeier coefficients are
expressed for wavelengths in micrometers, which stays internal to
``refractive_index``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

#: |q|/k ratio above which the paraxial expansion is considered unsafe.
PARAXIAL_RATIO = 0.2


class DispersionError(ValueError):
    """Base class for crystal-optics domain errors."""


class WavelengthRangeError(DispersionError):
    """Wavelength outside the validity window of the index model."""


class NoCollinearMatchError(DispersionError):
    """No phase-matching angle exists for the requested wavelengths."""


@dataclass(frozen=True)
class SellmeierModel:
    """Index model n^2(lam) = a + b / (lam^2 - c) - d * lam^2, lam in um.

    One coefficient quadruple per polarization.  ``lambda_min`` /
    ``lambda_max`` bound the validity window in meters.
    """

    ordinary: tuple[float, float, float, float]
    extraordinary: tuple[float, float, float, float]
    lambda_min: float = 0.22e-6
    lambda_max: float = 1.40e-6
    name: str = "BBO"


#: Standard BBO coefficient set (negative uniaxial).
BBO = SellmeierModel(
    ordinary=(2.7405, 0.0184, 0.0179, 0.0155),
    extraordinary=(2.3730, 0.0128, 0.0156, 0.0044),
)


def refractive_index(polarization: str, wavelength: float) -> float:
    """Principal refractive index of ``BBO`` at ``wavelength`` (meters).

    ``polarization`` is "ordinary"/"o" or "extraordinary"/"e".
    """
    if polarization in ("o", "ordinary"):
        a, b, c, d = BBO.ordinary
    elif polarization in ("e", "extraordinary"):
        a, b, c, d = BBO.extraordinary
    else:
        raise DispersionError(f"unknown polarization {polarization!r}")
    if not (BBO.lambda_min <= wavelength <= BBO.lambda_max):
        raise WavelengthRangeError(
            f"wavelength {wavelength * 1e9:.1f} nm outside {BBO.name} validity "
            f"window [{BBO.lambda_min * 1e9:.0f}, {BBO.lambda_max * 1e9:.0f}] nm"
        )
    lam_um = wavelength * 1e6
    n_sq = a + b / (lam_um**2 - c) - d * lam_um**2
    return math.sqrt(n_sq)


class TransverseMomentum(NamedTuple):
    """Transverse momentum components in rad/m (scalars or arrays)."""

    qx: object
    qy: object


@dataclass(frozen=True)
class PumpAnisotropy:
    """Walk-off and index-combination coefficients of the extraordinary pump."""

    alpha: float
    beta: float
    gamma: float
    eta: float


def pump_coefficients(theta_p: float, lambda_p: float) -> PumpAnisotropy:
    """Anisotropy coefficients of an extraordinary pump at angle theta_p.

    theta_p is the angle between the pump propagation direction and the
    crystal optic axis, in radians, restricted to [0, pi/2].
    """
    if not (0.0 <= theta_p <= math.pi / 2):
        raise DispersionError(f"theta_p={theta_p} outside [0, pi/2]")
    n_po = refractive_index("o", lambda_p)
    n_pe = refractive_index("e", lambda_p)
    s, c = math.sin(theta_p), math.cos(theta_p)
    denom_sq = n_po**2 * s**2 + n_pe**2 * c**2
    denom = math.sqrt(denom_sq)
    return PumpAnisotropy(
        alpha=(n_po**2 - n_pe**2) * s * c / denom_sq,
        beta=n_po * n_pe / denom_sq,
        gamma=n_po / denom,
        eta=n_po * n_pe / denom,
    )


@dataclass(frozen=True)
class PhaseMatchContext:
    """The dispersion quantities the mismatch reads at one working point.

    Degenerate configuration only: signal and idler share lambda_s = 2*lambda_p
    and ordinary polarization, so n_io = n_so and K_i0 = K_s0.
    """

    n_so: float
    coeffs: PumpAnisotropy
    K_p0: float
    K_s0: float

    @property
    def k_signal(self) -> float:
        """Scalar signal wavenumber n_so * K_s0 used in propagation phases."""
        return self.n_so * self.K_s0

    @property
    def k_pump_z0(self) -> float:
        """On-axis pump longitudinal wavevector eta_p * K_p0."""
        return self.coeffs.eta * self.K_p0


def make_context(theta_p: float, lambda_p: float) -> PhaseMatchContext:
    """Degenerate working point, uncached: it reads ``BBO`` at every call."""
    lambda_s = 2.0 * lambda_p
    return PhaseMatchContext(
        n_so=refractive_index("o", lambda_s),
        coeffs=pump_coefficients(theta_p, lambda_p),
        K_p0=TWO_PI / lambda_p,
        K_s0=TWO_PI / lambda_s,
    )


def _max_of_sum(x, y) -> float:
    """max(x + y) over the broadcast of x and y.

    When x and y share no non-singleton axis every pairing occurs, and
    rounding is monotone, so the sum of the two maxima is the same number
    without forming the broadcast.
    """
    x, y = np.asarray(x), np.asarray(y)
    nd = max(x.ndim, y.ndim)
    xs = (1,) * (nd - x.ndim) + x.shape
    ys = (1,) * (nd - y.ndim) + y.shape
    if all(p == 1 or q == 1 for p, q in zip(xs, ys)):
        return float(x.max() + y.max())
    return float(np.max(x + y))


def _check_paraxial(q_s: TransverseMomentum, q_i: TransverseMomentum,
                    ctx: PhaseMatchContext) -> None:
    """Warn of signal, idler and pump where max |q| > PARAXIAL_RATIO * k."""
    sx, sy = np.asarray(q_s.qx), np.asarray(q_s.qy)
    ix, iy = np.asarray(q_i.qx), np.asarray(q_i.qy)
    ratio = PARAXIAL_RATIO
    for label, x, y, k in (("signal", sx, sy, ctx.k_signal),
                           ("idler", ix, iy, ctx.k_signal),
                           ("pump", sx + ix, sy + iy, ctx.k_pump_z0)):
        q_sq_max = _max_of_sum(x**2, y**2)
        if q_sq_max > (ratio * k) ** 2:
            warnings.warn(
                f"{label}: |q| = {math.sqrt(q_sq_max):.3e} rad/m exceeds "
                f"{ratio:g} * k = {ratio * k:.3e} rad/m; paraxial expansion "
                "unsafe", stacklevel=3)


def mismatch_parts(q, q_p: TransverseMomentum, ctx: PhaseMatchContext):
    """The paraxial mismatch k_sz + k_iz - k_pz in parts (f, h_x, h_y), in
    rad/m: the per-photon part f = -q^2/2k of each array of the sequence
    ``q`` (one photon's component each), and the pump parts of q_p,

        h_x = (2k - eta K_p0) + alpha q_px + beta^2 q_px^2 / (2 eta K_p0)
        h_y = gamma^2 q_py^2 / (2 eta K_p0),

    so the mismatch is (f(q_sx) + f(q_ix)) + h_x + (f(q_sy) + f(q_iy)) + h_y
    and the cancellation 2k - eta K_p0 is one scalar.  No paraxial guard.
    The parts are the crystal's, k = n_so K_s0; z is measured from the
    crystal centre in the same medium (:func:`fields._propagation`); the
    double crystal's gap takes the crystal's parts too, not the air's.
    """
    c = ctx.coeffs
    two_k = 2.0 * ctx.k_signal
    two_kp = 2.0 * c.eta * ctx.K_p0
    q_px, q_py = q_p
    f = tuple(-(p**2) / two_k for p in q)
    h_x = ((two_k - ctx.k_pump_z0) + c.alpha * q_px
           + c.beta**2 * q_px**2 / two_kp)
    h_y = c.gamma**2 * q_py**2 / two_kp
    return f, h_x, h_y


def mismatch_split(q_s: TransverseMomentum, q_i: TransverseMomentum,
                   ctx: PhaseMatchContext):
    """The mismatch as an x-pair part plus a y-pair part, (a, b), from
    :func:`mismatch_parts`: a = (f(q_sx) + f(q_ix)) + h_x(q_sx + q_ix), and
    b likewise in y.  Each keeps the broadcast shape of its own two
    components, so on a grid both are pair tables.  No paraxial guard:
    callers guard the pairs they evaluate.
    """
    sx, sy = np.asarray(q_s.qx), np.asarray(q_s.qy)
    ix, iy = np.asarray(q_i.qx), np.asarray(q_i.qy)
    (f_sx, f_ix, f_sy, f_iy), h_x, h_y = mismatch_parts(
        (sx, ix, sy, iy), TransverseMomentum(sx + ix, sy + iy), ctx)
    return (f_sx + f_ix) + h_x, (f_sy + f_iy) + h_y


def delta_kz(q_s: TransverseMomentum, q_i: TransverseMomentum,
             ctx: PhaseMatchContext):
    """Longitudinal phase mismatch k_sz + k_iz - k_pz in rad/m, as a + b."""
    _check_paraxial(q_s, q_i, ctx)
    a, b = mismatch_split(q_s, q_i, ctx)
    return a + b


def collinear_angle(lambda_p: float) -> float:
    """Phase-matching angle where the on-axis mismatch vanishes, in radians.

    The degenerate signal and idler, 2 * lambda_p each, match the pump on
    axis where eta(theta) = n_so, that is where sin^2 theta =
    (n_so^-2 - n_po^-2) / (n_pe^-2 - n_po^-2) (Boyd, Nonlinear Optics, 3rd
    ed., 2008, sec. 2.3).  Raises :class:`NoCollinearMatchError` when that
    lies outside [0, 1].
    """
    lambda_s = 2.0 * lambda_p
    n_so = refractive_index("o", lambda_s)
    n_po = refractive_index("o", lambda_p)
    n_pe = refractive_index("e", lambda_p)
    sin_sq = (n_so**-2 - n_po**-2) / (n_pe**-2 - n_po**-2)
    if not 0.0 <= sin_sq <= 1.0:
        raise NoCollinearMatchError(
            f"no collinear phase matching for pump {lambda_p * 1e9:.1f} nm -> "
            f"signal {lambda_s * 1e9:.1f} nm in [0, pi/2]")
    return math.asin(math.sqrt(sin_sq))
