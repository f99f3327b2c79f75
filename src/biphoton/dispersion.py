"""Crystal optics for degenerate type-I SPDC in a negative uniaxial crystal.

Everything here is closed form: refractive indices from a Sellmeier-type
formula, the pump anisotropy coefficients (walk-off and index combinations),
the paraxial longitudinal wavevectors of pump/signal/idler, and the
longitudinal phase mismatch built from them.  All quantities are strict SI
(meters, rad/m, radians); the only unit quirk is that Sellmeier coefficients
are expressed for wavelengths in micrometers, which stays internal to
``refractive_index``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

TWO_PI = 2.0 * math.pi

#: Allowed values for the paraxiality guard mode.
PARAXIAL_MODES = ("ignore", "warn", "error")

#: Default |q|/k ratio above which the paraxial expansion is considered unsafe.
PARAXIAL_RATIO = 0.2


class DispersionError(ValueError):
    """Base class for crystal-optics domain errors."""


class WavelengthRangeError(DispersionError):
    """Wavelength outside the validity window of the index model."""


class ParaxialityError(DispersionError):
    """Transverse momentum too large for the paraxial expansion."""


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


def load_sellmeier(path) -> SellmeierModel:
    """Load a Sellmeier coefficient set from a plain-text key-value file.

    Schema (``#`` comments and blank lines ignored, ``key = value`` pairs)::

        name = BBO
        ordinary = 2.7405 0.0184 0.0179 0.0155
        extraordinary = 2.3730 0.0128 0.0156 0.0044
        lambda_min_um = 0.22
        lambda_max_um = 1.40

    The four numbers per polarization are (a, b, c, d) of
    n^2 = a + b/(lam^2 - c) - d*lam^2 with lam in micrometers.
    """
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DispersionError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key] = value

    def quad(key: str) -> tuple[float, float, float, float]:
        try:
            parts = tuple(float(tok) for tok in entries[key].split())
        except KeyError:
            raise DispersionError(f"{path}: missing key '{key}'") from None
        if len(parts) != 4:
            raise DispersionError(f"{path}: '{key}' needs exactly 4 numbers")
        return parts  # type: ignore[return-value]

    return SellmeierModel(
        ordinary=quad("ordinary"),
        extraordinary=quad("extraordinary"),
        lambda_min=float(entries.get("lambda_min_um", 0.22)) * 1e-6,
        lambda_max=float(entries.get("lambda_max_um", 1.40)) * 1e-6,
        name=entries.get("name", "custom"),
    )


def refractive_index(polarization: str, wavelength: float,
                     model: SellmeierModel = BBO) -> float:
    """Principal refractive index at ``wavelength`` (meters).

    ``polarization`` is "ordinary"/"o" or "extraordinary"/"e".
    """
    if polarization in ("o", "ordinary"):
        a, b, c, d = model.ordinary
    elif polarization in ("e", "extraordinary"):
        a, b, c, d = model.extraordinary
    else:
        raise DispersionError(f"unknown polarization {polarization!r}")
    if not (model.lambda_min <= wavelength <= model.lambda_max):
        raise WavelengthRangeError(
            f"wavelength {wavelength * 1e9:.1f} nm outside {model.name} validity "
            f"window [{model.lambda_min * 1e9:.0f}, {model.lambda_max * 1e9:.0f}] nm"
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


def pump_coefficients(theta_p: float, lambda_p: float,
                      model: SellmeierModel = BBO) -> PumpAnisotropy:
    """Anisotropy coefficients of an extraordinary pump at angle theta_p.

    theta_p is the angle between the pump propagation direction and the
    crystal optic axis, in radians, restricted to [0, pi/2].
    """
    if not (0.0 <= theta_p <= math.pi / 2):
        raise DispersionError(f"theta_p={theta_p} outside [0, pi/2]")
    n_po = refractive_index("o", lambda_p, model)
    n_pe = refractive_index("e", lambda_p, model)
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
    """Cached dispersion quantities for one (theta_p, lambda_p) working point.

    Degenerate configuration only: signal and idler share lambda_s = 2*lambda_p
    and ordinary polarization, so n_io = n_so and K_i0 = K_s0.
    """

    theta_p: float
    lambda_p: float
    lambda_s: float
    n_po: float
    n_pe: float
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


def make_context(theta_p: float, lambda_p: float,
                 model: SellmeierModel = BBO) -> PhaseMatchContext:
    """Build the cached working point for the degenerate configuration."""
    lambda_s = 2.0 * lambda_p
    return PhaseMatchContext(
        theta_p=theta_p,
        lambda_p=lambda_p,
        lambda_s=lambda_s,
        n_po=refractive_index("o", lambda_p, model),
        n_pe=refractive_index("e", lambda_p, model),
        n_so=refractive_index("o", lambda_s, model),
        coeffs=pump_coefficients(theta_p, lambda_p, model),
        K_p0=TWO_PI / lambda_p,
        K_s0=TWO_PI / lambda_s,
    )


def _check_paraxial(q_sq_max: float, k: float, mode: str, label: str,
                    ratio: float = PARAXIAL_RATIO) -> None:
    if q_sq_max > (ratio * k) ** 2:
        msg = (f"{label}: |q| = {math.sqrt(q_sq_max):.3e} rad/m exceeds "
               f"{ratio:g} * k = {ratio * k:.3e} rad/m; paraxial expansion unsafe")
        if mode == "error":
            raise ParaxialityError(msg)
        warnings.warn(msg, stacklevel=4)


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


def _check_paraxial_all(q_s: TransverseMomentum, q_i: TransverseMomentum,
                        ctx: PhaseMatchContext, mode: str) -> None:
    """Signal, idler and pump |q|/k guards of one mismatch evaluation."""
    if mode == "ignore":
        return
    if mode not in PARAXIAL_MODES:
        raise DispersionError(f"paraxial mode must be one of {PARAXIAL_MODES}")
    sx, sy = np.asarray(q_s.qx), np.asarray(q_s.qy)
    ix, iy = np.asarray(q_i.qx), np.asarray(q_i.qy)
    _check_paraxial(_max_of_sum(sx**2, sy**2), ctx.k_signal, mode, "signal")
    _check_paraxial(_max_of_sum(ix**2, iy**2), ctx.k_signal, mode, "idler")
    _check_paraxial(_max_of_sum((sx + ix) ** 2, (sy + iy) ** 2),
                    ctx.k_pump_z0, mode, "pump")


def longitudinal_wavevectors(q_s: TransverseMomentum, q_i: TransverseMomentum,
                             ctx: PhaseMatchContext, paraxial: str = "warn"):
    """Paraxial longitudinal wavevectors (k_pz, k_sz, k_iz) in rad/m.

    Accepts scalar or broadcastable array momentum components.  The pump
    transverse momentum is q_p = q_s + q_i and carries the walk-off term
    -alpha * q_px.
    """
    _check_paraxial_all(q_s, q_i, ctx, paraxial)
    c = ctx.coeffs
    q_px = np.asarray(q_s.qx) + np.asarray(q_i.qx)
    q_py = np.asarray(q_s.qy) + np.asarray(q_i.qy)
    qs_sq = np.asarray(q_s.qx) ** 2 + np.asarray(q_s.qy) ** 2
    qi_sq = np.asarray(q_i.qx) ** 2 + np.asarray(q_i.qy) ** 2
    k_pz = (-c.alpha * q_px + c.eta * ctx.K_p0
            - (c.beta**2 * q_px**2 + c.gamma**2 * q_py**2)
            / (2.0 * c.eta * ctx.K_p0))
    k_sz = ctx.n_so * ctx.K_s0 - qs_sq / (2.0 * ctx.n_so * ctx.K_s0)
    k_iz = ctx.n_so * ctx.K_s0 - qi_sq / (2.0 * ctx.n_so * ctx.K_s0)
    return k_pz, k_sz, k_iz


def mismatch_split(q_s: TransverseMomentum, q_i: TransverseMomentum,
                   ctx: PhaseMatchContext, paraxial: str = "warn"):
    """The mismatch k_sz + k_iz - k_pz as an x-pair part plus a y-pair part.

    With k = n_so K_s0 and q_p = q_s + q_i, the paraxial mismatch splits
    exactly into

        a(q_sx, q_ix) = (2k - eta K_p0) - (q_sx^2 + q_ix^2) / 2k
                        + alpha q_px + beta^2 q_px^2 / (2 eta K_p0)
        b(q_sy, q_iy) = -(q_sy^2 + q_iy^2) / 2k + gamma^2 q_py^2 / (2 eta K_p0)

    Each part keeps the broadcast shape of its own two components, so on a
    grid both are pair tables, and the large cancellation 2k - eta K_p0
    happens once, as a scalar, not per element.  Returns (a, b) in rad/m.
    """
    _check_paraxial_all(q_s, q_i, ctx, paraxial)
    c = ctx.coeffs
    sx, sy = np.asarray(q_s.qx), np.asarray(q_s.qy)
    ix, iy = np.asarray(q_i.qx), np.asarray(q_i.qy)
    q_px, q_py = sx + ix, sy + iy
    two_k = 2.0 * ctx.k_signal
    two_kp = 2.0 * c.eta * ctx.K_p0
    a = ((two_k - ctx.k_pump_z0) - (sx**2 + ix**2) / two_k + c.alpha * q_px
         + c.beta**2 * q_px**2 / two_kp)
    b = -(sy**2 + iy**2) / two_k + c.gamma**2 * q_py**2 / two_kp
    return a, b


def delta_kz(q_s: TransverseMomentum, q_i: TransverseMomentum,
             ctx: PhaseMatchContext, paraxial: str = "warn"):
    """Longitudinal phase mismatch k_sz + k_iz - k_pz in rad/m, as a + b."""
    a, b = mismatch_split(q_s, q_i, ctx, paraxial)
    return a + b


def collinear_angle(lambda_p: float, lambda_s: float | None = None,
                    model: SellmeierModel = BBO, tol: float = 1e-8) -> float:
    """Phase-matching angle where the on-axis mismatch vanishes, in radians.

    Solves delta_kz(0, 0; theta) = 0 by bracketed root finding over
    (0, pi/2) to absolute tolerance ``tol``.  ``lambda_s`` defaults to the
    degenerate 2 * lambda_p; a non-degenerate signal determines the idler
    through energy conservation.
    """
    if lambda_s is None:
        lambda_s = 2.0 * lambda_p
    lambda_i = 1.0 / (1.0 / lambda_p - 1.0 / lambda_s)
    n_s = refractive_index("o", lambda_s, model)
    n_i = refractive_index("o", lambda_i, model)
    k_dc = n_s * TWO_PI / lambda_s + n_i * TWO_PI / lambda_i

    def mismatch(theta: float) -> float:
        eta = pump_coefficients(theta, lambda_p, model).eta
        return k_dc - eta * TWO_PI / lambda_p

    thetas = np.linspace(1e-9, math.pi / 2 - 1e-9, 181)
    vals = [mismatch(t) for t in thetas]
    for lo, hi, flo, fhi in zip(thetas, thetas[1:], vals, vals[1:]):
        if flo == 0.0:
            return float(lo)
        if flo * fhi < 0.0:
            return float(brentq(mismatch, lo, hi, xtol=tol))
    raise NoCollinearMatchError(
        f"no collinear phase matching for pump {lambda_p * 1e9:.1f} nm -> "
        f"signal {lambda_s * 1e9:.1f} nm in (0, pi/2)"
    )
