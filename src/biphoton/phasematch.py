"""Pump envelope, phase-matching functions, and the two-photon momentum amplitude.

The crystal source is either a single crystal of length L or a pair of
identical crystals of length L each separated by a gap d.  For the pair, the
longitudinal origin sits midway between the two crystals, which makes the
combined phase-matching function purely real: sinc(dkz*L/2) * cos(dkz*(L+d)/2).

The amplitude is evaluated on the exact split dkz = a(x-pair) + b(y-pair)
(:func:`dispersion.mismatch_split`): sines and cosines are taken of a and b
separately and combined by angle addition, so on a grid every
transcendental runs on pair tables and the full broadcast needs only
products, sums and one division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import (TransverseMomentum, _check_paraxial, make_context,
                         mismatch_split)


class ConfigurationError(ValueError):
    """Invalid source or pump configuration."""


@dataclass(frozen=True)
class CrystalSetup:
    """Source geometry: kind is "single" or "double".

    ``length`` is the length of one crystal; ``gap`` is the separation for
    the double configuration (must be 0 for single).
    """

    kind: str
    length: float
    gap: float
    theta_p: float

    def __post_init__(self):
        if self.kind not in ("single", "double"):
            raise ConfigurationError(f"crystal kind must be single|double, got {self.kind!r}")
        if not (math.isfinite(self.length) and self.length > 0):
            raise ConfigurationError(
                f"crystal length must be finite and > 0, got {self.length}")
        if not (math.isfinite(self.gap) and self.gap >= 0):
            raise ConfigurationError(
                f"crystal gap must be finite and >= 0, got {self.gap}")
        if self.kind == "single" and self.gap != 0:
            raise ConfigurationError("gap is only meaningful for the double configuration")
        if not (0.0 < self.theta_p < math.pi / 2):
            raise ConfigurationError(f"theta_p={self.theta_p} outside (0, pi/2)")

    @classmethod
    def single(cls, length: float, theta_p: float) -> "CrystalSetup":
        return cls("single", length, 0.0, theta_p)

    @classmethod
    def double(cls, length: float, gap: float, theta_p: float) -> "CrystalSetup":
        return cls("double", length, gap, theta_p)


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian pump: wavelength (m) and beam waist w0 (m); amplitude V0 = 1."""

    wavelength: float
    waist: float

    def __post_init__(self):
        if not (math.isfinite(self.waist) and self.waist > 0):
            raise ConfigurationError(
                f"beam waist must be finite and > 0, got {self.waist}")
        if not (math.isfinite(self.wavelength) and self.wavelength > 0):
            raise ConfigurationError(
                f"wavelength must be finite and > 0, got {self.wavelength}")

    @property
    def lambda_signal(self) -> float:
        """Degenerate signal/idler wavelength 2 * lambda_p."""
        return 2.0 * self.wavelength


#: |x| below which sin(x)/x is taken from its series.
SINC_SERIES_CUT = 1e-4


def _sin_over(sin_x, x, out=None):
    """sin(x)/x given sin(x) and x, with the value 1 at x = 0, written into
    ``out`` when given (which may be ``sin_x`` itself).

    On |x| < SINC_SERIES_CUT the truncated series 1 - x^2/6 + x^4/120
    replaces the quotient: there sin(x) carries an absolute rounding error
    (a few 1e-16 when it comes from angle addition) that the division would
    turn into a large relative one.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(np.divide(sin_x, x, out=out))
    small = np.abs(x) < SINC_SERIES_CUT
    if small.any():
        xx = x[small] ** 2
        out[small] = 1.0 - xx / 6.0 + xx * xx / 120.0
    return out


def sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    x = np.asarray(x, dtype=float)
    out = np.sin(x, out=np.empty_like(x))
    out = _sin_over(out, x, out=out)
    if out.ndim == 0:
        return float(out)
    return out


def pump_envelope(q_p: TransverseMomentum, pump: PumpSpec):
    """Gaussian pump amplitude V(q_p) = exp(-|q_p|^2 w0^2 / 4), V0 = 1."""
    q_sq = np.asarray(q_p.qx) ** 2 + np.asarray(q_p.qy) ** 2
    return np.exp(-q_sq * pump.waist**2 / 4.0)


def _phi_split(a, b, setup: CrystalSetup, weights=()):
    """Phase-matching amplitude of the mismatch a + b, times real ``weights``.

    a and b may have different broadcast shapes (an x-pair and a y-pair
    table).  With h = (a + b) L/2, the phase e^{ih} is the product of
    e^{i a L/2} and e^{i b L/2}, and its imaginary part is sin h; for a
    double crystal, cos g with g = (a + b)(L + d)/2 is the real part of the
    same product at (L + d)/2.  So exponentials run on the parts only.  The
    real factors (sinc h, the weights, and cos g) are multiplied together
    first, so a single crystal's complex phase is scaled once.
    """
    half = setup.length / 2.0
    h_a, h_b = np.asarray(a) * half, np.asarray(b) * half
    phase = np.exp(1j * h_a) * np.exp(1j * h_b)
    real = _sin_over(phase.imag, h_a + h_b)
    for w in weights:
        real *= w
    if setup.kind == "single":
        phase *= real
        return phase
    g = (setup.length + setup.gap) / 2.0
    real *= (np.exp(1j * (np.asarray(a) * g))
             * np.exp(1j * (np.asarray(b) * g))).real
    return real


def phi_of_mismatch(dkz, setup: CrystalSetup):
    """Phase-matching amplitude as a function of the mismatch dkz.

    Single crystal: sinc(dkz*L/2) * exp(i*dkz*L/2), complex.
    Double crystal: sinc(dkz*L/2) * cos(dkz*(L+d)/2), purely real.
    The b = 0 case of the split evaluation in :func:`momentum_amplitude`.
    """
    return _phi_split(dkz, 0.0, setup)


def momentum_amplitude(q_s: TransverseMomentum, q_i: TransverseMomentum,
                       pump: PumpSpec, setup: CrystalSetup):
    """Unnormalized two-photon momentum amplitude V(q_s + q_i) * Phi(q_s, q_i).

    Guarded, then evaluated on the split mismatch a(q_sx, q_ix) +
    b(q_sy, q_iy); the Gaussian V factors exactly into an x-pair and a
    y-pair envelope, each on its own broadcast shape.  Real for a double
    crystal.
    """
    ctx = make_context(setup.theta_p, pump.wavelength)
    _check_paraxial(q_s, q_i, ctx)
    a, b = mismatch_split(q_s, q_i, ctx)
    v_x = pump_envelope(
        TransverseMomentum(np.asarray(q_s.qx) + np.asarray(q_i.qx), 0.0), pump)
    v_y = pump_envelope(
        TransverseMomentum(0.0, np.asarray(q_s.qy) + np.asarray(q_i.qy)), pump)
    return _phi_split(a, b, setup, (v_x, v_y))
