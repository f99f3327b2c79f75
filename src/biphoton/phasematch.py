"""Pump envelope, phase-matching functions, and the two-photon momentum amplitude.

The crystal source is either a single crystal of length L or a pair of
identical crystals of length L each separated by a gap d.  For the pair, the
longitudinal origin sits midway between the two crystals, which makes the
combined phase-matching function purely real: sinc(dkz*L/2) * cos(dkz*(L+d)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import (
    BBO,
    PhaseMatchContext,
    SellmeierModel,
    TransverseMomentum,
    delta_kz,
    make_context,
)


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
        if self.length <= 0:
            raise ConfigurationError(f"crystal length must be > 0, got {self.length}")
        if self.gap < 0:
            raise ConfigurationError(f"crystal gap must be >= 0, got {self.gap}")
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
        if self.waist <= 0:
            raise ConfigurationError(f"beam waist must be > 0, got {self.waist}")
        if self.wavelength <= 0:
            raise ConfigurationError(f"wavelength must be > 0, got {self.wavelength}")

    @property
    def lambda_signal(self) -> float:
        """Degenerate signal/idler wavelength 2 * lambda_p."""
        return 2.0 * self.wavelength


def sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention).

    Near the removable singularity (|x| < 1e-4) a truncated series keeps
    full double precision.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 - x**2 / 6.0 + x**4 / 120.0, np.sin(safe) / safe)
    if out.ndim == 0:
        return float(out)
    return out


def pump_envelope(q_p: TransverseMomentum, pump: PumpSpec):
    """Gaussian pump amplitude V(q_p) = exp(-|q_p|^2 w0^2 / 4), V0 = 1."""
    q_sq = np.asarray(q_p.qx) ** 2 + np.asarray(q_p.qy) ** 2
    return np.exp(-q_sq * pump.waist**2 / 4.0)


def phi_of_mismatch(dkz, setup: CrystalSetup):
    """Phase-matching amplitude as a function of the mismatch dkz.

    Single crystal: sinc(dkz*L/2) * exp(i*dkz*L/2), complex.
    Double crystal: sinc(dkz*L/2) * cos(dkz*(L+d)/2), purely real.
    """
    half = np.asarray(dkz) * setup.length / 2.0
    if setup.kind == "single":
        return sinc(half) * np.exp(1j * half)
    arg = np.asarray(dkz) * (setup.length + setup.gap) / 2.0
    return sinc(half) * np.cos(arg)


def momentum_amplitude(q_s: TransverseMomentum, q_i: TransverseMomentum,
                       pump: PumpSpec, setup: CrystalSetup,
                       model: SellmeierModel = BBO,
                       ctx: PhaseMatchContext | None = None,
                       paraxial: str = "warn"):
    """Unnormalized two-photon momentum amplitude V(q_s + q_i) * Phi(q_s, q_i).

    The Gaussian V factors exactly into an x-pair and a y-pair envelope,
    applied to Phi in place, so the envelope adds no array of the full
    broadcast shape.  Real for a double crystal.
    """
    if ctx is None:
        ctx = make_context(setup.theta_p, pump.wavelength, model)
    elif not math.isclose(ctx.lambda_p, pump.wavelength):
        raise ConfigurationError("context wavelength disagrees with pump")
    amp = phi_of_mismatch(delta_kz(q_s, q_i, ctx, paraxial), setup)
    amp *= pump_envelope(
        TransverseMomentum(np.asarray(q_s.qx) + np.asarray(q_i.qx), 0.0), pump)
    amp *= pump_envelope(
        TransverseMomentum(0.0, np.asarray(q_s.qy) + np.asarray(q_i.qy)), pump)
    return amp
