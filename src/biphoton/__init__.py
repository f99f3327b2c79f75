"""Simulation of position-momentum-entangled two-photon fields from type-I
SPDC: phase-matching engineering, propagation, discrete entropic
entanglement witness, and synthetic camera coincidence measurement."""

from .dispersion import (
    BBO,
    PhaseMatchContext,
    PumpAnisotropy,
    SellmeierModel,
    TransverseMomentum,
    collinear_angle,
    delta_kz,
    longitudinal_wavevectors,
    make_context,
    pump_coefficients,
    refractive_index,
)
from .phasematch import (
    CrystalSetup,
    PumpSpec,
    momentum_amplitude,
    pump_envelope,
    sinc,
)
from .fields import Distribution, MomentumGrid4, Pipeline

__version__ = "0.1.0"
