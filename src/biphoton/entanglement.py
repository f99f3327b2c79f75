"""Discrete conditional Shannon entropies and the entanglement-of-formation
lower bound ef_min = 2 log2(M) - H(X_s|X_i) - H(K_s|K_i), plus parameter
scans over propagation distance, phase-matching angle, and crystal gap.

The discrete joints are the 1D-x averaged position and momentum joints on
mutually conjugate M-bin grids (dx * dk = 2*pi/M), the DFT grid pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import Distribution, Pipeline, averaged_joint_x, momentum_pdf

TWO_PI = 2.0 * math.pi

#: Relative tolerance on normalization and on the conjugate-grid product.
NORM_TOL = 1e-10
CONJUGACY_RTOL = 1e-9


class EntanglementError(ValueError):
    """Invalid input to an entropy or witness computation."""


@dataclass(frozen=True)
class DiscreteJoint:
    """M x M joint probability matrix (signal rows, idler columns)."""

    values: np.ndarray
    basis: str  # "position" | "momentum"
    delta: float  # bin width (m or rad/m)

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise EntanglementError(f"joint must be square, got shape {v.shape}")
        if self.basis not in ("position", "momentum"):
            raise EntanglementError(f"basis must be position|momentum, got {self.basis!r}")
        if self.delta <= 0:
            raise EntanglementError(f"bin width must be > 0, got {self.delta}")
        if np.any(v < 0):
            raise EntanglementError("joint has negative entries")

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def check_normalized(self) -> None:
        total = float(self.values.sum())
        if abs(total - 1.0) > NORM_TOL * max(1.0, abs(total)):
            raise EntanglementError(
                f"joint not normalized: total = {total!r} (tolerance {NORM_TOL})")


def _entropy(p: np.ndarray) -> float:
    """Shannon entropy in bits with 0 * log 0 = 0."""
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def joint_entropy(j: DiscreteJoint) -> float:
    """H(S, I) = -sum p log2 p over the full matrix, in bits."""
    j.check_normalized()
    return _entropy(j.values.ravel())


def conditional_entropy(j: DiscreteJoint) -> float:
    """H(S|I) = H(S, I) - H(I), idler marginal over the column axis."""
    j.check_normalized()
    return _entropy(j.values.ravel()) - _entropy(j.values.sum(axis=0))


@dataclass(frozen=True)
class EfReport:
    """Entropies (bits), bound value (ebits), and provenance of one evaluation."""

    m: int
    h_pos_joint: float
    h_pos_idler: float
    h_pos_conditional: float
    h_mom_joint: float
    h_mom_idler: float
    h_mom_conditional: float
    ef_min: float
    fingerprint: str = ""
    params: dict = field(default_factory=dict)


def ef_min(pos: DiscreteJoint, mom: DiscreteJoint,
           fingerprint: str = "", params: dict | None = None) -> EfReport:
    """Lower bound 2 log2(M) - H(X_s|X_i) - H(K_s|K_i), reported raw.

    Requires the two joints to share M and to live on mutually conjugate
    grids, dx * dk = 2*pi/M; the bound is meaningless otherwise.
    """
    if pos.basis != "position" or mom.basis != "momentum":
        raise EntanglementError("ef_min expects (position joint, momentum joint)")
    if pos.m != mom.m:
        raise EntanglementError(f"dimension mismatch: M = {pos.m} vs {mom.m}")
    m = pos.m
    product = pos.delta * mom.delta
    target = TWO_PI / m
    if abs(product - target) > CONJUGACY_RTOL * target:
        raise EntanglementError(
            f"grids not conjugate: dx*dk = {product!r}, need 2*pi/M = {target!r}")
    pos.check_normalized()
    mom.check_normalized()

    h_pj = _entropy(pos.values.ravel())
    h_pi = _entropy(pos.values.sum(axis=0))
    h_mj = _entropy(mom.values.ravel())
    h_mi = _entropy(mom.values.sum(axis=0))
    h_pc = h_pj - h_pi
    h_mc = h_mj - h_mi
    return EfReport(
        m=m,
        h_pos_joint=h_pj, h_pos_idler=h_pi, h_pos_conditional=h_pc,
        h_mom_joint=h_mj, h_mom_idler=h_mi, h_mom_conditional=h_mc,
        ef_min=2.0 * math.log2(m) - h_pc - h_mc,
        fingerprint=fingerprint,
        params=dict(params or {}),
    )


def _as_joint(dist2: Distribution, basis: str) -> DiscreteJoint:
    values = dist2.values * dist2.bin_volume  # probabilities per bin pair
    values = values / values.sum()
    return DiscreteJoint(values=values, basis=basis, delta=dist2.deltas[0])


def _downbin(joint: DiscreteJoint, mom_fine: np.ndarray, m: int,
             dq: float) -> tuple[DiscreteJoint, DiscreteJoint]:
    """Box-average the position joint to m bins; crop the momentum joint.

    With the position window fixed at N*dx, the conjugate momentum grid of
    the m coarse position bins has spacing dk = 2*pi/(m * b * dx) = dq, so
    the momentum joint keeps its fine bin width and is cropped to the
    central m bins (then renormalized).
    """
    n = joint.m
    if n % m != 0:
        raise EntanglementError(f"M = {m} must divide the fine grid size {n}")
    b = n // m
    coarse = joint.values.reshape(m, b, m, b).sum(axis=(1, 3))
    pos = DiscreteJoint(values=coarse / coarse.sum(), basis="position",
                        delta=joint.delta * b)
    lo = (n - m) // 2
    crop = mom_fine[lo:lo + m, lo:lo + m].copy()
    total = crop.sum()
    if total <= 0:
        raise EntanglementError("momentum crop window carries no probability")
    mom = DiscreteJoint(values=crop / total, basis="momentum", delta=dq)
    return pos, mom


def _momentum_joint(amp) -> DiscreteJoint:
    """The fine 1D-x averaged momentum joint; independent of z."""
    return _as_joint(averaged_joint_x(momentum_pdf(amp)), "momentum")


def _joints_at(pipeline: Pipeline, z: float, m: int | None, amp,
               mom_fine: DiscreteJoint) -> tuple[DiscreteJoint, DiscreteJoint]:
    """The conjugate joints at z, given the amplitude and its momentum joint."""
    pos4 = pipeline.position_distribution(z, amp)
    pos_fine = _as_joint(averaged_joint_x(pos4), "position")
    del pos4
    if m is None or m == pipeline.grid.n:
        return pos_fine, mom_fine
    return _downbin(pos_fine, mom_fine.values, m, pipeline.grid.dq)


def build_discrete_joints(pipeline: Pipeline, z: float, m: int | None = None,
                          amp=None) -> tuple[DiscreteJoint, DiscreteJoint]:
    """Run the field pipeline and produce the conjugate (position, momentum)
    1D-x averaged joints at distance z.

    ``m`` defaults to the fine grid size (no re-binning); a divisor of n
    requests box-averaged position bins with the momentum joint cropped to
    the conjugate window.  ``amp`` reuses an already built momentum
    amplitude of the same pipeline.
    """
    if amp is None:
        amp = pipeline.momentum_amplitude()
    return _joints_at(pipeline, z, m, amp, _momentum_joint(amp))


def _report(pipeline: Pipeline, z: float, pos: DiscreteJoint,
            mom: DiscreteJoint, fingerprint: str,
            params: dict | None = None) -> EfReport:
    setup = pipeline.setup
    merged = {"z": z, "theta_p": setup.theta_p, "kind": setup.kind,
              "length": setup.length, "gap": setup.gap}
    merged.update(params or {})
    return ef_min(pos, mom, fingerprint=fingerprint, params=merged)


def ef_min_at(pipeline: Pipeline, z: float, m: int | None = None,
              fingerprint: str = "", amp=None,
              params: dict | None = None) -> EfReport:
    """End-to-end ef_min for one configuration."""
    pos, mom = build_discrete_joints(pipeline, z, m=m, amp=amp)
    return _report(pipeline, z, pos, mom, fingerprint, params)


@dataclass(frozen=True)
class ScanPoint:
    """One scan evaluation: the parameter value plus a report or an error."""

    value: float
    report: EfReport | None
    error: str | None = None


def scan(pipeline: Pipeline, z: float, parameter: str, values,
         m: int | None = None, fingerprint: str = "") -> list[ScanPoint]:
    """Evaluate ef_min over one swept parameter: "z", "theta_p", or "d".

    Points are evaluated independently in the order given; per-point errors
    are captured in the result instead of aborting the scan.  For a z scan
    the momentum amplitude and its momentum joint (both z-independent) are
    built once and reused.  A theta_p or d scan swaps the crystal setup and
    keeps the pipeline's grid.
    """
    if parameter not in ("z", "theta_p", "d"):
        raise EntanglementError(f"unknown scan parameter {parameter!r}")
    setup = pipeline.setup
    points: list[ScanPoint] = []

    if parameter == "z":
        shared_amp = pipeline.momentum_amplitude()
        shared_mom = _momentum_joint(shared_amp)

    for value in values:
        try:
            if parameter == "z":
                pos, mom = _joints_at(pipeline, float(value), m, shared_amp,
                                      shared_mom)
                report = _report(pipeline, float(value), pos, mom, fingerprint)
            else:
                if parameter == "d" and setup.kind != "double":
                    raise EntanglementError("gap scan requires a double-crystal setup")
                key = "theta_p" if parameter == "theta_p" else "gap"
                varied = replace(setup, **{key: float(value)})
                report = ef_min_at(replace(pipeline, setup=varied), z, m=m,
                                   fingerprint=fingerprint)
            points.append(ScanPoint(value=float(value), report=report))
        except Exception as exc:  # per-point errors are data, not fatal
            points.append(ScanPoint(value=float(value), report=None,
                                    error=f"{type(exc).__name__}: {exc}"))
    return points
