"""Discrete conditional Shannon entropies and the entanglement-of-formation
lower bound ef_min = 2 log2(M) - H(X_s|X_i) - H(K_s|K_i), plus parameter
scans over propagation distance, phase-matching angle, and crystal gap.

The discrete joints are the 1D-x averaged position and momentum joints on
mutually conjugate M-bin grids (dx * dk = 2*pi/M), the DFT grid pairing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dispersion import DispersionError
from .fields import (AveragedJoints, DegenerateConditionError, Distribution,
                     GridError, Pipeline, averaged_joints_x)
from .phasematch import ConfigurationError

TWO_PI = 2.0 * math.pi

#: Relative tolerance on normalization and on the conjugate-grid product.
NORM_TOL = 1e-10
CONJUGACY_RTOL = 1e-9


class EntanglementError(ValueError):
    """Invalid input to an entropy or witness computation."""


#: What a scan point can fail with (a setup out of range, a truncated grid,
#: a gap scan on a single crystal, a budget refusal), recorded as its data.
_POINT_ERRORS = (ConfigurationError, DispersionError, GridError,
                 DegenerateConditionError, EntanglementError, MemoryError)


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
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise EntanglementError(
                f"bin width must be finite and > 0, got {self.delta}")
        if not np.all(v >= 0):  # NaN compares False too
            raise EntanglementError("joint has negative or NaN entries")

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def check_normalized(self) -> None:
        total = float(self.values.sum())
        if not abs(total - 1.0) <= NORM_TOL:  # NaN and inf totals fail too
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


def _conditional(p: np.ndarray) -> float:
    """H(S|I) = H(S, I) - H(I) in bits, as -sum p log2(p / p_I) over p > 0
    with p_I the idler marginal over the column axis.  No column sum is
    below its entries in floating point either, so p / p_I <= 1 and every
    term is >= 0: rounding cannot make the result negative, as the
    difference of the two entropies can when the joint is nearly a
    permutation."""
    col = np.broadcast_to(p.sum(axis=0), p.shape)
    mask = p > 0
    return float(-(p[mask] * np.log2(p[mask] / col[mask])).sum())


def conditional_entropy(j: DiscreteJoint) -> float:
    """H(S|I) = H(S, I) - H(I), idler marginal over the column axis."""
    j.check_normalized()
    return _conditional(j.values)


@dataclass(frozen=True)
class EfReport:
    """Entropies (bits), bound value (ebits), and provenance of one evaluation.

    ``grid`` holds the rank-R engine's grid diagnostics (the fields of
    :class:`fields.GridDiagnostics`) when the joints came from it.
    """

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
    grid: dict = field(default_factory=dict)


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
    h_pc = _conditional(pos.values)
    h_mc = _conditional(mom.values)
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


def _discrete(pipeline: Pipeline, pos2: Distribution, mom2: Distribution,
              m: int | None) -> tuple[DiscreteJoint, DiscreteJoint]:
    """The conjugate M-bin joints from the fine averaged joints."""
    pos, mom = _as_joint(pos2, "position"), _as_joint(mom2, "momentum")
    if m is None or m == pipeline.grid.n:
        return pos, mom
    return _downbin(pos, mom.values, m, pipeline.grid.dq)


def build_discrete_joints(pipeline: Pipeline, z: float, m: int | None = None
                          ) -> tuple[DiscreteJoint, DiscreteJoint]:
    """Run the rank-R field engine and produce the conjugate
    (position, momentum) 1D-x averaged joints at distance z.

    ``m`` defaults to the fine grid size (no re-binning); a divisor of n
    requests box-averaged position bins with the momentum joint cropped to
    the conjugate window.
    """
    joints = averaged_joints_x(pipeline, [z])
    return _discrete(pipeline, joints.position[0], joints.momentum, m)


def _report(pipeline: Pipeline, joints: AveragedJoints, index: int,
            m: int | None, fingerprint: str) -> EfReport:
    """ef_min at the index-th z of ``joints``, with the grid diagnostics."""
    z = joints.z[index]
    pos, mom = _discrete(pipeline, joints.position[index], joints.momentum, m)
    setup = pipeline.setup
    params = {"z": z, "theta_p": setup.theta_p, "kind": setup.kind,
              "length": setup.length, "gap": setup.gap}
    report = ef_min(pos, mom, fingerprint=fingerprint, params=params)
    return replace(report, grid=asdict(joints.diagnostics))


def ef_min_at(pipeline: Pipeline, z: float, m: int | None = None,
              fingerprint: str = "") -> EfReport:
    """End-to-end ef_min for one configuration."""
    return _report(pipeline, averaged_joints_x(pipeline, [z]), 0, m,
                   fingerprint)


@dataclass(frozen=True)
class ScanPoint:
    """One scan evaluation: the parameter value plus a report or an error."""

    value: float
    report: EfReport | None
    error: str | None = None


def scan(pipeline: Pipeline, z: float, parameter: str, values,
         m: int | None = None, fingerprint: str = "") -> list[ScanPoint]:
    """Evaluate ef_min over one swept parameter: "z", "theta_p", or "d".

    Points are evaluated independently in the order given; ``_POINT_ERRORS``
    are captured in the result, and any other exception propagates.  A z scan
    passes all its z values to one engine pass, which builds the factors
    once; an error of that pass is the error of every point.  A theta_p or
    d scan swaps the crystal setup and keeps the pipeline's grid.
    """
    if parameter not in ("z", "theta_p", "d"):
        raise EntanglementError(f"unknown scan parameter {parameter!r}")
    setup = pipeline.setup
    values = list(values)
    points: list[ScanPoint] = []

    if parameter == "z":
        try:
            joints = averaged_joints_x(pipeline, values)
        except _POINT_ERRORS as exc:  # the shared pass fails every point
            return [ScanPoint(value=float(value), report=None,
                              error=f"{type(exc).__name__}: {exc}")
                    for value in values]

    for index, value in enumerate(values):
        try:
            if parameter == "z":
                report = _report(pipeline, joints, index, m, fingerprint)
            else:
                if parameter == "d" and setup.kind != "double":
                    raise EntanglementError("gap scan requires a double-crystal setup")
                key = "theta_p" if parameter == "theta_p" else "gap"
                varied = replace(setup, **{key: float(value)})
                report = ef_min_at(replace(pipeline, setup=varied), z, m=m,
                                   fingerprint=fingerprint)
            points.append(ScanPoint(value=float(value), report=report))
        except _POINT_ERRORS as exc:  # per-point errors are data, not fatal
            points.append(ScanPoint(value=float(value), report=None,
                                    error=f"{type(exc).__name__}: {exc}"))
    return points
