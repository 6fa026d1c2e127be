"""Propagators and multi-segment schedules under a global clock.

Schedules compose exact propagators only: time-independent generators are
exponentiated through one Hermitian eigendecomposition per distinct segment
type, and the oscillatory three-level model through its exact static
rotating frame.  ``propagate_timedep``, a second-order midpoint-exponential
product integrator over the oscillatory Hamiltonian itself, stands apart as
the independent oracle for that frame; disagreements between the two expose
frame-bookkeeping bugs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import models, numerics
from .errors import GuardError, ValidationError
from .hilbert import Space
from .models import HamiltonianSpec, SchemeParams

STEP_GUARD = 0.05  # max physical rate * dt must stay below this


def required_steps(t0: float, t1: float, rate_scale: float) -> int:
    """Smallest step count satisfying rate_scale * dt <= STEP_GUARD."""
    if rate_scale <= 0:
        return 1
    return max(1, math.ceil(abs(t1 - t0) * rate_scale / STEP_GUARD))


def propagate_timedep(
    h_of_t,
    t0: float,
    t1: float,
    steps: int,
    rate_scale: float | None = None,
) -> np.ndarray:
    """Second-order midpoint-exponential product integrator.

    U = prod_k exp(-i H(t_k + dt/2) dt) with each factor exponentiated
    exactly; halving dt shrinks the error by ~4x.  When ``rate_scale`` (the
    fastest rate in H) is given, the step guard rate*dt <= 0.05 is enforced.
    """
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if rate_scale is not None:
        needed = required_steps(t0, t1, rate_scale)
        if steps < needed:
            raise GuardError(
                f"step guard violated: {steps} steps give rate*dt = "
                f"{abs(t1 - t0) * rate_scale / steps:.3g} > {STEP_GUARD}; "
                f"need at least {needed} steps"
            )
    dt = (t1 - t0) / steps
    u = None
    for k in range(steps):
        tk = t0 + (k + 0.5) * dt
        uk = numerics.expm_hermitian(h_of_t(tk), dt)
        u = uk if u is None else uk @ u
    return u


@dataclass(frozen=True)
class Segment:
    """One schedule entry: a Hamiltonian configuration held for a duration."""

    spec: HamiltonianSpec
    duration: float
    start_time: float = 0.0

    def __post_init__(self):
        if self.duration < 0 or not np.isfinite(self.duration):
            raise ValidationError(f"segment duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class Schedule:
    """Contiguous segments sharing one space; start times follow the clock."""

    segments: tuple
    space: Space

    @staticmethod
    def from_durations(space: Space, entries) -> "Schedule":
        """Build from (spec, duration) pairs, assigning global start times."""
        clock = 0.0
        segs = []
        for spec, duration in entries:
            segs.append(Segment(spec, float(duration), clock))
            clock += float(duration)
        return Schedule(tuple(segs), space)

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)


@dataclass
class ComposeResult:
    """Total propagator plus per-segment diagnostics."""

    matrix: np.ndarray
    segment_matrices: list = field(default_factory=list)
    unitarity_defects: list = field(default_factory=list)

    def diagnostics(self) -> dict:
        # every segment is one exact exponential
        return {
            "segment_unitarity_defects": self.unitarity_defects,
            "segment_step_counts": [1] * len(self.unitarity_defects),
            "total_unitarity_defect": numerics.unitarity_defect(self.matrix),
        }


class SegmentPropagators:
    """Caches eigendecompositions per distinct segment spec.

    A schedule made of a handful of segment types evaluated at many
    durations then costs one decomposition per type.
    """

    def __init__(self, space: Space, params: SchemeParams):
        self.space = space
        self.params = models.derive_params(params)
        self._cache: dict = {}

    def _resolved(self, spec: HamiltonianSpec):
        if spec not in self._cache:
            built = models.build_for_spec(self.space, self.params, spec)
            if built[0] == "static":
                self._cache[spec] = ("static", numerics.HermitianEigensystem(built[1]))
            else:
                _, op, frame = built
                self._cache[spec] = (
                    "framed", numerics.HermitianEigensystem(op), frame)
        return self._cache[spec]

    def propagator(self, segment: Segment) -> np.ndarray:
        """Exact unitary over the segment, framed segments on the global clock."""
        spec, t0, dt = segment.spec, segment.start_time, segment.duration
        resolved = self._resolved(spec)
        if resolved[0] == "static":
            return resolved[1].propagator(dt)
        _, eig, frame = resolved
        w0 = frame.unitary(self.space, t0)
        w1 = frame.unitary(self.space, t0 + dt)
        return w1.conj().T @ eig.propagator(dt) @ w0


def compose(schedule: Schedule, params: SchemeParams) -> ComposeResult:
    """Ordered product of segment propagators, later segments on the left.

    The global clock enters through each segment's start time, keeping
    rotating-frame phases continuous across boundaries.
    """
    props = SegmentPropagators(schedule.space, params)
    total = np.eye(schedule.space.dim, dtype=complex)
    result = ComposeResult(total)
    for seg in schedule.segments:
        u = props.propagator(seg)
        total = u @ total
        result.segment_matrices.append(u)
        result.unitarity_defects.append(numerics.unitarity_defect(u))
    result.matrix = total
    return result

