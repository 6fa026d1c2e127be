"""Exact segment propagators under a global clock, and their oracle.

``SegmentPropagators`` exponentiates each protocol segment through one
Hermitian eigendecomposition per segment type and applies the segment's
rotating frame (``models.segment_hamiltonian``) as diagonal phases on the
global clock; on the static eliminated tier that frame is zero.
``propagate_timedep``, a second-order midpoint-exponential product
integrator over the oscillatory Hamiltonian itself, stands apart as the
independent oracle for that frame; disagreements between the two expose
frame-bookkeeping bugs.
"""
from __future__ import annotations

import math

import numpy as np

from . import models, numerics
from .errors import GuardError, ValidationError
from .hilbert import Space
from .models import SchemeParams

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


class SegmentPropagators:
    """Protocol-segment propagators of one tier, cached per segment type.

    A segment type is (raman, pulse_phase), ``pulse_phase=None`` meaning no
    pulse; a protocol evaluated at many clock times and durations then
    costs one eigendecomposition per type.
    """

    def __init__(self, space: Space, params: SchemeParams, tier: str):
        self.space = space
        self.params = models.derive_params(params)
        self.tier = tier
        self._cache: dict = {}

    def eigensystem(self, raman: bool, pulse_phase: float | None = None):
        """(eigensystem of H', frame diagonal g) of one segment type."""
        key = (raman, pulse_phase)
        if key not in self._cache:
            h, g = models.segment_hamiltonian(
                self.space, self.params, self.tier, raman, pulse_phase)
            self._cache[key] = (numerics.HermitianEigensystem(h), g)
        return self._cache[key]

    def propagator(self, raman: bool, pulse_phase: float | None,
                   t0: float, dt: float) -> np.ndarray:
        """Exact unitary over [t0, t0 + dt] of the global clock:
        e^{-i g (t0 + dt)} exp(-i H' dt) e^{i g t0}."""
        eig, g = self.eigensystem(raman, pulse_phase)
        return (np.exp(-1j * g * (t0 + dt))[:, None] * eig.propagator(dt)
                * np.exp(1j * g * t0))
