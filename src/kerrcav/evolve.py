"""Exact segment propagators under a global clock.

``SegmentPropagators`` exponentiates each protocol segment through one
Hermitian eigendecomposition per segment type and applies the segment's
rotating frame (``models.segment_hamiltonian``) as diagonal phases on the
global clock.  The tier is the space's level count (two levels: the
static eliminated tier, whose frame is zero; three: the full tier), and a
segment's pulse is its phase (None: no pulse).  It works in photon-number
sectors (``sector_blocks``): the eliminated tier and its pulses conserve
the photon number, and the photon index varies slowest, so a segment is a
stack of ``photon_dim`` blocks of the atomic dimension and a full-space
vector reshapes to (photon_dim, atomic_dim).  The full tier, whose Raman
term changes the photon number, is one block.  A pulse's phase is a
diagonal conjugation, so one phase-0 eigensystem serves every phase.
The independent oracle for that frame, a second-order midpoint-exponential
product integrator over the oscillatory Hamiltonian itself, lives with the
tests in ``tests/oracles.py``; disagreements between the two expose
frame-bookkeeping bugs.
"""
from __future__ import annotations

import numpy as np

from . import hilbert, models, numerics
from .errors import ValidationError
from .hilbert import Space
from .models import SchemeParams


def sector_blocks(space: Space, h: np.ndarray, g: np.ndarray | None = None):
    """(S, d, d) and (S, d) diagonal blocks of a full-space segment (H', g);
    g defaults to the zero frame of a static operator.

    S = ``photon_dim`` on a two-level space and 1 (the whole space) on a
    three-level one.  The builders leave exact zeros between photon-number
    sectors, so an entry there that is not exactly zero is an error.
    """
    s = space.photon_dim if space.levels == 2 else 1
    d = space.dim // s
    sectors = np.arange(s)
    blocks = h.reshape(s, d, s, d)[sectors, :, sectors, :]
    if np.count_nonzero(blocks) != np.count_nonzero(h):
        raise ValidationError(
            f"the segment couples photon-number sectors; "
            f"it cannot be split into {s} diagonal blocks")
    return blocks, (np.zeros((s, d)) if g is None else np.reshape(g, (s, d)))


class SegmentPropagators:
    """Protocol-segment propagators on one space, cached per segment type.

    A segment type is (raman, pulse), so a protocol evaluated at many clock
    times, durations and pulse phases costs one eigendecomposition per
    type.  Eigensystems, frames and propagators are ``sector_blocks``
    stacks.
    """

    def __init__(self, space: Space, params: SchemeParams):
        self.space = space
        self.params = params
        self._cache: dict = {}
        # diagonal of S00 + S22, the generator R = exp(i phi (S00 + S22))
        # that carries a pulse from phase 0 to phase phi
        occupation = np.diag(hilbert.collective(space, 0, 0)).real
        if space.levels == 3:
            occupation = occupation + np.diag(hilbert.collective(space, 2, 2)).real
        self._phase_generator = occupation

    def eigensystem(self, raman: bool, pulse: bool = False):
        """(eigensystem of H', frame diagonal g) of one segment type, as
        stacks; a pulse segment is taken at phase 0."""
        key = (raman, pulse)
        if key not in self._cache:
            if raman and pulse:
                raise ValidationError(
                    "a pulse segment runs with the Raman lasers off")
            h, g = models.segment_hamiltonian(
                self.space, self.params, raman,
                pulse_phase=0.0 if pulse else None)
            h, g = sector_blocks(self.space, h, g)
            self._cache[key] = (numerics.HermitianEigensystem(h), g)
        return self._cache[key]

    def propagator(self, raman: bool, pulse_phase: float | None,
                   t0: float, dt: float) -> np.ndarray:
        """Exact unitary stack over [t0, t0 + dt] of the global clock:
        e^{-i g (t0 + dt)} R exp(-i H'(0) dt) R^dag e^{i g t0}, where
        R = exp(i phi (S00 + S22)) turns the phase-0 pulse into the pulse at
        ``pulse_phase`` = phi (R = 1 without a pulse)."""
        eig, g = self.eigensystem(raman, pulse_phase is not None)
        shift = (0.0 if pulse_phase is None
                 else pulse_phase * self._phase_generator.reshape(g.shape))
        return (np.exp(-1j * (g * (t0 + dt) - shift))[..., None]
                * eig.propagator(dt) * np.exp(1j * (g * t0 - shift))[..., None, :])
