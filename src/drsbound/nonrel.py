"""Nonrelativistic limit: the closed-form ring-shaped Kratzer spectrum.

Obtained from the spin-limit solutions through E - M -> E, E + M -> 2 mu
(hbar = 1) with C_s = 0, and evaluated that way: energy_kratzer_nr reads the
relativistic coefficient set (model.coefficients_at_gamma) at gamma = 2 mu.
The Kratzer spectrum is fully closed-form (the square root no longer
depends on the energy); oracle.nonrel_energy_fd is its independent
Galerkin check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    Kratzer,
    QuantumNumbers,
    RingParams,
    SpecError,
    coefficients_at_gamma,
)


@dataclass(frozen=True)
class NonRelParams:
    """Reduced mass (hbar = 1) and the potential/ring parameters."""

    mu: float
    potential: object
    ring: RingParams

    def __post_init__(self):
        # potential and ring are records that check themselves
        if not math.isfinite(self.mu):
            raise SpecError(f"NonRelParams.mu must be finite, got {self.mu!r}")
        if self.mu <= 0:
            raise SpecError("mu must be positive")


def energy_kratzer_nr(p: NonRelParams, qn: QuantumNumbers) -> float:
    """Rovibrational spectrum of the ring-shaped Kratzer molecule: -g (De re)^2 / (n + zeta)^2."""
    if not isinstance(p.potential, Kratzer):
        raise TypeError("params do not carry a Kratzer potential")
    c = coefficients_at_gamma(2.0 * p.mu, None, p.potential, p.ring, qn)
    return -c.gamma * (p.potential.d_e * p.potential.r_e) ** 2 / (qn.n + c.zeta.real) ** 2
