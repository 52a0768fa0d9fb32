"""Nonrelativistic limits: closed-form spectra and wavefunctions.

Obtained from the spin-limit solutions through E - M -> E, E + M -> 2 mu /
hbar^2 with C_s = 0, and evaluated that way: `coefficients_nr` is the
relativistic coefficient set (model.coefficients_at_gamma) at gamma =
2 mu / hbar^2, and the wavefunction is the relativistic component formula
(wavefun.evaluate_component) at that set.  The Kratzer spectrum is fully
closed-form (the square root no longer depends on the energy); the
oscillator spectrum is a linear ladder.  The claimed reduction of the
oscillator ladder to the textbook centrifugal form is checked and
reported, not asserted: direct substitution of 2 n' + 1/2 = ell leaves a
constant offset of 1/2, so the check returns all three numbers (direct
substitution, textbook form, finite-difference eigenvalue) and their
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    CoefficientSet,
    Kratzer,
    Oscillator,
    QuantumNumbers,
    RingParams,
    SpecError,
    branch_sqrt,
    coefficients_at_gamma,
)
from .wavefun import evaluate_component


@dataclass(frozen=True)
class NonRelParams:
    """Reduced mass, action unit and the potential/ring parameters."""

    mu: float
    potential: object
    ring: RingParams = RingParams(0.0, 0.0)
    hbar: float = 1.0

    def __post_init__(self):
        if self.mu <= 0 or self.hbar <= 0:
            raise SpecError("mu and hbar must be positive")


def coefficients_nr(p: NonRelParams, qn: QuantumNumbers, energy=None) -> CoefficientSet:
    """The relativistic coefficient set in the nonrelativistic limit.

    gamma = E + M - C_s becomes g = 2 mu / hbar^2 and beta^2 = (E - M)(C_s -
    E - M) becomes -g E.  The envelope rates are the bound-state ones:
    sqrt(-2 mu E) / hbar for the Kratzer (None without an energy) and the
    Gaussian width sqrt(mu k / 4 hbar^2) for the oscillator.
    """
    g = 2.0 * p.mu / p.hbar**2
    beta_sq = None if energy is None else -g * energy
    if isinstance(p.potential, Oscillator):
        decay = branch_sqrt(p.mu * p.potential.k / (4.0 * p.hbar**2))
    else:
        decay = None if energy is None else branch_sqrt(-2.0 * p.mu * energy) / p.hbar
    return coefficients_at_gamma(g, beta_sq, decay, p.potential, p.ring, qn)


def energy_kratzer_nr(p: NonRelParams, qn: QuantumNumbers) -> float:
    """Rovibrational spectrum of the ring-shaped Kratzer molecule: -g (De re)^2 / (n + zeta)^2."""
    if not isinstance(p.potential, Kratzer):
        raise TypeError("params do not carry a Kratzer potential")
    c = coefficients_nr(p, qn)
    return -c.gamma * (p.potential.d_e * p.potential.r_e) ** 2 / (qn.n + c.zeta.real) ** 2


def energy_oscillator_nr(p: NonRelParams, qn: QuantumNumbers) -> float:
    """Equidistant ladder of the ring-shaped oscillator."""
    if not isinstance(p.potential, Oscillator):
        raise TypeError("params do not carry an Oscillator potential")
    omega = coefficients_nr(p, qn).omega.real
    return p.hbar * math.sqrt(p.potential.k / p.mu) * (omega + 2.0 * (qn.n_prime + qn.n + 1.0))


@dataclass(frozen=True)
class ReductionReport:
    """Three values of the centrifugal-reduction check and their spreads."""

    substituted: float  # ladder formula under 2 n' + 1/2 = ell
    textbook: float  # sqrt(k/mu) (2 n + 3/2 + ell)
    fd_eigenvalue: float
    substituted_vs_textbook: float
    fd_vs_textbook: float


def reduction_check_oscillator(p: NonRelParams, ell: int, n: int) -> ReductionReport:
    """Compare the ladder under the stated substitution with the textbook form.

    Nothing is asserted: the substitution 2 n' + 1/2 = ell into the a = b = 0
    ladder gives sqrt(k/mu)(2 n + ell + 2), a constant 1/2 above the textbook
    sqrt(k/mu)(2 n + 3/2 + ell); the report carries both alongside an
    independent finite-difference eigenvalue of the radial oscillator with an
    explicit centrifugal term.
    """
    if not isinstance(p.potential, Oscillator):
        raise TypeError("params do not carry an Oscillator potential")
    if p.ring.a != 0 or p.ring.b != 0:
        raise SpecError("the reduction claim addresses a = b = 0")
    from .oracle import FdGrid, fd_radial_eigs

    k, mu, hbar = p.potential.k, p.mu, p.hbar
    omega = math.sqrt(k / mu)
    # ladder with m = 0, a = b = 0: hbar omega (1/2 + 2 n' + 2 n + 2);
    # substitute 2 n' = ell - 1/2
    substituted = hbar * omega * (0.5 + (ell - 0.5) + 2.0 * n + 2.0)
    textbook = hbar * omega * (2.0 * n + 1.5 + ell)
    scale = math.sqrt(hbar / (mu * omega))
    r_max = scale * math.sqrt(2.0 * (2 * n + ell + 12.0))
    grid = FdGrid(0.0, float(r_max), 6000)

    def v_eff(r):
        return hbar**2 * ell * (ell + 1.0) / (2.0 * mu * r**2) + 0.5 * k * r**2

    mass_factor = 2.0 * mu / hbar**2
    fd = fd_radial_eigs(v_eff, grid, n + 1, mass_factor=mass_factor, refine=True, first=n)[0]
    return ReductionReport(
        substituted=substituted,
        textbook=textbook,
        fd_eigenvalue=fd,
        substituted_vs_textbook=substituted - textbook,
        fd_vs_textbook=fd - textbook,
    )


def wavefunction_nr(p: NonRelParams, qn: QuantumNumbers, r, theta, phi, energy=None):
    """Nonrelativistic component with the barred parameters; real sector only.

    The relativistic component formula at `coefficients_nr`: the radial
    envelope decays like exp(-sqrt(-2 mu E / hbar^2) r) for the
    (negative-energy) Kratzer bound states and like
    exp(-sqrt(mu k / 4 hbar^2) r^2) for the oscillator.
    """
    if isinstance(p.potential, Kratzer):
        if energy is None:
            energy = energy_kratzer_nr(p, qn)
        if energy >= 0:
            raise SpecError("Kratzer bound state requires E < 0")
    return evaluate_component(p, coefficients_nr(p, qn, energy), qn, r, theta, phi)
