"""Nonrelativistic limits: closed-form spectra and wavefunctions.

Obtained from the spin-limit solutions through E - M -> E, E + M -> 2 mu /
hbar^2 with C_s = 0.  The Kratzer spectrum is fully closed-form (the square
root no longer depends on the energy); the oscillator spectrum is a linear
ladder.  The claimed reduction of the oscillator ladder to the textbook
centrifugal form is checked and reported, not asserted: direct substitution
of 2 n' + 1/2 = ell leaves a constant offset of 1/2, so the check returns
all three numbers (direct substitution, textbook form, finite-difference
eigenvalue) and their differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Kratzer, Oscillator, QuantumNumbers, RingParams, SpecError
from .specfun import gamma_fn, hyp1f1_terminating, hyp2f1_terminating


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


def _angular_root_sum(p: NonRelParams, m: int):
    g = 2.0 * p.mu / p.hbar**2
    return math.sqrt(g * p.ring.a + 0.25) + math.sqrt(g * p.ring.b + m * m)


def energy_kratzer_nr(p: NonRelParams, qn: QuantumNumbers) -> float:
    """Rovibrational spectrum of the ring-shaped Kratzer molecule."""
    if not isinstance(p.potential, Kratzer):
        raise TypeError("params do not carry a Kratzer potential")
    d_e, r_e = p.potential.d_e, p.potential.r_e
    g = 2.0 * p.mu / p.hbar**2
    ell_eff = _angular_root_sum(p, qn.m) + 2 * qn.n_prime + 1
    bracket = qn.n + 0.5 + math.sqrt(ell_eff**2 + g * d_e * r_e**2)
    return -g * (d_e * r_e) ** 2 / bracket**2


def energy_oscillator_nr(p: NonRelParams, qn: QuantumNumbers) -> float:
    """Equidistant ladder of the ring-shaped oscillator."""
    if not isinstance(p.potential, Oscillator):
        raise TypeError("params do not carry an Oscillator potential")
    k = p.potential.k
    return (
        p.hbar
        * math.sqrt(k / p.mu)
        * (_angular_root_sum(p, qn.m) + 2.0 * (qn.n_prime + qn.n + 1.0))
    )


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

    fd = fd_radial_eigs(v_eff, grid, n + 1, mass_factor=2.0 * mu / hbar**2, refine=True)[n]
    return ReductionReport(
        substituted=substituted,
        textbook=textbook,
        fd_eigenvalue=fd,
        substituted_vs_textbook=substituted - textbook,
        fd_vs_textbook=fd - textbook,
    )


def _barred_coefficients(p: NonRelParams, qn: QuantumNumbers, energy):
    g = 2.0 * p.mu / p.hbar**2
    eta = 0.25 * (1.0 + 2.0 * math.sqrt(qn.m**2 + g * p.ring.b))
    pp = 0.25 * (1.0 + 2.0 * math.sqrt(0.25 + g * p.ring.a))
    ell_eff = _angular_root_sum(p, qn.m) + 2 * qn.n_prime + 1
    return g, eta, pp, ell_eff


def wavefunction_nr(p: NonRelParams, qn: QuantumNumbers, r, theta, phi, energy=None):
    """Nonrelativistic component with the barred parameters; real sector only.

    The radial envelope uses the decaying branch, exp(-beta_bar r) with
    beta_bar = sqrt(-2 mu E / hbar^2) for the (negative-energy) Kratzer bound
    states and exp(-sqrt(mu k / 4 hbar^2) r^2) for the oscillator.
    """
    g, eta, pp, ell_eff = _barred_coefficients(p, qn, energy)
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    s2 = np.sin(theta) ** 2
    ang = s2**eta * (np.cos(theta) ** 2) ** pp * hyp2f1_terminating(
        qn.n_prime, qn.n_prime + 2 * (eta + pp), 2 * eta + 0.5, s2
    ).value
    azi = np.exp(1j * qn.m * phi) / math.sqrt(2.0 * math.pi)
    if isinstance(p.potential, Kratzer):
        if energy is None:
            energy = energy_kratzer_nr(p, qn)
        if energy >= 0:
            raise SpecError("Kratzer bound state requires E < 0")
        beta_bar = math.sqrt(-2.0 * p.mu * energy) / p.hbar
        zeta_bar = 0.5 + math.sqrt(ell_eff**2 + g * p.potential.d_e * p.potential.r_e**2)
        pref = gamma_fn(2 * beta_bar + qn.n) / gamma_fn(2 * beta_bar)
        rad = (
            r**zeta_bar
            * np.exp(-beta_bar * r)
            * hyp1f1_terminating(qn.n, 2 * zeta_bar, 2 * beta_bar * r).value
        )
    else:
        k = p.potential.k
        width = math.sqrt(p.mu * k / (4.0 * p.hbar**2))
        pref = gamma_fn(ell_eff + 1.0 + qn.n) / gamma_fn(ell_eff + 1.0)
        rad = (
            r ** (ell_eff + 0.5)
            * np.exp(-width * r * r)
            * hyp1f1_terminating(qn.n, ell_eff + 1.0, 2.0 * width * r * r).value
        )
    pref = pref * gamma_fn(2 * eta + 0.5 + qn.n) / gamma_fn(2 * eta + 0.5)
    return pref * rad * ang * azi / (r * np.sqrt(np.sin(theta)))
