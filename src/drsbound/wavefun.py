"""Assembled spinor components, closed-form norms, quadrature verification.

A component is the product of radial, polar and azimuthal factors divided by
r sin^(1/2)(theta), times the printed Gamma prefactors and a normalization
constant.  Evaluation is restricted to the real sector: all exponents
(zeta, eta, p) and the radial decay rate must be real, which holds for every
genuine bound root of the spin cases and for the pure central pseudospin
cases; ring-dressed pseudospin roots make eta and p complex and are flagged
rather than evaluated.

Sign bookkeeping for the envelopes: the radial equations damp genuine bound
states like exp(-w r) with w^2 = -(M+E)(E-M-C_ps) in the pseudospin limit
and w^2 = -(M-E)(C_s-E-M) in the spin limit (the latter is the sign-flipped
partner of the beta^2 convention carried by CoefficientSet), and like
exp(-W r^2) with W^2 = -gamma k / 8 for the oscillator in both limits.
These are the unique square-integrable choices at every class-A root of the
bundled tables; model.derive_coefficients exposes them as `decay`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import CoefficientSet, Kratzer, ProblemSpec, derive_coefficients
from .specfun import gamma_fn, hyp1f1_terminating, hyp2f1_terminating


class ComplexSectorError(ValueError):
    """Wavefunction requested outside the real parameter sector."""


class NonNormalizableError(ValueError):
    """Radial envelope does not decay; the state is not square-integrable."""


REAL_TOL = 1e-10


def _real(z, what):
    z = complex(z)
    if abs(z.imag) > REAL_TOL * (1.0 + abs(z.real)):
        raise ComplexSectorError(f"complex angular sector: {what} = {z}")
    return z.real


def _decay(coeffs: CoefficientSet):
    """Kratzer decay rate or oscillator Gaussian width; NonNormalizableError unless real > 0."""
    w = complex(coeffs.decay)
    if abs(w.imag) > REAL_TOL * (1.0 + abs(w)) or w.real <= 0:
        what = "Gaussian width" if coeffs.zeta is None else "radial decay rate"
        raise NonNormalizableError(f"{what} {w} is not real positive")
    return w.real


def radial_kratzer(r, coeffs: CoefficientSet, n: int):
    """Kratzer radial factor r^zeta exp(-w r) 1F1(-n; 2 zeta; 2 w r)."""
    w = _decay(coeffs)
    zeta = _real(coeffs.zeta, "zeta")
    r = np.asarray(r, dtype=float)
    return r**zeta * np.exp(-w * r) * hyp1f1_terminating(n, 2 * zeta, 2 * w * r).value


def radial_oscillator(r, coeffs: CoefficientSet, n: int):
    """Oscillator radial factor r^(l+1) exp(-W r^2) 1F1(-n; l+3/2; 2 W r^2)."""
    w = _decay(coeffs)
    leff = _real(coeffs.ell_eff, "ell_eff")
    r = np.asarray(r, dtype=float)
    series = hyp1f1_terminating(n, leff + 1.0, 2 * w * r * r).value
    return r ** (leff + 0.5) * np.exp(-w * r * r) * series


def angular_H(theta, coeffs: CoefficientSet, n_prime: int):
    """Polar factor sin^(2 eta) cos^(2 p) 2F1(-n', n'+2(eta+p); 2 eta+1/2; sin^2)."""
    eta = _real(coeffs.eta, "eta")
    p = _real(coeffs.p, "p")
    theta = np.asarray(theta, dtype=float)
    s2 = np.sin(theta) ** 2
    c2 = np.cos(theta) ** 2
    poly = hyp2f1_terminating(n_prime, n_prime + 2 * (eta + p), 2 * eta + 0.5, s2).value
    return s2**eta * c2**p * poly


def azimuthal_phi(phi, m: int):
    """exp(i m phi) / sqrt(2 pi); unit norm over a period."""
    phi = np.asarray(phi, dtype=float)
    return np.exp(1j * m * phi) / math.sqrt(2.0 * math.pi)


def gamma_prefactor(spec: ProblemSpec, coeffs: CoefficientSet, n: int):
    """The printed constant Gamma-quotient prefactors of the component."""
    eta = _real(coeffs.eta, "eta")
    ang = gamma_fn(2 * eta + 0.5 + n) / gamma_fn(2 * eta + 0.5)
    if isinstance(spec.potential, Kratzer):
        w = _decay(coeffs)
        rad = gamma_fn(2 * w + n) / gamma_fn(2 * w)
    else:
        leff = _real(coeffs.ell_eff, "ell_eff")
        rad = gamma_fn(leff + 1.0 + n) / gamma_fn(leff + 1.0)
    return rad * ang


def component_norm_integral(spec: ProblemSpec, energy) -> float:
    """Exact norm integral of one unnormalized component (prefactors included).

    The radial part reduces to a weighted Laguerre integral, the polar part
    to the Jacobi orthogonality norm via the terminating-hypergeometric
    conversions; the azimuthal part is already unit-normalized.
    """
    coeffs = derive_coefficients(spec, energy)
    n, npr = spec.qn.n, spec.qn.n_prime
    eta = _real(coeffs.eta, "eta")
    p = _real(coeffs.p, "p")
    pref = gamma_prefactor(spec, coeffs, n)
    w = _decay(coeffs)
    if isinstance(spec.potential, Kratzer):
        zeta = _real(coeffs.zeta, "zeta")
        i_r = (
            math.factorial(n)
            * gamma_fn(2 * zeta) ** 2
            * (2 * zeta + 2 * n)
            / (gamma_fn(n + 2 * zeta) * (2 * w) ** (2 * zeta + 1))
        )
    else:
        leff = _real(coeffs.ell_eff, "ell_eff")
        i_r = (
            math.factorial(n)
            * gamma_fn(leff + 1.0) ** 2
            / (2.0 * gamma_fn(n + leff + 1.0) * (2 * w) ** (leff + 1.0))
        )
    i_theta = (
        math.factorial(npr)
        * gamma_fn(2 * eta + 0.5) ** 2
        * gamma_fn(2 * p + 0.5 + npr)
        / (
            gamma_fn(2 * eta + 0.5 + npr)
            * (2 * npr + 2 * eta + 2 * p)
            * gamma_fn(npr + 2 * eta + 2 * p)
        )
    )
    return pref**2 * i_r * i_theta


def normalization_constant(spec: ProblemSpec, energy, counterpart=None) -> float:
    """Closed-form normalization constant.

    With a counterpart (spec, energy) pair the constant normalizes the sum
    of both components' norm integrals, mirroring the combined two-component
    condition; without one it falls back to normalizing the single printed
    component, which is the only evaluable choice whenever the other
    symmetry sector is complex.
    """
    total = component_norm_integral(spec, energy)
    if counterpart is not None:
        other_spec, other_energy = counterpart
        total += component_norm_integral(other_spec, other_energy)
    return 1.0 / math.sqrt(total)


def _radial(spec, coeffs: CoefficientSet, r, n: int):
    if isinstance(spec.potential, Kratzer):
        return radial_kratzer(r, coeffs, n)
    return radial_oscillator(r, coeffs, n)


def evaluate_component(spec, coeffs: CoefficientSet, qn, r, theta, phi, scale=1.0):
    """scale times the printed component at (r, theta, phi) for a coefficient set.

    Radial, polar and azimuthal factors with the Gamma prefactors, divided
    by r sin^(1/2)(theta).  spec only supplies `.potential`, so a
    nonrelativistic parameter record serves as well as a ProblemSpec.
    """
    rad = _radial(spec, coeffs, r, qn.n)
    ang = angular_H(theta, coeffs, qn.n_prime)
    azi = azimuthal_phi(phi, qn.m)
    pref = gamma_prefactor(spec, coeffs, qn.n)
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return scale * pref * rad * ang * azi / (r * np.sqrt(np.sin(theta)))


def assemble_component(spec: ProblemSpec, energy, r, theta, phi, normalization=None):
    """Normalized component at (r, theta, phi); complex-valued through phi."""
    coeffs = derive_coefficients(spec, energy)
    if normalization is None:
        normalization = normalization_constant(spec, energy)
    return evaluate_component(spec, coeffs, spec.qn, r, theta, phi, normalization)


@dataclass(frozen=True)
class SpinorField:
    """Evaluable normalized component tied to one spec and class-A energy."""

    spec: ProblemSpec
    energy: float
    normalization: float

    @classmethod
    def build(cls, spec: ProblemSpec, energy, counterpart=None):
        return cls(spec, float(energy), normalization_constant(spec, energy, counterpart))

    @property
    def component(self):
        return "upper" if self.spec.is_spin else "lower"

    def __call__(self, r, theta, phi):
        return assemble_component(self.spec, self.energy, r, theta, phi, self.normalization)


def _envelope_radius(spec: ProblemSpec, coeffs: CoefficientSet):
    """Radius where the radial envelope has decayed to exp(-40), ~1e-17."""
    w = _decay(coeffs)
    return 40.0 / w if isinstance(spec.potential, Kratzer) else math.sqrt(40.0 / w)


#: Gauss-Legendre nodes of `verify_normalization` in r and in theta.
RADIAL_NODES, THETA_NODES = 200, 200


@functools.cache
def _gauss_legendre(nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use and read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def verify_normalization(spec: ProblemSpec, energy):
    """|quadrature of the squared normalized component - 1|.

    Gauss-Legendre on RADIAL_NODES nodes in r and THETA_NODES in theta; the
    phi integral of |e^{im phi}|^2 = 1 is 2 pi exactly.  The radial domain
    is truncated where the envelope has decayed to ~1e-17.
    """
    r_max = _envelope_radius(spec, derive_coefficients(spec, energy))
    xr, wr = _gauss_legendre(RADIAL_NODES)
    r = 0.5 * r_max * (xr + 1.0)
    wr = 0.5 * r_max * wr
    xt, wt = _gauss_legendre(THETA_NODES)
    th = 0.5 * math.pi * (xt + 1.0)
    wt = 0.5 * math.pi * wt
    field = SpinorField.build(spec, energy)
    rr, tt = np.meshgrid(r, th, indexing="ij")
    vals = np.abs(field(rr, tt, 0.0)) ** 2 * rr**2 * np.sin(tt)
    radial_theta = np.einsum("i,j,ij->", wr, wt, vals)
    return abs(2.0 * math.pi * radial_theta - 1.0)


def radial_node_count(spec: ProblemSpec, energy):
    """Sign changes of the radial factor at 4000 points up to the envelope radius."""
    coeffs = derive_coefficients(spec, energy)
    r_max = _envelope_radius(spec, coeffs)
    r = np.linspace(r_max / 4000, r_max, 4000)
    vals = _radial(spec, coeffs, r, spec.qn.n)
    signs = np.sign(vals)
    return int(np.sum(signs[:-1] * signs[1:] < 0))
