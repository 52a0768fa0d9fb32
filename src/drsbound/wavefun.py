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
and w^2 = -(M-E)(C_s-E-M) in the spin limit (w^2 = -b(E) in both, b the
constant of model.radial_equation_beta_sq), and like exp(-W r^2) with
W^2 = -gamma k / 8 for the oscillator in both limits.
These are the unique square-integrable choices at every class-A root of the
bundled tables; model.derive_coefficients exposes them as `decay`.
"""

from __future__ import annotations

import functools
import math

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
    return r**zeta * np.exp(-w * r) * hyp1f1_terminating(n, 2 * zeta, 2 * w * r)


def radial_oscillator(r, coeffs: CoefficientSet, n: int):
    """Oscillator radial factor r^(l+1) exp(-W r^2) 1F1(-n; l+3/2; 2 W r^2)."""
    w = _decay(coeffs)
    leff = _real(coeffs.ell_eff, "ell_eff")
    r = np.asarray(r, dtype=float)
    series = hyp1f1_terminating(n, leff + 1.0, 2 * w * r * r)
    return r ** (leff + 0.5) * np.exp(-w * r * r) * series


def angular_H(theta, coeffs: CoefficientSet, n_prime: int):
    """Polar factor sin^(2 eta) cos^(2 p) 2F1(-n', n'+2(eta+p); 2 eta+1/2; sin^2)."""
    eta = _real(coeffs.eta, "eta")
    p = _real(coeffs.p, "p")
    theta = np.asarray(theta, dtype=float)
    s2 = np.sin(theta) ** 2
    c2 = np.cos(theta) ** 2
    poly = hyp2f1_terminating(n_prime, n_prime + 2 * (eta + p), 2 * eta + 0.5, s2)
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


def normalization_constant(spec: ProblemSpec, energy) -> float:
    """Closed-form constant that normalizes the single printed component.

    The other component is left out: it is not evaluable whenever the
    other symmetry sector is complex.  Raises OverflowError when a Gamma
    factor of the norm integral leaves the float range (high m or n').
    """
    return 1.0 / math.sqrt(component_norm_integral(spec, energy))


def assemble_component(spec: ProblemSpec, energy, r, theta, phi, normalization=None):
    """Normalized component at (r, theta, phi); complex-valued through phi.

    Radial, polar and azimuthal factors with the Gamma prefactors, divided
    by r sin^(1/2)(theta).
    """
    coeffs = derive_coefficients(spec, energy)
    if normalization is None:
        normalization = normalization_constant(spec, energy)
    qn = spec.qn
    radial = radial_kratzer if isinstance(spec.potential, Kratzer) else radial_oscillator
    rad = radial(r, coeffs, qn.n)
    ang = angular_H(theta, coeffs, qn.n_prime)
    azi = azimuthal_phi(phi, qn.m)
    pref = gamma_prefactor(spec, coeffs, qn.n)
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return normalization * pref * rad * ang * azi / (r * np.sqrt(np.sin(theta)))


#: Step in t of both double-exponential rules of `verify_normalization`.
DE_STEP = 0.025


@functools.cache
def _double_exponential(step):
    """(x, wx, theta, wtheta) of two rules, built on first use and read-only.

    exp-sinh on (0, inf): x = exp(pi/2 sinh t), kept where 1e-8 < x < 64 so
    that r**zeta cannot overflow; tanh-sinh on (0, pi/2):
    theta = (pi/2) / (1 + exp(-pi sinh t)) for |t| <= 2.75, with no
    cancellation as theta -> 0.  Both converge exponentially despite
    end-point power singularities (Takahasi & Mori, Publ. RIMS 9 (1974) 721;
    Mori & Sugihara, J. Comput. Appl. Math. 127 (2001) 287).
    """
    # |t| <= 3.2 holds both: x > 1e-8 needs t > -3.16
    t = step * np.arange(-math.ceil(3.2 / step), math.ceil(3.2 / step) + 1)
    u = 0.5 * math.pi * np.sinh(t)
    du = step * 0.5 * math.pi * np.cosh(t)
    x = np.exp(u)
    radial = (x > 1e-8) & (x < 64.0)
    polar = np.abs(t) <= 2.75
    rule = (
        x[radial],
        x[radial] * du[radial],
        0.5 * math.pi / (1.0 + np.exp(-2.0 * u[polar])),
        0.25 * math.pi * du[polar] / np.cosh(u[polar]) ** 2,
    )
    for a in rule:
        a.flags.writeable = False
    return rule


def verify_normalization(spec: ProblemSpec, energy):
    """|quadrature of the squared normalized component - 1|.

    The rules of `_double_exponential` at step DE_STEP: r = s x at the
    envelope scale s = (zeta + n + 1)/w (Kratzer) or
    sqrt((ell_eff + n + 1)/w) (oscillator), and theta over (0, pi/2),
    doubled by theta -> pi - theta so that the kink of cos^(4p) theta at
    pi/2 is an end point; the phi integral of |e^{im phi}|^2 = 1 is 2 pi
    exactly.  The radial and polar factors are evaluated on the 1-D nodes,
    as a column and a row; broadcasting forms the product grid.
    """
    coeffs = derive_coefficients(spec, energy)
    w, n = _decay(coeffs), spec.qn.n
    if isinstance(spec.potential, Kratzer):
        scale = (_real(coeffs.zeta, "zeta") + n + 1.0) / w
    else:
        scale = math.sqrt((_real(coeffs.ell_eff, "ell_eff") + n + 1.0) / w)
    x, wx, th, wt = _double_exponential(DE_STEP)
    rr, tt = scale * x[:, None], th[None, :]
    vals = np.abs(assemble_component(spec, energy, rr, tt, 0.0)) ** 2 * rr**2 * np.sin(tt)
    return abs(4.0 * math.pi * np.einsum("i,j,ij->", scale * wx, wt, vals) - 1.0)
