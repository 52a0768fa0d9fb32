"""Physical symbols, parameter records and quantum-number relations.

Everything downstream (spectral conditions, wavefunctions, oracles) is a
function of a ProblemSpec: which relativistic symmetry limit is imposed
(spin, with Delta = V - S frozen to a constant C_s; pseudospin, with
Sigma = V + S frozen to C_ps), which central potential dresses the double
ring-shaped angular term, the ring strengths (a, b), the particle mass and
the quantum numbers (n, n', m, optionally kappa).

Units: hbar = 1, energies and masses in fm^-1, lengths in fm.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np


class SpecError(ValueError):
    """Invalid parameter record."""


def _require_finite(record):
    """Raise SpecError naming the first NaN or infinite field of a parameter record."""
    for f in fields(record):
        value = getattr(record, f.name)
        if not math.isfinite(value):
            raise SpecError(f"{type(record).__name__}.{f.name} must be finite, got {value!r}")


def branch_sqrt(z):
    """Principal complex square root of z, the one root every condition takes.

    The cut runs along the negative real axis, with a nonnegative imaginary
    part on the cut, as the paper's spectral conditions are stated.
    """
    return cmath.sqrt(complex(z))


@dataclass(frozen=True)
class Spin:
    """Spin symmetry limit: V - S = C_s. Real positive bound energies."""

    constant: float  # C_s, fm^-1

    def __post_init__(self):
        _require_finite(self)


@dataclass(frozen=True)
class Pseudospin:
    """Pseudospin symmetry limit: V + S = C_ps. Real negative bound energies."""

    constant: float  # C_ps, fm^-1

    def __post_init__(self):
        _require_finite(self)


SymmetryKind = Spin | Pseudospin


@dataclass(frozen=True)
class Kratzer:
    """Molecular Kratzer core: V1(r) = -2 De (re/r - re^2/(2 r^2))."""

    d_e: float  # dissociation energy, fm^-1
    r_e: float  # equilibrium distance, fm

    def __post_init__(self):
        _require_finite(self)
        if self.d_e <= 0 or self.r_e <= 0:
            raise SpecError("Kratzer requires d_e > 0 and r_e > 0")
        # the spectral conditions see the Kratzer term only through these two
        # products; one that underflows to 0 turns the potential off.  Products
        # too large for a float raise SpecError when a spec builds its
        # `_ConditionTerms`.
        try:
            products = {
                "d_e * r_e**2": self.d_e * self.r_e**2,
                "(d_e * r_e)**2": (self.d_e * self.r_e) ** 2,
            }
        except OverflowError:
            return
        for name, value in products.items():
            if value == 0:
                raise SpecError(
                    f"Kratzer {name} underflows to 0 (d_e={self.d_e!r}, r_e={self.r_e!r})"
                )

    def radial(self, r):
        q = self.r_e / r
        return -2.0 * (self.d_e * (q - 0.5 * q * q))


@dataclass(frozen=True)
class Oscillator:
    """Harmonic core: V2(r) = k r^2 / 2, k the elastic coefficient (fm^-3)."""

    k: float

    def __post_init__(self):
        _require_finite(self)
        if self.k <= 0:
            raise SpecError("Oscillator requires k > 0")

    def radial(self, r):
        return 0.5 * self.k * r**2


PotentialKind = Kratzer | Oscillator


@dataclass(frozen=True)
class RingParams:
    """Strengths of the angular a/cos^2(theta) and b/sin^2(theta) terms.

    Both are positive real parameters; a = b = 0 recovers the pure central
    potential.
    """

    a: float
    b: float

    def __post_init__(self):
        _require_finite(self)
        if self.a < 0 or self.b < 0:
            raise SpecError("ring strengths must be nonnegative")

    def angular(self, theta):
        s2 = np.sin(theta) ** 2
        c2 = np.cos(theta) ** 2
        return self.b / s2 + self.a / c2


def potential_value(potential: PotentialKind, ring: RingParams, r, theta):
    """V(r, theta) = [b/sin^2 + a/cos^2]/r^2 + V_{1,2}(r)."""
    return ring.angular(theta) / r**2 + potential.radial(r)


@dataclass(frozen=True)
class PhysicalParams:
    """Mass of the Dirac particle (fm^-1); hbar = 1 throughout."""

    mass: float

    def __post_init__(self):
        _require_finite(self)
        if self.mass <= 0:
            raise SpecError("mass must be positive")


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial n, polar n' (the tables' n-tilde column), azimuthal m.

    kappa is the optional spin-orbit quantum number; m is stored signed but
    enters every formula through m^2 or |m|.
    """

    n: int
    n_prime: int
    m: int
    kappa: int | None = None

    def __post_init__(self):
        for name in ("n", "n_prime", "m", "kappa"):
            value = getattr(self, name)
            integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not (integer or (name == "kappa" and value is None)):
                raise SpecError(f"QuantumNumbers.{name} must be an integer, got {value!r}")
        if self.n < 0 or self.n_prime < 0:
            raise SpecError("n and n_prime must be nonnegative")
        if self.kappa == 0:
            raise SpecError("kappa = 0 is not a valid spin-orbit quantum number")


class _ConditionTerms(NamedTuple):
    """The numbers of a spec's spectral forms, the only place they are formed.

    Each entry is a field of the spec or a sum or product the forms formed
    from fields on every call, formed here the same way, so every float
    operation rounds as before.  The Kratzer entries are None for the
    oscillator and k2 is None for the Kratzer.
    """

    is_spin: bool
    oscillator: bool
    mass: float
    c: float  # the symmetry constant C_s or C_ps
    lhs_pole: float  # C_s - M or M + C_ps, the pole of the lhs
    gamma0: float  # gamma at E = 0: M - C_s or -M - C_ps
    a: float
    b: float
    m_sq: int  # m^2
    abs_m: int  # |m|
    two_n_prime: int  # 2 n'
    two_n: int  # 2 n
    nu: float  # n + 1/2
    k2: float | None  # 2 k
    d_e: float | None
    r_e_sq: float | None  # r_e^2
    t_sq: float | None  # (d_e r_e)^2


@dataclass(frozen=True)
class ProblemSpec:
    """Complete input for any computation in this package."""

    symmetry: SymmetryKind
    potential: PotentialKind
    ring: RingParams
    params: PhysicalParams
    qn: QuantumNumbers

    @property
    def mass(self):
        return self.params.mass

    @property
    def is_spin(self):
        return isinstance(self.symmetry, Spin)

    def __getstate__(self):
        # a copy or unpickled spec builds its own cached records on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def _condition_terms(self):
        """The spectral forms' `_ConditionTerms`, built on first use.

        Not a field: equality, hash, repr and `dataclasses.replace` see
        only the five fields, and a replaced spec builds its own record.
        Raises SpecError when a Kratzer product, or a quantum-number term
        (m^2, 2 n', 2 n), overflows a float.  The terms stay ints: each is
        rounded to a float only where a form adds it.
        """
        pot, qn, m, c = self.potential, self.qn, self.mass, self.symmetry.constant
        oscillator, spin = isinstance(pot, Oscillator), self.is_spin
        try:
            r_e_sq, t_sq = (None, None) if oscillator else (pot.r_e**2, (pot.d_e * pot.r_e) ** 2)
        except OverflowError:
            raise SpecError(
                f"the Kratzer products overflow a float (d_e={pot.d_e!r}, r_e={pot.r_e!r})"
            ) from None
        m_sq, two_n_prime, two_n = qn.m**2, 2 * qn.n_prime, 2 * qn.n
        terms = (("m", "m^2", m_sq), ("n_prime", "2 n'", two_n_prime), ("n", "2 n", two_n))
        for name, text, term in terms:
            try:
                float(term)
            except OverflowError:
                raise SpecError(
                    f"QuantumNumbers.{name} is too large: {text} overflows a float"
                ) from None
        return _ConditionTerms(
            is_spin=spin,
            oscillator=oscillator,
            mass=m,
            c=c,
            lhs_pole=c - m if spin else m + c,
            gamma0=m - c if spin else -m - c,
            a=self.ring.a,
            b=self.ring.b,
            m_sq=m_sq,
            abs_m=abs(qn.m),
            two_n_prime=two_n_prime,
            two_n=two_n,
            nu=qn.n + 0.5,
            k2=2.0 * pot.k if oscillator else None,
            d_e=None if oscillator else pot.d_e,
            r_e_sq=r_e_sq,
            t_sq=t_sq,
        )

    @cached_property
    def _eliminant_coefficients(self):
        """(sigma_rhs, read-only coefficients of `spectrum._eliminant`) pairs, built on first use.

        The oscillator's one eliminant comes with sigma_rhs 1.  Raises
        SpecError when the parameters overflow an eliminant coefficient.
        """
        from .spectrum import _eliminant

        out = []
        for sigma_rhs in (1,) if self._condition_terms.oscillator else (1, -1):
            with np.errstate(over="ignore", invalid="ignore"):
                poly = _eliminant(self, sigma_rhs)
            if not np.isfinite(poly).all():
                raise SpecError("the parameters overflow the spectral condition's eliminant")
            poly.setflags(write=False)
            out.append((sigma_rhs, poly))
        return tuple(out)

    @cached_property
    def _eliminant_zeros(self):
        """(sigma_rhs, read-only np.roots of its `_eliminant_coefficients`) pairs."""
        out = tuple((sigma_rhs, np.roots(poly)) for sigma_rhs, poly in self._eliminant_coefficients)
        for _, zeros in out:
            zeros.setflags(write=False)
        return out


@dataclass(frozen=True)
class CoefficientSet:
    """Derived symbols of the separated equations at a candidate energy.

    gamma    : E - M - C_ps (pseudospin) or E + M - C_s (spin)
    ell_eff  : sqrt(a*gamma + 1/4) + sqrt(b*gamma + m^2) + 2 n' + 1, the
               quantized ell + 1/2
    zeta     : 1/2 + sqrt(ell_eff^2 + gamma*De*re^2) (Kratzer; None otherwise)
    eta, p   : angular exponents of sin^2(theta) resp. cos^2(theta)
    decay    : rate of the normalizable radial envelope: exp(-decay*r) for
               Kratzer, exp(-decay*r^2) for the oscillator.  This is the
               branch that makes the printed wavefunctions square-integrable
               at genuine bound roots (see wavefun).
    """

    gamma: complex
    ell_eff: complex
    eta: complex
    p: complex
    zeta: complex | None
    decay: complex


def gamma_of(spec: ProblemSpec, energy) -> complex:
    e, t = complex(energy), spec._condition_terms
    if t.is_spin:
        return e + t.mass - t.c
    return e - t.mass - t.c


def radial_equation_beta_sq(spec: ProblemSpec, energy) -> complex:
    """Coefficient b(E) of the constant term in the second-order radial equation.

    (E + M)(E - M - C_ps) for pseudospin.  For spin the squared Dirac
    reduction carries (M - E)(C_s - E - M), the sign-flipped partner of the
    separated equations' beta^2 = (E - M)(C_s - E - M).  The
    oracle and the wavefunction decay rates use it.
    """
    e, t = complex(energy), spec._condition_terms
    if t.is_spin:
        return -((e - t.mass) * (t.c - e - t.mass))
    return (e + t.mass) * (e - t.mass - t.c)


def coefficients_at_gamma(g, decay, potential, ring, qn) -> CoefficientSet:
    """The coefficient set at gamma g; decay is carried as given.

    ell_eff, eta, p and zeta depend on the energy only through g, so the
    nonrelativistic limit evaluates them here at g = 2 mu.  eta and
    p reuse ell_eff's two square roots.
    """
    root_a = branch_sqrt(ring.a * g + 0.25)
    root_b = branch_sqrt(ring.b * g + qn.m * qn.m)
    ell_eff = root_a + root_b + 2 * qn.n_prime + 1
    zeta = None
    if isinstance(potential, Kratzer):
        zeta = 0.5 + branch_sqrt(ell_eff**2 + g * (potential.d_e * potential.r_e**2))
    return CoefficientSet(
        gamma=g,
        ell_eff=ell_eff,
        eta=0.25 * (1 + 2 * root_b),
        p=0.25 * (1 + 2 * root_a),
        zeta=zeta,
        decay=decay,
    )


def derive_coefficients(spec: ProblemSpec, energy) -> CoefficientSet:
    """All derived symbols for a candidate energy; complex arithmetic is total."""
    g = gamma_of(spec, energy)
    if isinstance(spec.potential, Kratzer):
        decay = branch_sqrt(-radial_equation_beta_sq(spec, energy))
    else:
        decay = branch_sqrt(-g * spec.potential.k / 8.0)
    return coefficients_at_gamma(g, decay, spec.potential, spec.ring, spec.qn)

